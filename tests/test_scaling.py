import numpy as np
import pytest
import scipy.optimize
from hypothesis import given
from hypothesis import strategies as st

import framescale as fs
import framescale.scaling as sc
from framescale.frames import _unit_rows
from framescale.scaling import _gram_columns, _half_plane_margin, _standard_verdict, _vech
from helpers import (
    clustered_unit_frame,
    cone_rows,
    magnitude_gate_frames,
    open_quadrant_frame,
    random_onb_rows,
    random_rotation,
    reference_open_quadrant_certificate,
    row_transform,
    scalable_rows,
    unit_rows,
)

RT2 = np.sqrt(2.0)


def test_solve_examples():
    # the 2x2 linear system forces w3 = 0, w1 = w2 = 1
    verdict = fs.solve_standard_scaling([[1.0, 0.0], [0.0, 1.0], [1 / RT2, 1 / RT2]])
    assert verdict.feasible
    assert np.allclose(verdict.scaling.constants, [1.0, 1.0, 0.0], atol=1e-10)
    assert verdict.residual <= 1e-12

    onb = fs.solve_standard_scaling(np.eye(4))
    assert onb.feasible and np.allclose(onb.scaling.constants, np.ones(4), atol=1e-12)

    quad = np.array([[1.0, 1.0], [2.0, 1.0], [1.0, 2.0]])
    quad /= np.linalg.norm(quad, axis=1, keepdims=True)
    infeasible = fs.solve_standard_scaling(quad)
    assert not infeasible.feasible
    assert infeasible.certificate == "open-quadrant"
    assert infeasible.scaling is None and infeasible.residual > 1e-2


def test_solve_empty_and_bad_tol():
    with pytest.raises(ValueError):
        fs.solve_standard_scaling(np.zeros((0, 2)))
    with pytest.raises(ValueError):
        fs.solve_standard_scaling(np.eye(2), tol=-1.0)


def test_solve_against_projection_target_records_warning():
    P = fs.canonical_projection([0, 1], 3)
    vectors = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.3]])  # second leaks out of the range
    verdict = fs.solve_standard_scaling(vectors, target=P)
    assert verdict.warnings and "projected" in verdict.warnings[0]
    assert verdict.feasible
    scaled = verdict.scaling.constants[:, None] * (vectors @ P.matrix)
    assert fs.verify_parseval(scaled, target=P).passed
    with pytest.raises(ValueError, match=r"target acts on R\^4 but vectors live in R\^3"):
        fs.solve_standard_scaling(vectors, target=fs.canonical_projection([0, 1], 4))


def test_open_quadrant_certificate_examples():
    assert fs.open_quadrant_certificate([[1.0, 1.0], [2.0, 1.0], [1.0, 2.0]])
    assert not fs.open_quadrant_certificate([[1.0, 0.0], [0.0, 1.0]])
    # after the canonical flip the two vectors straddle the axis, and
    # indeed w = (1, 1) scales them
    assert not fs.open_quadrant_certificate([[1.0, 1.0], [1.0, -1.0]])
    pair = np.array([[1.0, 1.0], [1.0, -1.0]]) / RT2
    assert fs.solve_standard_scaling(pair).feasible

    # flips make the certificate sign-symmetric
    assert fs.open_quadrant_certificate([[-1.0, -1.0], [2.0, 1.0]])

    with pytest.raises(ValueError):
        fs.open_quadrant_certificate([[0.0, 0.0], [1.0, 1.0]])
    with pytest.raises(ValueError):
        fs.open_quadrant_certificate([[1.0, 1.0, 1.0]])


def test_quadrant_certificate_implies_infeasible_sampled():
    rng = np.random.default_rng(20240325)
    checked = 0
    for _ in range(1000):
        frame = open_quadrant_frame(rng, int(rng.integers(2, 7)))
        if not fs.open_quadrant_certificate(frame.vectors):
            continue
        checked += 1
        verdict = fs.solve_standard_scaling(frame.vectors)
        assert not verdict.feasible
        assert verdict.certificate == "open-quadrant"
    assert checked >= 900


def _degrees(*angles):
    a = np.radians(angles)
    return np.column_stack([np.cos(a), np.sin(a)])


def test_half_plane_certificate_outside_one_quadrant():
    # doubled angles 100, 140 and 200 degrees fit in a half circle, but no
    # sign flips put the three vectors in one open quadrant
    V = _degrees(50.0, 70.0, 100.0)
    assert not fs.open_quadrant_certificate(V)
    verdict = fs.solve_standard_scaling(V)
    assert not verdict.feasible and verdict.certificate == "half-plane"
    s = float(_half_plane_margin(V[None])[0])
    assert s == pytest.approx(np.cos(np.radians(50.0)))
    # the screen decides it and reports the bound; NNLS reaches no less
    assert verdict.iterations == 0 and verdict.residual == np.sqrt(2.0) * s / np.sqrt(1.0 + s * s)
    solved = _standard_verdict(V, fs.DEFAULT_TOL)
    assert solved.certificate == "half-plane" and solved.residual >= verdict.residual - 1e-12

    # the same family inside a rank-2 target in R^3
    P = fs.canonical_projection([0, 2], 3)
    W = np.column_stack([V[:, 0], np.zeros(3), V[:, 1]])
    target = fs.solve_standard_scaling(W, target=P)
    assert not target.feasible and target.certificate == "half-plane"


def test_two_dim_certificates_only_on_nnls_infeasible_families():
    scipy_optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(41)
    labels = {"open-quadrant": 0, "half-plane": 0, "residual-infeasible": 0, None: 0}
    for _ in range(300):
        m = int(rng.integers(2, 7))
        arc = rng.uniform(0.1, 2.0 * np.pi)  # spread of the doubled angles
        theta = (rng.uniform(0.0, 2.0 * np.pi) + rng.uniform(0.0, arc, m)) / 2.0
        theta += np.pi * rng.integers(0, 2, m)
        V = rng.uniform(0.5, 2.0, (m, 1)) * np.column_stack([np.cos(theta), np.sin(theta)])
        verdict = fs.solve_standard_scaling(V)
        labels[verdict.certificate] += 1
        reference = scipy_optimize.nnls(_gram_columns(V), _vech(np.eye(2)))[1]
        if verdict.certificate in ("open-quadrant", "half-plane"):
            assert reference > fs.DEFAULT_TOL
        s = float(_half_plane_margin(V[None])[0])
        if s > 1e-6:
            # a clear half-plane margin never leaves the bare solver label
            assert verdict.certificate in ("open-quadrant", "half-plane")
        if verdict.certificate == "half-plane":
            # the screen reports the bound, a solve a residual above it
            assert reference >= np.sqrt(2.0) * s / np.sqrt(1.0 + s * s) - 1e-12
            assert verdict.residual >= np.sqrt(2.0) * s / np.sqrt(1.0 + s * s) - 1e-12
    assert labels["half-plane"] >= 20 and labels["open-quadrant"] >= 20 and labels[None] >= 20


@given(st.integers(0, 10_000))
def test_unit_norm_constant_invariants(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    blocks = [random_onb_rows(rng, n) for _ in range(int(rng.integers(1, 4)))]
    X = np.vstack(blocks)
    verdict = fs.solve_standard_scaling(X)
    assert verdict.feasible
    csq = verdict.scaling.constants**2
    assert csq.max() <= 1.0 + 1e-7
    assert abs(csq.sum() - n) <= 1e-7


@given(st.integers(0, 10_000))
def test_feasibility_invariant_under_flips_and_rescaling(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 4))
    X = np.vstack([random_onb_rows(rng, n), unit_rows(rng, 2, n)])
    base = fs.solve_standard_scaling(X)

    signs = rng.choice([-1.0, 1.0], size=X.shape[0])[:, None]
    scales = rng.uniform(0.3, 3.0, size=X.shape[0])[:, None]
    modified = fs.solve_standard_scaling(signs * scales * X)
    assert base.feasible == modified.feasible
    if modified.feasible:
        scaled = modified.scaling.constants[:, None] * (signs * scales * X)
        assert fs.verify_parseval(scaled).passed


def test_iteration_cap_gives_undecided_not_infeasible():
    # two orthonormal bases of R^2: scalable, but NNLS needs more than one step
    rng = np.random.default_rng(3)
    X = np.vstack([random_onb_rows(rng, 2), random_onb_rows(rng, 2)])
    full = fs.solve_standard_scaling(X)
    assert full.feasible and full.converged and full.iterations > 1
    capped = fs.solve_standard_scaling(X, max_iter=1)
    assert not capped.feasible and capped.scaling is None
    assert capped.certificate == "undecided"
    assert not capped.converged and capped.iterations == 1
    # a converged infeasible verdict keeps its certificate and records the
    # run; ten rows in R^3 exceed d^2, so the screen leaves the cone to NNLS
    cone = fs.solve_standard_scaling(unit_rows(rng, 10, 3) * [1.0, 0.1, 0.1] + [1.0, 0.0, 0.0])
    assert not cone.feasible and cone.converged and cone.certificate == "residual-infeasible"
    assert cone.iterations >= 1


def test_capped_run_on_a_cone_is_certified():
    # the Farkas bound holds for any NNLS weights, so one capped step on
    # the cone family above already certifies it
    rng = np.random.default_rng(3)
    for _ in range(2):
        random_onb_rows(rng, 3)
    capped = fs.solve_standard_scaling(unit_rows(rng, 10, 3) * [1.0, 0.1, 0.1] + [1.0, 0.0, 0.0], max_iter=1)
    assert not capped.feasible and capped.certificate == "residual-infeasible"
    assert not capped.converged and capped.iterations == 1


def test_residual_infeasible_only_where_scipy_cannot_scale():
    # an orthonormal basis of R^6 and a copy moved by 1e-7 scales (scipy
    # reaches about 1e-15).  On the copy's unit rows NNLS reaches tol on
    # most of them, but on some it stops above tol on near-duplicate
    # columns; that residual carries no Farkas certificate, so the verdict
    # is undecided, never infeasible.  Random unit frames that scipy cannot
    # scale stay certified
    tol = fs.DEFAULT_TOL
    rng = np.random.default_rng(8)
    families = []
    for _ in range(20):
        Q = random_onb_rows(rng, 6)
        families.append(np.vstack([Q, Q + 1e-7 * rng.standard_normal((6, 6))]))
    for _ in range(200):
        n = int(rng.integers(3, 7))
        families.append(unit_rows(rng, int(rng.integers(n, 3 * n)), n))
    labels = {True: set(), False: set()}
    undecided = 0
    for V in families:
        A, b = _gram_columns(V), _vech(np.eye(V.shape[1]))
        x, _ = scipy.optimize.nnls(A, b, maxiter=50 * len(V))
        scalable = float(np.linalg.norm(A @ x - b)) <= tol
        verdict = fs.solve_standard_scaling(V, None, tol)
        labels[scalable].add(verdict.certificate)
        undecided += scalable and verdict.certificate == "undecided"
        if verdict.feasible:
            assert fs.verify_parseval(verdict.scaling.constants[:, None] * V, None, tol).passed
    assert "residual-infeasible" not in labels[True] and undecided >= 1
    assert labels[False] == {"residual-infeasible"}


def test_iteration_cap_keeps_geometric_certificates():
    # the open-quadrant test needs no solver, so a capped run still
    # certifies; the family's half-plane margin is about 0.8, so at
    # tol 0.1 the screen, which needs a margin above 10 tol, leaves it to NNLS
    quad = np.array([[1.0, 1.0], [2.0, 1.0], [1.0, 2.0]])
    quad /= np.linalg.norm(quad, axis=1, keepdims=True)
    capped = fs.solve_standard_scaling(quad, tol=0.1, max_iter=1)
    assert not capped.converged and capped.iterations == 1
    assert not capped.feasible and capped.certificate == "open-quadrant"
    # at the default tol the screen certifies it without a solve
    screened = fs.solve_standard_scaling(quad, max_iter=1)
    assert screened.converged and screened.iterations == 0
    assert not screened.feasible and screened.certificate == "open-quadrant"


def test_open_quadrant_certificate_matches_the_sign_flip_loop():
    rng = np.random.default_rng(29)
    tiny = np.nextafter(0.0, 1.0)
    # each coordinate is drawn from values that sit on and around the axes
    edge = np.array([0.0, -0.0, tiny, -tiny, 1e-300, -1e-300, 1.0, -1.0, 2.5, -2.5])
    families = []
    for _ in range(2000):
        m = int(rng.integers(1, 6))
        if rng.random() < 0.5:
            V = rng.choice(edge, size=(m, 2))
        else:
            V = rng.standard_normal((m, 2)) * 10.0 ** rng.integers(-150, 150, (m, 1))
        families.append(V[np.linalg.norm(V, axis=1) > 0.0])
    # quadrant families with one coordinate negated and random row signs
    for _ in range(200):
        flips = rng.choice([-1.0, 1.0], (4, 1))
        families.append(open_quadrant_frame(rng, 4).vectors * [[1.0, -1.0]] * flips)
    agree = {True: 0, False: 0}
    for V in families:
        if V.shape[0] == 0:
            continue
        got = fs.open_quadrant_certificate(V)
        assert got == reference_open_quadrant_certificate(V)
        agree[got] += 1
    assert agree[True] >= 300 and agree[False] >= 300


def test_rank_zero_target_is_feasible_with_zero_constants():
    P = fs.canonical_projection([], 3)
    vectors = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 1.0]])
    verdict = fs.solve_standard_scaling(vectors, target=P)
    assert verdict.feasible and verdict.residual == 0.0
    assert np.array_equal(verdict.scaling.constants, np.zeros(2)) and verdict.scaling.target_rank == 0
    assert verdict.warnings and verdict.warnings[0].startswith("2 vector(s) projected")


def test_full_rank_canonical_target_decides_as_the_identity():
    rng = np.random.default_rng(30)
    labels = set()
    for _ in range(60):
        n = int(rng.integers(2, 5))
        X = unit_rows(rng, int(rng.integers(n, 3 * n)), n)
        if rng.random() < 0.3:
            X = np.vstack([random_onb_rows(rng, n), X[:1]])
        identity = fs.solve_standard_scaling(X)
        target = fs.solve_standard_scaling(X, target=fs.canonical_projection(range(n), n))
        assert target.feasible == identity.feasible and target.certificate == identity.certificate
        assert target.residual == identity.residual and not target.warnings
        if identity.feasible:
            assert np.array_equal(target.scaling.constants, identity.scaling.constants)
        labels.add(identity.certificate)
    assert {None, "residual-infeasible"} <= labels


@pytest.mark.parametrize("exponent", [-565, 565])
def test_power_of_two_multiples_decide_as_the_frame(exponent):
    # at 2^-565 every square underflows to 0 and at 2^565 every fourth
    # power overflows; a positive factor on a vector cannot change scalability
    rng = np.random.default_rng(31)
    frames = [np.eye(3), open_quadrant_frame(rng, 4).vectors, unit_rows(rng, 6, 3)]
    for X in frames:
        want = fs.solve_standard_scaling(X)
        got = fs.solve_standard_scaling(np.ldexp(X, exponent))
        assert (got.feasible, got.certificate) == (want.feasible, want.certificate)
        if want.feasible:
            c = np.ldexp(got.scaling.constants, exponent)
            assert np.allclose(c, want.scaling.constants, rtol=1e-12, atol=1e-12)
    assert {fs.solve_standard_scaling(X).certificate for X in frames} == {None, "open-quadrant", "residual-infeasible"}
    # the quadrant certificate reads signs, so it answers as for the frame
    for V in (frames[1], [[1.0, 1.0], [2.0, 1.0], [1.0, 2.0]], [[1.0, 1.0], [1.0, -1.0]]):
        assert fs.open_quadrant_certificate(np.ldexp(V, exponent)) == fs.open_quadrant_certificate(V)
    # row factors 2^e with e in [-64, 64], row order and signs, drawn
    # afresh per exponent, leave the verdict and its certificate as they
    # are; a change of basis may only trade the quadrant for the half-plane
    coordinate = {"open-quadrant": "two-dim", "half-plane": "two-dim"}
    rng = np.random.default_rng(abs(exponent) + (exponent < 0))
    for X in magnitude_gate_frames(rng):
        want = fs.solve_standard_scaling(X)
        Y = row_transform(rng, X)[0]
        got = fs.solve_standard_scaling(Y)
        assert (got.feasible, got.certificate) == (want.feasible, want.certificate), X
        if got.feasible:
            assert fs.verify_parseval(got.scaling.constants[:, None] * Y).passed
        turned = fs.solve_standard_scaling(X @ random_rotation(rng, X.shape[1]))
        assert turned.feasible == want.feasible
        assert coordinate.get(turned.certificate, turned.certificate) == coordinate.get(want.certificate, want.certificate)


def test_rows_of_mixed_extreme_magnitudes_scale():
    X = np.diag([1e-170, 1.0, 1e250])
    verdict = fs.solve_standard_scaling(X)
    assert verdict.feasible and np.array_equal(verdict.scaling.constants, 1.0 / np.diag(X))
    assert fs.verify_parseval(verdict.scaling.constants[:, None] * X).passed
    # rows within 1e-8 of unit norm are used as given, beside a row that
    # is normalised and alone; their constants sum to n only with the norms
    for X in (np.diag([1.0 + 0.9e-8] * 9 + [2.0]), np.eye(10) * (1.0 + 0.9e-8)):
        verdict = fs.solve_standard_scaling(X)
        assert verdict.feasible and fs.verify_parseval(verdict.scaling.constants[:, None] * X).passed
    # rows below 2^-1024 need constants above the largest double
    with pytest.raises(ValueError, match="exceed the range of doubles"):
        fs.solve_standard_scaling(np.eye(2) * 1e-310)


def test_unit_rows_come_back_as_they_are_exactly_within_the_unit_norm_tolerance():
    # rows at 1 +- 4e-9 pass the squared-norm check, rows at 1 +- 9.9e-9
    # reach the full rule, which keeps them too, and rows at 1 +- 1.1e-8
    # are normalised
    B = random_onb_rows(np.random.default_rng(33), 4)
    for deviation, kept in ((4e-9, True), (9.9e-9, True), (1.1e-8, False)):
        for sign in (-1.0, 1.0):
            X = B * (1.0 + sign * deviation)
            U, r, e = _unit_rows(X)
            assert (U is X and r is None and e is None) == kept
            if not kept:
                assert np.allclose(np.linalg.norm(U, axis=1), 1.0, rtol=0.0, atol=1e-15)
                assert np.allclose(np.ldexp(r, e), 1.0 + sign * deviation, rtol=1e-15, atol=0.0)
    # a zero row comes back as it is; rows of norm 2^-300 and 2^300 are
    # normalised beside unit rows that keep their bytes
    X = np.vstack([B, np.zeros(4)])
    assert _unit_rows(X)[0] is X
    for k in (-300, 300):
        U, r, e = _unit_rows(np.vstack([B, np.ldexp(B[:1], k)]))
        assert np.array_equal(U[:4], B) and np.allclose(U[4], B[0], rtol=0.0, atol=1e-15)
        assert np.array_equal(r[:4], np.ones(4)) and not e[:4].any()
        assert np.ldexp(r[4], e[4]) == pytest.approx(2.0**k, rel=1e-15)


def test_nan_tol_raises():
    nan = float("nan")
    with pytest.raises(ValueError, match="tol must be positive"):
        fs.solve_standard_scaling(np.eye(2), tol=nan)
    with pytest.raises(ValueError, match="tol must be positive"):
        fs.verify_parseval(np.eye(2), tol=nan)
    ps = fs.PiecewiseScaling(fs.canonical_projection([0], 2), np.ones(2), np.ones(2))
    with pytest.raises(ValueError, match="tol must be positive"):
        fs.verify_piecewise(np.eye(2), ps, tol=nan)
    # every entry point takes one rule: a NaN or infinite tol passes no
    # check, so the split of two overlapping p-side rows, which leaves a
    # direct residual of 0.85, must not come back or verify
    X = np.array([[1.0, 0.0, 0.0], [0.6, 0.8, 0.0], [0.0, 0.0, 1.0], [1.0, 1.0, 1.0]])
    P = fs.projection_from_matrix(np.diag([1.0, 1.0, 0.0]))
    with pytest.raises(ValueError, match="not orthogonal"):
        fs.construct_from_orthogonal_split(X, P, [0, 1], [2])
    overlapping = fs.PiecewiseScaling(P, np.array([1.0, 1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0, 0.0]))
    standard = fs.StandardScaling(np.ones(2), 0.0, 2)
    calls = [
        lambda tol: fs.solve_standard_scaling(np.eye(2), tol=tol),
        lambda tol: fs.verify_parseval(fs.scaled_family(X, overlapping), tol=tol),
        lambda tol: fs.verify_piecewise(X, overlapping, tol=tol),
        lambda tol: fs.search_piecewise(np.eye(3), tol=tol),
        lambda tol: fs.construct_from_orthogonal_split(X, P, [0, 1], [2], tol),
        lambda tol: fs.construct_r2(np.eye(2), fs.canonical_projection([0], 2), tol),
        lambda tol: fs.construct_r3(np.eye(3), tol),
        lambda tol: fs.construct_r3_detailed(np.eye(3), tol),
        lambda tol: fs.construct_r4_special(np.eye(4), [0, 1, 2, 3], tol),
        lambda tol: fs.validate_projection(np.eye(2), tol),
        lambda tol: fs.projection_from_matrix(np.eye(2), tol),
        lambda tol: fs.apply_unitary(np.eye(2), np.eye(2), tol),
        lambda tol: fs.check_constant_bounds(np.eye(2), standard, tol),
    ]
    for tol in (nan, float("inf"), -float("inf"), 0.0, -1e-8):
        for call in calls:
            with pytest.raises(ValueError, match="tol must be positive"):
                call(tol)


@given(st.integers(0, 10_000))
def test_screen_decides_as_the_solve_of_the_unit_rows(seed):
    # the steps before NNLS change no feasibility and no label: a feasible
    # verdict without NNLS is one NNLS reaches tol on too, and a rejection
    # never hits a scalable frame and reports a bound the solve does not beat
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 21))
    m = int(rng.integers(n + 1, 3 * n + 1))
    frames = {
        "scalable": scalable_rows(rng, n, int(rng.integers(1, 4))),
        "random": unit_rows(rng, m, n),
        "cone": cone_rows(rng, m, n),
    }
    for kind, X in frames.items():
        verdict = fs.solve_standard_scaling(X)
        solved = _standard_verdict(_unit_rows(X)[0], fs.DEFAULT_TOL)
        assert (verdict.feasible, verdict.certificate) == (solved.feasible, solved.certificate)
        if verdict.iterations == 0 and verdict.feasible:
            assert verdict.converged and verdict.residual <= fs.DEFAULT_TOL
            assert fs.verify_parseval(verdict.scaling.constants[:, None] * X).passed
        elif verdict.iterations == 0:
            assert kind != "scalable" and verdict.converged
            assert 10.0 * fs.DEFAULT_TOL < verdict.residual <= solved.residual + 1e-12


def _counting(monkeypatch, name: str) -> list[int]:
    calls: list[int] = []
    original = getattr(sc, name)
    monkeypatch.setattr(sc, name, lambda *args, **kwargs: calls.append(1) or original(*args, **kwargs))
    return calls


def test_screened_cone_makes_no_nnls_call(monkeypatch):
    rng = np.random.default_rng(32)
    nnls_calls = _counting(monkeypatch, "nnls")
    for n in (3, 12, 20):
        verdict = fs.solve_standard_scaling(cone_rows(rng, 3 * n, n))
        assert not verdict.feasible and verdict.certificate == "residual-infeasible"
        assert verdict.converged and verdict.iterations == 0
    assert nnls_calls == []


def test_tall_frame_goes_to_nnls_unscreened(monkeypatch):
    # 17 rows in R^4 exceed d^2 = 16: the least-squares step would cost
    # more than it saves, and the minimum-norm weights of a cone miss, so
    # NNLS decides
    rng = np.random.default_rng(33)
    nnls_calls = _counting(monkeypatch, "nnls")
    verdict = fs.solve_standard_scaling(cone_rows(rng, 17, 4))
    assert not verdict.feasible and verdict.certificate == "residual-infeasible" and verdict.iterations >= 1
    assert len(nnls_calls) == 1
    # at d^2 rows the least-squares step runs and certifies, with no FISTA screen
    verdict = fs.solve_standard_scaling(cone_rows(rng, 16, 4))
    assert verdict.iterations == 0 and len(nnls_calls) == 1


def test_wide_frames_are_certified_by_each_least_squares_solve(monkeypatch):
    # the plain and the Tikhonov solve of H each decide or certify, so no
    # wide frame reaches the FISTA screen; where H is singular by its rank
    # (m > n (n + 1) / 2) the Tikhonov residual certifies some frames that
    # the plain one leaves, and every bound is one NNLS's distance obeys
    rng = np.random.default_rng(41)
    nnls_calls = _counting(monkeypatch, "nnls")
    yielded: list[int] = []
    psd_solves = sc._psd_solves

    def counted_solves(G, b):
        for x in psd_solves(G, b):
            yielded.append(1)
            yield x

    monkeypatch.setattr(sc, "_psd_solves", counted_solves)
    tikhonov = 0
    for n in (3, 4, 5, 6, 12):
        half = n * (n + 1) // 2
        for m in sorted({n + 1, half, half + 1, n * n}):
            for X in (cone_rows(rng, m, n), unit_rows(rng, m, n), clustered_unit_frame(rng, n, m, 0.3).vectors):
                del yielded[:]
                calls = len(nnls_calls)
                verdict = fs.solve_standard_scaling(X)
                if verdict.feasible or verdict.iterations:
                    continue
                assert verdict.converged and verdict.certificate == "residual-infeasible"
                assert len(nnls_calls) == calls
                tikhonov += len(yielded) == 2
                reference = _standard_verdict(_unit_rows(X)[0], fs.DEFAULT_TOL)
                assert not reference.feasible
                assert 10.0 * fs.DEFAULT_TOL < verdict.residual <= reference.residual + 1e-12
    assert tikhonov >= 1


def test_zero_rows_leave_the_steps_before_nnls(monkeypatch):
    # a zero row takes no part in the steps before NNLS and gets weight 0,
    # so a wide cone is still certified, and a union of bases still
    # scaled, by the least-squares step alone
    nnls_calls = _counting(monkeypatch, "nnls")
    cone = np.insert(cone_rows(np.random.default_rng(5), 10, 4), 3, 0.0, axis=0)
    verdict = fs.solve_standard_scaling(cone)
    assert not verdict.feasible and verdict.certificate == "residual-infeasible"
    assert verdict.iterations == 0 and verdict.residual > 10.0 * fs.DEFAULT_TOL
    rng = np.random.default_rng(6)
    bases = np.vstack([random_onb_rows(rng, 4), random_onb_rows(rng, 4), np.zeros((1, 4))])
    verdict = fs.solve_standard_scaling(bases)
    assert verdict.feasible and verdict.iterations == 0 and verdict.scaling.constants[-1] == 0.0
    assert fs.verify_parseval(verdict.scaling.constants[:, None] * bases).passed
    assert nnls_calls == []


def test_screened_projection_target_keeps_its_warning(monkeypatch):
    # a cone in the range of a rank-3 target in R^4 and a half-plane family
    # in a rank-2 one, each row leaking 1e-4 out of the range
    rng = np.random.default_rng(34)
    nnls_calls = _counting(monkeypatch, "nnls")
    cases = [
        (fs.canonical_projection([0, 1, 2], 4), cone_rows(rng, 6, 3), "residual-infeasible"),
        (fs.canonical_projection([0, 2], 3), _degrees(50.0, 70.0, 100.0), "half-plane"),
    ]
    for P, C, certificate in cases:
        V = np.zeros((len(C), P.dim))
        V[:, np.flatnonzero(np.diag(P.matrix))] = C
        V[:, np.flatnonzero(np.diag(P.matrix) == 0.0)[0]] = 1e-4
        verdict = fs.solve_standard_scaling(V, target=P)
        assert not verdict.feasible and verdict.certificate == certificate and verdict.iterations == 0
        assert verdict.warnings == (f"{len(C)} vector(s) projected onto the target range (worst out-of-range norm 1.000e-04)",)
    assert nnls_calls == []


def _tall_frames(rng, n: int) -> dict[str, np.ndarray]:
    # frames of m in (n^2, 6 n^2] rows in R^n; the scalable one is a union of more than n bases
    m = int(rng.integers(n * n + 1, 6 * n * n + 1))
    return {
        "random": unit_rows(rng, m, n),
        "scalable": scalable_rows(rng, n, int(rng.integers(n + 1, 6 * n + 1))),
        "cone": cone_rows(rng, m, n),
        "clustered": clustered_unit_frame(rng, n, m, 0.3).vectors,
    }


@given(st.integers(0, 10_000))
def test_tall_verdicts_without_nnls_only_where_nnls_scales(seed):
    # a tall frame decided by the minimum-norm weights must be one the
    # solver reaches tol on; every other frame keeps the verdict of NNLS
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 13))
    for kind, X in _tall_frames(rng, n).items():
        verdict = fs.solve_standard_scaling(X)
        U = _unit_rows(X)[0]
        solved = _standard_verdict(U, fs.DEFAULT_TOL)
        if verdict.feasible:
            assert fs.verify_parseval(verdict.scaling.constants[:, None] * X).passed
        if verdict.feasible and verdict.iterations == 0:
            assert verdict.converged and verdict.residual <= fs.DEFAULT_TOL
            reference = scipy.optimize.nnls(_gram_columns(U), _vech(np.eye(n)))[1]
            assert reference <= fs.DEFAULT_TOL
            assert solved.feasible or solved.certificate == "undecided"
        else:
            assert (verdict.feasible, verdict.certificate, verdict.residual) == (
                solved.feasible,
                solved.certificate,
                solved.residual,
            ), kind
        if kind == "scalable":
            assert verdict.feasible
        if kind == "cone":
            assert not verdict.feasible


def test_tall_scalable_frame_makes_no_nnls_call(monkeypatch):
    rng = np.random.default_rng(35)
    nnls_calls = _counting(monkeypatch, "nnls")
    for n in (3, 8, 16):
        verdict = fs.solve_standard_scaling(scalable_rows(rng, n, n + 2))
        assert verdict.feasible and verdict.converged and verdict.iterations == 0
        assert verdict.residual <= fs.DEFAULT_TOL and verdict.scaling.residual == verdict.residual
    assert nnls_calls == []
    verdict = fs.solve_standard_scaling(cone_rows(rng, 400, 8))
    assert not verdict.feasible and verdict.certificate == "residual-infeasible" and verdict.iterations >= 1
    assert len(nnls_calls) == 1


def test_tall_constants_are_the_unique_minimum_norm_weights():
    # the minimum-norm weights are w = (A^T y)_+ for some y, so on their
    # support w = A_S^T y and off it A^T y <= 0; they are unique, so a row
    # permutation permutes them and row factors 2^e divide them
    rng = np.random.default_rng(36)
    for n in (3, 5, 8):
        X = unit_rows(rng, 3 * n * n, n)
        verdict = fs.solve_standard_scaling(X)
        assert verdict.feasible and verdict.iterations == 0
        c = verdict.scaling.constants
        A = _gram_columns(X)
        support = c > 0.0
        y = np.linalg.lstsq(A[:, support].T, c[support] ** 2, rcond=None)[0]
        assert np.allclose(A[:, support].T @ y, c[support] ** 2, rtol=0.0, atol=1e-12)
        assert (A[:, ~support].T @ y <= 1e-12).all()
        Y, order, factors = row_transform(rng, X)
        moved = fs.solve_standard_scaling(Y)
        assert moved.feasible and moved.iterations == 0
        assert np.allclose(moved.scaling.constants * np.abs(factors), c[order], rtol=0.0, atol=1e-12)


def test_tall_projection_target_decides_as_the_identity_on_its_range():
    # a rank-3 target in R^5 and range coordinates of more than 9 rows:
    # the same minimum-norm weights, or the same NNLS verdict
    rng = np.random.default_rng(37)
    B = np.linalg.qr(rng.standard_normal((5, 3)))[0]
    P = fs.projection_from_basis(B.T)
    for C in (scalable_rows(rng, 3, 5), unit_rows(rng, 30, 3), cone_rows(rng, 30, 3)):
        identity = fs.solve_standard_scaling(C)
        target = fs.solve_standard_scaling(C @ B.T, target=P)
        assert (target.feasible, target.certificate) == (identity.feasible, identity.certificate)
        assert (target.iterations == 0) == (identity.iterations == 0) and not target.warnings
        if identity.feasible:
            assert np.allclose(target.scaling.constants, identity.scaling.constants, rtol=0.0, atol=1e-10)
    assert fs.solve_standard_scaling(scalable_rows(rng, 3, 5)).iterations == 0


def test_union_of_bases_is_decided_without_nnls(monkeypatch):
    # every basis of a union sums to I, so their differences span a null
    # space of H and the plain solve leaves them; the Tikhonov weights
    # decide them, exactly singular H (a repeated basis) included
    rng = np.random.default_rng(38)
    nnls_calls = _counting(monkeypatch, "nnls")
    frames = [scalable_rows(rng, n, bases) for n in (3, 6, 12) for bases in (2, 3)] + [np.vstack([np.eye(4)] * 2)]
    for X in frames:
        verdict = fs.solve_standard_scaling(X)
        assert verdict.feasible and verdict.converged and verdict.iterations == 0
        assert verdict.residual <= fs.DEFAULT_TOL
        assert fs.verify_parseval(verdict.scaling.constants[:, None] * X).passed
    assert nnls_calls == []


def test_negative_least_squares_weights_leave_the_frame_to_nnls(monkeypatch):
    # an orthonormal basis of R^3 and four unit rows: seven columns against
    # six equations, and the minimum-norm solution, which both solves of H
    # approach, has negative entries, so NNLS finds the basis
    rng = np.random.default_rng(0)
    X = np.vstack([random_onb_rows(rng, 3), unit_rows(rng, 4, 3)])
    assert np.linalg.lstsq(_gram_columns(X), _vech(np.eye(3)), rcond=None)[0].min() < 0.0
    assert sc._gram_weights(X, fs.DEFAULT_TOL) == (None, 0.0)
    nnls_calls = _counting(monkeypatch, "nnls")
    verdict = fs.solve_standard_scaling(X)
    assert verdict.feasible and verdict.iterations >= 1 and len(nnls_calls) == 1
    assert fs.verify_parseval(verdict.scaling.constants[:, None] * X).passed


def test_wide_constants_with_nonsingular_gram_are_equivariant():
    # rows U S^(-1/2) for S = sum_i w_i u_i u_i^T scale with weights w, the
    # only ones when H is nonsingular, so a row permutation permutes the
    # constants and row factors 2^e divide them
    rng = np.random.default_rng(39)
    for n in (3, 5, 8):
        for m in (n + 1, n * (n + 1) // 2):
            U = unit_rows(rng, m, n)
            w = rng.uniform(0.5, 2.0, m)
            lam, E = np.linalg.eigh((U.T * w) @ U)
            X = U @ (E / np.sqrt(lam)) @ E.T
            G = _unit_rows(X)[0] @ _unit_rows(X)[0].T
            assert np.linalg.cond(G * G) < 1e8
            verdict = fs.solve_standard_scaling(X)
            assert verdict.feasible and verdict.iterations == 0
            c = verdict.scaling.constants
            assert np.allclose(c, np.sqrt(w), rtol=1e-10, atol=0.0)
            Y, order, factors = row_transform(rng, X)
            moved = fs.solve_standard_scaling(Y)
            assert moved.feasible and moved.iterations == 0
            assert np.allclose(moved.scaling.constants * np.abs(factors), c[order], rtol=1e-12, atol=0.0)


def test_nearly_repeated_tall_rows_get_the_minimum_norm_weights():
    # five copies of I_4 moved by 1e-13 make A A^T singular to rounding; the
    # plain solve's size proves that, and the Tikhonov start gives the
    # minimum-norm weights 1/5, where the plain one gave weights set by the noise
    rng = np.random.default_rng(40)
    X = np.vstack([np.eye(4)] * 5) + 1e-13 * rng.standard_normal((20, 4))
    verdict = fs.solve_standard_scaling(X)
    assert verdict.feasible and verdict.iterations == 0
    assert np.allclose(verdict.scaling.constants, np.sqrt(0.2), rtol=0.0, atol=1e-6)


def test_gram_columns_match_the_gather_formula():
    import framescale.piecewise as pw

    rng = np.random.default_rng(61)
    for n in range(1, 21):
        iu, weights = sc._sym_embedding(n)
        for m in (1, n, 1500):
            V = rng.standard_normal((m, n))
            A = _gram_columns(V)
            assert A.flags.c_contiguous and A.shape == (n * (n + 1) // 2, m)
            # the same products in the same order, so the same bytes
            assert A.tobytes() == np.ascontiguousarray((V[:, iu[0]] * V[:, iu[1]] * weights).T).tobytes()
        # a stack of families gets each family's bytes
        stack = rng.standard_normal((3, n + 2, n))
        assert _gram_columns(stack).tobytes() == np.stack([_gram_columns(V) for V in stack]).tobytes()
        # the Farkas residual of a family and of a stack is I - sum_i w_i c_i c_i^T
        for C in (stack[0], stack):
            w = rng.uniform(0.0, 2.0, C.shape[:-1])
            R = np.eye(n) - sum(w[..., i, None, None] * C[..., i, :, None] * C[..., i, None, :] for i in range(n + 2))
            assert np.allclose(sc._farkas_residual(C, w), R, rtol=0.0, atol=1e-12)
    # the route's cached tables are shared by every caller, so read-only
    for table in pw._split_tables(5, 2):
        assert not table.flags.writeable
