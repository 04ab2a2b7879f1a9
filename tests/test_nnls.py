import numpy as np
import pytest
import scipy.optimize
from hypothesis import given
from hypothesis import strategies as st

import framescale as fs
from framescale.nnls import _PassiveFactor, nnls
from framescale.scaling import _gram_columns, _vech
from helpers import clustered_unit_frame, cone_rows, random_onb_rows, reference_nnls, scalable_rows, unit_rows


def kkt_gap(A, b, x):
    """Optimality certificate: x >= 0, gradient <= 0, complementary slackness."""
    grad = A.T @ (b - A @ x)
    scale = max(1.0, float(np.abs(A.T @ b).max(initial=0.0)))
    ascent = float(grad.max(initial=0.0)) / scale
    slackness = float(np.abs(grad * x).max(initial=0.0)) / scale
    return max(ascent, slackness)


def test_exact_nonnegative_solution_recovered():
    A = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    x_true = np.array([2.0, 3.0])
    res = nnls(A, A @ x_true)
    assert res.converged
    assert np.allclose(res.x, x_true, atol=1e-12)
    assert res.residual <= 1e-12


def test_negative_unconstrained_optimum_is_clipped():
    # unconstrained optimum is x = (-1), so the constrained one is x = 0
    A = np.array([[1.0], [1.0]])
    b = np.array([-1.0, -1.0])
    res = nnls(A, b)
    assert res.converged and res.x[0] == 0.0
    assert abs(res.residual - np.sqrt(2.0)) <= 1e-14


def test_iteration_cap_reports_not_converged():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((12, 8))
    b = rng.standard_normal(12)
    res = nnls(A, b, max_iter=1)
    assert not res.converged
    assert res.x.min() >= 0.0


def test_shape_validation():
    with pytest.raises(ValueError):
        nnls(np.eye(3), np.ones(2))


def test_no_columns_gives_the_empty_optimum():
    b = np.array([1.0, -2.0, 2.0])
    res = nnls(np.zeros((3, 0)), b)
    assert res.x.shape == (0,) and res.converged and res.iterations == 0
    assert res.residual == 3.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_input_raises(bad):
    A = np.eye(3)
    b = np.ones(3)
    A_bad, b_bad = A.copy(), b.copy()
    A_bad[1, 2] = bad
    b_bad[0] = bad
    with pytest.raises(ValueError, match="A has non-finite"):
        nnls(A_bad, b)
    with pytest.raises(ValueError, match="b has non-finite"):
        nnls(A, b_bad)


def test_known_degenerate_instance_reaches_the_optimum():
    # clustered rank-one gram columns once stalled the pullback step; the
    # optimum (computed by exhaustive support enumeration) is 0.50682...
    V = np.array(
        [
            [0.9564281963111007, 0.2919676442708927],
            [0.9421519956250106, 0.33518594412625624],
            [0.4807748137227715, 0.8768441015880954],
            [0.7362971844186949, 0.6766583009297251],
            [0.09755325463602574, 0.9952303062658003],
            [0.9462173476557445, 0.32353165377645515],
        ]
    )
    cols = np.stack([np.array([v[0] ** 2, np.sqrt(2) * v[0] * v[1], v[1] ** 2]) for v in V], axis=1)
    target = np.array([1.0, 0.0, 1.0])
    res = nnls(cols, target)
    assert res.converged
    assert abs(res.residual - 0.5068245751627899) <= 1e-12
    assert kkt_gap(cols, target, res.x) <= 1e-10


@given(st.integers(0, 10_000))
def test_kkt_optimality_certificate(seed):
    rng = np.random.default_rng(seed)
    nrow = int(rng.integers(2, 10))
    ncol = int(rng.integers(1, 8))
    A = rng.standard_normal((nrow, ncol))
    if rng.random() < 0.3:
        A[:, int(rng.integers(0, ncol))] = A[:, int(rng.integers(0, ncol))]
    b = rng.standard_normal(nrow)
    res = nnls(A, b)
    assert res.converged
    assert res.x.min() >= 0.0
    assert kkt_gap(A, b, res.x) <= 1e-9


def test_stall_at_rounding_level_counts_as_converged():
    # seed 200 of the KKT test: an exact fit with weights near 50 whose
    # last pass makes no progress; a free gradient entry of 1.5e-12 then
    # exceeds gtol = 1e-12 by rounding alone, and one step along it could
    # lower the objective by about 1e-24, so the stop is optimal
    rng = np.random.default_rng(200)
    A = rng.standard_normal((int(rng.integers(2, 10)), int(rng.integers(1, 8))))
    if rng.random() < 0.3:
        A[:, int(rng.integers(0, A.shape[1]))] = A[:, int(rng.integers(0, A.shape[1]))]
    b = rng.standard_normal(A.shape[0])
    res = nnls(A, b)
    assert res.converged and res.residual <= 1e-12


@given(st.integers(0, 10_000))
def test_never_worse_than_scipy(seed):
    # scipy's reported rnorm is unreliable on some inputs in this version,
    # so compare against the recomputed residual of its returned point
    rng = np.random.default_rng(seed)
    nrow = int(rng.integers(2, 10))
    ncol = int(rng.integers(1, 8))
    A = rng.standard_normal((nrow, ncol))
    b = rng.standard_normal(nrow)
    res = nnls(A, b)
    x_ref, _ = scipy.optimize.nnls(A, b)
    ref = float(np.linalg.norm(A @ np.maximum(x_ref, 0.0) - b))
    assert res.residual <= ref + 1e-9


def _scipy_residual(A, b):
    x_ref, _ = scipy.optimize.nnls(A, b, maxiter=50 * A.shape[1])
    return float(np.linalg.norm(A @ np.maximum(x_ref, 0.0) - b))


def _stressed_frames():
    """Seeded families whose scaling systems stress the solver: n up to 24, m up to 800."""
    rng = np.random.default_rng(20261018)
    frames = [("random", unit_rows(rng, m, n)) for n, m in ((6, 30), (10, 80), (16, 150), (20, 250), (24, 120))]
    frames += [("scalable", scalable_rows(rng, n, k)) for n, k in ((6, 5), (12, 8), (16, 10), (24, 3))]
    frames += [("cone", cone_rows(rng, m, n)) for n, m in ((8, 100), (16, 300), (24, 400))]
    for spread in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7):
        for n, m in ((2, 30), (6, 60), (12, 200), (24, 400)):
            frames.append(("clustered", clustered_unit_frame(rng, n, m, spread).vectors))
    # many small systems of every kind, where degenerate passive sets are common
    for i in range(240):
        n = int(rng.integers(2, 9))
        kind = ("random", "scalable", "cone", "clustered")[i % 4]
        if kind == "random":
            X = unit_rows(rng, int(rng.integers(n, n * (n + 1) // 2 + 3 * n)), n)
        elif kind == "scalable":
            X = scalable_rows(rng, n, int(rng.integers(1, 6)))
        elif kind == "cone":
            X = cone_rows(rng, int(rng.integers(n, 4 * n + 50)), n)
        else:
            X = clustered_unit_frame(rng, n, int(rng.integers(n, 4 * n + 50)), 10.0 ** -rng.integers(2, 8)).vectors
        frames.append((kind, X))
    # tall systems, m >> nrow, where the passive set can fill every row
    frames += [("tall", unit_rows(rng, m, n)) for n, m in ((4, 800), (8, 600), (16, 800))]
    return frames


def _counting_add(monkeypatch):
    # counts the columns offered to the passive factor and the ones it
    # refuses as lying within rounding of the passive span
    counts = {"adds": 0, "dependent": 0}
    add = _PassiveFactor.add

    def counting(self, j):
        counts["adds"] += 1
        taken = add(self, j)
        counts["dependent"] += not taken
        return taken

    monkeypatch.setattr(_PassiveFactor, "add", counting)
    return counts


def test_differential_against_lstsq_solver_at_stressed_sizes(monkeypatch):
    """The QR-updated solver against the per-step lstsq Lawson-Hanson.

    It must reach the KKT point, be no worse than scipy, and give the
    same feasibility verdict wherever the reference residual is not
    within a decade of the tolerance; inside that band a flip is
    rounding, not a defect.
    """
    tol = fs.DEFAULT_TOL
    counts = _counting_add(monkeypatch)
    full = 0
    for index, (kind, X) in enumerate(_stressed_frames()):
        A = _gram_columns(X)
        b = _vech(np.eye(X.shape[1]))
        got = nnls(A, b)
        ref = reference_nnls(A, b)
        where = f"case {index} ({kind}, m={X.shape[0]}, n={X.shape[1]})"
        assert got.converged and ref.converged, where
        assert got.x.min() >= 0.0, where
        assert kkt_gap(A, b, got.x) <= 1e-9, where
        assert got.residual <= _scipy_residual(A, b) + 1e-9, where
        if not tol / 10 <= ref.residual <= 10 * tol:
            assert (got.residual <= tol) == (ref.residual <= tol), where
        full += np.count_nonzero(got.x) == A.shape[0]
    # some runs end with a full factor, |P| = nrow
    assert full >= 1
    # a column refused as dependent ends the run as a stall; this set
    # meets none in about 3500 column additions
    assert counts["dependent"] <= counts["adds"] // 1000, counts


def _factor_errors(factor):
    """Rounding-level invariants of the passive factor, and the exact zeros add relies on."""
    k, s, F = len(factor.cols), factor.s, factor.F
    Qt, R, RinvT = F[:k, 2 * s : -1], F[:k, :k], F[:k, s : s + k]
    AP, z = factor.A[:, factor.cols], factor.solve()
    assert not F[:k, k:s].any() and not F[:k, s + k : 2 * s].any() and not F[k:, : 2 * s].any()
    assert np.array_equal(R, np.triu(R))
    if k == 0:
        return {}
    return {
        "orthonormal": np.abs(Qt @ Qt.T - np.eye(k)).max(),
        "factor": np.linalg.norm(AP - Qt.T @ R) / np.linalg.norm(AP),
        # relative to the condition number: clustered columns make R^-1 large
        "inverse": np.abs(RinvT @ R.T - np.eye(k)).max() / (np.linalg.norm(R, 2) * np.linalg.norm(RinvT, 2)),
        # relative to the scale of A_P z_P, which carries z_P's error
        "residual": np.abs(factor.residual() - (factor.b - AP @ z)).max() / (np.linalg.norm(AP, 2) * np.linalg.norm(z)),
    }


def test_factor_invariants_hold_after_every_add_and_keep(monkeypatch):
    # tall, wide n = 20 and clustered systems; after every update Q has
    # orthonormal rows, Q R reproduces the passive columns, R^-T inverts
    # R^T and the factor's residual b - Q Q^T b is that of the passive
    # least squares solution, all at rounding level.  Both branches of
    # the conditional second Gram-Schmidt pass are taken.
    add, keep = _PassiveFactor.add, _PassiveFactor.keep
    worst = {"orthonormal": 0.0, "factor": 0.0, "inverse": 0.0, "residual": 0.0}
    counts = {"one pass": 0, "two passes": 0, "keeps": 0}

    def record(factor):
        for key, value in _factor_errors(factor).items():
            worst[key] = max(worst[key], float(value))

    def checked_add(self, j):
        k, s = len(self.cols), self.s
        if k < s:
            # the first pass's remainder decides on the second (DGKS)
            Qt, a = self.F[:k, 2 * s : -1], self.A[:, j]
            v = a - (Qt @ a) @ Qt
            counts["two passes" if 2.0 * (v @ v) < a @ a else "one pass"] += 1
        taken = add(self, j)
        record(self)
        return taken

    def checked_keep(self, kept):
        keep(self, kept)
        counts["keeps"] += 1
        record(self)

    monkeypatch.setattr(_PassiveFactor, "add", checked_add)
    monkeypatch.setattr(_PassiveFactor, "keep", checked_keep)
    frames = _stressed_frames()
    picked = [X for kind, X in frames if kind == "tall"]
    picked += [X for kind, X in frames if kind == "random" and X.shape[1] == 20]
    # the stressed set's clustered frames come in spread order 1e-2 .. 1e-7,
    # four per spread; the fifth spread is 1e-6
    picked += [X for kind, X in frames if kind == "clustered"][16:19]
    for X in picked:
        res = nnls(_gram_columns(X), _vech(np.eye(X.shape[1])))
        assert res.converged
    assert worst["orthonormal"] <= 1e-13, worst
    assert worst["factor"] <= 1e-14, worst
    assert worst["inverse"] <= 1e-14, worst
    assert worst["residual"] <= 1e-14, worst
    assert counts["one pass"] >= 1 and counts["two passes"] >= 1 and counts["keeps"] >= 1, counts


def test_basis_plus_perturbed_copy_matches_the_reference():
    # an orthonormal basis and a copy moved by delta: the columns of the
    # copy differ from the originals by about delta, so the gradient along
    # the rest of the cone falls below gtol while the residual is still
    # above scipy's; both solvers stop there, so compare with the reference
    tol = fs.DEFAULT_TOL
    rng = np.random.default_rng(7)
    for n in (2, 4, 8):
        for delta in (1e-5, 1e-7, 1e-9, 1e-11):
            Q = random_onb_rows(rng, n)
            X = np.vstack([Q, Q + delta * rng.standard_normal((n, n))])
            A = _gram_columns(X)
            b = _vech(np.eye(n))
            got = nnls(A, b)
            ref = reference_nnls(A, b)
            assert got.converged and kkt_gap(A, b, got.x) <= 1e-9
            assert got.residual <= ref.residual + 1e-9
            if not tol / 10 <= ref.residual <= 10 * tol:
                assert (got.residual <= tol) == (ref.residual <= tol)


def test_polish_never_raises_the_residual():
    # on the degenerate columns the hypothesis tests use, the reported
    # residual is that of the returned x and never worse than the
    # reference's, with no final lstsq on the passive set
    rng = np.random.default_rng(11)
    for _ in range(200):
        A = rng.standard_normal((int(rng.integers(2, 10)), int(rng.integers(1, 8))))
        A[:, int(rng.integers(0, A.shape[1]))] = A[:, int(rng.integers(0, A.shape[1]))]
        b = rng.standard_normal(A.shape[0])
        got = nnls(A, b)
        assert got.residual == float(np.linalg.norm(A @ got.x - b))
        assert got.residual <= reference_nnls(A, b).residual + 1e-12


def test_polish_restores_lstsq_accuracy():
    # columns a1 and a1 + 1e-5 a2: normal equations would square the
    # condition number and leave the solution off by about 1e-5 and the
    # residual by about 1e-10; the QR factor keeps lstsq accuracy
    rng = np.random.default_rng(0)
    x_true = np.array([1.0, 2.0, 0.5])
    for _ in range(3):
        a1, a2, a3 = rng.standard_normal((3, 6))
        A = np.stack([a1, a1 + 1e-5 * a2, a3], axis=1)
        got = nnls(A, A @ x_true)
        assert got.converged and got.residual <= 1e-13
        assert np.abs(got.x - x_true).max() <= 1e-9


def test_dependent_entering_column_is_a_judged_stall(monkeypatch):
    # once the factor holds nrow columns every column lies in its span.  A
    # column of norm 1e8 orthogonal to b then has a gradient of rounding
    # size times 1e8, above gtol, and is offered: the run stops there and
    # the descent test finds nothing left to gain
    counts = _counting_add(monkeypatch)
    for seed in range(20):
        rng = np.random.default_rng(seed)
        P = rng.uniform(0.5, 2.0, (4, 4)) + 3.0 * np.eye(4)
        b = P @ rng.uniform(0.5, 1.5, 4)
        u = rng.standard_normal(4)
        u -= (u @ b) / (b @ b) * b
        u *= 1e8 / np.linalg.norm(u)
        res = nnls(np.column_stack([P, u, -u]), b)
        assert res.converged and res.residual <= 1e-12
    assert counts["dependent"] >= 1, counts

    # a refused column with descent left is a stall that is not converged
    add = _PassiveFactor.add

    def refuse_second(self, j):
        return not self.cols and add(self, j)

    monkeypatch.setattr(_PassiveFactor, "add", refuse_second)
    res = nnls(np.eye(3), np.ones(3))
    assert not res.converged and res.iterations == 1
    assert np.array_equal(res.x, [1.0, 0.0, 0.0]) and res.residual == np.sqrt(2.0)
