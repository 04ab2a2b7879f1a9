import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import framescale as fs
from framescale.scaling import _gram_columns, _half_plane_margin, _vech
from helpers import open_quadrant_frame, random_onb_rows, unit_rows

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
    assert verdict.residual >= np.sqrt(2.0) * s / np.sqrt(1.0 + s * s) - 1e-12

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
        if verdict.certificate in ("open-quadrant", "half-plane"):
            reference = scipy_optimize.nnls(_gram_columns(V), _vech(np.eye(2)))[1]
            assert reference > fs.DEFAULT_TOL
        s = float(_half_plane_margin(V[None])[0])
        if s > 1e-6:
            # a clear half-plane margin never leaves the bare solver label
            assert verdict.certificate in ("open-quadrant", "half-plane")
        if verdict.certificate == "half-plane":
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
    # two orthonormal bases of R^3: scalable, but NNLS needs more than one step
    rng = np.random.default_rng(3)
    X = np.vstack([random_onb_rows(rng, 3), random_onb_rows(rng, 3)])
    full = fs.solve_standard_scaling(X)
    assert full.feasible and full.converged and full.iterations > 1
    capped = fs.solve_standard_scaling(X, max_iter=1)
    assert not capped.feasible and capped.scaling is None
    assert capped.certificate == "undecided"
    assert not capped.converged and capped.iterations == 1
    # a converged infeasible verdict keeps its certificate and records the run
    cone = fs.solve_standard_scaling(unit_rows(rng, 4, 3) * [1.0, 0.1, 0.1] + [1.0, 0.0, 0.0])
    assert not cone.feasible and cone.converged and cone.certificate == "residual-infeasible"
    assert cone.iterations >= 1


def test_iteration_cap_keeps_geometric_certificates():
    # the open-quadrant test needs no solver, so a capped run still certifies
    quad = np.array([[1.0, 1.0], [2.0, 1.0], [1.0, 2.0]])
    capped = fs.solve_standard_scaling(quad / np.linalg.norm(quad, axis=1, keepdims=True), max_iter=1)
    assert not capped.converged
    assert not capped.feasible and capped.certificate == "open-quadrant"
