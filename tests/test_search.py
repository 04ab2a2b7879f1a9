"""The batched two-dimensional screen of search_piecewise against the sequential search."""

import numpy as np
import pytest

import framescale as fs
import framescale.piecewise as pw
from framescale.projections import _random_projection
from helpers import clustered_unit_frame, mercedes_frame, random_unit_frame, reference_search_piecewise

TOL = fs.DEFAULT_TOL


def _same_result(got, want) -> bool:
    if got is None or want is None:
        return got is None and want is None
    return (
        np.array_equal(got.a, want.a)
        and np.array_equal(got.b, want.b)
        and np.array_equal(got.projection.matrix, want.projection.matrix)
    )


def _cases():
    rng = np.random.default_rng(2024)
    cases = [(clustered_unit_frame(rng, 4, int(rng.integers(5, 9)), 0.02), {2}) for _ in range(6)]
    for n in (4, 5):
        cases += [(random_unit_frame(rng, n, int(rng.integers(n + 1, 3 * n + 1))), None) for _ in range(8)]
    return cases


CASES = _cases()


@pytest.mark.parametrize("index", range(len(CASES)))
def test_search_matches_sequential_reference(index, monkeypatch):
    frame, ranks = CASES[index]
    budget = 60
    tried = []
    split = pw._disjoint_split_candidate
    monkeypatch.setattr(pw, "_disjoint_split_candidate", lambda X, P, tol: tried.append(P) or split(X, P, tol))
    got = fs.search_piecewise(frame, ranks=ranks, budget=budget, seed=index)
    solved = len(tried)
    want = reference_search_piecewise(frame, ranks=ranks, budget=budget, seed=index)
    assert _same_result(got, want)
    if ranks == {2}:
        # clustered R^4 frames: the screen must do the work, not the solver
        assert want is None and solved < budget // 4


def test_search_reaches_a_hit_behind_rejected_candidates():
    # hits at ranks where the screen also rejected candidates
    hits = 0
    for index, (frame, ranks) in enumerate(CASES):
        if ranks is not None or frame.dim != 5:
            continue
        for k in (2, 3):
            rejected = pw._two_dim_rejections(frame.vectors, k, index, range(60), TOL)
            found = fs.search_piecewise(frame, ranks={k}, budget=60, seed=index)
            assert _same_result(found, reference_search_piecewise(frame, ranks={k}, budget=60, seed=index))
            hits += found is not None and bool(rejected.any())
    assert hits > 0


@pytest.mark.parametrize("index", range(len(CASES)))
def test_every_screened_candidate_fails_the_solver(index):
    frame, _ = CASES[index]
    X = frame.vectors
    n = frame.dim
    for k in range(1, n):
        rejected = pw._two_dim_rejections(X, k, index, range(40), TOL)
        if 2 not in (k, n - k):
            assert not rejected.any()
            continue
        for c in np.nonzero(rejected)[0]:
            rng = np.random.default_rng(np.random.SeedSequence(entropy=(index, k, int(c))))
            assert pw._disjoint_split_candidate(X, _random_projection(rng, n, k), TOL) is None


def _arc_family(rng, m, arc):
    """m vectors in R^2 whose doubled angles span an arc of length ``arc`` exactly."""
    mid = rng.uniform(0.0, 2.0 * np.pi)
    phi = np.concatenate([[mid - arc / 2.0, mid + arc / 2.0], mid + rng.uniform(-arc / 2.0, arc / 2.0, m - 2)])
    theta = phi / 2.0 + np.pi * rng.integers(0, 2, m)  # sign flips keep the doubled angle
    return rng.uniform(0.2, 3.0, m)[:, None] * np.column_stack([np.cos(theta), np.sin(theta)])


def test_half_plane_rejection_is_sound():
    rng = np.random.default_rng(7)
    rejected = kept = 0
    for delta in np.logspace(-12, 0, 49):
        for sign in (-1.0, 1.0):
            for _ in range(4):
                V = _arc_family(rng, int(rng.integers(2, 7)), np.pi + sign * delta)
                s = float(pw._half_plane_margin(V[None])[0])
                if s <= 10.0 * TOL:
                    kept += 1
                    continue
                rejected += 1
                verdict = fs.solve_standard_scaling(V, None, TOL)
                assert not verdict.feasible
                assert verdict.residual >= np.sqrt(2.0) * s / np.sqrt(1.0 + s * s) - 1e-12
    assert rejected > 100 and kept > 100


def test_half_plane_margin_values():
    e1, e2 = [1.0, 0.0], [0.0, 1.0]
    r = np.sqrt(0.5)
    # an orthonormal pair: doubled angles 0 and pi, a closed half circle
    assert pw._half_plane_margin(np.array([[e1, e2]]))[0] == pytest.approx(0.0, abs=1e-15)
    # one direction: gap 2 pi, margin 1
    assert pw._half_plane_margin(np.array([[e1, [-2.0, 0.0]]]))[0] == 1.0
    # doubled angles 0 and pi/2 leave a gap of 3 pi / 2
    assert pw._half_plane_margin(np.array([[e1, [r, r]]]))[0] == pytest.approx(np.cos(np.pi / 4.0))
    # the Mercedes frame spreads its doubled angles evenly
    assert pw._half_plane_margin(mercedes_frame().vectors[None])[0] < 0.0


def test_screen_keeps_degenerate_and_rounding_level_sides(monkeypatch):
    X = clustered_unit_frame(np.random.default_rng(3), 4, 6, 0.02).vectors
    assert pw._two_dim_rejections(X, 2, 0, range(16), TOL).all()
    # a draw with a dependent column is redrawn by _random_projection
    class Constant:
        def __init__(self, seed):
            pass

        def standard_normal(self, shape):
            return np.ones(shape)

    with monkeypatch.context() as patch:
        patch.setattr(np.random, "default_rng", Constant)
        assert not pw._two_dim_rejections(X, 2, 0, range(16), TOL).any()
    # a frame vector inside a candidate's complement has no direction on the
    # range side, the only two-dimensional side of rank 2 in R^5
    X = clustered_unit_frame(np.random.default_rng(3), 5, 7, 0.02).vectors
    assert pw._two_dim_rejections(X, 2, 0, range(1), TOL)[0]
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(0, 2, 0)))
    B = np.linalg.qr(rng.standard_normal((5, 2)), mode="complete")[0]
    assert not pw._two_dim_rejections(np.vstack([X, B[:, 2]]), 2, 0, range(1), TOL)[0]


def test_chunked_screen_keeps_exactly_the_unrejected_candidates():
    frame, _ = CASES[-1]
    X = frame.vectors
    for k in range(1, frame.dim):
        survivors = list(pw._surviving_candidates(X, k, 100, 9, TOL))
        if 2 not in (k, frame.dim - k):
            assert survivors == list(range(100))
            continue
        one_by_one = [c for c in range(100) if not pw._two_dim_rejections(X, k, 9, range(c, c + 1), TOL)[0]]
        assert survivors == one_by_one and len(survivors) < 100
