"""The batched screen of search_piecewise against the sequential search."""

import inspect
import itertools
import re
import tracemalloc

import numpy as np
import pytest

import framescale as fs
import framescale.piecewise as pw
import framescale.search as search
import framescale.scaling as sc
from helpers import (
    clustered_unit_frame,
    cone_rows,
    mercedes_frame,
    random_onb_rows,
    random_unit_frame,
    reference_disjoint_split_candidate,
    reference_farkas_margin,
    reference_search_piecewise,
    reference_subspace_margin,
    scalable_rows,
)

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
    # ranks with no two-dimensional side
    for n in (4, 5):
        for k in (1, n - 1):
            cases += [(random_unit_frame(rng, n, int(rng.integers(n + 1, 3 * n + 1))), {k}) for _ in range(3)]
    return cases


CASES = _cases()
EDGE_RANK_CASES = [i for i, (frame, ranks) in enumerate(CASES) if ranks in ({1}, {frame.dim - 1})]


def _blocks(seed: int, k: int, n: int, count: int) -> np.ndarray:
    # the seeding contract: candidate j of rank k is block j of one stream
    return np.random.default_rng((seed, k)).standard_normal((count, n, k))


def _first_rejected(X: np.ndarray, k: int) -> bool:
    """Whether the screen rejects candidate 0 of rank k, seed 0."""
    return bool(search._rejected_draws(X, _blocks(0, k, X.shape[1], 1), TOL)[0])


def _recording_survivors(monkeypatch) -> list[int]:
    """Patch the search to record the candidate indices the screen lets through."""
    seen: list[int] = []
    survivors = search._surviving_candidates

    def record(*args):
        for candidate, G in survivors(*args):
            seen.append(candidate)
            yield candidate, G

    monkeypatch.setattr(search, "_surviving_candidates", record)
    return seen


def _sampled_stage_only(monkeypatch) -> None:
    """Patch the orthogonal-split route out, so the sampled stage answers as in the reference search."""
    monkeypatch.setattr(search, "_orthogonal_split_route", lambda *args: iter(()))


def _side_fixture(k: int, n: int, side_coords: np.ndarray, other_coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows with the given range and complement coordinates for candidate 0 of rank k, seed 0."""
    B = np.linalg.qr(_blocks(0, k, n, 1)[0], mode="complete")[0]
    return side_coords @ B[:, :k].T + other_coords @ B[:, k:].T, B


@pytest.mark.parametrize("index", range(len(CASES)))
def test_search_matches_sequential_reference(index, monkeypatch):
    frame, ranks = CASES[index]
    budget = 60
    _sampled_stage_only(monkeypatch)
    tried = []
    split = search._disjoint_split_candidate
    monkeypatch.setattr(search, "_disjoint_split_candidate", lambda X, P, tol: tried.append(P) or split(X, P, tol))
    got = fs.search_piecewise(frame, ranks=ranks, budget=budget, seed=index)
    solved = len(tried)
    want = reference_search_piecewise(frame, ranks=ranks, budget=budget, seed=index)
    assert _same_result(got, want)
    if ranks == {2}:
        # clustered R^4 frames: the screen must do the work, not the solver
        assert want is None and solved < budget // 4


def test_screen_skips_candidates_on_ranks_without_a_two_dimensional_side(monkeypatch):
    _sampled_stage_only(monkeypatch)
    skipping = 0
    for index in EDGE_RANK_CASES:
        frame, ranks = CASES[index]
        with monkeypatch.context() as patch:
            seen = _recording_survivors(patch)
            found = fs.search_piecewise(frame, ranks=ranks, budget=60, seed=index)
        considered = seen[-1] + 1 if found is not None else 60
        skipping += len(seen) < considered
    assert skipping >= len(EDGE_RANK_CASES) // 2


def test_search_reaches_a_hit_behind_rejected_candidates(monkeypatch):
    # hits whose candidate index lies past candidates the screen rejected
    _sampled_stage_only(monkeypatch)
    two_dim = edge = 0
    for index, (frame, ranks) in enumerate(CASES):
        if ranks is None and frame.dim == 5:
            rank_sets = [{2}, {3}]
        elif index in EDGE_RANK_CASES:
            rank_sets = [ranks]
        else:
            continue
        for wanted in rank_sets:
            with monkeypatch.context() as patch:
                seen = _recording_survivors(patch)
                found = fs.search_piecewise(frame, ranks=wanted, budget=60, seed=index)
            assert _same_result(found, reference_search_piecewise(frame, ranks=wanted, budget=60, seed=index))
            behind = found is not None and len(seen) - 1 < seen[-1]
            if index in EDGE_RANK_CASES:
                edge += behind
            else:
                two_dim += behind
    assert two_dim > 0 and edge > 0


def _wide_cases():
    # R^6..R^8, where the screen's thin and complete factors may differ by an ulp
    rng = np.random.default_rng(2025)
    cases = []
    for n in (6, 7, 8):
        cases.append(clustered_unit_frame(rng, n, int(rng.integers(n + 1, 2 * n + 1)), 0.05))
        cases.append(random_unit_frame(rng, n, int(rng.integers(n + 1, 2 * n + 1))))
    return cases


SOUNDNESS_FRAMES = [frame for frame, _ in CASES] + _wide_cases()


@pytest.mark.parametrize("index", range(len(SOUNDNESS_FRAMES)))
def test_every_screened_candidate_fails_the_solver(index):
    frame = SOUNDNESS_FRAMES[index]
    X = frame.vectors
    n = frame.dim
    budget = 40 if n <= 5 else 16
    for k in range(1, n):
        G = _blocks(index, k, n, budget)
        for g in G[search._rejected_draws(X, G, TOL)]:
            assert reference_disjoint_split_candidate(X, g, TOL) is None


def _reference_rejections(X: np.ndarray, G: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per block: whether a side rejects it, and whether a side's margin is within 1e-12 relative of 10 tol.

    Each block is factored alone by its complete QR, and each side of
    dimension 2 or more is judged by _side_margins on the rows of
    nonzero norm; a candidate is rejected when either side is.
    """
    X = X[np.linalg.norm(X, axis=1) > 0.0]
    scales = np.linalg.norm(X, axis=1)
    n, k = G.shape[1:]
    sides = [cols for cols in (slice(0, k), slice(k, n)) if cols.stop - cols.start >= 2]
    rejected, near = [], []
    for g in G:
        W = X @ np.linalg.qr(g, mode="complete")[0]
        margins = np.array([search._side_margins(W[:, cols][None], scales, TOL)[0] for cols in sides])
        rejected.append(bool((margins > 10.0 * TOL).any()))
        near.append(bool((np.abs(margins - 10.0 * TOL) <= 1e-12 * 10.0 * TOL).any()))
    return np.array(rejected, dtype=bool), np.array(near, dtype=bool)


def _screen_fixtures():
    """Frames in R^2..R^8, clustered and random, each also with a zero row."""
    rng = np.random.default_rng(2027)
    for n in range(2, 9):
        for frame in (
            clustered_unit_frame(rng, n, int(rng.integers(n + 1, 2 * n + 2)), 0.03),
            random_unit_frame(rng, n, int(rng.integers(n + 1, 2 * n + 2))),
        ):
            yield frame.vectors
            yield np.insert(frame.vectors, 1, 0.0, axis=0)


def test_screen_matches_the_per_block_reference(monkeypatch):
    # the batched screen, with one stacked complete factor whose second
    # side is judged for survivors only, against the complete QR of each
    # block alone; they may disagree only at a margin within rounding of 10 tol
    counts = np.zeros(2, dtype=int)
    for index, X in enumerate(_screen_fixtures()):
        n = X.shape[1]
        for k in range(1, n):
            # a dependent block first, then Gaussian ones
            G = np.concatenate([np.ones((1, n, k)), _blocks(index, k, n, 12)])
            got = search._rejected_draws(X, G, TOL)
            want, near = _reference_rejections(X, G)
            assert ((got == want) | near).all()
            counts += np.bincount(want.astype(int), minlength=2)
            # batches of 5 candidates: 2 full ones and a last one of 3
            with monkeypatch.context() as patch:
                patch.setattr(search, "_screen_batch", lambda m, n: 5)
                survivors = list(search._surviving_candidates(X, k, 13, index, TOL))
            want, near = _reference_rejections(X, _blocks(index, k, n, 13))
            kept = [c for c, _ in survivors]
            assert all(not want[c] or near[c] for c in kept)
            assert all(c in kept or near[c] for c in np.flatnonzero(~want))
    # both kinds of candidate are common
    assert counts.min() > 100


def _criterion_06_frames() -> list[np.ndarray]:
    """The first 20 frames of criterion 06's generator: clustered unit rows in R^4 with rank 2 certified as drawn."""
    rng = np.random.default_rng(61)
    return [clustered_unit_frame(rng, 4, int(rng.integers(5, 9)), 0.02, max_closeness=0.1).vectors for _ in range(20)]


CRITERION_06 = _criterion_06_frames()
CRITERION_06_ZERO = [np.insert(X, 0, 0.0, axis=0) for X in CRITERION_06]


def _cone_fixtures():
    """Criterion 06's clustered R^4 frames with a zero first row, the screen's fixtures, and all of them with rows of unequal norm."""
    frames = CRITERION_06_ZERO + list(_screen_fixtures())
    rng = np.random.default_rng(63)
    return frames + [X * rng.uniform(0.3, 3.0, (len(X), 1)) for X in frames]


CONE_FIXTURES = _cone_fixtures()


def _cone_step(X: np.ndarray, k: int) -> bool:
    """Whether the cone step decides rank k, so that the search draws no candidate there."""
    return search._cone_rejects(X, k, TOL)


def _survivor_indices(monkeypatch, X: np.ndarray, k: int, budget: int, seed: int, cone: bool = True) -> list[int]:
    """The candidate indices _surviving_candidates yields, with its cone step or with the exact screen alone."""
    with monkeypatch.context() as patch:
        if not cone:
            patch.setattr(search, "_cone_rejects", lambda X, k, tol: False)
        return [c for c, _ in search._surviving_candidates(X, k, budget, seed, TOL)]


def test_every_cone_rejection_is_rejected_by_the_reference():
    # a cone decision is a certificate the per-block exact screen agrees
    # with, with no allowance at 10 tol, on every block; the step decides
    # only at rank 2 in R^4
    decided = 0
    for index, X in enumerate(CONE_FIXTURES):
        n = X.shape[1]
        for k in range(1, n):
            if not _cone_step(X, k):
                continue
            assert (n, k) == (4, 2), index
            G = np.concatenate([np.ones((1, n, k)), _blocks(index, k, n, 12)])
            assert _reference_rejections(X, G)[0].all(), index
            decided += len(G)
    assert decided > 100


def test_rejected_draws_equal_the_exact_screen(monkeypatch):
    # the search keeps the same candidates with the cone step as with the
    # exact screen, _rejected_draws, alone; at a rank the step decides the
    # exact screen rejects every block, so its margins stay checked on the
    # certified frames where the search draws nothing
    cone = 0
    for index, X in enumerate(CONE_FIXTURES):
        n = X.shape[1]
        for k in range(1, n):
            kept = _survivor_indices(monkeypatch, X, k, 40, index)
            assert kept == _survivor_indices(monkeypatch, X, k, 40, index, cone=False), (index, k)
            if _cone_step(X, k):
                G = np.concatenate([np.ones((1, n, k)), _blocks(index, k, n, 40)])
                assert kept == [] and search._rejected_draws(X, G, TOL).all(), (index, k)
                cone += len(G)
    assert cone > 1000
    # criterion 06's frames: the cone step decides rank 2, and the exact
    # screen alone rejects all 200 blocks too
    for index, X in enumerate(CRITERION_06_ZERO):
        assert _cone_step(X, 2) and search._rejected_draws(X, _blocks(index, 2, 4, 200), TOL).all()


def test_cone_step_skip_rule(monkeypatch):
    # rows e_1 and e_1 + t e_j: rho = t and the larger part of x_0 on the
    # two planes is at least 1 / sqrt(2), so the step decides exactly when
    # sqrt(2) t < 1 / sqrt(2), up to its allowances
    G = _blocks(0, 2, 4, 30)
    for t, decides in ((0.49, True), (0.5, False)):
        X = np.vstack([np.eye(4)[0], np.eye(4)[0] + t * np.eye(4)[1:]])
        assert _cone_step(X, 2) == decides
        if decides:
            assert _reference_rejections(X, G)[0].all()
    # nothing is decided unless both sides are planes, even on clusters of
    # spread 0.001 like the one the step decides at rank 2 in R^4
    rng = np.random.default_rng(5)
    assert _cone_step(clustered_unit_frame(rng, 4, 8, 0.001).vectors, 2)
    for n, k in ((5, 2), (5, 3), (4, 1), (3, 1)):
        assert not _cone_step(clustered_unit_frame(rng, n, 8, 0.001).vectors, k), (n, k)
    # a random frame in R^4 is not decided: the search draws its blocks and
    # the exact screen judges them in one stacked complete QR
    factors = []
    qr = np.linalg.qr
    monkeypatch.setattr(search.np.linalg, "qr", lambda G, mode: factors.append(len(G)) or qr(G, mode))
    X = random_unit_frame(np.random.default_rng(6), 4, 9).vectors
    assert not _cone_step(X, 2)
    list(search._surviving_candidates(X, 2, 30, 0, TOL))
    assert factors == [30]
    # on criterion 06's frames the search yields nothing at rank 2 and
    # draws nothing: no block, no _side_margins and no QR
    monkeypatch.setattr(search, "_candidate_blocks", None)
    monkeypatch.setattr(search, "_side_margins", None)
    monkeypatch.setattr(search.np.linalg, "qr", None)
    for index, X in enumerate(CRITERION_06_ZERO):
        assert list(search._surviving_candidates(X, 2, 200, index, TOL)) == []


def test_cone_step_keeps_what_the_exact_screen_keeps():
    # rank 2 in R^3, where the complement is one-dimensional and never judged
    # parts at the two tangent points of the circle of radius rho = 0.8
    # around the range part (1, 0) of x_0: the half-plane margin is
    # 1 - 2 rho^2 = -0.28 exactly, so the candidate is kept
    side = np.array([[1.0, 0.0], [0.36, 0.48], [0.36, -0.48]])
    X = _side_fixture(2, 3, side, np.ones((3, 1)))[0]
    assert sc._half_plane_margin(side[None])[0] == pytest.approx(-0.28, abs=1e-12)
    # equal rows whose range part, 1e-7 of the row, is not trusted: the exact
    # screen keeps the candidate, which a bound of 1 would reject
    tiny = _side_fixture(2, 3, np.tile([1e-7, 0.0], (3, 1)), np.ones((3, 1)))[0]
    for X in (X, tiny):
        assert not _cone_step(X, 2)
        assert not _first_rejected(X, 2) and not _reference_rejections(X, _blocks(0, 2, 3, 1))[0][0]
    # rank 2 in R^4: x_0 has parts of norm r = 1 / sqrt(2) on both planes,
    # and the other rows move its range part to the tangent points of the
    # circle of radius rho just above ||x_0|| / 2, so the range side has
    # margin 1 - 2 rho^2 / r^2 < 0.  The step does not decide, where a
    # bound of 1 - rho^2 / r^2 on the larger part would decide the range side
    r, rho = np.sqrt(0.5), 0.5 + 1e-3
    angle = np.arcsin(rho / r)
    tangent = np.sqrt(r * r - rho * rho) * np.array([np.cos(angle), np.sin(angle)])
    side = np.array([[r, 0.0], tangent, tangent * [1.0, -1.0]])
    X, B = _side_fixture(2, 4, side, np.tile([r, 0.0], (3, 1)))
    assert np.linalg.norm(X - X[0], axis=1).max() == pytest.approx(rho, abs=1e-12)
    assert not _cone_step(X, 2) and 1.0 - rho * rho / (r * r) > 10.0 * TOL
    margin = search._side_margins((X @ B[:, :2])[None], np.ones(3), TOL)[0]
    assert margin == pytest.approx(1.0 - 2.0 * rho * rho / (r * r), abs=1e-12) and margin < 0.0


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
                # rank 2 in R^3: the complement side always scales, so the
                # screen's verdict on candidate 0 is the half-plane test on V
                X = _side_fixture(2, 3, V, rng.uniform(0.5, 2.0, (V.shape[0], 1)))[0]
                if not _first_rejected(X, 2):
                    kept += 1
                    continue
                rejected += 1
                s = float(sc._half_plane_margin(V[None])[0])
                verdict = sc._standard_verdict(V, TOL)
                assert not verdict.feasible
                assert verdict.residual >= np.sqrt(2.0) * s / np.sqrt(1.0 + s * s) - 1e-12
    assert rejected > 100 and kept > 100


def test_half_plane_margin_values():
    e1, e2 = [1.0, 0.0], [0.0, 1.0]
    r = np.sqrt(0.5)
    # an orthonormal pair: doubled angles 0 and pi, a closed half circle
    assert sc._half_plane_margin(np.array([[e1, e2]]))[0] == pytest.approx(0.0, abs=1e-15)
    # one direction: gap 2 pi, margin 1
    assert sc._half_plane_margin(np.array([[e1, [-2.0, 0.0]]]))[0] == 1.0
    # doubled angles 0 and pi/2 leave a gap of 3 pi / 2
    assert sc._half_plane_margin(np.array([[e1, [r, r]]]))[0] == pytest.approx(np.cos(np.pi / 4.0))
    # the Mercedes frame spreads its doubled angles evenly
    assert sc._half_plane_margin(mercedes_frame().vectors[None])[0] < 0.0


def _threshold_family(rng, d, j, t, anchored):
    """Unit rows sqrt(t) u_p +- sqrt(1 - t) v_q over orthonormal u_1..u_j, v_1..v_(d-j).

    Every such row has ||Pi_j^T u||^2 = t for Pi_j = span{u_p}, and the
    family scales exactly when t = j / d.  Near that threshold the
    eigenvalues of sum_i u_i u_i^T on Pi_j and on its complement nearly
    coincide, so the eigenvectors of reference_subspace_margin carry
    rounding; ``anchored`` adds the rows u_p themselves, which separate
    the two eigenvalues and make that margin the distance from I to the
    cone.  Rows come rotated, rescaled and with random signs, none of
    which changes that distance.
    """
    U = np.linalg.qr(rng.standard_normal((d, d)))[0]
    rows = [
        np.sqrt(t) * U[:, p] + sign * np.sqrt(1.0 - t) * U[:, q]
        for p in range(j)
        for q in range(j, d)
        for sign in (1.0, -1.0)
    ]
    if anchored:
        rows += [U[:, p] for p in range(j)]
    V = np.array(rows)
    return V * (rng.uniform(0.2, 3.0, len(rows)) * rng.choice([-1.0, 1.0], len(rows)))[:, None]


def test_stalled_solves_near_the_threshold_are_not_called_infeasible():
    # the active-set solver stalls on these two families at residuals 0.650
    # and 1.074 while scipy.optimize.nnls reaches 4.6e-10 and 4.6e-11, so
    # the stall proves nothing
    rng = np.random.default_rng(0)
    _threshold_family(rng, 5, 2, 0.4 + 1e-10, False)  # the second draw of seed 0 stalls
    families = [
        _threshold_family(rng, 5, 2, 0.4 + 1e-10, False),
        _threshold_family(np.random.default_rng(2), 5, 2, 0.4 + 1e-11, False),
    ]
    for V in families:
        verdict = fs.solve_standard_scaling(V, None, TOL)
        assert verdict.feasible or (verdict.certificate == "undecided" and not verdict.converged)


def _threshold_stacks():
    """Threshold families for d = 3..6 and j = 1..d-1, stacked by shape, t = j / d +- 1e-12..1."""
    rng = np.random.default_rng(11)
    for d, anchored in itertools.product(range(3, 7), (False, True)):
        for j in range(1, d):
            yield np.stack(
                [
                    _threshold_family(rng, d, j, float(np.clip(j / d + sign * delta, 0.0, 1.0)), anchored)
                    for delta, sign in itertools.product(np.logspace(-12, 0, 25), (-1.0, 1.0))
                ]
            )


def _units(V):
    return V / np.linalg.norm(V, axis=-1, keepdims=True)


def test_farkas_rejection_is_sound():
    # rank 1 in R^(d+1): the range side always scales, so the screen's
    # verdict on candidate 0 is the Farkas test on V
    rng = np.random.default_rng(12)
    rejected = kept = 0
    for stack in _threshold_stacks():
        for V, bound in zip(stack, search._farkas_margin(_units(stack))):
            X = _side_fixture(1, V.shape[1] + 1, rng.uniform(0.5, 2.0, (V.shape[0], 1)), V)[0]
            if not _first_rejected(X, 1):
                kept += 1
                continue
            rejected += 1
            verdict = sc._standard_verdict(V, TOL)
            assert not verdict.feasible
            assert verdict.residual >= bound - 1e-12
    assert rejected > 100 and kept > 100


def test_farkas_bound_values():
    e = np.eye(3)
    # R = 0 proves nothing
    assert sc._farkas_bound(e[None], np.zeros((1, 3, 3)))[0] == 0.0
    # rows within 45 degrees of e_1 in R^3 and R = I - 2 e_1 e_1^T have
    # u_i^T R u_i = 0 and tr R = 1, so delta = 0 and the bound is
    # tr R / ||R||_F = 1 / sqrt(3), the distance from I to their cone
    # (reached at S = 2/3 sum_i u_i u_i^T = diag(4/3, 2/3, 2/3))
    r = np.sqrt(0.5)
    units = np.array([[r, r, 0.0], [r, -r, 0.0], [r, 0.0, r], [r, 0.0, -r]])
    R = np.eye(3) - 2.0 * np.outer(e[0], e[0])
    assert sc._farkas_bound(units[None], R[None])[0] == pytest.approx(1.0 / np.sqrt(3.0))
    # the bound does not depend on the scale of R
    assert sc._farkas_bound(units[None], 5.0 * R[None])[0] == pytest.approx(1.0 / np.sqrt(3.0))
    # R = I: delta = 1 / sqrt(3), tr R^ = sqrt(3), so (sqrt(3) - sqrt(3)) / 2 = 0
    assert sc._farkas_bound(units[None], np.eye(3)[None])[0] == pytest.approx(0.0, abs=1e-15)
    # a row with u^T R^ u > 0 charges delta: u = e_2 gives delta = 1 / sqrt(3)
    # and the bound (1 / sqrt(3) - sqrt(3)) / (1 + 1) = -1 / sqrt(3)
    tilted = np.vstack([units, e[1]])
    assert sc._farkas_bound(tilted[None], R[None])[0] == pytest.approx(-1.0 / np.sqrt(3.0))
    # the FISTA direction nearly attains that distance for the cluster,
    # proves nothing for a basis plus one row, and stacked families keep
    # their own margins
    margins = search._farkas_margin(np.stack([units, np.vstack([e, units[:1]])]))
    assert 0.99 / np.sqrt(3.0) <= margins[0] <= 1.0 / np.sqrt(3.0) + 1e-12
    assert margins[1] <= 0.0


def _random_and_clustered_families(rng):
    """Stacks of 50 random and 50 clustered unit families for each d = 3..5 and m = d+1..3d."""
    for d in range(3, 6):
        for m in range(d + 1, 3 * d + 1):
            yield _units(rng.standard_normal((50, m, d)))
            yield _units(rng.standard_normal((50, 1, d)) + 0.3 * rng.standard_normal((50, m, d)))


def test_farkas_screen_rejects_whatever_the_subspace_margin_rejected():
    rng = np.random.default_rng(13)
    sampled = list(_random_and_clustered_families(rng))
    assert sum(len(units) for units in sampled) >= 2000
    stacks = [_units(stack) for stack in _threshold_stacks()] + sampled
    farkas_only = 0
    for units in stacks:
        reference = reference_subspace_margin(units) > 10.0 * TOL
        farkas = search._farkas_margin(units) > 10.0 * TOL
        assert not (reference & ~farkas).any()
        farkas_only += int((farkas & ~reference).sum())
    assert farkas_only > 100


def test_farkas_bound_stays_nonpositive_on_scalable_families():
    rng = np.random.default_rng(14)
    families = [scalable_rows(rng, d, bases) for d in range(3, 7) for bases in (1, 2, 3) for _ in range(10)]
    # an orthonormal basis plus a copy perturbed by eps: the basis alone scales
    for eps in np.logspace(-5, -9, 9):
        for d in range(3, 7):
            B = random_onb_rows(rng, d)
            families.append(np.vstack([B, B + eps * rng.standard_normal(B.shape)]))
    for V in families:
        assert search._farkas_margin(_units(V)[None])[0] <= 0.0


def test_a_clustered_side_of_1100_rows_is_screened():
    # rank 1 in R^5 leaves a four-dimensional complement side, which a
    # cluster of 1,100 rows makes infeasible for every candidate; the
    # screen judges a side whatever its row count
    X = clustered_unit_frame(np.random.default_rng(19), 5, 1100, 0.02).vectors
    assert search._rejected_draws(X, _blocks(0, 1, 5, 20), TOL).all()


def test_early_exit_rejects_a_superset_of_the_fixed_run_soundly():
    rng = np.random.default_rng(18)
    stacks = [_units(stack) for stack in _threshold_stacks()] + list(_random_and_clustered_families(rng))
    judged = 0
    for units in stacks:
        margin = search._farkas_margin(units, 10.0 * TOL)
        rejected = margin > 10.0 * TOL
        assert not ((reference_farkas_margin(units) > 10.0 * TOL) & ~rejected).any()
        for V, bound in zip(units[rejected], margin[rejected]):
            assert sc._standard_verdict(V, TOL).residual >= bound - 1e-12
            judged += 1
    assert judged > 1000


def _recording_bounds(monkeypatch) -> list[int]:
    """Patch the Farkas screen to record how many families each bound evaluation judges."""
    sizes: list[int] = []
    bound = search._farkas_bound
    monkeypatch.setattr(search, "_farkas_bound", lambda units, R: sizes.append(len(units)) or bound(units, R))
    return sizes


def test_farkas_batch_ends_when_its_families_have_left(monkeypatch):
    rng = np.random.default_rng(25)
    clustered = _units(rng.standard_normal((50, 1, 3)) + 0.3 * rng.standard_normal((50, 6, 3)))
    sizes = _recording_bounds(monkeypatch)
    assert (search._farkas_margin(clustered, 10.0 * TOL) > 10.0 * TOL).all()
    # most families certify at step 1 and leave; every one has left by
    # the fifth checkpoint, step 16
    assert sizes[0] == 50 and sizes[1] < 10 and len(sizes) <= 5
    # a basis plus three cluster rows scales, so its family stays to the
    # last step, alone once the clustered families have left
    sizes.clear()
    mixed = np.concatenate([clustered, np.vstack([np.eye(3), clustered[0, :3]])[None]])
    margin = search._farkas_margin(mixed, 10.0 * TOL)
    assert (margin[:-1] > 10.0 * TOL).all() and margin[-1] <= 0.0
    assert len(sizes) == len(search._FARKAS_CHECKPOINTS) and sizes[0] == 51 and sizes[-1] == 1


def _certified_r4_frames(rng, count: int) -> list[fs.Frame]:
    """Clustered unit frames in R^4, m 5..8, each with rank 2 certified by closeness_obstruction."""
    frames = []
    while len(frames) < count:
        frame = clustered_unit_frame(rng, 4, int(rng.integers(5, 9)), 0.02)
        if 2 in fs.closeness_obstruction(frame).applicable_ranks:
            frames.append(frame)
    return frames


def test_search_takes_its_standard_step_from_solve_standard_scaling(monkeypatch):
    # the whole frame's standard step is one solve_standard_scaling call
    # on the search's own Frame when closeness_obstruction certifies no
    # rank, and none when it certifies one; _standard_verdict is NNLS
    # alone, for the side solves, and has no switch for the steps before it
    assert "screen" not in inspect.signature(sc._standard_verdict).parameters
    calls = []
    solve = pw.solve_standard_scaling
    monkeypatch.setattr(pw, "solve_standard_scaling", lambda *args: calls.append(args[0]) or solve(*args))
    frames = _certified_r4_frames(np.random.default_rng(62), 6) + [frame for frame, _ in CASES[::5]]
    steps = []
    for index, frame in enumerate(frames):
        calls.clear()
        fs.search_piecewise(frame, budget=20, seed=index)
        assert all(isinstance(call, fs.Frame) for call in calls)
        steps.append((bool(fs.closeness_obstruction(frame).applicable_ranks), len(calls)))
    assert steps.count((True, 0)) >= 6 and steps.count((False, 1)) >= 4 and len(set(steps)) == 2, steps
    # at a tol of at least _CERTIFIED_DEFECT the step runs on a certified
    # frame too, and its equal constants stay the answer
    calls.clear()
    found = fs.search_piecewise(frames[0], ranks={2}, budget=20, seed=0, tol=2.0)
    assert len(calls) == 1 and found is not None and np.array_equal(found.a, found.b)


def test_certified_frames_have_no_standard_scaling():
    # the reason the search skips its standard step: a frame with a
    # certified rank misses the identity by more than _CERTIFIED_DEFECT,
    # on criterion 06's clustered frames and on tighter ones, which
    # closeness_obstruction certifies at n = 5 and 6 too
    rng = np.random.default_rng(61)
    judged = {4: 0, 5: 0, 6: 0}
    for n in judged:
        for spread in (0.02, 0.002):
            for _ in range(20):
                frame = clustered_unit_frame(rng, n, int(rng.integers(n + 1, 2 * n + 1)), spread, max_closeness=0.1)
                if not fs.closeness_obstruction(frame).applicable_ranks:
                    continue
                for tol in (TOL, 0.5, np.nextafter(pw._CERTIFIED_DEFECT, 0.0)):
                    assert fs.solve_standard_scaling(frame, None, tol).feasible is False, (n, tol)
                judged[n] += 1
    assert min(judged.values()) >= 10, judged


def _refuse(*args):
    raise AssertionError("the search ran a step that a decided rank skips")


def test_a_certified_cluster_draws_nothing(monkeypatch):
    # criterion 06's frames: rank 2 is certified, so the search skips the
    # standard step and the route, and the cone step decides it, so the
    # search draws no block there and misses
    monkeypatch.setattr(pw, "solve_standard_scaling", _refuse)
    monkeypatch.setattr(search, "_greedy_independent", _refuse)
    monkeypatch.setattr(search, "_split_system", _refuse)
    monkeypatch.setattr(search, "_candidate_blocks", _refuse)
    for index, X in enumerate(CRITERION_06):
        assert fs.search_piecewise(X, ranks={2}, budget=200, seed=index) is None


def test_a_decided_rank_changes_no_other_ranks_candidates():
    # each rank draws from its own stream and the route from its own call,
    # so a rank that draws nothing moves no other candidate: on certified
    # clusters ranks {1, 2, 3} give the bytes of {1, 3}
    found = 0
    for index, X in enumerate(CRITERION_06[:10]):
        got = fs.search_piecewise(X, ranks={1, 2, 3}, budget=40, seed=index)
        assert _same_result(got, fs.search_piecewise(X, ranks={1, 3}, budget=40, seed=index)), index
        found += got is not None
    assert found > 0


def _counting_solver(monkeypatch) -> list[int]:
    # the search solves the side coordinates with solve_standard_scaling's
    # unnormalised core
    calls: list[int] = []
    solve = search._standard_verdict
    monkeypatch.setattr(search, "_standard_verdict", lambda *args, **kwargs: calls.append(1) or solve(*args, **kwargs))
    return calls


def _prescreen_frames(rng):
    """Random, clustered, cone and scalable frames at n = 2..6, each with whether it was built to scale."""
    for n in range(2, 7):
        for _ in range(8):
            m = int(rng.integers(n + 1, 3 * n + 1))
            yield random_unit_frame(rng, n, m), False
            yield clustered_unit_frame(rng, n, m, 0.05), False
            yield fs.Frame(cone_rows(rng, m, n)), False
            yield fs.Frame(scalable_rows(rng, n, int(rng.integers(1, 4)))), True


def test_prescreen_rejects_only_frames_the_solver_cannot_scale(monkeypatch):
    # the search's standard step decides or screens the whole frame before
    # NNLS; a verdict of no NNLS iterations was decided or rejected, and the
    # skipped solve must have reached the same feasibility
    frames = list(_prescreen_frames(np.random.default_rng(41)))
    solve = pw.solve_standard_scaling
    verdicts: list = []

    def record(V, *args, **kwargs):
        verdicts.append((V.vectors, solve(V, *args, **kwargs)))
        return verdicts[-1][1]

    monkeypatch.setattr(pw, "solve_standard_scaling", record)
    rejected = {False: 0, True: 0}
    for frame, scalable in frames:
        assert frame.is_frame()
        verdicts.clear()
        pw.search_piecewise(frame, ranks={1}, budget=1)
        V, verdict = verdicts[0]
        if verdict.iterations:
            continue
        assert sc._standard_verdict(V, TOL).feasible == verdict.feasible
        rejected[scalable] += not verdict.feasible
    assert rejected[True] == 0 and rejected[False] > 100


def _counting_nnls(monkeypatch) -> list[int]:
    calls: list[int] = []
    solve = sc.nnls
    monkeypatch.setattr(sc, "nnls", lambda *args, **kwargs: calls.append(1) or solve(*args, **kwargs))
    return calls


def test_rejected_frame_makes_no_standard_solve(monkeypatch):
    # a certified rank-2 miss in R^4: the screen rejects the whole frame and
    # every candidate, so the search runs no NNLS; an orthonormal basis is
    # decided by its least-squares weights, also without NNLS
    X = clustered_unit_frame(np.random.default_rng(3), 4, 6, 0.02).vectors
    assert fs.solve_standard_scaling(X).iterations == 0
    calls = _counting_nnls(monkeypatch)
    assert fs.search_piecewise(X, ranks={2}, budget=200, seed=0) is None and calls == []
    assert fs.search_piecewise(np.eye(4), ranks={2}) is not None and calls == []


def test_shared_support_is_a_miss_after_two_solves(monkeypatch):
    # candidate 0 of rank 3 in R^4: the range side scales on rows 0, 1
    # and 2, the one-dimensional complement on row 0, so the supports share
    # row 0.  Rows 1 and 2 alone cannot scale to the range, and row 2's
    # range part is at rounding level, so no screen would judge them; the
    # shared index is a miss without a third solve
    side = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 5e-4]])
    X, B = _side_fixture(3, 4, side, np.array([[1e4], [0.0], [1e3]]))
    W = X @ B
    supports = [fs.solve_standard_scaling(V, None, TOL).scaling.constants > 0.0 for V in (W[:, :3], W[:, 3:])]
    assert supports[0].all() and supports[1].tolist() == [True, False, False]
    calls = _counting_solver(monkeypatch)
    assert search._disjoint_split_candidate(X, _blocks(0, 3, 4, 1)[0], TOL) is None and len(calls) == 2


def test_survivors_are_solved_in_the_screens_orthogonal_factor(monkeypatch):
    # a survivor is solved in X Q for the complete QR of its block alone,
    # which equals that block's factor in a stacked complete QR bit for bit;
    # the screen judges the survivor's second side in such a stacked factor
    solved: list[np.ndarray] = []
    solve = search._standard_verdict
    monkeypatch.setattr(search, "_standard_verdict", lambda V, *args: solved.append(V) or solve(V, *args))
    survivors = hits = 0
    for index, (frame, _) in enumerate(CASES[::3]):
        X, n = frame.vectors, frame.dim
        for k in range(1, n):
            stacked = np.linalg.qr(_blocks(index, k, n, 40), mode="complete")[0]
            for c, G in search._surviving_candidates(X, k, 40, index, TOL):
                Q = stacked[c]
                assert np.array_equal(np.linalg.qr(G, mode="complete")[0], Q)
                solved.clear()
                ps = search._disjoint_split_candidate(X, G, TOL)
                W = X @ Q
                sides = sorted((W[:, :k], W[:, k:]), key=lambda V: -V.shape[1])
                assert 1 <= len(solved) <= 2 and all(map(np.array_equal, solved, sides))
                survivors += 1
                if ps is not None:
                    assert np.array_equal(ps.projection.range_basis, Q[:, :k])
                    hits += 1
    assert survivors > 100 and hits > 0


def test_a_dependent_block_is_an_ordinary_rank_k_candidate():
    # np.ones((4, 2)) has rank one, yet the orthogonal factor of its
    # complete QR has two leading columns: a rank-2 candidate like any other
    G = np.ones((4, 2))
    Q = np.linalg.qr(G, mode="complete")[0]
    assert np.linalg.norm(Q.T @ Q - np.eye(4)) <= 1e-14
    # a certified rank-2 miss: the screen rejects it and the solver finds no split
    X = clustered_unit_frame(np.random.default_rng(3), 4, 6, 0.02).vectors
    assert search._rejected_draws(X, G[None], TOL)[0]
    assert search._disjoint_split_candidate(X, G, TOL) is None
    # the columns of Q as frame rows split into the two coordinate sides
    X = Q.T
    assert not search._rejected_draws(X, G[None], TOL)[0]
    ps = search._disjoint_split_candidate(X, G, TOL)
    assert ps.projection.rank == 2 and np.array_equal(ps.projection.range_basis, Q[:, :2])
    assert np.allclose(ps.a, [1.0, 1.0, 0.0, 0.0], atol=1e-12) and np.allclose(ps.b, [0.0, 0.0, 1.0, 1.0], atol=1e-12)
    assert fs.verify_piecewise(X, ps, TOL).passed


def test_screen_keeps_degenerate_and_rounding_level_sides():
    X = clustered_unit_frame(np.random.default_rng(3), 4, 6, 0.02).vectors
    assert search._rejected_draws(X, _blocks(0, 2, 4, 16), TOL).all()
    # rank 2 in R^5: the range side is a cluster of doubled angles in
    # [0, 1], which only its two-dimensional side can reject, since the
    # complement coordinates e_1, e_2, e_3 scale
    theta = np.linspace(0.0, 0.5, 6)
    X, B = _side_fixture(2, 5, np.column_stack([np.cos(theta), np.sin(theta)]), np.tile(np.eye(3), (2, 1)))
    assert _first_rejected(X, 2)
    # a frame vector inside the candidate's complement has no direction on
    # the range side, so the candidate is kept
    assert not _first_rejected(np.vstack([X, B[:, 2]]), 2)
    # rank 1 in R^4: the three-dimensional complement side holds a cluster
    # around e_1, which the Farkas bound rejects; a vector inside the
    # range has a complement part at rounding level
    cluster = np.array([[1.0, 0.1, 0.0], [1.0, -0.1, 0.0], [1.0, 0.0, 0.1], [1.0, 0.0, -0.1]])
    X, B = _side_fixture(1, 4, np.ones((4, 1)), cluster)
    assert _first_rejected(X, 1)
    assert not _first_rejected(np.vstack([X, B[:, 0]]), 1)
    # e_1, e_2 and e_3 tilted by theta toward e_1 sit sqrt(2) theta from
    # scaling, and the screen rejects only a bound above 10 tol
    for theta, rejects in ((3e-8, False), (1e-6, True)):
        tilted = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [np.sin(theta), 0.0, np.cos(theta)]])
        X = _side_fixture(1, 4, np.ones((3, 1)), tilted)[0]
        assert _first_rejected(X, 1) == rejects


def test_chunked_screen_keeps_exactly_the_unrejected_candidates(monkeypatch):
    frame, _ = CASES[-1]
    X, n = frame.vectors, frame.dim
    # batches of 7 candidates: 14 full batches and a last one of 2
    monkeypatch.setattr(search, "_screen_batch", lambda m, n: 7)
    for k in range(1, frame.dim):
        survivors = list(search._surviving_candidates(X, k, 100, 9, TOL))
        G = _blocks(9, k, frame.dim, 100)
        one_by_one = [search._rejected_draws(X, G[c : c + 1], TOL)[0] for c in range(100)]
        assert [c for c, _ in survivors] == [c for c in range(100) if not one_by_one[c]]
        assert all(np.array_equal(g, G[c]) for c, g in survivors)
        assert len(survivors) < 100


def test_screen_memory_does_not_grow_with_the_budget():
    # a certified rank-2 miss in R^4 screens all 200,000 candidates in
    # batches of 2^20 // 60 blocks, so the peak is that of one batch;
    # chunks that grow with the budget peak above 45 MB here
    frame = clustered_unit_frame(np.random.default_rng(3), 4, 6, 0.02)
    tracemalloc.start()
    try:
        assert fs.search_piecewise(frame, ranks={2}, budget=200_000, seed=0) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_first_block_of_the_stream_is_pinned():
    # candidate 0 of rank 2 in R^4, seed 0; a change of numpy's stream shows here
    want = [
        [-0.5998504999444954, -0.3505175280910633],
        [-1.0038958719978983, 0.29056491451634336],
        [-1.5641198470124649, -0.9617679017183549],
        [-2.3442540545908086, -0.030541411967090967],
    ]
    assert np.array_equal(_blocks(0, 2, 4, 1)[0], want)


# a one-element integer array is read as its element by SeedSequence
CONTRACT_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**100 + 11, np.int64(2**40 + 3), np.array([7])] + [
    int(s) for s in np.random.default_rng(17).integers(0, 2**62, 20)
]


@pytest.mark.parametrize("seed", CONTRACT_SEEDS)
def test_batched_draws_keep_the_seeding_contract(seed, monkeypatch):
    # with nothing rejected, the search draws candidates 0..619 through
    # 88 batches of 7 and a last batch of 4
    monkeypatch.setattr(search, "_rejected_draws", lambda X, G, tol: np.zeros(len(G), dtype=bool))
    n, budget = 6, 620
    monkeypatch.setattr(search, "_screen_batch", lambda m, n: 7)
    for k in range(1, n):
        drawn = list(search._surviving_candidates(np.eye(n), k, budget, seed, TOL))
        assert [c for c, _ in drawn] == list(range(budget))
        assert np.array_equal([G for _, G in drawn], _blocks(seed, k, n, budget))


@pytest.mark.parametrize("seed", [1.5, np.float64(2.0), np.array(3.0), np.bool_(True)])
def test_non_integer_seeds_fail_as_the_seeding_contract_does(seed):
    # seeds the stream cannot take are rejected at entry, by name
    with pytest.raises(TypeError):
        np.random.default_rng((seed, 2))
    with pytest.raises(ValueError, match=re.escape(f"seed must be an integer, got {seed!r}")):
        fs.search_piecewise(CASES[0][0], ranks={2}, seed=seed)


def test_search_takes_only_integer_budgets_seeds_and_ranks():
    # a clustered R^5 frame at rank 1, where the route does not run, reaches
    # the sampled stage, whose range() took a float budget to a TypeError
    # before the budget was checked at entry
    X = clustered_unit_frame(np.random.default_rng(4), 5, 7, 0.05).vectors
    for kwargs, name in (
        ({"budget": 2.5}, "budget"),
        ({"seed": 1.5}, "seed"),
        ({"seed": True}, "seed"),
        ({"ranks": {2.7}}, "each of ranks"),
        ({"ranks": {"2"}}, "each of ranks"),
    ):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
            fs.search_piecewise(X, **{"ranks": {1}, **kwargs})
    # numpy integers and a 0-d integer array are read as their values
    want = fs.search_piecewise(X, ranks={1}, budget=20, seed=3)
    for kwargs in ({"ranks": [np.int64(1)]}, {"budget": np.int32(20)}, {"seed": np.uint8(3)}, {"seed": np.array(3)}):
        got = fs.search_piecewise(X, **{"ranks": {1}, "budget": 20, "seed": 3, **kwargs})
        assert _same_result(got, want), kwargs


def test_search_rejects_a_nonpositive_tol():
    # tol is checked before any route runs, so a family that spans nothing rejects it too
    for frame in (np.eye(3), [[1.0, 0.0, 0.0]]):
        for tol in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError, match="tol must be positive"):
                fs.search_piecewise(frame, tol=tol)
