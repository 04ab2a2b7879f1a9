"""The orthogonal-split route of search_piecewise: Jacobian, starts, results and skipped ranks."""

import numpy as np
import pytest

import framescale as fs
import framescale.piecewise as pw
import framescale.search as search
from helpers import clustered_unit_frame, random_unit_frame

TOL = fs.DEFAULT_TOL


def _chart_step(Q: np.ndarray, k: int, delta: np.ndarray) -> np.ndarray:
    return np.linalg.qr(Q[:, :k] + Q[:, k:] @ delta.reshape(-1, k), mode="complete")[0]


@pytest.mark.parametrize("n, k", [(3, 1), (4, 2), (5, 2), (5, 3), (6, 1), (8, 3)])
def test_jacobian_matches_central_differences(n, k):
    rng = np.random.default_rng(n * 10 + k)
    system = search._split_system(rng.standard_normal((n, n)), k)
    Q = np.linalg.qr(rng.standard_normal((n, k)), mode="complete")[0]
    r, J = system(Q)
    assert J.shape == (k * (k - 1) // 2 + (n - k) * (n - k - 1) // 2, k * (n - k))
    h = 1e-6
    for c in range(J.shape[1]):
        delta = np.zeros(J.shape[1])
        delta[c] = h
        forward, backward = system(_chart_step(Q, k, delta))[0], system(_chart_step(Q, k, -delta))[0]
        assert np.abs((forward - backward) / (2.0 * h) - J[:, c]).max() < 1e-6


def test_residuals_are_the_cosines_of_the_owned_parts():
    rng = np.random.default_rng(3)
    n, k = 5, 2
    V = rng.standard_normal((n, n))
    Q = np.linalg.qr(rng.standard_normal((n, k)), mode="complete")[0]
    P = Q[:, :k] @ Q[:, :k].T
    parts = np.vstack([V[:k] @ P, V[k:] - V[k:] @ P])
    units = parts / np.linalg.norm(parts, axis=1, keepdims=True)
    C = units @ units.T
    want = np.concatenate([C[:k, :k][np.triu_indices(k, 1)], C[k:, k:][np.triu_indices(n - k, 1)]])
    assert np.allclose(search._split_system(V, k)(Q)[0], want, atol=1e-14)


def test_a_part_at_rounding_level_stops_the_system():
    n, k = 4, 2
    Q = np.eye(n)
    V = np.eye(n)
    V[0] = [1e-9, 0.0, 1.0, 0.0]  # its range part is 1e-9 of the row
    assert search._split_system(V, k)(Q) is None
    assert search._split_system(np.eye(n), k)(Q) is not None


def test_greedy_selection_skips_excluded_rows():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((9, 5))
    S = pw._greedy_independent(X, 2)
    T = pw._greedy_independent(X, 3, S)
    assert not set(S) & set(T)
    assert np.linalg.matrix_rank(X[list(T)]) == 3
    with pytest.raises(ValueError):
        pw._greedy_independent(np.vstack([X[:2], X[:2]]), 3)


def test_starts_are_the_first_draws_of_the_seeding_contract(monkeypatch):
    rng = np.random.default_rng(8)
    frame = random_unit_frame(rng, 6, 9)
    starts = []
    monkeypatch.setattr(search, "_solve_split", lambda system, Q, k, tol: starts.append((k, Q)))
    seed = 41
    assert list(search._orthogonal_split_route(frame, [1, 2, 3, 4, 5], seed, TOL)) == []
    # nearest to n / 2 first, then every start of a rank before the next
    # rank; ranks 1 and 5 have more cosines than unknowns and are skipped
    assert [k for k, _ in starts] == [3, 3, 3, 2, 2, 2, 4, 4, 4]
    for index, (k, Q) in enumerate(starts):
        # start j is block j of the rank's candidate stream
        G = np.random.default_rng((seed, k)).standard_normal((search._SPLIT_STARTS, 6, k))[index % search._SPLIT_STARTS]
        assert np.array_equal(Q, np.linalg.qr(G, mode="complete")[0])


def test_budget_bounds_the_starts_of_each_rank(monkeypatch):
    rng = np.random.default_rng(8)
    frame = random_unit_frame(rng, 5, 8)
    assert not fs.solve_standard_scaling(frame).feasible and not fs.closeness_obstruction(frame).applicable_ranks
    solved = []
    monkeypatch.setattr(search, "_solve_split", lambda system, Q, k, tol: solved.append(k))
    for budget, starts in ((1, 1), (2, 2), (5, 3)):
        solved.clear()
        fs.search_piecewise(frame, budget=budget, seed=3)
        assert solved == [2] * starts + [3] * starts


@pytest.mark.parametrize("n", range(2, 10))
def test_route_skips_ranks_with_more_cosines_than_unknowns(n, monkeypatch):
    ranks = []
    monkeypatch.setattr(search, "_split_system", lambda V, k: ranks.append(k) or (lambda Q: None))
    list(search._orthogonal_split_route(random_unit_frame(np.random.default_rng(n), n, n + 2), range(1, n), 0, TOL))
    square_or_under = {k for k in range(1, n) if k * (k - 1) // 2 + (n - k) * (n - k - 1) // 2 <= k * (n - k)}
    assert set(ranks) == square_or_under
    assert (1 in ranks) == (n <= 4)


def test_route_builds_through_the_piecewise_module(monkeypatch):
    # a tracer or a patch that rebinds construct_from_orthogonal_split in
    # piecewise.py must see every call the route makes
    built = []
    construct = pw.construct_from_orthogonal_split
    monkeypatch.setattr(pw, "construct_from_orthogonal_split", lambda *args: built.append(args[2:4]) or construct(*args))
    frame = random_unit_frame(np.random.default_rng(8), 5, 8)
    found = fs.search_piecewise(frame, seed=3)
    assert found is not None and built and all(len(S) + len(T) == 5 for S, T in built)


def _first_verified(frame, splits):
    # the search's acceptance: the first split the route yields that passes verify_piecewise
    return next((ps for ps in splits if fs.verify_piecewise(frame, ps).passed), None)


def _route_results(seed: int, count: int):
    rng = np.random.default_rng([seed, 6])
    for index in range(count):
        n = 4 + index % 2
        frame = random_unit_frame(rng, n, int(rng.integers(n + 1, 3 * n + 1)))
        yield frame, _first_verified(frame, search._orthogonal_split_route(frame, range(1, n), index, TOL))


def test_route_results_verify_with_disjoint_supports_and_repeat():
    first = list(_route_results(0, 16))
    again = list(_route_results(0, 16))
    found = 0
    for (frame, ps), (_, ps_again) in zip(first, again):
        if ps is None:
            assert ps_again is None
            continue
        found += 1
        assert fs.verify_piecewise(frame, ps).passed
        assert np.all(ps.a * ps.b == 0.0)
        for got, want in ((ps.a, ps_again.a), (ps.b, ps_again.b), (ps.projection.matrix, ps_again.projection.matrix)):
            assert got.tobytes() == want.tobytes()
    assert found > 0


def test_search_returns_the_route_result_at_the_requested_rank():
    rng = np.random.default_rng(9)
    for n, ranks in ((4, {1}), (5, {3}), (6, {2, 5})):
        frame = random_unit_frame(rng, n, n + 3)
        if fs.solve_standard_scaling(frame).feasible:
            continue
        ps = fs.search_piecewise(frame, ranks=ranks, budget=5, seed=2)
        assert ps is not None and ps.projection.rank in ranks
        assert fs.verify_piecewise(frame, ps).passed


def test_route_never_solves_a_certified_rank(monkeypatch):
    rng = np.random.default_rng(12)
    solved = []
    split_system = search._split_system
    monkeypatch.setattr(search, "_split_system", lambda V, k: solved.append(k) or split_system(V, k))
    cases = [(clustered_unit_frame(rng, 4, 6, 0.02), {2}), (clustered_unit_frame(rng, 6, 8, 0.001), {2, 3, 4})]
    for frame, certified in cases:
        assert fs.closeness_obstruction(frame).applicable_ranks == certified
        for ranks in (None, certified):
            solved.clear()
            fs.search_piecewise(frame, ranks=ranks, budget=4, seed=1)
            assert not set(solved) & certified
            if ranks is None:
                # at n = 4 the other ranks still reach the route; at n = 6
                # they are 1 and 5, whose systems have more cosines than unknowns
                assert solved if frame.dim == 4 else not set(solved) & {1, 5}


@pytest.mark.parametrize("n", [4, 5])
def test_route_hit_rate_on_random_unit_frames(n):
    # 20 of 20 hit when this floor was set; a miss is allowed, not a proof
    rng = np.random.default_rng([2026, n])
    hits = 0
    for index in range(20):
        frame = random_unit_frame(rng, n, int(rng.integers(n + 1, 3 * n + 1)))
        hits += _first_verified(frame, search._orthogonal_split_route(frame, range(1, n), index, TOL)) is not None
    assert hits >= 17
