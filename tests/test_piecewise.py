import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import framescale as fs
import framescale.piecewise as pw
import framescale.search as search
from framescale.piecewise import _complement_form
from helpers import (
    blocked_split_frame,
    clustered_unit_frame,
    magnitude_gate_frames,
    open_quadrant_frame,
    r3_fixture,
    r4_special_fixture,
    random_onb_rows,
    random_unit_frame,
    row_transform,
    tilted_pair_frame,
    unit_rows,
)

RT2 = np.sqrt(2.0)
PI2 = lambda: fs.canonical_projection([0, 1], 4)


def blocked_constants():
    return np.array([1.0, 1.0, 0.0, 0.0]), np.array([1 / RT2, 1 / RT2, 0.0, 0.0])


def test_cross_operator_examples():
    frame = blocked_split_frame()
    a, b = blocked_constants()

    # disjoint supports kill every term
    ps0 = fs.PiecewiseScaling(PI2(), a, np.zeros(4))
    assert np.array_equal(fs.cross_operator(frame, ps0), np.zeros((4, 4)))

    # four entries of magnitude 1/sqrt 2: rows 1 and 2 against columns 3 and 4
    ps = fs.PiecewiseScaling(PI2(), a, b)
    C = fs.cross_operator(frame, ps)
    expected = np.zeros((4, 4))
    expected[0, 2] = expected[0, 3] = 1 / RT2
    expected[1, 2] = 1 / RT2
    expected[1, 3] = -1 / RT2
    assert np.allclose(C, expected, atol=1e-15)
    assert abs(np.linalg.norm(C, "fro") - RT2) <= 1e-12

    pair = tilted_pair_frame(0.1)
    split = fs.construct_from_orthogonal_split(pair, fs.canonical_projection([0], 2), [0], [1])
    assert np.allclose(fs.cross_operator(pair, split), np.zeros((2, 2)), atol=0)


def test_verify_piecewise_onb_and_tilted_pair():
    onb = fs.Frame(np.eye(3))
    ones = np.ones(3)
    rep = fs.verify_piecewise(onb, fs.PiecewiseScaling(fs.canonical_projection([0, 1], 3), ones, ones))
    assert rep.passed
    assert rep.direct_residual == 0.0 and rep.cross_norm == 0.0
    assert rep.p_side.residual == 0.0 and rep.q_side.residual == 0.0

    pair = tilted_pair_frame(0.1)
    ps = fs.PiecewiseScaling(
        fs.canonical_projection([0], 2), np.array([10.0, 0.0]), np.array([0.0, RT2])
    )
    rep = fs.verify_piecewise(pair, ps)
    assert rep.passed
    assert np.allclose(fs.scaled_family(pair, ps), np.eye(2), atol=1e-12)


def test_verify_piecewise_blocked_fixture_fails_with_clean_sides():
    frame = blocked_split_frame()
    a, b = blocked_constants()
    rep = fs.verify_piecewise(frame, fs.PiecewiseScaling(PI2(), a, b))
    assert not rep.passed
    assert rep.p_side.passed and rep.q_side.passed
    assert abs(rep.cross_norm - RT2) <= 1e-10
    assert rep.direct_residual > 1.0


def test_verify_piecewise_shape_errors():
    frame = blocked_split_frame()
    with pytest.raises(ValueError):
        fs.verify_piecewise(frame, fs.PiecewiseScaling(PI2(), np.ones(3), np.ones(3)))
    with pytest.raises(ValueError):
        fs.PiecewiseScaling(PI2(), np.ones(3), np.ones(4))
    with pytest.raises(ValueError, match=r"projection acts on R\^2 but vectors live in R\^4"):
        fs.verify_piecewise(frame, fs.PiecewiseScaling(fs.canonical_projection([0], 2), np.ones(4), np.ones(4)))


def _random_tuple(rng, n, m):
    frame = fs.Frame(unit_rows(rng, m, n))
    k = int(rng.integers(1, n))
    P = fs.random_projection(n, k, seed=int(rng.integers(0, 2**31)))
    a = rng.standard_normal(m)
    b = rng.standard_normal(m)
    return frame, fs.PiecewiseScaling(P, a, b)


@given(st.integers(0, 10_000))
def test_three_way_equivalence_and_residual_bound(seed):
    rng = np.random.default_rng(seed)
    frame, ps = _random_tuple(rng, int(rng.integers(2, 6)), int(rng.integers(2, 8)))
    rep = fs.verify_piecewise(frame, ps)
    three = rep.p_side.passed and rep.q_side.passed and rep.cross_norm <= rep.tolerance
    assert rep.passed == three
    bound = rep.p_side.residual + rep.q_side.residual + 2.0 * rep.cross_norm
    assert rep.direct_residual <= bound + 1e-12


@given(st.integers(0, 10_000))
def test_row_orthogonality_matches_cross_operator(seed):
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(2, 6)), int(rng.integers(2, 8))
    k = int(rng.integers(1, n))
    frame = fs.Frame(unit_rows(rng, m, n))
    ps = fs.PiecewiseScaling(
        fs.canonical_projection(range(k), n), rng.standard_normal(m), rng.standard_normal(m)
    )
    C = fs.cross_operator(frame, ps)
    W = fs.scaled_family(frame, ps).T  # rows indexed by coordinate
    for j in range(k):
        for ell in range(k, n):
            assert abs(C[j, ell] - W[j] @ W[ell]) <= 1e-12


def test_union_scalability_of_passing_scalings():
    frame = r3_fixture()
    ps = fs.construct_r3(frame)
    assert fs.verify_piecewise(frame, ps).passed
    Y = frame.vectors @ ps.projection.matrix
    Z = frame.vectors - Y
    union = np.vstack([ps.a[:, None] * Y, ps.b[:, None] * Z])
    assert fs.verify_parseval(union).passed
    verdict = fs.solve_standard_scaling(np.vstack([Y, Z]))
    assert verdict.feasible and verdict.residual <= 1e-8


def test_sign_flip_invariance_is_exact():
    frame = r3_fixture()
    ps = fs.construct_r3(frame)
    rep = fs.verify_piecewise(frame, ps)

    flipped_vectors = np.array(frame.vectors)
    flipped_vectors[1] = -flipped_vectors[1]
    a = np.array(ps.a)
    b = np.array(ps.b)
    a[1] = -a[1]
    b[1] = -b[1]
    flipped_rep = fs.verify_piecewise(fs.Frame(flipped_vectors), fs.PiecewiseScaling(ps.projection, a, b))
    assert flipped_rep.direct_residual == rep.direct_residual
    assert flipped_rep.cross_norm == rep.cross_norm
    assert flipped_rep.p_side.residual == rep.p_side.residual
    assert flipped_rep.q_side.residual == rep.q_side.residual


@given(st.integers(0, 10_000))
def test_positive_rescaling_invariance(seed):
    rng = np.random.default_rng(seed)
    frame, ps = _random_tuple(rng, 3, 5)
    rep = fs.verify_piecewise(frame, ps)
    t = rng.uniform(0.4, 2.5, size=5)
    scaled = fs.Frame(t[:, None] * frame.vectors)
    rescaled = fs.PiecewiseScaling(ps.projection, ps.a / t, ps.b / t)
    rep2 = fs.verify_piecewise(scaled, rescaled)
    assert abs(rep2.direct_residual - rep.direct_residual) <= 1e-12
    assert abs(rep2.cross_norm - rep.cross_norm) <= 1e-12


def test_construct_r2_examples():
    P = fs.canonical_projection([0], 2)

    frame = fs.Frame([[1.0, 0.0], [1 / RT2, 1 / RT2]])
    ps = fs.construct_r2(frame, P)
    assert np.allclose(ps.a, [1.0, 0.0], atol=0) and np.allclose(ps.b, [0.0, RT2], atol=1e-15)
    assert np.allclose(fs.scaled_family(frame, ps), np.eye(2), atol=1e-15)

    # the first vector has no projected part, so the roles swap
    onb = fs.Frame([[0.0, 1.0], [1.0, 0.0]])
    ps = fs.construct_r2(onb, P)
    assert np.allclose(ps.a, [0.0, 1.0], atol=0) and np.allclose(ps.b, [1.0, 0.0], atol=0)

    with pytest.raises(ValueError):
        fs.construct_r2(frame, fs.canonical_projection([], 2))
    with pytest.raises(ValueError):
        fs.construct_r2(frame, fs.canonical_projection([0, 1], 2))
    with pytest.raises(ValueError):
        fs.construct_r2(fs.Frame([[1.0, 0.0], [2.0, 0.0]]), P)
    with pytest.raises(ValueError, match=r"construct_r2 needs vectors in R\^2"):
        fs.construct_r2(fs.Frame(np.eye(3)), P)
    with pytest.raises(ValueError, match=r"projection must act on R\^2"):
        fs.construct_r2(frame, fs.canonical_projection([0], 3))


@given(st.integers(0, 10_000))
def test_construct_r2_any_projection(seed):
    rng = np.random.default_rng(seed)
    frame = fs.Frame(unit_rows(rng, int(rng.integers(2, 6)), 2))
    if not frame.is_frame():
        return
    P = fs.random_projection(2, 1, seed=seed)
    rep = fs.verify_piecewise(frame, fs.construct_r2(frame, P))
    assert rep.passed and rep.direct_residual <= 1e-10


def test_construct_from_orthogonal_split_examples():
    pair = tilted_pair_frame(0.1)
    P = fs.canonical_projection([0], 2)
    ps = fs.construct_from_orthogonal_split(pair, P, [0], [1])
    assert abs(ps.a[0] - 10.0) <= 1e-12 and abs(ps.b[1] - RT2) <= 1e-15
    assert fs.verify_piecewise(pair, ps).direct_residual <= 1e-12

    # orthonormal slab lifted by a constant last coordinate plus the last axis vector
    eps = 0.3
    lifted = np.array(
        [[1.0, 0.0, 0.0, eps], [0.0, 1.0, 0.0, eps], [0.0, 0.0, 1.0, eps], [0.0, 0.0, 0.0, 1.0]]
    )
    frame = fs.Frame(lifted)
    P3 = fs.canonical_projection([0, 1, 2], 4)
    ps = fs.construct_from_orthogonal_split(frame, P3, [0, 1, 2], [3])
    assert fs.verify_piecewise(frame, ps).passed

    with pytest.raises(ValueError):  # non-orthogonal projected parts
        fs.construct_from_orthogonal_split(
            fs.Frame([[1.0, 1.0, 0.1], [1.0, 0.0, 0.2], [0.0, 0.0, 1.0]]),
            fs.canonical_projection([0, 1], 3),
            [0, 1],
            [2],
        )
    with pytest.raises(ValueError):  # overlapping index sets cannot keep a_i b_i = 0
        fs.construct_from_orthogonal_split(pair, P, [0], [0])
    with pytest.raises(ValueError):  # wrong p-side cardinality
        fs.construct_from_orthogonal_split(pair, P, [0, 1], [1])
    for args, message in (
        ((pair, P, [0, 0], [1]), r"p_indices contains repeated indices: \[0, 0\]"),
        ((pair, P, [0], [2]), r"q_indices must lie in \[0, 2\), got \[2\]"),
        ((pair, fs.canonical_projection([0], 3), [0], [1]), r"projection acts on R\^3 but vectors live in R\^2"),
        ((frame, P3, [0, 1], [3]), "need exactly 3 p-side vectors to span the range, got 2"),
        ((frame, P3, [0, 1, 2], []), "need exactly 1 q-side vectors to span the complement, got 0"),
        ((fs.Frame(np.eye(2)), P, [1], [0]), "projected p-side vector 0 is numerically zero"),
    ):
        with pytest.raises(ValueError, match=message):
            fs.construct_from_orthogonal_split(*args)


def test_construct_r3_fixture_values():
    detail = fs.construct_r3_detailed(r3_fixture())
    assert detail.indices == (0, 1, 2)
    assert abs(detail.pair_overlap - 0.5) <= 1e-15
    assert abs(detail.mixing_weight - np.sqrt(2.0 / 3.0)) <= 1e-14
    assert np.allclose(detail.mixing_vector, [np.sqrt(1.5), np.sqrt(0.5), 1.0], atol=1e-14)
    assert abs(detail.mixing_vector @ detail.mixing_vector - 3.0) <= 1e-14
    assert detail.norm_identity_residual <= 1e-12
    ps = detail.scaling
    assert np.allclose(ps.b[:2], [RT2, RT2], atol=1e-12)
    assert abs(ps.a[2] - np.sqrt(3.0)) <= 1e-12
    rep = fs.verify_piecewise(r3_fixture(), ps)
    assert rep.passed and rep.direct_residual <= 1e-12


def test_construct_r3_orthogonal_pair_branch():
    # overlap 0 means no mixing: the projection direction is the complement axis
    frame = fs.Frame(np.eye(3))
    detail = fs.construct_r3_detailed(frame)
    assert detail.mixing_weight == 0.0
    assert np.allclose(np.abs(detail.mixing_vector), [0.0, 0.0, 1.0], atol=1e-15)
    assert np.allclose(detail.scaling.b[:2], [1.0, 1.0], atol=1e-15)
    assert fs.verify_piecewise(frame, detail.scaling).passed


def test_construct_r3_extra_vectors_get_zero_constants():
    rng = np.random.default_rng(5)
    base = r3_fixture().vectors
    extra = unit_rows(rng, 10, 3)
    frame = fs.Frame(np.vstack([base, extra]))
    ps = fs.construct_r3(frame)
    assert np.count_nonzero(ps.a) == 1 and np.count_nonzero(ps.b) == 2
    rep = fs.verify_piecewise(frame, ps)
    assert rep.passed and rep.direct_residual <= 1e-10


def test_construct_r3_rescales_to_original_norms():
    rng = np.random.default_rng(6)
    t = rng.uniform(0.5, 3.0, size=3)
    frame = fs.Frame(t[:, None] * r3_fixture().vectors)
    ps = fs.construct_r3(frame)
    assert fs.verify_piecewise(frame, ps).passed


def test_construct_r3_rejects_non_spanning():
    with pytest.raises(ValueError):
        fs.construct_r3(fs.Frame([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]]))
    with pytest.raises(ValueError, match=r"construct_r3 needs vectors in R\^3"):
        fs.construct_r3(fs.Frame(np.eye(2)))
    with pytest.raises(ValueError, match="frame must contain at least three vectors"):
        fs.construct_r3(fs.Frame([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
    # a pair at distance h ~ 1e-15 leaves sigma_3 <= h / sqrt(2), so the rank check rejects it
    near = np.array([1.0, 1e-15, 0.0])
    with pytest.raises(ValueError, match=r"frame must span R\^3"):
        fs.construct_r3(fs.Frame([[1.0, 0.0, 0.0], near / np.linalg.norm(near), [0.0, 0.0, 1.0]]))


def test_construct_r4_special_errors():
    frame = fs.Frame(np.eye(4))
    with pytest.raises(ValueError):  # <x1, x4> = 0
        fs.construct_r4_special(frame, [0, 1, 2, 3])
    dependent = fs.Frame(
        [[0.5, 0.5, 0.5, 0.5], [0.5, 0.5, 0.5, 0.5], [0.0, 0.0, 1.0, 0.0], [1.0, 0.0, 0.0, 0.0]]
    )
    with pytest.raises(ValueError):
        fs.construct_r4_special(dependent, [0, 1, 2, 3])
    with pytest.raises(ValueError, match=r"construct_r4_special needs vectors in R\^4"):
        fs.construct_r4_special(fs.Frame(np.vstack([np.eye(3), np.ones(3)])), [0, 1, 2, 3])
    with pytest.raises(ValueError, match="need exactly 4 indices, got 3"):
        fs.construct_r4_special(frame, [0, 1, 2])
    tilted = fs.Frame([[1.0, 0.0, 0.0, 1.0], [0.0, 1.0, 0.0, 1.0], [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
    with pytest.raises(ValueError, match="need <x2, x4> = <x3, x4> = 0"):
        fs.construct_r4_special(tilted, [0, 1, 2, 3])
    # independent quadruples within 1e-5 of special-position failures,
    # which a tolerance of 1e-4 cannot tell apart from them
    d = 1e-5
    near_x2_x4 = fs.Frame([[0.6, d, 0.0, 0.8], [1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
    with pytest.raises(ValueError, match=r"x1 lies in span\{x2, x4\}"):
        fs.construct_r4_special(near_x2_x4, [0, 1, 2, 3], tol=1e-4)
    x1 = np.array([0.3, 0.4, 0.5, 0.6])
    x3 = np.array([0.5, 0.7 * x1[1], 0.7 * x1[2], 0.0]) + d * np.array([0.0, -x1[2], x1[1], 0.0])
    near_x1_x3_u = fs.Frame([x1, [1.0, 0.0, 0.0, 0.0], x3, [0.0, 0.0, 0.0, 1.0]])
    with pytest.raises(ValueError, match=r"x2 lies in span\{x1, x3, u\}"):
        fs.construct_r4_special(near_x1_x3_u, [0, 1, 2, 3], tol=1e-4)


def test_search_routes():
    rng = np.random.default_rng(77)

    # route: any spanning family in R^3 succeeds
    frame3 = fs.Frame(unit_rows(rng, 5, 3))
    found = fs.search_piecewise(frame3, seed=0)
    assert found is not None and fs.verify_piecewise(frame3, found).passed

    # rank restriction honored through the complement form
    found2 = fs.search_piecewise(frame3, ranks={2}, seed=0)
    assert found2 is not None and found2.projection.rank == 2
    assert fs.verify_piecewise(frame3, found2).passed

    # route: standard scalability gives equal constants
    union = fs.Frame(np.vstack([random_onb_rows(rng, 4), random_onb_rows(rng, 4)]))
    ps = fs.search_piecewise(union, seed=0)
    assert ps is not None and np.array_equal(ps.a, ps.b)
    assert fs.verify_piecewise(union, ps).passed

    # clustered families in R^4 never admit a rank-2 projection
    clustered = clustered_unit_frame(rng, 4, 6, 0.02)
    assert fs.search_piecewise(clustered, ranks={2}, budget=50, seed=0) is None

    # non-spanning input is a miss, not an error
    assert fs.search_piecewise(fs.Frame([[1.0, 0.0], [2.0, 0.0]])) is None

    with pytest.raises(ValueError):
        fs.search_piecewise(frame3, budget=0)
    with pytest.raises(ValueError):
        fs.search_piecewise(frame3, seed=-1)


def test_search_random_route_finds_split_in_r4():
    rng = np.random.default_rng(123)
    # two orthonormal pairs in complementary coordinate planes, slightly mixed
    base = np.array(
        [
            [1.0, 0.0, 0.2, 0.0],
            [0.0, 1.0, 0.0, 0.1],
            [0.1, 0.0, 1.0, 0.0],
            [0.0, 0.2, 0.0, 1.0],
            [0.3, 0.4, 0.5, 0.6],
        ]
    )
    frame = fs.Frame(base)
    assert not fs.solve_standard_scaling(frame.vectors).feasible
    ps = fs.search_piecewise(frame, budget=300, seed=4)
    if ps is not None:
        assert fs.verify_piecewise(frame, ps).passed
        assert np.abs(ps.a * ps.b).max() == 0.0

    # determinism of the whole search
    again = fs.search_piecewise(frame, budget=300, seed=4)
    if ps is None:
        assert again is None
    else:
        assert again is not None
        assert np.array_equal(ps.a, again.a) and np.array_equal(ps.b, again.b)
        assert np.array_equal(ps.projection.matrix, again.projection.matrix)


def test_search_falls_through_when_the_r3_constructor_rejects(monkeypatch):
    # a spanning triple whose first two vectors are 1e-8 apart: the third
    # vector hides from both mixings of construct_r3; and a spanning
    # pair with no row outside tol of P = diag(1, 0): construct_r2 calls it
    # numerically degenerate.  The search must go on to a later route
    # instead of giving up
    t = 1e-8
    triple = fs.Frame([[1.0, 0.0, 0.0], [np.cos(t), np.sin(t), 0.0], [0.0, 0.0, 1.0]])
    pair = fs.Frame([[1.0, 0.0], [1.0, 1e-9]])
    later = []
    for name in ("_orthogonal_split_route", "_surviving_candidates"):
        route = getattr(search, name)
        monkeypatch.setattr(search, name, lambda *args, name=name, route=route: later.append(name) or route(*args))
    for frame, construct, match in (
        (triple, fs.construct_r3, "numerically degenerate"),
        (pair, lambda f: fs.construct_r2(f, fs.canonical_projection([0], 2)), "numerically degenerate"),
    ):
        assert frame.is_frame()
        with pytest.raises(ValueError, match=match):
            construct(frame)
        later.clear()
        found = fs.search_piecewise(frame, budget=50, seed=0)
        assert later, "the search stopped at the constructor"
        assert found is None or fs.verify_piecewise(frame, found).passed


def test_search_falls_through_when_the_r3_constructor_fails_verification(monkeypatch):
    # a candidate that fails verify_piecewise, from the constructor or from
    # the route, is a miss of that candidate, like a ValueError, so the
    # search must try the later candidates; search_piecewise verifies each
    # candidate once, up to the hit
    frame = random_unit_frame(np.random.default_rng(8), 3, 6)
    assert not fs.solve_standard_scaling(frame.vectors).feasible
    failing = fs.PiecewiseScaling(fs.canonical_projection([0], 3), np.zeros(6), np.zeros(6))
    failing_split = fs.PiecewiseScaling(fs.canonical_projection([1], 3), np.zeros(6), np.zeros(6))
    assert not fs.verify_piecewise(frame, failing).passed
    assert not fs.verify_piecewise(frame, failing_split).passed
    monkeypatch.setattr(pw, "construct_r3", lambda *args: failing)
    route, stream, verify = search._orthogonal_split_route, pw._candidate_scalings, pw.verify_piecewise
    for route_fails_first in (False, True):
        later, yielded, verified = [], [], []

        def patched_route(*args):
            later.append(args)
            if route_fails_first:
                yield failing_split
            yield from route(*args)

        with monkeypatch.context() as patch:
            patch.setattr(search, "_orthogonal_split_route", patched_route)
            patch.setattr(pw, "_candidate_scalings", lambda *args: (yielded.append(ps) or ps for ps in stream(*args)))
            patch.setattr(pw, "verify_piecewise", lambda *args: verified.append(args[1]) or verify(*args))
            found = fs.search_piecewise(frame, seed=0)
        assert later, "the search stopped at the failing constructor result"
        assert found is not None and verify(frame, found).passed
        assert [id(ps) for ps in verified] == [id(ps) for ps in yielded]
        assert yielded[0] is failing and found is yielded[-1]
        assert (yielded[1] is failing_split) == route_fails_first


def test_construct_r3_scales_every_clustered_frame_down_to_spread_1e_7():
    # the paper scales every spanning frame in R^3; 1 - overlap taken from
    # the pair's distance keeps the construction exact on close pairs
    rng = np.random.default_rng(11)
    for spread in np.logspace(-2, -7, 6):
        for _ in range(40):
            frame = clustered_unit_frame(rng, 3, int(rng.integers(4, 11)), spread)
            assert fs.frame_bounds(frame).spanning
            assert fs.verify_piecewise(frame, fs.construct_r3(frame)).passed


def test_clustered_r3_frame_is_scaled_not_an_internal_error():
    # the pair overlap is 1 - 4.2e-9, so u^T u is about 4.8e8; an absolute
    # norm-identity check fails on rounding alone, a relative one does not
    frame = clustered_unit_frame(np.random.default_rng(34), 3, 5, 5.6e-5)
    detail = fs.construct_r3_detailed(frame)
    assert detail.mixing_vector @ detail.mixing_vector > 1e8
    assert detail.norm_identity_residual <= 1e-14
    found = fs.search_piecewise(frame, seed=0)
    rep = fs.verify_piecewise(frame, found)
    assert rep.passed and rep.direct_residual <= 5e-9


@pytest.mark.parametrize("exponent", [-565, 565])
def test_search_and_constructors_scale_power_of_two_multiples(exponent):
    # the norms underflow to 0 at 2^-565 and the fourth powers overflow at
    # 2^565; every result must verify on the frame as given
    R2 = np.ldexp(open_quadrant_frame(np.random.default_rng(35), 4).vectors, exponent)
    R3 = np.ldexp(r3_fixture().vectors, exponent)
    for X in (R2, R3, np.ldexp(np.eye(3), exponent)):
        found = fs.search_piecewise(X, seed=0)
        assert found is not None and fs.verify_piecewise(X, found).passed
    assert fs.verify_piecewise(R2, fs.construct_r2(R2, fs.canonical_projection([0], 2))).passed
    assert fs.verify_piecewise(R3, fs.construct_r3(R3)).passed
    E = np.ldexp(np.eye(2), exponent)
    assert fs.verify_piecewise(E, fs.construct_from_orthogonal_split(E, fs.canonical_projection([0], 2), [0], [1])).passed
    # r4special on the fixture times 2 and 2^exponent keeps the fixture's
    # projection and divides its constants by the factor
    F = r4_special_fixture().vectors
    want = fs.construct_r4_special(F, [0, 1, 2, 3])
    for factor in (2.0, np.ldexp(1.0, exponent)):
        got = fs.construct_r4_special(factor * F, [0, 1, 2, 3])
        assert np.array_equal(got.projection.matrix, want.projection.matrix)
        assert np.array_equal(got.a, want.a / factor) and np.array_equal(got.b, want.b / factor)
        assert fs.verify_piecewise(factor * F, got).passed
    # row factors 2^e with e in [-64, 64] and signs, drawn afresh per
    # exponent, keep a found search found; with the row order changed too,
    # the constructors verify on the frame as given.  The search is not
    # given new row orders: its pivoted selection breaks ties of equal
    # unit norms by row index, so an order can change its route
    rng = np.random.default_rng(abs(exponent) + (exponent < 0))
    for X in magnitude_gate_frames(rng):
        if fs.search_piecewise(X, seed=0, budget=20) is not None:
            Z = row_transform(rng, X, permute=False)[0]
            found = fs.search_piecewise(Z, seed=0, budget=20)
            assert found is not None and fs.verify_piecewise(Z, found).passed, X
        Y, order, _ = row_transform(rng, X)
        n = X.shape[1]
        if n == 2:
            assert fs.verify_piecewise(Y, fs.construct_r2(Y, fs.canonical_projection([0], 2))).passed
        if n == 3:
            assert fs.verify_piecewise(Y, fs.construct_r3(Y)).passed
        if X.shape == (n, n) and np.array_equal(X, X[0, 0] * np.eye(n)):
            # a basis splits under any coordinate projection
            where = np.argsort(order)
            ps = fs.construct_from_orthogonal_split(Y, fs.canonical_projection([0], n), where[:1], where[1:])
            assert fs.verify_piecewise(Y, ps).passed
    # and r4special on row factors, signs and a new order of the scaled fixture
    Y, order, factors = row_transform(rng, np.ldexp(F, exponent))
    got = fs.construct_r4_special(Y, np.argsort(order))
    assert fs.verify_piecewise(Y, got).passed
    want_a, want_b = (np.ldexp(c, -exponent)[order] / np.abs(factors) for c in (want.a, want.b))
    assert np.allclose(got.a, want_a, rtol=1e-14, atol=0.0) and np.allclose(got.b, want_b, rtol=1e-14, atol=0.0)


def test_orthogonal_split_of_a_tiny_basis():
    # the norms of I_2 * 1e-170 underflow in a square; the split is built
    # on the unit rows, so it is valid and its constants are the reciprocals
    X = 1e-170 * np.eye(2)
    ps = fs.construct_from_orthogonal_split(X, fs.canonical_projection([0], 2), [0], [1])
    assert ps.a.tolist() == [1e170, 0.0] and ps.b.tolist() == [0.0, 1e170]
    assert fs.verify_piecewise(X, ps).passed


def _same_scaling(got, want) -> bool:
    return (
        np.array_equal(got.a, want.a)
        and np.array_equal(got.b, want.b)
        and np.array_equal(got.projection.matrix, want.projection.matrix)
    )


def test_constructors_return_the_orthogonal_split_of_their_choice():
    # every constructor picks P, S and T, and the constants are exactly
    # what construct_from_orthogonal_split builds from them
    rng = np.random.default_rng(13)
    for _ in range(20):
        frame = random_unit_frame(rng, 2, int(rng.integers(2, 6)))
        for P in [fs.canonical_projection([0], 2), fs.canonical_projection([1], 2)] + [
            fs.random_projection(2, 1, seed=int(rng.integers(0, 2**31))) for _ in range(3)
        ]:
            ps = fs.construct_r2(frame, P)
            # the first i with a visible projected part, then the first j != i with a visible complement part
            Y = frame.vectors @ P.matrix
            xn = np.linalg.norm(frame.vectors, axis=1)
            i = np.flatnonzero(np.linalg.norm(Y, axis=1) > 1e-8 * xn)[0]
            j = [j for j in np.flatnonzero(np.linalg.norm(frame.vectors - Y, axis=1) > 1e-8 * xn) if j != i][0]
            assert np.flatnonzero(ps.a).tolist() == [i] and np.flatnonzero(ps.b).tolist() == [j]
            assert _same_scaling(ps, fs.construct_from_orthogonal_split(frame, P, [i], [j]))

    frames = [r3_fixture()] + [random_unit_frame(rng, 3, int(rng.integers(3, 9))) for _ in range(30)]
    for frame in frames:
        detail = fs.construct_r3_detailed(frame)
        sel = list(detail.indices)
        want = fs.construct_from_orthogonal_split(frame, detail.scaling.projection, sel[2:], sel[:2])
        assert _same_scaling(detail.scaling, want)
        assert np.flatnonzero(detail.scaling.a).tolist() == sel[2:]
        assert np.flatnonzero(detail.scaling.b).tolist() == sorted(sel[:2])

    frame = r4_special_fixture()
    ps = fs.construct_r4_special(frame, [0, 1, 2, 3])
    assert _same_scaling(ps, fs.construct_from_orthogonal_split(frame, ps.projection, [0, 1], [2, 3]))


def test_complement_form_swaps_sides():
    frame = r3_fixture()
    ps = fs.construct_r3(frame)
    swapped = _complement_form(ps)
    assert swapped.projection.rank == 2
    rep = fs.verify_piecewise(frame, swapped)
    assert rep.passed


def test_verify_piecewise_sides_match_verify_parseval():
    rng = np.random.default_rng(31)
    for n in (3, 4, 5):
        frame = random_unit_frame(rng, n, 2 * n)
        for k in range(1, n):
            P = fs.random_projection(n, k, seed=int(rng.integers(1000)))
            ps = fs.PiecewiseScaling(P, rng.uniform(0.5, 1.5, 2 * n), rng.uniform(0.5, 1.5, 2 * n))
            rep = fs.verify_piecewise(frame, ps)
            Y = frame.vectors @ P.matrix
            assert rep.p_side == fs.verify_parseval(ps.a[:, None] * Y, target=P)
            assert rep.q_side == fs.verify_parseval(ps.b[:, None] * (frame.vectors - Y), target=fs.complement(P))
