import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import framescale as fs
from framescale import obstructions as ob
from framescale.frames import _shifted_frame
from helpers import (
    clustered_unit_frame,
    r3_fixture,
    reference_max_pair_distance,
    tilted_pair_frame,
    unit_rows,
)

RT2 = np.sqrt(2.0)


def test_pairwise_closeness_examples():
    assert abs(fs.pairwise_closeness(np.eye(2)) - RT2) <= 1e-15
    x = np.array([[0.6, 0.8], [0.6, 0.8]])
    assert fs.pairwise_closeness(x) == 0.0
    with pytest.raises(ValueError):
        fs.pairwise_closeness([[1.0, 0.0]])


def test_pairwise_closeness_perturbation_bound():
    rng = np.random.default_rng(8)
    e1 = np.zeros(4)
    e1[0] = 1.0
    rows = []
    for _ in range(6):
        v = rng.standard_normal(4)
        v -= (v @ e1) * e1
        v /= np.linalg.norm(v)
        w = e1 + 0.01 * v
        rows.append(w / np.linalg.norm(w))
    # triangle inequality: every vector sits within ~0.01 of e1
    assert fs.pairwise_closeness(np.array(rows)) <= 0.02


_DISTANCE_SHAPES = ((2, 2), (2, 7), (3, 3), (17, 4), (60, 8), (150, 13), (300, 20))


def _distance_cases(rng):
    """(label, X) pairs covering the kernel's screen, ties, overflow and degenerate inputs."""
    for m, n in _DISTANCE_SHAPES:
        yield "random", unit_rows(rng, m, n)
        yield "column-major", np.asfortranarray(unit_rows(rng, m, n))
        center = unit_rows(rng, 1, n)[0]
        for spread in (1e-3, 1e-8):
            X = center + spread * rng.standard_normal((m, n))
            yield f"clustered {spread:g}", X / np.linalg.norm(X, axis=1, keepdims=True)
        yield "non-unit", unit_rows(rng, m, n) * rng.uniform(0.5, 2.0, (m, 1))
        base = unit_rows(rng, max(1, m // 3), n)
        yield "duplicates", base[rng.integers(0, base.shape[0], m)]
        yield "identical", np.tile(center, (m, 1))
    # drawn after the cases above, so those keep their values
    for m, n in _DISTANCE_SHAPES:
        # finite rows whose squared norms and distances overflow
        yield "huge", 1e200 * unit_rows(rng, m, n)
        # an un-normalized cluster far from the origin
        yield "far-offset", 1e6 * unit_rows(rng, 1, n)[0] + 1e-3 * rng.standard_normal((m, n))
        # distinct rows and their negatives: every row ties at the top
        U = unit_rows(rng, max(1, m // 2), n)
        yield "antipodal", np.vstack([U, -U])
    # the farthest pair, rows 41 and 42, has the finite d^2 = 17.6e307, but
    # its screen term -2 p^2 = -18.4e307 overflows, while rows 43 and 44
    # (d^2 = 16e307) screen without overflow
    s = np.sqrt(1e307)
    p, q, c, z = s * np.sqrt([9.2, 4.4, 8.94, 4.0])
    far = [[p, q, 0.0], [p, -q, 0.0], [c, 0.0, z], [c, 0.0, -z]]
    yield "cancelling", np.vstack([np.zeros(3), 0.01 * s * rng.standard_normal((40, 3)), far])
    # the cases below have m > 256 rows, so the screen's float32 pass runs;
    # on unit rows in R^2 nearly every row survives it
    yield "tall R^2", unit_rows(rng, 1500, 2)
    # two pairs whose d^2 differ by 1e-10 relative, far below float32
    # resolution: the later pair wins
    near = np.vstack([0.1 * unit_rows(rng, 296, 3), [[1.0, 0, 0], [-1.0, 0, 0]], [[0, 1.0, 0], [0, -1.0, 0]]])
    near[-2:] *= 1.0 + 5e-11
    yield "near ties", near
    yield "far cluster", 1e3 * unit_rows(rng, 1, 3)[0] + 1e-7 * unit_rows(rng, 400, 3)
    # inside _ROW_WINDOW, so not shifted, but outside the float32 range
    yield "2^230", np.ldexp(unit_rows(rng, 300, 4), 230)
    yield "2^-230", np.ldexp(unit_rows(rng, 300, 4), -230)
    # differences whose squares underflow in double: every d^2 reads 0, so
    # the float32 pass, which would still tell them apart, must not run
    yield "underflowing", np.column_stack([np.full(300, 2.0**-240), np.ldexp(rng.standard_normal(300), -600)])


@pytest.mark.parametrize("cells", [None, 64])
def test_max_pair_distance_is_bit_identical_to_broadcast(monkeypatch, cells):
    if cells is not None:
        # tiny blocks: every input takes the screen in many row blocks and
        # re-checks rows one block of a few rows at a time
        monkeypatch.setattr(ob, "_BLOCK_CELLS", cells)
        monkeypatch.setattr(ob, "_DIRECT_CELLS", 0)
    rng = np.random.default_rng(31)
    for label, X in _distance_cases(rng):
        # the broadcast on the shifted frame, scaled back; where the
        # broadcast on X itself stays finite, the two are equal
        s, Y = _shifted_frame(X)
        dist, pair = reference_max_pair_distance(Y)
        expected = (float(np.ldexp(dist, -s)), pair)
        with np.errstate(over="ignore", invalid="ignore"):
            direct = reference_max_pair_distance(X)
        assert expected == direct or not np.isfinite(direct[0]), (label, X.shape)
        assert ob._max_pair_distance(X) == expected, (label, X.shape)
        report = fs.closeness_obstruction(X)
        assert report.epsilon == expected[0] and report.detail["max_pair"] == expected[1]
        assert fs.pairwise_closeness(X) == expected[0]
        if label == "identical":
            assert expected == (0.0, (0, 0))
        elif label == "huge":
            # the broadcast on X overflows; the distance itself is a double
            assert np.isinf(direct[0]) and np.isfinite(expected[0])
            assert expected[0] == pytest.approx(1e200 * reference_max_pair_distance(X / 1e200)[0], rel=1e-14)
        elif label == "cancelling":
            assert expected[1] == (41, 42) and np.isfinite(expected[0])
        elif label == "far-offset":
            # centring keeps delta relative to the cluster, not to its 1e6 norms
            assert ob._screened_rows(X).size <= 2
        elif label == "antipodal":
            m = X.shape[0]
            assert ob._screened_rows(X).size == m
            # distinct rows: the exact pass keeps every one, in any block size
            assert ob._exact_rows(X, 1).size == m
        elif label == "tall R^2":
            assert ob._float32_rows(X - X[0], 1).size > 0.9 * X.shape[0]
        elif label == "near ties":
            assert expected[1] == (298, 299)
        elif label.startswith("2^"):
            assert s == 0
        elif label == "underflowing":
            assert expected == (0.0, (0, 0))


@pytest.mark.parametrize("spread", [None, 1e-9])
def test_max_pair_distance_spanning_several_row_blocks(spread):
    rng = np.random.default_rng(32)
    X = unit_rows(rng, 1100, 3)
    if spread is not None:
        X = X[0] + spread * X
    assert X.shape[0] > ob._BLOCK_CELLS // X.shape[0]  # the screen needs two blocks
    assert ob._max_pair_distance(X) == reference_max_pair_distance(X)
    # only the two rows of the farthest pair are re-checked, also in a
    # cluster far smaller than the norms, since the screen centres the rows
    assert ob._screened_rows(X).size <= 2


def _repeated_rows(rng, label, m, n):
    c = unit_rows(rng, 1, n)[0]
    if label == "identical":
        return np.tile(c, (m, 1))
    return np.vstack([np.tile(c, (m // 2, 1)), np.tile(-c, (m - m // 2, 1))])


@pytest.mark.parametrize("label", ["identical", "antipodal"])
def test_max_pair_distance_collapses_repeated_rows(label):
    rng = np.random.default_rng(34)
    # 300 rows in R^50 already re-check more rows than one block holds
    X = _repeated_rows(rng, label, 300, 50)
    assert X.shape[0] > ob._BLOCK_CELLS // X.size
    assert ob._max_pair_distance(X) == reference_max_pair_distance(X)
    # at 2000 rows the broadcast reference would take 1.6 GB per temporary,
    # so it runs on the distinct rows, whose first occurrences are 0 and 1000
    X = _repeated_rows(rng, label, 2000, 50)
    rows = ob._exact_rows(X, max(1, ob._BLOCK_CELLS // X.size))
    assert rows.size <= 2
    eps, (i, j) = reference_max_pair_distance(X[[0, 1000]])
    assert ob._max_pair_distance(X) == (eps, ((0, 1000)[i], (0, 1000)[j]))
    assert fs.closeness_obstruction(X).detail["max_pair"] == ((0, 1000)[i], (0, 1000)[j])


def _peak_bytes(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_closeness_obstruction_memory_is_bounded():
    rng = np.random.default_rng(33)
    # the full (m, m, n) broadcast would take 1.6 GB per temporary
    assert _peak_bytes(fs.closeness_obstruction, unit_rows(rng, 2000, 50)) < 64 * 2**20
    # identical rows all tie in the screen (one (m, m, n) temporary would
    # take 92 MB); the exact pass then re-checks one copy
    X = np.tile(unit_rows(rng, 1, 8), (1200, 1))
    assert ob._screened_rows(X).size == X.shape[0]
    assert _peak_bytes(ob._max_pair_distance, X) < 64 * 2**20


def test_dichotomy_repeated_vector():
    rng = np.random.default_rng(9)
    x = rng.standard_normal(4)
    x /= np.linalg.norm(x)
    frame = fs.Frame([x, x])
    for seed in range(10):
        P = fs.random_projection(4, 2, seed=seed)
        assert fs.dichotomy_check(frame, P, 1e-6) in ("p-side", "q-side", "both")


def test_dichotomy_clustered_frames_never_fail():
    rng = np.random.default_rng(10)
    frame = clustered_unit_frame(rng, 4, 6, 0.02)
    assert fs.pairwise_closeness(frame) <= 0.1
    for seed in range(100):
        P = fs.random_projection(4, 2, seed=seed)
        assert fs.dichotomy_check(frame, P, 0.1) in ("p-side", "q-side", "both")


def test_dichotomy_hypothesis_gates():
    rng = np.random.default_rng(11)
    frame = clustered_unit_frame(rng, 4, 5, 0.02)
    P = fs.random_projection(4, 2, seed=0)
    with pytest.raises(ValueError):
        fs.dichotomy_check(frame, P, 1.0)
    with pytest.raises(ValueError):
        fs.dichotomy_check(frame, P, 1e-9)  # distances exceed epsilon
    with pytest.raises(ValueError):
        fs.dichotomy_check(fs.Frame(2.0 * frame.vectors), P, 0.1)


def test_projected_overlap_lower_bound_property():
    # max(<Px, Py>, <(I-P)x, (I-P)y>) >= 1/2 - eps for close unit pairs
    rng = np.random.default_rng(12)
    eps = 0.2
    count = 0
    for block in range(100):
        n = int(rng.integers(2, 6))
        k = int(rng.integers(1, n))
        P = fs.random_projection(n, k, seed=1000 + block)
        for _ in range(100):
            x = rng.standard_normal(n)
            x /= np.linalg.norm(x)
            y = x + rng.uniform(0.0, eps * 0.99) * unit_rows(rng, 1, n)[0]
            y /= np.linalg.norm(y)
            if np.linalg.norm(x - y) >= eps:
                continue
            px, py = P.matrix @ x, P.matrix @ y
            qx, qy = x - px, y - py
            assert max(px @ py, qx @ qy) >= 0.5 - eps - 1e-12
            count += 1
    assert count >= 9000


def test_closeness_obstruction_examples():
    rng = np.random.default_rng(13)

    f4 = clustered_unit_frame(rng, 4, 6, 0.02, max_closeness=0.1)
    assert fs.pairwise_closeness(f4) < 0.125
    report = fs.closeness_obstruction(f4)
    assert report.theorem == "cor-4.4" and set(report.applicable_ranks) == {2}

    f3 = clustered_unit_frame(rng, 3, 5, 0.01)
    report3 = fs.closeness_obstruction(f3)
    assert report3.applicable_ranks == frozenset() and report3.theorem == "none"

    f6 = clustered_unit_frame(rng, 6, 8, 0.002, max_closeness=0.8 / 64)
    assert fs.pairwise_closeness(f6) < 1 / 64
    report6 = fs.closeness_obstruction(f6)
    assert set(report6.applicable_ranks) == {2, 3, 4}
    assert report6.theorem == "rank-k-1/64"

    # strict thresholds: a wide cluster reports nothing
    wide = fs.closeness_obstruction(fs.Frame(np.eye(4)))
    assert wide.theorem == "none" and not wide.applicable_ranks

    # non-unit frames are never certified
    stretched = fs.closeness_obstruction(fs.Frame(1.5 * f4.vectors))
    assert stretched.theorem == "none" and not stretched.applicable_ranks


def test_certificate_soundness_small_sample():
    rng = np.random.default_rng(14)
    for _ in range(3):
        frame = clustered_unit_frame(rng, 4, int(rng.integers(5, 8)), 0.02, max_closeness=0.1)
        report = fs.closeness_obstruction(frame)
        assert 2 in report.applicable_ranks
        assert fs.search_piecewise(frame, ranks={2}, budget=200, seed=0) is None


def test_normalization_gap_examples():
    x = np.array([0.5, 0.0])
    lhs, bound = fs.normalization_gap_bound(x, x)
    assert lhs == 0.0 and bound == 0.0

    lhs, bound = fs.normalization_gap_bound([1.0, 0.0], [0.9, 0.05])
    assert lhs <= bound

    with pytest.raises(ValueError):
        fs.normalization_gap_bound([0.2, 0.0], [0.3, 0.0])
    with pytest.raises(ValueError):
        fs.normalization_gap_bound([1.1, 0.0], [0.9, 0.0])


def test_normalization_gap_property():
    rng = np.random.default_rng(15)
    checked = 0
    for _ in range(10_000):
        n = int(rng.integers(1, 5))
        x = rng.standard_normal(n)
        x *= rng.uniform(0.25, 1.0) / np.linalg.norm(x)
        step = rng.standard_normal(n)
        y = x + rng.uniform(0.0, 1.0 / 16.0) * step / np.linalg.norm(step)
        ny = np.linalg.norm(y)
        if not 0.25 <= ny <= 1.0:
            continue
        lhs, bound = fs.normalization_gap_bound(x, y)
        assert lhs <= bound + 1e-12
        checked += 1
    assert checked >= 5000


def test_check_constant_bounds_standard():
    onb = fs.Frame(np.eye(3))
    verdict = fs.solve_standard_scaling(onb.vectors)
    report = fs.check_constant_bounds(onb, verdict.scaling)
    assert report.passed
    assert report.detail["sum_constants_sq"][1] == 0.0
    assert report.detail["unit_constant_orthogonality"][0]

    with pytest.raises(ValueError):  # non-verifying scaling is a precondition failure
        fake = fs.StandardScaling(np.array([2.0, 1.0, 1.0]), 0.0, 3)
        fs.check_constant_bounds(onb, fake)


def test_check_constant_bounds_unit_constants_ignore_zero_support():
    # one basis plus a redundant diagonal vector: the solver keeps the basis
    # with unit constants and drops the extra vector; the extra vector is
    # not orthogonal to the basis, but its constant is zero
    frame = fs.Frame([[1.0, 0.0], [0.0, 1.0], [1 / RT2, 1 / RT2]])
    verdict = fs.solve_standard_scaling(frame.vectors)
    assert verdict.feasible
    assert np.allclose(verdict.scaling.constants, [1.0, 1.0, 0.0], atol=1e-10)
    report = fs.check_constant_bounds(frame, verdict.scaling)
    assert report.passed, report.detail


def test_check_constant_bounds_piecewise_examples():
    pair = tilted_pair_frame(0.1)
    ps = fs.PiecewiseScaling(
        fs.canonical_projection([0], 2), np.array([10.0, 0.0]), np.array([0.0, RT2])
    )
    report = fs.check_constant_bounds(pair, ps)
    assert report.passed
    # sum of indexwise maxima is 100 + 2, far above n = 2
    assert float(np.maximum(ps.a**2, ps.b**2).sum()) == 102.0

    frame = r3_fixture()
    built = fs.construct_r3(frame)
    assert fs.check_constant_bounds(frame, built).passed

    bad = fs.PiecewiseScaling(fs.canonical_projection([0], 2), np.array([1.0, 1.0]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        fs.check_constant_bounds(pair, bad)


@given(st.integers(0, 10_000))
def test_constant_bounds_on_generated_scalings(seed):
    rng = np.random.default_rng(seed)
    frame = fs.Frame(unit_rows(rng, int(rng.integers(3, 8)), 3))
    if not frame.is_frame():
        return
    ps = fs.construct_r3(frame)
    assert fs.check_constant_bounds(frame, ps).passed
