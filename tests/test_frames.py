import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import framescale as fs
from helpers import ill_conditioned_frame, mercedes_frame, random_unit_frame, tilted_pair_frame

RT2 = np.sqrt(2.0)


def test_frame_stores_rows_and_rejects_nan():
    f = fs.Frame([[1.0, 0.0], [0.0, 1.0]], labels=("a", "b"))
    assert f.size == 2 and f.dim == 2
    assert f.synthesis.shape == (2, 2)
    assert not f.vectors.flags.writeable
    with pytest.raises(ValueError):
        fs.Frame([[np.nan, 0.0]])
    with pytest.raises(ValueError):
        fs.Frame([[1.0, np.inf]])
    with pytest.raises(ValueError):
        fs.Frame([[1.0, 0.0]], labels=("a", "b"))


def test_frame_operator_examples():
    assert np.array_equal(fs.frame_operator([[1.0, 0.0], [0.0, 1.0]]), np.eye(2))
    # direct outer-product summation by hand
    f = fs.Frame([[1.0, 0.0], [0.0, 1.0], [1 / RT2, 1 / RT2]])
    assert np.allclose(fs.frame_operator(f), [[1.5, 0.5], [0.5, 1.5]], atol=1e-15)
    assert np.allclose(
        fs.frame_operator([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), np.diag([2.0, 1.0]), atol=0
    )


def test_frame_operator_mismatched_vectors():
    with pytest.raises(ValueError):
        fs.frame_operator([[1.0, 0.0], [0.0, 1.0, 0.0]])


@given(st.integers(0, 10_000))
def test_frame_operator_symmetric_psd(seed):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((rng.integers(1, 8), rng.integers(1, 6)))
    S = fs.frame_operator(X)
    assert np.linalg.norm(S - S.T, "fro") <= 1e-14
    lam = np.linalg.eigvalsh(S)
    assert lam[0] >= -1e-12 * max(lam[-1], 1.0)


def test_frame_bounds_examples():
    # eigenvalues of [[1.5, .5], [.5, 1.5]] are 1 and 2
    f = fs.Frame([[1.0, 0.0], [0.0, 1.0], [1 / RT2, 1 / RT2]])
    fb = fs.frame_bounds(f)
    assert fb.spanning
    assert abs(fb.lower - 1.0) < 1e-12 and abs(fb.upper - 2.0) < 1e-12
    assert abs(fb.condition_number - 2.0) < 1e-12

    parseval = fs.canonical_parseval(f)
    pb = fs.frame_bounds(parseval)
    assert abs(pb.lower - 1.0) < 1e-12 and abs(pb.upper - 1.0) < 1e-12

    deficient = fs.frame_bounds([[1.0, 0.0]])
    assert deficient.lower == 0.0 and not deficient.spanning
    assert deficient.condition_number == np.inf

    # near the largest double an unshifted SVD overflows; is_frame and
    # frame_bounds ask the same rule of the same shifted frame
    huge = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1e-3]]) * 1.7e308
    assert fs.Frame(huge).is_frame() and fs.frame_bounds(huge).spanning


@pytest.mark.parametrize("exponent", [-565, -300, 300, 565])
def test_frame_quantities_of_power_of_two_multiples(exponent):
    # the squares of the entries underflow at 2^-565 and overflow at 2^565;
    # spanning, the condition number and S^(-1/2) X do not depend on the
    # scale, and the bounds scale by 4^exponent where a double holds them
    X = np.vstack([np.eye(3), np.ones(3)])
    want = fs.frame_bounds(X)
    got = fs.frame_bounds(np.ldexp(X, exponent))
    assert got.spanning and got.condition_number == pytest.approx(want.condition_number, rel=1e-12)
    with np.errstate(over="ignore"):
        scaled = [np.ldexp(b, 2 * exponent) for b in (want.lower, want.upper)]
    assert [got.lower, got.upper] == pytest.approx(scaled, rel=1e-12)
    tight = fs.canonical_parseval(np.ldexp(X, exponent)).vectors
    assert np.allclose(tight, fs.canonical_parseval(X).vectors, rtol=0.0, atol=1e-14)
    assert fs.verify_parseval(tight).passed
    S = fs.frame_operator(np.ldexp(X, exponent))
    with np.errstate(over="ignore"):
        assert np.allclose(S, np.ldexp(fs.frame_operator(X), 2 * exponent), rtol=1e-14, atol=0.0)
    # the unit rows are those of X, and only the norms carry the factor
    unit, norms = fs.normalize_columns(np.ldexp(X, exponent))
    want_unit, want_norms = fs.normalize_columns(X)
    assert np.array_equal(unit.vectors, want_unit.vectors)
    assert np.array_equal(norms, np.ldexp(want_norms, exponent))


@given(st.integers(0, 10_000))
def test_frame_bounds_sandwich_property(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    frame = random_unit_frame(rng, n, int(rng.integers(n, n + 4)))
    fb = fs.frame_bounds(frame)
    for _ in range(5):
        x = rng.standard_normal(n)
        total = float(((frame.vectors @ x) ** 2).sum())
        nx2 = float(x @ x)
        assert fb.lower * nx2 - 1e-9 <= total <= fb.upper * nx2 + 1e-9


def test_verify_parseval_identity_and_projection_targets():
    assert fs.verify_parseval(np.eye(4)).passed
    assert fs.verify_parseval(np.eye(4)).residual == 0.0

    scaled = mercedes_frame().vectors * np.sqrt(2.0 / 3.0)
    assert fs.verify_parseval(scaled).passed

    P = fs.canonical_projection([0], 2)
    rep = fs.verify_parseval([[1.0, 0.0], [0.0, 0.0]], target=P)
    assert rep.passed
    assert rep.detail["range_membership"][0]

    # a vector sticking out of the range must fail the membership check
    bad = fs.verify_parseval([[1.0, 0.0], [0.0, 0.5]], target=P)
    assert not bad.passed and not bad.detail["range_membership"][0]


def test_verify_parseval_dimension_mismatch_and_bad_tol():
    with pytest.raises(ValueError):
        fs.verify_parseval(np.eye(3), target=fs.canonical_projection([0], 2))
    with pytest.raises(ValueError):
        fs.verify_parseval(np.eye(2), tol=0.0)


def test_canonical_parseval_examples():
    onb = fs.Frame(np.eye(3))
    assert np.allclose(fs.canonical_parseval(onb).vectors, np.eye(3), atol=1e-15)

    # S = diag(2, 1), so S^(-1/2) = diag(1/sqrt 2, 1)
    f = fs.Frame([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    expected = np.array([[1 / RT2, 0.0], [1 / RT2, 0.0], [0.0, 1.0]])
    assert np.allclose(fs.canonical_parseval(f).vectors, expected, atol=1e-14)

    g = fs.Frame([[1.0, 0.0], [0.0, 1.0], [1 / RT2, 1 / RT2]])
    assert fs.verify_parseval(fs.canonical_parseval(g).vectors).residual <= 1e-12

    with pytest.raises(ValueError):
        fs.canonical_parseval([[1.0, 0.0], [2.0, 0.0]])

    # singular values 1, 1e-2, 2e-5: S = X^T X squares that spread, so a
    # tightening taken from S misses Parseval by about 4e-7
    assert fs.verify_parseval(fs.canonical_parseval(ill_conditioned_frame()).vectors).residual <= 1e-12

    # singular values spread by about 1e-7 span by the rank rule of frame_bounds
    thin = [[1.0, 0.0], [0.0, 1e-7], [1.0, 1e-7]]
    assert fs.frame_bounds(thin).spanning
    assert fs.verify_parseval(fs.canonical_parseval(thin).vectors).residual <= 1e-12


@given(st.integers(0, 10_000))
def test_canonical_parseval_exactly_when_spanning(seed):
    # singular values geometric from 1 down to 10^-t, t up to 11, so the
    # spread crosses RANK_RTOL = 1e-10 on both sides
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    m = int(rng.integers(n, 3 * n))
    U = np.linalg.qr(rng.standard_normal((m, n)))[0]
    V = np.linalg.qr(rng.standard_normal((n, n)))[0]
    X = (U * np.geomspace(1.0, 10.0 ** -rng.uniform(0.0, 11.0), n)) @ V.T
    if not fs.frame_bounds(X).spanning:
        with pytest.raises(ValueError):
            fs.canonical_parseval(X)
        return
    assert fs.verify_parseval(fs.canonical_parseval(X).vectors, tol=1e-12).passed


@given(st.integers(0, 10_000))
def test_canonical_parseval_idempotent(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    frame = random_unit_frame(rng, n, n + 2)
    once = fs.canonical_parseval(frame)
    twice = fs.canonical_parseval(once)
    assert np.abs(twice.vectors - once.vectors).max() <= 1e-10


def test_apply_unitary_examples():
    f = fs.Frame(np.eye(2))
    assert np.array_equal(fs.apply_unitary(f, np.eye(2)).vectors, np.eye(2))

    rot90 = np.array([[0.0, -1.0], [1.0, 0.0]])
    image = fs.apply_unitary(f, rot90)
    assert np.allclose(image.vectors, [[0.0, 1.0], [-1.0, 0.0]], atol=0)
    assert fs.verify_parseval(image.vectors).passed

    with pytest.raises(ValueError):
        fs.apply_unitary(f, np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match=r"unitary must be 2 x 2, got \(3, 3\)"):
        fs.apply_unitary(f, np.eye(3))


@given(st.integers(0, 10_000))
def test_apply_unitary_preserves_bounds_and_inner_products(seed):
    rng = np.random.default_rng(seed)
    frame = random_unit_frame(rng, 3, 5)
    U = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    image = fs.apply_unitary(frame, U)
    fb, ib = fs.frame_bounds(frame), fs.frame_bounds(image)
    assert abs(fb.lower - ib.lower) <= 1e-10 and abs(fb.upper - ib.upper) <= 1e-10
    G0 = frame.vectors @ frame.vectors.T
    G1 = image.vectors @ image.vectors.T
    assert np.abs(G0 - G1).max() <= 1e-12


def test_normalize_columns():
    f, norms = fs.normalize_columns([[2.0, 0.0]])
    assert np.array_equal(f.vectors, [[1.0, 0.0]]) and norms.tolist() == [2.0]

    f, norms = fs.normalize_columns([[3.0, 4.0]])
    assert np.allclose(f.vectors, [[0.6, 0.8]], atol=1e-16) and norms.tolist() == [5.0]

    with pytest.raises(ValueError):
        fs.normalize_columns([[0.0, 0.0]])


def test_tilted_pair_is_unit_norm():
    f = tilted_pair_frame(0.1)
    assert np.abs(np.linalg.norm(f.vectors, axis=1) - 1.0).max() <= 1e-15
