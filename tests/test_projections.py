import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import framescale as fs


def test_projection_from_basis_examples():
    P = fs.projection_from_basis([[1.0, 0.0]])
    assert np.array_equal(P.matrix, np.diag([1.0, 0.0])) and P.rank == 1

    # uu^T for u = (1, 1)/sqrt 2
    Q = fs.projection_from_basis([[1.0, 1.0]])
    assert np.allclose(Q.matrix, [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)

    # dependent inputs collapse
    R = fs.projection_from_basis([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    assert R.rank == 1 and np.allclose(R.matrix, np.diag([1.0, 0.0, 0.0]), atol=1e-15)

    with pytest.raises(ValueError):
        fs.projection_from_basis([[0.0, 0.0]])

    # near the largest double the largest singular value overflows unless shifted
    huge = fs.projection_from_basis(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1e-3]]) * 1.7e308)
    assert huge.rank == 2 and np.allclose(huge.matrix, np.eye(2), atol=1e-15)


def test_canonical_projection_examples():
    P = fs.canonical_projection([0, 1], 4)
    assert np.array_equal(P.matrix, np.diag([1.0, 1.0, 0.0, 0.0]))
    assert P.rank == 2 and not P.is_trivial

    zero = fs.canonical_projection([], 3)
    assert zero.rank == 0 and zero.is_trivial and np.array_equal(zero.matrix, np.zeros((3, 3)))

    full = fs.canonical_projection(range(3), 3)
    assert full.rank == 3 and full.is_trivial and np.array_equal(full.matrix, np.eye(3))

    with pytest.raises(ValueError):
        fs.canonical_projection([3], 3)


def test_complement_examples():
    P = fs.canonical_projection([0], 2)
    C = fs.complement(P)
    assert np.array_equal(C.matrix, np.diag([0.0, 1.0])) and C.rank == 1

    CC = fs.complement(C)
    assert np.allclose(CC.matrix, P.matrix, atol=1e-15) and CC.rank == P.rank

    # I - uu^T for u = (1, 1)/sqrt 2
    Q = fs.projection_from_basis([[1.0, 1.0]])
    D = fs.complement(Q)
    assert np.allclose(D.matrix, [[0.5, -0.5], [-0.5, 0.5]], atol=1e-15)
    assert D.rank == 1


def test_random_projection_determinism_and_contracts():
    P1 = fs.random_projection(4, 2, seed=11)
    P2 = fs.random_projection(4, 2, seed=11)
    assert np.array_equal(P1.matrix, P2.matrix)
    assert not np.array_equal(P1.matrix, fs.random_projection(4, 2, seed=12).matrix)

    assert fs.validate_projection(P1.matrix, tol=1e-10).passed
    assert abs(float(np.trace(P1.matrix)) - 2.0) <= 1e-12

    with pytest.raises(ValueError):
        fs.random_projection(4, 0, seed=0)
    with pytest.raises(ValueError):
        fs.random_projection(4, 4, seed=0)


def test_random_projection_is_the_leading_columns_of_its_blocks_qr():
    for n, k, seed in ((4, 2, 11), (5, 1, 0), (6, 4, 7), (3, 2, 2**40)):
        G = np.random.default_rng(seed).standard_normal((n, k))
        B = np.linalg.qr(G, mode="complete")[0][:, :k]
        P = fs.random_projection(n, k, seed)
        assert P.rank == k and np.array_equal(P.range_basis, B)
        assert np.array_equal(P.matrix, (B @ B.T + (B @ B.T).T) / 2.0)


def test_validate_projection_examples():
    assert fs.validate_projection(np.diag([1.0, 0.0])).passed
    assert not fs.validate_projection(np.array([[1.0, 1.0], [0.0, 0.0]])).passed
    # P^2 = P checked by hand for the rank-1 diagonal-mixing matrix
    assert fs.validate_projection(np.array([[0.5, 0.5], [0.5, 0.5]])).passed
    with pytest.raises(ValueError):
        fs.validate_projection(np.zeros((2, 3)))


def test_projection_from_matrix_round_trip():
    P = fs.random_projection(5, 3, seed=3)
    Q = fs.projection_from_matrix(P.matrix)
    assert Q.rank == 3
    assert np.linalg.norm(Q.range_basis @ Q.range_basis.T - P.matrix, "fro") <= 1e-10
    with pytest.raises(ValueError):
        fs.projection_from_matrix(np.array([[1.0, 0.4], [0.4, 0.2]]))


@given(st.integers(0, 10_000))
def test_pythagoras_property(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    k = int(rng.integers(1, n))
    P = fs.random_projection(n, k, seed=seed)
    for _ in range(5):
        x = rng.standard_normal(n)
        px = P.matrix @ x
        qx = x - px
        assert abs(x @ x - (px @ px + qx @ qx)) <= 1e-10 * max(1.0, x @ x)


@given(st.integers(0, 10_000))
def test_projection_basis_round_trip(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    k = int(rng.integers(1, n))
    P = fs.random_projection(n, k, seed=seed + 1)
    rebuilt = fs.projection_from_basis(P.range_basis.T)
    assert np.linalg.norm(rebuilt.matrix - P.matrix, "fro") <= 1e-10
    assert rebuilt.rank == P.rank
    # range basis columns are orthonormal and fixed by the projection
    B = P.range_basis
    assert np.linalg.norm(B.T @ B - np.eye(k), "fro") <= 1e-12
    assert np.linalg.norm(P.matrix @ B - B, "fro") <= 1e-12
    # the complement's basis is orthonormal and annihilated by the projection
    C = fs.complement(P).range_basis
    assert np.linalg.norm(C.T @ C - np.eye(n - k), "fro") <= 1e-12
    assert np.linalg.norm(P.matrix @ C, "fro") <= 1e-12


@pytest.mark.parametrize("n", [5, 6])
def test_complement_of_hyperplane_with_short_columns(n):
    # every column of q q^T has norm 1/sqrt(n) < 1/2, so no single column of
    # the complement's matrix is a well-conditioned basis direction
    q = np.ones(n) / np.sqrt(n)
    P = fs.projection_from_basis(np.linalg.qr(np.column_stack([q, np.eye(n)[:, : n - 1]]))[0][:, 1:].T)
    assert P.rank == n - 1
    C = fs.complement(P)
    assert C.rank == 1
    assert abs(abs(float(C.range_basis[:, 0] @ q)) - 1.0) <= 1e-14
    assert np.array_equal(C.matrix, (np.eye(n) - P.matrix + (np.eye(n) - P.matrix).T) / 2.0)
    assert np.linalg.norm(fs.complement(C).matrix - P.matrix, "fro") <= 1e-14

    line = fs.projection_from_matrix(np.outer(q, q))
    assert line.rank == 1 and abs(abs(float(line.range_basis[:, 0] @ q)) - 1.0) <= 1e-14
    back = fs.complement(line)
    B = back.range_basis
    assert back.rank == n - 1
    assert np.linalg.norm(B.T @ B - np.eye(n - 1), "fro") <= 1e-14 and np.abs(q @ B).max() <= 1e-14


def test_transport_across_hyperplane_with_short_columns():
    q = np.ones(5) / np.sqrt(5)
    P = fs.projection_from_matrix(np.eye(5) - np.outer(q, q))
    U = fs.intertwiner(P, fs.canonical_projection(range(4), 5))
    assert np.linalg.norm(U.T @ U - np.eye(5), "fro") <= 1e-12
    assert np.linalg.norm(U @ P.matrix - np.diag([1.0, 1.0, 1.0, 1.0, 0.0]) @ U, "fro") <= 1e-12


def test_basis_edge_cases():
    # complements of the trivial projections: everything and nothing
    everything = fs.complement(fs.canonical_projection([], 4))
    assert everything.rank == 4 and everything.range_basis.shape == (4, 4)
    assert np.linalg.norm(everything.range_basis.T @ everything.range_basis - np.eye(4), "fro") <= 1e-15
    nothing = fs.complement(fs.canonical_projection(range(4), 4))
    assert nothing.rank == 0 and nothing.range_basis.shape == (4, 0)

    # a nearly dependent pair keeps both directions while its smaller singular
    # value exceeds RANK_RTOL times the larger
    assert fs.projection_from_basis([[1.0, 0.0, 0.0], [1.0, 1e-8, 0.0]]).rank == 2
    assert fs.projection_from_basis([[1.0, 0.0, 0.0], [1.0, 1e-12, 0.0]]).rank == 1

    # passes the residual test at tol 1, but trace 1.2 rounds to rank 1 while
    # both eigenvalues exceed 1/2
    with pytest.raises(ValueError):
        fs.projection_from_matrix(np.diag([0.6, 0.6]), tol=1.0)

    # the dataclass checks its own shapes
    with pytest.raises(ValueError, match=r"projection matrix must be square, got \(2, 3\)"):
        fs.OrthogonalProjection(np.zeros((2, 3)), 0, np.zeros((2, 0)))
    with pytest.raises(ValueError, match=r"range basis must be \(2, 1\), got \(2, 2\)"):
        fs.OrthogonalProjection(np.diag([1.0, 0.0]), 1, np.eye(2))
