"""Orthogonal projections: construction, validation, and complements."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .frames import (
    DEFAULT_TOL,
    InternalInconsistencyError,
    VerificationReport,
    _check_tol,
    _freeze,
    _rank,
    _shifted_frame,
    as_vector_array,
)


@dataclass(frozen=True)
class OrthogonalProjection:
    """Symmetric idempotent matrix with its rank and an orthonormal range basis.

    ``range_basis`` has shape (n, rank); its columns are orthonormal and
    span the range, so matrix = range_basis @ range_basis.T.
    """

    matrix: np.ndarray
    rank: int
    range_basis: np.ndarray

    def __post_init__(self) -> None:
        M = np.array(self.matrix, dtype=float)
        B = np.array(self.range_basis, dtype=float)
        n = M.shape[0]
        if M.ndim != 2 or M.shape != (n, n):
            raise ValueError(f"projection matrix must be square, got {M.shape}")
        if B.shape != (n, self.rank):
            raise ValueError(f"range basis must be ({n}, {self.rank}), got {B.shape}")
        object.__setattr__(self, "matrix", _freeze(M))
        object.__setattr__(self, "range_basis", _freeze(B))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def is_trivial(self) -> bool:
        """Rank 0 or full rank; both collapse a two-sided scaling to the standard one."""
        return self.rank == 0 or self.rank == self.dim


def _span_basis(columns: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the span of the nonempty columns: the left singular
    vectors of the numerical rank (_rank) of the shifted columns of _shifted_frame."""
    U, s, _ = np.linalg.svd(_shifted_frame(columns)[1], full_matrices=False)
    return U[:, : _rank(s)]


def _range_basis(M: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the range of the symmetric projection matrix M:
    its eigenvectors whose eigenvalue exceeds 1/2, largest first."""
    w, V = np.linalg.eigh(M)
    return V[:, w > 0.5][:, ::-1]


def _symmetrized(M: np.ndarray) -> np.ndarray:
    return (M + M.T) / 2.0


def projection_from_basis(vectors) -> OrthogonalProjection:
    """Orthogonal projection onto the span of the given vectors.

    The range basis is their left singular vectors above RANK_RTOL times
    the largest singular value, so dependent inputs collapse.
    """
    V = as_vector_array(vectors).T
    B = _span_basis(V)
    if B.shape[1] == 0:
        raise ValueError("cannot project onto the span of all-zero vectors")
    return OrthogonalProjection(_symmetrized(B @ B.T), B.shape[1], B)


def canonical_projection(indices: Iterable[int], n: int) -> OrthogonalProjection:
    """Diagonal 0/1 projection onto span{e_i : i in indices}, 0-based.

    Empty or full index sets give the trivial projections; they are
    representable but flagged via ``is_trivial``.
    """
    idx = sorted({int(i) for i in indices})
    if any(i < 0 or i >= n for i in idx):
        raise ValueError(f"indices must lie in [0, {n}), got {idx}")
    M = np.zeros((n, n))
    B = np.zeros((n, len(idx)))
    for col, i in enumerate(idx):
        M[i, i] = 1.0
        B[i, col] = 1.0
    return OrthogonalProjection(M, len(idx), B)


def _complement_basis(range_basis: np.ndarray, n: int) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of col(range_basis)."""
    return _range_basis(np.eye(n) - range_basis @ range_basis.T)


def complement(projection: OrthogonalProjection) -> OrthogonalProjection:
    """The projection I - P onto the orthogonal complement of range(P); its range
    basis is the eigenvectors of I - B B^T (B that of P) with eigenvalue above 1/2."""
    n = projection.dim
    M = np.eye(n) - projection.matrix
    B = _complement_basis(projection.range_basis, n)
    if B.shape[1] != n - projection.rank:
        raise InternalInconsistencyError(
            f"complement basis has {B.shape[1]} vectors, expected {n - projection.rank}"
        )
    return OrthogonalProjection(_symmetrized(M), n - projection.rank, B)


def _leading_projection(Q: np.ndarray, k: int) -> OrthogonalProjection:
    """Projection onto the span of the first k columns of the orthogonal Q."""
    B = Q[:, :k]
    return OrthogonalProjection(_symmetrized(B @ B.T), k, B)


def random_projection(n: int, k: int, seed: int) -> OrthogonalProjection:
    """Projection onto the span of the first k columns of Q, the orthogonal
    factor of the complete QR of default_rng(seed).standard_normal((n, k)).

    A search candidate is built the same way from a Gaussian block, but
    from the search's own stream (search_piecewise), so this is in
    general none of them.  The output is a function of (n, k, seed) only.
    """
    if not 1 <= k <= n - 1:
        raise ValueError(f"rank must satisfy 1 <= k <= n - 1, got k={k}, n={n}")
    G = np.random.default_rng(seed).standard_normal((n, k))
    return _leading_projection(np.linalg.qr(G, mode="complete")[0], k)


def validate_projection(matrix, tol: float = DEFAULT_TOL) -> VerificationReport:
    """Check symmetry and idempotence residuals of a candidate matrix."""
    _check_tol(tol)
    M = np.asarray(matrix, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"projection candidate must be square, got shape {M.shape}")
    sym = float(np.linalg.norm(M - M.T, "fro"))
    idem = float(np.linalg.norm(M @ M - M, "fro"))
    detail = {"symmetry": (sym <= tol, sym), "idempotence": (idem <= tol, idem)}
    return VerificationReport(
        passed=sym <= tol and idem <= tol,
        residual=max(sym, idem),
        detail=detail,
        tolerance=tol,
    )


def projection_from_matrix(matrix, tol: float = DEFAULT_TOL) -> OrthogonalProjection:
    """Validate a raw matrix and attach its rank, round(trace), and its range
    basis, the eigenvectors with eigenvalue above 1/2; the two counts must agree."""
    report = validate_projection(matrix, tol)
    if not report.passed:
        raise ValueError(
            f"matrix is not an orthogonal projection within {tol:g} (residual {report.residual:.3e})"
        )
    M = _symmetrized(np.array(matrix, dtype=float))
    rank = int(round(float(np.trace(M))))
    B = _range_basis(M)
    if B.shape[1] != rank:
        raise ValueError(f"trace suggests rank {rank} but {B.shape[1]} eigenvalues exceed 1/2")
    return OrthogonalProjection(M, rank, B)
