"""Orthogonal projections: construction, validation, and complements."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .frames import (
    DEFAULT_TOL,
    RANK_RTOL,
    InternalInconsistencyError,
    VerificationReport,
    _freeze,
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


def _orthonormalize(columns: np.ndarray, drop_rtol: float = RANK_RTOL, drop_floor: float = 0.0) -> np.ndarray:
    """Orthonormalize columns left to right, dropping dependent ones.

    Each kept column is orthogonalized twice against the running basis,
    which keeps the output orthonormal near machine precision even for
    nearly dependent inputs.  A column is dropped when its residual norm
    falls below max(drop_rtol * input scale, drop_floor).
    """
    V = np.asarray(columns, dtype=float)
    n = V.shape[0]
    if V.size == 0:
        return np.zeros((n, 0))
    scale = float(np.linalg.norm(V, axis=0).max())
    threshold = max(drop_rtol * scale, drop_floor)
    kept: list[np.ndarray] = []
    for j in range(V.shape[1]):
        v = V[:, j].copy()
        for _ in range(2):
            for q in kept:
                v -= (q @ v) * q
        nv = float(np.linalg.norm(v))
        if nv > threshold:
            kept.append(v / nv)
    if not kept:
        return np.zeros((n, 0))
    return np.column_stack(kept)


def _symmetrized(M: np.ndarray) -> np.ndarray:
    return (M + M.T) / 2.0


def projection_from_basis(vectors) -> OrthogonalProjection:
    """Orthogonal projection onto the span of the given vectors.

    Dependent inputs are allowed and collapse; the rank is the dimension
    of the span.
    """
    V = as_vector_array(vectors).T
    B = _orthonormalize(V)
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


def _projection_range_basis(M: np.ndarray, rank: int, columns: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the range of the projection matrix M of known rank.

    ``columns`` are columns of M in the order to try them.  Those left
    shorter than 0.5 by the running basis are dropped, which keeps only
    well-conditioned directions.  Column j of M has norm sqrt(M_jj), so
    every column can fall below that floor (each column of q q^T for
    q = (1, ..., 1)/sqrt(5) has norm 1/sqrt(5)); the basis is then the
    eigenvectors of the ``rank`` largest eigenvalues of M instead.
    """
    B = _orthonormalize(columns, drop_floor=0.5)
    if B.shape[1] < rank:
        B = np.linalg.eigh(M)[1][:, ::-1][:, :rank]
    return B


def _complement_basis(range_basis: np.ndarray, n: int) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of col(range_basis).

    Candidate directions are the columns of I - B B^T taken in order of
    decreasing diagonal weight (ties by index), which makes the
    completion deterministic.
    """
    B = np.asarray(range_basis, dtype=float)
    M = np.eye(n) - B @ B.T
    order = np.argsort(-np.diag(M), kind="stable")
    return _projection_range_basis(M, n - B.shape[1], M[:, order])


def complement(projection: OrthogonalProjection) -> OrthogonalProjection:
    """The projection I - P onto the orthogonal complement of range(P)."""
    n = projection.dim
    M = np.eye(n) - projection.matrix
    B = _complement_basis(projection.range_basis, n)
    if B.shape[1] != n - projection.rank:
        raise InternalInconsistencyError(
            f"complement basis has {B.shape[1]} vectors, expected {n - projection.rank}"
        )
    return OrthogonalProjection(_symmetrized(M), n - projection.rank, B)


def _projection_from_draw(G: np.ndarray) -> OrthogonalProjection | None:
    """Projection onto the span of the columns of G, or None when one drops."""
    B = _orthonormalize(G)
    if B.shape[1] != G.shape[1]:
        return None
    return OrthogonalProjection(_symmetrized(B @ B.T), B.shape[1], B)


def _random_projection(rng: np.random.Generator, n: int, k: int) -> OrthogonalProjection:
    for _ in range(8):
        P = _projection_from_draw(rng.standard_normal((n, k)))
        if P is not None:
            return P
    raise InternalInconsistencyError("Gaussian draws failed to produce k independent vectors")


def random_projection(n: int, k: int, seed: int) -> OrthogonalProjection:
    """Projection onto the span of k orthonormalized seeded Gaussian vectors.

    The output is a function of (n, k, seed) only.
    """
    if not 1 <= k <= n - 1:
        raise ValueError(f"rank must satisfy 1 <= k <= n - 1, got k={k}, n={n}")
    return _random_projection(np.random.default_rng(seed), n, k)


def validate_projection(matrix, tol: float = DEFAULT_TOL) -> VerificationReport:
    """Check symmetry and idempotence residuals of a candidate matrix."""
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
    """Validate a raw matrix and attach its rank and range basis."""
    report = validate_projection(matrix, tol)
    if not report.passed:
        raise ValueError(
            f"matrix is not an orthogonal projection within {tol:g} (residual {report.residual:.3e})"
        )
    M = _symmetrized(np.array(matrix, dtype=float))
    rank = int(round(float(np.trace(M))))
    B = _projection_range_basis(M, rank, M)
    if B.shape[1] != rank:
        raise ValueError(
            f"trace suggests rank {rank} but the column span has dimension {B.shape[1]}"
        )
    return OrthogonalProjection(M, rank, B)
