"""Finite frames in R^n and their basic calculus.

The frame type stores an ordered family of vectors together with optional
labels.  Operations cover the frame operator, optimal frame bounds,
Parseval verification against the identity or against a projection
target, canonical Parseval tightening, unitary images, and column
normalization.  Everything here is a pure function of immutable values,
so concurrent use on shared inputs is safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

#: Absolute Frobenius tolerance used by all identity checks unless overridden.
DEFAULT_TOL = 1e-8

#: Relative singular value cutoff for numerical rank decisions.
RANK_RTOL = 1e-10

# largest deviation from norm one that still counts as a unit-norm vector
_UNIT_NORM_TOL = 1e-8


class InternalInconsistencyError(RuntimeError):
    """Two computation routes that must agree numerically did not.

    This signals a tolerance or implementation bug, never a property of
    the input data.
    """


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def as_vector_array(vectors, name: str = "vectors") -> np.ndarray:
    """Coerce input to a read-only (m, n) float array of row vectors."""
    if isinstance(vectors, Frame):
        return vectors.vectors
    arr = np.array(vectors, dtype=float)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2 or arr.shape[0] == 0 or arr.shape[1] == 0:
        raise ValueError(f"{name} must be a nonempty (m, n) array, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must not contain NaN or infinite coordinates")
    return _freeze(arr)


@dataclass(frozen=True)
class Frame:
    """Ordered family of m vectors in R^n, stored as the rows of ``vectors``.

    Index order carries meaning: scaling constants are per index, so
    vectors are never deduplicated or reordered.
    """

    vectors: np.ndarray
    labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        arr = as_vector_array(self.vectors)
        object.__setattr__(self, "vectors", arr)
        if self.labels is not None:
            labels = tuple(str(lab) for lab in self.labels)
            if len(labels) != arr.shape[0]:
                raise ValueError(f"expected {arr.shape[0]} labels, got {len(labels)}")
            object.__setattr__(self, "labels", labels)

    @property
    def size(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    @property
    def synthesis(self) -> np.ndarray:
        """The n x m synthesis matrix whose columns are the frame vectors."""
        return self.vectors.T

    def numerical_rank(self) -> int:
        s = np.linalg.svd(self.vectors, compute_uv=False)
        if s[0] == 0.0:
            return 0
        return int(np.sum(s > RANK_RTOL * s[0]))

    def is_frame(self) -> bool:
        """True when the vectors span R^n, i.e. the lower frame bound is positive."""
        return self.numerical_rank() == self.dim


@dataclass(frozen=True)
class FrameBounds:
    """Optimal frame bounds and their quotient."""

    lower: float
    upper: float
    condition_number: float

    @property
    def spanning(self) -> bool:
        return self.lower > 0.0


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of a residual check: overall verdict plus named sub-conditions.

    ``detail`` maps a condition name to ``(passed, residual)``; ``residual``
    is the defect of the main checked identity in Frobenius norm.
    """

    passed: bool
    residual: float
    detail: Mapping[str, tuple[bool, float]]
    tolerance: float


def frame_operator(frame) -> np.ndarray:
    """Sum of the outer products x_i x_i^T, a symmetric PSD n x n matrix."""
    X = as_vector_array(frame)
    S = X.T @ X
    return (S + S.T) / 2.0


def frame_bounds(frame) -> FrameBounds:
    """Extreme eigenvalues of the frame operator and their quotient.

    A non-spanning family gets lower bound 0 and an infinite condition
    number; that is a flagged value, not an error.
    """
    X = as_vector_array(frame)
    m, n = X.shape
    s = np.linalg.svd(X, compute_uv=False)
    upper = float(s[0] ** 2)
    spanning = m >= n and s[0] > 0.0 and s[n - 1] > RANK_RTOL * s[0]
    lower = float(s[n - 1] ** 2) if spanning else 0.0
    cond = upper / lower if lower > 0.0 else float("inf")
    return FrameBounds(lower=lower, upper=upper, condition_number=cond)


def verify_parseval(vectors, target=None, tol: float = DEFAULT_TOL) -> VerificationReport:
    """Check that sum_i v_i v_i^T reproduces the target operator.

    With ``target=None`` the target is the identity (plain Parseval
    check).  With a projection target the family must reproduce the
    projection matrix and every vector must lie in its range; both
    residuals must stay within ``tol``.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    V = as_vector_array(vectors)
    n = V.shape[1]
    T = None
    if target is not None:
        T = np.asarray(target.matrix, dtype=float)
        if T.shape != (n, n):
            raise ValueError(f"target acts on R^{T.shape[0]} but vectors live in R^{n}")
    return _parseval_report(V, T, tol)


def _parseval_report(V: np.ndarray, T: np.ndarray | None, tol: float) -> VerificationReport:
    # verify_parseval on checked rows; T is a projection matrix or None for the identity
    S = V.T @ V
    op_res = float(np.linalg.norm(S - (np.eye(V.shape[1]) if T is None else T), "fro"))
    detail: dict[str, tuple[bool, float]] = {"operator_identity": (op_res <= tol, op_res)}
    if T is not None:
        leak = V - V @ T
        range_res = float(np.linalg.norm(leak, axis=1).max())
        detail["range_membership"] = (range_res <= tol, range_res)
    passed = all(ok for ok, _ in detail.values())
    return VerificationReport(passed=passed, residual=op_res, detail=detail, tolerance=tol)


def canonical_parseval(frame) -> Frame:
    """Return the tightened family {S^(-1/2) x_i}, which verifies as Parseval.

    S^(-1/2) comes from a symmetric eigendecomposition; the frame must
    span, otherwise the inverse square root does not exist.
    """
    fr = frame if isinstance(frame, Frame) else Frame(frame)
    S = frame_operator(fr)
    lam, V = np.linalg.eigh(S)
    if lam[-1] <= 0.0 or lam[0] <= RANK_RTOL * lam[-1]:
        raise ValueError("canonical Parseval tightening needs a spanning frame")
    inv_sqrt = (V / np.sqrt(lam)) @ V.T
    return Frame(fr.vectors @ inv_sqrt, labels=fr.labels)


def apply_unitary(frame, unitary, tol: float = DEFAULT_TOL) -> Frame:
    """Image {U x_i} of the frame under a unitary map; frame bounds are preserved."""
    fr = frame if isinstance(frame, Frame) else Frame(frame)
    U = np.asarray(unitary, dtype=float)
    n = fr.dim
    if U.shape != (n, n):
        raise ValueError(f"unitary must be {n} x {n}, got {U.shape}")
    defect = float(np.linalg.norm(U.T @ U - np.eye(n), "fro"))
    if defect > tol:
        raise ValueError(f"matrix is not unitary within {tol:g} (defect {defect:.3e})")
    return Frame(fr.vectors @ U.T, labels=fr.labels)


def normalize_columns(frame) -> tuple[Frame, np.ndarray]:
    """Scale every vector to unit norm; returns the new frame and the original norms."""
    fr = frame if isinstance(frame, Frame) else Frame(frame)
    norms = np.linalg.norm(fr.vectors, axis=1)
    if np.any(norms == 0.0):
        raise ValueError(f"zero vector at index {int(np.argmin(norms))}")
    unit = Frame(fr.vectors / norms[:, None], labels=fr.labels)
    return unit, _freeze(norms)
