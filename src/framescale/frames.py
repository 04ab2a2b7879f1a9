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

# for frame quantities and distances, a frame whose largest entry lies
# outside this window is moved into [1/2, 1) by one exact power of two
# before any square is formed; inside it the squares the library forms,
# and their sums, stay normal
_ROW_WINDOW = (2.0**-240, 2.0**240)


class InternalInconsistencyError(RuntimeError):
    """Two computation routes that must agree numerically did not.

    This signals a tolerance or implementation bug, never a property of
    the input data.
    """


def _check_tol(tol: float) -> float:
    """The one tolerance rule of every entry point: tol itself when finite and positive, else ValueError."""
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    return tol


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
        """Count of singular values above RANK_RTOL times the largest (_rank) of the shifted frame."""
        return _rank(np.linalg.svd(_shifted_frame(self.vectors)[1], compute_uv=False))

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
        # the quotient is a ratio of singular values, finite exactly when
        # they span; a bound alone can underflow to 0 or overflow to inf
        return self.condition_number < float("inf")


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


def _rank(s: np.ndarray) -> int:
    """Numerical rank of singular values s, largest first: the count above RANK_RTOL * s[0], 0 if s[0] = 0."""
    return int(np.count_nonzero(s > RANK_RTOL * s[0]))


def _shifted_frame(X: np.ndarray) -> tuple[int, np.ndarray]:
    """(s, 2^s X), with 2^s bringing the largest entry into [1/2, 1), or (0, X) inside _ROW_WINDOW.

    One exact power of two on the whole frame multiplies its frame
    operator and bounds by 4^s and leaves S^(-1/2) X unchanged, so no
    square formed from 2^s X underflows or overflows; a frame inside the
    window keeps its bytes.
    """
    top = float(np.abs(X).max())
    lo, hi = _ROW_WINDOW
    if lo <= top <= hi or top == 0.0:
        return 0, X
    s = -int(np.frexp(top)[1])
    return s, np.ldexp(X, s)


def _row_steps(X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(Y, r, e): the rows y_i = 2^-e_i x_i of the power of two step of _unit_rows, and r_i = ||y_i||."""
    e = np.frexp(np.abs(X).max(axis=1))[1]
    Y = np.ldexp(X, -e[:, None])
    return Y, np.linalg.norm(Y, axis=1), e


def _unit_rows(X: np.ndarray) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """(U, r, e): the unit rows u_i = x_i / ||x_i|| and each norm as ||x_i|| = r_i 2^e_i.

    A positive factor on a vector is absorbed by its scaling constant, so
    every scaling question is asked of the u_i and _row_constants carries
    the constants back.  Each row is first multiplied by the exact power
    of two 2^-e_i that brings its largest entry into [1/2, 1) (_row_steps),
    so its norm r_i lies in [1/2, sqrt(n)) and can neither underflow nor
    overflow.  A zero row, and a row whose norm lies within
    _UNIT_NORM_TOL of 1, comes back as it is with r_i = 1 and e_i = 0, so
    unit inputs keep their bytes and U is its own result.  When every row
    comes back as it is, U is X and r and e are None.
    """
    # a computed squared norm within _UNIT_NORM_TOL of 1 puts the norm
    # within about _UNIT_NORM_TOL / 2 of it, so such rows come back as they
    # are under the rule below too, without its scaling
    if (np.abs(np.einsum("ij,ij->i", X, X) - 1.0) <= _UNIT_NORM_TOL).all():
        return X, None, None
    Y, r, e = _row_steps(X)
    # beyond 2^2 the norm is at least 4, so capping the exponent there
    # decides the same rows and keeps the power of two finite
    keep = (r == 0.0) | (np.abs(np.ldexp(r, np.minimum(e, 2)) - 1.0) <= _UNIT_NORM_TOL)
    if keep.all():
        return X, None, None
    U = np.divide(Y, r[:, None], out=np.array(X), where=~keep[:, None])
    r[keep], e[keep] = 1.0, 0
    return U, r, e


def _row_constants(constants: np.ndarray, r: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Constants c_i / ||x_i|| for the rows x_i from the constants c_i of their unit rows (_unit_rows)."""
    with np.errstate(over="ignore"):
        c = np.ldexp(constants / r, -e)
    if not np.isfinite(c).all():
        raise ValueError("the scaling constants of rows this small exceed the range of doubles")
    return c


def _scaled_back(value, k: int):
    # a quantity that 2^s X multiplies by 2^k, carried back to X; beyond
    # the range of doubles it reads 0 or inf, which is its value in doubles
    if not k:
        return value
    with np.errstate(over="ignore"):
        return np.ldexp(value, -k)


def frame_operator(frame) -> np.ndarray:
    """Sum of the outer products x_i x_i^T, a symmetric PSD n x n matrix.

    It is formed from the shifted frame of _shifted_frame and scaled
    back, so an entry overflows or underflows only when its own value
    lies outside the range of doubles.
    """
    s, Y = _shifted_frame(as_vector_array(frame))
    S = Y.T @ Y
    return _scaled_back((S + S.T) / 2.0, 2 * s)


def frame_bounds(frame) -> FrameBounds:
    """Extreme eigenvalues of the frame operator and their quotient.

    A non-spanning family gets lower bound 0 and an infinite condition
    number; that is a flagged value, not an error.  Spanning and the
    condition number come from the singular values of the shifted frame
    of _shifted_frame, which do not depend on the frame's scale; the
    bounds are scaled back, so a spanning frame whose bounds leave the
    range of doubles reads 0 or inf there and is still spanning.
    """
    shift, Y = _shifted_frame(as_vector_array(frame))
    s = np.linalg.svd(Y, compute_uv=False)
    upper = float(s[0] ** 2)
    spanning = _rank(s) == Y.shape[1]
    lower = float(s[-1] ** 2) if spanning else 0.0
    cond = upper / lower if spanning else float("inf")
    return FrameBounds(
        lower=float(_scaled_back(lower, 2 * shift)),
        upper=float(_scaled_back(upper, 2 * shift)),
        condition_number=cond,
    )


def verify_parseval(vectors, target=None, tol: float = DEFAULT_TOL) -> VerificationReport:
    """Check that sum_i v_i v_i^T reproduces the target operator.

    With ``target=None`` the target is the identity (plain Parseval
    check).  With a projection target the family must reproduce the
    projection matrix and every vector must lie in its range; both
    residuals must stay within ``tol``.
    """
    _check_tol(tol)
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

    With the thin SVD X = U diag(s) V^T, X S^(-1/2) = U V^T, the polar
    factor of X; the frame must span (_rank(s) = n), otherwise S^(-1/2)
    does not exist.  The SVD is that of the shifted frame of
    _shifted_frame, which leaves U V^T unchanged.
    """
    fr = frame if isinstance(frame, Frame) else Frame(frame)
    U, s, Vt = np.linalg.svd(_shifted_frame(fr.vectors)[1], full_matrices=False)
    if _rank(s) < fr.dim:
        raise ValueError("canonical Parseval tightening needs a spanning frame")
    return Frame(U @ Vt, labels=fr.labels)


def apply_unitary(frame, unitary, tol: float = DEFAULT_TOL) -> Frame:
    """Image {U x_i} of the frame under a unitary map; frame bounds are preserved."""
    _check_tol(tol)
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
    """Scale every vector to unit norm after the row step of _unit_rows; returns the new frame and the norms."""
    fr = frame if isinstance(frame, Frame) else Frame(frame)
    Y, r, e = _row_steps(fr.vectors)
    if np.any(r == 0.0):
        raise ValueError(f"zero vector at index {int(np.argmin(r))}")
    unit = Frame(Y / r[:, None], labels=fr.labels)
    with np.errstate(over="ignore"):
        return unit, _freeze(np.ldexp(r, e))
