"""Standard scalability as nonnegative linear feasibility.

A family is scalable when nonnegative weights on the outer products
v_i v_i^T reproduce the target operator.  Toward a projection target of
rank k this is the identity problem sum_i w_i c_i c_i^T = I_k in the
coordinates c_i = B^T v_i of an orthonormal range basis B, since a
unitary map changes neither the cone nor the Frobenius distance; the
identity target is the case B = I.  The decision runs nonnegative least
squares over the vectorized symmetric system, with off-diagonal entries
weighted by sqrt(2) so that the euclidean objective equals the Frobenius
defect.  In two-dimensional ranges an open-quadrant test, or failing
that the half-plane test on doubled angles, certifies infeasibility
independently of the solver; elsewhere a Farkas bound evaluated at the
solver's residual must certify it, or the verdict is undecided.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .frames import DEFAULT_TOL, InternalInconsistencyError, _UNIT_NORM_TOL, _freeze, as_vector_array
from .nnls import nnls
from .projections import OrthogonalProjection


@dataclass(frozen=True)
class StandardScaling:
    """Nonnegative constants c with sum_i c_i^2 v_i v_i^T close to the target."""

    constants: np.ndarray
    residual: float
    target_rank: int

    def __post_init__(self) -> None:
        c = np.array(self.constants, dtype=float).ravel()
        object.__setattr__(self, "constants", _freeze(c))


@dataclass(frozen=True)
class ScalabilityVerdict:
    """Feasibility decision plus either the scaling or an infeasibility certificate.

    ``converged`` and ``iterations`` come from the NNLS run behind the
    decision.  An infeasible verdict carries the certificate "undecided"
    unless a two-dimensional range certifies it geometrically or a
    converged run's residual certifies it by its Farkas bound.
    """

    feasible: bool
    scaling: StandardScaling | None
    certificate: str | None
    residual: float
    warnings: tuple[str, ...] = ()
    converged: bool = True
    iterations: int = 0


@lru_cache(maxsize=32)
def _sym_embedding(n: int) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray]:
    # cached per n, so every caller shares the arrays: they are read-only
    rows, cols = np.triu_indices(n)
    weights = np.where(rows == cols, 1.0, np.sqrt(2.0))
    return (_freeze(rows), _freeze(cols)), _freeze(weights)


def _gram_columns(V: np.ndarray) -> np.ndarray:
    # column i is the weighted upper triangle of v_i v_i^T, so that the
    # euclidean norm of the stacked system equals the Frobenius norm
    iu, weights = _sym_embedding(V.shape[1])
    # the fancy index copies, so both products go in place
    cols = V[:, iu[0]]
    cols *= V[:, iu[1]]
    cols *= weights
    return cols.T


def _vech(T: np.ndarray) -> np.ndarray:
    iu, weights = _sym_embedding(T.shape[0])
    return T[iu] * weights


def _unvech(r: np.ndarray, n: int) -> np.ndarray:
    # the symmetric matrix whose weighted upper triangle is r
    iu, weights = _sym_embedding(n)
    R = np.zeros((n, n))
    R[iu] = r / weights
    return R + np.triu(R, 1).T


# a row whose largest entry lies outside this window is moved into
# [1/2, 1) by an exact power of two before any square is formed; inside
# it the fourth powers nnls forms, and their sums, stay normal
_ROW_WINDOW = (2.0**-240, 2.0**240)


def _row_shifts(V: np.ndarray) -> np.ndarray | None:
    """Exponents s_i that bring every row 2^s_i v_i inside _ROW_WINDOW, or None when all lie in it.

    A row inside the window, a zero row included, gets s_i = 0, so its
    bytes do not change.  A positive factor on a vector does not change
    scalability: constants c_i for the rows 2^s_i v_i are 2^s_i c_i for
    the rows v_i, exact while that product stays a normal double.
    """
    lo, hi = _ROW_WINDOW
    a = np.abs(V)
    # a row's largest entry leaves the window only if some entry does;
    # this test skips the slower row maxima on nearly every input
    if a.min() >= lo and a.max() <= hi:
        return None
    top = a.max(axis=1)
    outside = (top > hi) | ((top < lo) & (top > 0.0))
    return np.where(outside, -np.frexp(top)[1], 0) if outside.any() else None


def _unshifted(constants: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """Constants for the rows v_i from those for the rows 2^s_i v_i (see _row_shifts)."""
    with np.errstate(over="ignore"):
        c = np.ldexp(constants, shifts)
    if not np.isfinite(c).all():
        raise ValueError("the scaling constants of rows this small exceed the range of doubles")
    return c


def _post_check_unit_norm_invariants(V: np.ndarray, constants: np.ndarray, tol: float) -> None:
    # for unit-norm inputs scaled to the identity no constant may exceed
    # one in square and the squares must sum to the dimension
    norms = np.linalg.norm(V, axis=1)
    if np.abs(norms - 1.0).max() > _UNIT_NORM_TOL:
        return
    csq = constants**2
    n = V.shape[1]
    if csq.max(initial=0.0) > 1.0 + 10.0 * tol or abs(float(csq.sum()) - n) > 10.0 * tol:
        raise InternalInconsistencyError(
            f"feasible scaling violates the unit-norm constant bounds: "
            f"max c^2 = {csq.max():.6g}, sum c^2 = {csq.sum():.6g}, n = {n}"
        )


def open_quadrant_certificate(vectors) -> bool:
    """True when, after canonical sign flips, all vectors sit strictly inside one quadrant.

    Sign flips never change scalability, so each vector is first flipped
    to make its first nonzero coordinate positive.  That puts every
    vector in one open quadrant exactly when sign(x) sign(y) is nonzero
    and the same for every vector (x, y).  A true result certifies that
    no standard scaling exists for a spanning family in a
    two-dimensional range.
    """
    V = as_vector_array(vectors)
    if V.shape[1] != 2:
        raise ValueError("the quadrant certificate applies to 2-dimensional coordinates")
    norms = np.linalg.norm(V, axis=1)
    if np.any(norms == 0.0):
        raise ValueError(f"zero vector at index {int(np.argmin(norms))}")
    s = np.sign(V[:, 0]) * np.sign(V[:, 1])
    return bool(s[0] != 0.0 and (s == s[0]).all())


def _half_plane_margin(coords: np.ndarray) -> np.ndarray:
    """Half-plane margin s of stacked families of nonzero vectors in R^2.

    ``coords`` has shape (C, m, 2).  With G the largest circular gap
    between the doubled angles 2 atan2(y, x) of a family's rows,
    s = cos((2 pi - G) / 2); s > 0 exactly when the doubled angles fit in
    an open half circle.
    """
    phi = np.mod(2.0 * np.arctan2(coords[..., 1], coords[..., 0]), 2.0 * np.pi)
    phi.sort(axis=1)
    gaps = np.diff(phi, axis=1, append=phi[:, :1] + 2.0 * np.pi)
    return np.cos((2.0 * np.pi - gaps.max(axis=1)) / 2.0)


def _farkas_bound(units: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Lower bound on the distance from I to the cone of stacked unit families.

    ``units`` has shape (C, m, d) with unit rows u_i and ``R`` shape
    (C, d, d), symmetric.  With R^ = R / ||R||_F and
    delta = max_i (u_i^T R^ u_i)_+, every S = sum_i w_i u_i u_i^T with
    w >= 0 has <R^, S> <= delta tr S and tr S <= d + sqrt(d) ||S - I||_F,
    so ||S - I||_F >= <R^, I - S> gives
    ||S - I||_F >= (tr R^ - d delta) / (1 + sqrt(d) delta).  Returns that
    bound, which holds for any R, or 0 where R = 0.
    """
    d = units.shape[2]
    norm = np.linalg.norm(R, axis=(1, 2))
    # R = 0 stays 0, so its trace and delta vanish and so does its bound
    R = R / np.where(norm > 0.0, norm, 1.0)[:, None, None]
    # a family without rows has delta 0, so its bound is tr R^
    delta = ((units @ R) * units).sum(axis=2).max(axis=1, initial=0.0)
    return (np.trace(R, axis1=1, axis2=2) - d * delta) / (1.0 + np.sqrt(d) * delta)


def solve_standard_scaling(
    vectors,
    target: OrthogonalProjection | None = None,
    tol: float = DEFAULT_TOL,
    max_iter: int | None = None,
) -> ScalabilityVerdict:
    """Decide standard scalability toward the identity or a projection target.

    Solves min_{w >= 0} ||sum_i w_i c_i c_i^T - I_k||_F and declares the
    family feasible when the optimum is within ``tol``; the returned
    constants are sqrt(w).  The c_i are the vectors themselves for the
    identity target, and their coordinates B^T v_i in the orthonormal
    range basis B for a projection target, so a projection target is
    solved in range coordinates; the distance equals the ambient
    ||sum_i w_i (P v_i)(P v_i)^T - P||_F.  Vectors with a part outside the
    range above ``tol`` are recorded in a warning, and the constants
    scale their projections.  The returned constants are the
    minimum-residual weights; no attempt is made to pick a canonical
    element of a non-unique feasible set.

    An infeasible verdict in a two-dimensional range carries the
    certificate "open-quadrant" when the sign-normalized coordinates sit
    in one open quadrant, else "half-plane" when their doubled angles fit
    in an open half circle (half-plane margin s > 0).  Both tests need no
    solver, so they certify infeasibility whether or not NNLS converged.
    Otherwise the certificate is "residual-infeasible" when the residual
    R = I_k - sum_i w_i c_i c_i^T of the NNLS run certifies the verdict:
    _farkas_bound of the unit rows c_i / ||c_i|| at R, a lower bound on
    the optimum that costs one matrix product, exceeds ``tol``.  The
    bound holds for any weights w >= 0, so it certifies whether NNLS
    converged, hit ``max_iter`` (default ``50 * m``) or stalled.  A run
    that stops early on near-duplicate columns, above ``tol`` while the
    optimum is below it, cannot meet that test.  The certificate is
    "undecided" when the bound does not exceed ``tol``: the residual then
    only bounds the optimum from above, so it proves nothing.  The
    verdict records the run's ``converged`` flag and ``iterations``.

    A row whose squares or fourth powers would leave the normal range of
    doubles is first multiplied by a power of two (_row_shifts), and its
    constant is multiplied back by the same power, so neither underflow
    nor overflow can decide the verdict.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    V = as_vector_array(vectors)
    shifts = _row_shifts(V)
    if shifts is not None:
        verdict = solve_standard_scaling(np.ldexp(V, shifts[:, None]), target, tol, max_iter)
        if not verdict.feasible:
            return verdict
        constants = _unshifted(verdict.scaling.constants, shifts)
        return replace(verdict, scaling=replace(verdict.scaling, constants=constants))
    n = V.shape[1]
    warnings: list[str] = []
    if target is None:
        C = V
        rank = n
    else:
        if target.dim != n:
            raise ValueError(f"target acts on R^{target.dim} but vectors live in R^{n}")
        C = V @ target.range_basis
        rank = target.rank
        leak = np.linalg.norm(V - V @ target.matrix, axis=1)
        bad = np.count_nonzero(leak > tol)
        if bad:
            warnings.append(
                f"{bad} vector(s) projected onto the target range "
                f"(worst out-of-range norm {leak.max():.3e})"
            )
    A = _gram_columns(C)
    bvec = _vech(np.eye(rank))
    result = nnls(A, bvec, max_iter=max_iter)
    feasible = result.residual <= tol
    if feasible:
        constants = np.sqrt(np.maximum(result.x, 0.0))
        if target is None:
            _post_check_unit_norm_invariants(V, constants, tol)
        scaling = StandardScaling(constants=constants, residual=result.residual, target_rank=rank)
        return ScalabilityVerdict(
            True, scaling, None, result.residual, tuple(warnings), result.converged, result.iterations
        )
    nonzero = C[np.linalg.norm(C, axis=1) > 0.0]
    if rank == 2 and nonzero.shape[0] and open_quadrant_certificate(nonzero):
        certificate = "open-quadrant"
    elif rank == 2 and nonzero.shape[0] and _half_plane_margin(nonzero[None])[0] > 0.0:
        certificate = "half-plane"
    else:
        units = nonzero / np.linalg.norm(nonzero, axis=1, keepdims=True)
        R = _unvech(bvec - A @ result.x, rank)
        certificate = "residual-infeasible" if _farkas_bound(units[None], R[None])[0] > tol else "undecided"
    return ScalabilityVerdict(
        False, None, certificate, result.residual, tuple(warnings), result.converged, result.iterations
    )
