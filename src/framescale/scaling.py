"""Standard scalability as nonnegative linear feasibility.

A family is scalable when nonnegative weights on the outer products
v_i v_i^T reproduce the target operator.  The decision runs nonnegative
least squares over the vectorized symmetric system, with off-diagonal
entries weighted by sqrt(2) so that the euclidean objective equals the
Frobenius defect.  In two-dimensional ranges an open-quadrant test, or
failing that the half-plane test on doubled angles, certifies
infeasibility independently of the solver.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    """Feasibility decision plus either the scaling or an infeasibility certificate."""

    feasible: bool
    scaling: StandardScaling | None
    certificate: str | None
    residual: float
    warnings: tuple[str, ...] = ()


def _sym_embedding(n: int) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray]:
    iu = np.triu_indices(n)
    weights = np.where(iu[0] == iu[1], 1.0, np.sqrt(2.0))
    return iu, weights


def _gram_columns(V: np.ndarray) -> np.ndarray:
    # column i is the weighted upper triangle of v_i v_i^T, so that the
    # euclidean norm of the stacked system equals the Frobenius norm
    iu, weights = _sym_embedding(V.shape[1])
    cols = V[:, iu[0]] * V[:, iu[1]]
    return (cols * weights).T


def _vech(T: np.ndarray) -> np.ndarray:
    iu, weights = _sym_embedding(T.shape[0])
    return T[iu] * weights


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
    to make its first nonzero coordinate positive.  A true result
    certifies that no standard scaling exists for a spanning family in a
    two-dimensional range.
    """
    V = as_vector_array(vectors)
    if V.shape[1] != 2:
        raise ValueError("the quadrant certificate applies to 2-dimensional coordinates")
    norms = np.linalg.norm(V, axis=1)
    if np.any(norms == 0.0):
        raise ValueError(f"zero vector at index {int(np.argmin(norms))}")
    W = V.copy()
    for i in range(W.shape[0]):
        nz = np.nonzero(W[i])[0]
        if W[i, nz[0]] < 0.0:
            W[i] = -W[i]
    for s1 in (1.0, -1.0):
        for s2 in (1.0, -1.0):
            if np.all(s1 * W[:, 0] > 0.0) and np.all(s2 * W[:, 1] > 0.0):
                return True
    return False


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


def solve_standard_scaling(
    vectors,
    target: OrthogonalProjection | None = None,
    tol: float = DEFAULT_TOL,
    max_iter: int | None = None,
) -> ScalabilityVerdict:
    """Decide standard scalability toward the identity or a projection target.

    Solves min_{w >= 0} ||sum_i w_i v_i v_i^T - T||_F and declares the
    family feasible when the optimum is within ``tol``; the returned
    constants are sqrt(w).  With a projection target, vectors outside the
    range are projected onto it first and a warning is recorded.  The
    returned constants are the minimum-residual weights; no attempt is
    made to pick a canonical element of a non-unique feasible set.

    A converged infeasible verdict in a two-dimensional range carries the
    certificate "open-quadrant" when the sign-normalized vectors sit in
    one open quadrant, else "half-plane" when their doubled angles fit in
    an open half circle (half-plane margin s > 0), else
    "residual-infeasible".
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    V = as_vector_array(vectors)
    m, n = V.shape
    warnings: list[str] = []
    if target is None:
        T = np.eye(n)
        rank = n
    else:
        if target.dim != n:
            raise ValueError(f"target acts on R^{target.dim} but vectors live in R^{n}")
        T = np.asarray(target.matrix, dtype=float)
        rank = target.rank
        leak = np.linalg.norm(V - V @ T, axis=1)
        bad = np.nonzero(leak > tol)[0]
        if bad.size:
            W = np.array(V)
            W[bad] = W[bad] @ T
            V = W
            warnings.append(
                f"{bad.size} vector(s) projected onto the target range "
                f"(worst out-of-range norm {leak.max():.3e})"
            )
    A = _gram_columns(V)
    bvec = _vech(T)
    result = nnls(A, bvec, max_iter=max_iter if max_iter is not None else 50 * m)
    feasible = result.residual <= tol
    if feasible:
        constants = np.sqrt(np.maximum(result.x, 0.0))
        if target is None:
            _post_check_unit_norm_invariants(V, constants, tol)
        scaling = StandardScaling(constants=constants, residual=result.residual, target_rank=rank)
        return ScalabilityVerdict(True, scaling, None, result.residual, tuple(warnings))
    certificate = "residual-infeasible"
    if result.converged and rank == 2:
        coords = V if target is None else V @ target.range_basis
        nonzero = coords[np.linalg.norm(coords, axis=1) > 0.0]
        if nonzero.shape[0]:
            if open_quadrant_certificate(nonzero):
                certificate = "open-quadrant"
            elif _half_plane_margin(nonzero[None])[0] > 0.0:
                certificate = "half-plane"
    return ScalabilityVerdict(False, None, certificate, result.residual, tuple(warnings))
