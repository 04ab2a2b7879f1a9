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
solver's residual must certify it, or the verdict is undecided.  The
same bound, evaluated along a batched FISTA run instead of at an NNLS
optimum, screens stacked families without any solve (_side_rejected);
the search uses it to skip solves that could only report infeasibility.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .frames import DEFAULT_TOL, InternalInconsistencyError, _freeze, _row_constants, _unit_rows, as_vector_array
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


def _post_check_unit_norm_invariants(constants: np.ndarray, U: np.ndarray, tol: float) -> None:
    # for rows u_i scaled to the identity of R^n no c_i^2 ||u_i||^2 may
    # exceed one and their sum is the trace n; the rows of _unit_rows lie
    # only within _UNIT_NORM_TOL of unit norm, so their norms enter here
    csq = constants**2 * np.einsum("ij,ij->i", U, U)
    n = U.shape[1]
    if csq.max(initial=0.0) > 1.0 + 10.0 * tol or abs(float(csq.sum()) - n) > 10.0 * tol:
        raise InternalInconsistencyError(
            f"feasible scaling violates the unit-norm constant bounds: "
            f"max c^2 |u|^2 = {csq.max():.6g}, sum c^2 |u|^2 = {csq.sum():.6g}, n = {n}"
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


# a row whose side part is at most this fraction of the row points in a
# direction set by rounding, so the screen keeps its candidate
_TRUSTED_SIDE = 1e-6


def _fista_momentum(steps: int) -> tuple[float, ...]:
    # the extrapolation weights (t_k - 1) / t_(k+1) of Beck and Teboulle
    weights, t = [], 1.0
    for _ in range(steps):
        t_next = (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0
        weights.append((t - 1.0) / t_next)
        t = t_next
    return tuple(weights)


# accelerated projected gradient steps behind each Farkas direction; the
# bound holds for any weights, so more steps only buy more rejections
_FARKAS_MOMENTUM = _fista_momentum(150)

# steps after which the Farkas screen evaluates its bound: doubling, so a
# family certified early leaves the batch after few steps, and the last
# step, so a family that stays is judged where the fixed run judged it
_FARKAS_CHECKPOINTS = frozenset([2**i for i in range(8)] + [len(_FARKAS_MOMENTUM)])

# Gram cells (families times rows squared) per batch of the screen; the
# search draws its candidates in batches of this many cells, and as
# m >= n it also caps a batch's blocks, QR factors and side coordinates.
# A side whose m^2 alone exceeds it is not screened
_FARKAS_CELLS = 2**20


def _farkas_margin(units: np.ndarray, stop: float = np.inf) -> np.ndarray:
    """Each family's largest _farkas_bound over the checkpoints of its FISTA run.

    FISTA minimises ||sum_i w_i u_i u_i^T - I||_F^2 / 2 over w >= 0.
    ``units`` has shape (C, m, d) with unit rows.  The gradient is H w - 1
    with H_ij = (u_i^T u_j)^2, and the step is 1 / L with L the largest
    row sum of H, which bounds its largest eigenvalue; a gradient step
    y - (H y - 1) / L is then one batched product (I - H / L) y + 1 / L.
    At each step of _FARKAS_CHECKPOINTS the bound is evaluated at the
    residual I - sum_i w_i u_i u_i^T, a direction, not an optimum.  A
    family whose bound exceeds ``stop`` leaves the stack; the others take
    exactly the steps of a stack without exits, so a family's margin does
    not depend on the families stacked with it.  A margin above ``stop``
    may be lower than the fixed run of every step would give, but it is
    still a bound above ``stop``.  A side with m^2 above _FARKAS_CELLS
    gets margin 0.
    """
    C, m, d = units.shape
    if m * m > _FARKAS_CELLS:
        return np.zeros(C)
    H = (units @ units.transpose(0, 2, 1)) ** 2
    step = 1.0 / H.sum(axis=2).max(axis=1)[:, None, None]
    descent = np.eye(m) - step * H
    w = y = np.zeros((C, m, 1))
    margin = np.full(C, -np.inf)
    live = np.arange(C)
    for count, beta in enumerate(_FARKAS_MOMENTUM, 1):
        w_next = np.maximum(descent @ y + step, 0.0)
        y = w_next + beta * (w_next - w)
        w = w_next
        if count not in _FARKAS_CHECKPOINTS:
            continue
        bound = _farkas_bound(units, np.eye(d) - units.transpose(0, 2, 1) @ (w * units))
        margin[live] = np.maximum(margin[live], bound)
        leave = bound > stop
        if leave.all():
            break
        if leave.any():
            stay = ~leave
            live, units, descent, step, w, y = (a[stay] for a in (live, units, descent, step, w, y))
    return margin


def _side_rejected(coords: np.ndarray, scales: np.ndarray, tol: float) -> np.ndarray:
    """Which stacked side families, in coordinates (C, m, d) of their range, provably fail to scale.

    ``scales`` are the norms of the m frame rows.  A family is judged
    only when each of its rows has a part above _TRUSTED_SIDE of its
    scale.  A two-dimensional side then rejects on its half-plane margin,
    a side of dimension d >= 3 on the Farkas bound
    (tr R^ - d delta) / (1 + sqrt(d) delta) at the FISTA residuals R of
    its unit coordinates (_farkas_margin), both above 10 tol; a
    one-dimensional side always scales.
    """
    rejected = np.zeros(len(coords), dtype=bool)
    d = coords.shape[2]
    if d < 2:
        return rejected
    norms = np.linalg.norm(coords, axis=2)
    trusted = np.flatnonzero((norms > _TRUSTED_SIDE * scales).all(axis=1))
    if trusted.size == 0:
        return rejected
    if d == 2:
        margin = _half_plane_margin(coords[trusted])
    else:
        margin = _farkas_margin(coords[trusted] / norms[trusted, :, None], 10.0 * tol)
    rejected[trusted] = margin > 10.0 * tol
    return rejected


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
    range above ``tol`` times their norm are recorded in a warning, and
    the constants scale their projections.  The returned constants are the
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

    A positive factor on a vector is absorbed by its constant, so the
    question is decided on the unit rows v_i / ||v_i|| (_unit_rows), and
    a feasible verdict's constants are theirs divided by ||v_i||; no row's
    magnitude can decide the verdict.  Rows with a constant above the
    largest double raise ValueError.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    U, r, e = _unit_rows(as_vector_array(vectors))
    verdict = _standard_verdict(U, target, tol, max_iter)
    if verdict.feasible and target is None:
        _post_check_unit_norm_invariants(verdict.scaling.constants, U, tol)
    if not verdict.feasible or r is None:
        return verdict
    constants = _row_constants(verdict.scaling.constants, r, e)
    return replace(verdict, scaling=replace(verdict.scaling, constants=constants))


def _standard_verdict(V: np.ndarray, target: OrthogonalProjection | None, tol: float, max_iter: int | None = None) -> ScalabilityVerdict:
    """solve_standard_scaling on the rows V as given, without normalising them.

    The search's side coordinates are solved here: their rows keep the
    lengths of their parts, so a side part at rounding level stays one.
    """
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
