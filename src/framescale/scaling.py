"""Standard scalability as nonnegative linear feasibility.

A family is scalable when nonnegative weights on the outer products
v_i v_i^T reproduce the target operator.  solve_standard_scaling decides
it, and states the question and the order of the steps below.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .frames import DEFAULT_TOL, InternalInconsistencyError, _check_tol, _freeze, _row_constants, _unit_rows, as_vector_array
from .nnls import NNLSResult, nnls
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
    decision, and ``residual`` is the Frobenius defect its weights
    reached.  A verdict that solve_standard_scaling decides before NNLS
    has ``iterations`` 0 and ``converged`` True, and when it is
    infeasible its ``residual`` is the certified lower bound above 10 tol
    on the distance from the target to the cone.
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
    # euclidean norm of the stacked system equals the Frobenius norm; the
    # rows of the pairs (p, q >= p) are consecutive in triu order, so one
    # product per p fills the C-ordered (n (n + 1) / 2, m) array, and one
    # (C, n (n + 1) / 2, m) array for a stack V of shape (C, m, n)
    *stack, m, n = V.shape
    _, weights = _sym_embedding(n)
    VT = np.ascontiguousarray(np.swapaxes(V, -1, -2))
    A = np.empty((*stack, weights.size, m))
    start = 0
    for p in range(n):
        np.multiply(VT[..., p : p + 1, :], VT[..., p:, :], out=A[..., start : start + n - p, :])
        start += n - p
    A *= weights[:, None]
    return A


def _vech(T: np.ndarray) -> np.ndarray:
    iu, weights = _sym_embedding(T.shape[0])
    return T[iu] * weights


def _farkas_residual(C: np.ndarray, w: np.ndarray) -> np.ndarray:
    # the residual I - sum_i w_i c_i c_i^T of the rows C (..., m, d) at the
    # weights w (..., m): every Farkas bound is evaluated at it
    return np.eye(C.shape[-1]) - (np.swapaxes(C, -1, -2) * w[..., None, :]) @ C


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
    zero = ~V.any(axis=1)
    if zero.any():
        raise ValueError(f"zero vector at index {int(np.argmax(zero))}")
    s = np.sign(V[:, 0]) * np.sign(V[:, 1])
    return bool(s[0] != 0.0 and (s == s[0]).all())


def _half_plane_margin(coords: np.ndarray) -> np.ndarray:
    """Half-plane margin s of stacked families of nonzero vectors in R^2.

    ``coords`` has shape (C, m, 2).  With G the largest circular gap
    between the doubled angles 2 atan2(y, x) of a family's rows,
    s = cos((2 pi - G) / 2); s > 0 exactly when the doubled angles fit in
    an open half circle.  Then, with S_d the reflection through the
    bisector of that arc, the direction s I - S_d keeps the cone at least
    sqrt(2) s / sqrt(1 + s^2) from I, so the family cannot scale.
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
    # the Frobenius norms as np.linalg.norm forms them, without its dispatch
    norm = np.sqrt((R * R).sum(axis=(1, 2)))
    # R = 0 stays 0, so its trace and delta vanish and so does its bound
    R = R / np.where(norm > 0.0, norm, 1.0)[:, None, None]
    # a family without rows has delta 0, so its bound is tr R^
    delta = ((units @ R) * units).sum(axis=2).max(axis=1, initial=0.0)
    return (np.trace(R, axis1=1, axis2=2) - d * delta) / (1.0 + np.sqrt(d) * delta)


# a row whose part in a range is at most this fraction of the row points
# in a direction set by rounding, so no step judges the range by it
_TRUSTED_SIDE = 1e-6


# semismooth Newton steps of _interior_weights after its start; on the
# tall frames of the large-frames benchmark every one is decided by step 2
_NEWTON_STEPS = 8

# a solution x of G x = b with ||x|| tr G / len(G) above this multiple of
# ||b|| proves cond G above it, as tr G / len(G) <= ||G||; rounding may then
# move x by 1e-8 of its size
_SOLVE_COND = 1e8


def _psd_solves(G: np.ndarray, b: np.ndarray) -> Iterator[np.ndarray | None]:
    """Solutions of G x = b for a positive semidefinite G: the plain solve, then a Tikhonov one.

    Yields x = G^-1 b, then the solution of (G + delta I) x = b with
    delta = 1e-12 tr G / len(G), which exists on a singular G.  Either
    comes as None when its solve raises LinAlgError or gives a non-finite
    x, and the plain one also when _SOLVE_COND proves G ill-conditioned.
    """
    scale = float(np.trace(G)) / len(G)
    for delta in (0.0, 1e-12 * scale):
        try:
            x = np.linalg.solve(G + delta * np.eye(len(G)) if delta else G, b)
        except np.linalg.LinAlgError:
            yield None
            continue
        # a nan or infinite x fails either limit
        limit = np.inf if delta else _SOLVE_COND * float(np.linalg.norm(b)) / scale
        yield x if float(np.linalg.norm(x)) < limit else None


def _psd_solve(G: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    # the first solution _psd_solves gives, or None when neither solve gives one
    return next((x for x in _psd_solves(G, b) if x is not None), None)


def _gram_weights(C: np.ndarray, tol: float) -> tuple[np.ndarray | None, float]:
    """Decide the rows C by the least-squares weights of sum_i w_i c_i c_i^T = I, or leave them.

    With H = (C C^T)^2 entrywise, H w = (||c_i||^2)_i are the normal
    equations of that system.  Each solution of _psd_solves, in turn,
    decides: (w, the defect ||R||_F of its _farkas_residual R) when
    w >= 0 and that defect is at most tol, and (None, bound) when
    _farkas_bound of the unit rows at R is a bound above 10 tol.  When
    neither solution decides, the result is (None, 0.0).
    """
    G = C @ C.T
    sq = np.diag(G)
    for w in _psd_solves(G * G, sq):
        if w is None:
            continue
        R = _farkas_residual(C, w)
        defect = float(np.linalg.norm(R))
        if defect <= tol and (w >= 0.0).all():
            return w, defect
        bound = float(_farkas_bound((C / np.sqrt(sq)[:, None])[None], R[None])[0])
        if bound > 10.0 * tol:
            return None, bound
    return None, 0.0


def _interior_weights(A: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """Semismooth Newton weights for min ||w||^2 / 2 subject to A w = b, w >= 0, or None.

    The minimiser is w = (A^T y)_+ for a y that solves A (A^T y)_+ = b,
    the dual of Mangasarian's finite Newton method (J. Optim. Theory
    Appl. 2004).  Starting from y = (A A^T)^-1 b, each step takes
    w = (A^T y)_+ and g = b - A w and sets y += (A_S A_S^T)^-1 g on the
    columns S with A^T y > 0, where A_S A_S^T is A A^T less the columns
    outside S.  Each solve is _psd_solve's, so a nearly singular A A^T,
    say rows repeated up to rounding, gets Tikhonov weights near the
    minimiser.  When S is the set the last solve used, A w = b up to
    rounding and w is the minimiser; the run also stops when a step does
    not halve ||g||, after _NEWTON_STEPS steps, or when no solve
    succeeds.  Returns the w of the smallest ||g|| reached, or None when
    A A^T admits no solve.  A w away from b proves nothing: the caller
    must check ||A w - b||.
    """
    G = A @ A.T
    y = _psd_solve(G, b)
    if y is None:
        return None
    solved = np.ones(A.shape[1], dtype=bool)
    w, gg = None, np.inf
    for step in range(_NEWTON_STEPS + 1):
        z = A.T @ y
        S = z > 0.0
        w_next = np.where(S, z, 0.0)
        g = b - A @ w_next
        gg_next = float(g @ g)
        if not gg_next < gg:
            break
        slow = gg_next > 0.25 * gg
        w, gg = w_next, gg_next
        if slow or step == _NEWTON_STEPS or (S == solved).all():
            break
        AN = A[:, ~S]
        dy = _psd_solve(G - AN @ AN.T, g)
        if dy is None:
            break
        y = y + dy
        solved = S
    return w


def solve_standard_scaling(
    vectors,
    target: OrthogonalProjection | None = None,
    tol: float = DEFAULT_TOL,
    max_iter: int | None = None,
) -> ScalabilityVerdict:
    """Decide standard scalability toward the identity or a projection target.

    The family is feasible when min_{w >= 0} ||sum_i w_i c_i c_i^T - I_k||_F
    is at most ``tol``, and the constants are sqrt(w).  The c_i are the
    vectors for the identity target, and their coordinates B^T v_i in the
    orthonormal range basis B of a projection target of rank k < n: a
    unitary map changes neither the cone nor the Frobenius distance, so
    that distance equals the ambient ||sum_i w_i (P v_i)(P v_i)^T - P||_F.
    A full-rank target is the identity.  Vectors with a part outside the
    range above ``tol`` times their norm are recorded in a warning, and
    the constants scale their projections.  The question is decided on
    the unit rows of _unit_rows.

    The decision order.  _decide runs the steps below in turn and
    returns the verdict of the first that decides.  Steps 1 and 2 leave
    zero rows out, at weight 0, and run only when every other row has a
    range part above _TRUSTED_SIDE of its norm.  A step that decides
    leaves NNLS out (see ScalabilityVerdict).

    1. In a two-dimensional range, a _half_plane_margin above 10 ``tol``
       decides infeasible, with that margin's distance bound.
    2. In a range of dimension k >= 3 with m <= k^2 for the m rows, the
       least-squares weights of the plain and then the Tikhonov solve
       (_gram_weights) decide feasible or certify infeasible.
    3. In a range of dimension k >= 3 with m > k^2, the minimum-norm
       weights of _interior_weights decide feasible when their defect is
       at most ``tol``; they certify nothing when they miss.
    4. NNLS on the vectorized system of _gram_columns, capped at
       ``max_iter`` (default 50 m) iterations, decides the rest.

    The certificate of an infeasible verdict is "open-quadrant" in a
    two-dimensional range whose sign-normalized coordinates sit in one
    open quadrant, else "half-plane" when their doubled angles fit in an
    open half circle; both need no solver.  In a range of dimension
    k >= 3 it is "residual-infeasible" after step 2, and after NNLS when
    _farkas_bound of the unit rows at the run's _farkas_residual exceeds
    ``tol``, whether NNLS converged, hit ``max_iter`` or stalled.
    Otherwise it is "undecided": the residual only bounds the optimum
    from above.

    The constants are the unique weights after step 2 on a nonsingular
    Gram system, the unique minimum-norm weights after step 3, and
    otherwise whichever weights the deciding solve reached; no canonical
    element of a non-unique feasible set is sought.  Raises ValueError
    for a tol that is not finite and positive (_check_tol), and for rows
    whose constants exceed the largest double (_row_constants).
    """
    _check_tol(tol)
    U, r, e = _unit_rows(as_vector_array(vectors))
    C, warnings = _range_coordinates(U, target, tol)
    verdict = _decide(U, C, tol, max_iter)
    if warnings:
        verdict = replace(verdict, warnings=warnings)
    if verdict.feasible and target is None:
        _post_check_unit_norm_invariants(verdict.scaling.constants, U, tol)
    if not verdict.feasible or r is None:
        return verdict
    constants = _row_constants(verdict.scaling.constants, r, e)
    return replace(verdict, scaling=replace(verdict.scaling, constants=constants))


def _range_coordinates(V: np.ndarray, target: OrthogonalProjection | None, tol: float) -> tuple[np.ndarray, tuple]:
    # the coordinates of the rows V in the range basis of a target of rank
    # below n, else V, and the warning on rows that leave the range
    n = V.shape[1]
    if target is not None and target.dim != n:
        raise ValueError(f"target acts on R^{target.dim} but vectors live in R^{n}")
    if target is None or target.rank == n:
        return V, ()
    leak = np.linalg.norm(V - V @ target.matrix, axis=1)
    bad = np.count_nonzero(leak > tol)
    warning = f"{bad} vector(s) projected onto the target range (worst out-of-range norm {leak.max():.3e})"
    return V @ target.range_basis, (warning,) if bad else ()


def _decide(V: np.ndarray, C: np.ndarray, tol: float, max_iter: int | None) -> ScalabilityVerdict:
    # the steps of solve_standard_scaling in order on the rows V with range
    # coordinates C; the first that decides returns its verdict
    m, k = C.shape
    tall = k > 2 and m > k * k
    if k >= 2 and not tall:
        scales = np.linalg.norm(V, axis=1)
        rows = scales > 0.0
        # C itself when no row is zero: a gathered copy moves residual bytes
        D = C if rows.all() else C[rows]
        trusted = len(D) and (np.linalg.norm(D, axis=1) > _TRUSTED_SIDE * scales[rows]).all()
        if trusted and k == 2:
            s = _half_plane_margin(D[None])[0]
            if s > 10.0 * tol:
                return _infeasible(C, tol, float(np.sqrt(2.0) * s / np.sqrt(1.0 + s * s)))
        elif trusted:
            w, value = _gram_weights(D, tol)
            if w is not None:
                x = np.zeros(m)
                x[rows] = w
                return _feasible(x, value, k)
            if value:
                return _infeasible(C, tol, value)
    system = None
    if tall:
        A, b = system = _gram_columns(C), _vech(np.eye(k))
        w = _interior_weights(A, b)
        if w is not None and (defect := float(np.linalg.norm(A @ w - b))) <= tol:
            return _feasible(w, defect, k)
    return _nnls_verdict(C, tol, max_iter, system)


def _standard_verdict(V: np.ndarray, tol: float) -> ScalabilityVerdict:
    """Step 4 of solve_standard_scaling alone, NNLS and its certificates, on the rows V as given toward I.

    The search's side solves take it: their rows keep the lengths of
    their parts, the sampled stage screened them already, and the
    disjoint-support test needs NNLS's sparse basic solutions.
    """
    return _nnls_verdict(V, tol, None, None)


def _nnls_verdict(C: np.ndarray, tol: float, max_iter: int | None, system) -> ScalabilityVerdict:
    # step 4 on the range coordinates C, on step 3's vectorized system when it built one
    run = nnls(*(system or (_gram_columns(C), _vech(np.eye(C.shape[1])))), max_iter=max_iter)
    if run.residual <= tol:
        return _feasible(run.x, run.residual, C.shape[1], run.converged, run.iterations)
    return _infeasible(C, tol, run.residual, run)


def _feasible(w: np.ndarray, defect: float, rank: int, converged=True, iterations=0) -> ScalabilityVerdict:
    scaling = StandardScaling(constants=np.sqrt(np.maximum(w, 0.0)), residual=defect, target_rank=rank)
    return ScalabilityVerdict(True, scaling, None, defect, (), converged, iterations)


def _infeasible(C: np.ndarray, tol: float, residual: float, run: NNLSResult | None = None) -> ScalabilityVerdict:
    # the labelled infeasible verdict on the range coordinates C: residual
    # is a bound a step before NNLS certified, or the defect of the NNLS run
    rank = C.shape[1]
    nonzero = C[np.linalg.norm(C, axis=1) > 0.0]
    if rank == 2 and nonzero.shape[0] and open_quadrant_certificate(nonzero):
        certificate = "open-quadrant"
    elif rank == 2 and nonzero.shape[0] and (run is None or _half_plane_margin(nonzero[None])[0] > 0.0):
        # step 1's bound comes from a positive half-plane margin
        certificate = "half-plane"
    elif run is None:
        certificate = "residual-infeasible"
    else:
        units = nonzero / np.linalg.norm(nonzero, axis=1, keepdims=True)
        R = _farkas_residual(C, run.x)
        certificate = "residual-infeasible" if _farkas_bound(units[None], R[None])[0] > tol else "undecided"
    if run is None:
        return ScalabilityVerdict(False, None, certificate, residual)
    return ScalabilityVerdict(False, None, certificate, residual, (), run.converged, run.iterations)
