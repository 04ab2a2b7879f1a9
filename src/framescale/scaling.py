"""Standard scalability as nonnegative linear feasibility.

A family is scalable when nonnegative weights on the outer products
v_i v_i^T reproduce the target operator.  Toward a projection target of
rank k this is the identity problem sum_i w_i c_i c_i^T = I_k in the
coordinates c_i = B^T v_i of an orthonormal range basis B, since a
unitary map changes neither the cone nor the Frobenius distance; the
identity target is the case B = I.  solve_standard_scaling states once
the order in which the steps below decide it.  The search's sampled
stage batches the same screen over stacked families (_side_margins).
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .frames import DEFAULT_TOL, InternalInconsistencyError, _freeze, _row_constants, _unit_rows, as_vector_array
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
    reached.  A verdict with ``iterations`` 0 from solve_standard_scaling
    ran no NNLS and has ``converged`` True: a step before NNLS decided it
    (see there).  When such a verdict is infeasible, ``residual`` is the
    certified lower bound above 10 tol on the distance from the target to
    the cone, not a defect any weights reached.
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
    # product per p fills the C-ordered (n (n + 1) / 2, m) array
    m, n = V.shape
    _, weights = _sym_embedding(n)
    VT = np.ascontiguousarray(V.T)
    A = np.empty((weights.size, m))
    start = 0
    for p in range(n):
        np.multiply(VT[p], VT[p:], out=A[start : start + n - p])
        start += n - p
    A *= weights[:, None]
    return A


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
    # the Frobenius norms as np.linalg.norm forms them, without its dispatch
    norm = np.sqrt((R * R).sum(axis=(1, 2)))
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
# step, so a family that stays is judged where the fixed run judged it;
# a shorter run also checks its own last step
_FARKAS_CHECKPOINTS = frozenset([2**i for i in range(8)] + [len(_FARKAS_MOMENTUM)])

# FISTA steps of the screen solve_standard_scaling runs before NNLS; on
# the infeasible wide frames of the large-frames benchmark every
# rejection comes by step 16
_SCREEN_STEPS = 16

# Gram cells (families times rows squared) per batch of the screen; the
# search draws its candidates in batches of this many cells, and as
# m >= n it also caps a batch's blocks, QR factors and side coordinates.
# A side whose m^2 alone exceeds it is not screened, and a family whose
# m^2 does gets no least-squares weights (_gram_weights)
_FARKAS_CELLS = 2**20


def _farkas_margin(units: np.ndarray, stop: float = np.inf, steps: int = len(_FARKAS_MOMENTUM)) -> np.ndarray:
    """Each family's largest _farkas_bound over the checkpoints of its FISTA run of ``steps`` steps.

    FISTA minimises ||sum_i w_i u_i u_i^T - I||_F^2 / 2 over w >= 0.
    ``units`` has shape (C, m, d) with unit rows.  The gradient is H w - 1
    with H_ij = (u_i^T u_j)^2, and the step is 1 / L with L the largest
    row sum of H, which bounds its largest eigenvalue; a gradient step
    y - (H y - 1) / L is then one batched product (I - H / L) y + 1 / L.
    At each step of _FARKAS_CHECKPOINTS up to ``steps``, and at the last
    step, the bound is evaluated at the residual I - sum_i w_i u_i u_i^T,
    a direction, not an optimum.  A family whose bound exceeds ``stop``
    leaves the stack; the others take exactly the steps of a stack
    without exits, so a family's margin does not depend on the families
    stacked with it.  A margin above ``stop``
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
    for count, beta in enumerate(_FARKAS_MOMENTUM[:steps], 1):
        w_next = np.maximum(descent @ y + step, 0.0)
        y = w_next + beta * (w_next - w)
        w = w_next
        if count not in _FARKAS_CHECKPOINTS and count < steps:
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


def _side_margins(coords: np.ndarray, scales: np.ndarray, tol: float, steps: int = len(_FARKAS_MOMENTUM)) -> np.ndarray:
    """Screen margins of stacked side families, in coordinates (C, m, d) of their range.

    ``scales`` are the norms of the m frame rows.  A family is judged
    only when each of its rows has a part above _TRUSTED_SIDE of its
    scale.  A two-dimensional side then gets its half-plane margin, a
    side of dimension d >= 3 the Farkas bound
    (tr R^ - d delta) / (1 + sqrt(d) delta) at the residuals R of
    ``steps`` FISTA steps on its unit coordinates (_farkas_margin).  A
    margin above 10 tol proves that the family cannot scale.  A family
    that is not judged, and a one-dimensional side, which always scales,
    gets -inf.
    """
    margin = np.full(len(coords), -np.inf)
    d = coords.shape[2]
    if d < 2:
        return margin
    norms = np.sqrt((coords * coords).sum(axis=2))
    trusted = np.flatnonzero((norms > _TRUSTED_SIDE * scales).all(axis=1))
    if trusted.size == 0:
        return margin
    if d == 2:
        margin[trusted] = _half_plane_margin(coords[trusted])
    else:
        margin[trusted] = _farkas_margin(coords[trusted] / norms[trusted, :, None], 10.0 * tol, steps)
    return margin


def _screen_bound(V: np.ndarray, C: np.ndarray, tol: float) -> float:
    """A certified lower bound above 10 tol on the distance from I to the cone of the rows C, or 0.

    C holds the range coordinates of the m rows V, and the rows of V
    with norm zero are left out.  A two-dimensional range is judged by
    its half-plane margin s, whose direction gives the distance
    sqrt(2) s / sqrt(1 + s^2); a range of dimension d >= 3 by the Farkas
    margin of _SCREEN_STEPS FISTA steps.  Its callers screen such a range
    only when m <= d^2, where a step costs m^2 cells, no more than the
    m d^2 of the solve's system.  Where the screen proves nothing, the
    result is 0.
    """
    d = C.shape[1]
    scales = np.linalg.norm(V, axis=1)
    rows = scales > 0.0
    if not rows.any():
        return 0.0
    s = _side_margins(C[rows][None], scales[rows], tol, _SCREEN_STEPS)[0]
    if not s > 10.0 * tol:
        return 0.0
    return float(np.sqrt(2.0) * s / np.sqrt(1.0 + s * s)) if d == 2 else float(s)


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


def _gram_weights(C: np.ndarray, tol: float) -> tuple[NNLSResult | None, float]:
    """Decide the rows C by the least-squares weights of sum_i w_i c_i c_i^T = I, or leave them.

    With H = (C C^T)^2 entrywise, H w = (||c_i||^2)_i are the normal
    equations of that system.  Returns (the NNLSResult of w, its defect
    and 0 iterations, 0.0) when a solution of _psd_solves has w >= 0 and
    defect ||I - sum_i w_i c_i c_i^T||_F <= tol, and (None, bound) when
    _farkas_bound of the unit rows at the plain solution's residual is a
    bound above 10 tol; otherwise (None, 0.0).
    """
    G = C @ C.T
    sq = np.diag(G)
    for plain, w in zip((True, False), _psd_solves(G * G, sq)):
        if w is None:
            continue
        R = np.eye(C.shape[1]) - (C.T * w) @ C
        defect = float(np.linalg.norm(R))
        if defect <= tol and (w >= 0.0).all():
            return NNLSResult(w, defect, True, 0), 0.0
        if plain:
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
    outside S when fewer than half are.  Each solve is _psd_solve's, so a
    nearly singular A A^T, say rows repeated up to rounding, gets Tikhonov
    weights near the minimiser.  When S is the set the last solve used,
    A w = b up to rounding and w is the minimiser; the run also stops
    when a step does not halve ||g||, after _NEWTON_STEPS steps, or when
    no solve succeeds.  Returns the w of the smallest ||g|| reached, or
    None when A A^T admits no solve.  A w away from b proves nothing: the
    caller must check ||A w - b||.
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
        N = ~S
        if 2 * np.count_nonzero(N) < len(S):
            AN = A[:, N]
            GS = G - AN @ AN.T
        else:
            AS = A[:, S]
            GS = AS @ AS.T
        dy = _psd_solve(GS, g)
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
    orthonormal range basis B of a projection target of rank k < n, so
    the distance equals the ambient ||sum_i w_i (P v_i)(P v_i)^T - P||_F;
    a full-rank target is the identity.  Vectors with a part outside the
    range above ``tol`` times their norm are recorded in a warning, and
    the constants scale their projections.

    The decision order.  Step 1 runs only when every row has a range part
    above _TRUSTED_SIDE of its norm and m^2 is at most _FARKAS_CELLS for
    the m rows, step 2 only when every nonzero row has such a part.  A
    step that decides returns a verdict with ``iterations`` 0 and
    ``converged`` True, and no NNLS runs.

    1. In a range of dimension k >= 3 with m <= k^2, the least-squares
       weights of H w = (||c_i||^2)_i, H = ((c_i^T c_j)^2), the normal
       equations of the system (_gram_weights): the plain solve, then, if
       that neither decides nor certifies, a Tikhonov one (_psd_solves).
       Weights w >= 0 whose defect, computed directly, is at most ``tol``
       decide feasible.  A Farkas bound above 10 ``tol`` at the plain
       solve's residual decides infeasible.
    2. The screen (_screen_bound), in a two-dimensional range or one of
       dimension k >= 3 with m <= k^2: a half-plane margin, or the Farkas
       bound along 16 FISTA steps, above 10 ``tol`` decides infeasible.
    3. In a range of dimension k >= 3 with m > k^2, the minimum-norm
       weights of at most _NEWTON_STEPS semismooth Newton steps
       (_interior_weights) decide feasible when their defect is at most
       ``tol``; they certify nothing when they miss.
    4. NNLS over the vectorized symmetric system, off-diagonal entries
       weighted by sqrt(2) so that its objective is the Frobenius defect,
       capped at ``max_iter`` (default 50 m) iterations, decides the rest.

    An infeasible verdict from step 1 or 2 reports as ``residual`` its
    certified lower bound on the distance.  Its certificate, and that of
    an NNLS run above ``tol``, is "open-quadrant" in a two-dimensional
    range whose sign-normalized coordinates sit in one open quadrant,
    else "half-plane" when their doubled angles fit in an open half
    circle; both need no solver.  In a range of dimension k >= 3 it is
    "residual-infeasible" after step 1 or 2, and after NNLS when
    _farkas_bound of the unit rows at the run's residual exceeds ``tol``.
    The bound holds for any weights, so it certifies whether NNLS
    converged, hit ``max_iter`` or stalled.  Otherwise the certificate is
    "undecided": the residual only bounds the optimum from above.

    The constants are the unique weights after step 1 on a nonsingular
    H, the unique minimum-norm weights after step 3, and otherwise
    whichever weights the deciding solve reached, on a singular H those
    of the plain solve or else the Tikhonov one; no canonical element of
    a non-unique feasible set is sought.  A positive factor on a vector
    is absorbed by its constant, so the question is decided on the unit
    rows v_i / ||v_i|| (_unit_rows), and a feasible verdict's constants
    are theirs divided by ||v_i||.  Rows with a constant above the
    largest double raise ValueError.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    U, r, e = _unit_rows(as_vector_array(vectors))
    verdict = _standard_verdict(U, target, tol, max_iter, screen=True)
    if verdict.feasible and target is None:
        _post_check_unit_norm_invariants(verdict.scaling.constants, U, tol)
    if not verdict.feasible or r is None:
        return verdict
    constants = _row_constants(verdict.scaling.constants, r, e)
    return replace(verdict, scaling=replace(verdict.scaling, constants=constants))


def _standard_verdict(
    V: np.ndarray, target: OrthogonalProjection | None, tol: float, max_iter: int | None = None, screen: bool = False
) -> ScalabilityVerdict:
    """solve_standard_scaling on the rows V as given, without normalising them.

    Only ``screen`` runs the steps solve_standard_scaling takes before
    NNLS.  The search's side coordinates are solved without them: their
    rows keep the lengths of their parts, the sampled stage screened them
    already, and the disjoint-support test needs NNLS's sparse basic
    solutions.
    """
    n = V.shape[1]
    warnings: list[str] = []
    if target is not None and target.dim != n:
        raise ValueError(f"target acts on R^{target.dim} but vectors live in R^{n}")
    if target is None or target.rank == n:
        # a full-rank target is the identity, whatever its range basis
        C = V
        rank = n
    else:
        C = V @ target.range_basis
        rank = target.rank
        leak = np.linalg.norm(V - V @ target.matrix, axis=1)
        bad = np.count_nonzero(leak > tol)
        if bad:
            warnings.append(
                f"{bad} vector(s) projected onto the target range "
                f"(worst out-of-range norm {leak.max():.3e})"
            )
    # a family of m > rank^2 rows in a range of dimension 3 or more is
    # tall: a screen step's m^2 cells would exceed the system's m rank^2,
    # and the minimum-norm weights of _interior_weights decide nearly
    # every tall family that scales
    m = C.shape[0]
    tall = rank > 2 and m > rank * rank
    result, bound = None, 0.0
    if screen and rank > 2 and not tall and m * m <= _FARKAS_CELLS:
        if (np.linalg.norm(C, axis=1) > _TRUSTED_SIDE * np.linalg.norm(V, axis=1)).all():
            result, bound = _gram_weights(C, tol)
    if screen and not tall and result is None and not bound:
        bound = _screen_bound(V, C, tol)
    if not bound:
        if result is None:
            A = _gram_columns(C)
            bvec = _vech(np.eye(rank))
            w = _interior_weights(A, bvec) if screen and tall else None
            if w is not None and (residual := float(np.linalg.norm(A @ w - bvec))) <= tol:
                # the test NNLS's result must meet, met without NNLS
                result = NNLSResult(w, residual, True, 0)
            else:
                result = nnls(A, bvec, max_iter=max_iter)
        if result.residual <= tol:
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
    elif bound:
        certificate = "residual-infeasible"
    else:
        units = nonzero / np.linalg.norm(nonzero, axis=1, keepdims=True)
        R = _unvech(bvec - A @ result.x, rank)
        certificate = "residual-infeasible" if _farkas_bound(units[None], R[None])[0] > tol else "undecided"
    if bound:
        return ScalabilityVerdict(False, None, certificate, bound, tuple(warnings), True, 0)
    return ScalabilityVerdict(
        False, None, certificate, result.residual, tuple(warnings), result.converged, result.iterations
    )
