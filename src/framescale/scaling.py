"""Standard scalability as nonnegative linear feasibility.

A family is scalable when nonnegative weights on the outer products
v_i v_i^T reproduce the target operator.  Toward a projection target of
rank k this is the identity problem sum_i w_i c_i c_i^T = I_k in the
coordinates c_i = B^T v_i of an orthonormal range basis B, since a
unitary map changes neither the cone nor the Frobenius distance; the
identity target is the case B = I.  The decision certifies before it
solves: a screen first looks for a proof that I_k lies more than
10 tol from the cone, the exact half-plane test on doubled angles in a
two-dimensional range, and in a range of dimension k >= 3 with at most
k^2 rows a Farkas bound at the residuals of 16 FISTA steps.  A family
the screen proves infeasible needs no solve.  A taller family in such a
range first gets the minimum-norm weights that reproduce I_k, from a few
semismooth Newton steps on their dual, and needs no solve when those
weights reach it within tol.  The others go to
nonnegative least squares over the vectorized symmetric system, with
off-diagonal entries weighted by sqrt(2) so that the euclidean objective
equals the Frobenius defect.  In two-dimensional ranges an open-quadrant
test, or failing that the half-plane test, certifies an infeasible
solve independently of the solver; elsewhere the Farkas bound evaluated
at the solver's residual must certify it, or the verdict is undecided.
The same screen, batched over stacked families (_side_margins), lets the
search skip the candidates whose solves could only report infeasibility.
"""

from __future__ import annotations

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
    decision, and ``residual`` is the Frobenius defect that run reached.
    An infeasible verdict carries the certificate "undecided" unless a
    two-dimensional range certifies it geometrically or the run's
    residual certifies it by its Farkas bound.  A verdict with
    ``iterations`` 0 from solve_standard_scaling ran no NNLS and has
    ``converged`` True.  When it is feasible, the minimum-norm weights of
    a tall family (_interior_weights) decided it, and ``residual`` is the
    defect they reach, at most tol.  When it is infeasible, the screen
    decided it with a certificate, and ``residual`` is the certified
    lower bound on the distance from the target to the cone, above
    10 tol, not a defect any weights reached.
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
# rejection comes by step 16, and a feasible frame pays only these steps
_SCREEN_STEPS = 16

# Gram cells (families times rows squared) per batch of the screen; the
# search draws its candidates in batches of this many cells, and as
# m >= n it also caps a batch's blocks, QR factors and side coordinates.
# A side whose m^2 alone exceeds it is not screened
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
    norms = np.linalg.norm(coords, axis=2)
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


def _interior_weights(A: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """Semismooth Newton weights for min ||w||^2 / 2 subject to A w = b, w >= 0, or None.

    The minimiser is w = (A^T y)_+ for a y that solves A (A^T y)_+ = b,
    the dual of Mangasarian's finite Newton method (J. Optim. Theory
    Appl. 2004).  Starting from y = (A A^T)^-1 b, each step takes
    w = (A^T y)_+ and g = b - A w and sets y += (A_S A_S^T)^-1 g on the
    columns S with A^T y > 0.  When S is the set the last solve used,
    A w = b up to rounding and w is the minimiser; the run also stops
    when ||g|| no longer falls, after _NEWTON_STEPS steps, or on a
    singular A_S A_S^T.  Returns the w of the smallest ||g|| reached, or
    None when A A^T itself is singular.  A w away from b proves nothing:
    the caller must check ||A w - b||.  On a nearly singular A A^T, say
    rows repeated up to rounding, a w that passes that check is still a
    scaling but need not be the minimiser.
    """
    try:
        y = np.linalg.solve(A @ A.T, b)
    except np.linalg.LinAlgError:
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
        w, gg = w_next, gg_next
        if step == _NEWTON_STEPS or (S == solved).all():
            break
        AS = A[:, S]
        try:
            y = y + np.linalg.solve(AS @ AS.T, g)
        except np.linalg.LinAlgError:
            break
        solved = S
    return w


def solve_standard_scaling(
    vectors,
    target: OrthogonalProjection | None = None,
    tol: float = DEFAULT_TOL,
    max_iter: int | None = None,
) -> ScalabilityVerdict:
    """Decide standard scalability toward the identity or a projection target.

    First screens the family for a proof that it cannot scale
    (_screen_bound), then solves
    min_{w >= 0} ||sum_i w_i c_i c_i^T - I_k||_F and declares the family
    feasible when the optimum is within ``tol``; the returned constants
    are sqrt(w).  The c_i are the vectors themselves for the identity
    target, and their coordinates B^T v_i in the orthonormal
    range basis B for a projection target, so a projection target is
    solved in range coordinates; the distance equals the ambient
    ||sum_i w_i (P v_i)(P v_i)^T - P||_F.  Vectors with a part outside the
    range above ``tol`` times their norm are recorded in a warning, and
    the constants scale their projections.  The constants of a tall
    family decided without NNLS (below) are the unique minimum-norm
    weights; otherwise they are the minimum-residual weights NNLS
    reached, and no attempt is made to pick a canonical element of a
    non-unique feasible set.

    The screen runs on the unit rows c_i / ||c_i|| when every row has a
    range part above _TRUSTED_SIDE of its norm.  In a two-dimensional
    range it rejects when the half-plane margin s exceeds 10 ``tol``; in a
    range of dimension k >= 3 with at most k^2 rows, when the Farkas bound
    at the residual of 16 FISTA steps, checked after steps 1, 2, 4, 8 and
    16, exceeds 10 ``tol``.  A rejection returns the infeasible verdict
    without NNLS: its ``residual`` is that lower bound on the distance,
    ``converged`` is True and ``iterations`` 0.  The bound proves the
    optimum above ``tol``, so the solve could only have found the family
    infeasible, and no feasible verdict depends on the screen.  Families
    the screen keeps are solved.

    A taller family, with more than k^2 rows in a range of dimension
    k >= 3, is not screened.  It first gets the weights
    w = argmin ||w||^2 subject to sum_i w_i c_i c_i^T = I_k, w >= 0, from
    at most _NEWTON_STEPS semismooth Newton steps on their dual
    (_interior_weights).  When those w reach
    ||sum_i w_i c_i c_i^T - I_k||_F <= ``tol``, the test NNLS's result
    must meet, the verdict is feasible with constants sqrt(w),
    ``converged`` True and ``iterations`` 0, and no NNLS runs.  Otherwise
    the family is solved as above; the weights certify nothing when they
    miss.  ``max_iter`` caps NNLS only.

    An infeasible verdict in a two-dimensional range carries the
    certificate "open-quadrant" when the sign-normalized coordinates sit
    in one open quadrant, else "half-plane" when their doubled angles fit
    in an open half circle (half-plane margin s > 0).  Both tests need no
    solver, so they certify infeasibility whether or not NNLS converged.
    A screened rejection in a range of dimension k >= 3 carries
    "residual-infeasible".  Otherwise the certificate is
    "residual-infeasible" when the residual
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

    The search's side coordinates are solved here: their rows keep the
    lengths of their parts, so a side part at rounding level stays one.
    The sampled stage screened them already, so only ``screen`` runs
    solve_standard_scaling's steps before NNLS: the screen (_screen_bound)
    and, on a tall family, the minimum-norm weights (_interior_weights).
    Side solves keep NNLS alone, whose sparse basic solutions the
    disjoint-support test needs.
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
    # a family of m > rank^2 rows in a range of dimension 3 or more is
    # tall: a screen step's m^2 cells would exceed the system's m rank^2,
    # and the minimum-norm weights of _interior_weights decide nearly
    # every tall family that scales
    tall = rank > 2 and C.shape[0] > rank * rank
    bound = _screen_bound(V, C, tol) if screen and not tall else 0.0
    if not bound:
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
