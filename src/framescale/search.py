"""The seeded search's machinery: the orthogonal-split route and the sampled stage.

search_piecewise and its candidate stream, _candidate_scalings, live in
piecewise.py, which imports this module only when the stream reaches the
route, so verify, transport and the searches a constructor answers never
load it.  The route calls construct_from_orthogonal_split through the
piecewise module, at call time, so a rebinding there reaches it.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import lru_cache

import numpy as np

from . import piecewise
from .frames import Frame, _freeze
from .piecewise import PiecewiseScaling, _greedy_independent
from .projections import _leading_projection
from .scaling import (
    _TRUSTED_SIDE,
    _farkas_bound,
    _farkas_residual,
    _gram_columns,
    _half_plane_margin,
    _standard_verdict,
)


def _disjoint_split_candidate(X: np.ndarray, G: np.ndarray, tol: float):
    """Disjoint-support split for the candidate of the Gaussian block G (n, k), or None.

    The candidate and its two sides are search_piecewise's, in the
    complete QR of G alone.  The higher-rank side is solved first, the
    range on a tie, since a rank-1 side always scales; the other side is
    solved only when the first scales.  Two scaling sides make a split
    only when their supports are disjoint, so a_i b_i = 0 and the mixed
    term vanishes; a shared index returns None.  A miss proves nothing:
    a side re-solved on the rows the other side leaves free may still
    scale, as its new weights may use rows outside the old support
    (ROADMAP.md, "Shared supports").
    """
    k = G.shape[1]
    Q = np.linalg.qr(G, mode="complete")[0]
    W = X @ Q
    sides = (W[:, :k], W[:, k:])
    constants = [None, None]
    for i in sorted(range(2), key=lambda i: -sides[i].shape[1]):
        verdict = _standard_verdict(sides[i], tol)
        if not verdict.feasible:
            return None
        constants[i] = verdict.scaling.constants
    if ((constants[0] > 0.0) & (constants[1] > 0.0)).any():
        return None
    return PiecewiseScaling(_leading_projection(Q, k), *constants)


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

# cells per batch of the sampled stage's screen (_screen_batch)
_FARKAS_CELLS = 2**20

# the cone step's rounding allowance per unit of the dimension n and of
# the largest row norm, more than 10^6 n u (_rejected_draws, "Cone.")
_CONE_ROUNDING = 2.0**-32

# the cone step's allowance for the angle arithmetic of _half_plane_margin,
# an absolute error on a margin (_rejected_draws, "Cone.")
_CONE_ANGLES = 2.0**-40


def _farkas_margin(units: np.ndarray, stop: float = np.inf) -> np.ndarray:
    """Each family's largest _farkas_bound over the checkpoints of its FISTA run.

    ``units`` has shape (C, m, d) with unit rows.  FISTA minimises the
    solver's own objective ||A w - b||^2 / 2 over w >= 0, with A the
    vectorized system of _gram_columns and b the weighted upper triangle
    of I.  For unit rows A^T b = 1, so the gradient is A^T (A y) - 1; the
    step is 1 / L with L the largest entry of A^T (A 1), the largest row
    sum of the nonnegative A^T A, which bounds its largest eigenvalue.
    At each step of _FARKAS_CHECKPOINTS the bound is evaluated at the
    _farkas_residual of the weights, a direction, not an optimum.  A
    family whose bound exceeds ``stop`` leaves the stack; the others take
    exactly the steps of a stack without exits, so a family's margin does
    not depend on the families stacked with it.  A margin above ``stop``
    may be lower than the fixed run of every step would give, but it is
    still a bound above ``stop``.
    """
    A = _gram_columns(units)
    AT = A.transpose(0, 2, 1)
    step = 1.0 / (AT @ A.sum(axis=2, keepdims=True)).max(axis=1, keepdims=True)
    w = y = np.zeros((*units.shape[:2], 1))
    margin = np.full(len(units), -np.inf)
    live = np.arange(len(units))
    for count, beta in enumerate(_FARKAS_MOMENTUM, 1):
        w_next = np.maximum(y + step * (1.0 - AT @ (A @ y)), 0.0)
        y = w_next + beta * (w_next - w)
        w = w_next
        if count not in _FARKAS_CHECKPOINTS:
            continue
        bound = _farkas_bound(units, _farkas_residual(units, w[..., 0]))
        margin[live] = np.maximum(margin[live], bound)
        leave = bound > stop
        if leave.all():
            break
        if leave.any():
            stay = ~leave
            live, units, A, AT, step, w, y = (a[stay] for a in (live, units, A, AT, step, w, y))
    return margin


def _side_margins(coords: np.ndarray, scales: np.ndarray, tol: float) -> np.ndarray:
    """Screen margins of stacked side families, in coordinates (C, m, d) of their range, d >= 2.

    ``scales`` are the norms of the m frame rows.  A family is judged
    only when each of its rows has a part above _TRUSTED_SIDE of its
    scale: a two-dimensional side by its _half_plane_margin, a side of
    dimension d >= 3 by the _farkas_margin of its unit coordinates.  A
    family that is not judged gets -inf.
    """
    margin = np.full(len(coords), -np.inf)
    norms = np.sqrt(np.einsum("cmj,cmj->cm", coords, coords))
    trusted = np.flatnonzero((norms > _TRUSTED_SIDE * scales).all(axis=1))
    if trusted.size == 0:
        return margin
    if coords.shape[2] == 2:
        margin[trusted] = _half_plane_margin(coords[trusted])
    else:
        margin[trusted] = _farkas_margin(coords[trusted] / norms[trusted, :, None], 10.0 * tol)
    return margin


def _cone_rejects(X: np.ndarray, scales: np.ndarray, n: int, k: int, tol: float) -> bool:
    """Whether the cone step of _rejected_draws rejects every rank-k candidate in R^n, on the rows X of nonzero norms ``scales``."""
    if (k, n - k) != (2, 2):
        return False
    x0, size = X[0], scales.max()
    delta = _CONE_ROUNDING * n * size
    D = X - x0
    rho = np.sqrt(np.einsum("mn,mn->m", D, D).max()) + delta
    # the larger of x0's parts on the two planes
    part = np.sqrt(max(scales[0] ** 2 - delta * size, 0.0) / 2.0) - delta
    trusted = part - rho > _TRUSTED_SIDE * size
    return bool(trusted and (1.0 - 10.0 * tol - _CONE_ANGLES) * part * part > 2.0 * rho * rho)


def _rejected_draws(X: np.ndarray, G: np.ndarray, tol: float) -> np.ndarray:
    """Which candidates, given by their Gaussian blocks G (C, n, k), a side proves infeasible.

    This is the one account of the sampled stage's screen.  A candidate
    is rejected when one of its sides has a _side_margins margin above
    10 tol on the rows of nonzero norm.  Both margins bound the distance
    for any weights, so a rejected candidate's distance exceeds tol and
    the feasibility solve could only reject it.  A one-dimensional side
    always scales, so it is never judged.  The cone step goes first and
    may reject the whole batch by the first row alone; otherwise the
    exact screen judges the smaller of the sides of dimension 2 or more
    first, the range on a tie, and the other only for the candidates the
    first kept; once none is left the screen returns.

    Cone.  Let x_0 be the first row of nonzero norm and rho the largest
    ||x_i - x_0||.  An orthogonal projection shortens differences, so a
    side's part of x_i lies within rho of its part of x_0.  Where that
    part has norm r > rho, every part is longer than r - rho and makes an
    angle of at most asin(rho / r) with it, so the doubled angles fit in
    an arc of 4 asin(rho / r), and a two-dimensional side has half-plane
    margin at least cos(2 asin(rho / r)) = 1 - 2 rho^2 / r^2.  At rank 2
    in R^4 both sides are planes, and the squares of x_0's two parts sum
    to ||x_0||^2, so the larger part has r >= ||x_0|| / sqrt(2).  The
    step rejects every candidate of the batch when, at that r,
    1 - 2 rho^2 / r^2 exceeds 10 tol and r - rho exceeds _TRUSTED_SIDE of
    the largest row norm S: then on each candidate's larger side
    _side_margins trusts every part and finds a margin above 10 tol, so
    the exact screen rejects the candidate too and the step changes no
    rejection.  That holds whenever rho is a little below ||x_0|| / 2.
    At any other rank, or at a larger rho, the step rejects nothing and
    costs at most O(m n).
    Rounding: the exact screen's parts are products in its own factor,
    and with delta = _CONE_ROUNDING n S each thing that moves them from
    their exact values is far below delta: a product's rounding (about
    n^1.5 u S) and the factor's departure from orthonormality (O(n u)
    relative).  So the step takes rho + delta for rho and
    sqrt((||x_0||^2 - delta S) / 2) - delta for r, where delta S bounds
    the squared norm's rounding, and it asks 1 - 2 rho^2 / r^2 to exceed
    10 tol + _CONE_ANGLES, which covers the few ulps of 2 pi that the
    arctan2, sort and gaps of _half_plane_margin lose.

    Factors.  One stacked complete QR of the blocks serves both sides,
    whose coordinates are column slices of one batched product X Q.  A
    survivor is solved in the complete QR of its block alone
    (_disjoint_split_candidate), which is the factor the stack gave it.
    Both margins are invariant under orthogonal maps of a side's
    coordinates, and rounding moves a margin far less than the 9 tol
    between the solver's tol and the screen's 10 tol: a margin above
    10 tol still proves that the solver misses.

    Batches.  _surviving_candidates draws and screens the candidates in
    batches of _screen_batch(m, n) blocks for the m rows of X in R^n.  The
    largest array per candidate is the system _gram_columns stacks for
    _farkas_margin, m d (d + 1) / 2 cells on a side of dimension d < n,
    and as m >= n the cap m n (n + 1) / 2 also bounds the blocks, their QR
    factors and the side coordinates, so memory does not grow with the
    budget.
    """
    n, k = G.shape[1:]
    scales = np.sqrt((X * X).sum(axis=1))
    X, scales = X[scales > 0.0], scales[scales > 0.0]
    if _cone_rejects(X, scales, n, k, tol):
        return np.ones(len(G), dtype=bool)
    rejected = np.zeros(len(G), dtype=bool)
    # the column slices of Q of the sides of dimension 2 or more, smaller first
    sides = [cols for d, cols in ((k, slice(0, k)), (n - k, slice(k, n))) if d >= 2]
    if k > n - k:
        sides.reverse()
    if not sides:
        return rejected
    live = np.arange(len(G))
    W = X @ np.linalg.qr(G, mode="complete")[0]
    for cols in sides:
        out = _side_margins(W[:, :, cols], scales, tol) > 10.0 * tol
        rejected[live[out]] = True
        live, W = live[~out], W[~out]
        if live.size == 0:
            break
    return rejected


def _screen_batch(m: int, n: int) -> int:
    # blocks per batch of the screen for m rows in R^n, m n (n + 1) / 2 cells each (_rejected_draws)
    return max(1, _FARKAS_CELLS // (m * n * (n + 1) // 2))


def _candidate_blocks(n: int, k: int, budget: int, seed: int, batch: int):
    """search_piecewise's candidate stream of rank k in R^n, ``batch`` blocks at a time: (j, blocks j, j + 1, ...)."""
    rng = np.random.default_rng((seed, k))
    for start in range(0, budget, batch):
        yield start, rng.standard_normal((min(batch, budget - start), n, k))


def _surviving_candidates(X: np.ndarray, k: int, budget: int, seed: int, tol: float):
    """Rank-k candidates the screen keeps, in order, with their Gaussian blocks; none are drawn after a hit."""
    for start, G in _candidate_blocks(X.shape[1], k, budget, seed, _screen_batch(*X.shape)):
        for c in np.flatnonzero(~_rejected_draws(X, G, tol)):
            yield start + int(c), G[c]


# starts per rank of the orthogonal-split route, the blocks of
# candidates 0, 1, 2 of the search, and Levenberg-Marquardt steps per start
_SPLIT_STARTS = 3
_SPLIT_STEPS = 30

# first damping of a start, divided by 10 after each accepted step and
# multiplied by 10 after each rejected one
_SPLIT_DAMPING = 1e-2


@lru_cache(maxsize=32)
def _split_tables(n: int, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    # _split_system's owned mask, the flat index i n + j of each pair (i, j)
    # within S or within T, and the rows a, b of the blocks M_ab it needs,
    # M_ij, M_ji, M_ii and M_jj of every pair, stacked; cached per (n, k),
    # so every caller shares the arrays: they are read-only
    own = (np.arange(n) < k)[:, None] == (np.arange(n) < k)[None, :]
    i, j = (np.concatenate([p, q + k]) for p, q in zip(np.triu_indices(k, 1), np.triu_indices(n - k, 1)))
    a, b = np.concatenate([i, j, i, j]), np.concatenate([j, i, i, j])
    return _freeze(own), _freeze(i * n + j), _freeze(a), _freeze(b)


def _split_system(V: np.ndarray, k: int):
    """Residuals and Jacobian of the orthogonal split of the rows of V, as a function of Q.

    The range is spanned by the first k columns of the orthogonal Q, the
    complement by the rest, and W = V Q holds the rows' coordinates.  A row
    of S (rows :k) owns its range part, a row of T (rows k:) its complement
    part; the residuals are the cosines of the owned parts of the pairs
    within S and within T.  The unknowns are the entries of Delta,
    (n - k) x k, in the chart Q[:, :k] + Q[:, k:] Delta, that is
    W <- W (I + A) with A = [[0, -Delta^T], [Delta, 0]] to first order.
    With u and e a row's owned and other part over the norm of the owned
    part, the derivative of cos_ij in Delta is M_ij + M_ji -
    cos_ij (M_ii + M_jj), where M_ab is the block [k:, :k] of
    e_a u_b^T - u_b e_a^T.  The function returns None where an owned part
    is at most _TRUSTED_SIDE of its row: its direction is set by rounding.
    """
    own, pairs, a, b = _split_tables(V.shape[0], k)

    def system(Q: np.ndarray):
        W = V @ Q
        O = W * own
        owned = (O * O).sum(axis=1)
        if (owned <= _TRUSTED_SIDE**2 * (W * W).sum(axis=1)).any():
            return None
        norms = np.sqrt(owned)[:, None]
        u, e = O / norms, (W - O) / norms
        cos = (u @ u.T).take(pairs)
        E, U = e.take(a, axis=0), u.take(b, axis=0)
        M = E[:, k:, None] * U[:, None, :k] - U[:, k:, None] * E[:, None, :k]
        m_ij, m_ji, m_ii, m_jj = M.reshape(4, -1, M.shape[1] * k)
        return cos, m_ij + m_ji - cos[:, None] * (m_ii + m_jj)

    return system


def _solve_split(system, Q: np.ndarray, k: int, tol: float) -> np.ndarray | None:
    """Levenberg-Marquardt on a _split_system from the orthogonal Q; the final Q or None.

    Each step is the minimum-norm damped Gauss-Newton step
    Delta = -J^T (J J^T + lam I)^-1 r, taken as Q <- qr(Q[:, :k] +
    Q[:, k:] Delta), and is kept only when it lowers ||r||.  The solve
    stops at ||r|| <= tol / 1000 or after _SPLIT_STEPS steps, and returns
    Q only when ||r|| <= tol.
    """
    start = system(Q)
    if start is None:
        return None
    r, J = start
    cost = float(r @ r)
    damping, eye = _SPLIT_DAMPING, np.eye(len(r))
    for _ in range(_SPLIT_STEPS):
        if cost <= (1e-3 * tol) ** 2:
            break
        step = -J.T @ np.linalg.solve(J @ J.T + damping * eye, r)
        trial_Q = np.linalg.qr(Q[:, :k] + Q[:, k:] @ step.reshape(-1, k), mode="complete")[0]
        trial = system(trial_Q)
        if trial is not None and float(trial[0] @ trial[0]) < cost:
            Q, (r, J), cost = trial_Q, trial, float(trial[0] @ trial[0])
            damping /= 10.0
        else:
            damping *= 10.0
    return Q if cost <= tol * tol else None


def _orthogonal_split_route(fr: Frame, ranks, seed: int, tol: float, budget: int = _SPLIT_STARTS) -> Iterator[PiecewiseScaling]:
    """Orthogonal-split scalings solved for at the given ranks, in order.

    Rank k picks k rows S and then n - k further rows T by pivoted
    selection, and looks for a rank-k projection under which the parts
    P x_i (i in S) are orthogonal and so are the (I - P) x_j (j in T);
    reciprocal norms then give an orthonormal basis.  The system has
    C(k, 2) + C(n - k, 2) cosines and k (n - k) unknowns, so a rank with
    more cosines, (n - 2k)^2 > n, is skipped.  The other ranks are tried
    nearest to n / 2 first, each from the first batch of _SPLIT_STARTS
    blocks of _candidate_blocks, so the route adds no seed stream.  From
    each start _solve_split solves for the pairwise cosines of the parts
    (_split_system); cosines, unlike raw inner products, keep the parts
    away from zero.  Each solution that construct_from_orthogonal_split
    accepts is yielded unverified; a miss proves nothing.
    """
    X = fr.vectors
    n = fr.dim
    solvable = [k for k in ranks if (n - 2 * k) ** 2 <= n]
    for k in sorted(solvable, key=lambda k: (abs(2 * k - n), k)):
        try:
            S = _greedy_independent(X, k)
            T = _greedy_independent(X, n - k, S)
        except ValueError:
            continue
        system = _split_system(X[list(S + T)], k)
        for G in next(_candidate_blocks(n, k, budget, seed, _SPLIT_STARTS))[1]:
            Q = _solve_split(system, np.linalg.qr(G, mode="complete")[0], k, tol)
            if Q is None:
                continue
            try:
                ps = piecewise.construct_from_orthogonal_split(X, _leading_projection(Q, k), S, T, tol)
            except ValueError:
                continue
            yield ps

