"""Piecewise scalings: verification, explicit constructors, and search.

A piecewise scaling splits every frame vector by an orthogonal projection
and scales the two parts separately, aiming for a Parseval family
a_i P x_i + b_i (I - P) x_i.  verify_piecewise checks one; constructors
cover frames in R^2 and R^3, orthogonal-split data in any dimension, and
a special position in R^4; a seeded search (search_piecewise) handles the
rest on a best-effort basis.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .frames import (
    DEFAULT_TOL,
    RANK_RTOL,
    Frame,
    InternalInconsistencyError,
    _check_tol,
    _freeze,
    _parseval_report,
    _row_constants,
    _unit_rows,
    as_vector_array,
    VerificationReport,
)
from .projections import (
    OrthogonalProjection,
    _leading_projection,
    _symmetrized,
    canonical_projection,
    complement,
    projection_from_basis,
)
from .scaling import (
    _TRUSTED_SIDE,
    _farkas_bound,
    _farkas_residual,
    _gram_columns,
    _half_plane_margin,
    _standard_verdict,
    solve_standard_scaling,
)


@dataclass(frozen=True)
class PiecewiseScaling:
    """Projection plus the per-index constants for the two projected parts."""

    projection: OrthogonalProjection
    a: np.ndarray
    b: np.ndarray

    def __post_init__(self) -> None:
        a = np.array(self.a, dtype=float).ravel()
        b = np.array(self.b, dtype=float).ravel()
        if a.shape != b.shape:
            raise ValueError(f"constant vectors differ in length: {a.shape} vs {b.shape}")
        object.__setattr__(self, "a", _freeze(a))
        object.__setattr__(self, "b", _freeze(b))

    @property
    def size(self) -> int:
        return self.a.shape[0]


@dataclass(frozen=True)
class PiecewiseReport:
    """Direct residual, both one-sided reports, and the mixed-term norm."""

    passed: bool
    p_side: VerificationReport
    q_side: VerificationReport
    cross_norm: float
    direct_residual: float
    tolerance: float


def _split_parts(frame, ps: PiecewiseScaling) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    X = as_vector_array(frame)
    P = ps.projection
    if P.dim != X.shape[1]:
        raise ValueError(f"projection acts on R^{P.dim} but vectors live in R^{X.shape[1]}")
    if ps.size != X.shape[0]:
        raise ValueError(f"scaling has {ps.size} constants for {X.shape[0]} vectors")
    Y = X @ P.matrix
    return X, Y, X - Y


def _scaled_parts(frame, ps: PiecewiseScaling) -> tuple[np.ndarray, np.ndarray]:
    # the rows a_i P x_i and b_i (I - P) x_i; the mixed term pairs these,
    # never a_i b_i, which can overflow where both parts stay finite
    _, Y, Z = _split_parts(frame, ps)
    return ps.a[:, None] * Y, ps.b[:, None] * Z


def scaled_family(frame, ps: PiecewiseScaling) -> np.ndarray:
    """Rows a_i P x_i + b_i (I - P) x_i of the rescaled family."""
    aY, bZ = _scaled_parts(frame, ps)
    return aY + bZ


def cross_operator(frame, ps: PiecewiseScaling) -> np.ndarray:
    """C = sum_i a_i b_i (P x_i) ((I - P) x_i)^T.

    The mixed term of the rescaled family vanishes exactly when C = 0:
    the quadratic form x -> x^T C x is the mixed sum, and a symmetric
    part of zero forces the whole operator to zero.
    """
    aY, bZ = _scaled_parts(frame, ps)
    return aY.T @ bZ


def verify_piecewise(frame, ps: PiecewiseScaling, tol: float = DEFAULT_TOL) -> PiecewiseReport:
    """Direct Parseval check plus the three-part decomposition.

    The decomposition is equivalent: each projected family must rebuild
    its projection operator and the mixed term (cross_operator) must
    vanish.  ``passed`` reflects the direct check.  The two routes must
    agree; a verdict gap with residuals beyond 10x tol raises
    InternalInconsistencyError because it can only come from a bug, not
    from the input.
    """
    _check_tol(tol)
    aY, bZ = _scaled_parts(frame, ps)
    P = ps.projection
    n = P.dim
    p_rep = _parseval_report(aY, P.matrix, tol)
    q_rep = _parseval_report(bZ, _symmetrized(np.eye(n) - P.matrix), tol)
    cross = float(np.linalg.norm(aY.T @ bZ, "fro"))
    W = aY + bZ
    direct = float(np.linalg.norm(W.T @ W - np.eye(n), "fro"))
    passed = direct <= tol
    three_way = p_rep.passed and q_rep.passed and cross <= tol
    if passed != three_way:
        worst = direct if three_way else max(p_rep.residual, q_rep.residual, cross)
        if worst > 10.0 * tol:
            raise InternalInconsistencyError(
                f"direct residual {direct:.3e} and decomposition residuals "
                f"(p={p_rep.residual:.3e}, q={q_rep.residual:.3e}, cross={cross:.3e}) disagree"
            )
    return PiecewiseReport(
        passed=passed,
        p_side=p_rep,
        q_side=q_rep,
        cross_norm=cross,
        direct_residual=direct,
        tolerance=tol,
    )


def _for_rows(ps: PiecewiseScaling, r: np.ndarray | None, e: np.ndarray | None) -> PiecewiseScaling:
    # constants found for the unit rows of _unit_rows, carried back to the rows x_i
    if r is None:
        return ps
    return PiecewiseScaling(ps.projection, _row_constants(ps.a, r, e), _row_constants(ps.b, r, e))


def _require_nontrivial(P: OrthogonalProjection) -> None:
    if P.is_trivial:
        raise ValueError("piecewise constructors need a non-trivial projection")


def _index_list(indices, m: int, what: str) -> list[int]:
    idx = [int(i) for i in indices]
    if len(set(idx)) != len(idx):
        raise ValueError(f"{what} contains repeated indices: {idx}")
    if any(i < 0 or i >= m for i in idx):
        raise ValueError(f"{what} must lie in [0, {m}), got {idx}")
    return idx


def construct_r2(frame, projection: OrthogonalProjection, tol: float = DEFAULT_TOL) -> PiecewiseScaling:
    """Scaling for a spanning family in R^2 under any non-trivial projection.

    Finds the first indices i != j with P x_i and (I - P) x_j both above
    tol and returns construct_from_orthogonal_split on S = {i}, T = {j}, an
    orthonormal basis of R^2; a spanning family without such a pair is
    numerically degenerate for P and raises ValueError.  It works on the
    unit rows of _unit_rows.
    """
    _check_tol(tol)
    X = _unit_rows(as_vector_array(frame))[0]
    m, n = X.shape
    if n != 2:
        raise ValueError("construct_r2 needs vectors in R^2")
    if Frame(X).numerical_rank() < 2:
        raise ValueError("frame must span R^2")
    if projection.dim != 2:
        raise ValueError("projection must act on R^2")
    _require_nontrivial(projection)
    Y = X @ projection.matrix
    yn = np.linalg.norm(Y, axis=1)
    zn = np.linalg.norm(X - Y, axis=1)
    for i in range(m):
        if yn[i] <= tol:
            continue
        for j in range(m):
            if j != i and zn[j] > tol:
                return construct_from_orthogonal_split(frame, projection, [i], [j], tol)
    raise ValueError("no pair i != j has P x_i and (I - P) x_j above tol; the frame is numerically degenerate")


def construct_from_orthogonal_split(
    frame,
    projection: OrthogonalProjection,
    p_indices,
    q_indices,
    tol: float = DEFAULT_TOL,
) -> PiecewiseScaling:
    """Reciprocal-norm constants on two disjoint index sets.

    The projected parts on ``p_indices`` must form an orthogonal set of
    nonzero vectors spanning the range of the projection, and likewise
    the complement parts on ``q_indices`` for the complementary range.
    Disjoint supports make the mixed term vanish structurally, so the
    rescaled family is an orthonormal basis.  The parts are those of the
    unit rows of _unit_rows.  A part at most tol times its vector's norm
    counts as numerically zero and raises ValueError, as does a
    normalized overlap above tol.  Every explicit constructor ends here
    on its caller's rows, and only here are constants carried back.
    """
    _check_tol(tol)
    X, r, e = _unit_rows(as_vector_array(frame))
    m, n = X.shape
    if projection.dim != n:
        raise ValueError(f"projection acts on R^{projection.dim} but vectors live in R^{n}")
    _require_nontrivial(projection)
    pidx = _index_list(p_indices, m, "p_indices")
    qidx = _index_list(q_indices, m, "q_indices")
    if set(pidx) & set(qidx):
        raise ValueError(
            "p_indices and q_indices must be disjoint so that a_i b_i = 0 at every index"
        )
    k = projection.rank
    if len(pidx) != k:
        raise ValueError(f"need exactly {k} p-side vectors to span the range, got {len(pidx)}")
    if len(qidx) != n - k:
        raise ValueError(f"need exactly {n - k} q-side vectors to span the complement, got {len(qidx)}")
    Y = X @ projection.matrix
    Z = X - Y
    a = np.zeros(m)
    b = np.zeros(m)
    a[pidx] = 1.0 / _check_orthogonal_nonzero(Y[pidx], tol, "projected p-side")
    b[qidx] = 1.0 / _check_orthogonal_nonzero(Z[qidx], tol, "complement q-side")
    return _for_rows(PiecewiseScaling(projection, a, b), r, e)


def _check_orthogonal_nonzero(rows: np.ndarray, tol: float, what: str) -> np.ndarray:
    """The norms of parts of unit rows, after checking they are nonzero and pairwise orthogonal."""
    norms = np.linalg.norm(rows, axis=1)
    small = np.nonzero(norms <= tol)[0]
    if small.size:
        raise ValueError(f"{what} vector {int(small[0])} is numerically zero")
    if rows.shape[0] < 2:
        return norms
    G = rows @ rows.T
    C = np.abs(G) / np.outer(norms, norms)
    np.fill_diagonal(C, 0.0)
    worst = float(C.max())
    if worst > tol:
        raise ValueError(f"{what} set is not orthogonal (worst normalized overlap {worst:.3e})")
    return norms


@dataclass(frozen=True)
class R3Construction:
    """A rank-1 scaling in R^3 together with its construction diagnostics.

    ``norm_identity_residual`` is relative, |u^T u - e| / e with
    e = 2 lam^2 (1 + overlap) + 1, since e reaches about 1e8 on clustered frames.
    """

    scaling: PiecewiseScaling
    indices: tuple[int, int, int]
    mixing_vector: np.ndarray
    mixing_weight: float
    pair_overlap: float
    norm_identity_residual: float
    complement_orthogonality_residual: float


def _greedy_independent(X: np.ndarray, count: int, exclude=()) -> tuple[int, ...]:
    # column-pivoted selection: each step takes the row outside ``exclude``
    # with the largest component outside the span chosen so far
    R = X.T.copy()
    scale = float(np.linalg.norm(R, axis=0).max())
    chosen: list[int] = []
    for _ in range(count):
        norms = np.linalg.norm(R, axis=0)
        norms[[*exclude, *chosen]] = -1.0
        j = int(np.argmax(norms))
        if norms[j] <= RANK_RTOL * scale:
            raise ValueError(f"the vectors to select from span fewer than {count} dimensions")
        q = R[:, j] / norms[j]
        R -= np.outer(q, q @ R)
        chosen.append(j)
    return tuple(chosen)


def construct_r3(frame, tol: float = DEFAULT_TOL) -> PiecewiseScaling:
    """Rank-1 piecewise scaling for any spanning family in R^3."""
    return construct_r3_detailed(frame, tol).scaling


def construct_r3_detailed(frame, tol: float = DEFAULT_TOL) -> R3Construction:
    """Rank-1 piecewise scaling in R^3 with construction diagnostics.

    Takes an independent triple (the first three vectors when there are
    exactly three, otherwise a pivoted selection), aligns signs so the
    first two overlap nonnegatively, and mixes their sum with the
    orthogonal complement direction z using weight
    lam = sqrt(overlap / (1 - overlap^2)).  It takes 1 - overlap as
    h^2 / 2 from the pair's distance h = ||x1 - x2||, which does not
    cancel on a close pair; the rank check keeps h off zero, since
    sigma_3 <= h / sqrt(2).  Projecting out span{u} with
    u = lam (x1 + x2) + z makes the complement parts of the pair
    orthogonal, while one of the two signs of lam keeps the third vector
    visible on the projected side.  The scaling is
    construct_from_orthogonal_split with P = span{u}, S the third index
    and T the pair, so a numerically degenerate part raises ValueError.
    It works on the unit rows of _unit_rows.
    """
    _check_tol(tol)
    X = _unit_rows(as_vector_array(frame))[0]
    m, n = X.shape
    if n != 3:
        raise ValueError("construct_r3 needs vectors in R^3")
    if m < 3:
        raise ValueError("frame must contain at least three vectors")
    sel = (0, 1, 2) if m == 3 else _greedy_independent(X, 3)
    triple = X[list(sel)]
    norms = np.linalg.norm(triple, axis=1)
    if Frame(triple).numerical_rank() < 3:
        raise ValueError("frame must span R^3")
    x1, x2, x3 = triple / norms[:, None]
    overlap = float(x1 @ x2)
    if overlap < 0.0:
        x2 = -x2  # sign flips leave every outer product, hence the scaling, unchanged
        overlap = -overlap
    h = float(np.linalg.norm(x1 - x2))
    z = np.cross(x1, x2)
    z /= np.linalg.norm(z)
    lead = np.nonzero(np.abs(z) > 1e-12)[0][0]
    if z[lead] < 0.0:
        z = -z
    lam0 = float(np.sqrt(overlap / (h * h / 2.0 * (1.0 + overlap))))
    u = None
    lam = 0.0
    for candidate in (lam0, -lam0):
        trial = candidate * (x1 + x2) + z
        if abs(float(x3 @ trial)) > tol * float(np.linalg.norm(trial)):
            u, lam = trial, candidate
            break
    if u is None:
        raise ValueError("triple is numerically degenerate: the third vector hides from both mixings")
    expected = 2.0 * lam * lam * (1.0 + overlap) + 1.0
    identity_residual = abs(float(u @ u) - expected) / expected
    if identity_residual > tol:
        raise InternalInconsistencyError(
            f"mixing vector norm identity violated by {identity_residual:.3e}"
        )
    P = projection_from_basis([u])
    q1 = x1 - P.matrix @ x1
    q2 = x2 - P.matrix @ x2
    orth_residual = abs(float(q1 @ q2))
    if orth_residual > tol:
        raise InternalInconsistencyError(
            f"complement parts of the pair are not orthogonal (residual {orth_residual:.3e})"
        )
    return R3Construction(
        scaling=construct_from_orthogonal_split(frame, P, sel[2:], sel[:2], tol),
        indices=sel,
        mixing_vector=_freeze(u),
        mixing_weight=lam,
        pair_overlap=overlap,
        norm_identity_residual=identity_residual,
        complement_orthogonality_residual=orth_residual,
    )


def construct_r4_special(frame, indices, tol: float = DEFAULT_TOL) -> PiecewiseScaling:
    """Rank-2 scaling from four vectors in special position in R^4.

    Needs independent vectors x1..x4 (selected by index) with x2 and x3
    orthogonal to x4 while x1 is not.  Two successive complements produce
    an orthonormal pair (u, v) whose span projects x1, x2 to an orthogonal
    pair and leaves x3, x4 orthogonal on the complement side;
    construct_from_orthogonal_split with P = span{u, v}, S = {x1, x2} and
    T = {x3, x4} then gives an orthonormal basis.  It works on the unit
    rows of _unit_rows.
    """
    _check_tol(tol)
    X = _unit_rows(as_vector_array(frame))[0]
    m, n = X.shape
    if n != 4:
        raise ValueError("construct_r4_special needs vectors in R^4")
    idx = _index_list(indices, m, "indices")
    if len(idx) != 4:
        raise ValueError(f"need exactly 4 indices, got {len(idx)}")
    quad = X[idx]
    if Frame(quad).numerical_rank() < 4:
        raise ValueError("the selected vectors must be linearly independent")
    x1, x2, x3, x4 = quad
    if abs(float(x2 @ x4)) > tol or abs(float(x3 @ x4)) > tol:
        raise ValueError("need <x2, x4> = <x3, x4> = 0 for the selected vectors")
    if abs(float(x1 @ x4)) <= tol:
        raise ValueError("need <x1, x4> != 0 for the selected vectors")
    Q = projection_from_basis([x2, x4])
    w = x1 - Q.matrix @ x1
    wn = float(np.linalg.norm(w))
    if wn <= tol:
        raise ValueError("x1 lies in span{x2, x4}; the vectors are not in special position")
    u = w / wn
    R = projection_from_basis([x1, x3, u])
    zvec = x2 - R.matrix @ x2
    zn = float(np.linalg.norm(zvec))
    if zn <= tol:
        raise ValueError("x2 lies in span{x1, x3, u}; the vectors are not in special position")
    v = zvec / zn
    return construct_from_orthogonal_split(frame, projection_from_basis([u, v]), idx[:2], idx[2:], tol)


def _complement_form(ps: PiecewiseScaling) -> PiecewiseScaling:
    # the definition is symmetric under swapping the projection with its
    # complement and the two constant vectors with each other
    return PiecewiseScaling(complement(ps.projection), ps.b, ps.a)


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

# share of its squared norm a column of _thin_factor must keep through both
# Gram-Schmidt passes, or its block is factored by LAPACK's QR instead
_GRAM_SCHMIDT_KEPT = 1e-6


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


def _thin_factor(G: np.ndarray) -> np.ndarray:
    """Orthonormal bases (C, n, k) of the column spaces of the blocks G (C, n, k).

    Classical Gram-Schmidt, applied twice to each column, runs on the
    whole stack at once.  A block with a column that keeps at most
    _GRAM_SCHMIDT_KEPT of its squared norm through both passes (a
    dependent block, a zero column) takes np.linalg.qr's thin factor
    instead.  Why the screen may use these bases: _rejected_draws.
    """
    Q = np.empty_like(G)
    weak = np.zeros(len(G), dtype=bool)
    for j in range(G.shape[2]):
        v = G[:, :, j]
        before = after = np.einsum("cn,cn->c", v, v)
        if j:
            B = Q[:, :, :j]
            for _ in range(2):
                v = v - np.einsum("cnj,cj->cn", B, np.einsum("cnj,cn->cj", B, v))
            after = np.einsum("cn,cn->c", v, v)
        weak |= after <= _GRAM_SCHMIDT_KEPT * before
        Q[:, :, j] = v / np.sqrt(np.where(after > 0.0, after, 1.0))[:, None]
    if weak.any():
        Q[weak] = np.linalg.qr(G[weak])[0]
    return Q


def _rejected_draws(X: np.ndarray, G: np.ndarray, tol: float) -> np.ndarray:
    """Which candidates, given by their Gaussian blocks G (C, n, k), a side proves infeasible.

    This is the one account of the sampled stage's screen.  A candidate
    is rejected when one of its sides has a _side_margins margin above
    10 tol on the rows of nonzero norm.  Both margins bound the distance
    for any weights, so a rejected candidate's distance exceeds tol and
    the feasibility solve could only reject it.  A one-dimensional side
    always scales, so it is neither judged nor factored.  The smaller of
    the sides of dimension 2 or more goes first, the range on a tie, and
    the other is judged only for the candidates the first kept; once
    none is left the screen returns.

    Factors.  Each side's coordinates come from one batched product X Q.
    When the range goes first, Q is the _thin_factor of the blocks, and
    only the blocks the range kept get a complete QR, whose trailing
    columns give their complement.  Otherwise one stacked complete QR of
    the blocks serves both sides.  A survivor is solved in the complete
    QR of its block alone (_disjoint_split_candidate).  Both margins are
    invariant under orthogonal maps of a side's coordinates, so any
    orthonormal basis of the side gives the same margin in exact
    arithmetic.  A block _thin_factor keeps has every column keep more
    than 1e-3 of its norm, so with unit columns its condition number
    kappa is at most of order 10^3, and Gram-Schmidt applied twice is
    orthonormal to O(u) and spans LAPACK's plane to O(u kappa) (Kahan and
    Parlett: twice is enough); any other block takes LAPACK's factor.  So
    the Gram-Schmidt and LAPACK bases, the thin factor and the leading
    columns of the complete one, or a stacked and a per-block factor,
    differ by rounding, which moves a margin far less than the 9 tol
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
    rejected = np.zeros(len(G), dtype=bool)
    # the column slices of Q of the sides of dimension 2 or more, smaller first
    sides = [cols for d, cols in ((k, slice(0, k)), (n - k, slice(k, n))) if d >= 2]
    if k > n - k:
        sides.reverse()
    if sides and sides[0].start == 0:
        # the range goes first, in the thin factor
        rejected = _side_margins(X @ _thin_factor(G), scales, tol) > 10.0 * tol
        sides = sides[1:]
    live = np.flatnonzero(~rejected)
    if not sides or live.size == 0:
        return rejected
    W = X @ np.linalg.qr(G[live], mode="complete")[0]
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
                ps = construct_from_orthogonal_split(X, _leading_projection(Q, k), S, T, tol)
            except ValueError:
                continue
            yield ps


def search_piecewise(
    frame,
    ranks=None,
    budget: int = 100,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> PiecewiseScaling | None:
    """Look for a passing piecewise scaling; absence of a result is a value.

    Candidates, in order: equal constants from solve_standard_scaling
    (they work with any projection), the constructor for dimension two
    or three (in complement form when rank 1 is not requested), the
    orthogonal-split route (_orthogonal_split_route) at the ranks
    closeness_obstruction does not certify, then ``budget`` sampled
    candidates per requested rank, each screened (_rejected_draws) and
    split (_disjoint_split_candidate).  The answer is the first that
    passes verify_piecewise on the unit rows of _unit_rows, the one
    acceptance check; a later route runs only when every earlier
    candidate failed it.  A miss is not a proof that no scaling exists.

    At n >= 4 closeness_obstruction is asked before the standard step,
    and a frame with a certified rank skips the equal constants: its unit
    rows lie within eps < 1/8 of one row, so every standard scaling
    misses the identity by more than _CERTIFIED_DEFECT = 0.96 (see
    _candidate_scalings), and the step runs there only at a ``tol`` that
    large.  At n <= 3 no rank is ever certified, and none is asked for.

    The candidate stream.  Candidate j of rank k is the orthogonal factor
    Q_j of the complete QR of block j of
    default_rng((seed, k)).standard_normal((budget, n, k)), drawn by
    _candidate_blocks alone; it projects onto the span of Q_j[:, :k], and
    its two sides are the identity problems in the coordinates
    X Q_j[:, :k] and X Q_j[:, k:].  A block depends on (seed, k, j) only,
    whatever the batching, so the result is a function of the frame, the
    ranks, ``budget``, ``seed`` and ``tol``.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    if seed < 0:
        raise ValueError("seed must be a nonnegative integer")
    _check_tol(tol)
    fr = frame if isinstance(frame, Frame) else Frame(frame)
    n = fr.dim
    wanted = set(range(1, n)) if ranks is None else {int(k) for k in ranks} & set(range(1, n))
    valid = sorted(wanted)
    if not valid:
        return None
    U, r, e = _unit_rows(fr.vectors)
    unit = fr if U is fr.vectors else Frame(U)
    for ps in _candidate_scalings(unit, valid, budget, seed, tol):
        if verify_piecewise(unit, ps, tol).passed:
            return _for_rows(ps, r, e)
    return None


# a lower bound on the standard defect of every frame closeness_obstruction certifies
_CERTIFIED_DEFECT = 0.96


def _candidate_scalings(fr: Frame, valid: list[int], budget: int, seed: int, tol: float) -> Iterator[PiecewiseScaling]:
    # search_piecewise's candidates, in its order, for a frame of unit or zero rows and the sorted ranks ``valid``
    if not fr.is_frame():
        return
    n = fr.dim
    X = fr.vectors
    certified = frozenset()
    if n >= 4:
        # imported here, so that verify, transport and the R^2 and R^3 searches never compile obstructions
        from .obstructions import closeness_obstruction

        certified = closeness_obstruction(X).applicable_ranks
    # a certified frame has no standard scaling within _CERTIFIED_DEFECT: its unit
    # rows lie within eps < 1/8 of the row x_0, so for a unit y orthogonal to x_0 and
    # S = sum_i w_i x_i x_i^T, w >= 0, y^T S y <= eps^2 sum(w) while x_0^T S x_0 >=
    # (1 - eps^2 / 2)^2 sum(w), and no sum(w) brings both within
    # 1 - 2 eps^2 / (eps^2 + (1 - eps^2 / 2)^2) > 0.968 of 1
    if not certified or tol >= _CERTIFIED_DEFECT:
        # the Frame passes its rows to solve_standard_scaling without a copy
        verdict = solve_standard_scaling(fr, None, tol)
        if verdict.feasible:
            c = verdict.scaling.constants
            yield PiecewiseScaling(canonical_projection(range(valid[0]), n), c, c)
    if n <= 3:
        # a numerically degenerate selection, like a failing result, goes on to the later routes
        try:
            built = construct_r2(fr, canonical_projection([0], 2), tol) if n == 2 else construct_r3(fr, tol)
        except ValueError:
            pass
        else:
            # built has rank 1, and a valid set without 1 holds n - 1
            yield built if 1 in valid else _complement_form(built)
    yield from _orthogonal_split_route(fr, [k for k in valid if k not in certified], seed, tol, budget)
    for k in valid:
        for _, G in _surviving_candidates(X, k, budget, seed, tol):
            ps = _disjoint_split_candidate(X, G, tol)
            if ps is not None:
                yield ps
