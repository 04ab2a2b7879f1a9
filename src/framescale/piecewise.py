"""Piecewise scalings: verification, explicit constructors, and search.

A piecewise scaling splits every frame vector by an orthogonal projection
and scales the two parts separately, aiming for a Parseval family
a_i P x_i + b_i (I - P) x_i.  verify_piecewise checks one; constructors
cover frames in R^2 and R^3, orthogonal-split data in any dimension, and
a special position in R^4; a seeded search (search_piecewise) handles the
rest on a best-effort basis, with its route and sampled stage in search.py.
"""

from __future__ import annotations

import operator
from collections.abc import Iterator
from dataclasses import dataclass

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
    _symmetrized,
    canonical_projection,
    complement,
    projection_from_basis,
)
from .scaling import solve_standard_scaling


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


def _integer(value, name: str) -> int:
    # value as an int, as operator.index reads it (numpy integers pass); a bool or anything else names the argument
    try:
        if not isinstance(value, (bool, np.bool_)):
            return operator.index(value)
    except TypeError:
        pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


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
    split (_disjoint_split_candidate), both stages in search.py.  The answer is the first that
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
    ranks, ``budget``, ``seed`` and ``tol``.  ``budget``, ``seed`` and
    each rank must be integers as operator.index reads them (numpy
    integers pass, booleans do not); anything else is a ValueError that
    names it.
    """
    budget, seed = _integer(budget, "budget"), _integer(seed, "seed")
    if budget < 1:
        raise ValueError("budget must be at least 1")
    if seed < 0:
        raise ValueError("seed must be a nonnegative integer")
    if ranks is not None:
        ranks = {_integer(k, "each of ranks") for k in ranks}
    _check_tol(tol)
    fr = frame if isinstance(frame, Frame) else Frame(frame)
    n = fr.dim
    wanted = set(range(1, n)) if ranks is None else ranks & set(range(1, n))
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
    # imported here, so that verify, transport and the searches a constructor answers never compile the search's machinery
    from .search import _disjoint_split_candidate, _orthogonal_split_route, _surviving_candidates

    yield from _orthogonal_split_route(fr, [k for k in valid if k not in certified], seed, tol, budget)
    for k in valid:
        for _, G in _surviving_candidates(X, k, budget, seed, tol):
            ps = _disjoint_split_candidate(X, G, tol)
            if ps is not None:
                yield ps
