"""Piecewise scalings: verification, explicit constructors, and search.

A piecewise scaling splits every frame vector by an orthogonal projection
and scales the two parts separately, aiming for a Parseval family
a_i P x_i + b_i (I - P) x_i.  The verifier evaluates both the direct
Parseval residual of the recombined family and the equivalent three-part
decomposition: each projected family must rebuild its projection operator
and the mixed-term operator must vanish.  Constructors cover frames in
R^2 and R^3, orthogonal-split data in any dimension, and a special
position in R^4; a seeded randomized search built on the feasibility
solver handles the rest on a best-effort basis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .frames import (
    DEFAULT_TOL,
    RANK_RTOL,
    Frame,
    InternalInconsistencyError,
    _freeze,
    _parseval_report,
    as_vector_array,
    VerificationReport,
)
from .projections import (
    OrthogonalProjection,
    _projection_from_draw,
    _random_projection,
    _symmetrized,
    canonical_projection,
    complement,
    projection_from_basis,
)
from .scaling import _half_plane_margin, solve_standard_scaling


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


def scaled_family(frame, ps: PiecewiseScaling) -> np.ndarray:
    """Rows a_i P x_i + b_i (I - P) x_i of the rescaled family."""
    _, Y, Z = _split_parts(frame, ps)
    return ps.a[:, None] * Y + ps.b[:, None] * Z


def _cross(Y: np.ndarray, Z: np.ndarray, ps: PiecewiseScaling) -> np.ndarray:
    return Y.T @ ((ps.a * ps.b)[:, None] * Z)


def cross_operator(frame, ps: PiecewiseScaling) -> np.ndarray:
    """C = sum_i a_i b_i (P x_i) ((I - P) x_i)^T.

    The mixed term of the rescaled family vanishes exactly when C = 0:
    the quadratic form x -> x^T C x is the mixed sum, and a symmetric
    part of zero forces the whole operator to zero.
    """
    _, Y, Z = _split_parts(frame, ps)
    return _cross(Y, Z, ps)


def verify_piecewise(frame, ps: PiecewiseScaling, tol: float = DEFAULT_TOL) -> PiecewiseReport:
    """Direct Parseval check plus the three-part decomposition.

    ``passed`` reflects the direct check.  The two routes must agree; a
    verdict gap with residuals beyond 10x tol raises
    InternalInconsistencyError because it can only come from a bug, not
    from the input.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    _, Y, Z = _split_parts(frame, ps)
    P = ps.projection
    n = P.dim
    p_rep = _parseval_report(ps.a[:, None] * Y, P.matrix, tol)
    q_rep = _parseval_report(ps.b[:, None] * Z, _symmetrized(np.eye(n) - P.matrix), tol)
    cross = float(np.linalg.norm(_cross(Y, Z, ps), "fro"))
    W = ps.a[:, None] * Y + ps.b[:, None] * Z
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

    Finds indices i != j with P x_i and (I - P) x_j both nonzero and puts
    reciprocal norms there; every spanning family admits such a pair, so
    the result is an orthonormal basis of R^2.
    """
    X = as_vector_array(frame)
    m, n = X.shape
    if n != 2:
        raise ValueError("construct_r2 needs vectors in R^2")
    s = np.linalg.svd(X, compute_uv=False)
    if m < 2 or s[0] == 0.0 or s[1] <= RANK_RTOL * s[0]:
        raise ValueError("frame must span R^2")
    if projection.dim != 2:
        raise ValueError("projection must act on R^2")
    _require_nontrivial(projection)
    Y = X @ projection.matrix
    Z = X - Y
    xn = np.linalg.norm(X, axis=1)
    yn = np.linalg.norm(Y, axis=1)
    zn = np.linalg.norm(Z, axis=1)
    for i in range(m):
        if yn[i] <= tol * xn[i]:
            continue
        for j in range(m):
            if j == i or zn[j] <= tol * xn[j]:
                continue
            a = np.zeros(m)
            b = np.zeros(m)
            a[i] = 1.0 / yn[i]
            b[j] = 1.0 / zn[j]
            return PiecewiseScaling(projection, a, b)
    raise InternalInconsistencyError("no valid index pair exists for a spanning family")


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
    rescaled family is an orthonormal basis.
    """
    X = as_vector_array(frame)
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
    xn = np.linalg.norm(X, axis=1)
    a = np.zeros(m)
    b = np.zeros(m)
    _check_orthogonal_nonzero(Y[pidx], xn[pidx], tol, "projected p-side")
    _check_orthogonal_nonzero(Z[qidx], xn[qidx], tol, "complement q-side")
    for i in pidx:
        a[i] = 1.0 / float(np.linalg.norm(Y[i]))
    for j in qidx:
        b[j] = 1.0 / float(np.linalg.norm(Z[j]))
    return PiecewiseScaling(projection, a, b)


def _check_orthogonal_nonzero(rows: np.ndarray, scales: np.ndarray, tol: float, what: str) -> None:
    norms = np.linalg.norm(rows, axis=1)
    small = np.nonzero(norms <= tol * np.maximum(scales, 1e-300))[0]
    if small.size:
        raise ValueError(f"{what} vector {int(small[0])} is numerically zero")
    if rows.shape[0] < 2:
        return
    G = rows @ rows.T
    C = np.abs(G) / np.outer(norms, norms)
    np.fill_diagonal(C, 0.0)
    worst = float(C.max())
    if worst > tol:
        raise ValueError(f"{what} set is not orthogonal (worst normalized overlap {worst:.3e})")


@dataclass(frozen=True)
class R3Construction:
    """A rank-1 scaling in R^3 together with its construction diagnostics."""

    scaling: PiecewiseScaling
    indices: tuple[int, int, int]
    mixing_vector: np.ndarray
    mixing_weight: float
    pair_overlap: float
    norm_identity_residual: float
    complement_orthogonality_residual: float


def _greedy_independent_triple(X: np.ndarray) -> tuple[int, int, int]:
    # column-pivoted selection: each step takes the vector with the
    # largest component outside the span chosen so far
    R = X.T.copy()
    scale = float(np.linalg.norm(R, axis=0).max())
    chosen: list[int] = []
    for _ in range(3):
        norms = np.linalg.norm(R, axis=0)
        if chosen:
            norms[chosen] = -1.0
        j = int(np.argmax(norms))
        if norms[j] <= RANK_RTOL * scale:
            raise ValueError("frame must span R^3")
        q = R[:, j] / norms[j]
        R -= np.outer(q, q @ R)
        chosen.append(j)
    return tuple(chosen)  # type: ignore[return-value]


def construct_r3(frame, tol: float = DEFAULT_TOL) -> PiecewiseScaling:
    """Rank-1 piecewise scaling for any spanning family in R^3."""
    return construct_r3_detailed(frame, tol).scaling


def construct_r3_detailed(frame, tol: float = DEFAULT_TOL) -> R3Construction:
    """Rank-1 piecewise scaling in R^3 with construction diagnostics.

    Takes an independent triple (the first three vectors when there are
    exactly three, otherwise a pivoted selection), aligns signs so the
    first two overlap nonnegatively, and mixes their sum with the
    orthogonal complement direction z using weight
    lam = sqrt(overlap / (1 - overlap^2)).  Projecting out span{u} with
    u = lam (x1 + x2) + z makes the complement parts of the pair
    orthogonal, while one of the two signs of lam keeps the third vector
    visible on the projected side.  Constants are reciprocal norms,
    rescaled so they apply to the original, unnormalized vectors.
    """
    X = as_vector_array(frame)
    m, n = X.shape
    if n != 3:
        raise ValueError("construct_r3 needs vectors in R^3")
    if m < 3:
        raise ValueError("frame must contain at least three vectors")
    sel = (0, 1, 2) if m == 3 else _greedy_independent_triple(X)
    triple = X[list(sel)]
    norms = np.linalg.norm(triple, axis=1)
    s = np.linalg.svd(triple, compute_uv=False)
    if s[0] == 0.0 or s[2] <= RANK_RTOL * s[0]:
        raise ValueError("frame must span R^3")
    x1, x2, x3 = triple / norms[:, None]
    overlap = float(x1 @ x2)
    if overlap < 0.0:
        x2 = -x2  # sign flips leave every outer product, hence the scaling, unchanged
        overlap = -overlap
    if overlap >= 1.0 - 1e-12:
        raise ValueError("selected pair is numerically dependent")
    z = np.cross(x1, x2)
    z /= np.linalg.norm(z)
    lead = np.nonzero(np.abs(z) > 1e-12)[0][0]
    if z[lead] < 0.0:
        z = -z
    lam0 = float(np.sqrt(overlap / (1.0 - overlap**2)))
    u = None
    lam = 0.0
    p_norm3 = 0.0
    for candidate in (lam0, -lam0):
        trial = candidate * (x1 + x2) + z
        trial_norm3 = abs(float(x3 @ trial)) / float(np.linalg.norm(trial))
        if trial_norm3 > tol:
            u, lam, p_norm3 = trial, candidate, trial_norm3
            break
    if u is None:
        raise ValueError("triple is numerically degenerate: the third vector hides from both mixings")
    identity_residual = abs(float(u @ u) - (2.0 * lam * lam * (1.0 + overlap) + 1.0))
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
    q1n = float(np.linalg.norm(q1))
    q2n = float(np.linalg.norm(q2))
    if min(q1n, q2n) <= tol:
        raise InternalInconsistencyError("complement part of the pair vanished")
    a = np.zeros(m)
    b = np.zeros(m)
    b[sel[0]] = 1.0 / (q1n * norms[0])
    b[sel[1]] = 1.0 / (q2n * norms[1])
    a[sel[2]] = 1.0 / (p_norm3 * norms[2])
    return R3Construction(
        scaling=PiecewiseScaling(P, a, b),
        indices=sel,
        mixing_vector=_freeze(u),
        mixing_weight=lam,
        pair_overlap=overlap,
        norm_identity_residual=identity_residual,
        complement_orthogonality_residual=orth_residual,
    )


def construct_r4_special(frame, indices, tol: float = DEFAULT_TOL) -> PiecewiseScaling:
    """Rank-2 scaling from four unit vectors in special position in R^4.

    Needs independent unit vectors x1..x4 (selected by index) with x2 and
    x3 orthogonal to x4 while x1 is not.  Two successive complements
    produce an orthonormal pair (u, v) whose span projects x1, x2 to an
    orthogonal pair and leaves x3, x4 orthogonal on the complement side;
    reciprocal norms then give an orthonormal basis.
    """
    X = as_vector_array(frame)
    m, n = X.shape
    if n != 4:
        raise ValueError("construct_r4_special needs vectors in R^4")
    idx = _index_list(indices, m, "indices")
    if len(idx) != 4:
        raise ValueError(f"need exactly 4 indices, got {len(idx)}")
    quad = X[idx]
    norms = np.linalg.norm(quad, axis=1)
    if np.abs(norms - 1.0).max() > tol:
        raise ValueError("the selected vectors must be unit-norm")
    s = np.linalg.svd(quad, compute_uv=False)
    if s[0] == 0.0 or s[3] <= RANK_RTOL * s[0]:
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
    P = projection_from_basis([u, v])
    if P.rank != 2:
        raise InternalInconsistencyError("mixing pair failed to span a plane")
    y1 = P.matrix @ x1
    y2 = P.matrix @ x2
    q3 = x3 - P.matrix @ x3
    q4 = x4 - P.matrix @ x4
    parts = [float(np.linalg.norm(t)) for t in (y1, y2, q3, q4)]
    if min(parts) <= tol:
        raise InternalInconsistencyError("a projected part vanished despite the position hypotheses")
    a = np.zeros(m)
    b = np.zeros(m)
    a[idx[0]] = 1.0 / parts[0]
    a[idx[1]] = 1.0 / parts[1]
    b[idx[2]] = 1.0 / parts[2]
    b[idx[3]] = 1.0 / parts[3]
    return PiecewiseScaling(P, a, b)


def _complement_form(ps: PiecewiseScaling) -> PiecewiseScaling:
    # the definition is symmetric under swapping the projection with its
    # complement and the two constant vectors with each other
    return PiecewiseScaling(complement(ps.projection), ps.b, ps.a)


def _restricted_constants(
    V: np.ndarray, target: OrthogonalProjection, keep: np.ndarray, scales: np.ndarray, tol: float
):
    """Constants scaling the kept rows of V to the target, zero elsewhere, or None.

    ``scales`` are the norms of the frame rows that V projects.  A rank-2
    target whose kept rows all have parts above _TRUSTED_SIDE of their
    scale and a half-plane margin above 10 tol returns None without a
    solve: the cone then stays sqrt(2) s / sqrt(1 + s^2) > tol from the
    target, so the solver could only reject it.
    """
    idx = np.nonzero(keep)[0]
    if idx.size == 0:
        return None
    if target.rank == 2:
        coords = V[idx] @ target.range_basis
        trusted = (np.linalg.norm(coords, axis=1) > _TRUSTED_SIDE * scales[idx]).all()
        if trusted and _half_plane_margin(coords[None])[0] > 10.0 * tol:
            return None
    verdict = solve_standard_scaling(V[idx], target, tol)
    if not verdict.feasible:
        return None
    out = np.zeros(keep.shape[0])
    out[idx] = verdict.scaling.constants
    return out


def _disjoint_split_candidate(X: np.ndarray, P: OrthogonalProjection, tol: float):
    Y = X @ P.matrix
    Z = X - Y
    # the higher-rank side is the likelier to fail (a rank-1 side always
    # scales), so it is solved first; both solves are independent, so the
    # order changes only how soon a miss returns
    q_first = P.dim - P.rank > P.rank
    if q_first:
        Q = complement(P)
        vq = solve_standard_scaling(Z, Q, tol)
        if not vq.feasible:
            return None
    vp = solve_standard_scaling(Y, P, tol)
    if not vp.feasible:
        return None
    if not q_first:
        Q = complement(P)
        vq = solve_standard_scaling(Z, Q, tol)
        if not vq.feasible:
            return None
    a = np.array(vp.scaling.constants)
    b = np.array(vq.scaling.constants)
    overlap = (a > 0.0) & (b > 0.0)
    if overlap.any():
        scales = np.linalg.norm(X, axis=1)
        resolved = _restricted_constants(Y, P, (a > 0.0) & ~overlap, scales, tol)
        if resolved is not None:
            a = resolved
        else:
            resolved = _restricted_constants(Z, Q, (b > 0.0) & ~overlap, scales, tol)
            if resolved is None:
                return None
            b = resolved
    return PiecewiseScaling(P, a, b)


# candidates in the first batched pass of the screen; each later pass
# doubles, so an early hit pays for few draws and a full miss for a
# handful of passes
_FIRST_CHUNK = 16

# fewest candidates whose seed words are hashed in one pass; a pass costs
# about 200 array operations whatever its size, so a budget up to this
# takes one pass per rank, and a larger one is hashed block by block
_SEED_BLOCK = 256

# a row whose side part is at most this fraction of the row points in a
# direction set by rounding, so the screen keeps its candidate
_TRUSTED_SIDE = 1e-6


# numpy's SeedSequence hash constants (pool size 4, xorshift 16)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF

# PCG64's 128-bit LCG multiplier
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
_MASK128 = (1 << 128) - 1


def _candidate_rng(seed: int, k: int, candidate: int) -> np.random.Generator:
    # the seeding contract: candidate j of rank k depends on (seed, k, j) only
    return np.random.default_rng(np.random.SeedSequence(entropy=(seed, k, candidate)))


def _uint32_words(value: int) -> list[int]:
    """SeedSequence's little-endian 32-bit words of a nonnegative integer; 0 is one zero word."""
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _hasher(init: int, mult: int):
    """SeedSequence's hashmix with its running constant h: (v ^ h) * (h mult), then v ^ v >> 16.

    Works on Python ints and on uint64 arrays of uint32 values alike.
    """
    h = init

    def hashmix(value):
        nonlocal h
        value = value ^ h
        h = h * mult & _MASK32
        value = value * h & _MASK32
        return value ^ value >> 16

    return hashmix


def _mix(x, y):
    """SeedSequence's mix of two uint32 words, on Python ints or uint64 arrays."""
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ result >> 16


def _candidate_seed_words(seed: int, k: int, candidates: range) -> np.ndarray:
    """SeedSequence(entropy=(seed, k, c)).generate_state(4, np.uint64) for every c, in one pass.

    A copy of numpy's hash, vectorised over the candidates: uint32 words
    live in uint64 arrays and are masked after every product.  The words
    shared by all rows (seed, then k) stay Python ints until the pool mix
    meets the candidate's word.  The candidate's word is last, and an
    index of 2^32 or more adds a second one.
    """
    if not isinstance(seed, (int, np.integer)):
        # fails exactly as the per-candidate seeding does, or reads a
        # one-element integer array as it does
        _candidate_rng(seed, k, candidates.start)
        seed = np.asarray(seed).item()
    c = np.arange(candidates.start, candidates.stop, dtype=np.uint64)
    entropy = _uint32_words(int(seed)) + _uint32_words(k) + [c & _MASK32, c >> 32]
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(word) for word in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for i, word in enumerate(entropy[4:], 4):
        mixed = [_mix(p, hashmix(word)) for p in pool]
        # an index below 2^32 has no high word; in the pool that equals a
        # zero word, past it the row must skip the word
        last = i == len(entropy) - 1
        pool = [np.where(c > _MASK32, m, p) for m, p in zip(mixed, pool)] if last else mixed
    hashmix = _hasher(_INIT_B, _MULT_B)
    state = [hashmix(pool[i % 4]) for i in range(8)]
    # uint32 pairs read as little-endian uint64
    return np.column_stack([state[i] | state[i + 1] << 32 for i in range(0, 8, 2)])


def _candidate_draws(words: np.ndarray, n: int, k: int) -> np.ndarray:
    """Each candidate's first standard_normal((n, k)) block, from its seed words.

    PCG64 seeded from words w takes initstate = w0 2^64 + w1 and
    inc = 2 (w2 2^64 + w3) + 1, and steps its LCG twice:
    state = (inc + initstate) M + inc mod 2^128.  One generator, built
    here, is set to each candidate's state in turn, which draws what
    _candidate_rng would without building a generator per candidate.
    """
    bit_generator = np.random.PCG64(0)
    generator = np.random.Generator(bit_generator)
    pcg = {"state": 0, "inc": 0}
    state = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}
    G = np.empty((len(words), n, k))
    for g, (w0, w1, w2, w3) in zip(G, words.tolist()):
        inc = ((w2 << 65) | (w3 << 1) | 1) & _MASK128
        pcg["state"] = ((inc + (w0 << 64 | w1)) * _PCG_MULT + inc) & _MASK128
        pcg["inc"] = inc
        bit_generator.state = state
        generator.standard_normal(out=g)
    return G


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

# Gram cells (candidates times rows squared) per batch of the Farkas
# screen; a side with more rows than fit in one batch is not screened
_FARKAS_CELLS = 2**20


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
    delta = np.maximum(((units @ R) * units).sum(axis=2).max(axis=1), 0.0)
    return (np.trace(R, axis1=1, axis2=2) - d * delta) / (1.0 + np.sqrt(d) * delta)


def _fista_margin(units: np.ndarray, stop: float) -> np.ndarray:
    """Each family's largest _farkas_bound over the checkpoints of its FISTA run.

    FISTA minimises ||sum_i w_i u_i u_i^T - I||_F^2 / 2 over w >= 0.
    ``units`` has shape (C, m, d) with unit rows.  The gradient is H w - 1
    with H_ij = (u_i^T u_j)^2, and the step is 1 / L with L the largest
    row sum of H, which bounds its largest eigenvalue; a gradient step
    y - (H y - 1) / L is then one batched product (I - H / L) y + 1 / L.
    At each step of _FARKAS_CHECKPOINTS the bound is evaluated at the
    residual I - sum_i w_i u_i u_i^T, a direction, not an optimum.  A
    family whose bound exceeds ``stop`` leaves the batch; the others take
    exactly the steps of a batch without exits.
    """
    C, m, d = units.shape
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


def _farkas_margin(units: np.ndarray, stop: float = np.inf) -> np.ndarray:
    """_fista_margin of each family, in batches of _FARKAS_CELLS.

    A margin above ``stop`` may be lower than the fixed run of every step
    would give, but it is still a bound above ``stop``.
    """
    C, m, _ = units.shape
    batch = _FARKAS_CELLS // (m * m)
    if batch == 0:
        return np.zeros(C)
    batches = np.split(units, range(batch, C, batch))
    return np.concatenate([_fista_margin(u, stop) for u in batches])


def _screen(X: np.ndarray, k: int, seed: int, candidates: range, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Which rank-k candidates a side proves infeasible, and their first draws.

    The draws are hashed from (seed, k, c) in one batch and are
    bit-identical to _candidate_rng(seed, k, c).standard_normal((n, k)),
    that is to default_rng(SeedSequence((seed, k, c))); _rejected_draws
    judges them.  The search itself hashes a rank's seeds once, in blocks
    of _SEED_BLOCK, and screens the same draws chunk by chunk.
    """
    G = _candidate_draws(_candidate_seed_words(seed, k, candidates), X.shape[1], k)
    return _rejected_draws(X, G, tol), G


def _rejected_draws(X: np.ndarray, G: np.ndarray, tol: float) -> np.ndarray:
    """Which candidates, given by their first Gaussian blocks G (C, n, k), a side proves infeasible.

    Gets all range and complement bases from one stacked complete QR of
    the draws, as _random_projection would.  A two-dimensional side
    rejects on its half-plane margin, a side of dimension d >= 3 on the
    Farkas bound (tr R^ - d delta) / (1 + sqrt(d) delta) at the FISTA
    residuals R of its unit coordinates (_farkas_margin), both above
    10 tol; a one-dimensional side always scales.  FISTA checks the bound
    after steps 1, 2, 4, ..., 128 and 150, and a side leaves its batch at
    the first checkpoint whose bound exceeds 10 tol.  The smaller side goes
    first, so the batched FISTA runs only on candidates the exact
    half-plane rule kept.  A rank-deficient draw is redrawn by
    _random_projection, so its QR range proves nothing and it is never
    rejected.
    """
    n, k = G.shape[1:]
    Q, R = np.linalg.qr(G, mode="complete")
    pivots = np.abs(np.diagonal(R, axis1=1, axis2=2)).min(axis=1)
    full_rank = pivots > 2.0 * RANK_RTOL * np.linalg.norm(G, axis=1).max(axis=1)
    scales = np.linalg.norm(X, axis=1)
    X, scales = X[scales > 0.0], scales[scales > 0.0]
    rejected = np.zeros(len(G), dtype=bool)
    sides = (slice(0, k), slice(k, n)) if k <= n - k else (slice(k, n), slice(0, k))
    for side in sides:
        B = Q[:, :, side]
        d = B.shape[2]
        if d < 2:
            continue
        coords = np.einsum("mi,cij->cmj", X, B)
        norms = np.linalg.norm(coords, axis=2)
        trusted = np.flatnonzero((norms > _TRUSTED_SIDE * scales).all(axis=1) & ~rejected)
        if trusted.size == 0:
            continue
        if d == 2:
            margin = _half_plane_margin(coords[trusted])
        else:
            margin = _farkas_margin(coords[trusted] / norms[trusted, :, None], 10.0 * tol)
        rejected[trusted] = margin > 10.0 * tol
    return rejected & full_rank


def _surviving_candidates(X: np.ndarray, k: int, budget: int, seed: int, tol: float):
    """Rank-k candidates the screen keeps, in order, with their first draws.

    The screen runs on chunks of _FIRST_CHUNK indices, doubling each
    time; chunks are screened lazily, so none is drawn after a hit.  Seed
    words are hashed ahead in blocks of at least _SEED_BLOCK indices.
    """
    n = X.shape[1]
    start, size = 0, _FIRST_CHUNK
    hashed = range(0)
    while start < budget:
        chunk = range(start, min(budget, start + size))
        if chunk.stop > hashed.stop:
            hashed = range(start, min(budget, start + max(size, _SEED_BLOCK)))
            words = _candidate_seed_words(seed, k, hashed)
        G = _candidate_draws(words[start - hashed.start : chunk.stop - hashed.start], n, k)
        rejected = _rejected_draws(X, G, tol)
        yield from ((c, g) for c, g, r in zip(chunk, G, rejected) if not r)
        start, size = chunk.stop, 2 * size


def search_piecewise(
    frame,
    ranks=None,
    budget: int = 100,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> PiecewiseScaling | None:
    """Look for a passing piecewise scaling; absence of a result is a value.

    Strategy, in order: standard scalability (equal constants work with
    any projection), the dedicated constructors for dimensions two and
    three (when they reject the input as numerically degenerate, the
    search goes on), then a seeded sweep of ``budget`` random projections
    per requested rank, each tried with a disjoint-support feasibility
    split.
    Candidate k of rank r draws from default_rng(SeedSequence((seed, r, k))),
    so the outcome does not depend on evaluation order.  A miss is not a
    proof that no scaling exists.  The seeds of a rank are hashed in one
    batch and every candidate is drawn from one reused PCG64 set to its
    state, bit-identically to a generator per candidate.

    Candidates are first screened in batches (16, then 32, 64, ...)
    without any solve.  A side with coordinates c_i scales exactly when I
    lies in the cone of the c_i c_i^T, so a symmetric R with
    c_i^T R c_i <= 0 and tr R > 0 keeps that cone at least
    tr R / ||R||_F away from I in Frobenius norm.  In two dimensions the
    test is exact: scaling fails exactly when the doubled angles of the
    c_i fit in an open half circle.  With G the largest circular gap
    between them, s = cos((2 pi - G) / 2) and d the bisector of their arc,
    R = s I - [[cos d, sin d], [sin d, -cos d]] gives the distance
    sqrt(2) s / sqrt(1 + s^2), and a 2-D side with s > 10 tol rejects.  A
    side of dimension d >= 3 uses a Farkas bound: for any symmetric R,
    with R^ = R / ||R||_F, u_i = c_i / ||c_i|| and
    delta = max_i (u_i^T R^ u_i)_+, the cone stays at least
    (tr R^ - d delta) / (1 + sqrt(d) delta) from I.  R is the residual
    I - sum_i w_i u_i u_i^T of FISTA on
    min_{w >= 0} ||sum_i w_i u_i u_i^T - I||_F^2 / 2, batched over the
    candidates, and the bound is evaluated after steps 1, 2, 4, ..., 128
    and 150.  A side whose bound exceeds 10 tol rejects at once and leaves
    the batch; the others run on, and the last step is a checkpoint, so
    every side the fixed 150 steps rejected still rejects.  The bound
    holds for any w, so it does not rest on convergence.  A
    one-dimensional side always scales.  A skipped candidate's distance
    exceeds tol, so the feasibility solve could only reject it.
    Candidates with a degenerate draw or a side part at rounding level are
    never skipped, and survivors take the sequential path: the higher-rank
    side is solved first (the range on a tie) and the other only when it
    scales, so the result is the same as without the screen.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    if seed < 0:
        raise ValueError("seed must be a nonnegative integer")
    fr = frame if isinstance(frame, Frame) else Frame(frame)
    n = fr.dim
    wanted = set(range(1, n)) if ranks is None else {int(k) for k in ranks} & set(range(1, n))
    valid = sorted(wanted)
    if not valid or not fr.is_frame():
        return None
    X = fr.vectors
    verdict = solve_standard_scaling(X, None, tol)
    if verdict.feasible:
        c = verdict.scaling.constants
        ps = PiecewiseScaling(canonical_projection(range(valid[0]), n), c, c)
        if verify_piecewise(fr, ps, tol).passed:
            return ps
    if n <= 3:
        try:
            built = (
                construct_r2(fr, canonical_projection([0], 2), tol)
                if n == 2
                else construct_r3(fr, tol)
            )
        except ValueError:
            # a numerically degenerate selection: try the sampled route
            built = None
        if built is not None:
            if built.projection.rank not in valid:
                if (n - built.projection.rank) not in valid:
                    return None
                built = _complement_form(built)
            if verify_piecewise(fr, built, tol).passed:
                return built
            return None
    for k in valid:
        for candidate, G in _surviving_candidates(X, k, budget, seed, tol):
            P = _projection_from_draw(G)
            if P is None:
                # the first draw was degenerate: redraw as _random_projection does
                P = _random_projection(_candidate_rng(seed, k, candidate), n, k)
            ps = _disjoint_split_candidate(X, P, tol)
            if ps is not None and verify_piecewise(fr, ps, tol).passed:
                return ps
    return None
