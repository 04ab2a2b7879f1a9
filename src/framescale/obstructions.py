"""Non-scalability diagnostics for clustered frames and constant bound checks.

Tightly clustered unit-norm families keep at least one projected side
inside an open quadrant for every projection of intermediate rank, which
rules piecewise scalings out.  The report produced here is a certificate:
searches restricted to the listed ranks must come up empty.  Separate
checks validate the inequalities every verified scaling's constants must
satisfy on unit-norm frames.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .frames import (
    DEFAULT_TOL,
    Frame,
    InternalInconsistencyError,
    _UNIT_NORM_TOL,
    _scaled_back,
    _shifted_frame,
    VerificationReport,
    as_vector_array,
    verify_parseval,
)
from .projections import OrthogonalProjection

_BRANCH_SLACK = 1e-12


@dataclass(frozen=True)
class ObstructionReport:
    """Cluster radius, the projection ranks it rules out, and the rule applied."""

    epsilon: float
    applicable_ranks: frozenset[int]
    theorem: str
    detail: Mapping[str, object]


# cells (rows x vectors in the screen, rows x vectors x coordinates in the
# exact pass) one block of the distance kernel holds; a block's temporaries
# peak near 16 bytes per cell, 1 MB at 2^16 cells, which fits a 2 MB
# per-core L2 cache; on such an x86-64 host, with BLAS on one thread,
# 2^20-cell blocks ran the screen two to three times slower at m = 1500
_BLOCK_CELLS = 2**16

# below this many cells the exact pass over every row costs less than the
# screen's extra numpy calls
_DIRECT_CELLS = 2**12


def _screen_maxima(Y: np.ndarray, sq: np.ndarray, rows: slice | np.ndarray, step: int) -> np.ndarray:
    """Largest screened d^2 from each of ``rows`` of Y to every row, ``step`` rows per GEMM.

    Row i of [-2Y, s, 1] against row j of [Y, 1, s] is ||y_i||^2 +
    ||y_j||^2 - 2 <y_i, y_j>, in the dtype of Y.
    """
    m, n = Y.shape
    right = np.empty((m, n + 2), Y.dtype)
    right[:, :n], right[:, n], right[:, n + 1] = Y, 1.0, sq
    count = sq[rows].size
    left = np.empty((count, n + 2), Y.dtype)
    np.multiply(Y[rows], -2.0, out=left[:, :n])
    left[:, n], left[:, n + 1] = sq[rows], 1.0
    screened = np.empty(count, Y.dtype)
    for start in range(0, count, step):
        block = slice(start, start + step)
        (left[block] @ right.T).max(axis=1, out=screened[block])
    return screened


def _top_rows(screened: np.ndarray, sq: np.ndarray, n: int) -> np.ndarray:
    """Rows whose screened maximum lies within 2 delta of the top.

    delta = 8 (n + 4) (eps R^2 + tiny), with R^2 = max sq and eps, tiny
    those of the screen's dtype, as _max_pair_distance derives it.
    """
    fl = np.finfo(sq.dtype)
    delta = 8.0 * (n + 4) * (float(fl.eps) * float(sq.max()) + float(fl.tiny))
    return np.flatnonzero(screened >= float(screened.max()) - 2.0 * delta)


def _float32_rows(Y: np.ndarray, step: int) -> np.ndarray:
    """Rows of the centred Y that the float32 pass of _max_pair_distance keeps."""
    # one exact power of two brings the largest entry into [1/2, 1), so
    # the float32 copy neither overflows nor loses the cluster to underflow
    Z = np.ldexp(Y, -int(np.frexp(np.abs(Y).max())[1])).astype(np.float32)
    sq = np.einsum("ij,ij->i", Z, Z)
    return _top_rows(_screen_maxima(Z, sq, slice(None), step), sq, Y.shape[1])


def _screened_rows(X: np.ndarray) -> np.ndarray:
    """Rows whose largest distance may reach the maximum over all pairs.

    Requires a frame inside _ROW_WINDOW, as _shifted_frame leaves it: a
    single term of the screen that overflowed would drop its pair from
    the screen, not its row's maximum.  Above _BLOCK_CELLS squared rows
    a float32 pass picks the rows the double screen re-screens (see
    _max_pair_distance).
    """
    m, n = X.shape
    # distances do not move under translation, and centring on one row
    # scales the rounding bound to the cluster instead of the norms
    Y = X - X[0]
    sq = np.einsum("ij,ij->i", Y, Y)
    step = max(1, _BLOCK_CELLS // m)
    if m * m > _BLOCK_CELLS:
        fl = np.finfo(float)
        if fl.tiny <= fl.eps * float(sq.max()):
            # float32 blocks of twice the rows hold as many bytes
            rows = _float32_rows(Y, 2 * step)
            return rows[_top_rows(_screen_maxima(Y, sq, rows, step), sq, n)]
    return _top_rows(_screen_maxima(Y, sq, slice(None), step), sq, n)


def _exact_rows(X: np.ndarray, step: int) -> np.ndarray:
    """Rows the exact pass of _max_pair_distance recomputes, in order.

    Every row of a small input, else the screened rows.  When those span
    more than one block of ``step`` rows, exact copies collapse onto their
    first occurrence: a copy has the same distances as that row, so it can
    never win the strict > that keeps the first argmax, and the result
    stays bit-identical while many tying copies cost one row.  Requires
    a frame inside _ROW_WINDOW, as the screen does.
    """
    m, n = X.shape
    rows = np.arange(m) if m * m * n <= _DIRECT_CELLS else _screened_rows(X)
    if rows.size > step:
        rows = rows[np.sort(np.unique(X[rows], axis=0, return_index=True)[1])]
    return rows


def _max_pair_distance(X: np.ndarray) -> tuple[float, tuple[int, int]]:
    """Largest distance ||x_i - x_j|| and its first pair in row-major order.

    Bit-identical to the maximum and argmax of
    ``np.sqrt(((X[:, None, :] - X[None, :, :])**2).sum(-1))`` on the
    shifted frame 2^s X of _shifted_frame, multiplied by 2^-s, but never
    builds that (m, m, n) array.  The shift is exact and is the identity
    inside _ROW_WINDOW, so no square the kernel forms overflows, and a
    distance leaves the range of doubles only when its own value does.
    The screen centres the rows, y_i =
    x_i - x_0, with s_i the computed ||y_i||^2, and takes each squared
    distance d^2 = ||y_i||^2 + ||y_j||^2 - 2 <y_i, y_j> as one
    (n + 2)-term dot product: row i of [-2Y, s, 1] against row j of
    [Y, 1, s].  So a row block of about _BLOCK_CELLS cells costs one GEMM
    and one row maximum.

    Rounding bound.  With R^2 = max s_i and unit roundoff u = eps / 2,
    to first order in u and for any summation order, with or without
    fused multiply-adds, as no term or partial sum overflows:

    - rounding the y_i moves d^2 by at most 8 u R^2;
    - each s_i lies within n u R^2 of ||y_i||^2, which moves d^2 by at
      most 2n u R^2;
    - -2 y_ik is exact, and the dot product's terms have absolute sum at
      most 2 ||y_i|| ||y_j|| + s_i + s_j <= 4 R^2, so its rounding adds
      at most 4 (n + 2) u R^2;
    - the exact pass's difference formula lies within (4n + 8) u R^2 of
      the true d^2 <= 4 R^2.

    A screened value and the exact pass's d^2 of the same pair therefore
    differ by at most B = (10n + 24) u R^2.  Two d^2 whose rounded square
    roots both equal the maximum M <= 2R differ by at most
    2 ulp(M) M <= 4 u M^2 <= S = 16 u R^2.  So the top screened value
    exceeds that of any row holding the maximum by at most
    2B + S = (20n + 64) u R^2, below 2 delta = (32n + 128) u R^2 with
    delta = 8 (n + 4) (eps R^2 + tiny); the margin covers the
    second-order terms, and tiny (the smallest normal float) covers
    underflow.  Only rows whose screened maximum lies within 2 delta of
    the top can hold the maximum.  Those rows are recomputed with the
    difference formula in blocks of about _BLOCK_CELLS cells, so memory
    stays O(m n) plus one block.

    Float32 pass.  When m^2 > _BLOCK_CELLS and tiny <= eps R^2, so that
    delta <= 32 (n + 4) u R^2, the screen first runs in float32 on Z =
    fl32(2^t Y), 2^t bringing the largest |y_ik| into [1/2, 1), with s_i
    now the float32 ||z_i||^2 and blocks of twice the rows, and keeps the
    rows within 2 delta32 of its top, delta32 = 8 (n + 4) (eps32 R32^2 +
    tiny32), with R32^2 = max s_i and eps32, tiny32 the float32 constants.
    In the units of Z, the first three items above with u32 = eps32 / 2 in
    place of u (u + u32 in the first, for the cast) put a float32 screened
    value within E32 = (6n + 16) u32 R32^2 of d^2, plus tiny32 terms for
    values that underflow; the same items put a double screened value
    within E = (6n + 16) u R^2 + 8 (n + 4) tiny <= delta.  A row the
    all-double screen keeps lies within 2 delta of its top, so its float32
    maximum lies within 2 (delta + E + E32) <= 4 delta + 2 E32 of the
    float32 top.  As u = 2^-29 u32, 4 delta is at most (n + 4) 2^-22 u32
    R32^2 in these units, so that gap is under (12n + 33) u32 R32^2, and
    the float32 threshold, rounded to float32, moves by at most 4 u32
    R32^2 more; both stay below 2 delta32 = (32n + 128) u32 R32^2, whose
    margin again covers the second-order terms and tiny32 the underflow.
    So every row the all-double screen keeps survives the float32 pass,
    among them the row of the double top.  The survivors are then
    re-screened in double against every row, with the same top and
    threshold 2 delta, and _screened_rows returns the rows the all-double
    screen keeps: a block's summation order, which BLAS may pick by the
    block's shape, can move only a row within rounding of that threshold,
    never one that can hold the maximum, since the bound above holds for
    any order.

    Inputs of at most _DIRECT_CELLS cells recompute every row.  When the
    re-checked rows fill more than one block, exact copies of a row are
    re-checked once, at their first occurrence (see _exact_rows).
    """
    m, n = X.shape
    step = max(1, _BLOCK_CELLS // (m * n))
    s, Y = _shifted_frame(X)
    dist, pair = _blocked_max(Y, _exact_rows(Y, step), step)
    return float(_scaled_back(dist, s)), pair


def _blocked_max(X: np.ndarray, rows: np.ndarray, step: int) -> tuple[float, tuple[int, int]]:
    """Largest difference-formula distance from ``rows`` to every row, ``step`` rows at a time."""
    m = X.shape[0]
    best, pair = -np.inf, (0, 0)
    for start in range(0, rows.size, step):
        chunk = rows[start : start + step]
        dist = np.sqrt(((X[chunk, None, :] - X[None, :, :]) ** 2).sum(-1))
        flat = int(np.argmax(dist))
        # strictly greater: an earlier row keeps a tie, as argmax would
        if dist.flat[flat] > best:
            best, pair = float(dist.flat[flat]), (int(chunk[flat // m]), flat % m)
    return best, pair


def pairwise_closeness(frame) -> float:
    """Largest pairwise distance max_{i != j} ||x_i - x_j||.

    Computed by the blocked kernel of ``_max_pair_distance``, bit-identical
    to the full broadcast, in O(m n) memory plus one block.
    """
    X = as_vector_array(frame)
    if X.shape[0] < 2:
        raise ValueError("pairwise closeness needs at least two vectors")
    return _max_pair_distance(X)[0]


def _unit_norm_deviation(X: np.ndarray) -> float:
    # a row whose squared norm overflows lies infinitely far from unit norm
    with np.errstate(over="ignore"):
        return float(np.abs(np.linalg.norm(X, axis=1) - 1.0).max())


def dichotomy_check(frame, projection: OrthogonalProjection, epsilon: float) -> str:
    """Which projected side keeps all pairwise inner products large.

    For a unit-norm family with pairwise distances at most epsilon < 1,
    either every pair satisfies <P x_i, P x_j> >= 1/2 - 4 epsilon or
    every pair satisfies the complement bound with 1/2 - epsilon.
    Returns "p-side", "q-side", or "both"; "neither" is impossible for
    valid inputs and raises as an internal error.
    """
    X = as_vector_array(frame)
    if X.shape[0] < 2:
        raise ValueError("dichotomy check needs at least two vectors")
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    dev = _unit_norm_deviation(X)
    if dev > _UNIT_NORM_TOL:
        raise ValueError(f"frame must be unit-norm within {_UNIT_NORM_TOL:g} (deviation {dev:.3e})")
    if _max_pair_distance(X)[0] > epsilon:
        raise ValueError("pairwise distances exceed epsilon")
    if projection.dim != X.shape[1]:
        raise ValueError("projection dimension does not match the vectors")
    Y = X @ projection.matrix
    Z = X - Y
    mask = ~np.eye(X.shape[0], dtype=bool)
    p_min = float((Y @ Y.T)[mask].min())
    q_min = float((Z @ Z.T)[mask].min())
    p_ok = p_min >= 0.5 - 4.0 * epsilon - _BRANCH_SLACK
    q_ok = q_min >= 0.5 - epsilon - _BRANCH_SLACK
    if p_ok and q_ok:
        return "both"
    if p_ok:
        return "p-side"
    if q_ok:
        return "q-side"
    raise InternalInconsistencyError(
        f"neither branch holds (p-side min {p_min:.6g}, q-side min {q_min:.6g}); "
        "this contradicts the dichotomy and indicates a bug"
    )


def closeness_obstruction(frame) -> ObstructionReport:
    """Certificate that a tightly clustered unit frame admits no mid-rank projection.

    In R^4 a cluster radius below 1/8 rules out rank 2; below 1/64 the
    ranks 2..n-2 are ruled out in any dimension n >= 4.  Thresholds are
    strict, and both gates also require unit norms within 1e-8.

    The radius max ||x_i - x_j|| and ``detail["max_pair"]`` come from
    the blocked kernel of ``_max_pair_distance``, which states its
    rounding bound: they are bit-identical to the full (m, m, n)
    broadcast and its first argmax on the frame that _shifted_frame
    scales by one power of two, scaled back, and memory stays O(m n)
    plus one block of about 2^16 cells.
    """
    X = as_vector_array(frame)
    m, n = X.shape
    dev = _unit_norm_deviation(X)
    detail: dict[str, object] = {"unit_norm_deviation": dev, "vector_count": m}
    if m < 2:
        return ObstructionReport(0.0, frozenset(), "none", detail)
    eps, detail["max_pair"] = _max_pair_distance(X)
    ranks: set[int] = set()
    theorem = "none"
    if dev <= _UNIT_NORM_TOL:
        if n == 4 and eps < 0.125:
            ranks |= {2}
            theorem = "cor-4.4"
        if n >= 4 and eps < 1.0 / 64.0:
            ranks |= set(range(2, n - 1))
            if theorem == "none":
                theorem = "rank-k-1/64"
    return ObstructionReport(eps, frozenset(ranks), theorem, detail)


def normalization_gap_bound(x, y) -> tuple[float, float]:
    """Distance between the normalized vectors and its linear bound 32 ||x - y||.

    Requires 1/4 <= ||x||, ||y|| <= 1.  Within that norm window the bound
    holds for any separation, so only the norms are gated.
    """
    xv = np.asarray(x, dtype=float).ravel()
    yv = np.asarray(y, dtype=float).ravel()
    if xv.shape != yv.shape:
        raise ValueError(f"vectors differ in dimension: {xv.shape} vs {yv.shape}")
    nx = float(np.linalg.norm(xv))
    ny = float(np.linalg.norm(yv))
    slack = 1e-12
    for label, norm in (("x", nx), ("y", ny)):
        if not 0.25 - slack <= norm <= 1.0 + slack:
            raise ValueError(f"||{label}|| = {norm:.6g} lies outside [1/4, 1]")
    lhs = float(np.linalg.norm(xv / nx - yv / ny))
    return lhs, 32.0 * float(np.linalg.norm(xv - yv))


def check_constant_bounds(frame, scaling, tol: float = DEFAULT_TOL) -> VerificationReport:
    """Inequality suite for scaling constants on unit-norm frames.

    Standard scalings: no constant exceeds one in square, the squares sum
    to the dimension, and a unit constant forces orthogonality to every
    other vector.  Piecewise scalings: the per-index maxima dominate the
    dimension, |a_i b_i| <= sqrt(a_i^2 + b_i^2) holds indexwise, and one
    side of every index stays below sqrt(2).  The scaling must verify
    first; otherwise the bounds are meaningless and this raises.
    """
    # imported here, so that closeness checks compile neither module
    from .piecewise import PiecewiseScaling, verify_piecewise
    from .scaling import StandardScaling

    fr = frame if isinstance(frame, Frame) else Frame(frame)
    X = fr.vectors
    m, n = X.shape
    dev = _unit_norm_deviation(X)
    if dev > tol:
        raise ValueError(f"frame must be unit-norm within {tol:g} (deviation {dev:.3e})")
    detail: dict[str, tuple[bool, float]] = {}
    if isinstance(scaling, StandardScaling):
        if scaling.target_rank != n:
            raise ValueError("constant bounds apply to full-space standard scalings")
        if scaling.constants.shape[0] != m:
            raise ValueError(f"scaling has {scaling.constants.shape[0]} constants for {m} vectors")
        if not verify_parseval(scaling.constants[:, None] * X, None, tol).passed:
            raise ValueError("scaling does not verify; bounds only apply to verified scalings")
        csq = scaling.constants**2
        over = max(0.0, float(csq.max()) - 1.0)
        detail["max_constant_sq"] = (over <= tol, over)
        drift = abs(float(csq.sum()) - n)
        detail["sum_constants_sq"] = (drift <= tol, drift)
        # a unit constant forces c_j <x_i, x_j> = 0, so only partners inside
        # the support are constrained
        unit_idx = np.nonzero(np.abs(np.abs(scaling.constants) - 1.0) <= tol)[0]
        support = np.abs(scaling.constants) > tol
        worst = 0.0
        if unit_idx.size and support.any():
            G = X @ X.T
            np.fill_diagonal(G, 0.0)
            worst = float(np.abs(G[np.ix_(unit_idx, support)]).max(initial=0.0))
        detail["unit_constant_orthogonality"] = (worst <= 10.0 * tol, worst)
    elif isinstance(scaling, PiecewiseScaling):
        if not verify_piecewise(fr, scaling, tol).passed:
            raise ValueError("scaling does not verify; bounds only apply to verified scalings")
        asq = scaling.a**2
        bsq = scaling.b**2
        short = max(0.0, n - float(np.maximum(asq, bsq).sum()))
        detail["dimension_vs_max_constants"] = (short <= tol, short)
        prod_over = max(0.0, float((np.abs(scaling.a * scaling.b) - np.sqrt(asq + bsq)).max()))
        detail["product_bound"] = (prod_over <= tol, prod_over)
        min_over = max(
            0.0, float((np.minimum(np.abs(scaling.a), np.abs(scaling.b)) - np.sqrt(2.0)).max())
        )
        detail["min_constant_bound"] = (min_over <= tol, min_over)
    else:
        raise TypeError(f"unsupported scaling type: {type(scaling).__name__}")
    residual = max(value for _, value in detail.values())
    return VerificationReport(
        passed=all(ok for ok, _ in detail.values()),
        residual=residual,
        detail=detail,
        tolerance=tol,
    )
