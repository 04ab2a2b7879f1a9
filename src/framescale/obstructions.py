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
    VerificationReport,
    as_vector_array,
    verify_parseval,
)
from .projections import OrthogonalProjection
from .piecewise import PiecewiseScaling, verify_piecewise
from .scaling import StandardScaling

_BRANCH_SLACK = 1e-12


@dataclass(frozen=True)
class ObstructionReport:
    """Cluster radius, the projection ranks it rules out, and the rule applied."""

    epsilon: float
    applicable_ranks: frozenset[int]
    theorem: str
    detail: Mapping[str, object]


def pairwise_closeness(frame) -> float:
    """Largest pairwise distance max_{i != j} ||x_i - x_j||."""
    X = as_vector_array(frame)
    if X.shape[0] < 2:
        raise ValueError("pairwise closeness needs at least two vectors")
    diff = X[:, None, :] - X[None, :, :]
    return float(np.sqrt((diff**2).sum(-1)).max())


def _unit_norm_deviation(X: np.ndarray) -> float:
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
    if pairwise_closeness(X) > epsilon:
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
    """
    X = as_vector_array(frame)
    m, n = X.shape
    dev = _unit_norm_deviation(X)
    detail: dict[str, object] = {"unit_norm_deviation": dev, "vector_count": m}
    if m < 2:
        return ObstructionReport(0.0, frozenset(), "none", detail)
    diff = X[:, None, :] - X[None, :, :]
    dist = np.sqrt((diff**2).sum(-1))
    eps = float(dist.max())
    far = np.unravel_index(int(np.argmax(dist)), dist.shape)
    detail["max_pair"] = (int(far[0]), int(far[1]))
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
