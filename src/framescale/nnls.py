"""Nonnegative least squares by the classic active-set iteration.

Each passive-set least squares step solves the normal equations
A_P^T A_P z_P = (A^T b)_P, which costs a small Gram product and one
dense solve instead of a full SVD-based ``lstsq`` of A_P.  Normal
equations square the condition number, so one ``lstsq`` on the final
passive set brings the result back to ``lstsq`` accuracy wherever that
solution stays positive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .frames import _freeze


@dataclass(frozen=True)
class NNLSResult:
    x: np.ndarray
    residual: float
    converged: bool
    iterations: int


def _passive_solution(A: np.ndarray, b: np.ndarray, Atb: np.ndarray, passive: np.ndarray) -> np.ndarray:
    # least squares on the passive columns from the Gram system; lstsq
    # only when that system is exactly singular
    AP = A[:, passive]
    try:
        return np.linalg.solve(AP.T @ AP, Atb[passive])
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(AP, b, rcond=None)[0]


def nnls(A, b, max_iter: int | None = None) -> NNLSResult:
    """Minimize ||A x - b||_2 subject to x >= 0, Lawson-Hanson style.

    The passive set grows by the most positive gradient coordinate; the
    unconstrained least squares solution on it is pulled back toward
    feasibility whenever a passive coordinate would go negative.  Each
    such solve uses the normal equations on the passive set, with A^T b
    computed once per call.  ``max_iter`` caps the total number of these
    solves (default ``50 * ncols``); on cap overflow the best iterate
    found so far is returned with ``converged=False``.  A pass without
    measurable progress also stops the run, and is ``converged`` only
    when no free coordinate alone could still lower the objective by a
    measurable share of b^T b; otherwise the stall is reported as
    ``converged=False``.

    The result is then polished by one ``lstsq`` on the final passive
    set, kept only when it is positive there and does not raise the
    residual; the polish is not counted in ``iterations``.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).ravel()
    if A.ndim != 2 or b.shape[0] != A.shape[0]:
        raise ValueError(f"incompatible shapes A={A.shape}, b={b.shape}")
    nrow, ncol = A.shape
    if max_iter is None:
        max_iter = 50 * ncol
    x = np.zeros(ncol)
    passive = np.zeros(ncol, dtype=bool)
    Atb = A.T @ b
    gtol = 1e-12 * max(1.0, float(np.abs(Atb).max(initial=0.0)))
    eps = float(np.finfo(float).eps)
    objective = float(b @ b)
    converged = False
    iters = 0
    while True:
        grad = A.T @ (b - A @ x)
        grad[passive] = -np.inf
        j = int(np.argmax(grad))
        if not np.isfinite(grad[j]) or grad[j] <= gtol:
            converged = True
            break
        passive[j] = True
        while iters < max_iter:
            iters += 1
            z = np.zeros(ncol)
            z[passive] = _passive_solution(A, b, Atb, passive)
            if z[passive].size == 0 or z[passive].min() > 0.0:
                x = z
                break
            shrink = passive & (z <= 0.0)
            gap = x[shrink] - z[shrink]
            safe = gap > 0.0
            alpha = float((x[shrink][safe] / gap[safe]).min()) if safe.any() else 0.0
            x = x + alpha * (z - x)
            # coordinates pulled to the boundary land at rounding level,
            # not exactly at zero; clip them so the passive set shrinks
            boundary = 10.0 * max(nrow, ncol) * eps * max(1.0, float(np.abs(x).max(initial=0.0)))
            passive &= x > boundary
            x[~passive] = 0.0
        if iters >= max_iter:
            break
        r = A @ x - b
        new_objective = float(r @ r)
        if new_objective > objective * (1.0 - 1e-13):
            # no measurable progress this pass: rounding noise would cycle.
            # The stop is optimal only if no free coordinate j could still
            # lower the objective alone, by grad_j^2 / ||a_j||^2, by a
            # measurable share of its value b^T b at x = 0
            grad = -(A.T @ r)
            free = ~passive & (grad > gtol)
            descent = grad[free] ** 2 > 1e-13 * float(b @ b) * (A[:, free] ** 2).sum(axis=0)
            converged = not descent.any()
            break
        objective = new_objective
    residual = float(np.linalg.norm(A @ x - b))
    if passive.any():
        polished = np.zeros(ncol)
        polished[passive] = np.linalg.lstsq(A[:, passive], b, rcond=None)[0]
        polished_residual = float(np.linalg.norm(A @ polished - b))
        if polished[passive].min() > 0.0 and polished_residual <= residual:
            x, residual = polished, polished_residual
    return NNLSResult(x=_freeze(x), residual=residual, converged=converged, iterations=iters)
