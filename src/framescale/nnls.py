"""Nonnegative least squares by the classic active-set iteration.

The passive columns are kept as a thin QR factor A_P = Q R, updated as the
passive set changes (Bro & de Jong 1997), with a second Gram-Schmidt pass only
when the first cancels much of an entering column, and deletions on the live
blocks only.  With Q^T b and R^-1 kept beside Q, a passive-set step z_P =
R^-1 Q^T b costs O(|P|^2) and a pass's residual b - Q Q^T b O(nrow |P|), so
A^T r is a pass's one O(nrow * ncol) product.  QR least squares does not
square the condition number, so no final ``lstsq`` is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .frames import _freeze

_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class NNLSResult:
    x: np.ndarray
    residual: float
    converged: bool
    iterations: int


class _PassiveFactor:
    """Thin QR factor A_P = Q R of the passive columns of A, in the order they entered.

    Row i of ``F`` holds row i of R, row i of R^-T, row i of Q^T and (Q^T b)_i
    side by side, so one orthogonal transformation of its rows updates all
    four.  ``F`` is sized for the largest passive set, s = min(nrow, ncol);
    with k passive columns, the R and R^-T blocks are zero outside their
    leading k x k corners.  ``colsq`` holds the squared column norms
    ||a_j||^2 and ``floor`` their rounding levels, nrow * eps * ||a_j||."""

    def __init__(self, A: np.ndarray, b: np.ndarray, colsq: np.ndarray):
        self.A, self.b, self.colsq, self.floor = A, b, colsq, A.shape[0] * _EPS * np.sqrt(colsq)
        self.s = min(A.shape)
        self.cols: list[int] = []
        self.F = np.zeros((self.s, 2 * self.s + A.shape[0] + 1))

    def add(self, j: int) -> bool:
        """Append column j by classical Gram-Schmidt, a second pass only if the
        first leaves rho < ||a_j|| / sqrt(2) (the DGKS test); False, leaving the
        factor as it was, when a_j lies within rounding of the passive span."""
        k, s, F = len(self.cols), self.s, self.F
        if k == s:
            return False
        Qt = F[:k, 2 * s : -1]
        a = self.A[:, j]
        coef = Qt @ a
        v = a - coef @ Qt
        rho = math.sqrt(v @ v)
        if 2.0 * rho * rho < self.colsq[j]:
            again = Qt @ v
            v -= again @ Qt
            coef += again
            rho = math.sqrt(v @ v)
        if rho <= self.floor[j]:
            return False
        # [[R, c], [0, rho]]^-1 = [[R^-1, -R^-1 c / rho], [0, 1 / rho]]
        row = F[k]
        F[:k, k] = coef
        row[k] = rho
        np.matmul(coef * (-1.0 / rho), F[:k, s : s + k], out=row[s : s + k])
        row[s + k] = 1.0 / rho
        q = np.divide(v, rho, out=row[2 * s : -1])
        row[-1] = q @ self.b
        self.cols.append(j)
        return True

    def keep(self, kept: np.ndarray) -> None:
        """Delete the columns not marked in ``kept``, a mask over ``cols``.

        R stays triangular before the first deleted position i.  One Householder
        QR of R's rows and columns from i on, H = Q2 R2, restores the rest, and
        Q2^T acts on those rows of the other live blocks: R^-T's first n columns
        (rows of R^-1, kept like R's columns) and Q^T | Q^T b."""
        k, s, F = len(self.cols), self.s, self.F
        n = (idx := np.flatnonzero(kept)).size
        if n == k:
            return
        i = int(kept.argmin())
        for start in (0, s):
            F[:k, start + i : start + n] = F[:k, start + idx[i:]]
            F[:k, start + n : start + k] = 0.0
        if i < n:
            Q2, F[i:n, i:n] = np.linalg.qr(F[i:k, i:n])
            F[i:n, s : s + n] = Q2.T @ F[i:k, s : s + n]
            F[i:n, 2 * s :] = Q2.T @ F[i:k, 2 * s :]
        F[n:k, : 2 * s] = 0.0
        self.cols = [self.cols[p] for p in idx]

    def solve(self) -> np.ndarray:
        """Least squares coefficients z_P = R^-1 Q^T b, in the order of ``cols``."""
        k, s = len(self.cols), self.s
        return self.F[:k, -1] @ self.F[:k, s : s + k]

    def residual(self) -> np.ndarray:
        """The least squares residual on the passive set, b - Q Q^T b."""
        return self.b - self.F[: len(self.cols), -1] @ self.F[: len(self.cols), 2 * self.s : -1]


def _no_descent(b: np.ndarray, grad: np.ndarray, passive: np.ndarray, colsq: np.ndarray, gtol: float) -> bool:
    # the stop is optimal only if no free coordinate j could still lower
    # the objective alone, by grad_j^2 / ||a_j||^2, by a measurable share
    # of its value b^T b at x = 0
    free = ~passive & (grad > gtol)
    return not (grad[free] ** 2 > 1e-13 * float(b @ b) * colsq[free]).any()


def nnls(A, b, max_iter: int | None = None) -> NNLSResult:
    """Minimize ||A x - b||_2 subject to x >= 0, Lawson-Hanson style.

    The passive set grows by the most positive gradient coordinate; the
    unconstrained least squares solution on it is pulled back toward feasibility
    whenever a passive coordinate would go negative.  Each such solve comes from
    the updated QR factor of the passive columns.  ``max_iter`` caps the total
    number of these solves (default ``50 * ncols``); on cap overflow the best
    iterate found so far is returned with ``converged=False``.  A pass without
    measurable progress also stops the run, and so does an entering column that
    lies within rounding of the span of the passive ones; either stall is
    ``converged`` only when no free coordinate alone could still lower the
    objective by a measurable share of b^T b, and ``converged=False`` otherwise.
    A or b with a non-finite entry raises ``ValueError``.
    """
    # one layout, so the same system gives the same bits however A is stored
    A = np.ascontiguousarray(A, dtype=float)
    b = np.asarray(b, dtype=float).ravel()
    if A.ndim != 2 or b.shape[0] != A.shape[0]:
        raise ValueError(f"incompatible shapes A={A.shape}, b={b.shape}")
    for name, value in (("A", A), ("b", b)):
        if not np.isfinite(value).all():
            raise ValueError(f"{name} has non-finite entries")
    nrow, ncol = A.shape
    max_iter = 50 * ncol if max_iter is None else max_iter
    xP = np.zeros(0)  # the iterate on the passive set, aligned with factor.cols
    passive = np.zeros(ncol, dtype=bool)
    colsq = np.einsum("ij,ij->j", A, A)
    factor = _PassiveFactor(A, b, colsq)
    grad = A.T @ b
    gtol = 1e-12 * max(1.0, float(np.abs(grad).max(initial=0.0)))
    objective = float(b @ b)
    converged = ncol == 0  # with no columns x = 0 is the optimum
    iters = 0
    while not converged:
        grad[passive] = -np.inf
        j = int(grad.argmax())
        if not gtol < grad[j] < np.inf:
            converged = True
            break
        if not factor.add(j):
            converged = _no_descent(b, grad, passive, colsq, gtol)
            break
        passive[j] = True
        while iters < max_iter:
            iters += 1
            zP = factor.solve()
            if zP.size == 0 or zP.min() > 0.0:
                xP = zP
                break
            xP = np.append(xP, np.zeros(zP.size - xP.size))  # the entering coordinate starts at 0
            shrink = zP <= 0.0
            gap = xP[shrink] - zP[shrink]
            safe = gap > 0.0
            alpha = float((xP[shrink][safe] / gap[safe]).min()) if safe.any() else 0.0
            xP = xP + alpha * (zP - xP)
            # coordinates pulled to the boundary land at rounding level,
            # not exactly at zero; clip them so the passive set shrinks
            boundary = 10.0 * max(nrow, ncol) * _EPS * max(1.0, float(np.abs(xP).max(initial=0.0)))
            kept = xP > boundary
            passive[factor.cols] = kept
            factor.keep(kept)
            xP = xP[kept]
        if iters >= max_iter:
            break
        r = factor.residual()  # xP is the passive least squares solution
        grad = A.T @ r
        new_objective = float(r @ r)
        if new_objective > objective * (1.0 - 1e-13):
            # no measurable progress this pass: rounding noise would cycle
            converged = _no_descent(b, grad, passive, colsq, gtol)
            break
        objective = new_objective
    x = np.zeros(ncol)
    x[factor.cols[: xP.size]] = xP  # a cap before the first solve leaves the entering 0 out
    return NNLSResult(x=_freeze(x), residual=float(np.linalg.norm(A @ x - b)), converged=converged, iterations=iters)
