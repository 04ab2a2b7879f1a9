"""Unitary transport of piecewise scalings between equal-rank projections.

A unitary U with U P = Q U carries a P-scaling to a Q-scaling with the
same constants.  The intertwiner is built by matching completed
orthonormal bases of the two ranges; transporting onto the coordinate
projection of the same rank gives a canonical form.
"""

from __future__ import annotations

import numpy as np

from .frames import DEFAULT_TOL, Frame, InternalInconsistencyError, apply_unitary
from .projections import (
    OrthogonalProjection,
    _complement_basis,
    _symmetrized,
    canonical_projection,
)
from .piecewise import PiecewiseScaling

_INTERTWINER_TOL = 1e-10


def _completed_basis(P: OrthogonalProjection) -> np.ndarray:
    return np.column_stack([P.range_basis, _complement_basis(P.range_basis, P.dim)])


def intertwiner(P: OrthogonalProjection, Q: OrthogonalProjection) -> np.ndarray:
    """Unitary U with U P = Q U, mapping a completed basis of range(P) to one of range(Q).

    Equal projections give the identity exactly; equal ranks are
    required, since no unitary can intertwine projections of different
    rank.
    """
    if P.dim != Q.dim:
        raise ValueError(f"projections act on R^{P.dim} and R^{Q.dim}")
    if P.rank != Q.rank:
        raise ValueError(f"intertwiner needs equal ranks, got {P.rank} and {Q.rank}")
    n = P.dim
    if np.array_equal(P.matrix, Q.matrix):
        return np.eye(n)
    U = _completed_basis(Q) @ _completed_basis(P).T
    unitary_defect = float(np.linalg.norm(U.T @ U - np.eye(n), "fro"))
    intertwine_defect = float(np.linalg.norm(U @ P.matrix - Q.matrix @ U, "fro"))
    if unitary_defect > _INTERTWINER_TOL or intertwine_defect > _INTERTWINER_TOL:
        raise InternalInconsistencyError(
            f"intertwiner defects too large (unitary {unitary_defect:.3e}, "
            f"intertwining {intertwine_defect:.3e})"
        )
    return U


def transport_scaling(
    frame,
    ps: PiecewiseScaling,
    unitary,
    tol: float = DEFAULT_TOL,
) -> tuple[Frame, PiecewiseScaling]:
    """Apply the unitary to the frame and conjugate the projection; constants carry over.

    If the input scaling verifies, the output verifies with the same
    residuals up to rounding.
    """
    moved_frame = apply_unitary(frame, unitary, tol)
    U = np.asarray(unitary, dtype=float)
    P = ps.projection
    conjugated = OrthogonalProjection(
        _symmetrized(U @ P.matrix @ U.T), P.rank, U @ P.range_basis
    )
    return moved_frame, PiecewiseScaling(conjugated, ps.a, ps.b)


def to_canonical(frame, ps: PiecewiseScaling) -> tuple[Frame, PiecewiseScaling]:
    """Transport onto the coordinate projection of the same rank.

    The transported projection is snapped to the exact 0/1 diagonal once
    it sits within 1e-10 of it, so the output projection is exactly the
    canonical one.  The moved frame is fixed only up to orthogonal
    changes of basis within the range and within the complement: it
    follows the eigenvector complement bases of ``framescale.projections``.
    """
    P = ps.projection
    target = canonical_projection(range(P.rank), P.dim)
    U = intertwiner(P, target)
    moved_frame, moved = transport_scaling(frame, ps, U)
    drift = float(np.linalg.norm(moved.projection.matrix - target.matrix, "fro"))
    if drift > _INTERTWINER_TOL:
        raise InternalInconsistencyError(
            f"transported projection is {drift:.3e} away from the canonical one"
        )
    return moved_frame, PiecewiseScaling(target, ps.a, ps.b)
