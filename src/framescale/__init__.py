"""Scalings of finite frames in R^n.

Decide and construct standard scalings (one constant per vector) and
piecewise scalings (separate constants for the two parts of an
orthogonal splitting) that turn a frame into a Parseval frame, verify
candidate scalings, transport them by unitaries, and certify
non-scalability for clustered families.
"""

__version__ = "0.1.0"

import importlib

# ``nnls`` names both a submodule and its function; importing the submodule
# later would bind the module over a lazily resolved function, so both
# names are bound here
from .nnls import NNLSResult, nnls

# every other exported name -> the submodule that defines it; a name is
# looked up in its module on each access, so ``import framescale`` loads
# only frames and nnls, and a function rebound in its module (by a patch
# or a tracer) is what the package returns
_EXPORTS = {
    "DEFAULT_TOL": "frames",
    "Frame": "frames",
    "FrameBounds": "frames",
    "InternalInconsistencyError": "frames",
    "VerificationReport": "frames",
    "apply_unitary": "frames",
    "canonical_parseval": "frames",
    "frame_bounds": "frames",
    "frame_operator": "frames",
    "normalize_columns": "frames",
    "verify_parseval": "frames",
    "OrthogonalProjection": "projections",
    "canonical_projection": "projections",
    "complement": "projections",
    "projection_from_basis": "projections",
    "projection_from_matrix": "projections",
    "random_projection": "projections",
    "validate_projection": "projections",
    "ScalabilityVerdict": "scaling",
    "StandardScaling": "scaling",
    "open_quadrant_certificate": "scaling",
    "solve_standard_scaling": "scaling",
    "PiecewiseReport": "piecewise",
    "PiecewiseScaling": "piecewise",
    "R3Construction": "piecewise",
    "construct_from_orthogonal_split": "piecewise",
    "construct_r2": "piecewise",
    "construct_r3": "piecewise",
    "construct_r3_detailed": "piecewise",
    "construct_r4_special": "piecewise",
    "cross_operator": "piecewise",
    "scaled_family": "piecewise",
    "search_piecewise": "piecewise",
    "verify_piecewise": "piecewise",
    "intertwiner": "transport",
    "to_canonical": "transport",
    "transport_scaling": "transport",
    "ObstructionReport": "obstructions",
    "check_constant_bounds": "obstructions",
    "closeness_obstruction": "obstructions",
    "dichotomy_check": "obstructions",
    "normalization_gap_bound": "obstructions",
    "pairwise_closeness": "obstructions",
    "FrameFormatError": "fileio",
    "load_frame": "fileio",
    "load_matrix": "fileio",
    "save_frame": "fileio",
}


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))


__all__ = sorted([*_EXPORTS, "NNLSResult", "nnls"])
