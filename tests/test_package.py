"""The package namespace resolves its names lazily, and each CLI subcommand
loads only the modules it runs."""

import importlib
import inspect
import pkgutil
import subprocess
import sys

import pytest

import framescale as fs
from framescale.cli import main
from helpers import r3_fixture

EXPORTED = [
    "DEFAULT_TOL",
    "Frame",
    "FrameBounds",
    "FrameFormatError",
    "InternalInconsistencyError",
    "NNLSResult",
    "ObstructionReport",
    "OrthogonalProjection",
    "PiecewiseReport",
    "PiecewiseScaling",
    "R3Construction",
    "ScalabilityVerdict",
    "StandardScaling",
    "VerificationReport",
    "apply_unitary",
    "canonical_parseval",
    "canonical_projection",
    "check_constant_bounds",
    "closeness_obstruction",
    "complement",
    "construct_from_orthogonal_split",
    "construct_r2",
    "construct_r3",
    "construct_r3_detailed",
    "construct_r4_special",
    "cross_operator",
    "dichotomy_check",
    "frame_bounds",
    "frame_operator",
    "intertwiner",
    "load_frame",
    "load_matrix",
    "nnls",
    "normalization_gap_bound",
    "normalize_columns",
    "open_quadrant_certificate",
    "pairwise_closeness",
    "projection_from_basis",
    "projection_from_matrix",
    "random_projection",
    "save_frame",
    "scaled_family",
    "search_piecewise",
    "solve_standard_scaling",
    "to_canonical",
    "transport_scaling",
    "validate_projection",
    "verify_parseval",
    "verify_piecewise",
]


def _import_every_submodule():
    for info in pkgutil.iter_modules(fs.__path__):
        if info.name != "__main__":
            importlib.import_module(f"framescale.{info.name}")


def test_all_is_unchanged():
    assert fs.__all__ == EXPORTED


def test_every_name_resolves_to_its_defining_module():
    _import_every_submodule()
    for name in fs.__all__:
        value = getattr(fs, name)
        # the one exported constant has no __module__ of its own
        owner = value.__module__ if inspect.isclass(value) or inspect.isfunction(value) else "framescale.frames"
        assert value is getattr(importlib.import_module(owner), name), name
    # the submodule of the same name does not shadow the function
    assert fs.nnls is importlib.import_module("framescale.nnls").nnls


def test_a_name_rebound_in_its_module_is_what_the_package_returns(monkeypatch):
    import framescale.piecewise as pw

    original = pw.search_piecewise
    assert "search_piecewise" not in vars(fs)
    monkeypatch.setattr(pw, "search_piecewise", len)
    assert fs.search_piecewise is len
    monkeypatch.undo()
    assert fs.search_piecewise is original


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from framescale import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(fs.__all__)


def test_dir_covers_all():
    assert set(fs.__all__) <= set(dir(fs))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        fs.no_such_name


# prints the framescale submodules loaded when the process exits, after
# running ``python -m framescale`` with this process's arguments
_LOADED_AT_EXIT = (
    "import atexit, runpy, sys\n"
    "atexit.register(lambda: print(' '.join(sorted(m for m in sys.modules if m.startswith('framescale.')))))\n"
    "runpy.run_module('framescale', run_name='__main__', alter_sys=True)\n"
)


def _loaded(*argv: str) -> set[str]:
    done = subprocess.run([sys.executable, "-c", _LOADED_AT_EXIT, *argv], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return {name.removeprefix("framescale.") for name in done.stdout.split()}


def test_import_framescale_loads_frames_and_nnls_only():
    probe = "import sys, framescale; print(' '.join(sorted(m for m in sys.modules if m.startswith('framescale.'))))"
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["framescale.frames", "framescale.nnls"]


def test_each_subcommand_loads_only_what_it_runs(tmp_path):
    frame = tmp_path / "triple.csv"
    fs.save_frame(r3_fixture(), frame)
    report = tmp_path / "piecewise.json"
    assert main(["piecewise", str(frame), "--construct", "r3", "--out", str(report)]) == 0
    out = ["--out", str(tmp_path / "report.json")]
    not_loaded = {
        ("analyze", str(frame)): {"projections", "scaling", "piecewise", "search", "obstructions", "transport"},
        ("canonical-parseval", str(frame)): {"projections", "scaling", "piecewise", "search", "obstructions", "transport"},
        ("scale", str(frame)): {"piecewise", "search", "obstructions", "transport"},
        ("obstruct", str(frame)): {"piecewise", "search", "scaling", "transport"},
        ("verify", str(report)): {"search", "obstructions", "transport"},
        ("transport", str(report), "--to-canonical"): {"search", "obstructions"},
        # a search in R^2 or R^3 ends in its constructor: it asks no obstruction and needs no route
        ("piecewise", str(frame)): {"search", "obstructions", "transport"},
    }
    for argv, absent in not_loaded.items():
        loaded = _loaded(*argv, *out)
        assert {"cli", "fileio", "frames"} <= loaded, argv
        assert not loaded & absent, (argv, loaded & absent)
