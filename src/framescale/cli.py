"""Command line interface.

Subcommands: analyze, scale, piecewise, verify, obstruct, transport,
canonical-parseval.  Every run writes a JSON report to stdout or --out.
Exit codes: 0 verdict computed (including infeasible, undecided or
not-found), 1 usage error, 2 input format error, 3 internal
inconsistency.  main parses the flags, resolves --tol, checks the
piecewise flags that need no frame, reads the command's frame file or
report (_read_report) and starts its report, in that order, so a usage
error comes before any file is read; each command fills in its fields.

The top level imports only what every command uses; each command imports
its solver modules when it runs, so a process loads only what its command
needs.
"""

from __future__ import annotations

import argparse
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .frames import (
    DEFAULT_TOL,
    Frame,
    InternalInconsistencyError,
    _check_tol,
    canonical_parseval,
    frame_bounds,
    frame_operator,
    verify_parseval,
)
from .fileio import (
    FrameFormatError,
    _numbers,
    _rows_from_json,
    load_frame,
    load_matrix,
    load_report,
    save_frame,
    write_report,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3

_ROUND_TRIP_TOL = 1e-12


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # usage problems are exit code 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _int_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=None, help="absolute Frobenius tolerance (default 1e-8)")
    common.add_argument("--format", choices=("csv", "json"), default=None, help="frame file format; other files go by extension")
    common.add_argument("--out", default=None, help="write the JSON report here instead of stdout")

    parser = _Parser(prog="framescale", description="Scalings of finite frames in R^n.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("analyze", parents=[common], help="frame operator, bounds, condition number")
    p.add_argument("frame")

    p = sub.add_parser("scale", parents=[common], help="decide standard scalability")
    p.add_argument("frame")

    p = sub.add_parser("piecewise", parents=[common], help="construct or search for a piecewise scaling")
    p.add_argument("frame")
    p.add_argument("--construct", choices=("r2", "r3", "r4special", "split"), default=None)
    p.add_argument("--projection", default=None, help="projection matrix file (r2, split)")
    p.add_argument("--indices", type=_int_list, default=None, help="four 0-based indices (r4special)")
    p.add_argument("--p-indices", type=_int_list, default=None, help="0-based projected-side indices (split)")
    p.add_argument("--q-indices", type=_int_list, default=None, help="0-based complement-side indices (split)")
    p.add_argument("--rank", type=_int_list, action="append", default=None, help="projection ranks to search")
    p.add_argument("--budget", type=int, default=200, help="seeded candidates per rank (the route uses at most 3)")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("verify", parents=[common], help="re-check the scaling stored in a report")
    p.add_argument("report")
    p.add_argument("--frame", default=None, help="override the frame file recorded in the report")

    p = sub.add_parser("obstruct", parents=[common], help="closeness-based non-scalability certificates")
    p.add_argument("frame")

    p = sub.add_parser("transport", parents=[common], help="move a piecewise scaling by a unitary")
    p.add_argument("report")
    target = p.add_mutually_exclusive_group(required=True)
    target.add_argument("--unitary", default=None, help="unitary matrix file")
    target.add_argument("--to-canonical", action="store_true", help="transport onto the coordinate projection")

    p = sub.add_parser("canonical-parseval", parents=[common], help="tighten a frame to a Parseval frame")
    p.add_argument("frame")
    p.add_argument("--out-frame", default=None, help="also write the tightened frame to this file")

    return parser


def _resolve_tol(args) -> float:
    # every command judges at --tol or DEFAULT_TOL, never at a tolerance an input file names
    tol = args.tol if args.tol is not None else DEFAULT_TOL
    try:
        return _check_tol(tol)
    except ValueError:
        raise _UsageError(f"--tol must be finite and positive, got {tol}") from None


def _check_piecewise_flags(args) -> None:
    # the piecewise flags that need no frame, with --rank merged and sorted;
    # only --rank's upper bound waits for the frame
    mode = args.construct or "search"
    if mode == "r4special" and (args.indices is None or len(args.indices) != 4):
        raise _UsageError("--construct r4special needs --indices i,j,k,l")
    if mode == "split" and (args.projection is None or args.p_indices is None or args.q_indices is None):
        raise _UsageError("--construct split needs --projection, --p-indices and --q-indices")
    if mode != "search":
        return
    if args.budget < 1:
        raise _UsageError(f"--budget must be at least 1, got {args.budget}")
    if args.seed < 0:
        raise _UsageError(f"--seed must be nonnegative, got {args.seed}")
    if args.rank is not None:
        args.rank = sorted({k for chunk in args.rank for k in chunk})
        if not args.rank or args.rank[0] < 1:
            raise _UsageError(f"--rank values must be at least 1, got {args.rank}")


def _base_report(command: str, source, tol: float) -> dict:
    return {
        "command": command,
        "input": str(source),
        "tolerance": tol,
        "verdict": None,
        "residuals": {},
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


def _load_projection(path, tol):
    from .projections import projection_from_matrix

    matrix = load_matrix(path)
    try:
        return projection_from_matrix(matrix, tol)
    except ValueError as exc:
        raise FrameFormatError(str(exc), path) from None


def _cmd_analyze(args, frame: Frame, tol: float, report: dict) -> None:
    bounds = frame_bounds(frame)
    S = frame_operator(frame)
    defect = float(np.linalg.norm(S - np.eye(frame.dim), "fro"))
    report["verdict"] = "spanning" if bounds.spanning else "non-spanning"
    report["residuals"] = {"parseval_defect": defect}
    report["bounds"] = {
        "lower": bounds.lower,
        "upper": bounds.upper,
        "condition_number": bounds.condition_number,
    }
    report["frame_operator"] = S


def _cmd_scale(args, frame: Frame, tol: float, report: dict) -> None:
    from .scaling import solve_standard_scaling

    verdict = solve_standard_scaling(frame.vectors, None, tol)
    # a certified verdict of no NNLS iterations holds a certified bound, not a defect reached
    screened = not verdict.feasible and verdict.iterations == 0 and verdict.certificate != "undecided"
    report["residuals"] = {"distance_lower_bound" if screened else "frobenius_defect": verdict.residual}
    if verdict.feasible:
        report["verdict"] = "feasible"
        report["scaling"] = {"c": verdict.scaling.constants}
    elif verdict.certificate == "undecided":
        report["verdict"] = "undecided"
        report["nnls"] = {"converged": verdict.converged, "iterations": verdict.iterations}
        report["note"] = (
            "NNLS found no scaling but did not certify infeasibility; "
            "this is not a proof that no scaling exists"
        )
    else:
        report["verdict"] = "infeasible"
        report["certificate"] = verdict.certificate


def _piecewise_residuals(rep) -> dict:
    return {
        "direct": rep.direct_residual,
        "p_side": rep.p_side.residual,
        "q_side": rep.q_side.residual,
        "cross_norm": rep.cross_norm,
    }


def _piecewise_result(report: dict, frame: Frame, ps, tol: float) -> bool:
    # the residuals verify_piecewise finds on ps and ps itself; True when it passes
    from .piecewise import verify_piecewise

    rep = verify_piecewise(frame, ps, tol)
    report["residuals"] = _piecewise_residuals(rep)
    report["scaling"] = {"projection": ps.projection.matrix, "a": ps.a, "b": ps.b}
    return rep.passed


def _cmd_piecewise(args, frame: Frame, tol: float, report: dict) -> None:
    from .projections import canonical_projection
    from .piecewise import (
        construct_from_orthogonal_split,
        construct_r2,
        construct_r3,
        construct_r4_special,
        search_piecewise,
    )

    mode = args.construct or "search"
    if mode == "r2":
        P = _load_projection(args.projection, tol) if args.projection else canonical_projection([0], 2)
        ps = construct_r2(frame, P, tol)
    elif mode == "r3":
        ps = construct_r3(frame, tol)
    elif mode == "r4special":
        ps = construct_r4_special(frame, args.indices, tol)
    elif mode == "split":
        P = _load_projection(args.projection, tol)
        ps = construct_from_orthogonal_split(frame, P, args.p_indices, args.q_indices, tol)
    else:
        if args.rank is not None and args.rank[-1] >= frame.dim:
            raise _UsageError(f"--rank values must lie in 1..{frame.dim - 1}, got {args.rank}")
        ps = search_piecewise(frame, ranks=args.rank, budget=args.budget, seed=args.seed, tol=tol)
    report["seed"] = args.seed
    if ps is None:
        report["verdict"] = "not-found"
        report["note"] = (
            "search budget exhausted; this is not a proof that no piecewise scaling exists"
        )
        return
    report["verdict"] = "found" if _piecewise_result(report, frame, ps, tol) else "constructed-but-failed"


# a report may hold any doubles, so the products that check it may overflow: the
# residual then reads inf or nan and fails, with no numpy warning on stderr
@np.errstate(over="ignore", invalid="ignore")
def _read_report(path, override_path, fmt, tol: float):
    """The frame's source, the Frame, the scaling and the recorded (tolerance, residuals) of a report.

    The source is the override file, "report" for an embedded frame, else
    the input file the report names; the scaling is the constants ``c`` or
    a PiecewiseScaling.  Every defect of the report is a FrameFormatError.
    """
    from .projections import projection_from_matrix
    from .piecewise import PiecewiseScaling

    recorded = load_report(path)
    if override_path is not None:
        source, frame = str(override_path), load_frame(override_path, fmt)
    elif "frame" in recorded:
        source, frame = "report", Frame(_rows_from_json(recorded, "frame", path))
    elif isinstance(recorded.get("input"), str):
        source = recorded["input"]
        if not source:
            raise FrameFormatError("report's 'input' entry names no file", path)
        try:
            frame = load_frame(source, fmt)
        except OSError as exc:
            raise FrameFormatError(f"cannot read the 'input' file {source!r}: {exc.strerror or exc}", path) from None
        except ValueError as exc:
            raise FrameFormatError(f"the 'input' file is malformed: {exc}", path) from None
    else:
        raise FrameFormatError("report has neither a 'frame' entry nor an 'input' file name", path)
    payload = recorded.get("scaling")
    if not isinstance(payload, dict):
        raise FrameFormatError("report carries no scaling to work with", path)
    if "c" in payload:
        scaling = _numbers(payload["c"], 'scaling "c"', path)
        if len(scaling) != frame.size:
            raise FrameFormatError(f'scaling "c" has {len(scaling)} constants but the frame has {frame.size} vectors', path)
    else:
        for key in ("projection", "a", "b"):
            if key not in payload:
                raise FrameFormatError(f"report scaling lacks the '{key}' entry", path)
        matrix = _rows_from_json(payload, "projection", path)
        a, b = _numbers(payload["a"], 'scaling "a"', path), _numbers(payload["b"], 'scaling "b"', path)
        try:
            P = projection_from_matrix(matrix, tol)
        except ValueError as exc:
            raise FrameFormatError(f'scaling "projection": {exc}', path) from None
        if len(a) != len(b):
            raise FrameFormatError(f'scaling "a" has {len(a)} constants but "b" has {len(b)}', path)
        if len(a) != frame.size:
            raise FrameFormatError(f'scaling "a" and "b" have {len(a)} constants but the frame has {frame.size} vectors', path)
        if P.dim != frame.dim:
            raise FrameFormatError(f'scaling "projection" acts on R^{P.dim} but the frame lies in R^{frame.dim}', path)
        scaling = PiecewiseScaling(P, a, b)
    tolerance = _numbers([recorded["tolerance"]], '"tolerance"', path)[0] if "tolerance" in recorded else None
    residuals = recorded.get("residuals") or {}
    if not isinstance(residuals, dict):
        raise FrameFormatError('"residuals" must be an object', path)
    # a residual is a number, or a non-finite value as format_float writes it
    residuals = {
        key: _numbers([float(v) if v in ("nan", "inf", "-inf") else v], f'residual "{key}"', path)[0]
        for key, v in residuals.items()
    }
    return source, frame, scaling, (tolerance, residuals)


@np.errstate(over="ignore", invalid="ignore")  # as _read_report
def _cmd_verify(args, read, tol: float, report: dict) -> None:
    import hashlib

    from .piecewise import PiecewiseScaling, verify_piecewise

    source, frame, scaling, (recorded_tol, recorded_residuals) = read
    report["recorded_tolerance"] = recorded_tol
    report["checked_frame"] = {"source": source, "sha256": hashlib.sha256(frame.vectors.tobytes()).hexdigest()}
    if isinstance(scaling, PiecewiseScaling):
        rep = verify_piecewise(frame, scaling, tol)
        residuals = _piecewise_residuals(rep)
        passed = rep.passed
    else:
        pv = verify_parseval(scaling[:, None] * frame.vectors, None, tol)
        residuals = {"frobenius_defect": pv.residual}
        passed = pv.passed
    # np.max keeps a NaN drift, which then fails the round trip
    drifts = [abs(value - recorded_residuals[key]) for key, value in residuals.items() if key in recorded_residuals]
    residuals["max_drift_from_recorded"] = drift = float(np.max(drifts, initial=0.0))
    report["residuals"] = residuals
    report["verdict"] = "pass" if passed and drift <= _ROUND_TRIP_TOL else "fail"


def _cmd_obstruct(args, frame: Frame, tol: float, report: dict) -> None:
    from .obstructions import closeness_obstruction

    result = closeness_obstruction(frame)
    report["verdict"] = result.theorem
    if result.applicable_ranks:
        report["certificate"] = result.theorem
    report["epsilon"] = result.epsilon
    report["applicable_ranks"] = sorted(result.applicable_ranks)
    report["residuals"] = {"unit_norm_deviation": float(result.detail["unit_norm_deviation"])}


@np.errstate(over="ignore", invalid="ignore")  # as _read_report
def _cmd_transport(args, read, tol: float, report: dict) -> None:
    from .piecewise import PiecewiseScaling
    from .transport import to_canonical, transport_scaling

    _, frame, scaling, _ = read
    if not isinstance(scaling, PiecewiseScaling):
        raise FrameFormatError("transport applies to piecewise scalings only", args.report)
    if args.to_canonical:
        moved_frame, moved = to_canonical(frame, scaling)
    else:
        moved_frame, moved = transport_scaling(frame, scaling, load_matrix(args.unitary), tol)
    passed = _piecewise_result(report, moved_frame, moved, tol)
    report["verdict"] = "transported" if passed else "transported-but-failed"
    report["frame"] = moved_frame.vectors


def _cmd_canonical_parseval(args, frame: Frame, tol: float, report: dict) -> None:
    tightened = canonical_parseval(frame)
    check = verify_parseval(tightened.vectors, None, tol)
    report["verdict"] = "converted"
    report["residuals"] = {"parseval_defect": check.residual}
    report["frame"] = tightened.vectors
    if args.out_frame:
        save_frame(tightened, args.out_frame)


_COMMANDS = {
    "analyze": _cmd_analyze,
    "scale": _cmd_scale,
    "piecewise": _cmd_piecewise,
    "verify": _cmd_verify,
    "obstruct": _cmd_obstruct,
    "transport": _cmd_transport,
    "canonical-parseval": _cmd_canonical_parseval,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        tol = _resolve_tol(args)
        if args.command == "piecewise":
            _check_piecewise_flags(args)
        if args.command in ("verify", "transport"):
            source, data = args.report, _read_report(args.report, getattr(args, "frame", None), args.format, tol)
        else:
            source, data = args.frame, load_frame(args.frame, args.format)
        report = _base_report(args.command, source, tol)
        _COMMANDS[args.command](args, data, tol, report)
    except _UsageError as exc:
        print(f"framescale: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InternalInconsistencyError as exc:
        print(f"framescale: internal inconsistency: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (ValueError, OSError) as exc:
        print(f"framescale: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    write_report(report, args.out)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
