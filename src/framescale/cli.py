"""Command line interface.

Subcommands: analyze, scale, piecewise, verify, obstruct, transport,
canonical-parseval.  Every run writes a JSON report to stdout or --out.
Exit codes: 0 verdict computed (including infeasible, undecided or
not-found), 1 usage error, 2 input format error, 3 internal
inconsistency.

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
    canonical_parseval,
    frame_bounds,
    frame_operator,
    verify_parseval,
)
from .fileio import (
    FrameFormatError,
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
    common.add_argument("--format", choices=("csv", "json"), default=None, help="force the frame file format")
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
    p.add_argument("--unitary", default=None, help="unitary matrix file")
    p.add_argument("--to-canonical", action="store_true", help="transport onto the coordinate projection")

    p = sub.add_parser("canonical-parseval", parents=[common], help="tighten a frame to a Parseval frame")
    p.add_argument("frame")
    p.add_argument("--out-frame", default=None, help="also write the tightened frame to this file")

    return parser


def _resolve_tol(args, fallback: float = DEFAULT_TOL) -> float:
    tol = args.tol if args.tol is not None else fallback
    if not (np.isfinite(tol) and tol > 0.0):
        raise _UsageError(f"--tol must be finite and positive, got {tol}")
    return tol


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


def _matrix_rows(matrix: np.ndarray) -> list[list[float]]:
    return [list(map(float, row)) for row in np.asarray(matrix)]


def _load_projection(path, fmt, tol):
    from .projections import projection_from_matrix

    matrix = load_matrix(path, fmt)
    try:
        return projection_from_matrix(matrix, tol)
    except ValueError as exc:
        raise FrameFormatError(str(exc), path) from None


def _cmd_analyze(args) -> dict:
    tol = _resolve_tol(args)
    frame = load_frame(args.frame, args.format)
    bounds = frame_bounds(frame)
    S = frame_operator(frame)
    defect = float(np.linalg.norm(S - np.eye(frame.dim), "fro"))
    report = _base_report("analyze", args.frame, tol)
    report["verdict"] = "spanning" if bounds.spanning else "non-spanning"
    report["residuals"] = {"parseval_defect": defect}
    report["bounds"] = {
        "lower": bounds.lower,
        "upper": bounds.upper,
        "condition_number": bounds.condition_number,
    }
    report["frame_operator"] = _matrix_rows(S)
    return report


def _cmd_scale(args) -> dict:
    from .scaling import solve_standard_scaling

    tol = _resolve_tol(args)
    frame = load_frame(args.frame, args.format)
    verdict = solve_standard_scaling(frame.vectors, None, tol)
    report = _base_report("scale", args.frame, tol)
    # a certified verdict of no NNLS iterations holds a certified bound, not a defect reached
    screened = not verdict.feasible and verdict.iterations == 0 and verdict.certificate != "undecided"
    report["residuals"] = {"distance_lower_bound" if screened else "frobenius_defect": verdict.residual}
    if verdict.feasible:
        report["verdict"] = "feasible"
        report["scaling"] = {"c": list(map(float, verdict.scaling.constants))}
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
    for warning in verdict.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return report


def _piecewise_scaling_payload(ps) -> dict:
    return {
        "projection": _matrix_rows(ps.projection.matrix),
        "a": list(map(float, ps.a)),
        "b": list(map(float, ps.b)),
    }


def _piecewise_residuals(rep) -> dict:
    return {
        "direct": rep.direct_residual,
        "p_side": rep.p_side.residual,
        "q_side": rep.q_side.residual,
        "cross_norm": rep.cross_norm,
    }


def _cmd_piecewise(args) -> dict:
    from .projections import canonical_projection
    from .piecewise import (
        construct_from_orthogonal_split,
        construct_r2,
        construct_r3,
        construct_r4_special,
        search_piecewise,
        verify_piecewise,
    )

    tol = _resolve_tol(args)
    frame = load_frame(args.frame, args.format)
    mode = args.construct or "search"
    ps = None
    if mode == "r2":
        P = (
            _load_projection(args.projection, args.format, tol)
            if args.projection
            else canonical_projection([0], 2)
        )
        ps = construct_r2(frame, P, tol)
    elif mode == "r3":
        ps = construct_r3(frame, tol)
    elif mode == "r4special":
        if args.indices is None or len(args.indices) != 4:
            raise _UsageError("--construct r4special needs --indices i,j,k,l")
        ps = construct_r4_special(frame, args.indices, tol)
    elif mode == "split":
        if args.projection is None or args.p_indices is None or args.q_indices is None:
            raise _UsageError("--construct split needs --projection, --p-indices and --q-indices")
        P = _load_projection(args.projection, args.format, tol)
        ps = construct_from_orthogonal_split(frame, P, args.p_indices, args.q_indices, tol)
    else:
        if args.budget < 1:
            raise _UsageError(f"--budget must be at least 1, got {args.budget}")
        if args.seed < 0:
            raise _UsageError(f"--seed must be nonnegative, got {args.seed}")
        ranks = None
        if args.rank is not None:
            ranks = sorted({k for chunk in args.rank for k in chunk})
            if not ranks or not all(1 <= k < frame.dim for k in ranks):
                raise _UsageError(f"--rank values must lie in 1..{frame.dim - 1}, got {ranks}")
        ps = search_piecewise(frame, ranks=ranks, budget=args.budget, seed=args.seed, tol=tol)
    report = _base_report("piecewise", args.frame, tol)
    report["seed"] = args.seed
    if ps is None:
        report["verdict"] = "not-found"
        report["note"] = (
            "search budget exhausted; this is not a proof that no piecewise scaling exists"
        )
        return report
    rep = verify_piecewise(frame, ps, tol)
    report["verdict"] = "found" if rep.passed else "constructed-but-failed"
    report["residuals"] = _piecewise_residuals(rep)
    report["scaling"] = _piecewise_scaling_payload(ps)
    return report


def _frame_from_report(report: dict, override_path, fmt) -> Frame:
    if override_path is not None:
        return load_frame(override_path, fmt)
    if "frame" in report:
        return Frame(np.array(report["frame"], dtype=float))
    if "input" not in report:
        raise FrameFormatError("report has neither a 'frame' nor an 'input' entry")
    return load_frame(report["input"], fmt)


def _scaling_from_report(report: dict, tol: float):
    from .projections import projection_from_matrix
    from .piecewise import PiecewiseScaling

    payload = report.get("scaling")
    if not isinstance(payload, dict):
        raise _UsageError("report carries no scaling to work with")
    if "c" in payload:
        return np.array(payload["c"], dtype=float)
    for key in ("projection", "a", "b"):
        if key not in payload:
            raise FrameFormatError(f"report scaling lacks the '{key}' entry")
    P = projection_from_matrix(np.array(payload["projection"], dtype=float), tol)
    return PiecewiseScaling(P, np.array(payload["a"], dtype=float), np.array(payload["b"], dtype=float))


def _cmd_verify(args) -> dict:
    from .piecewise import PiecewiseScaling, verify_piecewise

    recorded = load_report(args.report)
    tol = _resolve_tol(args, fallback=float(recorded.get("tolerance", DEFAULT_TOL)))
    frame = _frame_from_report(recorded, args.frame, args.format)
    scaling = _scaling_from_report(recorded, tol)
    report = _base_report("verify", args.report, tol)
    if isinstance(scaling, PiecewiseScaling):
        rep = verify_piecewise(frame, scaling, tol)
        residuals = _piecewise_residuals(rep)
        passed = rep.passed
    else:
        pv = verify_parseval(scaling[:, None] * frame.vectors, None, tol)
        residuals = {"frobenius_defect": pv.residual}
        passed = pv.passed
    recorded_residuals = recorded.get("residuals") or {}
    drift = 0.0
    for key, value in residuals.items():
        if key in recorded_residuals:
            drift = max(drift, abs(value - float(recorded_residuals[key])))
    residuals["max_drift_from_recorded"] = drift
    report["residuals"] = residuals
    report["verdict"] = "pass" if passed and drift <= _ROUND_TRIP_TOL else "fail"
    return report


def _cmd_obstruct(args) -> dict:
    from .obstructions import closeness_obstruction

    tol = _resolve_tol(args)
    frame = load_frame(args.frame, args.format)
    result = closeness_obstruction(frame)
    report = _base_report("obstruct", args.frame, tol)
    report["verdict"] = result.theorem
    if result.applicable_ranks:
        report["certificate"] = result.theorem
    report["epsilon"] = result.epsilon
    report["applicable_ranks"] = sorted(result.applicable_ranks)
    report["residuals"] = {"unit_norm_deviation": float(result.detail["unit_norm_deviation"])}
    return report


def _cmd_transport(args) -> dict:
    from .piecewise import PiecewiseScaling, verify_piecewise
    from .transport import to_canonical, transport_scaling

    if bool(args.unitary) == bool(args.to_canonical):
        raise _UsageError("transport needs exactly one of --unitary FILE or --to-canonical")
    recorded = load_report(args.report)
    tol = _resolve_tol(args, fallback=float(recorded.get("tolerance", DEFAULT_TOL)))
    frame = _frame_from_report(recorded, None, args.format)
    scaling = _scaling_from_report(recorded, tol)
    if not isinstance(scaling, PiecewiseScaling):
        raise _UsageError("transport applies to piecewise scalings only")
    if args.to_canonical:
        moved_frame, moved = to_canonical(frame, scaling)
    else:
        U = load_matrix(args.unitary, args.format)
        moved_frame, moved = transport_scaling(frame, scaling, U, tol)
    rep = verify_piecewise(moved_frame, moved, tol)
    report = _base_report("transport", args.report, tol)
    report["verdict"] = "transported"
    report["residuals"] = _piecewise_residuals(rep)
    report["scaling"] = _piecewise_scaling_payload(moved)
    report["frame"] = _matrix_rows(moved_frame.vectors)
    return report


def _cmd_canonical_parseval(args) -> dict:
    tol = _resolve_tol(args)
    frame = load_frame(args.frame, args.format)
    tightened = canonical_parseval(frame)
    check = verify_parseval(tightened.vectors, None, tol)
    report = _base_report("canonical-parseval", args.frame, tol)
    report["verdict"] = "converted"
    report["residuals"] = {"parseval_defect": check.residual}
    report["frame"] = _matrix_rows(tightened.vectors)
    if args.out_frame:
        save_frame(tightened, args.out_frame, args.format)
    return report


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
        report = _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"framescale: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FrameFormatError as exc:
        print(f"framescale: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
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
