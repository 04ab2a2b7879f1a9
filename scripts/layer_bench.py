"""Time one framescale layer on fixed-seed inputs and write BENCH_<layer>.json.

The layers and their inputs, built by this checkout from seed 3 with
perfbench/workloads.py:

- nnls: ``nnls(A, b)`` on the standard-scaling systems (vectorized Gram
  columns against the vectorized identity) of the ``large-frames``
  workload, four of each shape: wide scalable, random and cone frames at
  n = 12, 16, 20 with m = 4n..7n, and tall random unit frames at
  n = 4, 8, 16 with m = 800..1500; and of 40 random spanning unit frames
  in R^d per d = 2..5 with d < m <= 15, so search-size systems have at
  most 15 rows and 15 columns;
- scale: ``solve_standard_scaling(X)`` on the same ``large-frames``
  frames, so the wide frames show the least-squares step (the plain and
  the Tikhonov solve of H, each of which decides or certifies) before
  NNLS and the tall ones the minimum-norm weights that decide them
  without NNLS;
  and on four tall cone frames at each n = 4, 8, 16 (one in a smoke
  run), ``cone_frame`` with m cycled over 800..1500, which those weights
  cannot scale, so they pay for the weights and NNLS both;
- obstruction: ``closeness_obstruction(X)`` on the same ``large-frames``
  frames; on one antipodal tie, 750 random unit rows in R^8 and their
  negatives, so every row ties at the top of the screen and the exact
  pass re-checks all 1,500; and on four random unit frames of 1,500 rows
  in each of R^2 and R^3 (one in a smoke run): in R^2 the screen runs in
  double alone, in R^3 its float32 pass picks the rows of its double
  re-screen;
- screen: ``search_piecewise(X, ranks={k}, budget=200, seed=s)``, so the
  sampled stage, when reached, screens up to 200 candidates of one rank.
  The searches are the ``search-miss`` workload (clustered R^4 frames,
  m = 5..8, whose rank 2 ``closeness_obstruction`` certifies, searched at
  rank 2 with the workload's seeds, so each is a full-budget miss of the
  sampled stage); the rank-restricted sweep (spanning unit frames from
  one ``default_rng(2026)`` stream, 60 for each n = 4, 5, 6 in turn,
  with m from ``integers(n + 1, 3n + 1)``, every rank searched alone at
  seed 0), of which only the searches that reach the sampled stage are
  timed, split into those it answers with a scaling ("sweep hit") and
  those it misses ("sweep miss"); and four clustered R^5 frames (spread
  0.02) at each of m = 300 and m = 2,000, searched at rank 1, where the
  orthogonal-split route does not run;
- cli: each subcommand as one ``python -m framescale`` process, on the
  ``cli-session`` workload's files (three rounds of its seven commands,
  on one frame each in R^2, R^3 and R^4; one round in a smoke run), in
  the workload's order, so ``verify`` and ``transport`` read the report
  ``piecewise`` just wrote.  A command's time is the CPU time (user plus
  system) of its process, which holds interpreter start-up, imports and
  the command; the report records whether ``PYTHONDONTWRITEBYTECODE``
  was set, since without it the imports read cached bytecode.

The in-process layers load this checkout's ``src`` and, with
``--src DIR``, the package directory DIR too (say, the ``src`` of a
second checkout at the parent commit) into one process, the second tree
under its own package name; a command-line run pins BLAS to one thread.
Each round times every input on both trees in turn before the next
input, alternating which tree goes first from round to round, so host
drift and what the process freed before reach both trees alike.  The
cli layer times each command as its own process, one tree after the
other in each round.  An input's time in a round is the fastest of a
few calls (the one process of a cli command), and for each shape the
file records the median and quartiles, over rounds, of the mean of
those times in milliseconds, and of each round's current/baseline
ratio.

Usage, from the repository root:

    python3 scripts/layer_bench.py nnls --src ../parent/src --rounds 10
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import ModuleType
from typing import Callable

ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
if __name__ == "__main__":
    # before numpy loads its BLAS
    os.environ.update(ONE_THREAD)

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SEED = 3
BUDGET = 200  # of every search the screen layer times
BASELINE = "framescale_baseline"  # the package name of the --src tree
CLI_UNIT = "ms CPU (user + system) per python -m framescale process: median and quartiles over rounds of each subcommand's mean"

# each shape's inputs, an input being the arguments of one timed call
Inputs = dict[str, list[tuple]]


def _large_frames(smoke: bool) -> dict[str, list[np.ndarray]]:
    import workloads

    frames: dict[str, list[np.ndarray]] = {}
    large = workloads.LargeFrames()
    for item in large.build(SEED, (1 if smoke else 4) * large.round_size):
        frames.setdefault(f"{item.kind} n={item.n}", []).append(item.frame)
    return frames


def nnls_systems(smoke: bool) -> Inputs:
    import workloads
    from framescale.scaling import _gram_columns, _vech

    frames = _large_frames(smoke)
    rng = np.random.default_rng([SEED, 15])
    count = 2 if smoke else 40  # per dimension d
    for d in range(2, 6):
        frames[f"search d={d}"] = [workloads.spanning_unit_frame(rng, d, int(rng.integers(d + 1, 16))) for _ in range(count)]
    return {key: [(_gram_columns(X), _vech(np.eye(X.shape[1]))) for X in group] for key, group in frames.items()}


def scale_frames(smoke: bool) -> Inputs:
    import workloads

    frames = _large_frames(smoke)
    rng = np.random.default_rng([SEED, 17])
    count = 1 if smoke else 4  # per n
    for n in workloads.LargeFrames.TALL:
        sizes = workloads.cycled(rng, workloads.LargeFrames.TALL_M, count)
        frames[f"tall cone n={n}"] = [workloads.cone_frame(rng, n, m) for m in sizes]
    return {key: [(X,) for X in group] for key, group in frames.items()}


def obstruction_frames(smoke: bool) -> Inputs:
    import workloads

    frames: Inputs = {key: [(X,) for X in group] for key, group in _large_frames(smoke).items()}
    U = workloads.spanning_unit_frame(np.random.default_rng([SEED, 16]), 8, 750)
    frames["antipodal n=8"] = [(np.vstack([U, -U]),)]
    rng = np.random.default_rng([SEED, 18])
    for n in (2, 3):
        frames[f"tall unit n={n} m=1500"] = [(workloads.spanning_unit_frame(rng, n, 1500),) for _ in range(1 if smoke else 4)]
    return frames


def _reaches_sampled_stage(pw, X: np.ndarray, k: int) -> tuple[bool, bool]:
    """Whether the rank-k search of X at seed 0 reaches the sampled stage, and whether it finds a scaling."""
    reached = []
    survivors = pw._surviving_candidates

    def record(*args):
        reached.append(True)
        yield from survivors(*args)

    pw._surviving_candidates = record
    try:
        found = pw.search_piecewise(X, ranks={k}, budget=BUDGET, seed=0) is not None
    finally:
        pw._surviving_candidates = survivors
    return bool(reached), found


def screen_searches(smoke: bool) -> Inputs:
    import workloads

    import framescale.piecewise as pw

    miss = workloads.SearchMiss().build(SEED, 4 if smoke else 164)  # the ops of a 25 s benchmark run
    searches: Inputs = {"search-miss": [(item.frame, 2, item.index) for item in miss], "sweep hit": [], "sweep miss": []}
    rng = np.random.default_rng(2026)
    for n in (4, 5, 6):
        for _ in range(2 if smoke else 60):
            X = workloads.spanning_unit_frame(rng, n, int(rng.integers(n + 1, 3 * n + 1)))
            for k in range(1, n):
                reached, found = _reaches_sampled_stage(pw, X, k)
                if reached:
                    searches["sweep hit" if found else "sweep miss"].append((X, k, 0))
    count = 1 if smoke else 4  # per clustered shape
    for m in (300,) if smoke else (300, 2000):
        rng = np.random.default_rng([SEED, m])
        searches[f"clustered n=5 m={m}"] = [(workloads.clustered_frame(rng, 5, m, 0.02), 1, 0) for _ in range(count)]
    return searches


@dataclass(frozen=True)
class Layer:
    build: Callable[[bool], Inputs]  # the fixed-seed inputs, a few per shape when smoke is set
    call: Callable[..., object]  # the timed call, on the framescale package and an input
    calls: int  # per input and round; the fastest counts, as with timeit
    unit: str
    settings: dict = field(default_factory=dict)  # fixed arguments the report records


LAYERS = {
    "nnls": Layer(
        nnls_systems,
        lambda fs, A, b: fs.nnls(A, b),
        5,
        "ms per nnls call, fastest of 5 per system: median and quartiles over rounds of each shape's mean",
    ),
    "scale": Layer(
        scale_frames,
        lambda fs, X: fs.solve_standard_scaling(X),
        5,
        "ms per solve_standard_scaling call, fastest of 5 per frame: median and quartiles over rounds of each shape's mean",
    ),
    "obstruction": Layer(
        obstruction_frames,
        lambda fs, X: fs.closeness_obstruction(X),
        5,
        "ms per closeness_obstruction call, fastest of 5 per frame: median and quartiles over rounds of each shape's mean",
    ),
    "screen": Layer(
        screen_searches,
        lambda fs, X, k, seed: fs.search_piecewise(X, ranks={int(k)}, budget=BUDGET, seed=int(seed)),
        3,
        "ms per search_piecewise call at one rank, fastest of 3 per search: median and quartiles over rounds of each shape's mean",
        {"budget": BUDGET},
    ),
}


def _quartiles(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def _host() -> dict:
    return {
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": 1,
    }


def _alternate(trees: dict[str, str], rounds: int, time_tree: Callable[[str], dict[str, float]]) -> dict[str, list[dict[str, float]]]:
    """Time each tree once per round, alternating which tree runs first.

    ``time_tree(label)`` returns one round's times by input; the result
    lists them per tree, one object per round.
    """
    per_round: dict[str, list[dict[str, float]]] = {label: [] for label in trees}
    for index in range(rounds):
        order = list(trees) if index % 2 == 0 else list(trees)[::-1]
        for label in order:
            per_round[label].append(time_tree(label))
    return per_round


def _load_tree(src: str) -> ModuleType:
    """The framescale package of the source directory ``src``, imported under the name BASELINE.

    Its modules import each other relatively, so they load as submodules
    of BASELINE, beside this checkout's framescale.
    """
    package = Path(src).resolve() / "framescale"
    for name in [name for name in sys.modules if name.partition(".")[0] == BASELINE]:
        del sys.modules[name]
    spec = importlib.util.spec_from_file_location(BASELINE, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[BASELINE] = module
    spec.loader.exec_module(module)
    return module


def _interleave(packages: dict[str, ModuleType], layer: Layer, inputs: dict[str, tuple], rounds: int) -> dict[str, list[dict[str, float]]]:
    """Time every input on each package in turn, input by input, alternating which goes first each round.

    An input's time is the fastest of the layer's calls, in milliseconds;
    the result lists each package's times by input, one object per round.
    """
    per_round: dict[str, list[dict[str, float]]] = {label: [] for label in packages}
    for index in range(rounds):
        order = list(packages) if index % 2 == 0 else list(packages)[::-1]
        times: dict[str, dict[str, float]] = {label: {} for label in packages}
        for name, arguments in inputs.items():
            for label in order:
                calls = []
                for _ in range(layer.calls):
                    start = time.perf_counter()
                    layer.call(packages[label], *arguments)
                    calls.append(time.perf_counter() - start)
                times[label][name] = min(calls) * 1e3
        for label in packages:
            per_round[label].append(times[label])
    return per_round


def _cli_sessions(trees: dict[str, str], workdir: Path, smoke: bool) -> dict[str, tuple]:
    """Each tree's ``cli-session`` workload, with its own copy of the files, and its commands."""
    import workloads

    sessions = {}
    for label, tree in trees.items():
        env = dict(os.environ, **ONE_THREAD, PYTHONPATH=os.pathsep.join(filter(None, [tree, os.environ.get("PYTHONPATH")])))
        (workdir / label).mkdir()
        session = workloads.CliSession(ROOT, workdir / label, env)
        sessions[label] = (session, session.build(SEED, (1 if smoke else 3) * session.round_size))
    return sessions


def _time_commands(session, items) -> dict[str, float]:
    """Run the commands in order, one process each, and return each one's CPU milliseconds."""
    times = {}
    for item in items:
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        report = session.run(item)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        verdict = session.check(item, report)
        if not verdict.ok:
            raise RuntimeError(f"framescale {' '.join(item.argv)}: {verdict.label}, {verdict.note}")
        times[f"x{item.index}"] = 1e3 * (after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime)
    return times


def _summary(per_round: dict[str, list[dict[str, float]]], shapes: dict[str, list[str]]) -> dict:
    """Median and quartiles over rounds of each shape's mean time, and the current/baseline ratios.

    ``current_over_baseline`` is the ratio of the two medians.  Rounds pair
    one run of each tree, so ``round_ratio_quartiles`` gives the median and
    quartiles over rounds of each round's ratio: a shape reads as resolved
    only when that spread stays clear of 1.
    """
    means = {
        label: {
            key: [statistics.fmean(times[name] for name in names) for times in runs]
            for key, names in shapes.items()
        }
        for label, runs in per_round.items()
    }
    results = {
        label: {key: _quartiles(values) for key, values in by_shape.items()} for label, by_shape in means.items()
    }
    summary = {"shapes": {key: len(names) for key, names in shapes.items()}, "results": results}
    if "baseline" in results:
        summary["current_over_baseline"] = {
            key: round(results["current"][key]["median"] / results["baseline"][key]["median"], 3) for key in shapes
        }
        summary["round_ratio_quartiles"] = {
            key: _quartiles([c / b for c, b in zip(means["current"][key], means["baseline"][key])]) for key in shapes
        }
    return summary


def run(layer: str, src: str | None, rounds: int, out: Path, smoke: bool = False) -> dict:
    """Build the layer's inputs, time them for ``rounds`` rounds and write the report to ``out``."""
    # the inputs come from this checkout's package and benchmark workloads
    sys.path[:0] = [path for path in (str(ROOT / "src"), str(ROOT / "perfbench")) if path not in sys.path]
    shapes: dict[str, list[str]] = {}
    if layer == "cli":
        # this checkout's src and, with src, the package directory src as the baseline
        trees = {"current": str(ROOT / "src")}
        if src is not None:
            trees["baseline"] = str(Path(src).resolve())
        with tempfile.TemporaryDirectory() as tmp:
            sessions = _cli_sessions(trees, Path(tmp), smoke)
            for item in sessions["current"][1]:
                shapes.setdefault(item.argv[0], []).append(f"x{item.index}")
            per_round = _alternate(trees, rounds, lambda label: _time_commands(*sessions[label]))
        unit = CLI_UNIT
        settings = {"pythondontwritebytecode": bool(os.environ.get("PYTHONDONTWRITEBYTECODE"))}
    else:
        import framescale

        spec = LAYERS[layer]
        packages = {"current": framescale}
        if src is not None:
            packages["baseline"] = _load_tree(src)
        inputs: dict[str, tuple] = {}
        for key, group in spec.build(smoke).items():
            shapes[key] = [f"x{len(inputs) + i}" for i in range(len(group))]
            inputs.update(zip(shapes[key], group))
        per_round = _interleave(packages, spec, inputs, rounds)
        unit, settings = spec.unit, spec.settings
    report = {
        "script": f"scripts/layer_bench.py {layer}",
        "unit": unit,
        "rounds": rounds,
        "seed": SEED,
        **settings,
        "host": _host(),
        **_summary(per_round, shapes),
    }
    out.write_text(json.dumps(report, indent=2) + "\n")
    return report


def main(argv: list[str] | None = None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("layer", choices=[*LAYERS, "cli"])
    parser.add_argument("--src", help="package directory of a second tree to time as the baseline")
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--out", type=Path, help="the report (default: BENCH_<layer>.json at the repository root)")
    args = parser.parse_args(argv)
    return run(args.layer, args.src, args.rounds, args.out or ROOT / f"BENCH_{args.layer}.json")


if __name__ == "__main__":
    main()
