"""Time ``framescale.nnls.nnls`` on fixed-seed scaling systems and write BENCH_nnls.json.

The systems are the standard-scaling systems (vectorized Gram columns
against the vectorized identity) of two sets of frames:

- the ``large-frames`` benchmark workload at seed 3 (perfbench/workloads.py):
  wide scalable, random and cone frames at n = 12, 16, 20 with m = 4n..7n,
  and tall random unit frames at n = 4, 8, 16 with m = 800..1500;
- search-size systems: random spanning unit frames in R^d, d = 2..5, with
  d < m <= 15, so the systems have at most 15 rows and 15 columns.

The systems are built once, by this checkout, and timed in fresh
processes, one per round and tree, with BLAS on one thread.  Each round
times every system of the current checkout's ``src`` and, with ``--src DIR``,
of the package directory DIR too (say, the ``src`` of a second checkout at
the parent commit); the trees alternate which runs first.  A system's
time in a round is the fastest of five calls, and for each shape the file
records the median and quartiles, over rounds, of the mean of those
times in milliseconds, and of each round's current/baseline ratio.

Usage, from the repository root:

    python3 scripts/nnls_layer_bench.py --src ../parent/src --rounds 10
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SEED = 3
LARGE_CYCLES = 4  # four of each large-frames shape
SEARCH_FRAMES = 40  # per dimension d
CALLS = 5  # per system and round; the fastest counts, as with timeit
WORKER = (
    "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; "
    "from nnls_layer_bench import time_systems; time_systems(sys.argv[3])"
)


def build_systems(path: Path, cycles: int, search_frames: int) -> dict[str, list[str]]:
    """Write every system to ``path`` (npz) and return the array names of each shape."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads
    from framescale.scaling import _gram_columns, _vech

    frames: dict[str, list[np.ndarray]] = {}
    large = workloads.LargeFrames()
    for item in large.build(SEED, cycles * large.round_size):
        frames.setdefault(f"{item.kind} n={item.n}", []).append(item.frame)
    rng = np.random.default_rng([SEED, 15])
    for d in range(2, 6):
        key = f"search d={d}"
        frames[key] = [workloads.spanning_unit_frame(rng, d, int(rng.integers(d + 1, 16))) for _ in range(search_frames)]
    arrays, shapes = {}, {}
    for key, group in frames.items():
        shapes[key] = []
        for X in group:
            name = f"s{len(arrays) // 2}"
            arrays[name + "_A"] = _gram_columns(X)
            arrays[name + "_b"] = _vech(np.eye(X.shape[1]))
            shapes[key].append(name)
    np.savez(path, **arrays)
    return shapes


def time_systems(path: str) -> None:
    """Worker: print the fastest of CALLS calls of each system, in milliseconds, as JSON."""
    from framescale.nnls import nnls

    data = np.load(path)
    out = {}
    for name in sorted({key[:-2] for key in data.files}):
        A, b = data[name + "_A"], data[name + "_b"]
        calls = []
        for _ in range(CALLS):
            start = time.perf_counter()
            nnls(A, b)
            calls.append(time.perf_counter() - start)
        out[name] = min(calls) * 1e3
    print(json.dumps(out))


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


def _alternate(src: str | None, rounds: int, worker: str, path: Path) -> dict[str, list[dict[str, float]]]:
    """Run ``worker`` on ``path`` in a fresh process per round and tree, alternating which tree runs first.

    The trees are this checkout's ``src`` ("current") and, with ``src``, the
    package directory ``src`` ("baseline").  The worker is Python source
    that receives the tree, this directory and ``path`` as argv[1:4] and
    prints a JSON object of times; the result lists each tree's objects,
    one per round.
    """
    trees = {"current": str(ROOT / "src")}
    if src is not None:
        trees["baseline"] = str(Path(src).resolve())
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    per_round: dict[str, list[dict[str, float]]] = {label: [] for label in trees}
    for index in range(rounds):
        order = list(trees) if index % 2 == 0 else list(trees)[::-1]
        for label in order:
            argv = [sys.executable, "-c", worker, trees[label], str(ROOT / "scripts"), str(path)]
            done = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
            per_round[label].append(json.loads(done.stdout.splitlines()[-1]))
    return per_round


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


def run(src: str | None, rounds: int, out: Path, cycles: int = LARGE_CYCLES, search_frames: int = SEARCH_FRAMES) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "systems.npz"
        shapes = build_systems(path, cycles, search_frames)
        per_round = _alternate(src, rounds, WORKER, path)
    report = {
        "script": "scripts/nnls_layer_bench.py",
        "unit": "ms per nnls call, fastest of 5 per system: median and quartiles over rounds of each shape's mean",
        "rounds": rounds,
        "seed": SEED,
        "host": _host(),
        **_summary(per_round, shapes),
    }
    out.write_text(json.dumps(report, indent=2) + "\n")
    return report


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", help="package directory of a second tree to time as the baseline")
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_nnls.json")
    args = parser.parse_args()
    run(args.src, args.rounds, args.out)
