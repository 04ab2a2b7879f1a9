"""Time ``framescale.search_piecewise`` at one rank on fixed-seed frames and write BENCH_screen.json.

Every search runs at budget 200, so the sampled stage, when reached,
screens up to 200 candidates of one rank.  The searches are:

- the ``search-miss`` benchmark workload at seed 3 (perfbench/workloads.py):
  clustered R^4 frames, m = 5..8, whose rank 2 ``closeness_obstruction``
  certifies, searched at rank 2 with the workload's seeds, so each is a
  full-budget miss of the sampled stage;
- the rank-restricted sweep: spanning unit frames from one
  ``default_rng(2026)`` stream, 60 for each n = 4, 5, 6 in turn, with m
  from ``integers(n + 1, 3n + 1)``, every rank searched alone at seed 0.
  Only the searches that reach the sampled stage are timed, in two
  shapes: those the stage answers with a scaling ("sweep hit") and those
  it misses ("sweep miss");
- clustered R^5 frames (spread 0.02) at m = 300 and m = 2,000, searched
  at rank 1, where the orthogonal-split route does not run.

The frames are built and the sweep is split by this checkout, then timed
in fresh processes, one per round and tree, with BLAS on one thread,
through the harness of nnls_layer_bench.py: each round times this
checkout's ``src`` and, with ``--src DIR``, the package directory DIR
too, alternating which runs first.  A search's time in a round is the
fastest of three calls, and for each shape the file records the median
and quartiles, over rounds, of the mean of those times in milliseconds.

Usage, from the repository root:

    python3 scripts/screen_layer_bench.py --src ../parent/src --rounds 10
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
from nnls_layer_bench import ROOT, SEED, _alternate, _host, _summary  # noqa: E402

BUDGET = 200
CALLS = 3  # per search and round; the fastest counts, as with timeit
MISS_OPS = 164  # the search-miss ops of a 25 s benchmark run
SWEEP_FRAMES = 60  # per n
CLUSTERED_ROWS = (300, 2000)
WORKER = (
    "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; "
    "from screen_layer_bench import time_searches; time_searches(sys.argv[3])"
)


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


def build_searches(path: Path, miss_ops: int, sweep_frames: int, clustered_rows) -> dict[str, list[str]]:
    """Write every search's frame, rank and seed to ``path`` (npz) and return the names of each shape."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads

    import framescale.piecewise as pw

    searches: dict[str, list[tuple[np.ndarray, int, int]]] = {}
    for item in workloads.SearchMiss().build(SEED, miss_ops):
        searches.setdefault("search-miss", []).append((item.frame, 2, item.index))
    searches["sweep hit"], searches["sweep miss"] = [], []
    rng = np.random.default_rng(2026)
    for n in (4, 5, 6):
        for _ in range(sweep_frames):
            X = workloads.spanning_unit_frame(rng, n, int(rng.integers(n + 1, 3 * n + 1)))
            for k in range(1, n):
                reached, found = _reaches_sampled_stage(pw, X, k)
                if reached:
                    searches["sweep hit" if found else "sweep miss"].append((X, k, 0))
    for m in clustered_rows:
        X = workloads.clustered_frame(np.random.default_rng([SEED, m]), 5, m, 0.02)
        searches[f"clustered n=5 m={m}"] = [(X, 1, 0)]
    arrays, calls, shapes = {}, [], {}
    for key, group in searches.items():
        shapes[key] = []
        for X, k, seed in group:
            name = f"s{len(calls)}"
            arrays[name] = X
            calls.append((k, seed))
            shapes[key].append(name)
    np.savez(path, calls=np.array(calls, dtype=np.int64).reshape(-1, 2), **arrays)
    return shapes


def time_searches(path: str) -> None:
    """Worker: print the fastest of CALLS calls of each search, in milliseconds, as JSON."""
    from framescale import search_piecewise

    data = np.load(path)
    out = {}
    for index, (k, seed) in enumerate(data["calls"]):
        name = f"s{index}"
        X = data[name]
        calls = []
        for _ in range(CALLS):
            start = time.perf_counter()
            search_piecewise(X, ranks={int(k)}, budget=BUDGET, seed=int(seed))
            calls.append(time.perf_counter() - start)
        out[name] = min(calls) * 1e3
    print(json.dumps(out))


def run(
    src: str | None,
    rounds: int,
    out: Path,
    miss_ops: int = MISS_OPS,
    sweep_frames: int = SWEEP_FRAMES,
    clustered_rows=CLUSTERED_ROWS,
) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "searches.npz"
        shapes = build_searches(path, miss_ops, sweep_frames, clustered_rows)
        per_round = _alternate(src, rounds, WORKER, path)
    report = {
        "script": "scripts/screen_layer_bench.py",
        "unit": "ms per search_piecewise call at one rank, fastest of 3 per search: median and quartiles over rounds of each shape's mean",
        "rounds": rounds,
        "seed": SEED,
        "budget": BUDGET,
        "host": _host(),
        **_summary(per_round, shapes),
    }
    out.write_text(json.dumps(report, indent=2) + "\n")
    return report


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", help="package directory of a second tree to time as the baseline")
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_screen.json")
    args = parser.parse_args()
    run(args.src, args.rounds, args.out)
