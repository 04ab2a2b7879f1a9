"""Time ``framescale.closeness_obstruction`` on fixed-seed frames and write BENCH_obstruction.json.

The frames are:

- the ``large-frames`` benchmark workload at seed 3 (perfbench/workloads.py),
  the build scripts/nnls_layer_bench.py times: wide scalable, random and
  cone frames at n = 12, 16, 20 with m = 4n..7n, and tall random unit
  frames at n = 4, 8, 16 with m = 800..1500;
- one antipodal tie: 750 random unit rows in R^8 and their negatives, so
  every row ties at the top of the screen and the exact pass re-checks
  all 1,500.

The frames are built once, by this checkout, and timed in fresh processes,
one per round and tree, with BLAS on one thread, through the harness of
nnls_layer_bench.py: each round times this checkout's ``src`` and, with
``--src DIR``, the package directory DIR too, alternating which runs
first.  A frame's time in a round is the fastest of five calls, and for
each shape the file records the median and quartiles, over rounds, of the
mean of those times in milliseconds.

Usage, from the repository root:

    python3 scripts/obstruction_layer_bench.py --src ../parent/src --rounds 10
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
from nnls_layer_bench import LARGE_CYCLES, ROOT, SEED, _alternate, _host, _summary  # noqa: E402

CALLS = 5  # per frame and round; the fastest counts, as with timeit
WORKER = (
    "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; "
    "from obstruction_layer_bench import time_frames; time_frames(sys.argv[3])"
)


def build_frames(path: Path, cycles: int) -> dict[str, list[str]]:
    """Write every frame to ``path`` (npz) and return the array names of each shape."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads

    frames: dict[str, list[np.ndarray]] = {}
    large = workloads.LargeFrames()
    for item in large.build(SEED, cycles * large.round_size):
        frames.setdefault(f"{item.kind} n={item.n}", []).append(item.frame)
    U = workloads.spanning_unit_frame(np.random.default_rng([SEED, 16]), 8, 750)
    frames["antipodal n=8"] = [np.vstack([U, -U])]
    arrays, shapes = {}, {}
    for key, group in frames.items():
        shapes[key] = []
        for X in group:
            name = f"f{len(arrays)}"
            arrays[name] = X
            shapes[key].append(name)
    np.savez(path, **arrays)
    return shapes


def time_frames(path: str) -> None:
    """Worker: print the fastest of CALLS calls on each frame, in milliseconds, as JSON."""
    from framescale import closeness_obstruction

    data = np.load(path)
    out = {}
    for name in data.files:
        X = data[name]
        calls = []
        for _ in range(CALLS):
            start = time.perf_counter()
            closeness_obstruction(X)
            calls.append(time.perf_counter() - start)
        out[name] = min(calls) * 1e3
    print(json.dumps(out))


def run(src: str | None, rounds: int, out: Path, cycles: int = LARGE_CYCLES) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "frames.npz"
        shapes = build_frames(path, cycles)
        per_round = _alternate(src, rounds, WORKER, path)
    report = {
        "script": "scripts/obstruction_layer_bench.py",
        "unit": "ms per closeness_obstruction call, fastest of 5 per frame: median and quartiles over rounds of each shape's mean",
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
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_obstruction.json")
    args = parser.parse_args()
    run(args.src, args.rounds, args.out)
