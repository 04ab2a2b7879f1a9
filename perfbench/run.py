"""framescale benchmark: four closed-loop workloads, end-to-end and per-layer metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload search-miss --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 10      # every workload, one process each
    python3 perfbench/run.py --smoke                          # a few ops each, checks every metric

One run prints its environment, verdict counts and digest, failures and
metrics as text, then one JSON object as its last line.  A run makes a
fixed number of ops, ``--seconds`` times the workload's nominal rate, so
the ops, verdicts and failures of a run depend only on the seed and the
program, and the run lasts about ``--seconds`` on the reference host
(see README.md).  ``--trace 0`` reports the end-to-end metrics, with
times scaled to the reference host's speed (see ``Probe``); ``--trace 1``
runs half as many ops with every layer wrapped (see tracing.py) and
reports the per-layer metrics.
See README.md in this directory for why each workload and metric exists.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys

# pinned before numpy loads; children inherit it through the environment
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORKLOADS = ("search-miss", "search-random", "large-frames", "cli-session")
IMPORT_PROBES = 3
# set-up is timed once before the loop and this many times during it
SETUP_REPEATS_IN_LOOP = 4

# every end-to-end metric a run prints, with its unit; BENCHMARK.json lists
# success_rate rather than error_rate because its metrics must never be 0
END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "cpu_ms_per_op": "ms",
    "error_rate": "ratio",
    "success_rate": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def git_commit() -> str:
    """HEAD read from .git without running git, which would search above the checkout."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def tail(values: list[float], beyond: int) -> tuple[float, float]:
    """The highest percentile with ``beyond`` samples beyond it, and that percentile."""
    ordered = sorted(values)
    rank = max(1, len(ordered) - beyond)
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def run_python(code: str, env: dict[str, str]) -> str:
    """Run ``code`` in a fresh interpreter and return what it prints."""
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True, check=True)
    return proc.stdout.strip()


IMPORT_CODE = "import time; t = time.perf_counter(); import {0}; print(time.perf_counter() - t)"


class Probe:
    """A fixed numpy computation whose time tracks the shared host's speed.

    On the 2-vCPU shared host the benchmark was built on, the time of
    identical work moves by up to a factor of two in episodes of seconds,
    in CPU time as much as in wall time.  The probe runs before the loop,
    after every op and after every set-up; the wall and CPU times of an op
    or a set-up are scaled by ``REFERENCE_S`` over the mean of the two
    probes around it, which reports them at the speed the probe measured
    on the reference host.
    The probe uses numpy alone, so no change to framescale moves it, and
    the garbage collector is off while it runs, so the program's heap
    does not either.
    """

    # the probe's time on the reference host (see README.md)
    REFERENCE_S = 0.002
    SOLVES = 60

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self.a = rng.standard_normal((20, 8))
        self.b = rng.standard_normal(20)
        self.lstsq = np.linalg.lstsq
        self.measure()  # the first call loads LAPACK
        self.restart()

    def restart(self) -> None:
        """Probe now, so the next factors cover only what runs from here."""
        self.last = self.measure()

    def measure(self) -> tuple[float, float]:
        """Wall and CPU seconds of one probe."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0, c0 = time.perf_counter(), time.process_time()
            for _ in range(self.SOLVES):
                self.lstsq(self.a, self.b, rcond=None)
            return time.perf_counter() - t0, time.process_time() - c0
        finally:
            if enabled:
                gc.enable()

    def factors(self) -> tuple[float, float]:
        """Probe again; the wall and CPU scale factors since the last probe."""
        now = self.measure()
        wall = 2.0 * self.REFERENCE_S / (self.last[0] + now[0])
        cpu = 2.0 * self.REFERENCE_S / (self.last[1] + now[1])
        self.last = now
        return wall, cpu


@dataclass
class Loop:
    """Outcome of a closed loop over a list of ops."""

    items: list = field(default_factory=list)
    outputs: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    # wall and CPU seconds of each op, as measured, and the factors that
    # scale them to the reference host's speed
    latencies: list = field(default_factory=list)
    cpus: list = field(default_factory=list)
    wall_factors: list = field(default_factory=list)
    cpu_factors: list = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(self.latencies)


def cpu_seconds(children: bool) -> float:
    if children:
        usage = resource.getrusage(resource.RUSAGE_CHILDREN)
        return usage.ru_utime + usage.ru_stime
    return time.process_time()


def closed_loop(wl, ops: list, children: bool, tracer=None, probe=None, every: int = 0, between=None) -> Loop:
    """Run ``ops`` in turn, sending op i+1 only after op i returns.

    With a ``probe``, the host's speed is probed after every op.
    ``between`` is called, outside any op's time, after every ``every`` ops.
    """
    loop = Loop()
    for i, item in enumerate(ops):
        span = None
        if tracer is not None:
            tracer.op = i
            name = wl.span_name(item)
            span = tracer.open(name) if name else None
        c0 = cpu_seconds(children)
        t0 = time.perf_counter()
        try:
            output, error = wl.run(item), None
        except Exception as exc:  # noqa: BLE001 - a failed op is counted, never fatal
            output, error = None, f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        c1 = cpu_seconds(children)
        if span is not None:
            tracer.close(span)
        loop.items.append(item)
        loop.outputs.append(output)
        loop.errors.append(error)
        loop.latencies.append(t1 - t0)
        loop.cpus.append(c1 - c0)
        wall, cpu = probe.factors() if probe is not None else (1.0, 1.0)
        loop.wall_factors.append(wall)
        loop.cpu_factors.append(cpu)
        if between is not None and (i + 1) % every == 0:
            between()
            if probe is not None:
                probe.restart()
    return loop


def make_workload(name: str, workdir: Path):
    import workloads

    if name == "search-miss":
        return workloads.SearchMiss()
    if name == "search-random":
        return workloads.SearchRandom()
    if name == "large-frames":
        return workloads.LargeFrames()
    return workloads.CliSession(ROOT, workdir, child_env())


def set_up(wl, seed: int, count: int):
    """Import, input generation, certification and one warm-up op.

    The import runs in a fresh interpreter, as a CLI user pays it; the
    rest runs here.  Returns the items and the time it took.
    """
    start = time.perf_counter()
    run_python("import framescale", child_env())
    items = wl.build(seed, count)
    try:
        wl.run(items[0])
    except Exception:  # noqa: BLE001 - set-up only times the op; the loop counts failures
        pass
    return items, time.perf_counter() - start


def judge(wl, loop: Loop):
    """Verdict checks, outside the timed region.  Returns per-op (label, ok, note)."""
    results = []
    for item, output, error in zip(loop.items, loop.outputs, loop.errors):
        if error is not None:
            kind, _, message = error.partition(": ")
            results.append((f"error:{kind}", False, message))
            continue
        verdict = wl.check(item, output)
        results.append((verdict.label, verdict.ok, verdict.note))
    return results


def digest_of(loop: Loop, results) -> str:
    """Digest of (item index, verdict) over every op of the run, in order."""
    pairs = [(item.index, label) for item, (label, _, _) in zip(loop.items, results)]
    return hashlib.sha256(json.dumps(pairs).encode()).hexdigest()[:16]


def end_to_end(wl, loop: Loop, results, setup_times, children: bool) -> tuple[dict, str]:
    """End-to-end metrics, with times at the reference host's speed (see ``Probe``)."""
    attempted = len(results)
    ok = [ok for _, ok, _ in results]
    verified = sum(ok)
    walls = [t * f for t, f in zip(loop.latencies, loop.wall_factors)]
    cpus = [t * f for t, f in zip(loop.cpus, loop.cpu_factors)]
    total = sum(walls)
    # a failed op counts as lasting the whole run, which keeps the values finite
    latencies = [wall if good else total for wall, good in zip(walls, ok)]
    tail_value, tail_q = tail(latencies, wl.tail_beyond)
    beyond = attempted - round(tail_q * attempted / 100)
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF)
    values = {
        "ops_per_s": verified / total,
        "latency_p50_ms": statistics.median(latencies) * 1000.0,
        "latency_tail_ms": tail_value * 1000.0,
        "cpu_ms_per_op": sum(cpus) / attempted * 1000.0,
        "error_rate": (attempted - verified) / attempted,
        "success_rate": verified / attempted,
        "setup_s": statistics.median(scaled for _, scaled in setup_times),
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }
    note = (
        f"latency_tail_ms: p{tail_q:.4g} of {attempted} ops, {beyond} beyond it\n"
        f"as measured: {verified / loop.wall:.4g} ops/s, {sum(loop.cpus) / attempted * 1000.0:.4g} cpu ms/op, "
        f"setup {statistics.median(raw for raw, _ in setup_times):.4g} s; host speed factor over the loop: "
        f"median {statistics.median(loop.wall_factors):.3f}, "
        f"range {min(loop.wall_factors):.3f}..{max(loop.wall_factors):.3f}"
    )
    return values, note


def remove_tree(path: Path) -> None:
    """Delete a directory of plain files, such as one run's working directory."""
    for child in path.iterdir():
        child.unlink()
    path.rmdir()


def describe_sizes(items) -> str:
    sizes = Counter((item.n, item.m) for item in items)
    by_n: dict[int, list[int]] = {}
    for (n, m), count in sizes.items():
        by_n.setdefault(n, []).extend([m] * count)
    return "; ".join(
        f"n={n}: {len(ms)} ops, m {min(ms)}..{max(ms)}" for n, ms in sorted(by_n.items())
    )


def run_one(args) -> int:
    if not (SRC / "framescale" / "__init__.py").is_file():
        print(f"framescale sources not found under {SRC.name}/; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # one CPU for the benchmark and the processes it starts, so that the
    # probe measures the speed of the CPU the ops run on
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    import numpy as np

    from tracing import Tracer, layer_metrics

    RESULTS.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RESULTS))
    wl = make_workload(args.workload, workdir)
    children = args.workload == "cli-session"
    try:
        print(
            f"env: python {platform.python_version()}, numpy {np.__version__}, "
            f"nproc {os.cpu_count()}, pinned to cpu {cpu}, "
            f"blas threads {BLAS_THREADS}, commit {git_commit()}"
        )
        print(f"run: workload {args.workload}, seed {args.seed}, seconds {args.seconds}, trace {args.trace}")
        print(f"why: {wl.why}")
        count = args.max_ops or wl.plan(args.seconds / 2.0 if args.trace else args.seconds)
        probe = Probe()
        setup_times = []

        def timed_set_up():
            """Set up once; keep its time as measured and at reference speed."""
            items, took = set_up(wl, args.seed, count)
            setup_times.append((took, took * probe.factors()[0]))
            return items

        items = timed_set_up()

        tracer = None
        if args.trace:
            tracer = Tracer()
            if children:
                wl.trace_into(tracer, [sys.executable, str(HERE / "traced_cli.py")])
            else:
                tracer.install()
            loop = closed_loop(wl, items, children, tracer)
            tracer.uninstall()
            wl.trace_into(None, None)
        else:
            every = -(-len(items) // SETUP_REPEATS_IN_LOOP)
            # set-up is timed again during the loop, so its median spans the run
            loop = closed_loop(wl, items, children, probe=probe, every=every, between=timed_set_up)
        results = judge(wl, loop)

        print(f"setup: {', '.join(f'{raw:.3f}' for raw, _ in setup_times)} s as measured, "
              f"{', '.join(f'{scaled:.3f}' for _, scaled in setup_times)} s at reference speed")
        print(f"ops: {len(loop.items)} in {loop.wall:.3f} s; sizes {describe_sizes(items)}")
        verdicts = Counter(label for label, _, _ in results)
        print("verdicts: " + ", ".join(f"{k}={v}" for k, v in sorted(verdicts.items())))
        print(f"digest: {digest_of(loop, results)} over (item, verdict) of all {len(results)} ops")
        rejected = Counter(f"{label}: {note}" for label, ok, note in results if not ok)
        for text, times in sorted(rejected.items()):
            print(f"failure x{times}: {text}")

        failed = sum(1 for _, ok, _ in results if not ok)
        correct = all(ok for (label, ok, _) in results if not label.startswith("error:"))

        if args.trace:
            replay = closed_loop(wl, items, children)
            env = child_env()
            for _ in range(IMPORT_PROBES):
                for module, span in (("numpy", "cli.import_numpy"), ("framescale", "cli.import_framescale")):
                    tracer.record(span, 0.0, float(run_python(IMPORT_CODE.format(module), env)))
            layers = layer_metrics(tracer.rows(), len(loop.items))
            values = {name: value for name, (value, _) in layers.items()}
            units = {name: unit for name, (_, unit) in layers.items()}
            values["trace.overhead_ratio"] = loop.wall / replay.wall
            units["trace.overhead_ratio"] = "ratio"
            tracer.dump(RESULTS / f"spans-{args.workload}-seed{args.seed}.json")
            print(f"trace: {len(tracer)} spans; traced {loop.wall:.3f} s, untraced replay {replay.wall:.3f} s")
        else:
            values, note = end_to_end(wl, loop, results, setup_times, children)
            units = END_TO_END_UNITS
            print(note)

        for name, value in values.items():
            print(f"metric {name} = {value:.6g} {units[name]}")
        wanted = reported_metrics(bool(args.trace))
        metrics = {
            name: {"value": values[name], "unit": units[name]}
            for name in (wanted if wanted is not None else values)
        }
        print(json.dumps({"correct": correct, "attempted": len(results), "failed": failed, "metrics": metrics}))
        return 0
    finally:
        remove_tree(workdir)


def reported_metrics(trace: bool):
    """Metric names BENCHMARK.json asks for in this mode, or None to report all."""
    spec = ROOT / "BENCHMARK.json"
    if not spec.is_file():
        return None
    listed = json.loads(spec.read_text())["per_layer" if trace else "end_to_end"]
    return [entry["name"] for entry in listed]


def run_children(workloads, seed, seconds, trace, max_ops=0) -> list[tuple[dict | None, str]]:
    """One process per workload; returns each one's final JSON line and its output."""
    out = []
    for name in workloads:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
        if max_ops:
            cmd += ["--max-ops", str(max_ops)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        out.append((json.loads(lines[-1]) if proc.returncode == 0 and lines else None, proc.stdout))
    return out


def smoke() -> int:
    """A few ops per workload in both modes; every listed metric must appear with its unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        expected = {entry["name"]: entry["unit"] for entry in spec[key]}
        for name, (result, stdout) in zip(WORKLOADS, run_children(WORKLOADS, 0, 1, trace, max_ops=7)):
            if result is None:
                problems.append(f"{name} trace={trace}: no result")
                continue
            printed = dict(line.split()[1::3] for line in stdout.splitlines() if line.startswith("metric "))
            if trace == 0 and any(printed.get(k) != unit for k, unit in END_TO_END_UNITS.items()):
                problems.append(f"{name}: printed end-to-end metrics or units differ")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected:
                problems.append(f"{name} trace={trace}: metrics {sorted(set(got) ^ set(expected))} or units differ")
            if not all(math.isfinite(v["value"]) for v in result["metrics"].values()):
                problems.append(f"{name} trace={trace}: non-finite value")
            if not result["correct"]:
                problems.append(f"{name} trace={trace}: a verdict check failed")
    for problem in problems:
        print(f"smoke: {problem}")
    print("smoke: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="run length: fixes the op count at the workload's nominal rate times this")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-ops", type=int, default=0, help="make this many ops instead (smoke runs)")
    parser.add_argument("--smoke", action="store_true", help="run every workload for a few ops and check the metrics")
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.workload == "all":
        results = [result for result, _ in run_children(WORKLOADS, args.seed, args.seconds, args.trace)]
        print()
        for name, result in zip(WORKLOADS, results):
            if result is None:
                print(f"{name}: FAILED")
                continue
            shown = ", ".join(f"{k}={v['value']:.4g} {v['unit']}" for k, v in result["metrics"].items())
            print(f"{name}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']} {shown}")
        return 0 if all(results) else 1
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
