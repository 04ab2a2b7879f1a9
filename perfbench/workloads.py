"""The four benchmark workloads: seeded inputs, one op each, and verdict checks.

Every workload is a closed loop with one client: the next op starts only
after the previous one has returned.  Inputs come from the seed alone;
framescale only ever receives the generated frames or files.  Sizes
(n, m) are cycled through seeded permutations instead of being drawn
independently, because the cost of a search depends strongly on m and
independent draws would make one seed's run much slower than another's.
"""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import framescale as fs

TOL = fs.DEFAULT_TOL


@dataclass
class Item:
    """One op's input and what its verdict check expects."""

    index: int
    n: int
    m: int
    kind: str
    frame: np.ndarray | None = None
    argv: list[str] = field(default_factory=list)
    out: str = ""


@dataclass
class Verdict:
    label: str
    ok: bool
    note: str = ""


# ---------------------------------------------------------------- generators


def unit_rows(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    X = rng.standard_normal((m, n))
    return X / np.linalg.norm(X, axis=1, keepdims=True)


def spanning_unit_frame(rng: np.random.Generator, n: int, m: int) -> np.ndarray:
    while True:
        X = unit_rows(rng, m, n)
        if fs.Frame(X).is_frame():
            return X


def clustered_frame(rng: np.random.Generator, n: int, m: int, spread: float) -> np.ndarray:
    while True:
        centre = rng.standard_normal(n)
        X = centre / np.linalg.norm(centre) + spread * rng.standard_normal((m, n))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        if fs.Frame(X).is_frame():
            return X


def scalable_frame(rng: np.random.Generator, n: int, bases: int) -> np.ndarray:
    """Weighted union of rotated orthonormal bases, rows rescaled at random.

    With weights w_j summing to one the rows sqrt(w_j) U_j e_i form a
    Parseval frame, so rescaled rows s_i x_i are scalable by
    c_i = sqrt(w_j) / s_i.
    """
    weights = rng.uniform(0.5, 1.5, bases)
    weights /= weights.sum()
    rows = [np.sqrt(w) * np.linalg.qr(rng.standard_normal((n, n)))[0].T for w in weights]
    X = np.vstack(rows)
    return X * rng.uniform(0.5, 2.0, X.shape[0])[:, None]


def cone_frame(rng: np.random.Generator, n: int, m: int) -> np.ndarray:
    """Unit vectors whose cos^2 to a common centre u exceeds 1/n, so none scale.

    A Parseval scaling would give 1 = sum c_i^2 <x_i, u>^2 > sum c_i^2 / n
    = 1, since the squared constants of a unit frame sum to n.
    """
    u = rng.standard_normal(n)
    u /= np.linalg.norm(u)
    W = rng.standard_normal((m, n))
    W -= np.outer(W @ u, u)
    W /= np.linalg.norm(W, axis=1, keepdims=True)
    cos2 = rng.uniform(1.0 / n + 0.05, 1.0 / n + 0.5, m)
    X = np.sqrt(cos2)[:, None] * u + np.sqrt(1.0 - cos2)[:, None] * W
    return X / np.linalg.norm(X, axis=1, keepdims=True)


def cycled(rng: np.random.Generator, values, count: int) -> list:
    """``count`` values taken from back-to-back seeded permutations of ``values``."""
    values = list(values)
    out: list = []
    while len(out) < count:
        out.extend(values[i] for i in rng.permutation(len(values)))
    return out[:count]


def max_pair_distance(X: np.ndarray) -> float:
    """Largest pairwise distance from the Gram matrix, independent of framescale."""
    sq = (X * X).sum(axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (X @ X.T)
    return float(np.sqrt(max(float(d2.max()), 0.0)))


# ---------------------------------------------------------------- workloads


class Workload:
    name = ""
    why = ""
    # ops per round of the size mix; with exactly half the search-random ops
    # in R^2 and R^3, its median sits between the two halves
    round_size = 1
    # ops a run makes per second of its run length: the rate measured on the
    # 2-vCPU reference host when the benchmark was added, so a run there lasts
    # about its run length and always makes the same ops for a seed
    nominal_ops_per_s = 1.0
    # op latencies beyond latency_tail_ms
    tail_beyond = 10

    def plan(self, seconds: float) -> int:
        """Op count of a run of ``seconds``, in whole rounds of the size mix."""
        return max(1, round(seconds * self.nominal_ops_per_s / self.round_size)) * self.round_size

    def build(self, seed: int, count: int) -> list[Item]:
        raise NotImplementedError

    def run(self, item: Item):
        raise NotImplementedError

    def check(self, item: Item, output) -> Verdict:
        raise NotImplementedError

    def span_name(self, item: Item) -> str | None:
        """Name of a span the benchmark opens around the whole op, if any."""
        return None

    def trace_into(self, tracer, launcher: list[str] | None) -> None:
        """Ops of in-process workloads are traced by wrapping framescale in place."""


class SearchMiss(Workload):
    name = "search-miss"
    why = "certified rank-2 misses in R^4: every op spends the whole candidate budget"
    round_size = 4
    nominal_ops_per_s = 6.5

    def build(self, seed, count):
        rng = np.random.default_rng([seed, 1])
        items = []
        for index, m in enumerate(cycled(rng, range(5, 9), count)):
            while True:
                X = clustered_frame(rng, 4, m, 0.02)
                if 2 in fs.closeness_obstruction(X).applicable_ranks:
                    break
            items.append(Item(index, 4, m, "clustered", frame=X))
        return items

    def run(self, item):
        return fs.search_piecewise(item.frame, ranks={2}, budget=200, seed=item.index)

    def check(self, item, output):
        if output is None:
            return Verdict("not-found", True)
        return Verdict("found", False, "found a scaling the obstruction certificate rules out")


class SearchRandom(Workload):
    name = "search-random"
    why = "random unit frames in R^2..R^5: constructors, early hits, misses and failures mixed"
    round_size = 4
    nominal_ops_per_s = 6.5

    def build(self, seed, count):
        rng = np.random.default_rng([seed, 2])
        per_dim = -(-count // 4)
        sizes = {n: cycled(rng, range(n + 1, 3 * n + 1), per_dim) for n in (2, 3, 4, 5)}
        items = []
        for index in range(count):
            n = 2 + index % 4
            m = sizes[n][index // 4]
            items.append(Item(index, n, m, "random", frame=spanning_unit_frame(rng, n, m)))
        return items

    def run(self, item):
        return fs.search_piecewise(item.frame, budget=200, seed=item.index)

    def check(self, item, output):
        if output is None:
            return Verdict("not-found", True)
        if fs.verify_piecewise(item.frame, output).passed:
            return Verdict("found", True)
        return Verdict("found-unverified", False, "found scaling fails verify_piecewise")


class LargeFrames(Workload):
    name = "large-frames"
    why = "scale then obstruct on wide (n 12..20) and tall (m 800..1500) frames"
    # one cycle: each wide kind at each n, then the tall frames
    WIDE = [(kind, n) for n in (12, 16, 20) for kind in ("scalable", "random", "cone")]
    TALL = (4, 8, 16)
    TALL_M = range(800, 1501, 100)
    round_size = len(WIDE) + len(TALL)
    nominal_ops_per_s = 11.5

    def build(self, seed, count):
        # a 25 s run has three times len(TALL_M) cycles, so it holds every
        # tall size three times per n, and its slowest ops, and with them its
        # tail latency, are the same sizes for every seed
        cycles = -(-count // self.round_size)
        rng = np.random.default_rng([seed, 3])
        bases = {n: cycled(rng, range(4, 8), cycles * 3) for n in (12, 16, 20)}
        tall_m = {n: cycled(rng, self.TALL_M, cycles) for n in self.TALL}
        items = []
        for c in range(cycles):
            for j, (kind, n) in enumerate(self.WIDE):
                k = bases[n][3 * c + j % 3]
                if kind == "scalable":
                    X = scalable_frame(rng, n, k)
                elif kind == "random":
                    X = spanning_unit_frame(rng, n, k * n)
                else:
                    X = cone_frame(rng, n, k * n)
                items.append(Item(len(items), n, X.shape[0], kind, frame=X))
            for n in self.TALL:
                items.append(Item(len(items), n, tall_m[n][c], "tall", frame=spanning_unit_frame(rng, n, tall_m[n][c])))
        return items[:count]

    def run(self, item):
        return fs.solve_standard_scaling(item.frame), fs.closeness_obstruction(item.frame)

    def check(self, item, output):
        verdict, obstruction = output
        label = ("feasible" if verdict.feasible else f"infeasible:{verdict.certificate}") + f"/{obstruction.theorem}"
        if verdict.feasible and not fs.verify_parseval(verdict.scaling.constants[:, None] * item.frame).passed:
            return Verdict(label, False, "feasible constants fail verify_parseval")
        if item.kind == "scalable" and not verdict.feasible:
            return Verdict(label, False, "frame scalable by construction came back infeasible")
        if item.kind == "cone" and verdict.feasible:
            return Verdict(label, False, "cone-clustered frame came back feasible")
        reference = max_pair_distance(item.frame)
        if abs(obstruction.epsilon - reference) > 1e-6 * max(1.0, reference):
            return Verdict(label, False, f"cluster radius {obstruction.epsilon} differs from {reference}")
        return Verdict(label, True)


class CliSession(Workload):
    """One op is one ``python -m framescale`` process; reports feed later ops."""

    name = "cli-session"
    why = "one CLI process per op: interpreter start-up, imports, file input and reports"
    round_size = 7
    nominal_ops_per_s = 3.8

    def __init__(self, root: Path, workdir: Path, env: dict[str, str]):
        self.root = root
        self.workdir = workdir
        self.env = env
        self.launcher: list[str] | None = None
        self.tracer = None

    def trace_into(self, tracer, launcher):
        self.tracer = tracer
        self.launcher = launcher

    def span_name(self, item):
        return f"cli.{item.argv[0]}"

    def _write_frame(self, path: Path, X: np.ndarray) -> None:
        if path.suffix == ".json":
            path.write_text(json.dumps({"dim": X.shape[1], "vectors": X.tolist()}) + "\n")
        else:
            path.write_text("\n".join(",".join(repr(float(v)) for v in row) for row in X) + "\n")

    def build(self, seed, count):
        frames = -(-count // self.round_size)
        rng = np.random.default_rng([seed, 4])
        m2 = cycled(rng, range(3, 7), frames)
        m3 = cycled(rng, range(4, 9), frames)
        items = []
        for f in range(frames):
            n = 2 + f % 3
            if n == 4:
                X, kind = scalable_frame(rng, 4, 2), "scalable"
            else:
                X, kind = spanning_unit_frame(rng, n, m2[f] if n == 2 else m3[f]), "random"
            path = self.workdir / f"frame{f}.{'json' if f % 2 else 'csv'}"
            self._write_frame(path, X)
            pw = str(self.workdir / f"frame{f}-piecewise.json")
            steps = [
                ("analyze", [str(path)]),
                ("scale", [str(path)]),
                ("piecewise", [str(path)]),
                ("verify", [pw]),
                ("transport", [pw, "--to-canonical"]),
                ("obstruct", [str(path)]),
                ("canonical-parseval", [str(path)]),
            ]
            for sub, args in steps:
                index = len(items)
                out = pw if sub == "piecewise" else str(self.workdir / f"op{index}.json")
                items.append(Item(index, n, X.shape[0], kind, frame=X, argv=[sub, *args, "--out", out], out=out))
        return items[:count]

    def run(self, item):
        if self.tracer is None:
            cmd = [sys.executable, "-m", "framescale", *item.argv]
        else:
            spans = self.workdir / "spans.json"
            cmd = [*self.launcher, str(spans), *item.argv]
        proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True, text=True)
        if self.tracer is not None:
            # nest the child's spans under the op span the loop opened
            self.tracer.adopt(json.loads(spans.read_text()), self.tracer.current())
            spans.unlink()
        if proc.returncode != 0:
            raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip().splitlines()[-1:]}")
        return json.loads(Path(item.out).read_text())

    def check(self, item, report):
        sub = item.argv[0]
        verdict = report.get("verdict")
        residuals = report.get("residuals", {})
        label = f"{sub}:{verdict}"
        expected = {
            "analyze": "spanning",
            "piecewise": "found",
            "verify": "pass",
            "transport": "transported",
            "obstruct": "none",
            "canonical-parseval": "converted",
        }.get(sub)
        if sub == "scale":
            if item.kind == "scalable" and verdict != "feasible":
                return Verdict(label, False, "frame scalable by construction came back infeasible")
            if verdict not in ("feasible", "infeasible"):
                return Verdict(label, False, "unknown scale verdict")
        elif verdict != expected:
            return Verdict(label, False, f"expected {expected}")
        if sub in ("transport", "canonical-parseval") and max(residuals.values()) > TOL:
            return Verdict(label, False, "output does not verify")
        return Verdict(label, True)
