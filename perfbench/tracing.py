"""Spans around the public functions of every framescale layer.

The wrappers live here, in the benchmark, so nothing under ``src/``
changes.  Each public function defined in a layer module is wrapped once
and the wrapper is bound in every framescale module that holds the
original, so a call is traced as the caller module binds it (for example
``framescale.piecewise.solve_standard_scaling``, not only
``framescale.scaling.solve_standard_scaling``).

Spans are kept in memory as rows ``(name, start, end, parent, op,
extra)`` and written out once, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import time
import tracemalloc

LAYERS = (
    "nnls",
    "scaling",
    "piecewise",
    "projections",
    "frames",
    "obstructions",
    "transport",
    "fileio",
    "cli",
)

CLI_SUBCOMMANDS = (
    "analyze",
    "scale",
    "piecewise",
    "verify",
    "transport",
    "obstruct",
    "canonical-parseval",
)

# functions of this group count as one layer metric: ``construct_r3``
# delegates to ``construct_r3_detailed``, whose span nests inside it
CONSTRUCT_GROUP = ("piecewise.construct_r2", "piecewise.construct_r3", "piecewise.construct_r3_detailed")

NAME, START, END, PARENT, OP, EXTRA = range(6)


def _nnls_extra(result):
    return (int(result.iterations), bool(result.converged))


def _feasible_extra(verdict):
    return bool(verdict.feasible)


def _found_extra(result):
    return result is not None


_RESULT_EXTRAS = {
    "nnls.nnls": _nnls_extra,
    "scaling.solve_standard_scaling": _feasible_extra,
    "piecewise.search_piecewise": _found_extra,
}

# tracemalloc runs only inside these calls, so its cost stays out of the rest
_MEMORY_TRACED = {"obstructions.closeness_obstruction"}


class Tracer:
    """Records spans for one process; ``op`` tags each span with the op id.

    Spans are stored column by column: a list object per span would be
    tracked by the garbage collector, whose full passes then slow down as
    the run records more spans.
    """

    def __init__(self) -> None:
        self.columns: tuple[list, ...] = ([], [], [], [], [], [])
        self.op = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.columns[NAME])

    def open(self, name: str) -> int:
        index = len(self.columns[NAME])
        names, starts, ends, parents, ops, extras = self.columns
        names.append(name)
        parents.append(self._stack[-1] if self._stack else -1)
        ops.append(self.op)
        extras.append(None)
        ends.append(0.0)
        self._stack.append(index)
        starts.append(time.perf_counter())
        return index

    def close(self, index: int, extra=None) -> None:
        self.columns[END][index] = time.perf_counter()
        if extra is not None:
            self.columns[EXTRA][index] = extra
        self._stack.pop()

    def current(self) -> int:
        return self._stack[-1] if self._stack else -1

    def record(self, name: str, start: float, end: float, extra=None) -> None:
        """Add a finished span measured by the caller, under the current open span."""
        for column, value in zip(self.columns, (name, start, end, self.current(), self.op, extra)):
            column.append(value)

    def adopt(self, spans: list[list], parent: int) -> None:
        """Append spans recorded by a child process, nesting its roots under ``parent``."""
        offset = len(self)
        for span in spans:
            span = list(span)
            span[PARENT] = parent if span[PARENT] < 0 else span[PARENT] + offset
            span[OP] = self.op
            for column, value in zip(self.columns, span):
                column.append(value)

    def rows(self) -> list[tuple]:
        return list(zip(*self.columns))

    def _wrap(self, name: str, fn):
        tracer = self
        result_extra = _RESULT_EXTRAS.get(name)
        track_memory = name in _MEMORY_TRACED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = tracer.open(name)
            if track_memory:
                tracemalloc.start()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if track_memory:
                    tracemalloc.stop()
                tracer.close(index, ("error", type(exc).__name__))
                raise
            extra = result_extra(result) if result_extra is not None else None
            if track_memory:
                extra = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            tracer.close(index, extra)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap the public functions of every layer and rebind them everywhere."""
        import framescale

        modules = [framescale] + [importlib.import_module(f"framescale.{layer}") for layer in LAYERS]
        wrappers: dict[int, object] = {}
        for layer, module in zip(LAYERS, modules[1:]):
            for attr, fn in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrappers[id(fn)] = self._wrap(f"{layer}.{attr}", fn)
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.rows(), fh, separators=(",", ":"))


def _self_times(spans: list) -> list[float]:
    selfs = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            selfs[span[PARENT]] -= span[END] - span[START]
    return selfs


def layer_metrics(spans: list, ops: int) -> dict[str, tuple[float, str]]:
    """Every per-layer metric except ``trace.overhead_ratio``, as (value, unit).

    ``spans`` are rows ``(name, start, end, parent, op, extra)`` from a
    loop of ``ops`` ops.  Counts and self times are per op, so traced runs
    that complete different numbers of ops compare directly.
    """
    selfs = _self_times(spans)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    for span, own in zip(spans, selfs):
        calls[span[NAME]] = calls.get(span[NAME], 0) + 1
        self_s[span[NAME]] = self_s.get(span[NAME], 0.0) + own

    def extras(name):
        return [span[EXTRA] for span in spans if span[NAME] == name]

    def ratio(hits, total):
        return hits / total if total else 0.0

    out: dict[str, tuple[float, str]] = {}

    def layer(name, *fields):
        for field in fields:
            if field == "calls":
                out[f"{name}.calls"] = (calls.get(name, 0) / ops, "count")
            elif field == "self_s":
                out[f"{name}.self_s"] = (self_s.get(name, 0.0) / ops, "s")

    layer("nnls.nnls", "calls", "self_s")
    nnls_extra = extras("nnls.nnls")
    out["nnls.nnls.iterations"] = (sum(e[0] for e in nnls_extra) / ops, "count")
    out["nnls.nnls.unconverged"] = (sum(1 for e in nnls_extra if not e[1]) / ops, "count")

    layer("scaling.solve_standard_scaling", "calls", "self_s")
    feasible = extras("scaling.solve_standard_scaling")
    out["scaling.solve_standard_scaling.feasible_ratio"] = (ratio(sum(1 for e in feasible if e is True), len(feasible)), "ratio")

    layer("piecewise.search_piecewise", "calls", "self_s")
    found = extras("piecewise.search_piecewise")
    out["piecewise.search_piecewise.found_ratio"] = (ratio(sum(1 for e in found if e is True), len(found)), "ratio")
    in_search = [False] * len(spans)
    solves_in_search = 0
    for i, span in enumerate(spans):
        parent = span[PARENT]
        in_search[i] = parent >= 0 and (in_search[parent] or spans[parent][NAME] == "piecewise.search_piecewise")
        if in_search[i] and span[NAME] == "scaling.solve_standard_scaling":
            solves_in_search += 1
    out["piecewise.search_piecewise.solves_per_call"] = (ratio(solves_in_search, len(found)), "ratio")

    layer("piecewise.verify_piecewise", "calls", "self_s")
    layer("frames.verify_parseval", "calls", "self_s")

    group = set(CONSTRUCT_GROUP)
    construct_calls = sum(
        1 for span in spans if span[NAME] in group and (span[PARENT] < 0 or spans[span[PARENT]][NAME] not in group)
    )
    out["piecewise.construct.calls"] = (construct_calls / ops, "count")
    out["piecewise.construct.self_s"] = (sum(self_s.get(name, 0.0) for name in CONSTRUCT_GROUP) / ops, "s")

    layer("projections.complement", "calls", "self_s")
    errors = sum(1 for e in extras("projections.complement") if isinstance(e, (list, tuple)) and e[0] == "error")
    out["projections.complement.errors"] = (errors / ops, "count")

    layer("obstructions.closeness_obstruction", "calls", "self_s")
    peaks = [e for e in extras("obstructions.closeness_obstruction") if isinstance(e, int)]
    out["obstructions.closeness_obstruction.peak_mb"] = (max(peaks, default=0) / 2**20, "MB")

    layer("transport.to_canonical", "self_s")
    layer("fileio.load_frame", "self_s")
    layer("fileio.write_report", "self_s")

    def p50_ms(name):
        durations = [span[END] - span[START] for span in spans if span[NAME] == name]
        return (statistics.median(durations) * 1000.0 if durations else 0.0, "ms")

    out["cli.import_numpy_ms"] = p50_ms("cli.import_numpy")
    out["cli.import_framescale_ms"] = p50_ms("cli.import_framescale")
    for sub in CLI_SUBCOMMANDS:
        out[f"cli.{sub}.p50_ms"] = p50_ms(f"cli.{sub}")
    return out
