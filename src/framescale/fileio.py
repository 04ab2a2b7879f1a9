"""Frame, matrix, and report files.

Frames travel as CSV (one vector per line, comma separated, '#' starts a
comment) or JSON ({"dim": n, "vectors": [[...]], "labels": [...]}).
Reports are JSON with floats printed to 17 significant digits, which
makes round trips bit-faithful in binary64 and report bytes reproducible.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np

from .frames import Frame


class FrameFormatError(ValueError):
    """Malformed input file; carries line/column diagnostics when known."""

    def __init__(self, message: str, path=None, line: int | None = None, column: int | None = None):
        prefix = ""
        if path is not None:
            prefix = f"{path}: "
        location = ""
        if line is not None:
            location = f"line {line}: " if column is None else f"line {line}, column {column}: "
        super().__init__(f"{prefix}{location}{message}")
        self.path = path
        self.line = line
        self.column = column


def _detect_format(path, fmt: str | None) -> str:
    if fmt is not None:
        if fmt not in ("csv", "json"):
            raise ValueError(f"unknown format {fmt!r}")
        return fmt
    return "json" if str(path).lower().endswith(".json") else "csv"


def _parse_csv_rows(text: str, path) -> np.ndarray:
    rows: list[list[float]] = []
    width: int | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = [t.strip() for t in line.split(",")]
        values: list[float] = []
        for col, token in enumerate(tokens, start=1):
            try:
                values.append(float(token))
            except ValueError:
                raise FrameFormatError(f"invalid number {token!r}", path, lineno, col) from None
        if width is None:
            width = len(values)
        elif len(values) != width:
            raise FrameFormatError(f"expected {width} values, got {len(values)}", path, lineno)
        rows.append(values)
    if not rows:
        raise FrameFormatError("no data rows", path)
    return np.array(rows, dtype=float)


def _load_json_object(text: str, path) -> dict:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FrameFormatError(f"invalid JSON: {exc.msg}", path, exc.lineno, exc.colno) from None
    if not isinstance(obj, dict):
        raise FrameFormatError("top-level JSON value must be an object", path)
    return obj


def _numbers(row, where: str, path) -> np.ndarray:
    """The JSON array ``row`` of numbers as floats; diagnostics call it ``where``.

    The one rule for frame, matrix and report arrays: booleans and
    strings are no numbers, and integers beyond the doubles are errors.
    """
    if not isinstance(row, list):
        raise FrameFormatError(f"{where} is not an array", path)
    values: list[float] = []
    for j, item in enumerate(row):
        if isinstance(item, bool) or not isinstance(item, (int, float)):
            raise FrameFormatError(f"{where}, coordinate {j} is not a number", path)
        try:
            values.append(float(item))
        except OverflowError:
            raise FrameFormatError(f"{where}, coordinate {j} exceeds the range of doubles", path) from None
    return np.array(values)


def _rows_from_json(obj: dict, key: str, path) -> np.ndarray:
    """The array of arrays of numbers under ``key``; diagnostics name that key."""
    entries = obj.get(key)
    if not isinstance(entries, list) or not entries:
        raise FrameFormatError(f'"{key}" must be a nonempty array of arrays', path)
    rows = [_numbers(row, f'"{key}" entry {i}', path) for i, row in enumerate(entries)]
    for i, row in enumerate(rows):
        if len(row) != len(rows[0]):
            raise FrameFormatError(f'"{key}" entry {i} has length {len(row)}, expected {len(rows[0])}', path)
    return np.array(rows)


def load_frame(path, fmt: str | None = None) -> Frame:
    """Read a frame file; raises FrameFormatError with diagnostics on bad input."""
    text = Path(path).read_text()
    labels = None
    if _detect_format(path, fmt) == "csv":
        arr = _parse_csv_rows(text, path)
    else:
        obj = _load_json_object(text, path)
        arr = _rows_from_json(obj, "vectors", path)
        dim = obj.get("dim")
        if dim is not None:
            if isinstance(dim, bool) or not isinstance(dim, int):
                raise FrameFormatError(f'"dim" must be an integer, got {json.dumps(dim)}', path)
            if dim != arr.shape[1]:
                raise FrameFormatError(f'"dim" is {dim} but vectors have {arr.shape[1]} coordinates', path)
        raw_labels = obj.get("labels")
        if raw_labels is not None:
            if not isinstance(raw_labels, list) or len(raw_labels) != arr.shape[0]:
                raise FrameFormatError('"labels" must list one label per vector', path)
            labels = tuple(str(lab) for lab in raw_labels)
    try:
        return Frame(arr, labels=labels)
    except ValueError as exc:
        raise FrameFormatError(str(exc), path) from None


def save_frame(frame: Frame, path, fmt: str | None = None) -> None:
    fmt = _detect_format(path, fmt)
    if fmt == "csv":
        lines = [",".join(format_float(x) for x in row) for row in frame.vectors]
        Path(path).write_text("\n".join(lines) + "\n")
    else:
        payload: dict = {"dim": frame.dim, "vectors": frame.vectors}
        if frame.labels is not None:
            payload["labels"] = list(frame.labels)
        Path(path).write_text(dumps_json(payload) + "\n")


def load_matrix(path, fmt: str | None = None) -> np.ndarray:
    """Read a dense square matrix (CSV rows or JSON {"matrix": [[...]]})."""
    text = Path(path).read_text()
    if _detect_format(path, fmt) == "csv":
        arr = _parse_csv_rows(text, path)
    else:
        obj = _load_json_object(text, path)
        if "matrix" not in obj:
            raise FrameFormatError('expected a "matrix" key', path)
        arr = _rows_from_json(obj, "matrix", path)
    if arr.shape[0] != arr.shape[1]:
        raise FrameFormatError(f"matrix must be square, got {arr.shape[0]} x {arr.shape[1]}", path)
    return arr


def format_float(value) -> str:
    """17 significant digits: prints every binary64 value round-trippably."""
    v = float(value)
    if math.isnan(v):
        return '"nan"'
    if math.isinf(v):
        return '"inf"' if v > 0 else '"-inf"'
    return format(v, ".17g")


def dumps_json(obj) -> str:
    """Deterministic JSON with 17-digit floats; key order is insertion order; arrays encode as their lists."""
    if isinstance(obj, dict):
        parts = (f"{json.dumps(str(k))}: {dumps_json(v)}" for k, v in obj.items())
        return "{" + ", ".join(parts) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(dumps_json(v) for v in obj) + "]"
    if isinstance(obj, np.ndarray):
        return dumps_json(obj.tolist())
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def write_report(report: dict, out=None) -> None:
    text = dumps_json(report) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def load_report(path) -> dict:
    return _load_json_object(Path(path).read_text(), path)
