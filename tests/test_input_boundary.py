"""The report boundary of verify and transport under random mutation.

Each example starts from a ``piecewise`` report on an R^3 frame or a
``scale`` report on an R^4 frame, and from the JSON frame file the report
names.  It replaces, deletes or duplicates one to three entries of those
documents with values a hand-edited or truncated file may hold, then runs
``verify`` and ``transport --to-canonical`` through ``main``.
"""

import contextlib
import copy
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import framescale as fs
from framescale.cli import main
from helpers import random_unit_frame, scalable_rows

TOL = fs.DEFAULT_TOL

# JSON values that are no coordinate, no constant and no file name, and some that are
VALUES = [None, True, False, 0.0, -0.0, 1.0, 1e308, 10**400, "nan", "", [], [[]], [1.0, [2.0]], {}, {"x": 1}]


@pytest.fixture(scope="module")
def originals(tmp_path_factory):
    """(report path, report, frame path, frame file) of each starting report."""
    root = tmp_path_factory.mktemp("boundary")
    cases = []
    for name, frame, command in (
        ("r3", random_unit_frame(np.random.default_rng(3), 3, 5), "piecewise"),
        ("r4", fs.Frame(scalable_rows(np.random.default_rng(4), 4, 2)), "scale"),
    ):
        frame_path, report_path = root / f"{name}.json", root / f"{name}-{command}.json"
        fs.save_frame(frame, frame_path)
        assert main([command, str(frame_path), "--out", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert "scaling" in report
        cases.append((report_path, report, frame_path, json.loads(frame_path.read_text())))
    return cases


def _entries(doc, path=()):
    # the path of every dict value and list element, at every depth
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _entries(value, path + (key,))


def _mutate(doc, data):
    paths = list(_entries(doc))
    if not paths:
        return
    *parents, key = data.draw(st.sampled_from(paths))
    container = doc
    for step in parents:
        container = container[step]
    op = data.draw(st.sampled_from(["replace", "delete", "duplicate"]))
    if op == "delete":
        del container[key]
    elif op == "duplicate" and isinstance(container, list):
        container.insert(key, copy.deepcopy(container[key]))
    else:
        container[key] = copy.deepcopy(data.draw(st.sampled_from(VALUES)))


def _parseval_defect(rows, scaling) -> float:
    """||sum_i y_i y_i^T - I|| with y_i = a_i P x_i + b_i (I - P) x_i, or y_i = c_i x_i, in plain numpy."""
    X = np.array(rows, dtype=float)
    if "c" in scaling:
        Y = np.array(scaling["c"], dtype=float)[:, None] * X
    else:
        P = np.array(scaling["projection"], dtype=float)
        a, b = (np.array(scaling[key], dtype=float) for key in ("a", "b"))
        Y = a[:, None] * (X @ P) + b[:, None] * (X - X @ P)
    return float(np.linalg.norm(Y.T @ Y - np.eye(X.shape[1]), "fro"))


@settings(max_examples=250)
@given(st.data())
def test_mutated_reports_exit_cleanly_and_never_pass_falsely(originals, data):
    report_path, report, frame_path, frame = data.draw(st.sampled_from(originals))
    docs = {"report": copy.deepcopy(report), "frame": copy.deepcopy(frame)}
    for _ in range(data.draw(st.integers(1, 3))):
        _mutate(docs[data.draw(st.sampled_from(sorted(docs)))], data)
    report_path.write_text(json.dumps(docs["report"]))
    frame_path.write_text(json.dumps(docs["frame"]))
    for argv in (["verify", str(report_path)], ["transport", str(report_path), "--to-canonical"]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        out, err = out.getvalue(), err.getvalue()
        assert code in (0, 1, 2), (argv, code, err)
        assert "Traceback" not in err and err.count("\n") <= 1, err
        if code == 2:
            # every input of these commands comes through the report
            assert f"{report_path}: " in err, err
        if code != 0:
            continue
        result = json.loads(out)
        if result["verdict"] == "pass":
            doc = docs["report"]
            rows = doc["frame"] if "frame" in doc else docs["frame"]["vectors"]
            assert doc.get("input") == str(frame_path) or "frame" in doc
            assert _parseval_defect(rows, doc["scaling"]) <= TOL, docs
        elif result["verdict"] == "transported":
            # the moved scaling passed on the moved frame: the same re-check there
            assert _parseval_defect(result["frame"], result["scaling"]) <= TOL, docs
