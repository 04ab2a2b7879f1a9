import json

import numpy as np
import pytest

import framescale as fs
from framescale.fileio import FrameFormatError, dumps_json, format_float, load_report, write_report


def test_csv_round_trip(tmp_path):
    path = tmp_path / "frame.csv"
    path.write_text("# comment line\n1,0\n0,1\n\n0.5,0.5\n")
    frame = fs.load_frame(path)
    assert frame.size == 3 and frame.dim == 2
    assert np.array_equal(frame.vectors[2], [0.5, 0.5])

    out = tmp_path / "copy.csv"
    fs.save_frame(frame, out)
    again = fs.load_frame(out)
    assert np.array_equal(frame.vectors, again.vectors)


def test_csv_diagnostics(tmp_path):
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("1,0\n0,1,0\n")
    with pytest.raises(FrameFormatError) as err:
        fs.load_frame(ragged)
    assert err.value.line == 2

    alpha = tmp_path / "alpha.csv"
    alpha.write_text("1,0\n0,abc\n")
    with pytest.raises(FrameFormatError) as err:
        fs.load_frame(alpha)
    assert err.value.line == 2 and err.value.column == 2

    empty = tmp_path / "empty.csv"
    empty.write_text("# only a comment\n")
    with pytest.raises(FrameFormatError):
        fs.load_frame(empty)

    nan = tmp_path / "nan.csv"
    nan.write_text("1,nan\n")
    with pytest.raises(FrameFormatError):
        fs.load_frame(nan)


def test_json_frame_round_trip(tmp_path):
    path = tmp_path / "frame.json"
    path.write_text('{"dim": 2, "vectors": [[1, 0], [0, 1]], "labels": ["u", "v"]}')
    frame = fs.load_frame(path)
    assert frame.labels == ("u", "v")

    out = tmp_path / "copy.json"
    fs.save_frame(frame, out)
    again = fs.load_frame(out)
    assert np.array_equal(frame.vectors, again.vectors) and again.labels == frame.labels


def test_json_frame_diagnostics(tmp_path):
    bad_dim = tmp_path / "bad.json"
    bad_dim.write_text('{"dim": 3, "vectors": [[1, 0]]}')
    with pytest.raises(FrameFormatError):
        fs.load_frame(bad_dim)

    ragged = tmp_path / "ragged.json"
    ragged.write_text('{"vectors": [[1, 0], [1, 0, 0]]}')
    with pytest.raises(FrameFormatError):
        fs.load_frame(ragged)

    broken = tmp_path / "broken.json"
    broken.write_text('{"vectors": [[1, 0],')
    with pytest.raises(FrameFormatError):
        fs.load_frame(broken)

    for i, (text, message) in enumerate(
        (
            ("[[1, 0], [0, 1]]", "top-level JSON value must be an object"),
            ('{"vectors": [[1, 0], [0, 1]], "labels": ["u"]}', '"labels" must list one label per vector'),
        )
    ):
        path = tmp_path / f"frame{i}.json"
        path.write_text(text)
        with pytest.raises(FrameFormatError) as err:
            fs.load_frame(path)
        assert str(err.value) == f"{path}: {message}"
    with pytest.raises(ValueError, match="unknown format 'xml'"):
        fs.load_frame(broken, "xml")


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"dim": "abc", "vectors": [[1, 0], [0, 1]]}', '"dim" must be an integer, got "abc"'),
        ('{"dim": 2.5, "vectors": [[1, 0], [0, 1]]}', '"dim" must be an integer, got 2.5'),
        ('{"dim": true, "vectors": [[1, 0], [0, 1]]}', '"dim" must be an integer, got true'),
        ('{"dim": "2", "vectors": [[1, 0], [0, 1]]}', '"dim" must be an integer, got "2"'),
    ],
)
def test_json_dim_must_be_an_integer(tmp_path, text, message):
    path = tmp_path / "dim.json"
    path.write_text(text)
    with pytest.raises(FrameFormatError) as err:
        fs.load_frame(path)
    assert str(err.value) == f"{path}: {message}"
    assert err.value.path == path


def test_json_matrix_diagnostics_name_the_matrix_key(tmp_path):
    cases = [
        ('{"matrix": [[1, 0], [0]]}', '"matrix" entry 1 has length 1, expected 2'),
        ('{"matrix": [[1, 0], 5]}', '"matrix" entry 1 is not an array'),
        ('{"matrix": [[1, "x"], [0, 1]]}', '"matrix" entry 0, coordinate 1 is not a number'),
        ('{"matrix": []}', '"matrix" must be a nonempty array of arrays'),
        ('{"rows": [[1, 0], [0, 1]]}', 'expected a "matrix" key'),
    ]
    for i, (text, message) in enumerate(cases):
        path = tmp_path / f"mat{i}.json"
        path.write_text(text)
        with pytest.raises(FrameFormatError) as err:
            fs.load_matrix(path)
        assert str(err.value) == f"{path}: {message}"


def test_load_matrix(tmp_path):
    path = tmp_path / "mat.csv"
    path.write_text("1,0\n0,1\n")
    assert np.array_equal(fs.load_matrix(path), np.eye(2))

    jpath = tmp_path / "mat.json"
    jpath.write_text('{"matrix": [[0, 1], [1, 0]]}')
    assert np.array_equal(fs.load_matrix(jpath), [[0, 1], [1, 0]])

    rect = tmp_path / "rect.csv"
    rect.write_text("1,0,0\n0,1,0\n")
    with pytest.raises(FrameFormatError):
        fs.load_matrix(rect)


def test_float_format_is_bit_faithful():
    rng = np.random.default_rng(16)
    values = list(rng.standard_normal(200)) + [0.1, 1 / 3, 2**-52, 1e300, -1e-300, 10.0]
    for v in values:
        assert float(format_float(float(v))) == float(v)
    assert format_float(float("inf")) == '"inf"'
    assert format_float(float("nan")) == '"nan"'


def test_dumps_json_parses_back(tmp_path):
    report = {
        "command": "analyze",
        "values": [1.5, 2, True, None, "text"],
        "nested": {"matrix": np.eye(2)},
    }
    text = dumps_json(report)
    parsed = json.loads(text)
    assert parsed["values"] == [1.5, 2, True, None, "text"]
    assert parsed["nested"]["matrix"] == [[1, 0], [0, 1]]
    with pytest.raises(TypeError, match="cannot serialize set"):
        dumps_json({"values": {1.5}})

    out = tmp_path / "report.json"
    write_report(report, out)
    assert load_report(out)["command"] == "analyze"

    # an array encodes to the bytes of its copy as lists of floats
    rng = np.random.default_rng(0)
    A = np.ldexp(rng.standard_normal((3, 4)), rng.integers(-1074, 1020, (3, 4)))
    A[0, :2] = -0.0, 5e-324
    for arr in (A, A[1], A.T):
        copy = [list(map(float, row)) for row in arr] if arr.ndim == 2 else list(map(float, arr))
        assert dumps_json({"a": arr}) == dumps_json({"a": copy})
