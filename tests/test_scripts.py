"""Smoke runs of the experiment scripts with tiny arguments, and of the README's
library example, so they cannot rot unseen."""

import json
import re
import runpy
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"


def _run(name: str):
    # run_path under a name other than __main__ skips the argument parser
    return runpy.run_path(str(SCRIPTS / name))["run"]


def test_obstruction_sweep_smoke(capsys):
    _run("obstruction_sweep.py")(seed=0, frames_per_radius=1, budget=20)
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["radius", "epsilon", "certified", "search", "found"]
    assert len(lines) == 1 + 7  # one frame per radius


def test_split_route_sweep_smoke(capsys):
    _run("split_route_sweep.py")(seed=0, frames=1, dims=[4])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["n", "m", "frames", "hits", "ms/frame"]
    assert [line.split()[:3] for line in lines[1:]] == [["4", str(m), "1"] for m in (5, 7, 8, 12)]


def test_r3_scaling_stats_smoke(capsys):
    _run("r3_scaling_stats.py")(runs=20, seed=0)
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].endswith("frames (seed 0)")
    assert [line.split(":")[0].strip() for line in lines[1:]] == [
        "pair overlap",
        "mixing weight",
        "largest constant",
        "direct residual",
    ]


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md (Library example)", "exec"), {})


def _layer_bench(layer: str, tmp_path: Path) -> dict:
    out = tmp_path / f"BENCH_{layer}.json"
    report = _run("layer_bench.py")(layer, str(ROOT / "src"), rounds=1, out=out, smoke=True)
    assert json.loads(out.read_text()) == report
    assert report["script"] == f"scripts/layer_bench.py {layer}"
    for label in ("current", "baseline"):
        assert list(report["results"][label]) == list(report["shapes"])
        assert all(0.0 < row["q1"] <= row["median"] <= row["q3"] for row in report["results"][label].values())
    assert set(report["current_over_baseline"]) == set(report["shapes"])
    assert list(report["round_ratio_quartiles"]) == list(report["shapes"])
    assert all(0.0 < row["q1"] <= row["median"] <= row["q3"] for row in report["round_ratio_quartiles"].values())
    return report


LARGE_SHAPES = [f"{kind} n={n}" for n in (12, 16, 20) for kind in ("scalable", "random", "cone")] + [
    f"tall n={n}" for n in (4, 8, 16)
]


def test_nnls_layer_bench_smoke(tmp_path):
    report = _layer_bench("nnls", tmp_path)
    assert list(report["shapes"]) == LARGE_SHAPES + [f"search d={d}" for d in range(2, 6)]
    assert set(report["shapes"].values()) == {1, 2}


def test_scale_layer_bench_smoke(tmp_path):
    report = _layer_bench("scale", tmp_path)
    assert list(report["shapes"]) == LARGE_SHAPES + [f"tall cone n={n}" for n in (4, 8, 16)]
    assert set(report["shapes"].values()) == {1}


def test_obstruction_layer_bench_smoke(tmp_path):
    report = _layer_bench("obstruction", tmp_path)
    assert list(report["shapes"]) == LARGE_SHAPES + ["antipodal n=8", "tall unit n=2 m=1500", "tall unit n=3 m=1500"]


def test_screen_layer_bench_smoke(tmp_path):
    report = _layer_bench("screen", tmp_path)
    assert list(report["shapes"]) == ["search-miss", "sweep hit", "sweep miss", "clustered n=5 m=300"]
    assert report["shapes"]["search-miss"] == 4
    assert report["budget"] == 200


def test_cli_layer_bench_smoke(tmp_path, monkeypatch):
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    report = _layer_bench("cli", tmp_path)
    assert report["shapes"] == dict.fromkeys(
        ["analyze", "scale", "piecewise", "verify", "transport", "obstruct", "canonical-parseval"], 1
    )
    assert report["pythondontwritebytecode"] is True


def test_layer_bench_command_line(tmp_path):
    out = tmp_path / "obstruction.json"
    runpy.run_path(str(SCRIPTS / "layer_bench.py"))["main"](["obstruction", "--rounds", "1", "--out", str(out)])
    report = json.loads(out.read_text())
    assert report["script"] == "scripts/layer_bench.py obstruction"
    assert report["rounds"] == 1 and list(report["results"]) == ["current"]
    assert report["shapes"] == {
        **{key: 4 for key in LARGE_SHAPES},
        "antipodal n=8": 1,
        "tall unit n=2 m=1500": 4,
        "tall unit n=3 m=1500": 4,
    }
    assert "current_over_baseline" not in report
