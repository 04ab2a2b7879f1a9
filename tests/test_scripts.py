"""Smoke runs of the experiment scripts with tiny arguments, and of the README's
library example, so they cannot rot unseen."""

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
