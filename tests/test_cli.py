import functools
import hashlib
import json
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import framescale as fs
from framescale.cli import main
from framescale.fileio import load_report
from helpers import clustered_unit_frame, ill_conditioned_frame, r3_fixture, tilted_pair_frame


@pytest.fixture()
def workdir(tmp_path):
    fs.save_frame(tilted_pair_frame(0.1), tmp_path / "pair.csv")
    fs.save_frame(r3_fixture(), tmp_path / "triple.csv")
    fs.save_frame(fs.Frame(np.eye(2)), tmp_path / "onb2.csv")
    (tmp_path / "proj.csv").write_text("1,0\n0,0\n")
    return tmp_path


def run_cli(args, capsys):
    code = main([str(a) for a in args])
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out else None
    return code, report, captured.err


def test_analyze(workdir, capsys):
    code, report, _ = run_cli(["analyze", workdir / "onb2.csv"], capsys)
    assert code == 0
    assert report["verdict"] == "spanning"
    assert report["bounds"]["lower"] == 1.0 and report["bounds"]["upper"] == 1.0
    assert report["version"] == fs.__version__


def test_scale_feasible_and_infeasible(workdir, capsys):
    code, report, _ = run_cli(["scale", workdir / "onb2.csv"], capsys)
    assert code == 0 and report["verdict"] == "feasible"
    assert report["scaling"]["c"] == [1, 1]

    quad = workdir / "quad.csv"
    quad.write_text("0.7071067811865476,0.7071067811865476\n0.8944271909999159,0.4472135954999579\n0.4472135954999579,0.8944271909999159\n")
    code, report, _ = run_cli(["scale", quad], capsys)
    assert code == 0
    assert report["verdict"] == "infeasible" and report["certificate"] == "open-quadrant"


def test_scale_undecided_when_nnls_hits_its_cap(workdir, monkeypatch, capsys):
    # the CLI keeps the default cap; a cap of one step forces the case on
    # two orthonormal bases of R^2, which scale, so the half-plane screen
    # keeps them and NNLS decides them
    bases = workdir / "bases.csv"
    r = np.sqrt(0.5)
    fs.save_frame(fs.Frame(np.vstack([np.eye(2), [[r, r], [r, -r]]])), bases)
    capped = functools.partial(fs.solve_standard_scaling, max_iter=1)
    monkeypatch.setattr("framescale.scaling.solve_standard_scaling", capped)
    code, report, _ = run_cli(["scale", bases], capsys)
    assert code == 0
    assert report["verdict"] == "undecided"
    assert report["nnls"] == {"converged": False, "iterations": 1}
    assert "certificate" not in report and "scaling" not in report
    assert list(report["residuals"]) == ["frobenius_defect"]


def test_scale_report_names_the_screens_bound(workdir, capsys):
    # the r3 fixture is three independent, non-orthogonal vectors in R^3:
    # the screen rejects it without NNLS, so the report holds a lower bound
    code, report, _ = run_cli(["scale", workdir / "triple.csv"], capsys)
    assert code == 0
    assert report["verdict"] == "infeasible" and report["certificate"] == "residual-infeasible"
    verdict = fs.solve_standard_scaling(fs.load_frame(workdir / "triple.csv").vectors)
    assert verdict.iterations == 0
    assert report["residuals"] == {"distance_lower_bound": verdict.residual}
    # ten vectors in R^3 exceed n^2, so NNLS decides them and the report
    # holds the defect its weights reached
    cone = workdir / "cone.csv"
    fs.save_frame(fs.Frame([[2.0, 0.0, 0.0], [1.0, 0.1, 0.0], [1.0, 0.0, 0.1]] * 3 + [[1.0, 0.1, 0.1]]), cone)
    code, report, _ = run_cli(["scale", cone], capsys)
    assert report["verdict"] == "infeasible" and report["certificate"] == "residual-infeasible"
    assert list(report["residuals"]) == ["frobenius_defect"] and report["residuals"]["frobenius_defect"] > 1e-2


def test_piecewise_split_and_verify_round_trip(workdir, capsys):
    out = workdir / "split.json"
    code, _, _ = run_cli(
        [
            "piecewise",
            workdir / "pair.csv",
            "--construct",
            "split",
            "--projection",
            workdir / "proj.csv",
            "--p-indices",
            "0",
            "--q-indices",
            "1",
            "--out",
            out,
        ],
        capsys,
    )
    assert code == 0
    report = load_report(out)
    assert report["verdict"] == "found"
    assert abs(report["scaling"]["a"][0] - 10.0) <= 1e-12
    assert abs(report["scaling"]["b"][1] - np.sqrt(2.0)) <= 1e-15

    code, verify_report, _ = run_cli(["verify", out], capsys)
    assert code == 0
    assert verify_report["verdict"] == "pass"
    assert verify_report["residuals"]["max_drift_from_recorded"] <= 1e-12
    # the report names the frame it checked: the input file, or the --frame override
    rows_digest = hashlib.sha256(fs.load_frame(workdir / "pair.csv").vectors.tobytes()).hexdigest()
    assert verify_report["checked_frame"] == {"source": str(workdir / "pair.csv"), "sha256": rows_digest}
    fs.save_frame(tilted_pair_frame(0.1), workdir / "pair-copy.csv")
    code, verify_report, _ = run_cli(["verify", out, "--frame", workdir / "pair-copy.csv"], capsys)
    assert code == 0 and verify_report["verdict"] == "pass"
    assert verify_report["checked_frame"] == {"source": str(workdir / "pair-copy.csv"), "sha256": rows_digest}


def test_verify_standard_scale_report(workdir, capsys):
    out = workdir / "scale.json"
    code, _, _ = run_cli(["scale", workdir / "onb2.csv", "--out", out], capsys)
    assert code == 0
    code, report, _ = run_cli(["verify", out], capsys)
    assert code == 0 and report["verdict"] == "pass"
    assert report["residuals"]["max_drift_from_recorded"] == 0


def test_piecewise_r3_and_search(workdir, capsys):
    code, report, _ = run_cli(
        ["piecewise", workdir / "triple.csv", "--construct", "r3", "--seed", "0"], capsys
    )
    assert code == 0 and report["verdict"] == "found"
    assert report["residuals"]["direct"] <= 1e-10

    code, report, _ = run_cli(["piecewise", workdir / "triple.csv", "--rank", "1,2"], capsys)
    assert code == 0 and report["verdict"] == "found"


def test_piecewise_search_miss_is_exit_zero(workdir, capsys):
    rng = np.random.default_rng(0)
    center = rng.standard_normal(4)
    center /= np.linalg.norm(center)
    X = center + 0.02 * rng.standard_normal((6, 4))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    fs.save_frame(fs.Frame(X), workdir / "clustered.csv")
    code, report, _ = run_cli(
        ["piecewise", workdir / "clustered.csv", "--rank", "2", "--budget", "50"], capsys
    )
    assert code == 0
    assert report["verdict"] == "not-found"
    assert "not a proof" in report["note"]


def test_obstruct(workdir, capsys):
    rng = np.random.default_rng(1)
    center = rng.standard_normal(4)
    center /= np.linalg.norm(center)
    X = center + 0.02 * rng.standard_normal((6, 4))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    fs.save_frame(fs.Frame(X), workdir / "clustered.csv")
    code, report, _ = run_cli(["obstruct", workdir / "clustered.csv"], capsys)
    assert code == 0
    assert report["verdict"] == "cor-4.4" and report["certificate"] == "cor-4.4"
    assert report["applicable_ranks"] == [2]
    assert report["epsilon"] < 0.125


def test_transport_unitary_and_canonical(workdir, capsys):
    out = workdir / "r3.json"
    code, _, _ = run_cli(
        ["piecewise", workdir / "triple.csv", "--construct", "r3", "--out", out], capsys
    )
    assert code == 0

    rot = np.linalg.qr(np.random.default_rng(2).standard_normal((3, 3)))[0]
    upath = workdir / "rot.csv"
    upath.write_text("\n".join(",".join(f"{x:.17g}" for x in row) for row in rot) + "\n")
    moved = workdir / "moved.json"
    code, report, _ = run_cli(["transport", out, "--unitary", upath, "--out", moved], capsys)
    assert code == 0
    assert report is None
    report = load_report(moved)
    assert report["verdict"] == "transported"
    assert report["residuals"]["direct"] <= 1e-10
    assert "frame" in report

    code, verify_report, _ = run_cli(["verify", moved], capsys)
    assert code == 0 and verify_report["verdict"] == "pass"

    code, canon, _ = run_cli(["transport", moved, "--to-canonical"], capsys)
    assert code == 0
    proj = np.array(canon["scaling"]["projection"])
    assert np.array_equal(proj, np.diag([1.0, 0.0, 0.0]))

    # a scaling that does not verify moves to one that does not either, and
    # the transport verdict says so, as verify does on the same report
    spoiled = load_report(out)
    spoiled["scaling"]["a"] = [5 * a for a in spoiled["scaling"]["a"]]
    out.write_text(json.dumps(spoiled))
    code, report, _ = run_cli(["transport", out, "--unitary", upath], capsys)
    assert code == 0 and report["verdict"] == "transported-but-failed"
    assert report["residuals"]["direct"] > 1.0
    code, verify_report, _ = run_cli(["verify", out], capsys)
    assert code == 0 and verify_report["verdict"] == "fail"


def test_canonical_parseval_command(workdir, capsys):
    out_frame = workdir / "tight.csv"
    code, report, _ = run_cli(
        ["canonical-parseval", workdir / "pair.csv", "--out-frame", out_frame], capsys
    )
    assert code == 0
    assert report["verdict"] == "converted"
    assert report["residuals"]["parseval_defect"] <= 1e-12
    tightened = fs.load_frame(out_frame)
    assert fs.verify_parseval(tightened.vectors).passed

    # singular values 1, 1e-2, 2e-5: the polar factor keeps the defect at rounding level
    fs.save_frame(ill_conditioned_frame(), workdir / "ill.csv")
    code, report, _ = run_cli(["canonical-parseval", workdir / "ill.csv"], capsys)
    assert code == 0 and report["residuals"]["parseval_defect"] <= 1e-12


def test_exit_codes(workdir, capsys):
    bad = workdir / "ragged.csv"
    bad.write_text("1,0\n0,1,0\n")
    code, _, err = run_cli(["analyze", bad], capsys)
    assert code == 2 and "line 2" in err

    code, _, err = run_cli(
        ["piecewise", workdir / "pair.csv", "--construct", "r4special"], capsys
    )
    assert code == 1 and "--indices" in err

    notproj = workdir / "notproj.csv"
    notproj.write_text("1,0.4\n0.4,0.2\n")
    code, _, err = run_cli(
        [
            "piecewise",
            workdir / "pair.csv",
            "--construct",
            "split",
            "--projection",
            notproj,
            "--p-indices",
            "0",
            "--q-indices",
            "1",
        ],
        capsys,
    )
    assert code == 2 and "projection" in err

    code, _, _ = run_cli(["analyze", workdir / "does-not-exist.csv"], capsys)
    assert code == 2

    # usage errors come before any file is read
    missing = workdir / "does-not-exist.json"
    for args in (
        ["analyze", missing],
        ["scale", missing],
        ["piecewise", missing],
        ["verify", missing],
        ["obstruct", missing],
        ["transport", missing, "--to-canonical"],
        ["canonical-parseval", missing],
    ):
        code, report, err = run_cli([*args, "--tol", "nan"], capsys)
        assert code == 1 and report is None and "--tol must be finite and positive" in err, args
    # argparse's own usage errors exit 1 as well
    for args, message in (
        (["analyze", missing, "--no-such-flag"], "unrecognized arguments"),
        (["piecewise", missing, "--budget", "x"], "--budget"),
        (["piecewise", missing, "--construct", "r4special", "--indices", "a,b"], "comma-separated integers"),
        (["transport", missing], "--unitary"),
    ):
        code, report, err = run_cli(args, capsys)
        assert code == 1 and report is None and message in err, args

    # a spanning pair with no row outside tol of P = diag(1, 0): the r2
    # constructor calls it degenerate input, and the search goes on to later routes
    flat = workdir / "flat.csv"
    fs.save_frame(fs.Frame([[1.0, 0.0], [1.0, 1e-9]]), flat)
    code, _, _ = run_cli(["piecewise", flat], capsys)
    assert code == 0
    code, _, err = run_cli(["piecewise", flat, "--construct", "r2"], capsys)
    assert code == 2 and "numerically degenerate" in err


def test_search_flags_out_of_range_are_usage_errors(workdir, capsys):
    # the triple spans R^3, so a search may ask for ranks 1 and 2
    for flags, message in (
        (["--budget", "0"], "--budget"),
        (["--seed", "-1"], "--seed"),
        (["--rank", "0"], "--rank"),
        (["--rank", "1,3"], "--rank"),
        (["--rank", ","], "--rank"),
    ):
        code, report, err = run_cli(["piecewise", workdir / "triple.csv", *flags], capsys)
        assert code == 1 and report is None and message in err
    # only --rank's upper bound needs the frame: the other flags are usage
    # errors before a missing frame is read
    for flags, message in (
        (["--budget", "0"], "--budget"),
        (["--seed", "-1"], "--seed"),
        (["--rank", "0"], "--rank"),
        (["--rank", ","], "--rank"),
        (["--construct", "r4special"], "--indices"),
        (["--construct", "r4special", "--indices", "0,1,2"], "--indices"),
        (["--construct", "split", "--p-indices", "0", "--q-indices", "1"], "--projection"),
    ):
        code, report, err = run_cli(["piecewise", workdir / "does-not-exist.csv", *flags], capsys)
        assert code == 1 and report is None and message in err, flags
    code, report, _ = run_cli(["piecewise", workdir / "triple.csv", "--rank", "2", "--budget", "1"], capsys)
    assert code == 0 and report["verdict"] in ("found", "not-found")


def test_malformed_reports_are_input_errors(workdir, capsys):
    out = workdir / "r3.json"
    code, _, _ = run_cli(["piecewise", workdir / "triple.csv", "--construct", "r3", "--out", out], capsys)
    assert code == 0
    recorded = load_report(out)
    broken = workdir / "broken.json"
    for key in ("projection", "a", "b"):
        report = json.loads(json.dumps(recorded))
        del report["scaling"][key]
        broken.write_text(json.dumps(report))
        for args in (["verify", broken], ["transport", broken, "--to-canonical"]):
            code, _, err = run_cli(args, capsys)
            assert code == 2 and f"'{key}'" in err
    report = json.loads(json.dumps(recorded))
    del report["input"]
    for input_entry in ({}, {"input": 5}):
        broken.write_text(json.dumps({**report, **input_entry}))
        for args in (["verify", broken], ["transport", broken, "--to-canonical"]):
            code, _, err = run_cli(args, capsys)
            assert code == 2 and "'frame'" in err and "'input'" in err
    # an 'input' entry that names no file, or a file that cannot be read
    for name, message in (
        ("", "report's 'input' entry names no file"),
        (str(workdir / "does-not-exist.csv"), "cannot read the 'input' file"),
        (str(workdir), "cannot read the 'input' file"),
    ):
        broken.write_text(json.dumps({**report, "input": name}))
        for args in (["verify", broken], ["transport", broken, "--to-canonical"]):
            code, _, err = run_cli(args, capsys)
            assert code == 2 and f"{broken}: {message}" in err, (name, err)
    # a matrix that is no projection is an input error at --tol or the
    # default, whatever tolerance the report names
    report = json.loads(json.dumps(recorded))
    report["tolerance"] = 1e3
    report["scaling"]["projection"] = [[0.7, 0.2, 0.0], [0.2, 0.1, 0.0], [0.0, 0.0, 0.3]]
    broken.write_text(json.dumps(report))
    for args in (["verify", broken], ["transport", broken, "--to-canonical"]):
        code, _, err = run_cli(args, capsys)
        assert code == 2 and f'{broken}: scaling "projection": matrix is not an orthogonal projection' in err
    # so are constants that do not fit each other or the frame, and a
    # projection of another dimension
    for edit, message in (
        ({"scaling": {**recorded["scaling"], "a": recorded["scaling"]["a"][:2]}}, 'scaling "a" has 2 constants but "b" has 3'),
        ({"frame": [[1.0, 0.0, 0.0]]}, 'scaling "a" and "b" have 3 constants but the frame has 1 vectors'),
        ({"frame": [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]}, 'scaling "projection" acts on R^3 but the frame lies in R^2'),
    ):
        broken.write_text(json.dumps({**recorded, **edit}))
        for args in (["verify", broken], ["transport", broken, "--to-canonical"]):
            code, report, err = run_cli(args, capsys)
            assert code == 2 and report is None and f"{broken}: {message}" in err, (edit, err)
    # a report's arrays follow the frame-file rules: booleans and strings are no numbers
    for frame, scaling, message in (
        ([[True, False], [False, True]], {"c": [1, 1]}, '"frame" entry 0, coordinate 0 is not a number'),
        ([["1", "0"], ["0", "1"]], {"c": ["1", "1"]}, '"frame" entry 0, coordinate 0 is not a number'),
        ([[1, 0], [0, 1]], {"c": ["1", "1"]}, 'scaling "c", coordinate 0 is not a number'),
        ([[1, 0], [0, 1]], {"c": [1, 10**400]}, 'scaling "c", coordinate 1 exceeds the range of doubles'),
        ([[1, 0], [0, 1]], {"c": [1, 1, 1]}, 'scaling "c" has 3 constants but the frame has 2 vectors'),
        ([[1, 0], [0, 1]], {"projection": [[1, 0], [0, False]], "a": [1, 0], "b": [0, 1]}, '"projection" entry 1, coordinate 1'),
        ([[1, 0], [0, 1]], {"projection": [[1, 0], [0, 0]], "a": "1", "b": [0, 1]}, 'scaling "a" is not an array'),
        ([[1, 0], [0, 1]], {"projection": [[1, 0], [0, 0]], "a": [1, 0], "b": [0, True]}, 'scaling "b", coordinate 1'),
    ):
        broken.write_text(json.dumps({"input": "unused.csv", "frame": frame, "scaling": scaling}))
        code, report, err = run_cli(["verify", broken], capsys)
        assert code == 2 and report is None and message in err, (frame, scaling, err)
    # so do the recorded tolerance and residuals: a residual is a number or
    # a non-finite value as reports write it, and the error names the key
    for entry, message in (
        ({"residuals": "direct"}, '"residuals" must be an object'),
        ({"residuals": {"direct": None}}, 'residual "direct"'),
        ({"residuals": {"direct": [1]}}, 'residual "direct"'),
        ({"residuals": {"direct": "x"}}, 'residual "direct"'),
        ({"residuals": {"direct": True}}, 'residual "direct"'),
        ({"tolerance": {"x": 1}}, '"tolerance"'),
    ):
        broken.write_text(json.dumps({**recorded, **entry}))
        code, report, err = run_cli(["verify", broken], capsys)
        assert code == 2 and report is None and f"{broken}: {message}" in err, (entry, err)
    # a report with no scaling, and a standard scaling given to transport,
    # are input errors too
    analyzed, scaled = workdir / "analyze.json", workdir / "scale.json"
    assert run_cli(["analyze", workdir / "triple.csv", "--out", analyzed], capsys)[0] == 0
    assert run_cli(["scale", workdir / "onb2.csv", "--out", scaled], capsys)[0] == 0
    for args, message in (
        (["verify", analyzed], "report carries no scaling to work with"),
        (["transport", analyzed, "--to-canonical"], "report carries no scaling to work with"),
        (["transport", scaled, "--to-canonical"], "transport applies to piecewise scalings only"),
    ):
        code, report, err = run_cli(args, capsys)
        assert code == 2 and report is None and f"{args[1]}: {message}" in err, (args, err)


def test_tol_must_be_finite_and_positive(workdir, capsys):
    # e_1, e_2, e_1 + e_2 scales with residual 0; a NaN tolerance must not
    # turn that into a certified infeasible verdict
    frame = workdir / "three.csv"
    frame.write_text("1,0\n0,1\n1,1\n")
    recorded = workdir / "three.json"
    code, _, _ = run_cli(["scale", frame, "--out", recorded], capsys)
    assert code == 0 and load_report(recorded)["verdict"] == "feasible"
    for tol in ("nan", "inf", "-inf", "0", "-1e-8"):
        for args in (["scale", frame], ["piecewise", frame], ["verify", recorded]):
            code, report, err = run_cli([*args, f"--tol={tol}"], capsys)
            assert code == 1 and report is None and "--tol must be finite and positive" in err
    # nor may a tolerance a report names: verify judges at --tol or the
    # default; this frame has no standard scaling (scale bounds its
    # distance below by 0.94), and both forged scalings leave a residual of 2.9
    rows = [[1.0, 0.0, 0.0], [0.9, 0.1, 0.0], [0.9, 0.0, 0.1], [0.95, 0.05, 0.05]]
    forged = workdir / "forged.json"
    for scaling in ({"projection": np.diag([1.0, 0.0, 0.0]).tolist(), "a": [1] * 4, "b": [1] * 4}, {"c": [1] * 4}):
        forged.write_text(json.dumps({"input": "unused.csv", "tolerance": 1e3, "frame": rows, "scaling": scaling}))
        code, report, _ = run_cli(["verify", forged], capsys)
        assert code == 0 and report["verdict"] == "fail"
        assert report["tolerance"] == fs.DEFAULT_TOL and report["recorded_tolerance"] == 1e3
        rows_digest = hashlib.sha256(np.array(rows).tobytes()).hexdigest()
        assert report["checked_frame"] == {"source": "report", "sha256": rows_digest}
    # a scaling that verifies fails the round trip against residuals
    # recorded as NaN: the drift from them is no number
    found = workdir / "found.json"
    code, _, _ = run_cli(["piecewise", frame, "--out", found], capsys)
    assert code == 0 and load_report(found)["verdict"] == "found"
    spoiled = load_report(found)
    spoiled["residuals"] = {key: "nan" for key in spoiled["residuals"]}
    found.write_text(json.dumps(spoiled))
    code, report, _ = run_cli(["verify", found], capsys)
    assert code == 0 and report["verdict"] == "fail"
    assert report["residuals"]["max_drift_from_recorded"] == "nan"


def test_report_determinism(workdir, capsys):
    from framescale.fileio import dumps_json

    def stripped(args):
        code, report, _ = run_cli(args, capsys)
        assert code == 0
        return re.sub(r'"timestamp": "[^"]*"', '"timestamp": null', dumps_json(report))

    args = ["piecewise", workdir / "triple.csv", "--construct", "r3", "--seed", "3"]
    assert stripped(args) == stripped(args)


def test_json_frame_input(workdir, capsys):
    jframe = workdir / "frame.json"
    jframe.write_text('{"dim": 2, "vectors": [[1, 0], [0, 1]], "labels": ["u", "v"]}')
    code, report, _ = run_cli(["analyze", jframe], capsys)
    assert code == 0 and report["verdict"] == "spanning"
    assert report["frame_operator"] == [[1, 0], [0, 1]]

    # --format names the frame file's format only: a CSV projection and a
    # CSV --out-frame follow their extension
    dat = workdir / "pair.dat"
    fs.save_frame(tilted_pair_frame(0.1), dat, "json")
    split = ["--construct", "split", "--projection", workdir / "proj.csv", "--p-indices", "0", "--q-indices", "1"]
    code, report, err = run_cli(["piecewise", dat, "--format", "json", *split], capsys)
    assert code == 0 and report["verdict"] == "found", err
    out_frame = workdir / "tight.csv"
    code, report, err = run_cli(["canonical-parseval", dat, "--format", "json", "--out-frame", out_frame], capsys)
    assert code == 0, err
    assert fs.load_frame(out_frame).vectors.tolist() == report["frame"]


def test_internal_inconsistency_exit_code(workdir, capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise fs.InternalInconsistencyError("simulated two-route disagreement")

    monkeypatch.setattr("framescale.piecewise.verify_piecewise", boom)
    code, _, err = run_cli(
        ["piecewise", workdir / "triple.csv", "--construct", "r3"], capsys
    )
    assert code == 3 and "internal inconsistency" in err


def test_clustered_r3_frame_exits_zero(workdir, capsys):
    # a clustered triple whose mixing vector has u^T u about 4.8e8: the
    # r3 constructor's norm-identity check is relative, so rounding alone
    # is no internal inconsistency
    path = workdir / "clustered.csv"
    fs.save_frame(clustered_unit_frame(np.random.default_rng(34), 3, 5, 5.6e-5), path)
    for extra in ([], ["--construct", "r3"]):
        code, report, err = run_cli(["piecewise", path, *extra], capsys)
        assert code == 0, err
        assert report["verdict"] == "found" and report["residuals"]["direct"] <= 5e-9


@pytest.mark.parametrize("rows", [1e-170 * np.eye(2), 1e200 * np.eye(3)], ids=["tiny", "huge"])
def test_frame_quantities_of_extreme_frames_exit_zero(workdir, capsys, rows):
    # squares of these entries leave the range of doubles; the frame
    # quantities and the cluster radius come from one power-of-two shift
    # of the whole frame and scaling questions from the unit rows, so no
    # command warns, and the verdicts match the unit basis
    path = workdir / "extreme.csv"
    fs.save_frame(fs.Frame(rows), path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, report, err = run_cli(["analyze", path], capsys)
        assert code == 0, err
        assert report["verdict"] == "spanning" and report["bounds"]["condition_number"] == 1
        code, report, err = run_cli(["canonical-parseval", path], capsys)
        assert code == 0, err
        assert report["frame"] == np.eye(len(rows)).tolist()
        code, report, err = run_cli(["scale", path], capsys)
        assert code == 0 and report["verdict"] == "feasible", err
        code, report, err = run_cli(["piecewise", path], capsys)
        assert code == 0 and report["verdict"] == "found", err
        code, report, err = run_cli(["obstruct", path], capsys)
        assert code == 0, err
        assert report["epsilon"] == pytest.approx(np.sqrt(2.0) * rows[0, 0], rel=1e-15, abs=0.0)


def test_subprocess_entry_point(workdir):
    result = subprocess.run(
        [sys.executable, "-m", "framescale", "analyze", str(workdir / "onb2.csv")],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    report = json.loads(result.stdout)
    assert report["command"] == "analyze"


def test_import_loads_no_numpy_random():
    # numpy.random takes 12-16 ms to import, which every CLI process would
    # pay; only a sampled search needs it, so it loads at the first draw
    probe = (
        "import sys, numpy; loaded = set(sys.modules); import framescale, framescale.cli; "
        "print(sorted(m for m in set(sys.modules) - loaded if m.startswith('numpy.random')))"
    )
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
