import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from fairedge.cli import main
from fairedge.fairopt import check_feasibility
from fairedge.scenario import bundle_from_dict, load_scenario, read_bundle


SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(args, cwd):
    # the child runs in a tmp directory, so a relative PYTHONPATH would not resolve
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "fairedge", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        env=env,
    )


def pipeline(workdir):
    """gen -> solve -> bounds with fixed seed; returns collected outputs."""
    outputs = {}
    r = run_cli(["gen", "--seed", "42", "--out", "out", "--ues", "2", "--ens", "2"], workdir)
    assert r.returncode == 0, r.stderr
    outputs["gen"] = r.stdout
    r = run_cli(["solve", "out/scenario.json", "--out", "out/bundle.json",
                 "--deterministic"], workdir)
    assert r.returncode == 0, r.stderr
    outputs["solve"] = r.stdout
    r = run_cli(["bounds", "out/scenario.json"], workdir)
    assert r.returncode == 0, r.stderr
    outputs["bounds"] = r.stdout
    outputs["scenario"] = (workdir / "out" / "scenario.json").read_bytes()
    outputs["bundle"] = (workdir / "out" / "bundle.json").read_bytes()
    outputs["traces"] = sorted(
        (p.name, p.read_bytes()) for p in (workdir / "out" / "traces").iterdir()
    )
    return outputs


class TestPipelineReproducibility:
    def test_gen_solve_bounds_is_byte_identical(self, tmp_path):
        first = tmp_path / "run1"
        second = tmp_path / "run2"
        first.mkdir()
        second.mkdir()
        a = pipeline(first)
        b = pipeline(second)
        assert a == b

    def test_bundle_from_pipeline_validates(self, tmp_path):
        workdir = tmp_path / "run"
        workdir.mkdir()
        pipeline(workdir)
        bundle = read_bundle(workdir / "out" / "bundle.json")
        scenario = load_scenario(workdir / "out" / "scenario.json")
        assert check_feasibility(bundle.plan, scenario) == []
        assert bundle.created_at is None  # deterministic mode drops timestamps


class TestCommands:
    def test_solve_writes_parseable_stdout(self, tmp_path, capsys):
        assert main(["gen", "--seed", "3", "--out", str(tmp_path), "--ues", "1", "--ens", "1"]) == 0
        capsys.readouterr()
        assert main(["solve", str(tmp_path / "scenario.json"), "--deterministic"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] == 2
        bundle = bundle_from_dict(payload)
        scenario = load_scenario(tmp_path / "scenario.json")
        assert check_feasibility(bundle.plan, scenario) == []

    def test_solve_without_deterministic_stamps_time(self, tmp_path, capsys):
        assert main(["gen", "--seed", "3", "--out", str(tmp_path), "--ues", "1",
                     "--ens", "1"]) == 0
        capsys.readouterr()
        assert main(["solve", str(tmp_path / "scenario.json")]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "created_at" in payload

    def test_infeasible_scenario_exits_one_with_cause(self, tmp_path, capsys):
        assert main(["gen", "--seed", "5", "--out", str(tmp_path), "--ues", "1", "--ens", "1"]) == 0
        capsys.readouterr()
        doc = json.loads((tmp_path / "scenario.json").read_text())
        doc["ues"][0]["feature_size_bits"] = 1e13
        doc["ues"][0]["deadline_s"] = 0.001
        bad = tmp_path / "impossible.json"
        bad.write_text(json.dumps(doc))
        code = main(["solve", str(bad)])
        captured = capsys.readouterr()
        assert code == 1
        assert "infeasible" in captured.err
        assert json.loads(captured.out)["error"]["kind"] == "infeasible"

    @pytest.mark.parametrize("cap", ["bandwidth_cap_hz", "power_cap_w"])
    @pytest.mark.parametrize("command", ["solve", "bounds"])
    def test_zero_cap_exits_one_as_infeasible(self, tmp_path, capsys, cap, command):
        assert main(["gen", "--seed", "42", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        doc = json.loads((tmp_path / "scenario.json").read_text())
        doc[cap] = 0
        zero = tmp_path / "zero_cap.json"
        zero.write_text(json.dumps(doc))
        assert main([command, str(zero)]) == 1
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["kind"] == "infeasible"
        assert f"zero {cap.split('_')[0]} cap" in error["message"]
        assert error["blocking_users"] == [0, 1, 2]

    def test_parse_error_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "broken.json"
        bad.write_text("{")
        assert main(["solve", str(bad)]) == 2

    @pytest.mark.parametrize(
        "args",
        [
            ["solve", "{tmp}/nope.json"],
            ["solve", "{tmp}"],
            ["solve", "{tmp}/out/scenario.json", "--out", "{tmp}"],
            ["sweep", "{tmp}/out/traces/ue_00.csv", "--out", "{tmp}"],
            ["gen", "--out", "{tmp}/out/scenario.json"],
        ],
    )
    def test_missing_file_exits_two(self, tmp_path, capsys, args):
        assert main(["gen", "--seed", "3", "--out", str(tmp_path / "out")]) == 0
        capsys.readouterr()
        assert main([arg.format(tmp=tmp_path) for arg in args]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_bounds_reports_gap_fields(self, tmp_path, capsys):
        assert main(["gen", "--seed", "8", "--out", str(tmp_path), "--ues", "2", "--ens", "2"]) == 0
        capsys.readouterr()
        assert main(["bounds", str(tmp_path / "scenario.json")]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"command", "objective", "upper_bound", "certified_gap_pct"}
        assert payload["objective"] <= payload["upper_bound"] + 1e-9
        assert payload["certified_gap_pct"] >= 0.0

    def test_bounds_certifies_the_gap_without_warnings(self, tmp_path, capsys):
        # seed 42 has a level-2 user and no level-2 node
        assert main(["gen", "--seed", "42", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["bounds", str(tmp_path / "scenario.json")]) == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["certified_gap_pct"] == pytest.approx(1.2094, abs=1e-4)
        assert "certified gap 1.209%" in captured.err

    def test_verify_monotonicity_suite_passes(self, capsys):
        assert main(["verify", "--suite", "monotonicity", "--seed", "7"]) == 0
        captured = capsys.readouterr()
        assert "PASS monotonicity" in captured.err
        payload = json.loads(captured.out)
        assert payload["failures"] == 0

    def test_verify_all_suites_pass(self, capsys):
        assert main(["verify", "--seed", "11"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload["suites"]) == {"monotonicity", "thresholds", "dp", "plan", "sandwich"}
        assert payload["failures"] == 0

    @pytest.mark.parametrize("suite", ["plan", "sandwich"])
    def test_verify_scenario_suite_passes(self, tmp_path, capsys, suite):
        assert main(["gen", "--seed", "4", "--out", str(tmp_path), "--ues", "2", "--ens", "1",
                     "--security-levels", "1"]) == 0
        capsys.readouterr()
        assert main(["verify", str(tmp_path / "scenario.json"), "--suite", suite]) == 0
        captured = capsys.readouterr()
        assert f"PASS {suite}: 1 scenarios" in captured.err
        payload = json.loads(captured.out)
        assert list(payload["suites"]) == [suite]
        assert payload["failures"] == 0

    def test_verify_plan_fails_on_a_scenario_the_oracle_cannot_enumerate(self, tmp_path, capsys):
        assert main(["gen", "--seed", "1", "--out", str(tmp_path), "--ues", "8", "--ens", "3"]) == 0
        capsys.readouterr()
        assert main(["verify", str(tmp_path / "scenario.json"), "--suite", "plan"]) == 1
        captured = capsys.readouterr()
        detail = "not checked: 6561 assignments exceed the oracle budget"
        assert f"FAIL plan: {detail}" in captured.err
        payload = json.loads(captured.out)
        assert payload["suites"] == {"plan": {"passed": False, "detail": detail}}
        assert payload["failures"] == 1

    def test_sweep_writes_csv(self, tmp_path, capsys):
        assert main(["gen", "--seed", "2", "--out", str(tmp_path), "--ues", "1", "--ens", "1"]) == 0
        capsys.readouterr()
        trace = tmp_path / "traces" / "ue_00.csv"
        out_csv = tmp_path / "sweep.csv"
        assert main(["sweep", str(trace), "--resolution", "9", "--out", str(out_csv)]) == 0
        payload = json.loads(capsys.readouterr().out)
        lines = out_csv.read_text().strip().split("\n")
        assert lines[0] == "alpha_l,alpha_u,car,fpr,fnr,ofr,utility"
        assert payload["rows"] == len(lines) - 1 == 9 * 10 // 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve"],  # missing positional
            # only solve stamps a time, so only solve takes --deterministic
            ["gen", "--out", "{tmp}", "--deterministic"],
            ["bounds", "{tmp}/scenario.json", "--deterministic"],
            ["gen", "--seed", "-1", "--out", "{tmp}"],
            ["verify", "--seed", "-1", "--suite", "dp"],
        ],
    )
    def test_usage_error_exits_two(self, tmp_path, argv):
        with pytest.raises(SystemExit) as err:
            main([arg.format(tmp=tmp_path) for arg in argv])
        assert err.value.code == 2

    @pytest.mark.parametrize("value", ["0", "-3", "two"])
    def test_sweep_rejects_non_positive_resolution(self, tmp_path, capsys, value):
        assert main(["gen", "--seed", "2", "--out", str(tmp_path), "--ues", "1", "--ens", "1"]) == 0
        capsys.readouterr()
        out_csv = tmp_path / "sweep.csv"
        argv = ["sweep", str(tmp_path / "traces" / "ue_00.csv"), "--resolution", value]
        with pytest.raises(SystemExit) as err:
            main(argv + ["--out", str(out_csv)])
        assert err.value.code == 2
        assert "argument --resolution: expected a positive integer" in capsys.readouterr().err
        assert not out_csv.exists()

    @pytest.mark.parametrize("flag", ["--ues", "--ens", "--security-levels"])
    @pytest.mark.parametrize("value", ["0", "-1", "two"])
    def test_gen_rejects_non_positive_counts_as_usage_errors(self, tmp_path, capsys, flag, value):
        with pytest.raises(SystemExit) as err:
            main(["gen", "--out", str(tmp_path), flag, value])
        assert err.value.code == 2
        assert f"argument {flag}: expected a positive integer" in capsys.readouterr().err
        assert not (tmp_path / "scenario.json").exists()
