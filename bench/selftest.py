#!/usr/bin/env python3
"""Smoke self-test of the benchmark at its smallest size (a few minutes).

Run from the repository root:

    python3 bench/selftest.py

It checks that:
- every workload, with --seconds 1 and each --trace value, exits 0, passes its
  gate and prints exactly the metrics BENCHMARK.json names, each with its unit;
- in a traced run the per-layer self times add up to the traced solve time;
- a tampered golden value makes the gate fail and the command exit non-zero;
- in a directory holding only BENCHMARK.json and the benchmark's files, the
  command exits non-zero without printing a result.
"""

import contextlib
import copy
import io
import json
import shutil
import subprocess

import run
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(args: list[str], cwd=run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        SPEC["command"] + args, cwd=cwd, capture_output=True, text=True, timeout=600, check=False
    )


def check_result(result: dict, expected: list[dict], where: str) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["correct"] is True and result["failed"] == 0, where
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, where
    units = {m["name"]: m["unit"] for m in expected}
    assert set(result["metrics"]) == set(units), f"{where}: {sorted(result['metrics'])}"
    for name, unit in units.items():
        metric = result["metrics"][name]
        assert metric["unit"] == unit, f"{where}: {name} unit {metric['unit']} != {unit}"
        assert isinstance(metric["value"], (int, float)), f"{where}: {name}"


def test_every_metric_printed() -> None:
    for workload in SPEC["workloads"]:
        for trace, expected in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
            where = f"{workload['name']} --trace {trace}"
            proc = bench(["--workload", workload["name"], "--seed", "0",
                          "--seconds", "1", "--trace", str(trace)])
            assert proc.returncode == 0, f"{where}: exit {proc.returncode}\n{proc.stderr}"
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            check_result(result, expected, where)
            for metric in expected:
                assert any(line.split()[:1] == [metric["name"]] and metric["unit"] in line
                           for line in lines[:-1]), f"{where}: {metric['name']} not in the table"
            if trace:
                share = result["metrics"]["trace_self_sum_frac"]["value"]
                assert 0.97 <= share <= 1.0 + 1e-9, f"{where}: self times sum to {share}"
            print(f"ok {where}: {result['attempted']} passes")


def test_tampered_golden_fails() -> None:
    name = "exhaustive-assign"
    golden = copy.deepcopy(workloads.load_golden(workloads.WORKLOADS[name]))
    for record in golden:
        record["objective"] += 1e-6
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run.main(["--workload", name, "--seed", "0", "--seconds", "1"], golden=golden)
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    assert code != 0, "a tampered golden record must make the command fail"
    assert result["correct"] is False and result["failed"] >= 1, result
    print(f"ok tampered golden: exit {code}, {result['failed']}/{result['attempted']} failed")


def test_bare_directory_fails() -> None:
    bare = run.OUT_DIR / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH_DIR, bare / run.BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy2(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = bench(["--workload", SPEC["workloads"][0]["name"], "--seed", "0",
                      "--seconds", "1", "--trace", "0"], cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0, "the benchmark must fail without the sources"
    assert '"correct"' not in proc.stdout, proc.stdout
    print(f"ok bare directory: exit {proc.returncode}")


if __name__ == "__main__":
    test_bare_directory_fails()
    test_tampered_golden_fails()
    test_every_metric_printed()
    print("selftest passed")
