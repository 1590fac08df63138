"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; criteria 5 and 6 feed the solves whose fixed point criterion 7
checks, so this module relies on pytest's default in-file execution order.
"""

import itertools
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from fairedge import oracle
from fairedge.exitpolicy import (
    SoftParams,
    ThresholdPair,
    UtilityCurve,
    evaluate,
    optimal_thresholds,
    soft_utility,
)
from fairedge.fairopt import (
    InfeasibleScenarioError,
    SolveOptions,
    allocate_compute_dp,
    assignment_search,
    check_feasibility,
    solve_alternating,
    weighted_log_objective,
    _SolveState,
)
from fairedge.link import ChannelState, LinkAllocation, OffloadDemand, offload_time, secrecy_rate, uplink_rate
from fairedge.scenario import load_scenario, read_bundle, random_scenario
from fairedge.trace import GeneratorParams, generate_stream

# (label, scenario, mode, plan, report) of the solves in criteria 5 and 6,
# checked by criterion 7
_SOLVES: list[tuple] = []


def _line(passed: bool, number: int, detail: str) -> bool:
    print(f"{'PASS' if passed else 'FAIL'} criterion {number}: {detail}")
    return passed


def _stream(seed, layers, count, prior=0.4, drift=0.8, noise=0.45):
    params = GeneratorParams(
        layer_count=layers,
        critical_prior=prior,
        critical_drift=drift,
        normal_drift=-drift,
        noise_std=noise,
        seed=seed,
    )
    return generate_stream(params, count)


def test_c01_threshold_monotonicity_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    counterexamples = 0
    streams = 0
    for i in range(200):
        layers = (3, 4, 6)[i % 3]
        count = int(rng.integers(100, 501))
        stream = _stream(
            seed=int(rng.integers(0, 2**31)),
            layers=layers,
            count=count,
            prior=float(rng.uniform(0.2, 0.6)),
            drift=float(rng.uniform(0.4, 1.0)),
            noise=float(rng.uniform(0.2, 0.7)),
        )
        report = oracle.check_monotonicity(stream, samples=50, seed=int(rng.integers(0, 2**31)))
        counterexamples += len(report.failures)
        streams += 1
    elapsed = time.perf_counter() - start
    ok = counterexamples == 0 and streams == 200 and elapsed < 30.0
    assert _line(ok, 1, f"{streams} streams x 50 perturbations, "
                        f"{counterexamples} counterexamples, {elapsed:.1f}s (< 30s)")


def test_c02_exact_threshold_selection():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    mismatches = []
    grid_beats = []
    for i in range(50):
        count = int(rng.integers(30, 61))
        stream = _stream(seed=int(rng.integers(0, 2**31)), layers=4, count=count)
        budget = int(rng.integers(0, count + 1))
        _, exact = optimal_thresholds(stream, budget)
        _, brute = oracle.brute_force_thresholds(stream, budget, grid_resolution=101)
        if exact != brute:
            mismatches.append(i)
        if oracle.grid_best_utility(stream, budget, 101) > exact:
            grid_beats.append(i)
    elapsed = time.perf_counter() - start
    ok = not mismatches and not grid_beats and elapsed < 60.0
    assert _line(ok, 2, f"50 streams, {len(mismatches)} oracle mismatches, "
                        f"{len(grid_beats)} grid wins, {elapsed:.1f}s (< 60s)")


def _margin_thresholds(stream):
    """Threshold pair at the widest score gaps, with the achieved margin."""
    scores = np.unique(stream.scores)

    def widest(lo_w, hi_w):
        vals = np.concatenate(([lo_w], scores[(scores > lo_w) & (scores < hi_w)], [hi_w]))
        gaps = np.diff(vals)
        k = int(np.argmax(gaps))
        return float(vals[k] + vals[k + 1]) / 2, float(gaps[k]) / 2

    lower, m_lo = widest(0.05, 0.45)
    upper, m_up = widest(0.55, 0.95)
    return ThresholdPair(lower, upper), min(m_lo, m_up)


def test_c03_soft_surrogate_tracks_exact_utility():
    instances = 0
    worst = 0.0
    seed = 0
    while instances < 50 and seed < 500:
        stream = _stream(seed=seed, layers=3, count=25)
        seed += 1
        thr, margin = _margin_thresholds(stream)
        if margin < 0.02:
            continue
        instances += 1
        _, report = evaluate(stream, thr)
        approx = soft_utility(stream, thr, SoftParams(steepness=200.0))
        worst = max(worst, abs(approx - report.utility))
    ok = instances == 50 and worst <= 0.05
    assert _line(ok, 3, f"{instances} instances with >=0.02 threshold margin, "
                        f"max |soft - exact| = {worst:.4f} (<= 0.05)")


def test_c04_secrecy_rate_properties():
    failures = []

    dominant = ChannelState(gain=1e-6, noise_psd=1e-13,
                            eavesdropper_gain=2e-6, eavesdropper_noise_psd=1e-13)
    equal = ChannelState(gain=1e-6, noise_psd=1e-13,
                         eavesdropper_gain=1e-6, eavesdropper_noise_psd=1e-13)
    for ch in (dominant, equal):
        if secrecy_rate(LinkAllocation(1e6, 0.1), ch) != 0.0:
            failures.append("zero under eavesdropper advantage")

    clean = ChannelState(gain=1e-6, noise_psd=1e-13,
                         eavesdropper_gain=0.0, eavesdropper_noise_psd=1e-13)
    tapped = ChannelState(gain=1e-6, noise_psd=1e-13,
                          eavesdropper_gain=3e-7, eavesdropper_noise_psd=1e-13)
    demand = OffloadDemand(feature_size_bits=2.5e4, deadline_s=1.0)
    checked = 0
    for b in np.linspace(1e4, 2e6, 100):
        for p in np.linspace(1e-3, 0.2, 100):
            alloc = LinkAllocation(float(b), float(p))
            if secrecy_rate(alloc, clean) != uplink_rate(alloc, clean):
                failures.append("no-eavesdropper equality")
            r_se = secrecy_rate(alloc, tapped)
            r_up = uplink_rate(alloc, tapped)
            if not (0.0 <= r_se <= r_up):
                failures.append("bounds violated")
            t = offload_time(demand, alloc, tapped)
            if abs(t * r_se - demand.feature_size_bits) > 1e-12 * demand.feature_size_bits:
                failures.append("time * rate != size")
            checked += 1
    ok = not failures
    assert _line(ok, 4, f"{checked} grid points, {len(set(failures))} property failures")


def test_c05_solver_matches_brute_force_on_small_instances():
    start = time.perf_counter()
    rng = np.random.default_rng(505)
    worst = 0.0
    runs = 0
    mismatches = 0
    for i in range(20):
        scenario = random_scenario(
            int(rng.integers(1, 4)),
            int(rng.integers(1, 3)),
            seed=int(rng.integers(0, 2**31)),
            compute_range=(2, 8),
            event_count_range=(20, 40),
            layer_counts=(3,),
        )
        try:
            _, brute_obj = oracle.brute_force_plan(scenario)
        except InfeasibleScenarioError:
            with pytest.raises(InfeasibleScenarioError):
                solve_alternating(scenario, SolveOptions(mode="exhaustive"))
            continue
        plan, report = solve_alternating(scenario, SolveOptions(mode="exhaustive"))
        _SOLVES.append((f"c05[{i}]", scenario, "exhaustive", plan, report))
        runs += 1
        gap = abs(report.objective - brute_obj)
        worst = max(worst, gap)
        if gap > 1e-9:
            mismatches += 1
        if check_feasibility(plan, scenario):
            mismatches += 1
    elapsed = time.perf_counter() - start
    ok = runs > 0 and mismatches == 0 and elapsed < 120.0
    assert _line(ok, 5, f"{runs} scenarios, max |alg - brute| = {worst:.2e} (<= 1e-9), "
                        f"{elapsed:.1f}s (< 120s)")


def test_c06_relaxation_sandwich_on_random_scenarios():
    rng = np.random.default_rng(606)
    violations = 0
    reports = []
    for i in range(100):
        scenario = random_scenario(
            int(rng.integers(1, 5)),
            int(rng.integers(1, 4)),
            seed=int(rng.integers(0, 2**31)),
            compute_range=(2, 8),
            event_count_range=(20, 40),
        )
        plan, report = solve_alternating(scenario, SolveOptions(mode="exhaustive"))
        _SOLVES.append((f"c06[{i}]", scenario, "exhaustive", plan, report))
        if report.objective > report.upper_bound + 1e-9:
            violations += 1
        reports.append(
            {
                "scenario": i,
                "objective": round(report.objective, 6),
                "upper_bound": round(report.upper_bound, 6),
                "certified_gap_pct": None
                if report.certified_gap_pct is None
                else round(report.certified_gap_pct, 3),
            }
        )
    for entry in reports:
        print("  bounds", json.dumps(entry, sort_keys=True))
    gaps = [r["certified_gap_pct"] for r in reports if r["certified_gap_pct"] is not None]
    ok = violations == 0 and len(reports) == 100
    assert _line(ok, 6, f"100 scenarios, {violations} sandwich violations, "
                        f"{len(gaps)} gaps reported (median {np.median(gaps):.2f}%)")


def test_c07_one_pass_is_a_fixed_point_of_the_alternation():
    # Another round of either block changes nothing: each user's exact
    # thresholds at its granted units give the reported utility, and a second
    # assignment search on the solve's curves returns the same assignment.
    assert _SOLVES, "criteria 5 and 6 must run first"
    violations = 0
    for _, scenario, mode, plan, report in _SOLVES:
        units = plan.compute_units.sum(axis=1)
        moved = any(
            optimal_thresholds(ue.stream, int(units[i]))[1] != report.per_user_utility[i]
            for i, ue in enumerate(scenario.ues)
        )
        again = assignment_search(scenario, _SolveState(scenario).curves, mode)
        if moved or not np.array_equal(again, plan.assignment):
            violations += 1
    ok = violations == 0
    assert _line(ok, 7, f"{len(_SOLVES)} solver runs, {violations} not at a fixed point")


def test_c08_confusion_accounting_identities():
    rng = np.random.default_rng(808)
    checks = 0
    failures = 0
    for i in range(60):
        stream = _stream(
            seed=int(rng.integers(0, 2**31)),
            layers=(3, 4, 6)[i % 3],
            count=int(rng.integers(20, 200)),
            prior=float(rng.uniform(0.0, 1.0)),
        )
        positives = sum(1 for t in stream.traces if t.is_critical)
        negatives = len(stream.traces) - positives
        for _ in range(6):
            lower = float(rng.uniform(0.02, 0.95))
            thr = ThresholdPair(lower, float(rng.uniform(lower, 0.98)))
            counts, _ = evaluate(stream, thr)
            checks += 1
            if counts.tp + counts.fn != positives or counts.tn + counts.fp != negatives:
                failures += 1
    ok = failures == 0
    assert _line(ok, 8, f"{checks} evaluations, {failures} accounting violations (exact)")


def test_c09_compute_allocation_dp_is_exact():
    rng = np.random.default_rng(909)
    instances = 0
    mismatches = 0
    for users in (1, 2, 3, 4):
        for capacity in range(13):
            for _ in range(2):
                weights = [float(rng.uniform(0.5, 2.0)) for _ in range(users)]
                curves = [
                    UtilityCurve(
                        utilities=np.sort(rng.uniform(0.0, 1.0, size=capacity + 1)),
                        pairs=tuple(ThresholdPair(0.5, 0.5) for _ in range(capacity + 1)),
                    )
                    for _ in range(users)
                ]
                split = allocate_compute_dp(weights, curves, capacity)
                got = weighted_log_objective(
                    weights, [c.value(w) for c, w in zip(curves, split)]
                )
                best = max(
                    weighted_log_objective(
                        weights, [c.value(w) for c, w in zip(curves, combo)]
                    )
                    for combo in itertools.product(range(capacity + 1), repeat=users)
                    if sum(combo) <= capacity
                )
                instances += 1
                if got != best or sum(split) > capacity:
                    mismatches += 1
    ok = mismatches == 0
    assert _line(ok, 9, f"{instances} instances (users <= 4, capacity <= 12), "
                        f"{mismatches} exact-equality mismatches")


_SRC = Path(__file__).resolve().parents[1] / "src"


def _pipeline(workdir):
    # the child runs in a tmp directory, so a relative PYTHONPATH would not resolve
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(_SRC), env.get("PYTHONPATH")]))

    def run(args):
        result = subprocess.run(
            [sys.executable, "-m", "fairedge", *args],
            cwd=workdir,
            capture_output=True,
            text=True,
            env=env,
        )
        assert result.returncode == 0, result.stderr
        return result.stdout

    out = {
        "gen": run(["gen", "--seed", "42", "--out", "out", "--ues", "2", "--ens", "2"]),
        "solve": run(["solve", "out/scenario.json", "--out", "out/bundle.json",
                      "--deterministic"]),
        "bounds": run(["bounds", "out/scenario.json"]),
        "scenario": (workdir / "out" / "scenario.json").read_bytes(),
        "bundle": (workdir / "out" / "bundle.json").read_bytes(),
        "traces": sorted(
            (p.name, p.read_bytes()) for p in (workdir / "out" / "traces").iterdir()
        ),
    }
    return out


def test_c10_cli_pipeline_reproducibility(tmp_path):
    run1 = tmp_path / "a"
    run2 = tmp_path / "b"
    run1.mkdir()
    run2.mkdir()
    first = _pipeline(run1)
    second = _pipeline(run2)
    identical = first == second
    bundle = read_bundle(run1 / "out" / "bundle.json")  # validates against the schema
    feasible = check_feasibility(bundle.plan, load_scenario(run1 / "out" / "scenario.json")) == []
    ok = identical and feasible and bundle.created_at is None
    assert _line(ok, 10, f"gen->solve->bounds byte-identical: {identical}; "
                         f"bundle schema-valid and feasible: {feasible}")
