"""Benchmark workloads: scenario pools, the timed steps, and the golden gate.

Each workload owns a fixed pool of scenarios numbered 0..pool_size-1.  Every
pool scenario has a golden record in ``golden/<workload>.json`` (made by
``make_golden.py``), so any run seed can be checked: the seed only chooses the
order in which a run visits the pool.

A workload item is one pass over one scenario.  For the library workloads it
is a single ``fairopt.solve_alternating`` call; for ``long-streams`` it is the
CLI ``solve`` command followed by the CLI ``bounds`` command.  Functions are
looked up on their modules at call time so that the tracer's wrappers apply.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
from pathlib import Path
from time import perf_counter

import numpy as np

from fairedge import cli, fairopt, scenario as scenario_mod
from fairedge.fairopt import SolveOptions
from fairedge.trace import generate_stream, save_stream

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# Floats in the golden record match when |a - b| <= FLOAT_TOL * max(1, |b|).
FLOAT_TOL = 1e-9


def plan_outcome(plan: fairopt.AllocationPlan, report: fairopt.SolveReport) -> dict:
    """The parts of a solve compared against the golden record.

    ``iterations``, ``objective_history`` and ``lower_bound`` are left out on
    purpose: a one-pass solver or an honest lower bound may change them.
    """
    return {
        "assignment": [int(np.argmax(row)) for row in plan.assignment],
        "compute_units": [int(v) for v in plan.compute_units.sum(axis=1)],
        "bandwidth_hz": [float(v) for v in plan.bandwidth_hz.sum(axis=1)],
        "thresholds": [[t.lower, t.upper] for t in plan.thresholds],
        "objective": float(report.objective),
        "per_user_utility": [float(u) for u in report.per_user_utility],
    }


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= FLOAT_TOL * max(1.0, abs(b))


def compare_outcome(outcome: dict, golden: dict) -> list[str]:
    """Differences between a solve's outcome and its golden record."""
    problems = []
    for key in ("assignment", "compute_units"):
        if outcome[key] != golden[key]:
            problems.append(f"{key} {outcome[key]} != golden {golden[key]}")
    for key in ("bandwidth_hz", "per_user_utility", "thresholds", "objective"):
        got = np.ravel(outcome[key]).tolist()
        want = np.ravel(golden[key]).tolist()
        if len(got) != len(want) or not all(_close(a, b) for a, b in zip(got, want)):
            problems.append(f"{key} {outcome[key]} != golden {golden[key]}")
    return problems


def check_plan(plan, report_objective: float, upper: float, scenario) -> list[str]:
    """Feasibility of the plan and the objective <= upper bound sandwich."""
    problems = [f"infeasible: {v.message}" for v in fairopt.check_feasibility(plan, scenario)]
    if not report_objective <= upper + 1e-9:
        problems.append(f"objective {report_objective} exceeds upper bound {upper}")
    return problems


class LibraryWorkload:
    """``random_scenario`` inputs solved by ``fairopt.solve_alternating``."""

    def __init__(self, name: str, n_ues: int, n_ens: int, mode: str, pool_size: int, **kwargs):
        self.name = name
        self.n_ues = n_ues
        self.n_ens = n_ens
        self.mode = mode
        self.pool_size = pool_size
        self.scenario_kwargs = kwargs

    def describe(self) -> dict:
        return {
            "generator": "random_scenario",
            "n_ues": self.n_ues,
            "n_ens": self.n_ens,
            "mode": self.mode,
            "pool_size": self.pool_size,
            "scenario_kwargs": {k: list(v) if isinstance(v, tuple) else v
                                for k, v in self.scenario_kwargs.items()},
        }

    def setup_expression(self, k: int, work_dir: Path) -> str:
        """Python expression that materialises scenario k after ``import fairedge``."""
        return f"fairedge.random_scenario({self.n_ues}, {self.n_ens}, {k}, **{self.scenario_kwargs!r})"

    def load(self, k: int, work_dir: Path) -> fairopt.Scenario:
        return scenario_mod.random_scenario(self.n_ues, self.n_ens, k, **self.scenario_kwargs)

    def execute(self, k: int, scenario: fairopt.Scenario, work_dir: Path, reference=None):
        """The timed pass: step durations, reference times and the raw result
        for ``check``.  ``reference``, if given, is timed before and after the
        step; its time is not part of the step's."""
        refs = [reference()] if reference else []
        opts = SolveOptions(mode=self.mode)
        start = perf_counter()
        plan, report = fairopt.solve_alternating(scenario, opts)
        durations = {"solve": perf_counter() - start}
        if reference:
            refs.append(reference())
        return durations, refs, (plan, report)

    def check(self, k: int, scenario: fairopt.Scenario, result, work_dir: Path):
        """Outcome for the golden comparison plus feasibility and bound problems."""
        plan, report = result
        problems = check_plan(plan, report.objective, report.upper_bound, scenario)
        return plan_outcome(plan, report), problems


class CliWorkload:
    """Trace-CSV scenarios run through ``fairedge.cli.main`` as solve, then bounds.

    Users 0-1 get L=4 layers and users 2-3 get L=6, every stream exactly
    ``events`` long, so each pool scenario costs the same work.
    """

    layer_counts = (4, 4, 6, 6)

    def __init__(self, name: str, n_ens: int, events: int, pool_size: int):
        self.name = name
        self.n_ens = n_ens
        self.events = events
        self.pool_size = pool_size

    def describe(self) -> dict:
        return {
            "generator": "random_scenario_config + trace CSVs",
            "n_ues": len(self.layer_counts),
            "n_ens": self.n_ens,
            "layer_counts": list(self.layer_counts),
            "events": self.events,
            "pool_size": self.pool_size,
        }

    def _dir(self, k: int, work_dir: Path) -> Path:
        return work_dir / "inputs" / f"s{k:02d}"

    def _write_scenario(self, k: int, out_dir: Path) -> None:
        config = scenario_mod.random_scenario_config(
            len(self.layer_counts), self.n_ens, k,
            event_count_range=(self.events, self.events), layer_counts=(4,),
        )
        (out_dir / "traces").mkdir(parents=True, exist_ok=True)
        file_ues = []
        for i, (ue, layers) in enumerate(zip(config.ues, self.layer_counts)):
            params = dataclasses.replace(ue.generator.params, layer_count=layers)
            stream = generate_stream(params, self.events)
            if len({t.true_label for t in stream.traces}) != 2:
                raise RuntimeError(f"scenario {k} user {i}: stream lacks one of the classes")
            rel = f"traces/ue_{i:02d}.csv"
            save_stream(stream, out_dir / rel)
            file_ues.append(dataclasses.replace(ue, generator=None, trace_file=rel))
        document = scenario_mod.serialize_document(
            dataclasses.replace(config, ues=tuple(file_ues))
        )
        (out_dir / "scenario.json").write_text(
            json.dumps(document, sort_keys=True, indent=2) + "\n", encoding="utf-8", newline="\n"
        )

    def setup_expression(self, k: int, work_dir: Path) -> str:
        path = str((self._dir(k, work_dir) / "scenario.json").resolve())
        return f"fairedge.load_scenario({path!r})"

    def load(self, k: int, work_dir: Path) -> fairopt.Scenario:
        """Write scenario k's trace CSVs and scenario.json, then read them back."""
        self._write_scenario(k, self._dir(k, work_dir))
        return scenario_mod.load_scenario(self._dir(k, work_dir) / "scenario.json")

    def execute(self, k: int, scenario: fairopt.Scenario, work_dir: Path, reference=None):
        """As ``LibraryWorkload.execute``; ``reference`` is also timed between
        the two commands."""
        path = str(self._dir(k, work_dir) / "scenario.json")
        bundle_path = str(self._dir(k, work_dir) / "bundle.json")
        refs = [reference()] if reference else []
        solve_s, _ = self._cli(["solve", path, "--out", bundle_path, "--deterministic"])
        if reference:
            refs.append(reference())
        bounds_s, bounds_text = self._cli(["bounds", path])
        if reference:
            refs.append(reference())
        return {"solve": solve_s, "bounds": bounds_s}, refs, bounds_text

    def check(self, k: int, scenario: fairopt.Scenario, bounds_text: str, work_dir: Path):
        bundle = scenario_mod.read_bundle(self._dir(k, work_dir) / "bundle.json")
        bounds = json.loads(bounds_text)
        problems = check_plan(
            bundle.plan, bundle.report.objective, bundle.report.upper_bound, scenario
        )
        if not bounds["objective"] <= bounds["upper_bound"] + 1e-9:
            problems.append(
                f"bounds: objective {bounds['objective']} exceeds upper bound {bounds['upper_bound']}"
            )
        if not _close(bounds["objective"], bundle.report.objective):
            problems.append(
                f"bounds objective {bounds['objective']} != solve objective {bundle.report.objective}"
            )
        return plan_outcome(bundle.plan, bundle.report), problems

    @staticmethod
    def _cli(argv: list[str]) -> tuple[float, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = perf_counter()
            code = cli.main(argv)
            elapsed = perf_counter() - start
        if code != 0:
            raise RuntimeError(f"fairedge {argv[0]} exited {code}: {err.getvalue().strip()}")
        return elapsed, out.getvalue()


# Why each workload exists is recorded in NOTES.md.
WORKLOADS = {
    wl.name: wl
    for wl in (
        CliWorkload("long-streams", n_ens=2, events=400, pool_size=8),
        LibraryWorkload(
            "exhaustive-assign", 8, 3, "exhaustive", pool_size=24,
            security_levels=1, compute_range=(6, 6),
        ),
        LibraryWorkload(
            "local-assign", 40, 4, "local", pool_size=24,
            security_levels=1, compute_range=(5, 5),
        ),
    )
}


def golden_path(name: str) -> Path:
    return GOLDEN_DIR / f"{name}.json"


def load_golden(workload) -> list[dict]:
    """Golden records of a workload's pool, checked against its definition."""
    doc = json.loads(golden_path(workload.name).read_text(encoding="utf-8"))
    if doc["workload"] != workload.describe():
        raise RuntimeError(
            f"golden/{workload.name}.json was made for another workload definition; "
            "run make_golden.py at the parent commit"
        )
    records = doc["scenarios"]
    if len(records) != workload.pool_size:
        raise RuntimeError(f"golden/{workload.name}.json holds {len(records)} records")
    return records
