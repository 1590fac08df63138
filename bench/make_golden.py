#!/usr/bin/env python3
"""Write the golden records the benchmark checks every solve against.

Run from the repository root, at the commit whose outputs are the reference:

    python3 bench/make_golden.py                      # every workload
    python3 bench/make_golden.py exhaustive-assign    # one workload

Each pool scenario is solved once, must pass the feasibility and bound checks,
and its outcome (see workloads.plan_outcome) is stored in golden/<name>.json.
"""

import json
import sys

import run
import workloads


def make(workload) -> None:
    work_dir = run.OUT_DIR / "work" / workload.name
    records = []
    for k in range(workload.pool_size):
        scenario = workload.load(k, work_dir)
        durations, _, result = workload.execute(k, scenario, work_dir)
        outcome, problems = workload.check(k, scenario, result, work_dir)
        if problems:
            raise SystemExit(f"{workload.name} scenario {k}: {problems}")
        records.append({"scenario": k, **outcome})
        print(f"{workload.name} scenario {k}: {durations}", file=sys.stderr)
    env = run.environment()
    doc = {
        "workload": workload.describe(),
        "made_at": {"git_commit": env["git_commit"], "src_sha256": env["src_sha256"]},
        "scenarios": records,
    }
    path = workloads.golden_path(workload.name)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def main(names: list[str]) -> None:
    for name in names or list(workloads.WORKLOADS):
        make(workloads.WORKLOADS[name])


if __name__ == "__main__":
    main(sys.argv[1:])
