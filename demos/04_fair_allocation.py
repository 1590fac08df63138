"""Walkthrough: solving the joint allocation problem with proportional fairness.

The solver combines exact per-user threshold selection (cached as
budget-indexed utility curves), user-to-node assignment, and exact integer
compute splits in one pass, maximizing the weighted sum of log utilities.

Run:  python3 demos/04_fair_allocation.py
"""

import numpy as np

from fairedge import (
    SolveOptions,
    check_feasibility,
    fairness_check,
    random_scenario,
    solve_alternating,
)

scenario = random_scenario(n_ues=4, n_ens=2, seed=11, compute_range=(3, 8))
print(f"scenario: {len(scenario.ues)} users, {len(scenario.ens)} edge nodes")
for j, en in enumerate(scenario.ens):
    print(f"  node {j}: {en.bandwidth_hz/1e6:.1f} MHz, {en.compute_units} compute units, "
          f"clearance level {en.security_level}")

plan, report = solve_alternating(scenario, SolveOptions(mode="exhaustive"))

gap = "n/a" if report.certified_gap_pct is None else f"{report.certified_gap_pct:.1f}%"
print(f"\nobjective {report.objective:.4f} "
      f"(upper bound {report.upper_bound:.4f}, certified gap {gap})")
print(f"violations: {len(check_feasibility(plan, scenario))}")

print(f"\n{'user':>5} {'weight':>7} {'node':>5} {'units':>6} {'utility':>8} "
      f"{'lower':>8} {'upper':>8} {'bw kHz':>8}")
for i, ue in enumerate(scenario.ues):
    node = int(np.argmax(plan.assignment[i]))
    thr = plan.thresholds[i]
    print(f"{i:>5} {ue.weight:>7.2f} {node:>5} {int(plan.compute_units[i].sum()):>6} "
          f"{report.per_user_utility[i]:>8.3f} {thr.lower:>8.4f} {thr.upper:>8.4f} "
          f"{plan.bandwidth_hz[i].sum()/1e3:>8.1f}")

print("\nper-user diagnostics (energy/time per offloaded event):")
for d in report.diagnostics:
    print(f"  user {d.user}: local {d.local_energy_j*1e3:.3f} mJ, "
          f"offload {d.offload_time_s*1e3:.2f} ms / {d.offload_energy_j*1e3:.3f} mJ")

# Proportional-fairness diagnostic: hand out strictly dominated alternatives
# and confirm none scores a positive aggregate proportional change.
rng = np.random.default_rng(0)
utilities = np.asarray(report.per_user_utility)
if np.all(utilities > 0):
    alternatives = [utilities * rng.uniform(0.6, 1.0, size=len(utilities)) for _ in range(5)]
    aggregates = fairness_check(utilities, alternatives, [u.weight for u in scenario.ues])
    print("\nfairness aggregates vs dominated alternatives:",
          " ".join(f"{a:+.3f}" for a in aggregates))
