"""Walkthrough: the upper bound, the certified gap, and brute-force validation.

Every optimized path has a deliberately naive counterpart: direct pair
enumeration validates threshold selection, full plan enumeration validates
the solver, and randomized perturbations validate that raising a threshold
never gains true positives.  The returned plan's objective is itself a
lower bound on the optimum, so the gap to the pooled upper bound
certifies how far from optimal the plan can be.

Run:  python3 demos/05_bounds_and_oracles.py
"""

from fairedge import GeneratorParams, generate_stream, optimal_thresholds, random_scenario
from fairedge.fairopt import SolveOptions, solve_alternating
from fairedge import oracle

print("== threshold selection vs direct pair enumeration ==")
for seed in range(4):
    params = GeneratorParams(
        layer_count=3, critical_prior=0.4, critical_drift=0.8,
        normal_drift=-0.8, noise_std=0.45, seed=seed,
    )
    stream = generate_stream(params, 30)
    budget = 5 + seed
    _, exact = optimal_thresholds(stream, budget)
    _, brute = oracle.brute_force_thresholds(stream, budget, grid_resolution=25)
    print(f"  seed {seed}: exact {exact:.4f}  brute {brute:.4f}  equal: {exact == brute}")

print("\n== solver vs full plan enumeration ==")
for seed in range(4):
    scenario = random_scenario(
        3, 2, 40 + seed, compute_range=(2, 6), event_count_range=(15, 30), layer_counts=(3,)
    )
    _, report = solve_alternating(scenario, SolveOptions(mode="exhaustive"))
    _, brute_obj = oracle.brute_force_plan(scenario)
    print(f"  seed {40 + seed}: solver {report.objective:.6f}  brute {brute_obj:.6f}  "
          f"diff {abs(report.objective - brute_obj):.1e}")

print("\n== upper bound and certified gap ==")
for seed in range(4):
    scenario = random_scenario(4, 3, 70 + seed)
    _, report = solve_alternating(scenario)
    gap = "n/a" if report.certified_gap_pct is None else f"{report.certified_gap_pct:.1f}%"
    print(f"  seed {70 + seed}: objective {report.objective:8.4f} <= "
          f"upper bound {report.upper_bound:8.4f}  certified gap {gap}")

print("\n== randomized monotonicity check ==")
params = GeneratorParams(
    layer_count=4, critical_prior=0.4, critical_drift=0.7,
    normal_drift=-0.7, noise_std=0.5, seed=99,
)
stream = generate_stream(params, 300)
report = oracle.check_monotonicity(stream, samples=200, seed=1)
print(f"  {report.checks} raise-a-threshold checks, counterexamples: {len(report.failures)}")
print("  raising either threshold never gained a true positive" if report.ok
      else "\n".join(report.failures))
