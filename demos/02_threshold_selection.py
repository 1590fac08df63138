"""Walkthrough: exact threshold selection under an offload budget.

The empirical utility is a step function whose value changes only at
observed scores, so scanning score pairs (plus two out-of-range sentinels)
finds the true optimum.  A sigmoid surrogate enables gradient search when a
smooth objective is needed.

Run:  python3 demos/02_threshold_selection.py
"""

from fairedge import (
    GeneratorParams,
    SoftParams,
    ThresholdPair,
    evaluate,
    generate_stream,
    optimal_thresholds,
    projected_gradient_search,
    soft_utility,
    utility_curve,
)
from fairedge.exitpolicy import write_sweep_csv

params = GeneratorParams(
    layer_count=3,
    critical_prior=0.4,
    critical_drift=0.9,
    normal_drift=-0.9,
    noise_std=0.4,
    seed=21,
)
stream = generate_stream(params, 60)

print("== exact selection under offload budgets ==")
print(f"{'budget':>7} {'utility':>8} {'offloads':>9} {'lower':>8} {'upper':>8}")
for budget in (0, 2, 5, 10, 20, 60):
    pair, utility = optimal_thresholds(stream, budget)
    counts, _ = evaluate(stream, pair)
    print(f"{budget:>7} {utility:>8.3f} {counts.offloaded:>9} "
          f"{pair.lower:>8.4f} {pair.upper:>8.4f}")

# The budget-indexed curve caches the same answers for the allocation solver.
curve = utility_curve(stream, 20)
print("\ncurve(0..20):", " ".join(f"{u:.2f}" for u in curve.utilities))

# Smooth surrogate: within regions where the hard decisions do not change,
# the surrogate follows the exact utility and is differentiable.
thr = ThresholdPair(0.35, 0.75)
_, report = evaluate(stream, thr)
for steepness in (10.0, 50.0, 200.0):
    s = soft_utility(stream, thr, SoftParams(steepness=steepness))
    print(f"steepness {steepness:>6.0f}: soft {s:.4f} vs exact {report.utility:.4f}")

# Gradient ascent on the surrogate.  Far from the score mass the surrogate
# is nearly flat and the search barely moves (the reason the exact scan is
# the authoritative solver); started near the mass it climbs to the optimum.
soft = SoftParams(steepness=25.0)
_, best = optimal_thresholds(stream, len(stream))
print()
for label, init in [("plateau start", ThresholdPair(0.45, 0.85)),
                    ("warm start", ThresholdPair(0.40, 0.75))]:
    found = projected_gradient_search(stream, init, steps=400, learning_rate=0.05, soft=soft)
    print(f"gradient search ({label}): soft {soft_utility(stream, init, soft):.3f} -> "
          f"{soft_utility(stream, found, soft):.3f} (exact optimum {best:.3f})")

rows = write_sweep_csv(
    stream,
    [ThresholdPair(lo / 20, up / 20) for lo in range(1, 20) for up in range(1, 20) if lo <= up],
    "sweep_demo.csv",
)
print(f"\nwrote sweep_demo.csv ({rows} rows: alpha_l,alpha_u,car,fpr,fnr,ofr,utility)")
