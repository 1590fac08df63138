"""Deliberately naive brute-force references and the verify command's suites.

Everything here re-evaluates the first-crossing rule and the allocation
objective directly, for every event at every threshold pair (many pairs per
numpy call) and plan by plan, without touching the optimized search
structures it is used to validate.  Size guards make the cost explicit
instead of silently slow.  SUITES maps each `verify` suite name to a seeded
check of an optimized path against these references.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import link as linkmod
from .exitpolicy import ThresholdPair, UndefinedMetricError, UtilityCurve, optimal_thresholds
from .fairopt import (
    LOG_UTILITY_FLOOR,
    AllocationPlan,
    InfeasibleScenarioError,
    Scenario,
    SolveOptions,
    allocate_compute_dp,
    solve_alternating,
    weighted_log_objective,
)
from .scenario import random_scenario
from .trace import EventStream, GeneratorParams, generate_stream

_SENTINEL_DELTA = 1e-6

# Boolean elements per (uppers, events, layers) block in the batched pair scans.
_BLOCK_ELEMENTS = 1 << 20


class OracleSizeError(ValueError):
    """The requested enumeration exceeds the oracle budget."""


@dataclass(frozen=True)
class OracleBudget:
    max_candidate_pairs: int = 2_000_000
    max_plan_enumerations: int = 4096

    def __post_init__(self):
        if self.max_candidate_pairs <= 0 or self.max_plan_enumerations <= 0:
            raise ValueError("oracle budgets must be positive")


@dataclass(frozen=True)
class MonotonicityReport:
    """Outcome of randomized raise-a-threshold checks on true-positive counts."""

    samples: int
    checks: int
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def _pair_counts_block(
    matrix: np.ndarray, crit: np.ndarray, lower: float, uppers: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """True/false positives at (lower, u) for each u in `uppers`.

    Direct first-crossing evaluation of every event, one (k, n, L) block for
    k uppers; no state is shared between pairs.
    """
    below = matrix <= lower
    above = matrix[None, :, :] >= uppers[:, None, None]
    hit = below | above
    has_exit = hit.any(axis=2)
    first = hit.argmax(axis=2)
    rows = np.arange(len(matrix))
    first_above = np.take_along_axis(above, first[:, :, None], axis=2)[:, :, 0]
    predicted_critical = has_exit & first_above & ~below[rows, first]
    tp = np.count_nonzero(predicted_critical & crit, axis=1)
    fp = np.count_nonzero(predicted_critical & ~crit, axis=1)
    return tp, fp


def _pair_counts(matrix: np.ndarray, crit: np.ndarray, lower: float, upper: float) -> tuple[int, int]:
    """True/false positives by direct first-crossing evaluation of every event."""
    tp, fp = _pair_counts_block(matrix, crit, lower, np.array([upper]))
    return int(tp[0]), int(fp[0])


def _upper_blocks(matrix: np.ndarray, values: list[float], lower_idx: int):
    """Chunks of the uppers values[lower_idx:] as (offset, array) blocks."""
    step = max(1, _BLOCK_ELEMENTS // max(matrix.size, 1))
    uppers = np.asarray(values[lower_idx:])
    for start in range(0, len(uppers), step):
        yield lower_idx + start, uppers[start:start + step]


def _candidates(matrix: np.ndarray) -> list[float]:
    scores = sorted(set(matrix.ravel().tolist()))
    lo = max(scores[0] - _SENTINEL_DELTA, scores[0] / 2.0, math.nextafter(0.0, 1.0))
    hi = min(scores[-1] + _SENTINEL_DELTA, (scores[-1] + 1.0) / 2.0, math.nextafter(1.0, 0.0))
    return [lo] + scores + [hi]


def _uniform_grid(resolution: int) -> list[float]:
    return [(i + 1) / (resolution + 1) for i in range(resolution)]


def brute_force_thresholds(
    stream: EventStream,
    offload_budget: int,
    grid_resolution: int,
    budget: OracleBudget = OracleBudget(),
) -> tuple[ThresholdPair, float]:
    """Exhaustive scan of candidate-score pairs plus a uniform grid.

    Returns the best feasible pair under the offload budget, ties resolved
    toward larger thresholds.  The candidate-score portion alone already
    attains the exact optimum, so the grid can only tie it.
    """
    if grid_resolution < 2:
        raise ValueError("grid_resolution must be >= 2")
    if offload_budget < 0:
        raise ValueError("offload_budget must be >= 0")
    matrix, crit = stream.scores, stream.critical
    positives = int(crit.sum())
    if positives == 0:
        raise UndefinedMetricError("utility undefined: stream has no critical events")

    values = sorted(set(_candidates(matrix) + _uniform_grid(grid_resolution)))
    pair_count = len(values) * (len(values) + 1) // 2
    if pair_count > budget.max_candidate_pairs:
        raise OracleSizeError(f"{pair_count} pairs exceed the oracle budget")

    best: tuple[float, float, float] | None = None
    for a, lower in enumerate(values):
        for offset, uppers in _upper_blocks(matrix, values, a):
            tp, fp = _pair_counts_block(matrix, crit, lower, uppers)
            within = np.flatnonzero(tp + fp <= offload_budget)
            if len(within) == 0:
                continue
            top = tp[within].max()
            # values ascend, so the last index with the top count has the largest upper
            k = int(within[tp[within] == top][-1])
            key = (int(top) / positives, lower, values[offset + k])
            if best is None or key > best:
                best = key
    assert best is not None  # the all-normal pair offloads nothing
    return ThresholdPair(best[1], best[2]), best[0]


def grid_best_utility(
    stream: EventStream,
    offload_budget: int,
    grid_resolution: int,
    budget: OracleBudget = OracleBudget(),
) -> float:
    """Best feasible utility over a uniform grid only (no candidate scores)."""
    matrix, crit = stream.scores, stream.critical
    positives = int(crit.sum())
    if positives == 0:
        raise UndefinedMetricError("utility undefined: stream has no critical events")
    grid = _uniform_grid(grid_resolution)
    if grid_resolution * (grid_resolution + 1) // 2 > budget.max_candidate_pairs:
        raise OracleSizeError("grid exceeds the oracle budget")
    best = 0.0
    for a, lower in enumerate(grid):
        for _, uppers in _upper_blocks(matrix, grid, a):
            tp, fp = _pair_counts_block(matrix, crit, lower, uppers)
            within = tp[tp + fp <= offload_budget]
            if len(within):
                best = max(best, int(within.max()) / positives)
    return best


def _best_per_budget(
    matrix: np.ndarray, crit: np.ndarray, max_units: int
) -> tuple[list[float], list[ThresholdPair]]:
    """For each budget 0..max_units, the best utility/pair by direct pair scan."""
    positives = int(crit.sum())
    entries = []
    cand = _candidates(matrix)
    for lower, upper in itertools.combinations_with_replacement(cand, 2):
        tp, fp = _pair_counts(matrix, crit, lower, upper)
        entries.append((tp + fp, tp / positives, lower, upper))
    utilities, pairs = [], []
    for w in range(max_units + 1):
        best = max((u, lo, up) for cnt, u, lo, up in entries if cnt <= w)
        utilities.append(best[0])
        pairs.append(ThresholdPair(best[1], best[2]))
    return utilities, pairs


def brute_force_plan(
    scenario: Scenario, budget: OracleBudget = OracleBudget()
) -> tuple[AllocationPlan, float]:
    """Exact optimum by enumerating assignments and integer compute splits.

    Deadline feasibility reuses the link module's minimum-bandwidth search;
    classification counts come from the direct pair scan above.
    """
    n, m = len(scenario.ues), len(scenario.ens)
    if n == 0 or m == 0:
        raise ValueError("scenario must have at least one UE and one EN")
    if m**n > budget.max_plan_enumerations:
        raise OracleSizeError(f"{m**n} assignments exceed the oracle budget")
    for en in scenario.ens:
        if en.compute_units > 12:
            raise OracleSizeError("compute capacities above 12 exceed the oracle budget")

    # every user stays blocked (None) under a zero power or bandwidth cap
    min_bw: list[float | None] = [None] * n
    if scenario.power_cap_w > 0.0 and scenario.bandwidth_cap_hz > 0.0:
        for i, ue in enumerate(scenario.ues):
            try:
                min_bw[i] = linkmod.min_bandwidth_for_deadline(
                    ue.channel, scenario.power_cap_w, ue.demand, scenario.bandwidth_cap_hz
                )
            except linkmod.LinkError:
                pass

    max_units = max(en.compute_units for en in scenario.ens)
    per_user: list[tuple[list[float], list[ThresholdPair]]] = []
    for ue in scenario.ues:
        if not ue.stream.critical.any():
            raise UndefinedMetricError("utility undefined: a UE stream has no critical events")
        per_user.append(_best_per_budget(ue.stream.scores, ue.stream.critical, max_units))

    blocked = [i for i in range(n) if min_bw[i] is None]
    if blocked:
        raise InfeasibleScenarioError(
            "no security- and deadline-feasible assignment exists", blocking_users=blocked
        )

    best_objective = -math.inf
    best_assignment: tuple[int, ...] | None = None
    best_units: list[int] | None = None
    best_pairs: list[ThresholdPair] | None = None

    for assignment in itertools.product(range(m), repeat=n):
        if any(scenario.ens[j].security_level > scenario.ues[i].security_level
               for i, j in enumerate(assignment)):
            continue
        feasible = True
        for j in range(m):
            users = [i for i in range(n) if assignment[i] == j]
            if sum(min_bw[i] for i in users) > scenario.ens[j].bandwidth_hz:
                feasible = False
                break
            pool = scenario.ens[j].power_pool_w
            if pool is not None and len(users) * scenario.power_cap_w > pool:
                feasible = False
                break
        if not feasible:
            continue

        objective = 0.0
        units = [0] * n
        pairs: list[ThresholdPair] = [per_user[i][1][0] for i in range(n)]
        for j in range(m):
            users = [i for i in range(n) if assignment[i] == j]
            if not users:
                continue
            cap = scenario.ens[j].compute_units
            best_split_value = -math.inf
            best_split: tuple[int, ...] | None = None
            for split in itertools.product(range(cap + 1), repeat=len(users)):
                if sum(split) > cap:
                    continue
                value = sum(
                    scenario.ues[i].weight
                    * math.log(max(per_user[i][0][w], LOG_UTILITY_FLOOR))
                    for i, w in zip(users, split)
                )
                if value > best_split_value:
                    best_split_value = value
                    best_split = split
            assert best_split is not None
            objective += best_split_value
            for i, w in zip(users, best_split):
                units[i] = w
                pairs[i] = per_user[i][1][w]

        if objective > best_objective:
            best_objective = objective
            best_assignment = assignment
            best_units = units
            best_pairs = pairs

    if best_assignment is None:
        raise InfeasibleScenarioError(
            "no assignment satisfies security and edge-node capacity together",
            blocking_users=[],
        )

    x = np.zeros((n, m), dtype=int)
    bw = np.zeros((n, m))
    power = np.zeros((n, m))
    units_mat = np.zeros((n, m), dtype=int)
    for i, j in enumerate(best_assignment):
        x[i, j] = 1
        bw[i, j] = min_bw[i]
        power[i, j] = scenario.power_cap_w
        units_mat[i, j] = best_units[i]
    plan = AllocationPlan(
        assignment=x,
        bandwidth_hz=bw,
        power_w=power,
        compute_units=units_mat,
        thresholds=tuple(best_pairs),
    )
    return plan, best_objective


def check_monotonicity(stream: EventStream, samples: int, seed: int) -> MonotonicityReport:
    """Raise each threshold by a random amount and confirm tp never grows.

    Any counterexample is reported verbatim: the pair, the perturbed pair and
    the true-positive counts on both sides.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    matrix, crit = stream.scores, stream.critical
    rng = np.random.default_rng(seed)
    failures: list[str] = []
    checks = 0
    for _ in range(samples):
        lower = rng.uniform(0.01, 0.98)
        upper = rng.uniform(lower, 0.99)
        tp_base, _ = _pair_counts(matrix, crit, lower, upper)

        raised_lower = lower + rng.uniform(0.0, upper - lower)
        tp_l, _ = _pair_counts(matrix, crit, raised_lower, upper)
        checks += 1
        if tp_l > tp_base:
            failures.append(
                f"raising lower {lower:.12g}->{raised_lower:.12g} at upper {upper:.12g} "
                f"grew tp {tp_base}->{tp_l}"
            )

        raised_upper = upper + rng.uniform(0.0, 0.999 - upper)
        tp_u, _ = _pair_counts(matrix, crit, lower, raised_upper)
        checks += 1
        if tp_u > tp_base:
            failures.append(
                f"raising upper {upper:.12g}->{raised_upper:.12g} at lower {lower:.12g} "
                f"grew tp {tp_base}->{tp_u}"
            )
    return MonotonicityReport(samples=samples, checks=checks, failures=tuple(failures))


# Property suites of the `verify` command.  Each takes the seed and an
# optional scenario and returns (passed, detail); the stream and DP suites
# draw their own inputs and ignore the scenario.


def _suite_monotonicity(seed: int, scenario: Scenario | None) -> tuple[bool, str]:
    rng = np.random.default_rng(seed)
    failures = 0
    streams = 0
    for layer_count in (3, 4, 6):
        for _ in range(4):
            params = GeneratorParams(
                layer_count=layer_count,
                critical_prior=float(rng.uniform(0.2, 0.5)),
                critical_drift=float(rng.uniform(0.4, 1.0)),
                normal_drift=-float(rng.uniform(0.4, 1.0)),
                noise_std=float(rng.uniform(0.2, 0.7)),
                seed=int(rng.integers(0, 2**31)),
            )
            stream = generate_stream(params, int(rng.integers(100, 300)))
            report = check_monotonicity(stream, samples=30, seed=int(rng.integers(0, 2**31)))
            streams += 1
            failures += len(report.failures)
    return failures == 0, f"{streams} streams, {failures} counterexamples"


def _suite_thresholds(seed: int, scenario: Scenario | None) -> tuple[bool, str]:
    rng = np.random.default_rng(seed)
    mismatches = 0
    for _ in range(10):
        params = GeneratorParams(
            layer_count=4,
            critical_prior=float(rng.uniform(0.25, 0.5)),
            critical_drift=float(rng.uniform(0.4, 1.0)),
            normal_drift=-float(rng.uniform(0.4, 1.0)),
            noise_std=float(rng.uniform(0.3, 0.7)),
            seed=int(rng.integers(0, 2**31)),
        )
        stream = generate_stream(params, int(rng.integers(20, 40)))
        budget = int(rng.integers(0, len(stream) + 1))
        _, exact = optimal_thresholds(stream, budget)
        _, brute = brute_force_thresholds(stream, budget, grid_resolution=31)
        if exact != brute:
            mismatches += 1
    return mismatches == 0, f"10 streams, {mismatches} mismatches"


def _suite_dp(seed: int, scenario: Scenario | None) -> tuple[bool, str]:
    rng = np.random.default_rng(seed)
    mismatches = 0
    for _ in range(10):
        users = int(rng.integers(2, 5))
        capacity = int(rng.integers(3, 10))
        weights = [float(rng.uniform(0.5, 2.0)) for _ in range(users)]
        curves = []
        for _ in range(users):
            steps = np.sort(rng.uniform(0.0, 1.0, size=capacity + 1))
            curves.append(
                UtilityCurve(
                    utilities=steps,
                    pairs=tuple(ThresholdPair(0.5, 0.5) for _ in range(capacity + 1)),
                )
            )
        split = allocate_compute_dp(weights, curves, capacity)
        value = weighted_log_objective(weights, [c.value(u) for c, u in zip(curves, split)])
        best = max(
            weighted_log_objective(weights, [c.value(u) for c, u in zip(curves, combo)])
            for combo in itertools.product(range(capacity + 1), repeat=users)
            if sum(combo) <= capacity
        )
        if not value == best:
            mismatches += 1
    return mismatches == 0, f"10 instances, {mismatches} mismatches"


def _suite_plan(seed: int, scenario: Scenario | None) -> tuple[bool, str]:
    rng = np.random.default_rng(seed)
    mismatches = 0
    runs = 0
    for k in range(5):
        sc = scenario or random_scenario(
            int(rng.integers(1, 4)),
            int(rng.integers(1, 3)),
            int(rng.integers(0, 2**31)),
            compute_range=(2, 8),
            event_count_range=(20, 40),
            layer_counts=(3,),
        )
        try:
            _, brute_obj = brute_force_plan(sc)
        except OracleSizeError as err:
            if scenario is not None:
                return False, f"not checked: {err}"
            continue
        _, report = solve_alternating(sc, SolveOptions(mode="exhaustive"))
        runs += 1
        if abs(report.objective - brute_obj) > 1e-9:
            mismatches += 1
        if scenario is not None:
            break
    return mismatches == 0, f"{runs} scenarios, {mismatches} mismatches"


def _suite_sandwich(seed: int, scenario: Scenario | None) -> tuple[bool, str]:
    rng = np.random.default_rng(seed)
    violations = 0
    runs = 0
    for _ in range(10):
        sc = scenario or random_scenario(
            int(rng.integers(1, 5)),
            int(rng.integers(1, 4)),
            int(rng.integers(0, 2**31)),
        )
        _, report = solve_alternating(sc)
        runs += 1
        if report.objective > report.upper_bound + 1e-9:
            violations += 1
        if scenario is not None:
            break
    return violations == 0, f"{runs} scenarios, {violations} bound violations"


SUITES = {
    "monotonicity": _suite_monotonicity,
    "thresholds": _suite_thresholds,
    "dp": _suite_dp,
    "plan": _suite_plan,
    "sandwich": _suite_sandwich,
}
