"""Joint thresholds, assignment and resource allocation with proportional fairness.

The solved problem maximizes a weighted sum of log utilities over per-user
dual thresholds, a single edge-node assignment per user, and bandwidth,
power and integer compute allocations, under per-pair caps, edge capacities,
security clearances, offload deadlines and per-user compute demand.

Utility reacts to the compute allocation only through the offload-count
budget, so the resource subproblem collapses to an integer allocation over
per-user budget-indexed utility curves, with deadline feasibility handled
independently by a minimum-bandwidth search at full transmit power.  That
reduction drives both the solver and the upper bound, which splits every
edge node's units, pooled, among all users.  The curves never change once
built, so the solver needs a single assignment search.  One per-solve state,
shared by that search and the bound, holds each user's deadline bandwidth,
feasible edge nodes, curve and weighted log utilities, computes each compute
split once per (capacity, user set), and is the one gate that rejects an
empty or blocked scenario.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import numpy.typing as npt

from . import link as linkmod
from .exitpolicy import ThresholdPair, UndefinedMetricError, UtilityCurve, evaluate, utility_curve
from .link import ChannelState, EnergyModel, OffloadDemand
from .trace import EventStream

# Floor applied to utilities inside logarithms only; reported metrics are
# never floored.
LOG_UTILITY_FLOOR = 1e-6

# Guard for exhaustive assignment enumeration: at most 2^20 combinations.
_EXHAUSTIVE_GUARD_BITS = 20.0


class InfeasibleScenarioError(Exception):
    """No feasible plan exists; lists the users that block every assignment."""

    def __init__(self, message: str, blocking_users: Sequence[int] = ()):
        if blocking_users:
            message = f"{message} (blocking users: {list(blocking_users)})"
        super().__init__(message)
        self.blocking_users = list(blocking_users)


@dataclass(frozen=True)
class UEProfile:
    """One user device: fairness weight, clearance, demand, channel and stream."""

    weight: float
    security_level: int
    demand: OffloadDemand
    channel: ChannelState
    energy: EnergyModel
    stream: EventStream

    def __post_init__(self):
        if self.weight <= 0.0:
            raise ValueError("weight must be > 0")
        if self.security_level < 1:
            raise ValueError("security_level must be >= 1 (1 is the strictest)")


@dataclass(frozen=True)
class ENProfile:
    """One edge node: bandwidth pool, integer compute units, clearance level."""

    bandwidth_hz: float
    compute_units: int
    security_level: int
    power_pool_w: float | None = None

    def __post_init__(self):
        if self.bandwidth_hz < 0.0:
            raise ValueError("bandwidth_hz must be >= 0")
        if self.compute_units < 0:
            raise ValueError("compute_units must be >= 0")
        if self.security_level < 1:
            raise ValueError("security_level must be >= 1")
        if self.power_pool_w is not None and self.power_pool_w < 0.0:
            raise ValueError("power_pool_w must be >= 0 when present")


@dataclass(frozen=True)
class Scenario:
    """Users, edge nodes and global per-pair caps; level 1 is the strictest."""

    ues: tuple[UEProfile, ...]
    ens: tuple[ENProfile, ...]
    bandwidth_cap_hz: float
    power_cap_w: float
    security_levels: int

    def __post_init__(self):
        object.__setattr__(self, "ues", tuple(self.ues))
        object.__setattr__(self, "ens", tuple(self.ens))
        if self.bandwidth_cap_hz < 0.0 or self.power_cap_w < 0.0:
            raise ValueError("caps must be >= 0")
        if self.security_levels < 1:
            raise ValueError("security_levels must be >= 1")
        for idx, ue in enumerate(self.ues):
            if ue.security_level > self.security_levels:
                raise ValueError(f"ues[{idx}].security_level exceeds security_levels")
        for idx, en in enumerate(self.ens):
            if en.security_level > self.security_levels:
                raise ValueError(f"ens[{idx}].security_level exceeds security_levels")


@dataclass(frozen=True)
class AllocationPlan:
    """One full candidate solution; matrices are (users, edge nodes)."""

    assignment: npt.NDArray[np.int64]
    bandwidth_hz: npt.NDArray[np.float64]
    power_w: npt.NDArray[np.float64]
    compute_units: npt.NDArray[np.int64]
    thresholds: tuple[ThresholdPair, ...]

    def __post_init__(self):
        object.__setattr__(self, "assignment", np.asarray(self.assignment))
        object.__setattr__(self, "bandwidth_hz", np.asarray(self.bandwidth_hz, dtype=float))
        object.__setattr__(self, "power_w", np.asarray(self.power_w, dtype=float))
        object.__setattr__(self, "compute_units", np.asarray(self.compute_units))
        object.__setattr__(self, "thresholds", tuple(self.thresholds))
        shape = self.assignment.shape
        if len(shape) != 2:
            raise ValueError("assignment must be a 2-D matrix")
        for name in ("bandwidth_hz", "power_w", "compute_units"):
            if getattr(self, name).shape != shape:
                raise ValueError(f"{name} must match the assignment shape")
        if len(self.thresholds) != shape[0]:
            raise ValueError("one threshold pair per user is required")


@dataclass(frozen=True)
class Violation:
    """One failed constraint; `constraint` is a stable machine-readable tag."""

    constraint: str
    message: str


@dataclass(frozen=True)
class UserDiagnostics:
    user: int
    local_energy_j: float
    offload_time_s: float
    offload_energy_j: float


@dataclass(frozen=True)
class SolveReport:
    objective: float
    per_user_utility: tuple[float, ...]
    upper_bound: float
    certified_gap_pct: float | None
    diagnostics: tuple[UserDiagnostics, ...]


@dataclass(frozen=True)
class SolveOptions:
    mode: str = "exhaustive"

    def __post_init__(self):
        if self.mode not in ("exhaustive", "local"):
            raise ValueError("mode must be 'exhaustive' or 'local'")


def _shape_or_raise(plan: AllocationPlan, scenario: Scenario) -> tuple[int, int]:
    n, m = len(scenario.ues), len(scenario.ens)
    if plan.assignment.shape != (n, m):
        raise ValueError(
            f"plan shape {plan.assignment.shape} does not match scenario ({n}, {m})"
        )
    return n, m


def check_feasibility(plan: AllocationPlan, scenario: Scenario) -> list[Violation]:
    """Evaluate every problem constraint literally; empty list means feasible."""
    n, m = _shape_or_raise(plan, scenario)
    x, b, p, w = plan.assignment, plan.bandwidth_hz, plan.power_w, plan.compute_units
    out: list[Violation] = []

    for i in range(n):
        for j in range(m):
            if x[i, j] not in (0, 1):
                out.append(Violation("binary-assignment", f"x[{i},{j}] = {x[i, j]} is not binary"))
            if b[i, j] < 0.0 or p[i, j] < 0.0 or w[i, j] < 0:
                out.append(
                    Violation("nonnegative-allocation", f"negative allocation at pair ({i},{j})")
                )
            if b[i, j] > scenario.bandwidth_cap_hz:
                out.append(
                    Violation("pair-bandwidth-cap", f"b[{i},{j}] exceeds cap {scenario.bandwidth_cap_hz}")
                )
            if p[i, j] > scenario.power_cap_w:
                out.append(
                    Violation("pair-power-cap", f"p[{i},{j}] exceeds cap {scenario.power_cap_w}")
                )
            if x[i, j] == 0 and (b[i, j] != 0.0 or p[i, j] != 0.0 or w[i, j] != 0):
                out.append(
                    Violation("inactive-pair", f"resources allocated on unused pair ({i},{j})")
                )

    for i in range(n):
        row = int(np.sum(x[i]))
        if row != 1:
            out.append(Violation("single-assignment", f"user {i} is assigned {row} edge nodes"))

    for j in range(m):
        en = scenario.ens[j]
        used_b = float(np.sum(x[:, j] * b[:, j]))
        if used_b > en.bandwidth_hz:
            out.append(Violation("en-bandwidth-cap", f"edge node {j} bandwidth {used_b} > {en.bandwidth_hz}"))
        used_w = int(np.sum(x[:, j] * w[:, j]))
        if used_w > en.compute_units:
            out.append(Violation("en-compute-cap", f"edge node {j} compute {used_w} > {en.compute_units}"))
        if en.power_pool_w is not None:
            used_p = float(np.sum(x[:, j] * p[:, j]))
            if used_p > en.power_pool_w:
                out.append(Violation("en-power-pool", f"edge node {j} power {used_p} > {en.power_pool_w}"))

    for i, ue in enumerate(scenario.ues):
        assigned_level = int(np.sum(x[i] * [en.security_level for en in scenario.ens]))
        if assigned_level > ue.security_level:
            out.append(
                Violation(
                    "security-level",
                    f"user {i} (level {ue.security_level}) assigned level-{assigned_level} edge node",
                )
            )

    for i, thr in enumerate(plan.thresholds):
        if not (0.0 < thr.lower <= thr.upper < 1.0):
            out.append(Violation("threshold-range", f"user {i} thresholds out of range"))

    for i, ue in enumerate(scenario.ues):
        b_i = float(np.sum(x[i] * b[i]))
        p_i = float(np.sum(x[i] * p[i]))
        alloc = linkmod.LinkAllocation(bandwidth_hz=b_i, power_w=p_i)
        try:
            t_off = linkmod.offload_time(ue.demand, alloc, ue.channel)
        except linkmod.InsecureLinkError:
            out.append(Violation("deadline", f"user {i} link is insecure (zero secure rate)"))
            continue
        if t_off > ue.demand.deadline_s:
            out.append(
                Violation("deadline", f"user {i} offload time {t_off:.6g}s exceeds {ue.demand.deadline_s}s")
            )

    for i, ue in enumerate(scenario.ues):
        counts, _ = evaluate(ue.stream, plan.thresholds[i])
        granted = int(np.sum(x[i] * w[i]))
        if counts.offloaded > granted:
            out.append(
                Violation(
                    "offload-compute",
                    f"user {i} offloads {counts.offloaded} events but holds {granted} compute units",
                )
            )

    return out


def weighted_log_objective(weights: Sequence[float], utilities: Sequence[float]) -> float:
    """Sum of weight * ln(utility), flooring each utility at LOG_UTILITY_FLOOR."""
    if len(weights) != len(utilities):
        raise ValueError("weights and utilities must align")
    return sum(
        w * math.log(max(u, LOG_UTILITY_FLOOR)) for w, u in zip(weights, utilities)
    )


def per_user_utilities(plan: AllocationPlan, scenario: Scenario) -> list[float]:
    """Exact per-user utilities under the plan's thresholds."""
    values = []
    for ue, thr in zip(scenario.ues, plan.thresholds):
        _, report = evaluate(ue.stream, thr)
        if report.utility is None:
            raise UndefinedMetricError("utility undefined: a UE stream has no critical events")
        values.append(report.utility)
    return values


def objective(plan: AllocationPlan, scenario: Scenario) -> float:
    """Weighted sum of log utilities, floored inside the logarithm only."""
    _shape_or_raise(plan, scenario)
    return weighted_log_objective(
        [ue.weight for ue in scenario.ues], per_user_utilities(plan, scenario)
    )


def _split_rows(rows: Sequence[Sequence[float]], capacity: int) -> list[int]:
    """Exact split of `capacity` units maximizing the sum of `rows[u][units]`.

    Backward (max,+) recurrence over (user, remaining units); each row must
    cover 0..capacity.  A strict `>` keeps the first best, so ties give the
    smallest allocation to the earlier user.
    """
    after = [0.0] * (capacity + 1)
    choices = []
    for row in reversed(rows):
        best, choice = [], []
        for remaining in range(capacity + 1):
            top_value = -math.inf
            top_units = 0
            for units in range(remaining + 1):
                value = row[units] + after[remaining - units]
                if value > top_value:
                    top_value = value
                    top_units = units
            best.append(top_value)
            choice.append(top_units)
        after = best
        choices.append(choice)
    allocation = []
    for choice in reversed(choices):
        allocation.append(choice[capacity])
        capacity -= allocation[-1]
    return allocation


def _log_row(weight: float, curve: UtilityCurve, capacity: int) -> list[float]:
    """`weight*log(max(u(k), floor))` for k = 0..capacity."""
    return [weight * math.log(max(curve.value(k), LOG_UTILITY_FLOOR)) for k in range(capacity + 1)]


def allocate_compute_dp(
    weights: Sequence[float], curves: Sequence[UtilityCurve], capacity: int
) -> list[int]:
    """Exact integer compute split maximizing the weighted log-utility sum.

    Builds each user's `w*log(max(u(k), floor))` row for k = 0..capacity
    and runs the `_split_rows` recurrence; ties keep the smallest
    allocation for the earlier-indexed user.
    """
    if capacity < 0:
        raise ValueError("capacity must be >= 0")
    if len(weights) != len(curves):
        raise ValueError("weights and curves must align")
    return _split_rows([_log_row(w, curve, capacity) for w, curve in zip(weights, curves)], capacity)


def _min_bandwidth(scenario: Scenario, ue: UEProfile) -> tuple[float | None, str | None]:
    """Minimum deadline-meeting bandwidth at full power, or None and the cause."""
    if scenario.power_cap_w <= 0.0:
        return None, "zero power cap"
    if scenario.bandwidth_cap_hz <= 0.0:
        return None, "zero bandwidth cap"
    try:
        return (
            linkmod.min_bandwidth_for_deadline(
                ue.channel, scenario.power_cap_w, ue.demand, scenario.bandwidth_cap_hz
            ),
            None,
        )
    except linkmod.InsecureLinkError:
        return None, "insecure link"
    except linkmod.DeadlineInfeasibleError:
        return None, "deadline unreachable within the bandwidth cap"


def _node_groups(assignment: Sequence[int], m: int) -> list[list[int]]:
    """Users of each edge node, in ascending user order."""
    groups: list[list[int]] = [[] for _ in range(m)]
    for i, j in enumerate(assignment):
        groups[j].append(i)
    return groups


class _SolveState:
    """Per-user facts of one scenario and the memo of its compute splits.

    Built once per solve and read by the assignment search and the bound.
    Each user is bisected once for its deadline bandwidth `min_bw` (or the
    failure `causes`), which fixes its security- and bandwidth-feasible
    edge nodes.  The curves (the caller's, which must reach min(total
    units, stream length), or built on first use) and a per-user table of
    `w*log(max(u(k), floor))` for k = 0..total units are fixed for the
    solve, so a split depends only on the capacity and the users sharing
    it: splits are keyed by (capacity, users) and each is computed once by
    `_split_rows` on the users' table rows, built by the same `_log_row` as
    `allocate_compute_dp`.  Objectives are summed from the table in user
    order, the same floats as `weighted_log_objective`.
    """

    def __init__(self, scenario: Scenario, curves: Sequence[UtilityCurve] | None = None):
        self.scenario = scenario
        self.weights = [ue.weight for ue in scenario.ues]
        self.total_units = sum(en.compute_units for en in scenario.ens)
        needs = [_min_bandwidth(scenario, ue) for ue in scenario.ues]
        self.min_bw = [need for need, _ in needs]
        self.causes = [cause for _, cause in needs]
        self.feasible = [
            [
                j for j, en in enumerate(scenario.ens)
                if not (
                    en.security_level > ue.security_level
                    or need > en.bandwidth_hz
                    or en.power_pool_w is not None and scenario.power_cap_w > en.power_pool_w
                )
            ]
            if need is not None else []
            for ue, need in zip(scenario.ues, self.min_bw)
        ]
        if curves is not None:
            self.curves = curves
        self._splits: dict[tuple[int, int], list[int]] = {}

    @functools.cached_property
    def curves(self) -> Sequence[UtilityCurve]:
        return [
            utility_curve(ue.stream, min(self.total_units, len(ue.stream)))
            for ue in self.scenario.ues
        ]

    @functools.cached_property
    def _log_values(self) -> list[list[float]]:
        # lookups past a curve's max_budget clamp, which is exact only when
        # it covers the stream, so a caller's shorter curve is rejected
        for i, (ue, curve) in enumerate(zip(self.scenario.ues, self.curves)):
            needed = min(self.total_units, len(ue.stream))
            if curve.max_budget < needed:
                raise ValueError(
                    f"user {i}: utility curve covers budgets up to {curve.max_budget}, "
                    f"the solve needs {needed}"
                )
        return [_log_row(w, curve, self.total_units) for w, curve in zip(self.weights, self.curves)]

    def require_solvable(self) -> None:
        """Raise unless there are users and edge nodes and each user has a feasible node."""
        if not self.scenario.ues or not self.scenario.ens:
            raise ValueError("scenario must have at least one UE and one EN")
        blocked = [i for i, options in enumerate(self.feasible) if not options]
        if blocked:
            detail = "; ".join(
                f"user {i}: {self.causes[i] or 'no edge node clears security and bandwidth'}"
                for i in blocked
            )
            raise InfeasibleScenarioError(f"infeasible scenario: {detail}", blocking_users=blocked)

    def split(self, users: Sequence[int], capacity: int) -> list[int]:
        """Exact compute split of `capacity` among `users` (ascending)."""
        key = (capacity, tuple(users))
        split = self._splits.get(key)
        if split is None:
            split = _split_rows([self._log_values[i] for i in users], capacity)
            self._splits[key] = split
        return split

    def overloads(self, groups: Sequence[Sequence[int]]) -> int:
        """Edge-node bandwidth and power-pool capacities exceeded by the groups."""
        count = 0
        min_bw, power_cap = self.min_bw, self.scenario.power_cap_w
        for users, en in zip(groups, self.scenario.ens):
            if not users:
                continue
            if sum(min_bw[i] for i in users) > en.bandwidth_hz:
                count += 1
            if en.power_pool_w is not None and len(users) * power_cap > en.power_pool_w:
                count += 1
        return count

    def value(self, groups: Sequence[Sequence[int]]) -> tuple[float, list[int]]:
        """(objective, per-user compute units) with each node's units split exactly."""
        units = [0] * len(self.weights)
        for users, en in zip(groups, self.scenario.ens):
            if users:
                for i, w in zip(users, self.split(users, en.compute_units)):
                    units[i] = w
        return sum(row[k] for row, k in zip(self._log_values, units)), units


def _greedy_assignment(state: _SolveState) -> list[int]:
    """Start each user on the roomiest feasible node, preferring stricter security."""
    scenario, power_cap = state.scenario, state.scenario.power_cap_w
    remaining_bw = [en.bandwidth_hz for en in scenario.ens]
    pools = [en.power_pool_w for en in scenario.ens]
    users = [0] * len(scenario.ens)
    assignment = []
    for i, need in enumerate(state.min_bw):
        ranked = sorted(
            state.feasible[i],
            key=lambda j: (-scenario.ens[j].compute_units, scenario.ens[j].security_level, j),
        )
        # the power test is `_SolveState.overloads`' predicate for one more user
        fits = (
            j for j in ranked
            if need <= remaining_bw[j] and (pools[j] is None or (users[j] + 1) * power_cap <= pools[j])
        )
        pick = next(fits, ranked[0])  # no fit: an overloaded start that local moves may repair
        assignment.append(pick)
        remaining_bw[pick] -= need
        users[pick] += 1
    return assignment


def assignment_search(
    scenario: Scenario,
    utility_curves: Sequence[UtilityCurve],
    mode: str = "exhaustive",
    *,
    _state: _SolveState | None = None,
) -> np.ndarray:
    """Pick one edge node per user maximizing the weighted log-utility sum.

    Raises `ValueError` without users or edge nodes, and
    `InfeasibleScenarioError` naming each user with no feasible node and its
    cause; then `ValueError` naming a user whose curve stops short of
    min(total units, stream length).  Exhaustive mode enumerates every
    security-feasible combination (guarded to 2^20; beyond that it silently
    falls back to local mode), skips those that overload an edge node's
    bandwidth or power pool before splitting any compute, and keeps the
    first best.  Local mode starts from the greedy assignment and applies
    single-user reassignment moves until none improves.  Per-node compute splits are memoised for the call, or
    for the whole solve when the solver passes its `_state`.
    """
    if mode not in ("exhaustive", "local"):
        raise ValueError("mode must be 'exhaustive' or 'local'")
    n, m = len(scenario.ues), len(scenario.ens)
    state = _state if _state is not None else _SolveState(scenario, utility_curves)
    state.require_solvable()

    if mode == "exhaustive" and n * math.log2(m) <= _EXHAUSTIVE_GUARD_BITS:
        def combo_value(combo: Sequence[int]) -> float:
            groups = _node_groups(combo, m)
            return -math.inf if state.overloads(groups) else state.value(groups)[0]

        # max keeps the first of equal maxima, so ties go to the earliest combination
        chosen = list(max(itertools.product(*state.feasible), key=combo_value))
        if state.overloads(_node_groups(chosen, m)):
            raise InfeasibleScenarioError(
                "no assignment satisfies edge-node bandwidth and power capacities"
            )
    else:
        def score(assignment: Sequence[int]) -> tuple[int, float]:
            groups = _node_groups(assignment, m)
            return -state.overloads(groups), state.value(groups)[0]

        chosen = _greedy_assignment(state)
        best = score(chosen)
        # each sweep strictly raises (-overloads, value), so no assignment
        # repeats, and there are finitely many: the loop ends
        while True:
            best_move = None
            for i in range(n):
                for j in state.feasible[i]:
                    if j == chosen[i]:
                        continue
                    candidate = chosen.copy()
                    candidate[i] = j
                    c_score = score(candidate)
                    if c_score > best:
                        best = c_score
                        best_move = (i, j)
            if best_move is None:
                break
            chosen[best_move[0]] = best_move[1]
        if best[0] < 0:
            raise InfeasibleScenarioError(
                "local search found no assignment within edge-node capacities"
            )

    x = np.zeros((n, m), dtype=int)
    for i, j in enumerate(chosen):
        x[i, j] = 1
    return x


def solve_alternating(
    scenario: Scenario, opts: SolveOptions | None = None
) -> tuple[AllocationPlan, SolveReport]:
    """Solve thresholds, assignment and resources in one pass.

    Per-user exact threshold selection is precomputed as a budget-indexed
    utility curve; one assignment search then picks the edge nodes, and
    each node's compute units are split exactly.  This one pass is already
    the fixed point of alternating between the blocks: the curves depend
    only on the streams, never on the assignment or the split, so a second
    round would search the same curves again and return the same
    assignment (the exhaustive optimum, or a local optimum that has no
    improving move).  The returned plan's objective is itself a lower bound
    on the optimum; the report adds the pooled upper bound and the
    certified gap between the two.
    """
    opts = opts or SolveOptions()
    n, m = len(scenario.ues), len(scenario.ens)
    state = _SolveState(scenario)
    state.require_solvable()
    curves = state.curves
    x = assignment_search(scenario, curves, opts.mode, _state=state)
    assignment = [int(np.argmax(x[i])) for i in range(n)]
    final, units = state.value(_node_groups(assignment, m))

    bandwidth = np.zeros((n, m))
    power = np.zeros((n, m))
    compute = np.zeros((n, m), dtype=int)
    thresholds = []
    for i, j in enumerate(assignment):
        bandwidth[i, j] = state.min_bw[i]
        power[i, j] = scenario.power_cap_w
        compute[i, j] = units[i]
        thresholds.append(curves[i].pair(units[i]))
    plan = AllocationPlan(
        assignment=x,
        bandwidth_hz=bandwidth,
        power_w=power,
        compute_units=compute,
        thresholds=tuple(thresholds),
    )

    utilities = tuple(curves[i].value(units[i]) for i in range(n))
    ub = upper_bound(scenario, _state=state)

    diagnostics = []
    for i, ue in enumerate(scenario.ues):
        alloc = linkmod.LinkAllocation(bandwidth_hz=state.min_bw[i], power_w=scenario.power_cap_w)
        t_off = linkmod.offload_time(ue.demand, alloc, ue.channel)
        diagnostics.append(
            UserDiagnostics(
                user=i,
                local_energy_j=linkmod.local_inference_energy(ue.energy),
                offload_time_s=t_off,
                offload_energy_j=scenario.power_cap_w * t_off,
            )
        )

    report = SolveReport(
        objective=final,
        per_user_utility=utilities,
        upper_bound=ub,
        certified_gap_pct=_certified_gap_pct(final, ub),
        diagnostics=tuple(diagnostics),
    )
    return plan, report


def _certified_gap_pct(objective: float, upper: float) -> float | None:
    """Shortfall of `objective` below the bound in % of |upper|: 0.0 within
    1e-12*|upper|, None for a zero bound, negative (never clamped) above it."""
    if abs(upper - objective) <= 1e-12 * abs(upper):
        return 0.0
    if upper == 0.0:
        return None
    return (upper - objective) / abs(upper) * 100.0


def lower_bound(scenario: Scenario) -> float:
    """Objective of the solved plan: any feasible plan's value bounds the optimum."""
    return solve_alternating(scenario)[1].objective


def upper_bound(scenario: Scenario, *, _state: _SolveState | None = None) -> float:
    """Bound from pooling every edge node's compute units among all users.

    Every user whose link meets its deadline within the caps shares the
    pooled units, split exactly; a user whose link fails contributes the
    floor utility.  The bound drops the assignment, security clearances and
    the edge nodes' bandwidth and power pools, so it holds for every
    feasible plan.  A solve passes its `_state`, whose splits the bound reuses.
    """
    if not scenario.ues:
        return 0.0
    state = _state if _state is not None else _SolveState(scenario)
    served = [i for i, need in enumerate(state.min_bw) if need is not None]
    floored = [i for i, need in enumerate(state.min_bw) if need is None]
    split = state.split(served, state.total_units)
    total = sum(state._log_values[i][w] for i, w in zip(served, split))
    total += sum(state.weights[i] * math.log(LOG_UTILITY_FLOOR) for i in floored)
    return total


def fairness_check(
    utilities: Sequence[float],
    alternatives: Sequence[Sequence[float]],
    weights: Sequence[float],
) -> np.ndarray:
    """Weighted aggregate proportional change toward each alternative.

    The solution is proportionally fair with respect to the sampled
    alternatives when every aggregate is <= 1e-9.
    """
    u = np.asarray(utilities, dtype=float)
    w = np.asarray(weights, dtype=float)
    if u.shape != w.shape:
        raise ValueError("utilities and weights must align")
    if np.any(u <= 0.0):
        raise ValueError("all utilities must be > 0")
    out = []
    for alt in alternatives:
        a = np.asarray(alt, dtype=float)
        if a.shape != u.shape:
            raise ValueError("alternative utility vector has wrong length")
        out.append(float(np.sum(w * (a - u) / u)))
    return np.asarray(out)
