import collections
import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fairedge import fairopt, oracle
from fairedge.exitpolicy import (
    ThresholdPair,
    UtilityCurve,
    evaluate,
    optimal_thresholds,
    utility_curve,
)
from fairedge.fairopt import (
    LOG_UTILITY_FLOOR,
    AllocationPlan,
    ENProfile,
    InfeasibleScenarioError,
    Scenario,
    SolveOptions,
    UEProfile,
    allocate_compute_dp,
    assignment_search,
    check_feasibility,
    fairness_check,
    lower_bound,
    objective,
    solve_alternating,
    upper_bound,
    weighted_log_objective,
    _certified_gap_pct,
    _greedy_assignment,
    _node_groups,
    _SolveState,
)
from fairedge.link import ChannelState, EnergyModel, OffloadDemand
from fairedge.scenario import random_scenario
from fairedge.trace import CRITICAL, NORMAL, EventStream, GeneratorParams, generate_stream


def clear_channel(gain=1e-5):
    return ChannelState(
        gain=gain, noise_psd=1e-13, eavesdropper_gain=0.0, eavesdropper_noise_psd=1e-13
    )


def blocked_channel():
    return ChannelState(
        gain=1e-6, noise_psd=1e-13, eavesdropper_gain=2e-6, eavesdropper_noise_psd=1e-13
    )


def make_stream(rows, start_id=0):
    return EventStream(
        event_ids=np.arange(start_id, start_id + len(rows)),
        critical=[label == CRITICAL for label, _ in rows],
        scores=[confs for _, confs in rows],
    )


def make_ue(stream=None, weight=1.0, level=1, channel=None, deadline=0.5, bits=1e4):
    if stream is None:
        stream = make_stream([(CRITICAL, (0.9, 0.9)), (NORMAL, (0.1, 0.1))])
    return UEProfile(
        weight=weight,
        security_level=level,
        demand=OffloadDemand(feature_size_bits=bits, deadline_s=deadline),
        channel=channel or clear_channel(),
        energy=EnergyModel(joules_per_access=1e-9, access_counts=(1000, 2000)),
        stream=stream,
    )


def make_en(bandwidth=5e6, units=8, level=1, pool=None):
    return ENProfile(
        bandwidth_hz=bandwidth, compute_units=units, security_level=level, power_pool_w=pool
    )


def make_scenario(ues, ens, levels=2):
    return Scenario(
        ues=tuple(ues),
        ens=tuple(ens),
        bandwidth_cap_hz=2e6,
        power_cap_w=0.1,
        security_levels=levels,
    )


def solver_inputs(scenario):
    """Utility curves and per-user deadline bandwidths as a solve builds them."""
    min_bw = _SolveState(scenario).min_bw
    assert all(bw is not None for bw in min_bw)
    total_units = sum(en.compute_units for en in scenario.ens)
    curves = [utility_curve(ue.stream, min(total_units, len(ue.stream)))
              for ue in scenario.ues]
    return curves, min_bw


def state_value(state, assignment):
    """(overloads, objective, units) for one assignment, read from a solve state."""
    groups = _node_groups(assignment, len(state.scenario.ens))
    return (state.overloads(groups), *state.value(groups))


def fresh_assignment_value(assignment, scenario, curves, min_bw):
    """(overloads, objective, units) with every node's split computed anew."""
    units = [0] * len(scenario.ues)
    overloads = 0
    for j, en in enumerate(scenario.ens):
        users = [i for i, node in enumerate(assignment) if node == j]
        if not users:
            continue
        if sum(min_bw[i] for i in users) > en.bandwidth_hz:
            overloads += 1
        if en.power_pool_w is not None and len(users) * scenario.power_cap_w > en.power_pool_w:
            overloads += 1
        split = allocate_compute_dp(
            [scenario.ues[i].weight for i in users], [curves[i] for i in users], en.compute_units
        )
        for i, w in zip(users, split):
            units[i] = w
    value = weighted_log_objective(
        [ue.weight for ue in scenario.ues], [curves[i].value(units[i]) for i in range(len(units))]
    )
    return overloads, value, units


class TestCheckFeasibility:
    def test_valid_single_pair_plan_is_feasible(self):
        scenario = make_scenario([make_ue()], [make_en()])
        plan, _ = solve_alternating(scenario)
        assert check_feasibility(plan, scenario) == []

    def test_unassigned_user_is_flagged(self):
        scenario = make_scenario([make_ue()], [make_en()])
        plan = AllocationPlan(
            assignment=np.zeros((1, 1), dtype=int),
            bandwidth_hz=np.zeros((1, 1)),
            power_w=np.zeros((1, 1)),
            compute_units=np.zeros((1, 1), dtype=int),
            thresholds=(ThresholdPair(0.2, 0.8),),
        )
        tags = {v.constraint for v in check_feasibility(plan, scenario)}
        assert "single-assignment" in tags

    def test_clearance_mismatch_is_flagged(self):
        # level 1 is the strictest requirement; a level-2 node may not serve it
        scenario = make_scenario([make_ue(level=1)], [make_en(level=2)], levels=2)
        plan = AllocationPlan(
            assignment=np.ones((1, 1), dtype=int),
            bandwidth_hz=np.full((1, 1), 1e5),
            power_w=np.full((1, 1), 0.1),
            compute_units=np.full((1, 1), 2, dtype=int),
            thresholds=(ThresholdPair(0.2, 0.8),),
        )
        tags = {v.constraint for v in check_feasibility(plan, scenario)}
        assert "security-level" in tags

    def test_capacity_and_cap_violations(self):
        scenario = make_scenario([make_ue()], [make_en(bandwidth=1e5, units=1)])
        plan = AllocationPlan(
            assignment=np.ones((1, 1), dtype=int),
            bandwidth_hz=np.full((1, 1), 3e6),  # above pair cap and node capacity
            power_w=np.full((1, 1), 0.5),  # above power cap
            compute_units=np.full((1, 1), 4, dtype=int),  # above node units
            thresholds=(ThresholdPair(0.2, 0.8),),
        )
        tags = {v.constraint for v in check_feasibility(plan, scenario)}
        assert {"pair-bandwidth-cap", "pair-power-cap", "en-bandwidth-cap", "en-compute-cap"} <= tags

    def test_offload_demand_violation(self):
        # thresholds that offload both events but only one compute unit granted
        stream = make_stream([(CRITICAL, (0.9, 0.9)), (NORMAL, (0.95, 0.9))])
        scenario = make_scenario([make_ue(stream=stream)], [make_en(units=1)])
        plan = AllocationPlan(
            assignment=np.ones((1, 1), dtype=int),
            bandwidth_hz=np.full((1, 1), 1e5),
            power_w=np.full((1, 1), 0.1),
            compute_units=np.full((1, 1), 1, dtype=int),
            thresholds=(ThresholdPair(0.2, 0.8),),
        )
        tags = {v.constraint for v in check_feasibility(plan, scenario)}
        assert "offload-compute" in tags

    def test_insecure_link_is_a_deadline_violation(self):
        scenario = make_scenario([make_ue(channel=blocked_channel())], [make_en()])
        plan = AllocationPlan(
            assignment=np.ones((1, 1), dtype=int),
            bandwidth_hz=np.full((1, 1), 1e5),
            power_w=np.full((1, 1), 0.1),
            compute_units=np.full((1, 1), 2, dtype=int),
            thresholds=(ThresholdPair(0.2, 0.8),),
        )
        violations = check_feasibility(plan, scenario)
        deadline = [v for v in violations if v.constraint == "deadline"]
        assert deadline and "insecure" in deadline[0].message

    def test_inactive_pair_with_resources_flagged(self):
        scenario = make_scenario([make_ue()], [make_en(), make_en()])
        plan = AllocationPlan(
            assignment=np.array([[1, 0]]),
            bandwidth_hz=np.array([[1e5, 1e5]]),
            power_w=np.array([[0.1, 0.0]]),
            compute_units=np.array([[2, 0]]),
            thresholds=(ThresholdPair(0.2, 0.8),),
        )
        tags = {v.constraint for v in check_feasibility(plan, scenario)}
        assert "inactive-pair" in tags

    def test_dimension_mismatch_rejected(self):
        scenario = make_scenario([make_ue()], [make_en()])
        plan = AllocationPlan(
            assignment=np.ones((2, 1), dtype=int),
            bandwidth_hz=np.zeros((2, 1)),
            power_w=np.zeros((2, 1)),
            compute_units=np.zeros((2, 1), dtype=int),
            thresholds=(ThresholdPair(0.2, 0.8), ThresholdPair(0.2, 0.8)),
        )
        with pytest.raises(ValueError):
            check_feasibility(plan, scenario)


class TestObjective:
    def test_all_unit_utilities_give_zero(self):
        assert weighted_log_objective([1.0, 2.0, 0.5], [1.0, 1.0, 1.0]) == 0.0

    def test_single_user_weight_two_at_inverse_e(self):
        assert weighted_log_objective([2.0], [math.exp(-1.0)]) == pytest.approx(-2.0)

    def test_two_user_value_against_direct_log(self):
        value = weighted_log_objective([1.0, 1.0], [0.5, 0.8])
        assert value == pytest.approx(-0.916290731874155, abs=1e-12)

    def test_floor_applies_inside_logarithm_only(self):
        assert weighted_log_objective([1.0], [0.0]) == pytest.approx(math.log(LOG_UTILITY_FLOOR))

    def test_plan_objective_uses_evaluated_utilities(self):
        stream = make_stream([(CRITICAL, (0.9, 0.9)), (CRITICAL, (0.5, 0.4)), (NORMAL, (0.1, 0.2))])
        scenario = make_scenario([make_ue(stream=stream, weight=1.5)], [make_en()])
        plan, report = solve_alternating(scenario)
        assert objective(plan, scenario) == report.objective


class TestAllocateComputeDp:
    @staticmethod
    def step_curve(values):
        return UtilityCurve(
            utilities=np.asarray(values, dtype=float),
            pairs=tuple(ThresholdPair(0.5, 0.5) for _ in values),
        )

    def test_single_user_takes_what_helps(self):
        curve = self.step_curve([0.0, 0.5, 1.0, 1.0, 1.0])
        assert allocate_compute_dp([1.0], [curve], 4) == [2]

    def test_unit_goes_to_the_user_who_gains(self):
        flat = self.step_curve([0.4, 0.4])
        gains = self.step_curve([0.1, 0.9])
        assert allocate_compute_dp([1.0, 1.0], [flat, gains], 1) == [0, 1]

    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(23)
        for _ in range(12):
            users = int(rng.integers(2, 5))
            capacity = int(rng.integers(2, 7))
            weights = [float(rng.uniform(0.5, 2.0)) for _ in range(users)]
            curves = [
                self.step_curve(np.sort(rng.uniform(0.0, 1.0, size=capacity + 1)))
                for _ in range(users)
            ]
            split = allocate_compute_dp(weights, curves, capacity)
            assert sum(split) <= capacity
            got = weighted_log_objective(weights, [c.value(w) for c, w in zip(curves, split)])
            best = max(
                weighted_log_objective(weights, [c.value(w) for c, w in zip(curves, combo)])
                for combo in itertools.product(range(capacity + 1), repeat=users)
                if sum(combo) <= capacity
            )
            assert got == best

    def test_tie_break_gives_smaller_units_to_earlier_user(self):
        same = self.step_curve([0.2, 0.8])
        split = allocate_compute_dp([1.0, 1.0], [same, same], 1)
        assert split == [0, 1]

    def test_empty_input(self):
        assert allocate_compute_dp([], [], 5) == []


class TestAssignmentSearch:
    def test_single_node_gets_everyone(self):
        scenario = make_scenario([make_ue(), make_ue()], [make_en()])
        curves = [utility_curve(ue.stream, 4) for ue in scenario.ues]
        x = assignment_search(scenario, curves)
        assert np.array_equal(x, np.ones((2, 1), dtype=int))

    def test_exhaustive_matches_oracle_on_two_by_two(self):
        for seed in range(5):
            scenario = random_scenario(
                2, 2, 100 + seed, compute_range=(2, 6), event_count_range=(15, 25), layer_counts=(3,)
            )
            plan, report = solve_alternating(scenario, SolveOptions(mode="exhaustive"))
            _, brute = oracle.brute_force_plan(scenario)
            assert report.objective == pytest.approx(brute, abs=1e-9)

    def test_local_mode_is_single_move_optimal(self):
        scenario = random_scenario(3, 2, 7, compute_range=(2, 6), event_count_range=(15, 25))
        curves = [utility_curve(ue.stream, sum(en.compute_units for en in scenario.ens))
                  for ue in scenario.ues]
        x = assignment_search(scenario, curves, mode="local")
        state = _SolveState(scenario, curves)
        chosen = [int(np.argmax(x[i])) for i in range(3)]
        over, value, _ = state_value(state, chosen)
        assert over == 0
        for i in range(3):
            for j in range(2):
                if j == chosen[i]:
                    continue
                alt = chosen.copy()
                alt[i] = j
                if scenario.ens[j].security_level > scenario.ues[i].security_level:
                    continue
                o2, v2, _ = state_value(state, alt)
                assert o2 > 0 or v2 <= value + 1e-12

    def test_greedy_start_fills_a_power_pool_as_far_as_overloads_allows(self):
        # 0.5 // 0.1 == 4.0, yet five 0.1-W users fit a 0.5-W pool (5 * 0.1 > 0.5 is False)
        ues = [make_ue() for _ in range(7)]
        scenario = make_scenario(ues, [make_en(units=8, pool=0.5), make_en(units=4)], levels=1)
        state = _SolveState(scenario)
        start = _greedy_assignment(state)
        assert start == [0] * 5 + [1] * 2
        assert state.overloads(_node_groups(start, 2)) == 0

    def test_blocked_user_raises_with_its_index(self):
        scenario = make_scenario([make_ue(), make_ue(channel=blocked_channel())], [make_en()])
        curves = [utility_curve(ue.stream, 4) for ue in scenario.ues]
        with pytest.raises(InfeasibleScenarioError, match="user 1: insecure link") as err:
            assignment_search(scenario, curves)
        assert err.value.blocking_users == [1]

    def test_users_without_nodes_are_a_value_error(self):
        # even though every user is then blocked, the empty node set is reported
        scenario = make_scenario([make_ue(), make_ue()], [])
        curves = [utility_curve(ue.stream, 4) for ue in scenario.ues]
        with pytest.raises(ValueError, match="at least one UE and one EN"):
            assignment_search(scenario, curves)
        with pytest.raises(ValueError, match="at least one UE and one EN"):
            solve_alternating(scenario)

    def test_short_caller_curve_is_rejected_not_clamped(self):
        # clamped at budget 2, the 8-unit node looks no better than the 2-unit one
        params = GeneratorParams(
            layer_count=3, critical_prior=0.5, critical_drift=0.8, normal_drift=-0.8,
            noise_std=0.6, seed=5,
        )
        stream = generate_stream(params, 30)
        scenario = make_scenario([make_ue(stream=stream)], [make_en(units=2), make_en(units=8)])
        full = utility_curve(stream, 10)
        assert assignment_search(scenario, [full]).tolist() == [[0, 1]]
        assert full.value(8) > full.value(2)
        for short in (2, 9):
            with pytest.raises(ValueError, match=f"user 0: utility curve covers budgets up to {short}"):
                assignment_search(scenario, [utility_curve(stream, short)])
            with pytest.raises(ValueError, match="user 0"):
                _SolveState(scenario, [utility_curve(stream, short)]).split([0], 8)

    def test_short_curve_check_runs_after_the_feasibility_gate(self):
        short = utility_curve(make_ue().stream, 0)
        blocked = make_scenario([make_ue(), make_ue(channel=blocked_channel())], [make_en()])
        with pytest.raises(InfeasibleScenarioError, match="user 1: insecure link"):
            assignment_search(blocked, [short, short])
        with pytest.raises(ValueError, match="at least one UE and one EN"):
            assignment_search(make_scenario([make_ue()], []), [short])

    def test_exhaustive_ties_keep_the_first_combination(self):
        # (0, 1) and (1, 0) give both users one unit and the same objective
        scenario = make_scenario([make_ue(), make_ue()], [make_en(units=1), make_en(units=1)])
        curves, _ = solver_inputs(scenario)
        x = assignment_search(scenario, curves, "exhaustive")
        assert [int(np.argmax(row)) for row in x] == [0, 1]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_exhaustive_past_the_guard_runs_local_search(self, seed):
        # 21 users on 2 nodes is 2^21 combinations, past the 2^20 guard
        scenario = random_scenario(21, 2, seed)
        curves, _ = solver_inputs(scenario)
        exhaustive = assignment_search(scenario, curves, "exhaustive")
        assert np.array_equal(exhaustive, assignment_search(scenario, curves, "local"))

    def test_memoised_value_matches_fresh_recomputation(self):
        rng = np.random.default_rng(31)
        for seed in range(4):
            scenario = random_scenario(5, 3, 700 + seed, power_pool_probability=0.5)
            curves, min_bw = solver_inputs(scenario)
            n, m = len(scenario.ues), len(scenario.ens)
            for mode in ("exhaustive", "local"):
                state = _SolveState(scenario, curves)
                assignment_search(scenario, curves, mode, _state=state)
                for _ in range(40):
                    assignment = [int(rng.integers(m)) for _ in range(n)]
                    got = state_value(state, assignment)
                    assert got == fresh_assignment_value(assignment, scenario, curves, min_bw)

    def test_exhaustive_matches_plain_enumeration_under_tight_bandwidth(self):
        searched = 0
        for seed in range(8):
            base = random_scenario(5, 3, 800 + seed)
            _, min_bw = solver_inputs(base)
            # room for about two users per node, so many combinations overload
            tight = 2.2 * float(np.median(min_bw))
            scenario = dataclasses.replace(
                base, ens=tuple(dataclasses.replace(en, bandwidth_hz=tight) for en in base.ens)
            )
            curves, _ = solver_inputs(scenario)
            n, m = len(scenario.ues), len(scenario.ens)
            best_value, best_combo, overloaded = None, None, 0
            for combo in itertools.product(range(m), repeat=n):
                if any(scenario.ens[j].security_level > scenario.ues[i].security_level
                       for i, j in enumerate(combo)):
                    continue
                over, value, _ = fresh_assignment_value(combo, scenario, curves, min_bw)
                if over:
                    overloaded += 1
                    continue
                if best_value is None or value > best_value:
                    best_value, best_combo = value, combo
            assert overloaded > 0
            if best_combo is None:
                with pytest.raises(InfeasibleScenarioError):
                    assignment_search(scenario, curves)
                continue
            x = assignment_search(scenario, curves)
            assert [int(np.argmax(row)) for row in x] == list(best_combo)
            searched += 1
        assert searched >= 4


class TestSolveAlternating:
    def test_single_pair_unconstrained_matches_exact_selection(self):
        params = GeneratorParams(
            layer_count=3, critical_prior=0.4, critical_drift=0.8,
            normal_drift=-0.8, noise_std=0.4, seed=3,
        )
        stream = generate_stream(params, 30)
        scenario = make_scenario([make_ue(stream=stream)], [make_en(units=len(stream))])
        plan, report = solve_alternating(scenario)
        _, best = optimal_thresholds(stream, len(stream))
        assert report.per_user_utility[0] == best
        _, rep = evaluate(stream, plan.thresholds[0])
        assert rep.utility == best

    def test_returned_plans_always_pass_the_checker(self):
        for seed in range(6):
            scenario = random_scenario(3, 2, 200 + seed)
            plan, _ = solve_alternating(scenario)
            assert check_feasibility(plan, scenario) == []

    def test_one_pass_is_a_fixed_point_of_both_blocks(self):
        for seed in range(6):
            scenario = random_scenario(4, 2, 300 + seed, power_pool_probability=0.5)
            for mode in ("exhaustive", "local"):
                plan, report = solve_alternating(scenario, SolveOptions(mode=mode))
                units = plan.compute_units.sum(axis=1)
                for i, ue in enumerate(scenario.ues):
                    _, utility = optimal_thresholds(ue.stream, int(units[i]))
                    assert utility == report.per_user_utility[i]
                curves, _ = solver_inputs(scenario)
                again = assignment_search(scenario, curves, mode)
                assert np.array_equal(again, plan.assignment)

    def test_objective_never_exceeds_upper_bound(self):
        for seed in range(8):
            scenario = random_scenario(2, 2, 400 + seed)
            _, report = solve_alternating(scenario)
            assert report.objective <= report.upper_bound + 1e-9

    def test_deadline_impossible_scenario_reports_blockers(self):
        ue = make_ue(bits=1e12, deadline=0.001)
        scenario = make_scenario([ue], [make_en()])
        with pytest.raises(InfeasibleScenarioError) as err:
            solve_alternating(scenario)
        assert err.value.blocking_users == [0]

    @pytest.mark.parametrize(
        "cap, cause", [("bandwidth_cap_hz", "zero bandwidth cap"), ("power_cap_w", "zero power cap")]
    )
    def test_zero_cap_blocks_every_user_with_its_cause(self, cap, cause):
        scenario = dataclasses.replace(random_scenario(2, 2, 42), **{cap: 0.0})
        with pytest.raises(InfeasibleScenarioError, match=cause) as err:
            solve_alternating(scenario)
        assert err.value.blocking_users == [0, 1]

    def test_local_and_exhaustive_agree_on_tiny_instances(self):
        for seed in range(5):
            scenario = random_scenario(2, 2, 500 + seed, compute_range=(2, 5))
            _, exh = solve_alternating(scenario, SolveOptions(mode="exhaustive"))
            _, loc = solve_alternating(scenario, SolveOptions(mode="local"))
            assert loc.objective <= exh.objective + 1e-12


class TestSolveLayers:
    @pytest.mark.parametrize(
        "levels, mode", [(1, "exhaustive"), (1, "local"), (2, "exhaustive"), (3, "local")]
    )
    def test_solve_repeats_no_dp_input_and_calls_each_layer_once(self, levels, mode, monkeypatch):
        # counting wrappers on the module attributes the solver calls by name
        dp_inputs = []
        calls = collections.Counter()
        real_dp = fairopt._split_rows

        def counting_dp(rows, capacity):
            # a solve's log-utility rows live for the solve, so their ids name the users
            dp_inputs.append((capacity, tuple(map(id, rows))))
            return real_dp(rows, capacity)

        monkeypatch.setattr(fairopt, "_split_rows", counting_dp)
        layers = ("assignment_search", "upper_bound")
        for name in layers:
            def counting(*args, _name=name, _real=getattr(fairopt, name), **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(fairopt, name, counting)

        scenario = random_scenario(6, 3, 11, security_levels=levels)
        fairopt.solve_alternating(scenario, SolveOptions(mode=mode))
        assert dp_inputs
        assert len(set(dp_inputs)) == len(dp_inputs)
        assert calls == {name: 1 for name in layers}


class TestBounds:
    def test_single_node_single_level_bounds_coincide(self):
        stream = make_stream(
            [(CRITICAL, (0.9, 0.9)), (CRITICAL, (0.6, 0.7)), (NORMAL, (0.2, 0.1))]
        )
        scenario = make_scenario([make_ue(stream=stream)], [make_en(units=3)], levels=1)
        assert lower_bound(scenario) == pytest.approx(upper_bound(scenario), abs=1e-12)

    def test_empty_scenario_has_a_zero_upper_bound_and_no_plan(self):
        empty = Scenario(ues=(), ens=(), bandwidth_cap_hz=1e6, power_cap_w=0.1, security_levels=1)
        assert upper_bound(empty) == 0.0
        with pytest.raises(ValueError, match="at least one UE"):
            lower_bound(empty)

    @pytest.mark.parametrize("cap", ["bandwidth_cap_hz", "power_cap_w"])
    def test_zero_cap_floors_every_user_in_the_upper_bound(self, cap):
        scenario = dataclasses.replace(random_scenario(2, 2, 42), **{cap: 0.0})
        floor = sum(ue.weight * math.log(LOG_UTILITY_FLOOR) for ue in scenario.ues)
        assert upper_bound(scenario) == pytest.approx(floor, rel=1e-12)
        with pytest.raises(InfeasibleScenarioError):
            lower_bound(scenario)

    def test_level_without_an_exact_node_is_served_by_a_stricter_node(self):
        # no node has level 2, yet its user may use the level-1 node: nothing is floored
        scenario = make_scenario(
            [make_ue(level=1), make_ue(level=2)], [make_en(level=1)], levels=2
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            plan, report = solve_alternating(scenario)
            assert lower_bound(scenario) == report.objective
            assert upper_bound(scenario) == report.upper_bound
        assert check_feasibility(plan, scenario) == []
        assert min(report.per_user_utility) > LOG_UTILITY_FLOOR
        assert report.objective == pytest.approx(oracle.brute_force_plan(scenario)[1], abs=1e-9)
        assert report.certified_gap_pct is not None and report.certified_gap_pct >= 0.0

    @pytest.mark.parametrize("levels", [1, 2, 3])
    def test_bounds_sandwich_the_exact_optimum(self, levels):
        for seed in range(6):
            scenario = random_scenario(
                3, 2, 700 + seed, security_levels=levels, compute_range=(2, 6),
                event_count_range=(15, 25), power_pool_probability=0.5,
            )
            _, exact = oracle.brute_force_plan(scenario)
            assert lower_bound(scenario) <= exact + 1e-9
            assert exact <= upper_bound(scenario) + 1e-9

    def test_solver_bandwidths_give_the_same_bounds(self):
        for levels in (1, 2, 3):
            for seed in range(4):
                scenario = random_scenario(4, 2, 650 + seed, security_levels=levels)
                _, report = solve_alternating(scenario)
                assert report.objective == lower_bound(scenario)
                assert report.upper_bound == upper_bound(scenario)

    @pytest.mark.parametrize("mode", ["exhaustive", "local"])
    def test_bound_is_not_below_a_plan_that_rounding_makes_tight(self, mode):
        # the pools hold 1.4 W for fourteen 0.1-W users, yet 1.4 - 13 * 0.1 < 0.1 in
        # floats: charging users one by one to a pooled power budget would drop one
        scenario = make_scenario(
            [make_ue() for _ in range(14)], [make_en(units=4, pool=0.4), make_en(units=10, pool=1.0)]
        )
        plan, report = solve_alternating(scenario, SolveOptions(mode=mode))
        assert check_feasibility(plan, scenario) == []
        assert report.upper_bound == 0.0
        assert report.certified_gap_pct == 0.0
        assert oracle.SUITES["sandwich"](0, scenario)[0] is True

    def test_upper_bound_dominates_sampled_feasible_plans(self):
        for seed in range(10):
            scenario = random_scenario(2, 2, 600 + seed)
            ub = upper_bound(scenario)
            plan, report = solve_alternating(scenario)
            assert report.objective <= ub + 1e-9


class TestCertifiedGap:
    @pytest.mark.parametrize(
        "objective, upper, gap",
        [
            (-3.5, -3.5, 0.0),
            (0.0, 0.0, 0.0),
            (-2.0 * (1 + 1e-13), -2.0, 0.0),  # within the 1e-12 margin
            (-2.0, -1.0, 100.0),
            (-1.5, -2.0, -25.0),  # a violation stays negative
            (-1.0, 0.0, None),
        ],
    )
    def test_gap_values(self, objective, upper, gap):
        assert _certified_gap_pct(objective, upper) == gap

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 5),
        m=st.integers(1, 3),
        levels=st.integers(1, 3),
        pools=st.sampled_from([0.0, 0.5, 1.0]),
        mode=st.sampled_from(["exhaustive", "local"]),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_objective_never_exceeds_the_upper_bound(self, n, m, levels, pools, mode, seed):
        scenario = random_scenario(
            n, m, seed, security_levels=levels, power_pool_probability=pools,
            event_count_range=(20, 40),
        )
        try:
            _, report = solve_alternating(scenario, SolveOptions(mode=mode))
        except InfeasibleScenarioError:
            assume(False)
        ub = report.upper_bound
        assert report.objective <= ub + 1e-12 * abs(ub)
        assert report.certified_gap_pct is None or report.certified_gap_pct >= 0.0
        assert report.certified_gap_pct == _certified_gap_pct(report.objective, ub)
        # the bound is every user's share of the pooled units, summed in user order
        curves, _ = solver_inputs(scenario)
        weights = [ue.weight for ue in scenario.ues]
        split = allocate_compute_dp(weights, curves, sum(en.compute_units for en in scenario.ens))
        assert ub == weighted_log_objective(weights, [c.value(k) for c, k in zip(curves, split)])


class TestFairnessCheck:
    def test_identical_vectors_give_zero(self):
        out = fairness_check([0.4, 0.7], [[0.4, 0.7]], [1.0, 2.0])
        assert out.tolist() == [0.0]

    def test_balanced_trade_gives_zero(self):
        out = fairness_check([0.5, 0.5], [[0.6, 0.4]], [1.0, 1.0])
        assert out[0] == pytest.approx(0.0, abs=1e-12)

    def test_weighted_aggregate_value(self):
        out = fairness_check([0.5, 0.8], [[0.55, 0.72]], [1.0, 2.0])
        assert out[0] == pytest.approx(-0.1, abs=1e-12)

    def test_zero_utility_rejected(self):
        with pytest.raises(ValueError):
            fairness_check([0.0, 0.5], [[0.1, 0.5]], [1.0, 1.0])

    def test_dominated_alternatives_never_score_positive(self):
        # Component-wise worse-or-equal alternatives must aggregate <= 0.
        scenario = random_scenario(3, 2, 999, compute_range=(3, 6))
        plan, report = solve_alternating(scenario)
        util = np.asarray(report.per_user_utility)
        if np.any(util <= 0):
            pytest.skip("floored utility; proportional change undefined")
        weights = [ue.weight for ue in scenario.ues]
        rng = np.random.default_rng(1)
        dominated = [util * rng.uniform(0.5, 1.0, size=3) for _ in range(20)]
        aggregates = fairness_check(util, dominated, weights)
        assert np.all(aggregates <= 1e-9)

    def test_discrete_reallocations_are_a_diagnostic_not_an_invariant(self):
        # Moving one integer compute unit can raise the aggregate proportional
        # change even at the log-optimal point; the check must just report it.
        scenario = random_scenario(3, 2, 999, compute_range=(3, 6))
        plan, report = solve_alternating(scenario)
        util = np.asarray(report.per_user_utility)
        if np.any(util <= 0):
            pytest.skip("floored utility; proportional change undefined")
        weights = [ue.weight for ue in scenario.ues]
        curves = [
            utility_curve(ue.stream, sum(en.compute_units for en in scenario.ens))
            for ue in scenario.ues
        ]
        units = [int(plan.compute_units[i].sum()) for i in range(3)]
        node_of = [int(np.argmax(plan.assignment[i])) for i in range(3)]
        alternatives = []
        for give, take in itertools.permutations(range(3), 2):
            if units[take] == 0 or node_of[give] != node_of[take]:
                continue
            shifted = units.copy()
            shifted[take] -= 1
            shifted[give] += 1
            alternatives.append([curves[i].value(shifted[i]) for i in range(3)])
        if not alternatives:
            pytest.skip("no same-node reallocation available")
        aggregates = fairness_check(util, alternatives, weights)
        assert len(aggregates) == len(alternatives)
        assert np.all(np.isfinite(aggregates))
        # the solver optimum still dominates in the weighted log objective
        for alt in alternatives:
            assert weighted_log_objective(weights, alt) <= report.objective + 1e-9
