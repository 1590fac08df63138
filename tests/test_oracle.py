import dataclasses

import numpy as np
import pytest

from fairedge import oracle
from fairedge.exitpolicy import UndefinedMetricError, evaluate, optimal_thresholds
from fairedge.fairopt import InfeasibleScenarioError, SolveOptions, solve_alternating
from fairedge.link import ChannelState, EnergyModel, OffloadDemand
from fairedge.fairopt import ENProfile, Scenario, UEProfile
from fairedge.scenario import random_scenario
from fairedge.trace import EventStream, GeneratorParams, generate_stream


def gen(seed, count=25, layers=3):
    params = GeneratorParams(
        layer_count=layers,
        critical_prior=0.4,
        critical_drift=0.8,
        normal_drift=-0.8,
        noise_std=0.45,
        seed=seed,
    )
    return generate_stream(params, count)


class TestBruteForceThresholds:
    def test_never_beats_the_exact_selection(self):
        for seed in range(5):
            stream = gen(seed)
            budget = 2 + seed
            _, exact = optimal_thresholds(stream, budget)
            _, brute = oracle.brute_force_thresholds(stream, budget, grid_resolution=15)
            assert brute <= exact

    @pytest.mark.parametrize("seed", range(12))
    def test_equals_exact_selection_on_seeded_streams(self, seed):
        stream = gen(seed, count=20 + seed)
        budget = seed % 8
        _, exact = optimal_thresholds(stream, budget)
        _, brute = oracle.brute_force_thresholds(stream, budget, grid_resolution=21)
        assert brute == exact

    def test_no_critical_events_is_undefined(self):
        stream = EventStream(event_ids=[0], critical=[False], scores=[[0.4, 0.5]])
        with pytest.raises(UndefinedMetricError):
            oracle.brute_force_thresholds(stream, 1, grid_resolution=5)

    def test_size_guard_refuses_large_enumerations(self):
        stream = gen(0, count=40, layers=4)
        tiny = oracle.OracleBudget(max_candidate_pairs=10, max_plan_enumerations=10)
        with pytest.raises(oracle.OracleSizeError):
            oracle.brute_force_thresholds(stream, 5, grid_resolution=5, budget=tiny)

    def test_deterministic_given_inputs(self):
        stream = gen(4)
        a = oracle.brute_force_thresholds(stream, 3, grid_resolution=11)
        b = oracle.brute_force_thresholds(stream, 3, grid_resolution=11)
        assert a == b

    def test_grid_best_never_beats_exact(self):
        for seed in range(5):
            stream = gen(seed)
            budget = 4
            _, exact = optimal_thresholds(stream, budget)
            assert oracle.grid_best_utility(stream, budget, 31) <= exact


class TestBruteForcePlan:
    def test_single_pair_matches_solver(self):
        scenario = random_scenario(1, 1, 3, compute_range=(2, 6), event_count_range=(15, 25))
        plan, report = solve_alternating(scenario)
        bplan, bobj = oracle.brute_force_plan(scenario)
        assert report.objective == pytest.approx(bobj, abs=1e-12)
        assert np.array_equal(plan.assignment, bplan.assignment)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_exhaustive_solver_on_small_scenarios(self, seed):
        scenario = random_scenario(
            3 if seed % 2 else 2, 2, 700 + seed,
            compute_range=(2, 6), event_count_range=(15, 30), layer_counts=(3,),
        )
        _, report = solve_alternating(scenario, SolveOptions(mode="exhaustive"))
        _, bobj = oracle.brute_force_plan(scenario)
        assert abs(report.objective - bobj) <= 1e-9

    def test_local_mode_never_beats_brute_force(self):
        for seed in range(5):
            scenario = random_scenario(
                3, 2, 800 + seed, compute_range=(2, 6), event_count_range=(15, 25)
            )
            _, report = solve_alternating(scenario, SolveOptions(mode="local"))
            _, bobj = oracle.brute_force_plan(scenario)
            assert report.objective <= bobj + 1e-9

    def test_infeasible_deadline_matches_solver(self):
        stream = EventStream(event_ids=[0], critical=[True], scores=[[0.9]])
        ue = UEProfile(
            weight=1.0,
            security_level=1,
            demand=OffloadDemand(feature_size_bits=1e12, deadline_s=0.001),
            channel=ChannelState(
                gain=1e-6, noise_psd=1e-13, eavesdropper_gain=0.0, eavesdropper_noise_psd=1e-13
            ),
            energy=EnergyModel(joules_per_access=1e-9, access_counts=(100,)),
            stream=stream,
        )
        scenario = Scenario(
            ues=(ue,),
            ens=(ENProfile(bandwidth_hz=1e6, compute_units=2, security_level=1),),
            bandwidth_cap_hz=1e6,
            power_cap_w=0.1,
            security_levels=1,
        )
        with pytest.raises(InfeasibleScenarioError):
            oracle.brute_force_plan(scenario)
        with pytest.raises(InfeasibleScenarioError):
            solve_alternating(scenario)

    @pytest.mark.parametrize("cap", ["bandwidth_cap_hz", "power_cap_w"])
    def test_zero_cap_blocks_every_user(self, cap):
        scenario = dataclasses.replace(random_scenario(2, 2, 42), **{cap: 0.0})
        with pytest.raises(InfeasibleScenarioError) as err:
            oracle.brute_force_plan(scenario)
        assert err.value.blocking_users == [0, 1]

    def test_size_guards(self):
        scenario = random_scenario(3, 2, 1)
        tiny = oracle.OracleBudget(max_candidate_pairs=100, max_plan_enumerations=4)
        with pytest.raises(oracle.OracleSizeError):
            oracle.brute_force_plan(scenario, budget=tiny)
        big_units = random_scenario(1, 1, 1, compute_range=(13, 14))
        with pytest.raises(oracle.OracleSizeError):
            oracle.brute_force_plan(big_units)


class TestCheckMonotonicity:
    def test_clean_streams_have_no_counterexamples(self):
        for seed in range(10):
            stream = gen(seed, count=60)
            report = oracle.check_monotonicity(stream, samples=50, seed=seed)
            assert report.ok
            assert report.checks == 100

    def test_zero_size_perturbation_changes_nothing(self):
        stream = gen(2, count=40)
        matrix, crit = stream.scores, stream.critical
        for lower, upper in ((0.3, 0.7), (0.1, 0.9), (0.5, 0.5)):
            base = oracle._pair_counts(matrix, crit, lower, upper)
            assert oracle._pair_counts(matrix, crit, lower, upper) == base

    def test_raising_upper_to_near_one_never_gains(self):
        stream = gen(6, count=50)
        matrix, crit = stream.scores, stream.critical
        for lower in (0.1, 0.3, 0.5):
            tp_base, _ = oracle._pair_counts(matrix, crit, lower, 0.6)
            tp_high, _ = oracle._pair_counts(matrix, crit, lower, 1.0 - 1e-9)
            assert tp_high <= tp_base

    def test_deterministic_given_seed(self):
        stream = gen(3, count=40)
        a = oracle.check_monotonicity(stream, samples=20, seed=5)
        b = oracle.check_monotonicity(stream, samples=20, seed=5)
        assert a == b

    def test_sample_count_validated(self):
        with pytest.raises(ValueError):
            oracle.check_monotonicity(gen(0), samples=0, seed=0)
