"""Differential checks of the compute-split kernel against the original loop.

`reference_split` is the recurrence `allocate_compute_dp` ran on its own
rows before the solver shared one kernel with it, copied unchanged.  The
kernel must pick the same split on any rows, ties included, and a solve
must not change when the reference replaces it.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairedge import fairopt
from fairedge.exitpolicy import ThresholdPair, UtilityCurve
from fairedge.fairopt import (
    LOG_UTILITY_FLOOR,
    SolveOptions,
    allocate_compute_dp,
    solve_alternating,
)
from fairedge.scenario import random_scenario


def reference_split(values, capacity):
    count = len(values)
    if count == 0:
        return []

    best = [[0.0] * (capacity + 1) for _ in range(count + 1)]
    choice = [[0] * (capacity + 1) for _ in range(count)]
    for u in range(count - 1, -1, -1):
        for remaining in range(capacity + 1):
            top_value = -math.inf
            top_units = 0
            for units in range(remaining + 1):
                value = values[u][units] + best[u + 1][remaining - units]
                if value > top_value:
                    top_value = value
                    top_units = units
            best[u][remaining] = top_value
            choice[u][remaining] = top_units

    allocation = []
    remaining = capacity
    for u in range(count):
        units = choice[u][remaining]
        allocation.append(units)
        remaining -= units
    return allocation


# Utilities at or below the floor all give the row value w*log(1e-6).
TIED_UTILITIES = (0.0, 1e-9, LOG_UTILITY_FLOOR, 0.25, 0.5, 1.0)


@st.composite
def split_cases(draw):
    """Weights, utility curves and a capacity with repeated entries and rows.

    Curves may run past the capacity, as the solver's rows run to the
    scenario's total units.
    """
    capacity = draw(st.integers(0, 12))
    length = capacity + 1 + draw(st.integers(0, 3))
    utility = st.sampled_from(TIED_UTILITIES) | st.floats(0.0, 1.0)
    weights, curves = [], []
    for u in range(draw(st.integers(0, 8))):
        if u and draw(st.booleans()):
            twin = draw(st.integers(0, u - 1))
            weights.append(weights[twin])
            curves.append(curves[twin])
            continue
        weights.append(draw(st.sampled_from((0.5, 1.0)) | st.floats(0.1, 3.0)))
        values = draw(st.lists(utility, min_size=length, max_size=length))
        if draw(st.booleans()):
            values.sort()
        curves.append(
            UtilityCurve(np.asarray(values), tuple(ThresholdPair(0.5, 0.5) for _ in values))
        )
    return weights, curves, capacity


@settings(deadline=None, max_examples=100)
@given(split_cases())
def test_kernel_and_wrapper_match_reference(case):
    weights, curves, capacity = case
    rows = [
        [w * math.log(max(c.value(k), LOG_UTILITY_FLOOR)) for k in range(c.max_budget + 1)]
        for w, c in zip(weights, curves)
    ]
    expected = reference_split(rows, capacity)
    assert fairopt._split_rows(rows, capacity) == expected
    assert allocate_compute_dp(weights, curves, capacity) == expected


def solve_outcome(scenario, mode):
    plan, report = solve_alternating(scenario, SolveOptions(mode=mode))
    return (
        plan.assignment.tolist(),
        plan.compute_units.tolist(),
        plan.bandwidth_hz.tolist(),
        plan.power_w.tolist(),
        plan.thresholds,
        report.objective,
        report.upper_bound,
        report.certified_gap_pct,
    )


@pytest.mark.parametrize("mode, n_ues", [("exhaustive", 5), ("local", 7)])
@pytest.mark.parametrize("seed", range(6))
def test_solve_is_unchanged_under_the_reference_kernel(seed, mode, n_ues, monkeypatch):
    scenario = random_scenario(
        n_ues, 3, seed, security_levels=2 + seed % 2, power_pool_probability=0.5,
        event_count_range=(20, 40),
    )
    got = solve_outcome(scenario, mode)
    monkeypatch.setattr(fairopt, "_split_rows", reference_split)
    assert solve_outcome(scenario, mode) == got
