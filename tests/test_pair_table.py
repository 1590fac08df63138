"""Differential tests of the exact threshold table.

`_reference_pair_table` is the earlier full-table build, kept verbatim: it
re-masks the whole score matrix for every candidate lower threshold and
fills every offload budget 0..n.  `utility_curve` must return exactly the
curve that table gives, for every budget.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fairedge import oracle
from fairedge.exitpolicy import (
    ThresholdPair,
    UndefinedMetricError,
    _candidate_thresholds,
    utility_curve,
)
from fairedge.trace import EventStream, GeneratorParams, generate_stream


def _reference_pair_table(stream: EventStream) -> tuple[np.ndarray, np.ndarray, int]:
    """Candidate thresholds, the best packed key for every offload budget
    0..n, and the critical-event count.

    For each candidate lower threshold, an event's fate is determined by the
    largest score it produces before its first at-or-below-lower crossing:
    the event exits critical under upper threshold u exactly when that
    running maximum is >= u.  Sorting the maxima lets one binary search count
    true positives and offloads for every candidate upper at once.

    Keys pack (tp, lower index, upper index) so a single integer argmax
    realizes both the utility objective and the tie-break preferring larger
    thresholds (fewer offloads) at equal utility.
    """
    matrix, crit = stream.scores, stream.critical
    n, layers = matrix.shape
    positives = int(crit.sum())
    if positives == 0:
        raise UndefinedMetricError("utility undefined: stream has no critical events")

    cand = _candidate_thresholds(matrix)
    k = len(cand)
    cols = np.arange(layers)
    best_key = np.full(n + 1, -1, dtype=np.int64)

    for i in range(k):
        lower = cand[i]
        below = matrix <= lower
        first_below = np.where(below.any(axis=1), below.argmax(axis=1), layers)
        # Largest score seen strictly before the lower crossing (-inf if none).
        pre_max = np.where(cols[None, :] < first_below[:, None], matrix, -np.inf).max(axis=1)
        all_sorted = np.sort(pre_max)
        crit_sorted = np.sort(pre_max[crit])

        uppers = cand[i:]
        tp = positives - np.searchsorted(crit_sorted, uppers, side="left")
        offloads = n - np.searchsorted(all_sorted, uppers, side="left")
        keys = (tp.astype(np.int64) * k + i) * k + np.arange(i, k, dtype=np.int64)
        np.maximum.at(best_key, offloads, keys)

    return cand, np.maximum.accumulate(best_key), positives


def _reference_curve(table, n: int, max_budget: int) -> tuple[np.ndarray, tuple]:
    """(utilities, pairs) decoded from the reference table as `utility_curve` does."""
    cand, best_key, positives = table
    keys = best_key[np.minimum(np.arange(max_budget + 1), n)]
    tp, pair_index = np.divmod(keys, len(cand) ** 2)
    lower, upper = np.divmod(pair_index, len(cand))
    pairs = tuple(map(ThresholdPair, cand[lower].tolist(), cand[upper].tolist()))
    return tp / positives, pairs


def _assert_matches_reference(stream: EventStream, budgets) -> None:
    table = _reference_pair_table(stream)
    for budget in budgets:
        curve = utility_curve(stream, budget)
        utilities, pairs = _reference_curve(table, len(stream), budget)
        assert curve.utilities.tolist() == utilities.tolist()
        assert curve.pairs == pairs


# Scores on a 0.05 grid tie across events, repeat inside one event and put
# many events' minimum on layer 1.
_GRID = tuple(round(0.05 * s, 2) for s in range(1, 20))
_UNIFORM = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


@st.composite
def labelled_streams(draw, max_events=60, max_layers=6):
    layers = draw(st.integers(1, max_layers))
    n = draw(st.integers(2, max_events))
    score = draw(st.sampled_from([st.sampled_from(_GRID), _UNIFORM]))
    rows = draw(st.lists(st.lists(score, min_size=layers, max_size=layers), min_size=n, max_size=n))
    critical = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    # one event of each class, at two distinct drawn positions
    hit = draw(st.integers(0, n - 1))
    miss = draw(st.integers(0, n - 2))
    critical[hit], critical[miss + (miss >= hit)] = True, False
    return EventStream(event_ids=np.arange(n), critical=critical, scores=rows)


class TestAgainstReferenceTable:
    @settings(max_examples=60, deadline=None)
    @given(labelled_streams(), st.data())
    def test_curve_equals_reference_at_every_budget_class(self, stream, data):
        n = len(stream)
        _assert_matches_reference(stream, {0, 1, n - 1, n, n + 3, data.draw(st.integers(0, n + 5))})

    def test_large_stream_at_budget_32(self):
        params = GeneratorParams(
            layer_count=6, critical_prior=0.4, critical_drift=0.7, normal_drift=-0.7,
            noise_std=0.5, seed=11,
        )
        _assert_matches_reference(generate_stream(params, 1000), [32])

    def test_scores_on_the_extreme_doubles_get_valid_sentinels(self):
        tiny, top = np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0)
        stream = EventStream(
            event_ids=[0, 1], critical=[True, False], scores=[[tiny, top], [0.5, tiny]]
        )
        _assert_matches_reference(stream, [0, 1, 2])
        assert utility_curve(stream, 2).pairs[0] == ThresholdPair(top, top)


class TestAgainstBruteForceOracle:
    @settings(max_examples=60, deadline=None)
    @given(labelled_streams(max_events=8, max_layers=3))
    def test_every_budget_equals_the_oracle_utility(self, stream):
        curve = utility_curve(stream, len(stream))
        for budget in range(len(stream) + 1):
            _, brute = oracle.brute_force_thresholds(stream, budget, grid_resolution=5)
            assert curve.value(budget) == brute
