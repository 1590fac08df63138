import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairedge.exitpolicy import (
    ConfusionCounts,
    SoftParams,
    ThresholdPair,
    UndefinedMetricError,
    classify,
    evaluate,
    optimal_thresholds,
    projected_gradient_search,
    soft_utility,
    utility_curve,
    write_sweep_csv,
)
from fairedge.trace import (
    CRITICAL,
    NORMAL,
    ConfidenceTrace,
    EventStream,
    GeneratorParams,
    generate_stream,
)


def make_stream(rows):
    """rows: list of (label, confidences)."""
    return EventStream(
        event_ids=np.arange(len(rows)),
        critical=[label == CRITICAL for label, _ in rows],
        scores=[confs for _, confs in rows],
    )


def gen(seed, count=40, layers=4, prior=0.4, drift=0.7, noise=0.5):
    params = GeneratorParams(
        layer_count=layers,
        critical_prior=prior,
        critical_drift=drift,
        normal_drift=-drift,
        noise_std=noise,
        seed=seed,
    )
    return generate_stream(params, count)


class TestClassify:
    def test_high_first_layer_exits_critical_immediately(self):
        trace = ConfidenceTrace(0, CRITICAL, (0.9, 0.5, 0.5))
        d = classify(trace, ThresholdPair(0.2, 0.8))
        assert d.predicted_label == CRITICAL
        assert d.exit_layer == 1
        assert d.offloaded

    def test_all_scores_inside_band_default_to_normal_at_last_layer(self):
        trace = ConfidenceTrace(0, CRITICAL, (0.5, 0.5, 0.5))
        d = classify(trace, ThresholdPair(0.2, 0.8))
        assert d.predicted_label == NORMAL
        assert d.exit_layer == 3
        assert not d.offloaded

    def test_first_crossing_wins(self):
        trace = ConfidenceTrace(0, NORMAL, (0.5, 0.1))
        d = classify(trace, ThresholdPair(0.2, 0.8))
        assert d.predicted_label == NORMAL
        assert d.exit_layer == 2

    def test_boundary_scores_use_inclusive_comparisons(self):
        thr = ThresholdPair(0.2, 0.8)
        low = classify(ConfidenceTrace(0, NORMAL, (0.2,)), thr)
        assert low.predicted_label == NORMAL and low.exit_layer == 1
        high = classify(ConfidenceTrace(0, NORMAL, (0.8,)), thr)
        assert high.predicted_label == CRITICAL and high.exit_layer == 1

    def test_lower_beats_upper_when_thresholds_coincide(self):
        d = classify(ConfidenceTrace(0, NORMAL, (0.5,)), ThresholdPair(0.5, 0.5))
        assert d.predicted_label == NORMAL

    def test_deterministic(self):
        trace = ConfidenceTrace(0, CRITICAL, (0.4, 0.6, 0.9))
        thr = ThresholdPair(0.3, 0.85)
        assert classify(trace, thr) == classify(trace, thr)


class TestEvaluate:
    def test_utility_arithmetic(self):
        rows = [(CRITICAL, (0.9,)), (CRITICAL, (0.95,)), (CRITICAL, (0.85,)), (CRITICAL, (0.5,))]
        counts, report = evaluate(make_stream(rows), ThresholdPair(0.2, 0.8))
        assert counts.tp == 3 and counts.fn == 1
        assert report.utility == pytest.approx(0.75)

    def test_wide_band_offloads_nothing(self):
        stream = gen(seed=5, count=30)
        scores = stream.scores
        thr = ThresholdPair(float(scores.min()) / 2, (float(scores.max()) + 1) / 2)
        counts, report = evaluate(stream, thr)
        assert counts.tp == 0 and counts.fp == 0
        assert report.ofr == 0.0
        assert counts.fn == sum(1 for t in stream.traces if t.is_critical)

    def test_offload_rate_arithmetic(self):
        rows = [(CRITICAL, (0.9,)), (CRITICAL, (0.95,)), (NORMAL, (0.85,))]
        rows += [(NORMAL, (0.5,))] * 7
        counts, report = evaluate(make_stream(rows), ThresholdPair(0.2, 0.8))
        assert counts.tp == 2 and counts.fp == 1
        assert report.ofr == pytest.approx(0.3)

    def test_empty_denominators_reported_as_none(self):
        counts, report = evaluate(make_stream([(NORMAL, (0.5,))]), ThresholdPair(0.2, 0.8))
        assert report.utility is None and report.fnr is None
        assert report.car is not None
        counts, report = evaluate(make_stream([(CRITICAL, (0.5,))]), ThresholdPair(0.2, 0.8))
        assert report.fpr is None

    def test_empty_stream_has_no_rates(self):
        counts, report = evaluate(
            EventStream(event_ids=[], critical=[], scores=np.empty((0, 2))), ThresholdPair(0.2, 0.8)
        )
        assert counts.total == 0
        assert report.car is None and report.ofr is None and report.utility is None

    def test_accounting_identities_hold_everywhere(self):
        rng = np.random.default_rng(9)
        for seed in range(10):
            stream = gen(seed=seed, count=50, prior=rng.uniform(0.1, 0.9))
            pos = sum(1 for t in stream.traces if t.is_critical)
            neg = len(stream.traces) - pos
            for _ in range(5):
                lo = rng.uniform(0.05, 0.9)
                thr = ThresholdPair(lo, rng.uniform(lo, 0.95))
                counts, report = evaluate(stream, thr)
                assert counts.tp + counts.fn == pos
                assert counts.tn + counts.fp == neg
                if report.utility is not None:
                    assert report.fnr == pytest.approx(1.0 - report.utility, abs=1e-12)
                assert report.ofr * counts.total == pytest.approx(counts.offloaded, abs=1e-9)


class BruteForcePairs:
    """Direct first-crossing evaluation over an explicit pair list."""

    @staticmethod
    def counts(stream, lower, upper):
        tp = fp = 0
        for trace in stream.traces:
            predicted = None
            for c in trace.confidences:
                if c <= lower:
                    predicted = NORMAL
                    break
                if c >= upper:
                    predicted = CRITICAL
                    break
            predicted = predicted or NORMAL
            if predicted == CRITICAL:
                if trace.is_critical:
                    tp += 1
                else:
                    fp += 1
        return tp, fp

    @classmethod
    def best(cls, stream, budget):
        scores = sorted({c for t in stream.traces for c in t.confidences})
        values = [max(scores[0] - 1e-6, scores[0] / 2)] + scores + [
            min(scores[-1] + 1e-6, (scores[-1] + 1) / 2)
        ]
        positives = sum(1 for t in stream.traces if t.is_critical)
        best = None
        for lo, up in itertools.combinations_with_replacement(values, 2):
            tp, fp = cls.counts(stream, lo, up)
            if tp + fp > budget:
                continue
            key = (tp / positives, lo, up)
            if best is None or key > best:
                best = key
        return best


class TestOptimalThresholds:
    def test_zero_budget_always_feasible(self):
        stream = gen(seed=3, count=30)
        pair, utility = optimal_thresholds(stream, 0)
        counts, _ = evaluate(stream, pair)
        assert counts.offloaded == 0
        assert utility == 0.0

    def test_single_positive_trace_with_budget(self):
        stream = make_stream([(CRITICAL, (0.9,))])
        pair, utility = optimal_thresholds(stream, 1)
        assert utility == 1.0
        assert pair.upper <= 0.9

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_direct_enumeration(self, seed):
        stream = gen(seed=seed, count=20, layers=3)
        budget = seed % 6
        expected = BruteForcePairs.best(stream, budget)
        pair, utility = optimal_thresholds(stream, budget)
        assert utility == expected[0]
        assert (pair.lower, pair.upper) == (expected[1], expected[2])

    def test_tie_break_prefers_larger_thresholds(self):
        stream = gen(seed=12, count=25)
        pair, utility = optimal_thresholds(stream, 4)
        expected = BruteForcePairs.best(stream, 4)
        assert (utility, pair.lower, pair.upper) == expected

    def test_dominates_any_user_grid(self):
        stream = gen(seed=21, count=30)
        budget = 8
        _, best = optimal_thresholds(stream, budget)
        grid = np.linspace(0.02, 0.98, 33)
        for lo in grid:
            for up in grid:
                if lo > up:
                    continue
                tp, fp = BruteForcePairs.counts(stream, lo, up)
                if tp + fp > budget:
                    continue
                positives = sum(1 for t in stream.traces if t.is_critical)
                assert tp / positives <= best + 1e-15

    def test_no_critical_events_is_undefined(self):
        stream = make_stream([(NORMAL, (0.5,)), (NORMAL, (0.6,))])
        with pytest.raises(UndefinedMetricError):
            optimal_thresholds(stream, 5)

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            optimal_thresholds(gen(seed=0, count=10), -1)


class TestUtilityCurve:
    def test_single_entry_curve(self):
        stream = gen(seed=2, count=20)
        curve = utility_curve(stream, 0)
        assert curve.max_budget == 0
        assert curve.value(0) == optimal_thresholds(stream, 0)[1]

    def test_non_decreasing_and_consistent_with_direct_queries(self):
        stream = gen(seed=6, count=30)
        curve = utility_curve(stream, 12)
        assert np.all(np.diff(curve.utilities) >= 0)
        for w in range(13):
            pair, utility = optimal_thresholds(stream, w)
            assert curve.value(w) == utility
            assert curve.pair(w) == pair

    def test_full_budget_matches_unconstrained_optimum(self):
        stream = gen(seed=8, count=30)
        curve = utility_curve(stream, len(stream))
        _, unconstrained = optimal_thresholds(stream, len(stream))
        assert curve.value(len(stream)) == unconstrained

    def test_lookup_saturates_beyond_built_budget(self):
        stream = gen(seed=8, count=30)
        curve = utility_curve(stream, len(stream))
        assert curve.value(10_000) == curve.value(len(stream))


class TestMonotonicityProperty:
    def test_raising_either_threshold_never_gains_true_positives(self):
        rng = np.random.default_rng(17)
        for seed in range(10):
            stream = gen(seed=seed, count=60, layers=3)
            ladder = np.sort(rng.uniform(0.02, 0.98, size=6))
            for lo, up in itertools.combinations(ladder, 2):
                base, _ = evaluate(stream, ThresholdPair(lo, up))
                for lo2 in ladder[(ladder >= lo) & (ladder <= up)]:
                    raised, _ = evaluate(stream, ThresholdPair(float(lo2), up))
                    assert raised.tp <= base.tp
                for up2 in ladder[ladder >= up]:
                    raised, _ = evaluate(stream, ThresholdPair(lo, float(up2)))
                    assert raised.tp <= base.tp


class TestSoftUtility:
    def test_close_to_exact_when_steep_and_clear_of_scores(self):
        stream = make_stream(
            [
                (CRITICAL, (0.55, 0.9)),
                (CRITICAL, (0.6, 0.95)),
                (CRITICAL, (0.3, 0.1)),
                (NORMAL, (0.1, 0.1)),
            ]
        )
        thr = ThresholdPair(0.4, 0.8)
        _, report = evaluate(stream, thr)
        approx = soft_utility(stream, thr, SoftParams(steepness=200.0))
        assert abs(approx - report.utility) <= 0.05

    def test_no_critical_events_is_undefined(self):
        stream = make_stream([(NORMAL, (0.5,))])
        with pytest.raises(UndefinedMetricError):
            soft_utility(stream, ThresholdPair(0.2, 0.8), SoftParams(steepness=10.0))

    def test_coincident_thresholds_cap_the_mask_at_a_quarter(self):
        # A single critical event whose score sits exactly on both thresholds.
        stream = make_stream([(CRITICAL, (0.9, 0.5))])
        value = soft_utility(stream, ThresholdPair(0.5, 0.5), SoftParams(steepness=50.0))
        # exits critical at layer 1 (0.9 >= 0.5); mask at the coincident point <= 0.25
        assert value <= 1.0
        on_point = make_stream([(CRITICAL, (0.5, 0.9))])
        # 0.5 <= lower exits normal immediately: contribution zero
        assert soft_utility(on_point, ThresholdPair(0.5, 0.5), SoftParams(steepness=50.0)) == 0.0

    def test_never_exceeds_exact_utility(self):
        for seed in range(10):
            stream = gen(seed=seed, count=30)
            rng = np.random.default_rng(seed)
            lo = rng.uniform(0.1, 0.6)
            thr = ThresholdPair(lo, rng.uniform(lo, 0.95))
            _, report = evaluate(stream, thr)
            value = soft_utility(stream, thr, SoftParams(steepness=80.0))
            assert value <= report.utility + 1e-12


# A small score set shared by events and thresholds, so that scores land
# exactly on either threshold and lower == upper is drawn often.
_TIED_SCORES = (0.1, 0.3, 0.5, 0.7, 0.9)


@st.composite
def tied_streams_and_pairs(draw):
    layers = draw(st.integers(1, 6))
    n = draw(st.integers(0, 40))
    row = st.lists(st.sampled_from(_TIED_SCORES), min_size=layers, max_size=layers)
    rows = draw(st.lists(row, min_size=n, max_size=n))
    critical = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    lower = draw(st.sampled_from(_TIED_SCORES))
    upper = draw(st.sampled_from([s for s in _TIED_SCORES if s >= lower]))
    stream = EventStream(
        event_ids=np.arange(n), critical=critical, scores=np.reshape(rows, (n, layers))
    )
    return stream, ThresholdPair(lower, upper)


class TestColumnarRuleAgainstClassify:
    """`evaluate` and `soft_utility` apply the first-crossing rule to the whole
    score matrix; `classify` on each event of the `traces` view is the
    reference."""

    @settings(max_examples=300, deadline=None)
    @given(tied_streams_and_pairs())
    def test_evaluate_counts_equal_classify_tally(self, case):
        stream, thr = case
        tally = Counter()
        for trace in stream.traces:
            offloaded = classify(trace, thr).offloaded
            if trace.is_critical:
                tally["tp" if offloaded else "fn"] += 1
            else:
                tally["fp" if offloaded else "tn"] += 1
        counts, _ = evaluate(stream, thr)
        assert counts == ConfusionCounts(tally["tp"], tally["fp"], tally["tn"], tally["fn"])

    @settings(max_examples=200, deadline=None)
    @given(tied_streams_and_pairs(), st.sampled_from([0.5, 8.0, 60.0]))
    def test_soft_utility_equals_per_event_sum_bit_for_bit(self, case, steepness):
        stream, thr = case
        critical = [trace for trace in stream.traces if trace.is_critical]
        if not critical:
            with pytest.raises(UndefinedMetricError):
                soft_utility(stream, thr, SoftParams(steepness))
            return

        def sigmoid(z):
            return 1.0 / (1.0 + math.exp(-z)) if z >= 0.0 else math.exp(z) / (1.0 + math.exp(z))

        total = 0.0
        for trace in critical:
            decision = classify(trace, thr)
            if decision.offloaded:
                c = trace.confidences[decision.exit_layer - 1]
                total += sigmoid(steepness * (c - thr.lower)) * sigmoid(steepness * (c - thr.upper))
        assert soft_utility(stream, thr, SoftParams(steepness)) == total / len(critical)


class TestProjectedGradientSearch:
    def test_flat_surrogate_returns_init(self):
        # No critical event can exit critical: surrogate is identically zero.
        stream = make_stream([(CRITICAL, (0.5, 0.5)), (NORMAL, (0.5, 0.5))])
        init = ThresholdPair(0.3, 0.9)
        result = projected_gradient_search(
            stream, init, steps=50, learning_rate=0.1, soft=SoftParams(steepness=5.0)
        )
        assert result == init

    def test_projection_clamps_lower_onto_upper(self):
        # A strong upward pull on the lower threshold must stop at the upper.
        stream = make_stream([(CRITICAL, (0.9,)), (CRITICAL, (0.92,))])
        result = projected_gradient_search(
            stream,
            ThresholdPair(0.4, 0.45),
            steps=200,
            learning_rate=0.5,
            soft=SoftParams(steepness=10.0),
        )
        assert result.lower <= result.upper

    @pytest.mark.parametrize("seed", range(20))
    def test_reaches_near_exact_optimum_on_smooth_instances(self, seed):
        stream = gen(seed=100 + seed, count=30, layers=3, drift=0.9, noise=0.35)
        _, best = optimal_thresholds(stream, len(stream))
        rng = np.random.default_rng(seed)
        lo = rng.uniform(0.2, 0.6)
        init = ThresholdPair(lo, rng.uniform(lo, 0.9))
        soft = SoftParams(steepness=40.0)
        result = projected_gradient_search(
            stream, init, steps=500, learning_rate=0.05, soft=soft
        )
        assert best - soft_utility(stream, result, soft) <= 0.1


class TestSweepCsv:
    def test_header_and_rows(self, tmp_path):
        stream = gen(seed=4, count=15)
        pairs = [ThresholdPair(0.2, 0.8), ThresholdPair(0.4, 0.6)]
        path = tmp_path / "sweep.csv"
        rows = write_sweep_csv(stream, pairs, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "alpha_l,alpha_u,car,fpr,fnr,ofr,utility"
        assert rows == 2 and len(lines) == 3
        first = lines[1].split(",")
        assert float(first[0]) == 0.2 and float(first[1]) == 0.8

    def test_undefined_metrics_written_as_nan(self, tmp_path):
        stream = make_stream([(NORMAL, (0.5,))])
        path = tmp_path / "sweep.csv"
        write_sweep_csv(stream, [ThresholdPair(0.2, 0.8)], path)
        row = path.read_text().strip().split("\n")[1].split(",")
        assert row[4] == "nan" and row[6] == "nan"
