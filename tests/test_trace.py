import hashlib
import math

import numpy as np
import pytest

from fairedge.trace import (
    CRITICAL,
    NORMAL,
    ConfidenceTrace,
    EventStream,
    GeneratorParams,
    LayerLogits,
    TraceParseError,
    confidence_from_logits,
    generate_stream,
    load_stream,
    save_stream,
    stream_stats,
)


def make_params(**overrides):
    base = dict(
        layer_count=3,
        critical_prior=0.4,
        critical_drift=0.8,
        normal_drift=-0.8,
        noise_std=0.5,
        seed=11,
    )
    base.update(overrides)
    return GeneratorParams(**base)


class TestConfidenceFromLogits:
    def test_equal_logits_give_half(self):
        assert confidence_from_logits(LayerLogits(0.0, 0.0)) == 0.5

    @pytest.mark.parametrize("x", [-700.0, -3.0, 0.25, 5.0, 700.0])
    def test_shift_invariance_at_any_magnitude(self, x):
        assert confidence_from_logits(LayerLogits(x, x)) == 0.5

    def test_unit_gap_matches_direct_evaluation(self):
        # exp(1)/(exp(1)+exp(0)) evaluated without the stability rewrite
        expected = math.exp(1.0) / (math.exp(1.0) + math.exp(0.0))
        assert confidence_from_logits(LayerLogits(1.0, 0.0)) == pytest.approx(expected, abs=1e-15)
        assert confidence_from_logits(LayerLogits(1.0, 0.0)) == pytest.approx(0.7310585786300049, abs=1e-12)

    def test_swapped_logits_sum_to_one(self):
        rng = np.random.default_rng(4)
        extremes = [(a, b) for a in (1e308, -1e308, 0.0) for b in (1e308, -1e308)]
        for a, b in [*rng.normal(scale=20.0, size=(200, 2)), *extremes]:
            total = confidence_from_logits(LayerLogits(a, b)) + confidence_from_logits(
                LayerLogits(b, a)
            )
            assert abs(total - 1.0) <= 1e-12

    def test_non_finite_logits_rejected(self):
        with pytest.raises(ValueError):
            LayerLogits(float("nan"), 0.0)
        with pytest.raises(ValueError):
            LayerLogits(0.0, float("inf"))


class TestGenerateStream:
    def test_zero_count_gives_empty_stream(self):
        stream = generate_stream(make_params(), 0)
        assert len(stream) == 0
        assert stream.layer_count == 3

    def test_deterministic_given_seed(self, tmp_path):
        a = generate_stream(make_params(), 60)
        b = generate_stream(make_params(), 60)
        assert a == b
        save_stream(a, tmp_path / "a.csv")
        save_stream(b, tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_degenerate_prior_forces_all_critical(self):
        stream = generate_stream(make_params(critical_prior=1.0), 100)
        assert all(t.true_label == CRITICAL for t in stream.traces)

    def test_confidences_stay_in_open_interval(self):
        stream = generate_stream(make_params(critical_drift=5.0, noise_std=2.0, layer_count=6), 200)
        matrix = stream.scores
        assert np.all(matrix > 0.0) and np.all(matrix < 1.0)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            generate_stream(make_params(), -1)

    @pytest.mark.parametrize(
        "overrides",
        [dict(critical_drift=float("inf")), dict(critical_prior=0.0, normal_drift=float("nan"))],
    )
    def test_non_finite_logits_rejected(self, overrides):
        with pytest.raises(ValueError, match="logits must be finite"):
            generate_stream(make_params(**overrides), 20)

    def test_generated_stream_is_pinned_bit_for_bit(self):
        # Recorded from the per-event generator.  The scores come from the
        # scalar softmax; numpy's vectorised exp differs from math.exp in a
        # few percent of values and would change these bits.
        stream = generate_stream(make_params(), 60)
        digest = hashlib.sha256(stream.scores.tobytes()).hexdigest()
        assert digest == "b50084f654bb8772d5ef19aa8ed0bade8dd7377c5a61580bb1195d124c664c9b"
        labels = "".join("C" if c else "N" for c in stream.critical)
        assert labels == "CCNNNNCNCNCNCCCCNNCNCNCNNCNNCNCCCCNCNNNCCNCCNCNNNCNCNCCNCNCC"
        assert stream.event_ids.tolist() == list(range(60))


class TestEventStreamColumns:
    def make(self):
        return EventStream(
            event_ids=[7, 3, 5],
            critical=[True, False, True],
            scores=[[0.9, 0.2], [0.1, 0.4], [0.5, 0.6]],
        )

    def test_shape_is_derived_from_scores(self):
        stream = self.make()
        assert len(stream) == 3 and stream.layer_count == 2
        assert stream.event_ids.dtype == np.int64 and stream.critical.dtype == bool

    @pytest.mark.parametrize("name", ["event_ids", "critical", "scores"])
    def test_columns_are_read_only(self, name):
        column = getattr(self.make(), name)
        with pytest.raises(ValueError, match="read-only"):
            column[0] = column[1]

    def test_columns_are_copies_of_the_inputs(self):
        scores = np.array([[0.5, 0.5]])
        stream = EventStream(event_ids=[0], critical=[True], scores=scores)
        scores[0, 0] = 0.25
        assert stream.scores[0, 0] == 0.5

    def test_value_equality(self):
        assert self.make() == self.make()
        other = EventStream(
            event_ids=[7, 3, 5], critical=[True, False, False], scores=self.make().scores
        )
        assert other != self.make()
        assert self.make() != "stream"

    def test_traces_view_mirrors_the_columns(self):
        traces = self.make().traces
        assert traces == (
            ConfidenceTrace(7, CRITICAL, (0.9, 0.2)),
            ConfidenceTrace(3, NORMAL, (0.1, 0.4)),
            ConfidenceTrace(5, CRITICAL, (0.5, 0.6)),
        )

    @pytest.mark.parametrize(
        "columns, reason",
        [
            (([0], ["critical"], [[0.5]]), "critical must hold booleans"),
            (([0, 1], [True], [[0.5], [0.5]]), "one entry per row"),
            (([0], [True], [0.5]), "events, layers"),
            (([0], [True], np.empty((1, 0))), "at least one layer"),
            (([0, 1], [True, False], [[0.5], [1.0]]), "outside the open interval"),
        ],
    )
    def test_rejects_malformed_columns(self, columns, reason):
        ids, critical, scores = columns
        with pytest.raises(ValueError, match=reason):
            EventStream(event_ids=ids, critical=critical, scores=scores)


class TestStreamStats:
    def test_mixed_counts(self):
        critical = [i < 4 for i in range(10)]
        stats = stream_stats(EventStream(event_ids=range(10), critical=critical, scores=[[0.5]] * 10))
        assert stats == (10, 4, 6)

    def test_empty_stream(self):
        empty = EventStream(event_ids=[], critical=[], scores=np.empty((0, 2)))
        assert stream_stats(empty) == (0, 0, 0)

    def test_all_critical(self):
        stream = EventStream(event_ids=range(5), critical=[True] * 5, scores=[[0.5]] * 5)
        assert stream_stats(stream) == (5, 5, 0)

    def test_partition_identity_on_random_streams(self):
        for seed in range(20):
            stream = generate_stream(make_params(seed=seed, critical_prior=seed / 20), 50)
            stats = stream_stats(stream)
            assert stats.total == stats.critical + stats.normal


class TestCsvRoundTrip:
    def test_save_then_load_preserves_stream(self, tmp_path):
        stream = generate_stream(make_params(), 3)
        path = tmp_path / "s.csv"
        save_stream(stream, path)
        loaded = load_stream(path)
        assert loaded.layer_count == stream.layer_count
        assert [t.event_id for t in loaded.traces] == [t.event_id for t in stream.traces]
        for a, b in zip(loaded.traces, stream.traces):
            assert a.true_label == b.true_label
            for x, y in zip(a.confidences, b.confidences):
                assert x == pytest.approx(y, rel=1e-11)

    def test_second_save_is_byte_stable(self, tmp_path):
        stream = generate_stream(make_params(seed=2), 25)
        first = tmp_path / "one.csv"
        second = tmp_path / "two.csv"
        save_stream(stream, first)
        save_stream(load_stream(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_header_only_file_is_empty_stream(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("event_id,label,c_1,c_2\n", encoding="utf-8")
        stream = load_stream(path)
        assert len(stream) == 0
        assert stream.layer_count == 2

    def test_out_of_range_confidence_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("event_id,label,c_1\n0,critical,0.4\n1,normal,1.2\n", encoding="utf-8")
        with pytest.raises(TraceParseError) as err:
            load_stream(path)
        assert err.value.line == 3

    @pytest.mark.parametrize(
        "text, line",
        [
            ("event_id,label,c_1\n0,critical,0.4\n\n1,normal,1.5\n", 4),
            ("\nevent_id,label,c_2\n", 2),
        ],
    )
    def test_line_numbers_count_blank_lines(self, tmp_path, text, line):
        path = tmp_path / "bad.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(TraceParseError, match=f"^line {line}: ") as err:
            load_stream(path)
        assert err.value.line == line

    def test_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("event_id,label,c_1,c_2\n0,critical,0.4\n", encoding="utf-8")
        with pytest.raises(TraceParseError) as err:
            load_stream(path)
        assert err.value.line == 2

    def test_duplicate_event_id_rejected(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("event_id,label,c_1\n0,critical,0.4\n0,normal,0.5\n", encoding="utf-8")
        with pytest.raises(TraceParseError) as err:
            load_stream(path)
        assert err.value.line == 3

    def test_unknown_label_rejected(self, tmp_path):
        path = tmp_path / "lbl.csv"
        path.write_text("event_id,label,c_1\n0,urgent,0.4\n", encoding="utf-8")
        with pytest.raises(TraceParseError):
            load_stream(path)

    @pytest.mark.parametrize(
        "row, reason",
        [
            ("1,normal,nan", "outside open interval"),
            ("1,normal,inf", "outside open interval"),
            ("1,normal,-inf", "outside open interval"),
            ("1,normal,0", "outside open interval"),
            ("1,normal,1", "outside open interval"),
            ("1,urgent,0.5", "unknown label 'urgent'"),
        ],
    )
    def test_invalid_value_names_its_line(self, tmp_path, row, reason):
        path = tmp_path / "bad.csv"
        path.write_text(f"event_id,label,c_1\n0,critical,0.4\n{row}\n", encoding="utf-8")
        with pytest.raises(TraceParseError, match=f"^line 3: .*{reason}") as err:
            load_stream(path)
        assert err.value.line == 3

    def test_first_defective_line_is_named(self, tmp_path):
        # both data rows are defective; the earlier one is reported
        path = tmp_path / "bad.csv"
        path.write_text("event_id,label,c_1\n0,critical,1.5\n1,urgent,0.5\n", encoding="utf-8")
        with pytest.raises(TraceParseError, match="^line 2: .*outside open interval") as err:
            load_stream(path)
        assert err.value.line == 2

    def test_event_id_beyond_int64_names_line(self, tmp_path):
        path = tmp_path / "big.csv"
        text = f"event_id,label,c_1\n0,critical,0.5\n{2**63},normal,0.5\n"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(TraceParseError, match="^line 3: .*int64") as err:
            load_stream(path)
        assert err.value.line == 3

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "hdr.csv"
        path.write_text("id,label,c_1\n", encoding="utf-8")
        with pytest.raises(TraceParseError) as err:
            load_stream(path)
        assert err.value.line == 1


class TestInvariants:
    def test_trace_rejects_boundary_confidences(self):
        with pytest.raises(ValueError):
            ConfidenceTrace(0, CRITICAL, (0.0,))
        with pytest.raises(ValueError):
            ConfidenceTrace(0, CRITICAL, (1.0,))

    def test_stream_rejects_inconsistent_layers(self):
        with pytest.raises(ValueError):
            EventStream(event_ids=[0, 1], critical=[True, False], scores=[[0.5, 0.5], [0.5]])

    def test_stream_rejects_duplicate_ids(self):
        with pytest.raises(ValueError, match="duplicate event_id 0"):
            EventStream(event_ids=[0, 0], critical=[True, False], scores=[[0.5], [0.4]])
