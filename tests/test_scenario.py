import copy
import dataclasses
import hashlib
import json
import re

import numpy as np
import pytest
from jsonschema import Draft202012Validator

from fairedge import cli, scenario as scenario_mod
from fairedge.fairopt import SolveOptions, SolveReport, UserDiagnostics, solve_alternating
from fairedge.exitpolicy import ConfusionCounts, MetricsReport, evaluate
from fairedge.scenario import (
    BUNDLE_SCHEMA,
    SCENARIO_SCHEMA,
    BundleSchemaError,
    ScenarioParseError,
    build_bundle,
    bundle_from_dict,
    bundle_to_dict,
    config_digest,
    load_scenario,
    max_secrecy_rate,
    parse_document,
    parse_scenario,
    random_scenario,
    random_scenario_config,
    read_bundle,
    realize,
    serialize_document,
    write_bundle,
)
from fairedge.trace import save_stream, generate_stream, GeneratorParams


MINIMAL_DOC = {
    "security_levels": 2,
    "bandwidth_cap_hz": 2e6,
    "power_cap_w": 0.1,
    "ues": [
        {
            "weight": 1.0,
            "security_level": 1,
            "feature_size_bits": 2e4,
            "deadline_s": 0.5,
            "channel": {
                "gain": 1e-5,
                "noise_psd_w_per_hz": 1e-13,
                "eavesdropper_gain": 0.0,
                "eavesdropper_noise_psd_w_per_hz": 1e-13,
            },
            "energy": {"joules_per_access": 1e-9, "access_counts": [1000, 2000]},
            "trace": {
                "generator": {
                    "layer_count": 3,
                    "critical_prior": 0.4,
                    "critical_drift": 0.8,
                    "normal_drift": -0.8,
                    "noise_std": 0.4,
                    "seed": 7,
                    "count": 20,
                }
            },
        }
    ],
    "ens": [{"bandwidth_hz": 5e6, "compute_units": 6, "security_level": 1}],
}


class TestParseScenario:
    def test_minimal_document_parses(self):
        scenario = parse_scenario(MINIMAL_DOC)
        assert len(scenario.ues) == 1 and len(scenario.ens) == 1
        assert len(scenario.ues[0].stream) == 20

    def test_parse_accepts_json_text(self):
        scenario = parse_scenario(json.dumps(MINIMAL_DOC))
        assert scenario.security_levels == 2

    def test_negative_bandwidth_names_field(self):
        doc = json.loads(json.dumps(MINIMAL_DOC))
        doc["ens"][0]["bandwidth_hz"] = -1.0
        with pytest.raises(ScenarioParseError, match="ens\\[0\\].bandwidth_hz"):
            parse_document(doc)

    def test_missing_channel_field_names_path(self):
        doc = json.loads(json.dumps(MINIMAL_DOC))
        del doc["ues"][0]["channel"]["gain"]
        with pytest.raises(ScenarioParseError, match="ues\\[0\\].channel.gain"):
            parse_document(doc)

    def test_security_level_out_of_range(self):
        doc = json.loads(json.dumps(MINIMAL_DOC))
        doc["ens"][0]["security_level"] = 3
        with pytest.raises(ScenarioParseError, match="security_level"):
            parse_document(doc)

    def test_trace_requires_exactly_one_source(self):
        doc = json.loads(json.dumps(MINIMAL_DOC))
        doc["ues"][0]["trace"] = {"file": "a.csv", "generator": {}}
        with pytest.raises(ScenarioParseError, match="trace"):
            parse_document(doc)

    def test_round_trip_is_identity_on_canonical_form(self):
        config = parse_document(MINIMAL_DOC)
        doc = serialize_document(config)
        assert parse_document(doc) == config
        assert json.dumps(doc, sort_keys=True) == json.dumps(
            serialize_document(parse_document(doc)), sort_keys=True
        )
        Draft202012Validator(SCENARIO_SCHEMA).validate(doc)

    @pytest.mark.parametrize("seed", range(10))
    def test_random_configs_round_trip_in_both_trace_forms(self, seed):
        config = random_scenario_config(3, 2, seed, power_pool_probability=0.5)
        file_config = dataclasses.replace(
            config,
            seed=None,
            ues=tuple(
                dataclasses.replace(ue, generator=None, trace_file=f"traces/ue_{i:02d}.csv")
                for i, ue in enumerate(config.ues)
            ),
        )
        for form in (config, file_config):
            doc = serialize_document(form)
            Draft202012Validator(SCENARIO_SCHEMA).validate(doc)
            assert parse_document(doc) == form
            assert parse_document(json.dumps(doc)) == form

    def test_invalid_json_text_rejected(self):
        with pytest.raises(ScenarioParseError, match="invalid JSON"):
            parse_document("{not json")

    def test_file_trace_resolves_relative_to_document(self, tmp_path):
        stream = generate_stream(
            GeneratorParams(
                layer_count=2, critical_prior=0.5, critical_drift=0.8,
                normal_drift=-0.8, noise_std=0.3, seed=1,
            ),
            10,
        )
        save_stream(stream, tmp_path / "trace.csv")
        doc = json.loads(json.dumps(MINIMAL_DOC))
        doc["ues"][0]["trace"] = {"file": "trace.csv"}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        scenario = load_scenario(path)
        assert len(scenario.ues[0].stream) == 10
        assert scenario.ues[0].stream.layer_count == 2


_DELETE = object()


def _field_paths(node, prefix=()):
    """Key paths of every field of a document, parents before children."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield prefix + (key,)
            yield from _field_paths(value, prefix + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _field_paths(value, prefix + (i,))


def _dotted(keys):
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in keys).lstrip(".")


def _edited(keys, value, document=MINIMAL_DOC):
    doc = copy.deepcopy(document)
    parent = doc
    for key in keys[:-1]:
        parent = parent[key]
    if value is _DELETE:
        del parent[keys[-1]]
    else:
        parent[keys[-1]] = value
    return doc


_UE = ("ues", 0)
_CHANNEL = _UE + ("channel",)
_GEN = _UE + ("trace", "generator")
_EN = ("ens", 0)

# Every field of MINIMAL_DOC missing; dropping trace.generator leaves a trace
# with zero keys, which has its own case below.
_MISSING = [(keys, _DELETE) for keys in _field_paths(MINIMAL_DOC) if keys[-1] != "generator"]

_BAD_VALUES = [
    # bool where a number is expected
    (("bandwidth_cap_hz",), True),
    (_UE + ("weight",), False),
    (_CHANNEL + ("gain",), True),
    (_GEN + ("critical_drift",), True),
    (_EN + ("power_pool_w",), True),
    # a float (even a whole one) where an integer is expected
    (("security_levels",), 2.0),
    (("seed",), 1.0),
    (_EN + ("compute_units",), 3.0),
    (_UE + ("security_level",), 1.0),
    (_GEN + ("count",), 20.0),
    (_GEN + ("seed",), 7.0),
    (_UE + ("energy", "access_counts"), [1000, 2.0]),
    (_UE + ("energy", "access_counts"), [True]),
    # other types
    (("ues",), {"weight": 1.0}),
    (_UE, "not an object"),
    (_CHANNEL, [1e-5]),
    (_UE + ("weight",), "1.0"),
    (_UE + ("energy", "access_counts"), 1000),
    # bounds
    (_UE + ("weight",), 0),
    (_UE + ("weight",), -1.0),
    (_UE + ("feature_size_bits",), 0.0),
    (_UE + ("deadline_s",), 0.0),
    (_CHANNEL + ("gain",), -1e-9),
    (_CHANNEL + ("noise_psd_w_per_hz",), 0.0),
    (_CHANNEL + ("eavesdropper_noise_psd_w_per_hz",), 0.0),
    (_UE + ("energy", "joules_per_access"), -1e-9),
    (_UE + ("energy", "access_counts"), [-1]),
    (_GEN + ("count",), -1),
    (_GEN + ("seed",), -1),
    (_GEN + ("layer_count",), 0),
    (_GEN + ("noise_std",), -0.1),
    (_GEN + ("critical_prior",), 1.5),
    (_GEN + ("critical_prior",), -0.1),
    (_EN + ("compute_units",), -1),
    (_EN + ("bandwidth_hz",), -1.0),
    (_EN + ("power_pool_w",), -0.5),
    (("security_levels",), 0),
    (("bandwidth_cap_hz",), -1.0),
    (("power_cap_w",), -1.0),
    (("seed",), -1),
    # a level above security_levels
    (_UE + ("security_level",), 3),
    (_EN + ("security_level",), 3),
    # trace sources: zero keys, two keys, an unknown key, a bad file name
    (_UE + ("trace",), {}),
    (_UE + ("trace",), {"file": "a.csv", "generator": MINIMAL_DOC["ues"][0]["trace"]["generator"]}),
    (_UE + ("trace",), {"stream": "a.csv"}),
    (_UE + ("trace",), {"file": ""}),
    (_UE + ("trace",), {"file": 3}),
    # empty user and node lists
    (("ues",), []),
    (("ens",), []),
]


class TestDocumentValidation:
    @pytest.mark.parametrize(
        "keys, value", _MISSING + _BAD_VALUES, ids=lambda v: _dotted(v) if isinstance(v, tuple) else None
    )
    def test_single_defect_is_rejected_at_its_path(self, keys, value):
        with pytest.raises(ScenarioParseError) as err:
            parse_document(_edited(keys, value))
        # the error names the field itself or one key or element below it
        parent = re.sub(r"(\.[^.\[]+|\[\d+\])$", "", err.value.path)
        assert _dotted(keys) in (err.value.path, parent)
        if value is _DELETE:
            assert "missing required field" in str(err.value)

    @pytest.mark.parametrize(
        "keys, value",
        [
            (("seed",), None),
            (_EN + ("power_pool_w",), None),
            (("seed",), 0),
            (_EN + ("power_pool_w",), 0.0),
            (_EN + ("compute_units",), 0),
            (_EN + ("bandwidth_hz",), 0),
            (_GEN + ("critical_prior",), 1),
            (_GEN + ("count",), 0),
            (_CHANNEL + ("eavesdropper_gain",), 0),
            (_UE + ("energy", "access_counts"), []),
            # keys outside a trace source are not checked
            (("comment",), "ignored"),
            (_UE + ("name",), "ue-0"),
            (_CHANNEL + ("unit",), "linear"),
        ],
        ids=lambda v: _dotted(v) if isinstance(v, tuple) else None,
    )
    def test_edge_values_are_accepted(self, keys, value):
        parse_document(_edited(keys, value))

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize(
        "keys",
        [
            ("bandwidth_cap_hz",),
            _UE + ("weight",),
            _CHANNEL + ("eavesdropper_gain",),
            _GEN + ("critical_drift",),
            _GEN + ("normal_drift",),
            _EN + ("power_pool_w",),
        ],
        ids=_dotted,
    )
    def test_non_finite_numbers_are_rejected(self, keys, value, tmp_path, capsys):
        doc = _edited(keys, value)
        with pytest.raises(ScenarioParseError) as err:
            parse_document(doc)
        assert err.value.path == _dotted(keys)
        # json.dumps writes NaN and Infinity, which json.loads accepts back
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert cli.main(["solve", str(path)]) == 2
        assert _dotted(keys) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "keys, value",
        [
            (_UE + ("weight",), 10**400),
            (("bandwidth_cap_hz",), -(10**400)),
            (_EN + ("power_pool_w",), 10**309),
        ],
        ids=lambda v: _dotted(v) if isinstance(v, tuple) else None,
    )
    def test_integers_too_large_for_a_float_are_rejected(self, keys, value, tmp_path, capsys):
        doc = _edited(keys, value)
        with pytest.raises(ScenarioParseError) as err:
            parse_document(doc)
        assert err.value.path == _dotted(keys)
        assert "is not of type" in str(err.value)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert cli.main(["solve", str(path)]) == 2
        assert _dotted(keys) in capsys.readouterr().err

    def test_integers_in_number_fields_are_stored_as_floats(self):
        config = parse_document(_edited(_UE + ("weight",), 2))
        assert config.ues[0].weight == 2.0 and type(config.ues[0].weight) is float
        assert type(config.ens[0].compute_units) is int


class TestRandomScenario:
    def test_same_seed_is_identical(self):
        a = random_scenario_config(3, 2, 42)
        b = random_scenario_config(3, 2, 42)
        assert a == b
        assert realize(a) == realize(b)

    def test_zero_users_rejected(self):
        with pytest.raises(ValueError):
            random_scenario(0, 1, 1)
        with pytest.raises(ValueError):
            random_scenario(1, 0, 1)

    def test_full_advantage_probability_gives_positive_secrecy_everywhere(self):
        for seed in range(10):
            scenario = random_scenario(3, 2, seed, advantage_probability=1.0)
            for i in range(3):
                assert max_secrecy_rate(scenario, i) > 0.0

    def test_zero_advantage_probability_blocks_every_link(self):
        scenario = random_scenario(3, 2, 5, advantage_probability=0.0)
        for i in range(3):
            assert max_secrecy_rate(scenario, i) == 0.0

    def test_streams_always_contain_both_classes(self):
        for seed in range(15):
            scenario = random_scenario(2, 1, 900 + seed)
            for ue in scenario.ues:
                labels = {t.true_label for t in ue.stream.traces}
                assert labels == {"critical", "normal"}

    @pytest.mark.parametrize("event_count_range", [(1, 1), (0, 0), (5, 4)])
    def test_event_count_range_that_cannot_hold_both_classes_rejected(self, event_count_range):
        with pytest.raises(ValueError, match="event_count_range"):
            random_scenario(2, 2, 0, event_count_range=event_count_range)

    @pytest.mark.parametrize(
        "n_ues, n_ens, seed, kwargs, digest",
        [
            (4, 2, 3, dict(security_levels=1),
             "0ed9a68843bdfa5b76aeaaca2a86babbfecce67ce1cdb081393875d7a6a71832"),
            (5, 3, 17, dict(security_levels=2),
             "1619dfa498488929e9f08892eee044aed66789b00bdd1c9b6b3721d938069835"),
            (6, 3, 29, dict(security_levels=3),
             "d46530eb4217b92df39867790cf0bcbe20333d87bc9d7572c19b6287a8459740"),
            (5, 3, 41, dict(security_levels=2, power_pool_probability=0.5),
             "254c2b1c6d01b1ed7bb9a02a5a37df5dd6569e63862c76d2a2442b5c70aec70c"),
        ],
    )
    def test_streams_are_pinned_bit_for_bit(self, n_ues, n_ens, seed, kwargs, digest):
        # Any change to how random_scenario draws or reuses its streams shows here.
        h = hashlib.sha256()
        for ue in random_scenario(n_ues, n_ens, seed, **kwargs).ues:
            for column in (ue.stream.event_ids, ue.stream.critical, ue.stream.scores):
                h.update(column.tobytes())
        assert h.hexdigest() == digest


class TestEachStreamDrawnOnce:
    @pytest.fixture
    def draws(self, monkeypatch):
        """(params, stream) of every generate_stream call made through scenario."""
        calls = []

        def counting(params, count):
            calls.append((params, generate_stream(params, count)))
            return calls[-1][1]

        monkeypatch.setattr(scenario_mod, "generate_stream", counting)
        return calls

    def test_random_scenario(self, draws):
        scenario = random_scenario(6, 3, 29, security_levels=3)
        params = [p for p, _ in draws]
        assert len(params) == len(set(params)) >= len(scenario.ues)
        assert all(any(ue.stream is s for _, s in draws) for ue in scenario.ues)

    def test_gen(self, draws, tmp_path, monkeypatch, capsys):
        saved = []

        def recording(stream, path):
            saved.append(stream)
            save_stream(stream, path)

        monkeypatch.setattr(cli, "save_stream", recording)
        assert cli.main(["gen", "--seed", "7", "--out", str(tmp_path), "--ues", "4"]) == 0
        params = [p for p, _ in draws]
        assert len(params) == len(set(params)) >= len(saved) == 4
        assert all(any(stream is s for _, s in draws) for stream in saved)


def make_bundle(seed=0):
    config = random_scenario_config(2, 2, seed)
    scenario = realize(config)
    plan, report = solve_alternating(scenario, SolveOptions(mode="exhaustive"))
    counts, metrics = [], []
    for ue, thr in zip(scenario.ues, plan.thresholds):
        c, m = evaluate(ue.stream, thr)
        counts.append(c)
        metrics.append(m)
    return build_bundle(serialize_document(config), plan, report, counts, metrics)


class TestBundles:
    def test_write_read_identity(self, tmp_path):
        bundle = make_bundle()
        path = tmp_path / "bundle.json"
        write_bundle(bundle, path)
        loaded = read_bundle(path)
        assert loaded.report == bundle.report
        assert loaded.metrics == bundle.metrics
        assert loaded.counts == bundle.counts
        assert loaded.config_digest == bundle.config_digest
        assert np.array_equal(loaded.plan.assignment, bundle.plan.assignment)
        assert loaded.plan.thresholds == bundle.plan.thresholds

    def test_plan_matrices_read_back_with_their_dtypes(self, tmp_path):
        path = tmp_path / "bundle.json"
        write_bundle(make_bundle(), path)
        plan = read_bundle(path).plan
        assert plan.assignment.dtype == plan.compute_units.dtype == np.int64
        assert plan.bandwidth_hz.dtype == plan.power_w.dtype == np.float64

    def test_rewrite_is_byte_stable(self, tmp_path):
        bundle = make_bundle(3)
        first = tmp_path / "one.json"
        second = tmp_path / "two.json"
        write_bundle(bundle, first)
        write_bundle(read_bundle(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_tampered_config_warns(self, tmp_path):
        bundle = make_bundle(1)
        path = tmp_path / "bundle.json"
        write_bundle(bundle, path)
        payload = json.loads(path.read_text())
        payload["config"]["power_cap_w"] = 999.0
        path.write_text(json.dumps(payload, sort_keys=True))
        with pytest.warns(RuntimeWarning, match="digest mismatch"):
            read_bundle(path)

    def test_unknown_schema_version_rejected(self, tmp_path):
        bundle = make_bundle(2)
        path = tmp_path / "bundle.json"
        write_bundle(bundle, path)
        payload = json.loads(path.read_text())
        for version in (1, 99):
            payload["schema_version"] = version
            path.write_text(json.dumps(payload))
            with pytest.raises(BundleSchemaError, match="version") as err:
                read_bundle(path)
            assert ("predates v2, so re-run `solve`" in str(err.value)) == (version == 1)

    def test_schema_violation_rejected(self, tmp_path):
        bundle = make_bundle(2)
        payload = bundle_to_dict(bundle)
        del payload["report"]["objective"]
        with pytest.raises(BundleSchemaError, match="schema"):
            bundle_from_dict(payload)

    def test_digest_tracks_canonical_config(self):
        bundle = make_bundle(4)
        assert bundle.config_digest == config_digest(bundle.config)
        assert len(bundle.config_digest) == 64

    def test_payload_validates_against_published_schema(self):
        from jsonschema import validate

        payload = bundle_to_dict(make_bundle(5))
        validate(payload, BUNDLE_SCHEMA)

    @pytest.mark.parametrize("text", ["[]", "null", "3", '"bundle"'])
    def test_non_object_json_is_rejected(self, tmp_path, text):
        path = tmp_path / "bundle.json"
        path.write_text(text)
        with pytest.raises(BundleSchemaError, match="JSON object"):
            read_bundle(path)


def _names(kind):
    return [f.name for f in dataclasses.fields(kind)]


_PLAN_MATRICES = ["assignment", "bandwidth_hz", "power_w", "compute_units"]

# One wrong-typed leaf per case: every report, diagnostics and metrics field,
# both threshold bounds and each plan matrix.
_WRONG_LEAVES = (
    [(("report", name), "wrong") for name in _names(SolveReport)]
    + [(("report", "diagnostics", 0, name), "wrong") for name in _names(UserDiagnostics)]
    + [(("metrics", 1, name), "wrong") for name in _names(ConfusionCounts) + _names(MetricsReport)]
    + [(("plan", "thresholds", 0, name), "wrong") for name in ("lower", "upper")]
    + [(("plan", name), "wrong") for name in _PLAN_MATRICES]
    + [(("plan", name), [["wrong"]]) for name in _PLAN_MATRICES]
    + [
        (("report", "certified_gap_pct"), float("nan")),
        (("report", "certified_gap_pct"), True),
        (("report", "objective"), float("nan")),
        (("report", "objective"), float("inf")),
        (("report", "objective"), float("-inf")),
        (("report", "certified_gap_pct"), _DELETE),
        (("report", "objective"), True),
        (("report", "per_user_utility"), ["wrong"]),
        (("report", "diagnostics", 0, "user"), 0.5),
        (("metrics", 0, "tp"), 0.5),
        (("plan", "assignment", 0, 1), 0.5),
        (("plan", "compute_units", 1, 0), 5.25),
        (("created_at",), None),
        (("config_digest",), "0" * 63),
        (("config",), []),
        (("schema_version",), _DELETE),
    ]
)


class TestBundleValidation:
    @pytest.fixture(scope="class")
    def payload(self):
        bundle = dataclasses.replace(make_bundle(6), created_at="2026-01-01T00:00:00+00:00")
        return bundle_to_dict(bundle)

    @pytest.mark.parametrize(
        "keys, value", _WRONG_LEAVES, ids=lambda v: _dotted(v) if isinstance(v, tuple) else None
    )
    def test_wrong_typed_leaf_is_rejected(self, payload, keys, value):
        edited = copy.deepcopy(payload)
        parent = edited
        for key in keys[:-1]:
            parent = parent[key]
        assert keys[-1] in parent
        if value is _DELETE:
            del parent[keys[-1]]
        else:
            parent[keys[-1]] = value
        with pytest.raises(BundleSchemaError):
            bundle_from_dict(edited)

    @pytest.mark.parametrize(
        "keys, value, reason",
        [
            (("plan", "thresholds", 0), {"lower": 0.9, "upper": 0.1}, "thresholds must satisfy"),
            (("plan", "power_w"), [[0.1]], "power_w must match"),
            (("plan", "compute_units", 1, 0), 2**70, "too large"),
        ],
        ids=["inverted-thresholds", "one-by-one-power", "int64-overflow-units"],
    )
    def test_schema_valid_but_inconsistent_bundle_is_rejected(self, payload, keys, value, reason):
        with pytest.raises(BundleSchemaError, match=reason):
            bundle_from_dict(_edited(keys, value, payload))

    def test_unedited_payload_is_accepted(self, payload):
        assert bundle_to_dict(bundle_from_dict(copy.deepcopy(payload))) == payload
