"""Scenario documents, random scenario generation, and result bundles.

A scenario document is JSON with explicit unit suffixes (Hz, W, bits,
seconds, joules).  Each user carries exactly one trace source: a CSV file
(resolved relative to the document) or generator settings.  Documents are
validated against the published SCENARIO_SCHEMA; parsing and serialising
are derived from the config dataclasses and one table of renamed fields.
Solver outputs are persisted as schema-versioned, digest-stamped JSON
bundles whose encoding, decoding and BUNDLE_SCHEMA derive from dataclasses.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import types
import typing
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Sequence

import numpy as np
from jsonschema import Draft202012Validator, ValidationError, validators

from .exitpolicy import ConfusionCounts, MetricsReport
from .fairopt import AllocationPlan, ENProfile, Scenario, SolveReport, UEProfile
from .link import ChannelState, EnergyModel, LinkAllocation, OffloadDemand, secrecy_rate
from .trace import EventStream, GeneratorParams, generate_stream, load_stream

BUNDLE_SCHEMA_VERSION = 2


class ScenarioParseError(ValueError):
    """Invalid scenario document; the message names the offending field path."""

    def __init__(self, message: str, path: str = ""):
        if path:
            message = f"{path}: {message}"
        super().__init__(message)
        self.path = path


class BundleSchemaError(ValueError):
    """Result bundle does not match the supported schema or version."""


@dataclass(frozen=True)
class GeneratorSpec:
    params: GeneratorParams
    count: int

    def __post_init__(self):
        if self.count < 0:
            raise ValueError("count must be >= 0")

    @functools.cached_property
    def stream(self) -> EventStream:
        """The generated events, drawn once; the spec is frozen, so they never go stale."""
        return generate_stream(self.params, self.count)


@dataclass(frozen=True)
class UEConfig:
    """A user profile with its trace source in place of the stream."""

    weight: float
    security_level: int
    demand: OffloadDemand
    channel: ChannelState
    energy: EnergyModel
    trace_file: str | None = None
    generator: GeneratorSpec | None = None

    def __post_init__(self):
        if (self.trace_file is None) == (self.generator is None):
            raise ValueError("exactly one of trace_file or generator is required")


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated mirror of a scenario document."""

    security_levels: int
    bandwidth_cap_hz: float
    power_cap_w: float
    ues: tuple[UEConfig, ...]
    ens: tuple[ENProfile, ...]
    seed: int | None = None


# Where a dataclass field sits in its JSON object when not under its own
# name.  Parsing and serialising both read this table; () places a nested
# dataclass's fields in the enclosing object itself.
_DOC_PATHS: dict[type, dict[str, tuple[str, ...]]] = {
    ChannelState: {
        "noise_psd": ("noise_psd_w_per_hz",),
        "eavesdropper_noise_psd": ("eavesdropper_noise_psd_w_per_hz",),
    },
    UEConfig: {
        "demand": (),
        "trace_file": ("trace", "file"),
        "generator": ("trace", "generator"),
    },
    GeneratorSpec: {"params": ()},
}


def _object(required: dict, optional: dict | None = None) -> dict:
    return {
        "type": "object",
        "required": list(required),
        "properties": {**required, **(optional or {})},
    }


_NUMBER = {"type": "number"}
_NON_NEGATIVE = {"type": "number", "minimum": 0}
_POSITIVE = {"type": "number", "exclusiveMinimum": 0}
_COUNT = {"type": "integer", "minimum": 0}
_LEVEL = {"type": "integer", "minimum": 1}

# Published schema of a scenario document.  A user's or node's
# security_level must also not exceed security_levels, which parse_document
# checks after the schema.
SCENARIO_SCHEMA: dict = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    **_object(
        {
            "security_levels": _LEVEL,
            "bandwidth_cap_hz": _NON_NEGATIVE,
            "power_cap_w": _NON_NEGATIVE,
            "ues": {
                "type": "array",
                "minItems": 1,
                "items": _object({
                    "weight": _POSITIVE,
                    "security_level": _LEVEL,
                    "feature_size_bits": _POSITIVE,
                    "deadline_s": _POSITIVE,
                    "channel": _object({
                        "gain": _NON_NEGATIVE,
                        "noise_psd_w_per_hz": _POSITIVE,
                        "eavesdropper_gain": _NON_NEGATIVE,
                        "eavesdropper_noise_psd_w_per_hz": _POSITIVE,
                    }),
                    "energy": _object({
                        "joules_per_access": _NON_NEGATIVE,
                        "access_counts": {"type": "array", "items": _COUNT},
                    }),
                    # exactly one trace source
                    "trace": {
                        "type": "object",
                        "minProperties": 1,
                        "maxProperties": 1,
                        "additionalProperties": False,
                        "properties": {
                            "file": {"type": "string", "minLength": 1},
                            "generator": _object({
                                "layer_count": _LEVEL,
                                "critical_prior": {"type": "number", "minimum": 0, "maximum": 1},
                                "critical_drift": _NUMBER,
                                "normal_drift": _NUMBER,
                                "noise_std": _NON_NEGATIVE,
                                "seed": _COUNT,
                                "count": _COUNT,
                            }),
                        },
                    },
                }),
            },
            "ens": {
                "type": "array",
                "minItems": 1,
                "items": _object(
                    {"bandwidth_hz": _NON_NEGATIVE, "compute_units": _COUNT, "security_level": _LEVEL},
                    {"power_pool_w": {"type": ["number", "null"], "minimum": 0}},
                ),
            },
        },
        {"seed": {"type": ["integer", "null"], "minimum": 0}},
    ),
}


def _is_integer(checker, value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(checker, value) -> bool:
    """A finite float, or an integer that converts to one without overflow."""
    if not (_is_integer(checker, value) or isinstance(value, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


# Draft 2020-12 for both published schemas, except that "number" excludes
# booleans, NaN and ±Infinity and "integer" excludes floats such as 3.0.
_Validator = validators.extend(
    Draft202012Validator,
    type_checker=Draft202012Validator.TYPE_CHECKER.redefine_many(
        {"integer": _is_integer, "number": _is_number}
    ),
)
_SCENARIO_VALIDATOR = _Validator(SCENARIO_SCHEMA)


def _parse_error(error: ValidationError) -> ScenarioParseError:
    """Map a schema error to the field path form ``ues[0].channel.gain``."""
    keys, reason = list(error.absolute_path), error.message
    if error.validator == "required":
        keys.append(next(k for k in error.validator_value if k not in error.instance))
        reason = "missing required field"
    path = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in keys)
    return ScenarioParseError(reason, path.lstrip("."))


_field_types = functools.cache(typing.get_type_hints)
_ABSENT = object()


def _lookup(doc: dict, path: tuple[str, ...]) -> Any:
    for key in path:
        if key not in doc:
            return _ABSENT
        doc = doc[key]
    return doc


def _without_none(kind: Any) -> Any:
    """``X`` for an annotation ``X | None``, else the annotation itself."""
    if isinstance(kind, types.UnionType):
        return next(a for a in typing.get_args(kind) if a is not type(None))
    return kind


def _scalar_type(kind: Any) -> type:
    """The scalar type of an ``npt.NDArray[scalar]`` annotation."""
    return typing.get_args(typing.get_args(kind)[1])[0]


def _decode(kind: Any, value: Any) -> Any:
    """Build a value of the annotated type ``kind`` from its JSON form.

    Dataclass fields are read from their _DOC_PATHS location (absent ones
    keep their defaults), tuples are rebuilt from lists, matrices become
    arrays of their annotated dtype, and JSON integers in float fields
    become floats.
    """
    if value is None:
        return None
    kind = _without_none(kind)
    if dataclasses.is_dataclass(kind):
        paths, hints = _DOC_PATHS.get(kind, {}), _field_types(kind)
        kwargs = {}
        for f in dataclasses.fields(kind):
            item = _lookup(value, paths.get(f.name, (f.name,)))
            if item is not _ABSENT:
                kwargs[f.name] = _decode(hints[f.name], item)
        return kind(**kwargs)
    if typing.get_origin(kind) is tuple:
        return tuple(_decode(typing.get_args(kind)[0], item) for item in value)
    if typing.get_origin(kind) is np.ndarray:
        return np.asarray(value, dtype=_scalar_type(kind))
    if kind is float and type(value) is int:
        return float(value)
    return value


def _encode(value: Any) -> Any:
    """JSON form of a dataclass tree, the inverse of _decode.

    Fields left at a None default are omitted, and tuples and arrays become
    lists, which jsonschema's "array" requires.
    """
    if isinstance(value, tuple):
        return [_encode(item) for item in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    if not dataclasses.is_dataclass(value):
        return value
    doc: dict[str, Any] = {}
    paths = _DOC_PATHS.get(type(value), {})
    for f in dataclasses.fields(value):
        item = getattr(value, f.name)
        if item is None and f.default is None:
            continue
        path = paths.get(f.name, (f.name,))
        if not path:
            doc.update(_encode(item))
            continue
        target = doc
        for key in path[:-1]:
            target = target.setdefault(key, {})
        target[path[-1]] = _encode(item)
    return doc


_JSON_TYPES = {float: "number", int: "integer", bool: "boolean", str: "string", dict: "object"}


def _schema(kind: Any) -> dict:
    """JSON schema of _encode's output for the annotated type ``kind``.

    A dataclass field is required unless it defaults to None; such a field
    is omitted when None, so it is optional but never null.  Only a
    ``X | None`` field without that default admits null.  Fields sit under
    their own names: types with _DOC_PATHS entries are not supported.
    """
    if isinstance(kind, types.UnionType):
        schema = _schema(_without_none(kind))
        return {**schema, "type": [schema["type"], "null"]}
    if dataclasses.is_dataclass(kind):
        hints, fields = _field_types(kind), dataclasses.fields(kind)
        return {
            "type": "object",
            "required": [f.name for f in fields if f.default is not None],
            "properties": {
                f.name: _schema(_without_none(hints[f.name]) if f.default is None else hints[f.name])
                for f in fields
            },
        }
    if typing.get_origin(kind) is tuple:
        return {"type": "array", "items": _schema(typing.get_args(kind)[0])}
    if typing.get_origin(kind) is np.ndarray:
        item = "integer" if issubclass(_scalar_type(kind), np.integer) else "number"
        return {"type": "array", "items": {"type": "array", "items": {"type": item}}}
    return {"type": _JSON_TYPES[kind]}


def parse_document(document: str | dict) -> ScenarioConfig:
    """Validate a scenario document (JSON text or parsed object) completely.

    Any defect raises ScenarioParseError naming the field path; a returned
    config is fully valid.
    """
    if isinstance(document, str):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as err:
            raise ScenarioParseError(f"invalid JSON: {err}") from None
    error = next(_SCENARIO_VALIDATOR.iter_errors(document), None)
    if error is not None:
        raise _parse_error(error)
    config = _decode(ScenarioConfig, document)
    for key in ("ues", "ens"):
        for i, item in enumerate(getattr(config, key)):
            if item.security_level > config.security_levels:
                raise ScenarioParseError(
                    f"must be <= security_levels ({config.security_levels})",
                    f"{key}[{i}].security_level",
                )
    return config


def serialize_document(config: ScenarioConfig) -> dict:
    """Canonical document for a config; parse(serialize(c)) == c."""
    return _encode(config)


def realize(config: ScenarioConfig, base_dir: str | Path = ".") -> Scenario:
    """Materialize profiles and event streams from a validated config."""
    ues = tuple(
        UEProfile(
            weight=ue.weight,
            security_level=ue.security_level,
            demand=ue.demand,
            channel=ue.channel,
            energy=ue.energy,
            stream=load_stream(Path(base_dir) / ue.trace_file)
            if ue.trace_file is not None
            else ue.generator.stream,
        )
        for ue in config.ues
    )
    return Scenario(
        ues=ues,
        ens=config.ens,
        bandwidth_cap_hz=config.bandwidth_cap_hz,
        power_cap_w=config.power_cap_w,
        security_levels=config.security_levels,
    )


def parse_scenario(document: str | dict, base_dir: str | Path = ".") -> Scenario:
    """Parse and materialize in one step."""
    return realize(parse_document(document), base_dir=base_dir)


def load_scenario(path: str | Path) -> Scenario:
    """Read a scenario document file; trace files resolve relative to it."""
    path = Path(path)
    return parse_scenario(path.read_text(encoding="utf-8"), base_dir=path.parent)


def random_scenario_config(
    n_ues: int,
    n_ens: int,
    seed: int,
    *,
    security_levels: int = 2,
    advantage_probability: float = 1.0,
    event_count_range: tuple[int, int] = (30, 60),
    layer_counts: Sequence[int] = (3, 4),
    compute_range: tuple[int, int] = (3, 10),
    power_pool_probability: float = 0.0,
) -> ScenarioConfig:
    """Deterministic random scenario; defaults are calibrated to be solvable.

    Each user's channel satisfies the secrecy-advantage condition with the
    given probability; per-user generator sub-seeds are redrawn until the
    stream contains both classes, keeping rate metrics well defined.
    """
    if n_ues < 1 or n_ens < 1:
        raise ValueError("n_ues and n_ens must be >= 1")
    if not 0.0 <= advantage_probability <= 1.0:
        raise ValueError("advantage_probability must be in [0, 1]")
    # A stream of fewer than two events can never hold both classes.
    if not 2 <= event_count_range[0] <= event_count_range[1]:
        raise ValueError("event_count_range must satisfy 2 <= low <= high")
    rng = np.random.default_rng(seed)
    noise_psd = 1e-13

    ues = []
    for _ in range(n_ues):
        gain = 10.0 ** rng.uniform(-6.0, -5.0)
        if rng.random() < advantage_probability:
            eav_gain = gain * rng.uniform(0.05, 0.5)
        else:
            eav_gain = gain * rng.uniform(1.0, 2.0)
        channel = ChannelState(
            gain=gain,
            noise_psd=noise_psd,
            eavesdropper_gain=eav_gain,
            eavesdropper_noise_psd=noise_psd,
        )
        count = int(rng.integers(event_count_range[0], event_count_range[1] + 1))
        base = dict(
            layer_count=int(rng.choice(list(layer_counts))),
            critical_prior=float(rng.uniform(0.25, 0.5)),
            critical_drift=float(rng.uniform(0.5, 1.0)),
            normal_drift=-float(rng.uniform(0.5, 1.0)),
            noise_std=float(rng.uniform(0.3, 0.7)),
        )
        while True:
            spec = GeneratorSpec(GeneratorParams(seed=int(rng.integers(0, 2**31)), **base), count)
            critical = spec.stream.critical
            if critical.any() and not critical.all():
                break
        ues.append(
            UEConfig(
                weight=float(rng.uniform(0.5, 2.0)),
                security_level=int(rng.integers(1, security_levels + 1)),
                demand=OffloadDemand(
                    feature_size_bits=float(rng.uniform(1e4, 4e4)),
                    deadline_s=float(rng.uniform(0.2, 0.8)),
                ),
                channel=channel,
                energy=EnergyModel(
                    joules_per_access=float(rng.uniform(1e-10, 1e-9)),
                    access_counts=tuple(
                        int(rng.integers(10_000, 1_000_000))
                        for _ in range(int(rng.integers(2, 5)))
                    ),
                ),
                generator=spec,
            )
        )

    ens = []
    for j in range(n_ens):
        pool = float(rng.uniform(0.2, 1.0)) if rng.random() < power_pool_probability else None
        ens.append(
            ENProfile(
                bandwidth_hz=float(rng.uniform(4e6, 8e6)),
                compute_units=int(rng.integers(compute_range[0], compute_range[1] + 1)),
                # The first node always offers the strictest clearance so no
                # user is blocked by security alone.
                security_level=1 if j == 0 else int(rng.integers(1, security_levels + 1)),
                power_pool_w=pool,
            )
        )

    return ScenarioConfig(
        security_levels=security_levels,
        bandwidth_cap_hz=2e6,
        power_cap_w=0.1,
        ues=tuple(ues),
        ens=tuple(ens),
        seed=seed,
    )


def random_scenario(n_ues: int, n_ens: int, seed: int, **kwargs) -> Scenario:
    """Materialized random scenario; see random_scenario_config for knobs."""
    return realize(random_scenario_config(n_ues, n_ens, seed, **kwargs))


def max_secrecy_rate(scenario: Scenario, user: int) -> float:
    """Secure rate of one user's link at the per-pair bandwidth and power caps."""
    alloc = LinkAllocation(bandwidth_hz=scenario.bandwidth_cap_hz, power_w=scenario.power_cap_w)
    return secrecy_rate(alloc, scenario.ues[user].channel)


def canonical_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def config_digest(config_doc: dict) -> str:
    """SHA-256 over the canonical JSON form of a scenario document."""
    return hashlib.sha256(canonical_json(config_doc).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class ResultBundle:
    """Solver output plus the config that produced it, digest-stamped."""

    config: dict
    config_digest: str
    plan: AllocationPlan
    report: SolveReport
    counts: tuple[ConfusionCounts, ...]
    metrics: tuple[MetricsReport, ...]
    created_at: str | None = None
    schema_version: int = BUNDLE_SCHEMA_VERSION


def _bundle_schema() -> dict:
    """Schema of bundle_to_dict's output: one `metrics` row per user merges
    its counts and rates."""
    schema = _schema(ResultBundle)
    props = schema["properties"]
    schema["required"].remove("counts")
    counts, rows = props.pop("counts")["items"], props["metrics"]["items"]
    rows["required"] = counts["required"] + rows["required"]
    rows["properties"] = {**counts["properties"], **rows["properties"]}
    props["config_digest"]["pattern"] = "^[0-9a-f]{64}$"
    return {"$schema": "https://json-schema.org/draft/2020-12/schema", **schema}


# Published schema of a result bundle, derived from the dataclasses above.
BUNDLE_SCHEMA: dict = _bundle_schema()
_BUNDLE_VALIDATOR = _Validator(BUNDLE_SCHEMA)


def build_bundle(
    config_doc: dict,
    plan: AllocationPlan,
    report: SolveReport,
    counts: Sequence[ConfusionCounts],
    metrics: Sequence[MetricsReport],
    created_at: str | None = None,
) -> ResultBundle:
    return ResultBundle(
        config=config_doc,
        config_digest=config_digest(config_doc),
        plan=plan,
        report=report,
        counts=tuple(counts),
        metrics=tuple(metrics),
        created_at=created_at,
    )


def bundle_to_dict(bundle: ResultBundle) -> dict:
    payload = _encode(bundle)
    payload["metrics"] = [{**c, **m} for c, m in zip(payload.pop("counts"), payload["metrics"])]
    return payload


def bundle_from_dict(payload: dict) -> ResultBundle:
    if not isinstance(payload, dict):
        raise BundleSchemaError(f"a bundle must be a JSON object, not {type(payload).__name__}")
    version = payload.get("schema_version")
    if version != BUNDLE_SCHEMA_VERSION:
        raise BundleSchemaError(
            f"unsupported bundle schema version {version!r}, expected {BUNDLE_SCHEMA_VERSION}"
            + ("; the bundle predates v2, so re-run `solve` to rebuild it" if version == 1 else "")
        )
    errors = sorted(_BUNDLE_VALIDATOR.iter_errors(payload), key=str)
    if errors:
        raise BundleSchemaError(f"bundle does not match the schema: {errors[0].message}")
    if config_digest(payload["config"]) != payload["config_digest"]:
        warnings.warn(
            "bundle config digest mismatch; the config or digest was modified",
            RuntimeWarning,
            stacklevel=2,
        )
    try:
        return _decode(ResultBundle, {**payload, "counts": payload["metrics"]})
    except (ValueError, OverflowError) as err:  # schema-valid values the types reject
        raise BundleSchemaError(f"inconsistent bundle: {err}") from None


def write_bundle(bundle: ResultBundle, path: str | Path) -> None:
    """Persist as deterministic JSON (sorted keys, stable float repr)."""
    text = json.dumps(bundle_to_dict(bundle), sort_keys=True, indent=2)
    Path(path).write_text(text + "\n", encoding="utf-8", newline="\n")


def read_bundle(path: str | Path) -> ResultBundle:
    """Load and validate a bundle; digest tampering emits a warning."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as err:
        raise BundleSchemaError(f"invalid bundle JSON: {err}") from None
    return bundle_from_dict(payload)
