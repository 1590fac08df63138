"""Event streams with per-layer confidence scores.

A stream is an ordered collection of independent events, held as columns:
event ids, ground-truth labels (critical or normal) and one confidence score
per event and classifier layer, every score strictly inside (0, 1).  Streams
either come from the synthetic generator below (a class-conditional logit
random walk) or from trace CSV files, so real classifier outputs can be
plugged in unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterator, NamedTuple

import numpy as np

CRITICAL = "critical"
NORMAL = "normal"
LABELS = (CRITICAL, NORMAL)

# Scores exactly 0 or 1 would make strict threshold comparisons ambiguous;
# generator output is clamped just inside the open interval.
_CONF_CLAMP = 1e-12


class TraceParseError(ValueError):
    """Malformed trace CSV content; carries the 1-based offending line."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass(frozen=True)
class LayerLogits:
    """Raw two-class outputs of one classifier layer for one event."""

    critical_logit: float
    normal_logit: float

    def __post_init__(self):
        if not (math.isfinite(self.critical_logit) and math.isfinite(self.normal_logit)):
            raise ValueError("logits must be finite")


@dataclass(frozen=True)
class ConfidenceTrace:
    """One event: ground-truth label plus per-layer critical-class confidences."""

    event_id: int
    true_label: str
    confidences: tuple[float, ...]

    def __post_init__(self):
        if self.true_label not in LABELS:
            raise ValueError(f"unknown label {self.true_label!r}")
        object.__setattr__(self, "confidences", tuple(float(c) for c in self.confidences))
        if len(self.confidences) < 1:
            raise ValueError("trace needs at least one layer")
        for c in self.confidences:
            if not 0.0 < c < 1.0:
                raise ValueError(f"confidence {c!r} outside open interval (0, 1)")

    @property
    def is_critical(self) -> bool:
        return self.true_label == CRITICAL


@dataclass(frozen=True, eq=False)
class EventStream:
    """Ordered events as three read-only columns: unique int64 `event_ids` (n),
    `critical` labels (n) and per-layer `scores` (n, layers), each score
    strictly inside (0, 1)."""

    event_ids: np.ndarray
    critical: np.ndarray
    scores: np.ndarray

    def __post_init__(self):
        labels = np.asarray(self.critical)
        if labels.size and labels.dtype != bool:
            raise ValueError(f"critical must hold booleans, not {labels.dtype}")
        for name, dtype in (("event_ids", np.int64), ("critical", bool), ("scores", float)):
            column = np.array(getattr(self, name), dtype=dtype)
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        if self.scores.ndim != 2 or self.scores.shape[1] < 1:
            raise ValueError("scores must be an (events, layers) array with at least one layer")
        if self.event_ids.shape != (len(self),) or self.critical.shape != (len(self),):
            raise ValueError("event_ids and critical need one entry per row of scores")
        if not ((self.scores > 0.0) & (self.scores < 1.0)).all():
            raise ValueError("a confidence lies outside the open interval (0, 1)")
        ids, counts = np.unique(self.event_ids, return_counts=True)
        if (counts > 1).any():
            raise ValueError(f"duplicate event_id {int(ids[counts > 1][0])}")

    @property
    def layer_count(self) -> int:
        return self.scores.shape[1]

    def __len__(self) -> int:
        return self.scores.shape[0]

    def __eq__(self, other) -> bool:
        return isinstance(other, EventStream) and all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self)
        )

    def _rows(self) -> Iterator[tuple[int, str, list[float]]]:
        """(event_id, label, scores) per event, as Python values."""
        labels = [CRITICAL if c else NORMAL for c in self.critical.tolist()]
        return zip(self.event_ids.tolist(), labels, self.scores.tolist())

    @property
    def traces(self) -> tuple[ConfidenceTrace, ...]:
        """Per-event view of the columns, built on each access."""
        return tuple(ConfidenceTrace(i, label, tuple(row)) for i, label, row in self._rows())


@dataclass(frozen=True)
class GeneratorParams:
    """Synthetic stream generator settings.

    Per event, the critical-vs-normal logit difference follows a random walk:
    each layer adds a class-dependent drift plus Gaussian noise, so deeper
    layers tend to be more confident about the true class.
    """

    layer_count: int
    critical_prior: float
    critical_drift: float
    normal_drift: float
    noise_std: float
    seed: int

    def __post_init__(self):
        if self.layer_count < 1:
            raise ValueError("layer_count must be >= 1")
        if not 0.0 <= self.critical_prior <= 1.0:
            raise ValueError("critical_prior must be in [0, 1]")
        if self.noise_std < 0.0:
            raise ValueError("noise_std must be >= 0")


class StreamStats(NamedTuple):
    total: int
    critical: int
    normal: int


def sigmoid(z: float) -> float:
    """Logistic function, evaluated so that no exponential can overflow."""
    if z >= 0.0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def confidence_from_logits(logits: LayerLogits) -> float:
    """Two-class softmax probability of the critical class."""
    return sigmoid(logits.critical_logit - logits.normal_logit)


def generate_stream(params: GeneratorParams, count: int) -> EventStream:
    """Draw `count` synthetic events; identical params and seed reproduce the stream exactly.

    Scores use the scalar sigmoid: numpy's exp is not bit-identical to math.exp.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    rng = np.random.default_rng(params.seed)
    critical, rows = [], []
    for _ in range(count):
        critical.append(rng.random() < params.critical_prior)
        drift = params.critical_drift if critical[-1] else params.normal_drift
        steps = drift + params.noise_std * rng.standard_normal(params.layer_count)
        logit = 0.0
        row = []
        for step in steps:
            logit += step
            row.append(min(max(sigmoid(logit), _CONF_CLAMP), 1.0 - _CONF_CLAMP))
        # A non-finite step leaves every later running sum non-finite.
        if not math.isfinite(logit):
            raise ValueError("logits must be finite")
        rows.append(row)
    matrix = np.array(rows, dtype=float).reshape(count, params.layer_count)
    return EventStream(event_ids=np.arange(count), critical=critical, scores=matrix)


def stream_stats(stream: EventStream) -> StreamStats:
    """Event counts: total, critical, normal.  total == critical + normal always."""
    critical = int(stream.critical.sum())
    return StreamStats(len(stream), critical, len(stream) - critical)


def _header(layer_count: int) -> str:
    cols = ",".join(f"c_{q}" for q in range(1, layer_count + 1))
    return f"event_id,label,{cols}"


def save_stream(stream: EventStream, path: str | Path) -> None:
    """Write the trace CSV (UTF-8, LF endings, 12 significant digits)."""
    lines = [_header(stream.layer_count)]
    for event_id, label, row in stream._rows():
        confs = ",".join(format(c, ".12g") for c in row)
        lines.append(f"{event_id},{label},{confs}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def load_stream(path: str | Path) -> EventStream:
    """Parse a trace CSV; any defect raises TraceParseError naming the line."""
    text = Path(path).read_text(encoding="utf-8")
    lines = [(lineno, ln) for lineno, ln in enumerate(text.split("\n"), start=1) if ln != ""]
    if not lines:
        raise TraceParseError("empty file, expected a header row", line=1)
    head_line, header = lines[0]
    head = header.split(",")
    if len(head) < 3 or head[0] != "event_id" or head[1] != "label":
        raise TraceParseError("header must be event_id,label,c_1,...,c_L", line=head_line)
    layer_count = len(head) - 2
    for q, name in enumerate(head[2:], start=1):
        if name != f"c_{q}":
            raise TraceParseError(
                f"confidence column {q} must be named c_{q}, got {name!r}", line=head_line
            )

    event_ids, critical, scores = [], [], []
    seen: set[int] = set()
    for lineno, row in lines[1:]:
        parts = row.split(",")
        if len(parts) != layer_count + 2:
            raise TraceParseError(
                f"expected {layer_count + 2} fields, got {len(parts)}", line=lineno
            )
        try:
            event_id = int(parts[0])
        except ValueError:
            raise TraceParseError(f"bad event_id {parts[0]!r}", line=lineno) from None
        if not -(2**63) <= event_id < 2**63:
            raise TraceParseError(f"event_id {event_id} outside the int64 range", line=lineno)
        if event_id in seen:
            raise TraceParseError(f"duplicate event_id {event_id}", line=lineno)
        seen.add(event_id)
        confs = []
        for raw in parts[2:]:
            try:
                confs.append(float(raw))
            except ValueError:
                raise TraceParseError(f"bad confidence {raw!r}", line=lineno) from None
        if parts[1] not in LABELS:
            raise TraceParseError(f"unknown label {parts[1]!r}", line=lineno)
        for c in confs:
            if not 0.0 < c < 1.0:
                raise TraceParseError(f"confidence {c!r} outside open interval (0, 1)", line=lineno)
        event_ids.append(event_id)
        critical.append(parts[1] == CRITICAL)
        scores.append(confs)
    matrix = np.array(scores, dtype=float).reshape(len(scores), layer_count)
    return EventStream(event_ids=event_ids, critical=critical, scores=matrix)
