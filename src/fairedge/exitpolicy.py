"""Dual-threshold early-exit classification and exact threshold selection.

An event is scanned layer by layer: the first score at or below the lower
threshold exits as normal, the first score at or above the upper threshold
exits as critical (and is offloaded), and an event that stays strictly
between the thresholds through the last layer is conservatively normal.

The empirical utility (true-positive rate over critical events) is a step
function of the thresholds whose value changes only at observed scores, so
the exact optimizer enumerates threshold pairs drawn from the observed
scores plus two out-of-range sentinels.  A sigmoid surrogate and a projected
gradient ascent are provided for smooth, approximate search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from .trace import CRITICAL, NORMAL, ConfidenceTrace, EventStream, sigmoid

# Sentinel offset placing candidate thresholds just outside the observed
# score range, so "never exit early" and "exit everything" are reachable.
_SENTINEL_DELTA = 1e-6

# Box margin used by the gradient-search projection.
_PROJECTION_EPS = 1e-6


class UndefinedMetricError(ValueError):
    """A rate metric has an empty denominator (e.g. no critical events)."""


@dataclass(frozen=True)
class ThresholdPair:
    """Lower/upper confidence thresholds, 0 < lower <= upper < 1."""

    lower: float
    upper: float

    def __post_init__(self):
        if not (0.0 < self.lower <= self.upper < 1.0):
            raise ValueError(
                f"thresholds must satisfy 0 < lower <= upper < 1, got ({self.lower}, {self.upper})"
            )


@dataclass(frozen=True)
class Decision:
    """Outcome of classifying one event; critical predictions are offloaded."""

    predicted_label: str
    exit_layer: int
    offloaded: bool

    def __post_init__(self):
        if self.offloaded != (self.predicted_label == CRITICAL):
            raise ValueError("offloaded must hold exactly for critical predictions")


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int

    def __post_init__(self):
        if min(self.tp, self.fp, self.tn, self.fn) < 0:
            raise ValueError("counts must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn

    @property
    def positives(self) -> int:
        return self.tp + self.fn

    @property
    def negatives(self) -> int:
        return self.tn + self.fp

    @property
    def offloaded(self) -> int:
        return self.tp + self.fp


@dataclass(frozen=True)
class MetricsReport:
    """The five rates; a rate is None when its denominator is empty."""

    car: float | None
    fpr: float | None
    fnr: float | None
    ofr: float | None
    utility: float | None


@dataclass(frozen=True)
class SoftParams:
    """Steepness of the sigmoid relaxation; larger tracks the hard rule closer."""

    steepness: float

    def __post_init__(self):
        if not self.steepness > 0.0:
            raise ValueError("steepness must be > 0")


def classify(trace: ConfidenceTrace, thr: ThresholdPair) -> Decision:
    """Apply the first-crossing rule; lower wins when a score hits both bounds."""
    last = len(trace.confidences)
    for layer, c in enumerate(trace.confidences, start=1):
        if c <= thr.lower:
            return Decision(NORMAL, layer, False)
        if c >= thr.upper:
            return Decision(CRITICAL, layer, True)
    return Decision(NORMAL, last, False)


def _exits(scores: np.ndarray, thr: ThresholdPair) -> tuple[np.ndarray, np.ndarray]:
    """The first-crossing rule on every row at once: whether each event exits
    critical, and the index of its first crossing layer (0 if none)."""
    low, high = scores <= thr.lower, scores >= thr.upper
    first = (low | high).argmax(axis=1)
    return (high & ~low)[np.arange(len(scores)), first], first


def evaluate(stream: EventStream, thr: ThresholdPair) -> tuple[ConfusionCounts, MetricsReport]:
    """Confusion counts and the five rates for one threshold pair."""
    offloaded, _ = _exits(stream.scores, thr)
    pos = int(stream.critical.sum())
    tp = int((offloaded & stream.critical).sum())
    fp = int(offloaded.sum()) - tp
    tn, fn = len(stream) - pos - fp, pos - tp
    counts = ConfusionCounts(tp=tp, fp=fp, tn=tn, fn=fn)
    total, neg = counts.total, counts.negatives
    report = MetricsReport(
        car=(tp + tn) / total if total else None,
        fpr=fp / neg if neg else None,
        fnr=fn / pos if pos else None,
        ofr=(tp + fp) / total if total else None,
        utility=tp / pos if pos else None,
    )
    return counts, report


def _candidate_thresholds(matrix: np.ndarray) -> np.ndarray:
    """Distinct observed scores plus sentinels just outside their range.

    Sentinels are pulled back toward the range midpoints when the fixed
    offset would leave the open interval (0, 1).  A score on the smallest
    positive double or the largest double below 1 leaves no room outside
    it, so the sentinel repeats that score: no valid threshold lies beyond.
    """
    scores = np.unique(matrix)
    lo = max(scores[0] - _SENTINEL_DELTA, scores[0] / 2.0, math.nextafter(0.0, 1.0))
    hi = min(scores[-1] + _SENTINEL_DELTA, (scores[-1] + 1.0) / 2.0, math.nextafter(1.0, 0.0))
    return np.concatenate(([lo], scores, [hi]))


def _build_pair_table(stream: EventStream, max_budget: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Candidate thresholds, the best packed key for every offload budget
    0..min(max_budget, n), and the critical-event count.

    For each candidate lower threshold, an event's fate is determined by the
    largest score it produces before its first at-or-below-lower crossing:
    the event exits critical under upper threshold u exactly when that
    pre-crossing maximum is >= u.  The first crossing is the first layer
    whose prefix minimum is <= lower, and the maximum before it is the
    prefix maximum one layer earlier (-inf when it is layer 1), so both
    prefix extrema are computed once.  An event's crossing moves only when
    the lower reaches one of its prefix minima; the layers where the prefix
    minimum falls are bucketed by the candidate rank of that minimum, and
    raising the lower to `cand[i]` updates only bucket i's events (at most
    nL updates in all).

    Per lower, sorting the maxima lets one binary search count true
    positives and offloads for many uppers at once.  Only uppers above the
    (max_budget+1)-th largest maximum offload at most max_budget events, so
    only those are searched.  Keys pack (tp, lower index, upper index) so a
    single integer argmax realizes both the utility objective and the
    tie-break preferring larger thresholds (fewer offloads) at equal utility.
    """
    matrix, crit = stream.scores, stream.critical
    n, layers = matrix.shape
    positives = int(crit.sum())
    if positives == 0:
        raise UndefinedMetricError("utility undefined: stream has no critical events")
    budget = min(max_budget, n)

    cand = _candidate_thresholds(matrix)
    k = len(cand)
    prefix_min = np.minimum.accumulate(matrix, axis=1)
    prefix_max = np.maximum.accumulate(matrix, axis=1)
    before = np.hstack((np.full((n, 1), -np.inf), prefix_max[:, :-1]))
    falls = np.ones((n, layers), dtype=bool)
    falls[:, 1:] = prefix_min[:, 1:] < prefix_min[:, :-1]
    # Prefix minima are observed scores, so each one's rank in cand is exact;
    # an event's falling minima are distinct, so it appears once per bucket.
    events, at = np.nonzero(falls)
    rank = np.searchsorted(cand, prefix_min[events, at])
    order = np.argsort(rank, kind="stable")
    events, maxima = events[order], before[events, at][order]
    edges = np.searchsorted(rank[order], np.arange(k + 1)).tolist()

    pre_max = prefix_max[:, -1].copy()  # no crossing below the lowest score
    best_key = np.full(budget + 1, -1, dtype=np.int64)
    for i in range(k):
        bucket = slice(edges[i], edges[i + 1])
        pre_max[events[bucket]] = maxima[bucket]
        all_sorted = np.sort(pre_max)
        first = i
        if budget < n:
            first = max(i, int(np.searchsorted(cand, all_sorted[n - budget - 1], side="right")))
        uppers = cand[first:]
        crit_sorted = np.sort(pre_max[crit])
        tp = positives - np.searchsorted(crit_sorted, uppers, side="left")
        offloads = n - np.searchsorted(all_sorted, uppers, side="left")
        keys = (tp.astype(np.int64) * k + i) * k + np.arange(first, k, dtype=np.int64)
        np.maximum.at(best_key, offloads, keys)

    return cand, np.maximum.accumulate(best_key), positives


def optimal_thresholds(stream: EventStream, offload_budget: int) -> tuple[ThresholdPair, float]:
    """Exact utility-maximizing pair among candidate scores, at most
    `offload_budget` events offloaded; ties prefer larger thresholds."""
    if offload_budget < 0:
        raise ValueError("offload budget must be >= 0")
    curve = utility_curve(stream, min(offload_budget, len(stream)))
    return curve.pairs[-1], float(curve.utilities[-1])


@dataclass(frozen=True)
class UtilityCurve:
    """Best utility and pair per offload budget 0..max_budget (non-decreasing).

    Value/pair lookups beyond max_budget return the last entry.  That is
    exact only when the curve covers the stream (max_budget >= its event
    count), where the curve has saturated; a shorter curve clamps.
    """

    utilities: np.ndarray
    pairs: tuple[ThresholdPair, ...]

    def __post_init__(self):
        if len(self.utilities) != len(self.pairs) or len(self.pairs) == 0:
            raise ValueError("utilities and pairs must align and be non-empty")

    @property
    def max_budget(self) -> int:
        return len(self.pairs) - 1

    def value(self, budget: int) -> float:
        return float(self.utilities[min(budget, self.max_budget)])

    def pair(self, budget: int) -> ThresholdPair:
        return self.pairs[min(budget, self.max_budget)]


def utility_curve(stream: EventStream, max_budget: int) -> UtilityCurve:
    """Exact threshold selection for every budget 0..max_budget, from one
    pair table built only for those budgets."""
    if max_budget < 0:
        raise ValueError("max_budget must be >= 0")
    cand, best_key, positives = _build_pair_table(stream, max_budget)
    keys = best_key[np.minimum(np.arange(max_budget + 1), len(stream))]
    tp, pair_index = np.divmod(keys, len(cand) ** 2)
    lower, upper = np.divmod(pair_index, len(cand))
    pairs = tuple(map(ThresholdPair, cand[lower].tolist(), cand[upper].tolist()))
    return UtilityCurve(utilities=tp / positives, pairs=pairs)


def soft_utility(stream: EventStream, thr: ThresholdPair, soft: SoftParams) -> float:
    """Smooth surrogate of the utility.

    Each correctly offloaded critical event contributes the product of two
    sigmoids measuring how far its exit-layer score sits above both
    thresholds; other critical events contribute zero.  As steepness grows
    the surrogate approaches the exact utility whenever no score sits on a
    threshold, and like the exact utility it never increases when either
    threshold is raised.
    """
    positives = int(stream.critical.sum())
    if positives == 0:
        raise UndefinedMetricError("soft utility undefined: stream has no critical events")
    offloaded, first = _exits(stream.scores, thr)
    hits = np.flatnonzero(offloaded & stream.critical)
    t = soft.steepness
    total = 0.0
    for c in stream.scores[hits, first[hits]].tolist():
        total += sigmoid(t * (c - thr.lower)) * sigmoid(t * (c - thr.upper))
    return total / positives


def projected_gradient_search(
    stream: EventStream,
    init: ThresholdPair,
    steps: int,
    learning_rate: float,
    soft: SoftParams,
) -> ThresholdPair:
    """Ascent on the soft utility with projection onto the ordered-thresholds box.

    Gradients are central finite differences (probe points clipped into the
    feasible box).  The lower threshold is projected into [eps, upper] first,
    then the upper into [new lower, 1 - eps], so a lower proposal overshooting
    the upper collapses onto it.  Returns the best iterate seen, which is the
    initial pair when the surrogate is flat.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if learning_rate <= 0.0:
        raise ValueError("learning_rate must be > 0")

    eps = _PROJECTION_EPS
    h = max(1e-5, min(1e-3, 0.1 / soft.steepness))

    def value(lower: float, upper: float) -> float:
        return soft_utility(stream, ThresholdPair(lower, upper), soft)

    lower = min(max(init.lower, eps), 1.0 - eps)
    upper = min(max(init.upper, lower), 1.0 - eps)
    best_value = value(lower, upper)
    best = ThresholdPair(lower, upper)

    for _ in range(steps):
        lo_hi, lo_lo = min(lower + h, upper), max(lower - h, eps)
        grad_lower = (
            (value(lo_hi, upper) - value(lo_lo, upper)) / (lo_hi - lo_lo) if lo_hi > lo_lo else 0.0
        )
        up_hi, up_lo = min(upper + h, 1.0 - eps), max(upper - h, lower)
        grad_upper = (
            (value(lower, up_hi) - value(lower, up_lo)) / (up_hi - up_lo) if up_hi > up_lo else 0.0
        )
        lower = min(max(lower + learning_rate * grad_lower, eps), upper)
        upper = min(max(upper + learning_rate * grad_upper, lower), 1.0 - eps)
        current = value(lower, upper)
        if current > best_value:
            best_value = current
            best = ThresholdPair(lower, upper)
    return best


def write_sweep_csv(
    stream: EventStream, pairs: Iterable[ThresholdPair], path: str | Path
) -> int:
    """Export metrics for each pair as CSV rows; returns the row count.

    Undefined rates are written as nan so plotting tools skip them.
    """

    def cell(value: float | None) -> str:
        return "nan" if value is None else format(value, ".10g")

    lines = ["alpha_l,alpha_u,car,fpr,fnr,ofr,utility"]
    for pair in pairs:
        _, r = evaluate(stream, pair)
        cells = [format(pair.lower, ".10g"), format(pair.upper, ".10g")]
        lines.append(",".join(cells + [cell(v) for v in (r.car, r.fpr, r.fnr, r.ofr, r.utility)]))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    return len(lines) - 1
