"""Mergeable streaming quantile sketches (fixed-precision log buckets).

A :class:`QuantileSketch` answers p50/p95/p99 queries over a stream of
non-negative latencies with a bounded *relative* error, in O(buckets)
memory, and — the property the sweep executor needs — with an **exact
merge**: every value lands in one integer log-spaced bucket
(DDSketch-style), so combining two sketches is bucket-wise integer
addition.  Merging is commutative and associative, which makes the
serialized form byte-deterministic no matter how per-worker or per-shard
sketches are combined across pool processes.

The sketch deliberately stores no accumulated float sum: ``sum()`` and
``mean()`` are derived from the integer bucket counts (iterated in
sorted index order), so not even those estimates depend on insertion or
merge order.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Mapping, Optional


class QuantileSketch:
    """Log-bucket quantile sketch with relative-accuracy guarantees.

    Values are assigned to bucket ``i = ceil(log_gamma(v))`` with
    ``gamma = (1 + a) / (1 - a)`` for relative accuracy ``a``; the bucket
    midpoint ``2 * gamma**i / (gamma + 1)`` is then within a factor
    ``(1 ± a)`` of every value in the bucket.  Exact zeros get their own
    counter.  Negative values are rejected (latencies only).
    """

    __slots__ = (
        "relative_accuracy",
        "_gamma",
        "_log_gamma",
        "counts",
        "zero_count",
        "count",
        "min",
        "max",
    )

    DEFAULT_RELATIVE_ACCURACY = 0.01

    def __init__(self, relative_accuracy: float = DEFAULT_RELATIVE_ACCURACY):
        if not 0.0 < relative_accuracy < 1.0:
            raise ValueError(
                f"relative_accuracy must be in (0, 1), got {relative_accuracy}"
            )
        self.relative_accuracy = float(relative_accuracy)
        self._gamma = (1.0 + self.relative_accuracy) / (1.0 - self.relative_accuracy)
        self._log_gamma = math.log(self._gamma)
        self.counts: Dict[int, int] = {}
        self.zero_count = 0
        self.count = 0
        self.min = math.inf
        self.max = -math.inf

    # -- ingest -----------------------------------------------------------

    def add(self, value: float, count: int = 1) -> None:
        """Record ``count`` observations of ``value`` (finite, >= 0)."""
        value = float(value)
        if not 0.0 <= value < math.inf:  # rejects negatives, NaN and inf
            raise ValueError(f"sketch values must be finite and >= 0, got {value}")
        if count < 1:
            raise ValueError(f"sketch observation count must be >= 1, got {count}")
        self.count += count
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if value <= 0.0:
            self.zero_count += count
            return
        idx = math.ceil(math.log(value) / self._log_gamma)
        self.counts[idx] = self.counts.get(idx, 0) + count

    def merge(self, other: "QuantileSketch") -> "QuantileSketch":
        """Fold ``other`` into this sketch (exact; order-independent)."""
        if other.relative_accuracy != self.relative_accuracy:
            raise ValueError(
                "cannot merge sketches with different accuracies "
                f"({self.relative_accuracy} vs {other.relative_accuracy})"
            )
        self.count += other.count
        self.zero_count += other.zero_count
        if other.min < self.min:
            self.min = other.min
        if other.max > self.max:
            self.max = other.max
        for idx, c in other.counts.items():
            self.counts[idx] = self.counts.get(idx, 0) + c
        return self

    # -- queries ----------------------------------------------------------

    def _midpoint(self, idx: int) -> float:
        # Geometric midpoint of the bucket (gamma**(i-1), gamma**i].
        return 2.0 * self._gamma**idx / (self._gamma + 1.0)

    def quantile(self, q: float) -> float:
        """The estimated ``q`` quantile (0 for an empty sketch)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        rank = q * (self.count - 1)
        cum = self.zero_count
        if cum > rank:
            return 0.0
        for idx in sorted(self.counts):
            cum += self.counts[idx]
            if cum > rank:
                v = self._midpoint(idx)
                if v < self.min:
                    return self.min
                if v > self.max:
                    return self.max
                return v
        return self.max

    def sum(self) -> float:
        """Approximate total (bucket midpoints; order-independent)."""
        total = 0.0
        for idx in sorted(self.counts):
            total += self.counts[idx] * self._midpoint(idx)
        return total

    def mean(self) -> float:
        """Approximate mean derived from :meth:`sum`."""
        return self.sum() / self.count if self.count else 0.0

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe form; bucket keys sorted for byte determinism."""
        return {
            "relative_accuracy": self.relative_accuracy,
            "count": self.count,
            "zero_count": self.zero_count,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "buckets": {str(i): self.counts[i] for i in sorted(self.counts)},
        }

    @classmethod
    def from_dict(cls, doc: Mapping[str, object]) -> "QuantileSketch":
        """Rebuild a sketch from :meth:`to_dict` output."""
        sk = cls(float(doc.get("relative_accuracy", cls.DEFAULT_RELATIVE_ACCURACY)))
        sk.count = int(doc.get("count", 0))
        sk.zero_count = int(doc.get("zero_count", 0))
        if sk.count:
            sk.min = float(doc["min"])  # type: ignore[arg-type]
            sk.max = float(doc["max"])  # type: ignore[arg-type]
        for key, c in dict(doc.get("buckets", {})).items():  # type: ignore[arg-type]
            sk.counts[int(key)] = sk.counts.get(int(key), 0) + int(c)
        return sk


def merge_all(sketches: Iterable[QuantileSketch]) -> Optional[QuantileSketch]:
    """Merge any number of sketches into a fresh one (None if empty)."""
    merged: Optional[QuantileSketch] = None
    for sk in sketches:
        if merged is None:
            merged = QuantileSketch(sk.relative_accuracy)
        merged.merge(sk)
    return merged


def sketches_from_metrics_doc(
    doc: Mapping[str, object],
) -> Dict[str, Dict[str, QuantileSketch]]:
    """Extract ``{metric: {label_str: sketch}}`` from a metrics-dump dict.

    Accepts the output of ``MetricsRegistry.to_dict()`` (what
    ``dump_metrics`` writes); non-sketch metrics are skipped.
    """
    out: Dict[str, Dict[str, QuantileSketch]] = {}
    for name, metric in dict(doc.get("metrics", {})).items():  # type: ignore[arg-type]
        if metric.get("kind") != "sketch":
            continue
        out[name] = {
            labels: QuantileSketch.from_dict(state)
            for labels, state in dict(metric.get("series", {})).items()
        }
    return out


def merge_metric_docs(
    docs: Iterable[Mapping[str, object]],
) -> Dict[str, Dict[str, QuantileSketch]]:
    """Merge the sketch metrics of many metrics dumps (e.g. sweep arms).

    Per-arm sketches with the same metric name and label set are merged
    exactly; the result is suitable for cross-worker p50/p95/p99 queries.
    """
    merged: Dict[str, Dict[str, QuantileSketch]] = {}
    for doc in docs:
        for name, series in sketches_from_metrics_doc(doc).items():
            into = merged.setdefault(name, {})
            for labels, sk in series.items():
                if labels in into:
                    into[labels].merge(sk)
                else:
                    into[labels] = sk
    return merged


def percentile_rows(
    merged: Dict[str, Dict[str, QuantileSketch]],
    quantiles: Iterable[float] = (0.5, 0.95, 0.99),
) -> List[List[object]]:
    """Flatten merged sketches into table rows (metric, labels, n, q...)."""
    qs = list(quantiles)
    rows: List[List[object]] = []
    for name in sorted(merged):
        for labels in sorted(merged[name]):
            sk = merged[name][labels]
            rows.append([name, labels or "-", sk.count] + [sk.quantile(q) for q in qs])
    return rows
