"""Label-aware metrics registry: counters, gauges, sketches.

The observability substrate every runner reports into.  Three metric
kinds cover the quantities the paper's evaluation is made of:

- :class:`Counter` — monotonically increasing totals (collapse
  fallbacks, sweep task outcomes);
- :class:`Gauge` — last-value-wins levels that optionally keep a time
  series (per-shard DPR queue depth, frontier value, NIC utilization),
  timestamped by the registry's clock (simulated or wall seconds);
- :class:`Sketch` — mergeable log-bucket quantile sketches
  (:mod:`repro.obs.quantiles`) for distributions (DPR wait time,
  per-iteration latency, lock wait), whose per-worker/per-shard states
  combine exactly across pool processes for fleet-wide p50/p95/p99.

Every metric is label-aware: ``counter.inc(shard=3)`` and
``counter.inc(shard=4)`` maintain independent children.  Hot paths
pre-bind labels once via ``metric.labels(shard=3)`` and then pay only a
method call per event.

A registry is owned by an :class:`~repro.obs.Observability` bundle, one
per run or per invocation.  The **null backend** (:func:`null_registry`)
implements the same interface with no-ops and never stores a key, so
instrumented code costs next to nothing when observability is off.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.obs.quantiles import QuantileSketch, merge_all

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, object]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _label_str(key: LabelKey) -> str:
    return ",".join(f"{k}={v}" for k, v in key)


class _Metric:
    """Shared plumbing: name, help text, the registry's lock."""

    kind = "metric"

    def __init__(self, name: str, help: str, lock: threading.Lock):
        self.name = name
        self.help = help
        self._lock = lock

    def labels(self, **labels: object) -> "_Bound":
        """Pre-bind a label set; the returned handle has no kwargs cost."""
        return _Bound(self, _label_key(labels))


class _Bound:
    """A metric child bound to one label set (hot-path handle)."""

    __slots__ = ("_metric", "_key")

    def __init__(self, metric: _Metric, key: LabelKey):
        self._metric = metric
        self._key = key

    def inc(self, amount: float = 1.0) -> None:
        self._metric._inc(self._key, amount)

    def set(self, value: float) -> None:
        self._metric._set(self._key, value)

    def observe(self, value: float, count: int = 1) -> None:
        self._metric._observe(self._key, value, count)


class Counter(_Metric):
    """Monotonically increasing total, one value per label set."""

    kind = "counter"

    def __init__(self, name: str, help: str, lock: threading.Lock):
        super().__init__(name, help, lock)
        self._values: Dict[LabelKey, float] = {}

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        self._inc(_label_key(labels), amount)

    def _inc(self, key: LabelKey, amount: float) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (by {amount})")
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: object) -> float:
        return self._values.get(_label_key(labels), 0.0)

    def total(self) -> float:
        """Sum across every label set."""
        return sum(self._values.values())

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "help": self.help,
            "values": {_label_str(k): v for k, v in sorted(self._values.items())},
        }


class Gauge(_Metric):
    """Last-value-wins level; optionally keeps a (t, value) series.

    Series storage is a per-label ring buffer (``series_max_points``
    newest points, ``None`` = unbounded), so long simulations do not grow
    memory linearly with events.
    """

    kind = "gauge"

    def __init__(
        self,
        name: str,
        help: str,
        lock: threading.Lock,
        clock,
        keep_series: bool = True,
        series_max_points: Optional[int] = None,
    ):
        super().__init__(name, help, lock)
        if series_max_points is not None and series_max_points < 1:
            raise ValueError(
                f"series_max_points must be >= 1 or None, got {series_max_points}"
            )
        self._clock = clock
        self._keep_series = keep_series
        self._series_max = series_max_points
        self._values: Dict[LabelKey, float] = {}
        self._series: Dict[LabelKey, Tuple[Deque[float], Deque[float]]] = {}
        self._evicted: Dict[LabelKey, int] = {}

    def set(self, value: float, **labels: object) -> None:
        self._set(_label_key(labels), value)

    def _set(self, key: LabelKey, value: float) -> None:
        with self._lock:
            self._values[key] = float(value)
            if self._keep_series:
                pair = self._series.get(key)
                if pair is None:
                    m = self._series_max
                    pair = self._series[key] = (deque(maxlen=m), deque(maxlen=m))
                ts, vs = pair
                if ts.maxlen is not None and len(ts) == ts.maxlen:
                    # The ring buffer is about to drop its oldest point;
                    # count it so truncation is visible in reports.
                    self._evicted[key] = self._evicted.get(key, 0) + 1
                ts.append(float(self._clock()))
                vs.append(float(value))

    def value(self, **labels: object) -> float:
        return self._values.get(_label_key(labels), 0.0)

    def series(self, **labels: object) -> Tuple[List[float], List[float]]:
        """The recorded (timestamps, values) series for one label set."""
        ts, vs = self._series.get(_label_key(labels), ([], []))
        return list(ts), list(vs)

    def evicted(self, **labels: object) -> int:
        """Points the ring buffer dropped for this label set."""
        return self._evicted.get(_label_key(labels), 0)

    def label_sets(self) -> List[LabelKey]:
        return sorted(self._values)

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "kind": self.kind,
            "help": self.help,
            "values": {_label_str(k): v for k, v in sorted(self._values.items())},
        }
        if self._keep_series:
            out["series"] = {
                _label_str(k): {"t": list(ts), "v": list(vs)}
                for k, (ts, vs) in sorted(self._series.items())
            }
            if self._evicted:
                out["evicted"] = {
                    _label_str(k): n for k, n in sorted(self._evicted.items())
                }
        return out


class Sketch(_Metric):
    """Mergeable quantile sketch per label set (exact cross-process merge).

    Backed by :class:`repro.obs.quantiles.QuantileSketch`: integer
    log-spaced bucket counts with a relative-accuracy guarantee, so
    per-worker or per-shard states written by different pool processes
    combine exactly (order-independent, byte-deterministic) before
    p50/p95/p99 queries.
    """

    kind = "sketch"

    def __init__(
        self,
        name: str,
        help: str,
        lock: threading.Lock,
        relative_accuracy: Optional[float] = None,
    ):
        super().__init__(name, help, lock)
        self.relative_accuracy = (
            relative_accuracy
            if relative_accuracy is not None
            else QuantileSketch.DEFAULT_RELATIVE_ACCURACY
        )
        # Validate eagerly so a bad accuracy fails at registration time.
        QuantileSketch(self.relative_accuracy)
        self._states: Dict[LabelKey, QuantileSketch] = {}

    def observe(self, value: float, count: int = 1, **labels: object) -> None:
        """Record ``value`` ``count`` times (bucket counts are integers,
        so the weighted form is exact)."""
        self._observe(_label_key(labels), value, count)

    def _observe(self, key: LabelKey, value: float, count: int = 1) -> None:
        with self._lock:
            state = self._states.get(key)
            if state is None:
                state = self._states[key] = QuantileSketch(self.relative_accuracy)
            state.add(value, count)

    def count(self, **labels: object) -> int:
        state = self._states.get(_label_key(labels))
        return state.count if state else 0

    def quantile(self, q: float, **labels: object) -> float:
        state = self._states.get(_label_key(labels))
        return state.quantile(q) if state is not None else 0.0

    def sketch(self, **labels: object) -> Optional[QuantileSketch]:
        """The underlying sketch for one label set (None if unseen)."""
        return self._states.get(_label_key(labels))

    def merged(self) -> Optional[QuantileSketch]:
        """All label sets merged into one sketch (None when empty)."""
        return merge_all(self._states[k] for k in sorted(self._states))

    def label_sets(self) -> List[LabelKey]:
        return sorted(self._states)

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "help": self.help,
            "relative_accuracy": self.relative_accuracy,
            "series": {
                _label_str(k): s.to_dict() for k, s in sorted(self._states.items())
            },
        }


class MetricsRegistry:
    """Named metrics with get-or-create semantics and one shared clock.

    The clock timestamps gauge series points; runners install their own
    (simulated seconds for the co-simulation, wall seconds for the
    thread runner) via :meth:`set_clock`.
    """

    #: Default gauge series cap: newest points kept per label set.  Big
    #: enough for any plot we render, small enough that a week-long sim
    #: cannot grow memory linearly with events.
    DEFAULT_SERIES_MAX_POINTS = 65_536

    def __init__(
        self,
        name: str = "",
        keep_series: bool = True,
        series_max_points: Optional[int] = DEFAULT_SERIES_MAX_POINTS,
    ):
        self.name = name
        self.keep_series = keep_series
        self.series_max_points = series_max_points
        self._lock = threading.Lock()
        self._metrics: Dict[str, _Metric] = {}
        self._clock = lambda: 0.0

    def set_clock(self, clock) -> None:
        self._clock = clock

    def _read_clock(self) -> float:
        return self._clock()

    def _get_or_create(self, name: str, cls, factory) -> _Metric:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = self._metrics[name] = factory()
            elif not isinstance(metric, cls):
                raise ValueError(
                    f"metric {name!r} already registered as {metric.kind}, "
                    f"not {cls.kind}"
                )
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(
            name, Counter, lambda: Counter(name, help, self._lock)
        )

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(
            name,
            Gauge,
            lambda: Gauge(
                name,
                help,
                self._lock,
                self._read_clock,
                self.keep_series,
                self.series_max_points,
            ),
        )

    def sketch(
        self, name: str, help: str = "", relative_accuracy: Optional[float] = None
    ) -> Sketch:
        return self._get_or_create(
            name, Sketch, lambda: Sketch(name, help, self._lock, relative_accuracy)
        )

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def get(self, name: str) -> _Metric:
        try:
            return self._metrics[name]
        except KeyError:
            raise KeyError(
                f"no metric {name!r} in registry {self.name!r}; "
                f"registered: {self.names()}"
            ) from None

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "metrics": {n: m.to_dict() for n, m in sorted(self._metrics.items())},
        }


# ---------------------------------------------------------------------------
# Null backend: same interface, records nothing, stores no keys.
# ---------------------------------------------------------------------------


class _NullBound:
    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float, count: int = 1) -> None:
        pass


_NULL_BOUND = _NullBound()


class _NullMetric:
    """No-op counter/gauge/sketch all in one."""

    __slots__ = ()
    kind = "null"
    name = "null"
    help = ""

    def labels(self, **labels: object) -> _NullBound:
        return _NULL_BOUND

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        pass

    def set(self, value: float, **labels: object) -> None:
        pass

    def observe(self, value: float, count: int = 1, **labels: object) -> None:
        pass

    def value(self, **labels: object) -> float:
        return 0.0

    def total(self) -> float:
        return 0.0

    def series(self, **labels: object) -> Tuple[List[float], List[float]]:
        return [], []

    def count(self, **labels: object) -> int:
        return 0

    def quantile(self, q: float, **labels: object) -> float:
        return 0.0

    def evicted(self, **labels: object) -> int:
        return 0

    def sketch(self, **labels: object) -> None:
        return None

    def merged(self) -> None:
        return None

    def label_sets(self) -> List[LabelKey]:
        return []

    def to_dict(self) -> Dict[str, object]:
        return {"kind": self.kind, "help": "", "values": {}}


_NULL_METRIC = _NullMetric()


class NullRegistry(MetricsRegistry):
    """The disabled backend: every lookup returns the same no-op metric."""

    def __init__(self) -> None:
        super().__init__(name="null", keep_series=False)

    def counter(self, name: str, help: str = "") -> _NullMetric:  # type: ignore[override]
        return _NULL_METRIC

    def gauge(self, name: str, help: str = "") -> _NullMetric:  # type: ignore[override]
        return _NULL_METRIC

    def sketch(  # type: ignore[override]
        self, name: str, help: str = "", relative_accuracy: Optional[float] = None
    ) -> _NullMetric:
        return _NULL_METRIC

    def set_clock(self, clock) -> None:
        pass

    def names(self) -> List[str]:
        return []

    def to_dict(self) -> Dict[str, object]:
        return {"name": "null", "metrics": {}}


_NULL = NullRegistry()


def null_registry() -> NullRegistry:
    """The shared no-op registry used when observability is disabled."""
    return _NULL
