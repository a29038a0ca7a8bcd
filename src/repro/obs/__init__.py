"""Unified observability: metrics registry, trace export, snapshots.

One :class:`Observability` bundle carries everything a run records:

- a label-aware :class:`~repro.obs.registry.MetricsRegistry` (counters,
  gauges with time series, mergeable quantile sketches);
- per-run captures — the run's ``TraceRecorder``, an
  :class:`~repro.obs.export.InstantLog` of protocol point events (DPR
  buffered/released, PSSP pass/pause, frontier advances), and a
  :class:`~repro.obs.causal.CausalTrace` of cause-linked spans for
  critical-path blame attribution;
- exporters: :func:`~repro.obs.export.dump_trace` writes Chrome/Perfetto
  trace-event JSON, :func:`~repro.obs.export.dump_metrics` the metrics,
  and :func:`~repro.obs.report.render_report` a human-readable summary.

Runners resolve the bundle as ``config.obs or current_observability()``;
the default is the shared **disabled** bundle whose null registry and
null instant log make every instrumentation call a no-op, so the hot
path pays nothing unless observability was requested (e.g. via
``python -m repro.bench --trace-out``).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import List, Optional

from repro.obs.causal import NULL_CAUSAL, CausalSpan, CausalTrace, NullCausalTrace
from repro.obs.export import (
    Instant,
    InstantLog,
    NullInstantLog,
    default_metrics_path,
    dump_metrics,
    dump_trace,
)
from repro.obs.quantiles import QuantileSketch
from repro.obs.registry import (
    Counter,
    Gauge,
    MetricsRegistry,
    NullRegistry,
    Sketch,
    global_registry,
    null_registry,
)

__all__ = [
    "CausalSpan",
    "CausalTrace",
    "Counter",
    "Gauge",
    "Instant",
    "InstantLog",
    "MetricsRegistry",
    "NULL_CAUSAL",
    "NullCausalTrace",
    "NullInstantLog",
    "NullRegistry",
    "Observability",
    "QuantileSketch",
    "RunCapture",
    "Sketch",
    "current_observability",
    "default_metrics_path",
    "dump_metrics",
    "dump_trace",
    "global_registry",
    "null_registry",
    "observed",
    "set_current_observability",
]


class RunCapture:
    """One run's trace + instant events, labelled for export.

    ``complete`` starts False and is set by the runner once the run
    finished cleanly (all workers done, no unanswered pulls).  The
    protocol sanitizer (:mod:`repro.analysis`) only applies its
    end-of-stream liveness checks — DPR starvation, lost wakeups — to
    complete captures; an aborted or deadlocked run is checked for
    safety violations only.
    """

    def __init__(self, label: str, trace=None, causal: bool = True) -> None:
        self.label = label
        self.trace = trace
        self.instants = InstantLog()
        #: ``causal=False`` captures instants/spans without the causal
        #: span DAG (None here): cheaper, and it keeps runs eligible for
        #: the runner's closed-form round fast-forward, which replays
        #: protocol instants exactly but cannot reproduce per-message
        #: causal span ids.  Consumers treat a missing DAG as "not
        #: captured" (export/blame sections are skipped).
        self.causal = CausalTrace() if causal else None
        self.complete = False


class Observability:
    """A live observability bundle: registry + per-run captures."""

    enabled = True

    def __init__(
        self, registry: Optional[MetricsRegistry] = None, causal: bool = True
    ):
        self.registry = registry if registry is not None else MetricsRegistry("run")
        self.runs: List[RunCapture] = []
        self._default_instants = InstantLog()
        #: Whether run captures build the causal span DAG (see
        #: :class:`RunCapture`); ``causal=False`` trades blame/flow export
        #: for lower overhead and round-collapse eligibility.
        self.capture_causal = causal

    def begin_run(self, label: str, trace=None) -> RunCapture:
        """Start capturing a run; subsequent instants land in its log."""
        cap = RunCapture(label, trace, causal=self.capture_causal)
        self.runs.append(cap)
        return cap

    @property
    def instants(self) -> InstantLog:
        """The current run's instant log (a default one before any run)."""
        return self.runs[-1].instants if self.runs else self._default_instants

    @property
    def default_instants(self) -> InstantLog:
        """Instants recorded outside any run capture (direct server use)."""
        return self._default_instants

    @property
    def causal(self) -> CausalTrace:
        """The current run's causal span trace (null before any run)."""
        return self.runs[-1].causal if self.runs else NULL_CAUSAL

    @property
    def last_run(self) -> Optional[RunCapture]:
        return self.runs[-1] if self.runs else None


class _DisabledObservability(Observability):
    """The shared no-op bundle (``enabled`` False, null backends)."""

    enabled = False

    def __init__(self) -> None:
        self.registry = null_registry()
        self.runs = []
        self._default_instants = NullInstantLog()

    def begin_run(self, label: str, trace=None) -> RunCapture:
        cap = RunCapture(label, trace)
        cap.instants = self._default_instants
        cap.causal = NULL_CAUSAL
        return cap  # not retained: nothing is being captured


NULL_OBS = _DisabledObservability()

_current: Observability = NULL_OBS


def current_observability() -> Observability:
    """The ambient bundle runners default to (disabled unless set)."""
    return _current


def set_current_observability(obs: Optional[Observability]) -> Observability:
    """Install ``obs`` (None resets to disabled); returns the previous one."""
    global _current
    previous = _current
    _current = obs if obs is not None else NULL_OBS
    return previous


@contextmanager
def observed(obs: Observability):
    """Scope ``obs`` as the ambient bundle for a ``with`` block."""
    previous = set_current_observability(obs)
    try:
        yield obs
    finally:
        set_current_observability(previous)
