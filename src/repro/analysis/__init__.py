"""Static + dynamic analysis: protocol sanitizer and custom lint.

Two mechanically-checkable layers over the paper's correctness claims:

- the **protocol sanitizer** (:mod:`repro.analysis.sanitizer`) replays
  recorded event streams — live :class:`~repro.obs.RunCapture` instants
  or dumped Perfetto traces — through a vector-clock/happens-before
  checker asserting ``V_train`` monotonicity, per-worker push ordering,
  every sync model's staleness bound, lazy execution's 0-missing
  guarantee, DPR liveness and lost-wakeup freedom;
- the **custom lint pass** (:mod:`repro.analysis.lint`) walks the source
  AST for repo-specific invariants: no wall clock or global RNG in
  sim/core, single-writer discipline on ``ShardServer`` state, no float
  equality on sim timestamps, public API docstrings, no set-ordered
  scheduling/serialization, no OS clock/thread calls in engine
  coroutines;
- the **schedule explorer** (:mod:`repro.analysis.explore`) does bounded
  DPOR-style stateless model checking over the engine's same-timestamp
  tie groups, sanitizing every inequivalent schedule and serializing
  failures as replayable choice traces;
- the **race detector** (:mod:`repro.analysis.races`) checks a live
  threaded run's shared-parameter accesses for happens-before ordering.

Run them with ``python -m repro.analysis``; the pytest plugin
(:mod:`repro.analysis.pytest_plugin`) sanitizes every test run.
"""

from repro.analysis.events import (
    PROTOCOL_EVENT_NAMES,
    EventBlock,
    ProtocolEvent,
    events_from_instants,
    events_from_trace_doc,
    events_from_trace_file,
    iter_event_stream,
    iter_events_from_instants,
)
from repro.analysis.explore import (
    PRESETS,
    ChoiceTrace,
    ExploreConfig,
    ExploreReport,
    ReplayResult,
    explore,
    replay_trace,
)
from repro.analysis.lint import LintIssue, lint_file, lint_paths
from repro.analysis.races import RaceTracker
from repro.analysis.sanitizer import (
    ProtocolSanitizer,
    ProtocolViolation,
    SanitizerReport,
    Violation,
    sanitize_events,
    sanitize_observability,
    sanitize_run,
)
from repro.analysis.spans import check_causal_spans, check_trace_spans

__all__ = [
    "PRESETS",
    "PROTOCOL_EVENT_NAMES",
    "ChoiceTrace",
    "EventBlock",
    "ExploreConfig",
    "ExploreReport",
    "LintIssue",
    "ProtocolEvent",
    "ProtocolSanitizer",
    "ProtocolViolation",
    "RaceTracker",
    "ReplayResult",
    "SanitizerReport",
    "Violation",
    "check_causal_spans",
    "check_trace_spans",
    "events_from_instants",
    "events_from_trace_doc",
    "events_from_trace_file",
    "explore",
    "iter_event_stream",
    "iter_events_from_instants",
    "lint_file",
    "lint_paths",
    "replay_trace",
    "sanitize_events",
    "sanitize_observability",
    "sanitize_run",
]
