"""Timeline tracing: spans and the Fig 3/5-style summaries.

Each actor (worker/server) records spans — compute, push wait, pull wait,
blocked-in-barrier — from which the benches derive exactly the quantities
the paper reports: computation vs. communication time (Fig 6), DPR counts
(Fig 9, Table IV), and the timeline diagrams (Fig 3, Fig 5).
"""

from __future__ import annotations

import enum
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np


class SpanKind(enum.Enum):
    """What a span's time was spent on (Fig-6 categories)."""

    COMPUTE = "compute"
    PUSH = "push"  # time from issuing a push until server ack received
    PULL = "pull"  # time from issuing a pull until parameters received
    BLOCKED = "blocked"  # extra wait inside a barrier/DPR buffer
    SERVER_APPLY = "server_apply"
    OTHER = "other"

    # In C: ``Enum.__hash__`` is a Python call per ``(actor, kind)`` dict key.
    __hash__ = object.__hash__


#: Span kinds counted as "communication" in Fig-6-style breakdowns.
COMM_KINDS = (SpanKind.PUSH, SpanKind.PULL, SpanKind.BLOCKED)


@dataclass(frozen=True)
class Span:
    """One ``[t0, t1]`` interval of ``kind`` work on an actor's track."""

    actor: str
    kind: SpanKind
    t0: float
    t1: float
    iteration: int = -1
    note: str = ""

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


class TraceRecorder:
    """Accumulates spans for one simulated run."""

    #: Tolerated clock jitter: a span whose end precedes its start by at
    #: most ``NEGATIVE_EPS * max(1, |t0|)`` seconds is clipped to zero
    #: duration (float rounding in clock sources); anything larger is a
    #: recording bug and raises, so Fig-6-style breakdowns can never
    #: accumulate negative time.
    NEGATIVE_EPS = 1e-9

    def __init__(self, keep_spans: bool = True):
        self.keep_spans = keep_spans
        self.spans: List[Span] = []
        self._totals: Dict[Tuple[str, SpanKind], float] = defaultdict(float)
        self._span_counts: Dict[Tuple[str, SpanKind], int] = defaultdict(int)
        self.end_time: float = 0.0

    def record_span(
        self,
        actor: str,
        kind: SpanKind,
        t0: float,
        t1: float,
        iteration: int = -1,
        note: str = "",
    ) -> None:
        """Record one ``[t0, t1]`` span of ``kind`` for ``actor``."""
        if t1 < t0:
            if t0 - t1 > self.NEGATIVE_EPS * max(1.0, abs(t0)):
                raise ValueError(f"span ends before it starts: [{t0}, {t1}]")
            t1 = t0  # clock jitter: clip to an empty span
        if self.keep_spans:
            self.spans.append(Span(actor, kind, t0, t1, iteration, note))
        self._totals[(actor, kind)] += t1 - t0
        self._span_counts[(actor, kind)] += 1
        self.end_time = max(self.end_time, t1)

    def record_spans(
        self,
        actor: str,
        kind: SpanKind,
        t0: np.ndarray,
        t1: np.ndarray,
        iteration: int = -1,
    ) -> None:
        """Record the spans ``[t0[i], t1[i]]`` of ``kind`` for ``actor``.

        Exactly what ``record_span`` called once per element, in array
        order, leaves behind — the total is accumulated sequentially, so
        it is the same float — except that an inverted span beyond the
        jitter tolerance raises before anything is recorded."""
        t0, t1 = self._checked(t0, t1)
        if t0.shape[0] == 0:
            return
        if self.keep_spans:
            self.spans.extend(
                Span(actor, kind, a, b, iteration)
                for a, b in zip(t0.tolist(), t1.tolist())
            )
        key = (actor, kind)
        seeded = np.empty(t0.shape[0] + 1)
        seeded[0] = self._totals[key]
        seeded[1:] = t1 - t0
        self._totals[key] = float(np.add.accumulate(seeded)[-1])
        self._span_counts[key] += t0.shape[0]
        self.end_time = max(self.end_time, float(t1.max()))

    def _checked(self, t0, t1) -> Tuple[np.ndarray, np.ndarray]:
        """``t0`` and ``t1`` as float arrays of one shape, by
        ``record_span``'s rule: an inverted span within the jitter
        tolerance is clipped to empty, one beyond it raises — as do
        starts and ends of different shapes, which NumPy would broadcast."""
        t0 = np.asarray(t0, dtype=np.float64)
        t1 = np.asarray(t1, dtype=np.float64)
        if t0.shape != t1.shape:
            raise ValueError(f"span starts and ends differ in shape: {t0.shape} vs {t1.shape}")
        inverted = t1 < t0
        if inverted.any():
            bad = inverted & (t0 - t1 > self.NEGATIVE_EPS * np.maximum(1.0, np.abs(t0)))
            if bad.any():
                i = int(np.argmax(bad))
                raise ValueError(f"span ends before it starts: [{t0[i]}, {t1[i]}]")
            t1 = np.where(inverted, t0, t1)  # clock jitter: clip to empty spans
        return t0, t1

    # -- aggregation ----------------------------------------------------

    def actors(self) -> List[str]:
        """All actor names seen so far, sorted."""
        return sorted({a for (a, _k) in self._totals})

    def total(self, actor: str, kind: SpanKind) -> float:
        """Total seconds of ``kind`` recorded for ``actor``."""
        return self._totals.get((actor, kind), 0.0)

    def count(self, actor: str, kind: SpanKind) -> int:
        """Number of ``kind`` spans recorded for ``actor``."""
        return self._span_counts.get((actor, kind), 0)

    def total_by_kind(self, kind: SpanKind, actors: Optional[Iterable[str]] = None) -> float:
        """Total seconds of ``kind`` across ``actors`` (all if None)."""
        if actors is None:
            return sum(v for (_a, k), v in self._totals.items() if k is kind)
        wanted = set(actors)
        return sum(v for (a, k), v in self._totals.items() if k is kind and a in wanted)

    def compute_time(self, actors: Optional[Iterable[str]] = None) -> float:
        """Aggregate compute seconds across (worker) actors."""
        return self.total_by_kind(SpanKind.COMPUTE, actors)

    def comm_time(self, actors: Optional[Iterable[str]] = None) -> float:
        """Aggregate communication+wait seconds across (worker) actors."""
        return sum(self.total_by_kind(k, actors) for k in COMM_KINDS)

    def breakdown(self, actor: str) -> Dict[str, float]:
        """Seconds per span kind for one actor."""
        return {k.value: self.total(actor, k) for k in SpanKind}

    # -- rendering (examples / figure 3&5 demos) -------------------------

    def render_timeline(
        self,
        actors: Optional[List[str]] = None,
        width: int = 80,
        t_max: Optional[float] = None,
    ) -> str:
        """ASCII Gantt: one row per actor; '#'=compute, '>'=push, '<'=pull,
        '.'=blocked.  Resolution is t_max/width per character."""
        if not self.keep_spans:
            raise ValueError("timeline rendering needs keep_spans=True")
        if width < 10:
            raise ValueError(f"timeline width must be >= 10 columns, got {width}")
        if actors is None:
            actors = self.actors()
        t_max = t_max if t_max is not None else (self.end_time or 1.0)
        glyph = {
            SpanKind.COMPUTE: "#",
            SpanKind.PUSH: ">",
            SpanKind.PULL: "<",
            SpanKind.BLOCKED: ".",
            SpanKind.SERVER_APPLY: "*",
            SpanKind.OTHER: "~",
        }
        rows = []
        label_w = max((len(a) for a in actors), default=4) + 1
        for actor in actors:
            cells = [" "] * width
            for s in self.spans:
                if s.actor != actor or s.t0 >= t_max:
                    continue
                c0 = int(s.t0 / t_max * width)
                c1 = max(c0 + 1, int(min(s.t1, t_max) / t_max * width))
                for c in range(c0, min(c1, width)):
                    cells[c] = glyph[s.kind]
            rows.append(actor.ljust(label_w) + "|" + "".join(cells) + "|")
        # Axis: t=0 under the first cell, t_max right-aligned to the row end.
        header = " " * (label_w + 1) + "0" + f"{t_max:.3g}s".rjust(width - 1)
        legend = "legend: #=compute  >=push  <=pull  .=blocked/barrier  *=apply"
        return "\n".join([header] + rows + [legend])


class CohortSpans:
    """One kind's spans of a cohort that records a span per actor per
    round, with the per-actor totals kept as one array.

    What ``record_span`` called per actor per round leaves in ``trace``,
    reached in two steps: :meth:`add` folds a round into ``totals`` — one
    elementwise ``+=`` from what the recorder held at construction, so
    each element is that actor's own left-to-right float sum — and
    :meth:`credit`, once, assigns the totals, adds the round count and
    raises ``end_time``, creating keys in the first round's order
    (``total_by_kind`` sums in key order).  Under ``keep_spans`` the
    ``Span`` objects are appended by :meth:`add`, round by round.
    """

    def __init__(self, trace: TraceRecorder, actors: List[str], kind: SpanKind):
        self.trace = trace
        self.actors = actors
        self.kind = kind
        self.totals = np.array([trace.total(actor, kind) for actor in actors])
        self.rounds = 0
        self.end = 0.0
        self.first_order = np.empty(0, dtype=np.int64)

    def add(self, order: np.ndarray, t0: np.ndarray, t1: np.ndarray, iteration: int = -1) -> None:
        """One round: ``[t0[i], t1[i]]`` for ``actors[i]``, recorded in
        ``order`` (a permutation of the actors' indices)."""
        t0, t1 = self.trace._checked(t0, t1)
        if t0.shape != self.totals.shape:
            raise ValueError(f"{self.totals.shape[0]} actors, spans of shape {t0.shape}")
        if self.rounds == 0:
            self.first_order = order
        if self.trace.keep_spans:
            actors, kind = self.actors, self.kind
            starts, ends = t0.tolist(), t1.tolist()
            self.trace.spans.extend(
                Span(actors[i], kind, starts[i], ends[i], iteration) for i in order.tolist()
            )
        self.totals += t1 - t0
        self.rounds += 1
        self.end = max(self.end, float(t1.max()))

    def credit(self) -> None:
        """Hand the rounds added so far to the recorder (nothing, and no
        key, when there are none: ``first_order`` is empty).  Call once."""
        trace, totals = self.trace, self.totals.tolist()
        for i in self.first_order.tolist():
            key = (self.actors[i], self.kind)
            trace._totals[key] = totals[i]
            trace._span_counts[key] += self.rounds
        trace.end_time = max(trace.end_time, self.end)
