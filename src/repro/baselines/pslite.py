"""PS-Lite baseline: centralized scheduler, non-overlap synchronization.

Reproduces the three properties the paper attributes PS-Lite's slowdown
to (§II-B, Figures 4a/5a/6):

1. **one global synchronization model** enforced by a central scheduler
   that records every worker's progress;
2. **non-overlap synchronization** — a fast worker may not even *send*
   its pull requests until the slowest worker has updated **all** M
   parameter shards and the scheduler has granted the pull (Figure 5a's
   extra dotted round-trip).  Within one iteration the push phase and the
   pull phase are strictly serialized, and the barrier releases all
   workers' pulls at once (an incast burst on every server);
3. **default slicing** — range partition of the raw key space
   (:class:`~repro.core.keyspace.DefaultSlicer`), which concentrates most
   parameter bytes on one server.

Servers themselves hold no conditions — they apply pushes and answer
pulls immediately; all waiting happens at the scheduler.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, replace
from typing import Dict, List

from repro.core.keyspace import RangeKeySlicer
from repro.core.models import SyncModel, asp
from repro.sim.engine import Signal
from repro.sim.network import Message, NicSpec
from repro.sim.runner import REQUEST_BYTES, FluentPSSimRunner, SimConfig, SimRunResult
from repro.sim.trace import SpanKind

SCHEDULER_NODE = "scheduler"


@dataclass
class _ReportMsg:
    worker: int
    progress: int


@dataclass
class _GrantMsg:
    worker: int
    progress: int


class PSLiteSimRunner(FluentPSSimRunner):
    """PS-Lite-style execution on the same simulated cluster.

    ``config.sync`` selects the scheduler's global model via its nominal
    staleness: BSP (s=0), bounded delay (s>0), or ASP (s=∞) — the models
    PS-Lite supports (Table I).  The DPR/staleness metrics of the shard
    servers are not meaningful here (servers never delay); the scheduler
    wait is what shows up as communication time.
    """

    def __init__(self, config: SimConfig):
        if not isinstance(config.sync, SyncModel):
            raise ValueError("PS-Lite runs one global model, not per-server models")
        self.scheduler_staleness = config.sync.staleness
        config = replace(
            config,
            sync=asp(),  # shard servers answer immediately; scheduler gates
            slicer=config.slicer or RangeKeySlicer(),
        )
        super().__init__(config)
        # The scheduler is its own node on the fabric; its sink is the
        # whole scheduler (a report is handled inside its delivery event).
        self._sched_ep = self.net.add_node(
            SCHEDULER_NODE, NicSpec(bandwidth_Bps=1.25e9, overhead_s=30e-6)
        )
        self._sched_ep.sink = self._on_report
        self._sched_count: Dict[int, int] = defaultdict(int)
        self._sched_frontier = 0
        self._sched_waiting: List[_ReportMsg] = []
        self._grant_signals: Dict[int, Signal] = {}

    # -- scheduler ----------------------------------------------------------

    def _grantable(self, progress: int) -> bool:
        s = self.scheduler_staleness
        if math.isinf(s):
            return True
        return progress < self._sched_frontier + s

    def _on_report(self, report: _ReportMsg, at: float, cause: int) -> None:
        n = self.cfg.cluster.n_workers
        self._sched_count[report.progress] += 1
        while self._sched_count[self._sched_frontier] >= n:
            self._sched_frontier += 1
        self._sched_waiting.append(report)
        still_waiting = []
        for r in self._sched_waiting:
            if self._grantable(r.progress):
                self.net.send(
                    self._sched_ep,
                    self._wkr_eps[r.worker],
                    REQUEST_BYTES,
                    payload=_GrantMsg(r.worker, r.progress),
                    tag="grant",
                    cause=cause,
                    at=at,
                ).subscribe(self._on_grant_delivered)
            else:
                still_waiting.append(r)
        self._sched_waiting = still_waiting

    def _on_grant_delivered(self, msg: Message) -> None:
        grant: _GrantMsg = msg.payload
        self._grant_signals.pop(grant.worker).fire(grant)

    # -- worker (non-overlap protocol, Figure 5a) ------------------------------

    def _worker_proc(self, w: int):
        """What Figure 5a adds to the stock worker: the push phase is
        waited out, then a report/grant round-trip gates the pull phase."""
        engine, trace = self.engine, self.trace
        row = self._worker_row(w)
        for i in range(self.cfg.max_iter):
            row.i = i
            t0 = engine.now
            yield self._draw(row)
            self._book_compute(row, t0)
            self._local_step(row)
            # Phase 1: push to every shard and WAIT until every shard is
            # updated (non-overlap: the pull phase may not begin earlier).
            t_push = engine.now
            yield engine.all_of(self._push_all(row))
            trace.record_span(row.name, SpanKind.PUSH, t_push, engine.now, i)
            # Phase 2: report progress to the scheduler and wait for the
            # grant (the dotted line in Figure 5a).
            t_wait = engine.now
            grant = self._grant_signals[w] = engine.signal(f"grant:{w}:{i}")
            self.net.send(
                row.ep, self._sched_ep, REQUEST_BYTES,
                payload=_ReportMsg(w, i), tag="report", cause=row.cause,
            )
            yield grant
            if engine.now > t_wait:
                trace.record_span(row.name, SpanKind.BLOCKED, t_wait, engine.now, i)
            # Phase 3: pull all shards.  The gather is exclusive: the one
            # other message a worker ever receives, its grant, has landed
            # (it is what opened this phase) and the next one needs the
            # next report, which follows this pull.
            t_pull = engine.now
            pending = self._send_pulls(row, i)
            yield pending
            self._book_sync(row, t_pull, pending)
            self._end_iteration(row)
        self._finish_times[w] = engine.now


def run_pslite(config: SimConfig) -> SimRunResult:
    """One-call convenience wrapper."""
    return PSLiteSimRunner(config).run()
