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

from repro.core.driver import StepContext
from repro.core.keyspace import RangeKeySlicer
from repro.core.models import SyncModel, asp
from repro.sim.engine import Signal, Timeout
from repro.sim.network import Message, NicSpec
from repro.sim.runner import (
    FluentPSSimRunner,
    SimConfig,
    SimRunResult,
    _PullMsg,
    _PushMsg,
)
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
        # The scheduler is its own node on the fabric.
        self.net.add_node(SCHEDULER_NODE, NicSpec(bandwidth_Bps=1.25e9, overhead_s=30e-6))
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

    def _scheduler_proc(self):
        ep = self.net.endpoint(SCHEDULER_NODE)
        n = self.cfg.cluster.n_workers
        while True:
            msg: Message = yield ep.inbox.get()
            report: _ReportMsg = msg.payload
            self._sched_count[report.progress] += 1
            while self._sched_count[self._sched_frontier] >= n:
                self._sched_frontier += 1
            self._sched_waiting.append(report)
            still_waiting = []
            for r in self._sched_waiting:
                if self._grantable(r.progress):
                    self.net.send(
                        SCHEDULER_NODE,
                        self.cfg.cluster.worker_id(r.worker),
                        self.cfg.request_bytes,
                        payload=_GrantMsg(r.worker, r.progress),
                        tag="grant",
                    ).subscribe(self._on_grant_delivered)
                else:
                    still_waiting.append(r)
            self._sched_waiting = still_waiting

    def _on_grant_delivered(self, msg: Message) -> None:
        grant: _GrantMsg = msg.payload
        self._grant_signals.pop(grant.worker).fire(grant)

    # -- worker (non-overlap protocol, Figure 5a) ------------------------------

    def _worker_proc(self, w: int):
        cfg = self.cfg
        node = cfg.cluster.worker_id(w)
        name = f"worker{w}"
        base = cfg.resolved_base_compute(cfg.cluster.workers[w].flops)
        params = cfg.task.init_params.copy() if cfg.task is not None else None
        for i in range(cfg.max_iter):
            dur = self.compute_model.sample(w, i, base, self._compute_rngs[w])
            t0 = self.engine.now
            yield Timeout(dur)
            self.trace.record_span(name, SpanKind.COMPUTE, t0, self.engine.now, i)
            if cfg.task is not None:
                update = cfg.task.step_fn(
                    StepContext(worker=w, iteration=i, params=params, rng=self._step_rngs[w])
                )
                shards = self.layout.scatter(update)
            else:
                shards = [None] * cfg.cluster.n_servers
            # Phase 1: push to every shard and WAIT until every shard is
            # updated (non-overlap: the pull phase may not begin earlier).
            t_push = self.engine.now
            push_sigs = [
                self.net.send(
                    node,
                    cfg.cluster.server_id(m),
                    self._payload_bytes(m),
                    payload=_PushMsg(w, i, shards[m]),
                    tag="push",
                )
                for m in range(cfg.cluster.n_servers)
            ]
            yield self.engine.all_of(push_sigs)
            self.trace.record_span(name, SpanKind.PUSH, t_push, self.engine.now, i)
            # Phase 2: report progress to the scheduler and wait for the
            # grant (the dotted line in Figure 5a).
            t_wait = self.engine.now
            grant = self.engine.signal(f"grant:{w}:{i}")
            self._grant_signals[w] = grant
            self.net.send(
                node, SCHEDULER_NODE, cfg.request_bytes,
                payload=_ReportMsg(w, i), tag="report",
            )
            yield grant
            if self.engine.now > t_wait:
                self.trace.record_span(name, SpanKind.BLOCKED, t_wait, self.engine.now, i)
            # Phase 3: pull all shards.  The gather is exclusive: the one
            # other message a worker ever receives, its grant, has landed
            # (it is what opened this phase) and the next one needs the
            # next report, which follows this pull.
            t_pull = self.engine.now
            pending = self._open_pull(w)
            for m in range(cfg.cluster.n_servers):
                self.net.send(
                    node, cfg.cluster.server_id(m), cfg.request_bytes,
                    payload=_PullMsg(w, i), tag="pull",
                )
            yield pending.gather
            self.trace.record_span(name, SpanKind.PULL, t_pull, self.engine.now, i)
            if params is not None:
                params = pending.flat
            if w == 0 and cfg.task is not None and cfg.eval_every > 0:
                if (i + 1) % cfg.eval_every == 0 or i + 1 == cfg.max_iter:
                    value = cfg.task.eval_fn(self._global_params())
                    self.eval_by_time.append(self.engine.now, value)
                    self.eval_by_iteration.append(i + 1, value)
        self._finish_times[w] = self.engine.now

    def run(self) -> SimRunResult:
        self.engine.spawn(self._scheduler_proc(), name="scheduler")
        return super().run()


def run_pslite(config: SimConfig) -> SimRunResult:
    """One-call convenience wrapper."""
    return PSLiteSimRunner(config).run()
