"""SpecSync baseline: speculative synchronization with computation aborts.

SpecSync (Zhang et al., ICDCS'18 — paper §V-B) runs on top of ASP/SSP:
each worker *speculates* with the parameters it has; a centralized
scheduler receives a notification after every push and, once enough fresh
updates from other workers have accumulated since a worker's last pull,
tells that worker to **abort** its in-progress gradient computation and
re-pull updated parameters before recomputing.

The paper positions PSSP against exactly this design: "PSSP model can
also determine the probability based on the quality of parameters but
avoid the computation aborts in SpecSync model.  Furthermore, the
centralized scheduler was a bottleneck because it received the
notifications from all workers after their push operations."  Both
properties are reproduced here:

- aborted compute time is *wasted* (the worker restarts the iteration
  with fresh parameters);
- every push triggers a notification message to one scheduler node whose
  NIC serializes them (the O(N) bottleneck).

Implementation notes: shard servers run ASP (answer pulls immediately);
worker compute runs in ``abort_check_slices`` slices so an abort lands at
the next slice boundary, as in a minibatch pipeline that can only stop
between micro-batches.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.driver import StepContext
from repro.core.models import SyncModel, asp
from repro.sim.engine import Timeout
from repro.sim.network import Message, NicSpec
from repro.sim.runner import (
    FluentPSSimRunner,
    SimConfig,
    SimRunResult,
    _PullMsg,
    _PushMsg,
)
from repro.sim.trace import SpanKind

SCHEDULER_NODE = "specsync-scheduler"


@dataclass
class _NotifyMsg:
    worker: int
    progress: int


@dataclass
class _AbortMsg:
    worker: int


@dataclass
class SpecSyncConfig:
    """SpecSync knobs on top of a :class:`SimConfig`."""

    sim: SimConfig
    #: abort a worker once this many fresh pushes from *other* workers
    #: accumulated since its last pull completed.
    abort_threshold: int = 4
    #: compute is interruptible at these many slice boundaries.
    abort_check_slices: int = 8

    def __post_init__(self) -> None:
        if self.abort_threshold < 1:
            raise ValueError("abort_threshold must be >= 1")
        if self.abort_check_slices < 1:
            raise ValueError("abort_check_slices must be >= 1")


class SpecSyncRunner(FluentPSSimRunner):
    """SpecSync execution on the simulated cluster."""

    def __init__(self, config: SpecSyncConfig):
        if not isinstance(config.sim.sync, SyncModel):
            raise ValueError("SpecSync uses one global model (servers run ASP)")
        self.spec_cfg = config
        super().__init__(replace(config.sim, sync=asp()))
        self.net.add_node(SCHEDULER_NODE, NicSpec(bandwidth_Bps=1.25e9, overhead_s=30e-6))
        n = self.cfg.cluster.n_workers
        self._fresh_counts = [0] * n  # other workers' pushes since last pull
        self._abort_flags = [False] * n
        self.aborts = 0
        self.wasted_compute = 0.0

    # -- scheduler: one notification per push (the bottleneck) ------------

    def _scheduler_proc(self):
        ep = self.net.endpoint(SCHEDULER_NODE)
        n = self.cfg.cluster.n_workers
        threshold = self.spec_cfg.abort_threshold
        while True:
            msg: Message = yield ep.inbox.get()
            note: _NotifyMsg = msg.payload
            for w in range(n):
                if w == note.worker:
                    continue
                self._fresh_counts[w] += 1
                if self._fresh_counts[w] >= threshold and not self._abort_flags[w]:
                    self._abort_flags[w] = True
                    self.net.send(
                        SCHEDULER_NODE,
                        self.cfg.cluster.worker_id(w),
                        self.cfg.request_bytes,
                        payload=_AbortMsg(w),
                        tag="abort",
                        deliver_to_inbox=False,
                    )

    # -- worker: sliced, abortable compute ----------------------------------

    def _worker_proc(self, w: int):
        cfg = self.cfg
        node = cfg.cluster.worker_id(w)
        name = f"worker{w}"
        base = cfg.resolved_base_compute(cfg.cluster.workers[w].flops)
        params = cfg.task.init_params.copy() if cfg.task is not None else None
        slices = self.spec_cfg.abort_check_slices
        for i in range(cfg.max_iter):
            # Compute in slices; an abort discards progress and re-pulls.
            while True:
                dur = self.compute_model.sample(w, i, base, self._compute_rngs[w])
                t0 = self.engine.now
                aborted = False
                for _slice in range(slices):
                    yield Timeout(dur / slices)
                    if self._abort_flags[w]:
                        aborted = True
                        break
                if not aborted:
                    self.trace.record_span(name, SpanKind.COMPUTE, t0, self.engine.now, i)
                    break
                # Abort: wasted work + refresh pull, then recompute.
                self.aborts += 1
                self.wasted_compute += self.engine.now - t0
                self.trace.record_span(
                    name, SpanKind.OTHER, t0, self.engine.now, i, note="aborted"
                )
                if i == 0:
                    # Nothing pushed yet: no legal pull; just restart.
                    self._fresh_counts[w] = 0
                    self._abort_flags[w] = False
                    continue
                t_refresh = self.engine.now
                refreshed = yield from self._pull(w, i - 1, node)
                self.trace.record_span(name, SpanKind.PULL, t_refresh, self.engine.now, i)
                if params is not None and refreshed.flat is not None:
                    params = refreshed.flat
            if cfg.task is not None:
                update = cfg.task.step_fn(
                    StepContext(worker=w, iteration=i, params=params, rng=self._step_rngs[w])
                )
                shards = self.layout.scatter(update)
            else:
                shards = [None] * cfg.cluster.n_servers
            t_sync = self.engine.now
            for m in range(cfg.cluster.n_servers):
                self.net.send(
                    node, cfg.cluster.server_id(m), self._payload_bytes(m),
                    payload=_PushMsg(w, i, shards[m]), tag="push",
                )
            # Notify the central scheduler (SpecSync's per-push message).
            self.net.send(
                node, SCHEDULER_NODE, cfg.request_bytes,
                payload=_NotifyMsg(w, i), tag="notify",
            )
            pending = yield from self._pull(w, i, node)
            self.trace.record_span(name, SpanKind.PULL, t_sync, self.engine.now, i)
            if params is not None:
                params = pending.flat
            if w == 0 and cfg.task is not None and cfg.eval_every > 0:
                if (i + 1) % cfg.eval_every == 0 or i + 1 == cfg.max_iter:
                    value = cfg.task.eval_fn(self._global_params())
                    self.eval_by_time.append(self.engine.now, value)
                    self.eval_by_iteration.append(i + 1, value)
        self._finish_times[w] = self.engine.now

    def _pull(self, w: int, progress: int, node: str):
        """Pull all shards; resets the worker's freshness/abort state.

        The reply gather is *not* exclusive: the scheduler's abort
        messages reach a worker's RX lane whenever the threshold trips,
        mid-pull included, so every reply is an ordinary delivery."""
        cfg = self.cfg
        pending = self._open_pull(w, exclusive=False)
        # ASP servers answer using the worker's *last pushed* progress;
        # refresh pulls reuse it (allowed: progress <= last push).
        for m in range(cfg.cluster.n_servers):
            self.net.send(
                node, cfg.cluster.server_id(m), cfg.request_bytes,
                payload=_PullMsg(w, max(progress, 0)), tag="pull",
            )
        yield pending.gather
        self._fresh_counts[w] = 0
        self._abort_flags[w] = False
        return pending

    def run(self) -> SimRunResult:
        self.engine.spawn(self._scheduler_proc(), name="specsync-scheduler")
        return super().run()


def run_specsync(config: SpecSyncConfig) -> SimRunResult:
    """One-call convenience wrapper."""
    return SpecSyncRunner(config).run()
