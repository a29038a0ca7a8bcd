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

from repro.core.models import SyncModel, asp
from repro.sim.network import NicSpec
from repro.sim.runner import REQUEST_BYTES, FluentPSSimRunner, SimConfig
from repro.sim.trace import SpanKind
from repro.utils.checks import check_number

SCHEDULER_NODE = "specsync-scheduler"


@dataclass
class _NotifyMsg:
    worker: int
    progress: int


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
        for name in ("abort_threshold", "abort_check_slices"):
            setattr(self, name, check_number(name, getattr(self, name), 1, integer=True))


class SpecSyncRunner(FluentPSSimRunner):
    """SpecSync execution on the simulated cluster."""

    def __init__(self, config: SpecSyncConfig):
        if not isinstance(config.sim.sync, SyncModel):
            raise ValueError("SpecSync uses one global model (servers run ASP)")
        self.spec_cfg = config
        super().__init__(replace(config.sim, sync=asp()))
        self._sched_ep = self.net.add_node(
            SCHEDULER_NODE, NicSpec(bandwidth_Bps=1.25e9, overhead_s=30e-6)
        )
        self._sched_ep.sink = self._on_notify
        n = self.cfg.cluster.n_workers
        self._fresh_counts = [0] * n  # other workers' pushes since last pull
        self._abort_flags = [False] * n
        self.aborts = 0
        self.wasted_compute = 0.0

    # -- scheduler: one notification per push (the bottleneck) ------------

    def _on_notify(self, notify: _NotifyMsg, at: float, cause: int) -> None:
        """The scheduler, as its endpoint's sink."""
        threshold = self.spec_cfg.abort_threshold
        for w in range(self.cfg.cluster.n_workers):
            if w == notify.worker:
                continue
            self._fresh_counts[w] += 1
            if self._fresh_counts[w] >= threshold and not self._abort_flags[w]:
                self._abort_flags[w] = True
                self.net.send(
                    self._sched_ep, self._wkr_eps[w], REQUEST_BYTES,
                    tag="abort", cause=cause, notify=False, at=at,
                )

    # -- worker: sliced, abortable compute ----------------------------------

    def _worker_proc(self, w: int):
        """What §V-B adds to the stock worker: compute in abortable
        slices, a notification per push, and pulls on a shared RX lane."""
        engine = self.engine
        row = self._worker_row(w)
        slices = self.spec_cfg.abort_check_slices
        for i in range(self.cfg.max_iter):
            row.i = i
            # Compute in slices; an abort discards progress and re-pulls.
            while True:
                dur = self._draw(row)
                t0 = engine.now
                for _slice in range(slices):
                    yield dur / slices
                    if self._abort_flags[w]:
                        break
                else:
                    self._book_compute(row, t0)
                    break
                # Abort: wasted work + refresh pull, then recompute.
                self.aborts += 1
                self.wasted_compute += engine.now - t0
                self.trace.record_span(
                    row.name, SpanKind.OTHER, t0, engine.now, i, note="aborted"
                )
                if i == 0:
                    # Nothing pushed yet: no legal pull; just restart.
                    self._pulled(w)
                    continue
                # ASP servers answer at the worker's *last pushed*
                # progress, which a refresh pull reuses.
                t_refresh = engine.now
                refreshed = self._send_pulls(row, i - 1, exclusive=False)
                yield refreshed
                self._pulled(w)
                self._book_sync(row, t_refresh, refreshed)
            self._local_step(row)
            t_sync = engine.now
            # Signalled: a push is applied at its deliver time (signal-free
            # it would fuse into its TX completion and show up early in
            # worker 0's evaluations).
            self._push_all(row)
            # Notify the central scheduler (SpecSync's per-push message).
            self.net.send(
                row.ep, self._sched_ep, REQUEST_BYTES,
                payload=_NotifyMsg(w, i), tag="notify", cause=row.cause,
            )
            # The reply gather is *not* exclusive: the scheduler's abort
            # messages reach a worker's RX lane whenever the threshold
            # trips, mid-pull included, so every reply is an ordinary
            # delivery.
            pending = self._send_pulls(row, i, exclusive=False)
            yield pending
            self._pulled(w)
            self._book_sync(row, t_sync, pending)
            self._end_iteration(row)
        self._finish_times[w] = engine.now

    def _pulled(self, w: int) -> None:
        """A pull completed (or there is nothing to pull yet): the worker
        is fresh again."""
        self._fresh_counts[w] = 0
        self._abort_flags[w] = False
