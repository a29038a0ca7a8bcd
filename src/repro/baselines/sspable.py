"""Bösen/PMLS-Caffe baseline: SSPtable worker-side parameter caching.

Bösen implements SSP through SSPtable, "a convenient shared-memory model
which invalidates the outdated parameter entries cached at workers"
(paper §V-A).  Mechanics reproduced here:

- each worker holds a **cached copy** of the parameters stamped with the
  global min-clock it reflects; its *own* updates are applied to the
  cache immediately (local visibility), everyone else's are invisible
  until the next refresh;
- a read at iteration ``i`` requires the cache to reflect min-clock
  ≥ ``i − s``; otherwise the worker refreshes from the servers, and the
  server **blocks the read** until the slowest worker's clock satisfies
  the bound (the SSP read rule enforced server-side);
- on every min-clock advance the server broadcasts invalidation notices
  to all N workers — the staleness-information maintenance whose cost
  grows with the worker count (the paper's scalability complaint);
- updates are applied **raw-additively** (``w += u``), Bösen's actual
  rule — with per-worker hyperparameters tuned at small N this is what
  makes accuracy collapse as N grows (Figures 1 and 7), while FluentPS's
  Algorithm-1 ``w += u/N`` stays robust.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.core.metrics import SyncMetrics
from repro.core.models import SyncModel
from repro.core.server import ApplyInfo, ExecutionMode
from repro.sim.runner import REQUEST_BYTES, FluentPSSimRunner, SimConfig, SimRunResult
from repro.sim.trace import SpanKind
from repro.utils.checks import check_number


@dataclass
class SSPTableConfig:
    """SSPtable knobs on top of a :class:`SimConfig`."""

    sim: SimConfig
    staleness: int = 3
    raw_additive: bool = True  # Bösen applies w += u; False → w += u/N

    def __post_init__(self) -> None:
        self.staleness = check_number("staleness", self.staleness, integer=True)


class _TableServer:
    """One SSPtable shard: params, vector clock, blocked reads."""

    def __init__(self, shard_id: int, n_workers: int, params: Optional[np.ndarray],
                 raw_additive: bool):
        self.shard_id = shard_id
        self.n_workers = n_workers
        self.params = params
        self.raw_additive = raw_additive
        self.clocks = [0] * n_workers
        self.blocked: List[Tuple[int, int, Callable[[int], None]]] = []
        self.metrics = SyncMetrics()

    @property
    def min_clock(self) -> int:
        return min(self.clocks)

    # What the runner and ``repro.obs.snapshot`` read off a server, in
    # table terms (blocked reads carry no enqueue time: their age gauge
    # stays 0).
    v_train = min_clock
    worker_progress = property(lambda self: [c - 1 for c in self.clocks])
    buffered_pulls = property(lambda self: len(self.blocked))
    version = property(lambda self: self.metrics.pushes)
    callbacks: dict = {}

    def apply_fn(self, params: np.ndarray, update: np.ndarray, info: ApplyInfo) -> None:
        """The replay's apply: Bösen's ``w ← w + u``, or ``w ← w + u/N``."""
        params += update if self.raw_additive else update / self.n_workers

    def defer_values(self, catch_up=None) -> Optional[np.ndarray]:
        """Hand the params to a replay (no table read reads values)."""
        params, self.params = self.params, None
        return params

    def handle_replayed(self, params: Optional[np.ndarray]) -> None:
        """Take back the params a replay brought to :attr:`version`."""
        self.params = params

    def handle_update(self, worker: int, clock: int,
                      on_clock_advance: Callable[[int], None]) -> None:
        old_min = self.min_clock
        self.clocks[worker] = max(self.clocks[worker], clock)
        self.metrics.record_push()
        new_min = self.min_clock
        if new_min > old_min:
            self.metrics.record_frontier_advance()
            still = []
            for w, require, respond in self.blocked:
                if new_min >= require:
                    respond(new_min)
                else:
                    still.append((w, require, respond))
            self.blocked = still
            on_clock_advance(new_min)

    def handle_read(self, worker: int, require: int, respond: Callable[[int], None]) -> None:
        if self.min_clock >= require:
            self.metrics.record_pull(immediate=True, iteration=max(require, 0))
            respond(self.min_clock)
        else:
            self.metrics.record_pull(immediate=False, iteration=max(require, 0))
            self.blocked.append((worker, require, respond))


class SSPTableRunner(FluentPSSimRunner):
    """PMLS-Caffe-style execution on the simulated cluster: the stock
    runner's machinery with table servers in place of shard servers (no
    serve lane, no conditions — the read rule is the table's) and a worker
    that reads only when its cache is too stale."""

    def __init__(self, config: SSPTableConfig):
        if not isinstance(config.sim.sync, SyncModel):
            raise ValueError("sync: SSPtable enforces one bound, SSPTableConfig.staleness")
        if config.sim.execution is not ExecutionMode.LAZY:
            raise ValueError("execution: a blocked SSPtable read waits for the full bound")
        self.table_cfg = config
        super().__init__(config.sim)
        if self._log is not None:
            # A worker's own update lands in its cache as the table applies it.
            self._log.own_scale = 1 if config.raw_additive else self.cfg.cluster.n_workers
        #: Per worker: the min-clock the read in flight will reflect.
        self._read_clock = [0] * self.cfg.cluster.n_workers
        self.invalidations_sent = 0

    def _shard_factory(self, shard_id, n_workers, params, **_) -> _TableServer:
        """A table server where the system would build a shard server."""
        return _TableServer(shard_id, n_workers, params, self.table_cfg.raw_additive)

    # -- server side ---------------------------------------------------------

    def _serve(self, request: tuple, at: float, cause: int) -> None:
        """Endpoint sink: the table handler, at the request's delivery."""
        m, worker, progress, pull = request
        self._srv_now[m] = at
        if not pull:
            if self._log is not None:
                self._log.applies[m].append((worker, progress, 0))
            self.servers[m].handle_update(
                worker, progress + 1, partial(self._broadcast_invalidation, m)
            )
        else:  # a read by iteration ``progress + s``: the min-clock it requires
            self.servers[m].handle_read(
                worker, progress,
                partial(self._send_read_reply, m, worker, progress + self.table_cfg.staleness,
                        cause),
            )

    def _broadcast_invalidation(self, server: int, clock: int) -> None:
        """SSPtable's staleness-information maintenance: every min-clock
        advance notifies all N workers so they can invalidate cached
        entries.  N messages through one server NIC — the O(N) cost."""
        for dst in self._wkr_eps:
            self.net.send(
                self._srv_eps[server], dst, REQUEST_BYTES,
                tag="invalidate", notify=False, at=self._srv_now[server],
            )
        self.invalidations_sent += len(self._wkr_eps)

    def _send_read_reply(self, server: int, worker: int, i: int, cause: int, clock: int) -> None:
        """Answer iteration ``i``'s read: the step reads the table as it is now."""
        if self._log is not None:
            version = self.servers[server].version
            self._log.reads[worker, i - 1 - self._first[worker], server] = version
        self._read_clock[worker] = min(self._read_clock[worker], clock)
        self.net.send(
            self._srv_eps[server], self._pending[worker], self._shard_bytes[server],
            tag="reply", cause=cause, at=self._srv_now[server],
        )

    # -- worker side ---------------------------------------------------------

    def _worker_proc(self, w: int):
        """What SSPtable's read rule adds to the stock worker: it reads
        (on an RX lane shared with the invalidations) only when its cache
        is older than the bound, and its own updates land in the cache (a
        step without a read reads its own writes: the replay's rule)."""
        engine = self.engine
        row = self._worker_row(w)
        s = self.table_cfg.staleness
        cache_clock = 0
        for i in range(self.cfg.max_iter):
            row.i = i
            # SSP read rule: the cache must reflect min-clock >= i - s.
            if cache_clock < i - s:
                t_read = engine.now
                self._read_clock[w] = 1 << 62
                pending = self._send_pulls(row, i - s, exclusive=False)
                yield pending
                self._book_sync(row, t_read, pending)
                cache_clock = self._read_clock[w]
            t0 = engine.now
            yield self._draw(row)
            self._book_compute(row, t0)
            self._local_step(row)
            # Signalled: an update is applied at its deliver time (signal-
            # free it would fuse into its TX completion and show up early
            # in worker 0's evaluations).
            self._push_all(row)
            self.trace.record_span(row.name, SpanKind.PUSH, engine.now, engine.now, i)
            self._end_iteration(row)
        self._finish_times[w] = engine.now


def run_ssptable(config: SSPTableConfig) -> SimRunResult:
    """One-call convenience wrapper."""
    return SSPTableRunner(config).run()
