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
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.driver import StepContext
from repro.core.keyspace import ElasticSlicer
from repro.core.metrics import SyncMetrics
from repro.sim.engine import Engine, Timeout
from repro.sim.network import Message
from repro.sim.runner import SimConfig, SimRunResult
from repro.sim.stragglers import LogNormalCompute
from repro.sim.trace import SpanKind, TraceRecorder
from repro.utils.records import SeriesRecord
from repro.utils.rng import derive_rng
from repro.core.layout import ShardLayout


@dataclass
class SSPTableConfig:
    """SSPtable knobs on top of a :class:`SimConfig`."""

    sim: SimConfig
    staleness: int = 3
    raw_additive: bool = True  # Bösen applies w += u; False → w += u/N

    def __post_init__(self) -> None:
        if self.staleness < 0:
            raise ValueError("staleness must be >= 0")


@dataclass
class _UpdateMsg:
    worker: int
    clock: int  # worker clock after this update (iteration index + 1)
    shard: Optional[np.ndarray]


@dataclass
class _ReadMsg:
    worker: int
    require: int  # minimum acceptable min-clock


@dataclass
class _ReadReply:
    server: int
    worker: int
    clock: int
    shard: Optional[np.ndarray]


@dataclass
class _InvalidateMsg:
    clock: int


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

    def handle_update(self, worker: int, clock: int, shard: Optional[np.ndarray],
                      on_clock_advance: Callable[[int], None]) -> None:
        if shard is not None and self.params is not None:
            if self.raw_additive:
                self.params += shard
            else:
                self.params += shard / self.n_workers
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


class SSPTableRunner:
    """PMLS-Caffe-style execution on the simulated cluster."""

    def __init__(self, config: SSPTableConfig):
        self.cfg = config.sim
        self.table_cfg = config
        self.engine = Engine()
        self.net = self.cfg.cluster.make_network(self.engine)
        self.trace = TraceRecorder(keep_spans=bool(self.cfg.span_capture))
        self.spec = self.cfg.spec
        slicer = self.cfg.slicer or ElasticSlicer()
        self.layout = ShardLayout(self.spec, slicer.slice(self.spec, self.cfg.cluster.n_servers))
        self.wire_scale = self.cfg.resolved_wire_scale()
        self.compute_model = self.cfg.compute_model or LogNormalCompute(0.2)

        n, m = self.cfg.cluster.n_workers, self.cfg.cluster.n_servers
        training = self.cfg.task is not None
        if training:
            shard_vectors = self.layout.scatter(self.cfg.task.init_params.astype(np.float64))
        self.servers = [
            _TableServer(
                j, n, shard_vectors[j] if training else None, config.raw_additive
            )
            for j in range(m)
        ]
        self._compute_rngs = [derive_rng(self.cfg.seed, "compute", w) for w in range(n)]
        self._step_rngs = [derive_rng(self.cfg.seed, "step", w) for w in range(n)]
        self._pending_reads: Dict[int, dict] = {}
        self._finish_times = [0.0] * n
        self.invalidations_sent = 0
        self.eval_by_time = SeriesRecord("eval", x_label="time_s", y_label="metric")
        self.eval_by_iteration = SeriesRecord("eval", x_label="iteration", y_label="metric")

    def _payload_bytes(self, server: int) -> int:
        return int(self.layout.shard_bytes(server) * self.wire_scale) + self.cfg.header_bytes

    # -- server process ------------------------------------------------------

    def _server_proc(self, m: int):
        ep = self.net.endpoint(self.cfg.cluster.server_id(m))
        server = self.servers[m]
        while True:
            msg: Message = yield ep.inbox.get()
            payload = msg.payload
            if isinstance(payload, _UpdateMsg):
                server.handle_update(
                    payload.worker,
                    payload.clock,
                    payload.shard,
                    on_clock_advance=lambda clk, j=m: self._broadcast_invalidation(j, clk),
                )
            elif isinstance(payload, _ReadMsg):
                server.handle_read(
                    payload.worker,
                    payload.require,
                    respond=lambda clk, j=m, w=payload.worker: self._send_read_reply(j, w, clk),
                )
            else:
                raise TypeError(f"table server {m}: unexpected payload {payload!r}")

    def _broadcast_invalidation(self, server: int, clock: int) -> None:
        """SSPtable's staleness-information maintenance: every min-clock
        advance notifies all N workers so they can invalidate cached
        entries.  N messages through one server NIC — the O(N) cost."""
        for w in range(self.cfg.cluster.n_workers):
            self.net.send(
                self.cfg.cluster.server_id(server),
                self.cfg.cluster.worker_id(w),
                self.cfg.request_bytes,
                payload=_InvalidateMsg(clock),
                tag="invalidate",
                deliver_to_inbox=False,
            )
            self.invalidations_sent += 1

    def _send_read_reply(self, server: int, worker: int, clock: int) -> None:
        shard = None
        if self.servers[server].params is not None:
            shard = self.servers[server].params.copy()
        self.net.send(
            self.cfg.cluster.server_id(server),
            self.cfg.cluster.worker_id(worker),
            self._payload_bytes(server),
            payload=_ReadReply(server, worker, clock, shard),
            tag="read-reply",
        ).subscribe(self._on_read_reply)

    def _on_read_reply(self, msg: Message) -> None:
        reply: _ReadReply = msg.payload
        pending = self._pending_reads[reply.worker]
        if pending["flat"] is not None and reply.shard is not None:
            self.layout.gather_into(pending["flat"], reply.server, reply.shard)
        pending["clock"] = min(pending["clock"], reply.clock)
        pending["remaining"] -= 1
        if pending["remaining"] == 0:
            del self._pending_reads[reply.worker]
            pending["signal"].fire(pending)

    # -- worker process --------------------------------------------------------

    def _worker_proc(self, w: int):
        cfg = self.cfg
        node = cfg.cluster.worker_id(w)
        name = f"worker{w}"
        base = cfg.resolved_base_compute(cfg.cluster.workers[w].flops)
        s = self.table_cfg.staleness
        training = cfg.task is not None
        cache = cfg.task.init_params.copy() if training else None
        cache_clock = 0
        for i in range(cfg.max_iter):
            # SSP read rule: the cache must reflect min-clock >= i - s.
            require = i - s
            if cache_clock < require:
                t_read = self.engine.now
                pending = {
                    "flat": np.empty(self.spec.total_elements) if training else None,
                    "clock": 1 << 62,
                    "remaining": cfg.cluster.n_servers,
                    "signal": self.engine.signal(f"read:{w}:{i}"),
                }
                self._pending_reads[w] = pending
                for m in range(cfg.cluster.n_servers):
                    self.net.send(
                        node, cfg.cluster.server_id(m), cfg.request_bytes,
                        payload=_ReadMsg(w, require), tag="read",
                    )
                yield pending["signal"]
                self.trace.record_span(name, SpanKind.PULL, t_read, self.engine.now, i)
                if training:
                    cache = pending["flat"]
                cache_clock = pending["clock"]
            dur = self.compute_model.sample(w, i, base, self._compute_rngs[w])
            t0 = self.engine.now
            yield Timeout(dur)
            self.trace.record_span(name, SpanKind.COMPUTE, t0, self.engine.now, i)
            if training:
                update = cfg.task.step_fn(
                    StepContext(worker=w, iteration=i, params=cache, rng=self._step_rngs[w])
                )
                # Own update immediately visible in the local cache.
                cache = cache + (
                    update if self.table_cfg.raw_additive else update / cfg.cluster.n_workers
                )
                shards = self.layout.scatter(update)
            else:
                shards = [None] * cfg.cluster.n_servers
            t_push = self.engine.now
            for m in range(cfg.cluster.n_servers):
                self.net.send(
                    node, cfg.cluster.server_id(m), self._payload_bytes(m),
                    payload=_UpdateMsg(w, i + 1, shards[m]), tag="update",
                )
            self.trace.record_span(name, SpanKind.PUSH, t_push, self.engine.now, i)
            if w == 0 and training and cfg.eval_every > 0:
                if (i + 1) % cfg.eval_every == 0 or i + 1 == cfg.max_iter:
                    value = cfg.task.eval_fn(self._global_params())
                    self.eval_by_time.append(self.engine.now, value)
                    self.eval_by_iteration.append(i + 1, value)
        self._finish_times[w] = self.engine.now

    def _global_params(self) -> np.ndarray:
        return self.layout.gather([srv.params for srv in self.servers])

    # -- run ----------------------------------------------------------------------

    def run(self) -> SimRunResult:
        for m in range(self.cfg.cluster.n_servers):
            self.engine.spawn(self._server_proc(m), name=f"table{m}")
        for w in range(self.cfg.cluster.n_workers):
            self.engine.spawn(self._worker_proc(w), name=f"worker{w}")
        self.engine.run()
        if self._pending_reads:
            raise RuntimeError(
                f"SSPtable simulation drained with {len(self._pending_reads)} "
                "blocked reads (deadlock)"
            )
        worker_names = [f"worker{w}" for w in range(self.cfg.cluster.n_workers)]
        total_compute = self.trace.compute_time(worker_names)
        total_wall = sum(self._finish_times)
        return SimRunResult(
            duration=max(self._finish_times),
            iterations=self.cfg.max_iter,
            n_workers=self.cfg.cluster.n_workers,
            metrics=SyncMetrics.merge_all(srv.metrics for srv in self.servers),
            trace=self.trace,
            total_compute_time=total_compute,
            total_comm_time=max(0.0, total_wall - total_compute),
            bytes_on_wire=self.net.total_bytes,
            messages_on_wire=self.net.total_messages,
            final_params=self._global_params() if self.cfg.task is not None else None,
            eval_by_time=self.eval_by_time,
            eval_by_iteration=self.eval_by_iteration,
            worker_finish_times=list(self._finish_times),
        )


def run_ssptable(config: SSPTableConfig) -> SimRunResult:
    """One-call convenience wrapper."""
    return SSPTableRunner(config).run()
