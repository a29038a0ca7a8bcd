"""Co-simulation runner: FluentPS protocol × network model × real gradients.

This binds the three substrates together (DESIGN.md's centerpiece):

- worker processes compute for a sampled duration (straggler model), then
  sPush their update shards and sPull the next parameters over the
  simulated network;
- each :class:`~repro.core.server.ShardServer` applies real NumPy updates
  and runs its own pull/push conditions — **overlap synchronization**
  falls out of the architecture: a shard answers its pulls the moment its
  own condition allows, independent of the other M−1 shards (Figure 4b);
- when a :class:`~repro.ml.training.TrainingTask` is attached, gradient
  math is real and accuracy-vs-time curves come out; without one the run
  is timing-only against a :class:`~repro.ml.models_zoo.Workload` spec.

``wire_scale`` lets a small trainable proxy model carry the *paper
model's* wire footprint: message sizes are multiplied so the network sees
ResNet-56-sized transfers while the gradients stay cheap to compute.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.conditions import DSPSPull, PSSPPull, SSPPull
from repro.core.driver import StepContext
from repro.core.filters import NoFilter, PushFilter
from repro.core.keyspace import ElasticSlicer, ModelSpec, Slicer
from repro.core.layout import ShardLayout
from repro.core.metrics import SyncMetrics
from repro.core.models import SyncModel
from repro.core.server import (
    ExecutionMode,
    PullReply,
    ShardServer,
    flush_applies_across,
)
from repro.ml.models_zoo import Workload
from repro.ml.training import TrainingTask
from repro.obs import Observability, current_observability
from repro.obs.export import (
    BLOCK_DTYPE,
    FRONTIER_ADVANCE,
    PULL_ANSWER,
    PULL_REQUEST,
    PUSH,
)
from repro.obs.snapshot import ServerSnapshotter
from repro.sim.cluster import ClusterSpec
from repro.sim.engine import Engine
from repro.sim.network import Gather, Message, Network
from repro.sim.stragglers import ComputeModel, LogNormalCompute
from repro.sim.trace import SpanKind, TraceRecorder
from repro.utils.records import SeriesRecord
from repro.utils.rng import derive_rng


@dataclass
class SimConfig:
    """Everything one co-simulated training run needs."""

    cluster: ClusterSpec
    max_iter: int
    sync: Union[SyncModel, Sequence[SyncModel]]
    execution: ExecutionMode = ExecutionMode.LAZY
    slicer: Optional[Slicer] = None
    compute_model: Optional[ComputeModel] = None
    base_compute_time: Optional[float] = None  # None → derive from workload
    batch_per_worker: int = 128
    task: Optional[TrainingTask] = None
    workload: Optional[Workload] = None
    wire_scale: Optional[float] = None  # None → auto from workload/task sizes
    seed: int = 0
    eval_every: int = 0
    keep_spans: bool = False
    #: Span-list capture override.  ``None`` → legacy behavior: spans are
    #: kept when ``keep_spans`` asks for them or observability is enabled
    #: (trace export needs the list).  ``False`` → never keep the span
    #: list even under observability: span *totals* (comm/compute time)
    #: still accumulate exactly, but per-span objects are dropped — at
    #: 100k workers the list alone costs hundreds of MB, and a
    #: sanitize-focused run only needs the protocol instant stream.
    #: ``True`` → always keep (same as ``keep_spans=True``).
    span_capture: Optional[bool] = None
    header_bytes: int = 256
    request_bytes: int = 128
    #: Server processing time per handled request (queue pop, dispatch).
    server_op_overhead_s: float = 20e-6
    #: Protocol cost per DPR event: server-side buffering/re-check work
    #: plus the blocked worker's share of the retry round-trip.  Frequent
    #: soft barriers pay this once per re-buffer — the per-event cost
    #: behind lazy execution's 1.2x speedup (Fig 8) and part of PSSP's
    #: time advantage over SSP under the soft barrier (Fig 9/10).
    dpr_overhead_s: float = 500e-6
    #: Optional per-worker push filter (PS-Lite programming filters /
    #: Gaia significance filter): called as ``push_filter_factory()`` once
    #: per worker; shrinks push wire bytes by the filtered fraction.
    push_filter_factory: Optional[Callable[[], "PushFilter"]] = None
    #: Observability sink; None → the ambient :func:`current_observability`.
    obs: Optional[Observability] = None
    #: Snapshot scrape period in sim seconds; None → half a base compute.
    snapshot_interval_s: Optional[float] = None
    #: Per-worker observability series cap.  Below this worker count the
    #: runner keeps one ``pull_latency_seconds`` sketch series per worker
    #: (labels ``worker=<w>``); above it, all workers share a single
    #: aggregate series (``worker="all"``) so the metrics registry stays
    #: bounded at mesoscale — at 100k workers per-worker label sets would
    #: dominate run memory.  Sketches merge exactly, so the aggregate is
    #: byte-identical to merging the per-worker series after the fact.
    worker_series_threshold: int = 4096

    def __post_init__(self) -> None:
        if not isinstance(self.max_iter, int) or self.max_iter < 1:
            raise ValueError(f"max_iter must be an int >= 1, got {self.max_iter!r}")
        if not self.batch_per_worker >= 1:
            raise ValueError(f"batch_per_worker must be >= 1, got {self.batch_per_worker!r}")
        if self.worker_series_threshold < 1:
            raise ValueError(
                f"worker_series_threshold must be >= 1, "
                f"got {self.worker_series_threshold}"
            )
        for name in ("base_compute_time", "wire_scale", "snapshot_interval_s"):
            value = getattr(self, name)
            if value is not None and not value > 0:
                raise ValueError(f"{name} must be positive, got {value!r}")
        for name in (
            "server_op_overhead_s",
            "dpr_overhead_s",
            "header_bytes",
            "request_bytes",
            "eval_every",
        ):
            value = getattr(self, name)
            if not value >= 0:
                raise ValueError(f"{name} must be >= 0, got {value!r}")
        if self.task is None and self.workload is None:
            raise ValueError("need a TrainingTask and/or a Workload")
        if self.task is not None and self.task.n_workers != self.cluster.n_workers:
            raise ValueError(
                f"task built for {self.task.n_workers} workers, cluster has "
                f"{self.cluster.n_workers}"
            )

    @property
    def spec(self) -> ModelSpec:
        return self.task.spec if self.task is not None else self.workload.spec

    def resolved_wire_scale(self) -> float:
        if self.wire_scale is not None:
            return self.wire_scale
        if self.task is not None and self.workload is not None:
            return self.workload.wire_bytes / self.spec.total_bytes
        return 1.0

    def resolved_base_compute(self, node_flops: float) -> float:
        if self.base_compute_time is not None:
            return self.base_compute_time
        if self.workload is not None:
            return self.workload.train_flops_per_sample * self.batch_per_worker / node_flops
        # No workload: a nominal per-iteration second keeps ratios readable.
        return 1.0


@dataclass
class SimRunResult:
    """Outcome of one co-simulated run."""

    duration: float
    iterations: int
    n_workers: int
    metrics: SyncMetrics
    trace: TraceRecorder
    total_compute_time: float
    total_comm_time: float
    bytes_on_wire: int
    messages_on_wire: int
    final_params: Optional[np.ndarray] = None
    eval_by_time: SeriesRecord = field(default_factory=lambda: SeriesRecord("eval"))
    eval_by_iteration: SeriesRecord = field(default_factory=lambda: SeriesRecord("eval"))
    worker_finish_times: List[float] = field(default_factory=list)

    @property
    def mean_compute_time(self) -> float:
        return self.total_compute_time / self.n_workers

    @property
    def mean_comm_time(self) -> float:
        return self.total_comm_time / self.n_workers

    def dprs_per_100_iterations(self) -> float:
        return self.metrics.dprs_per_100_iterations(self.iterations)


@dataclass(slots=True)
class _PushMsg:
    worker: int
    progress: int
    shard: Optional[np.ndarray]


@dataclass(slots=True)
class _PullMsg:
    worker: int
    progress: int


@dataclass(slots=True)
class _PendingPull:
    """One worker's outstanding sPull round."""

    gather: Gather  #: the reply gather the worker waits on
    flat: Optional[np.ndarray]  #: co-simulation: where shard snapshots assemble


def _seq_cascade(
    arrivals: np.ndarray, holds: np.ndarray, cursor: float
) -> Tuple[np.ndarray, float]:
    """Exact capacity-1 FIFO-lane cascade over a sorted arrival stream.

    Computes ``end_i = max(cursor_i, a_i) + h_i`` with
    ``cursor_{i+1} = end_i`` — the same float sequence the event path
    produces one message at a time — using one seeded
    ``np.add.accumulate`` per *saturated segment* (a maximal stretch
    where each arrival lands before the previous transfer ends).  The
    accumulate is strictly sequential, and the running cursor is seeded
    *inside* the accumulated array, so every end time is bit-identical
    to the scalar recurrence.  Returns ``(ends, final_cursor)``.

    Idle-dominated stretches (every arrival after the previous end,
    e.g. a serve lane whose per-request cost is far below the arrival
    spacing) commit as whole runs of ``a_i + h_i`` between precomputed
    saturation triggers; saturated stretches accumulate in growing
    chunks.  Both regimes are O(n) vector work overall.
    """
    n_items = arrivals.shape[0]
    out = np.empty(n_items)
    # Idle items (arrival after the previous end) close in one add:
    # end_i = a_i + h_i, the exact float the seeded accumulate would
    # produce from seed a_i.  trig[i] marks where item i+1 lands before
    # item i's *idle* end — the only places a saturated chain can start
    # inside an idle run — so a whole run can be committed per step.
    idle_end = arrivals + holds
    trig_idx = np.nonzero(arrivals[1:] <= idle_end[:-1])[0]
    i = 0
    while i < n_items:
        if arrivals[i] > cursor:
            k = int(np.searchsorted(trig_idx, i))
            j = int(trig_idx[k]) if k < trig_idx.shape[0] else n_items - 1
            out[i : j + 1] = idle_end[i : j + 1]
            cursor = float(idle_end[j])
            i = j + 1
            continue
        # Saturated start: seeded sequential accumulate in growing
        # chunks (chunking a left-fold with a carried float seed is the
        # same add sequence, so ends stay bit-exact), stopping at the
        # first arrival that lands after its predecessor's end.
        seed = cursor
        pos = i
        width = 32
        while True:
            hi = min(n_items, pos + width)
            seg = np.add.accumulate(np.concatenate(((seed,), holds[pos:hi])))[1:]
            prev = np.concatenate(((seed,), seg[:-1]))
            viol = np.nonzero(arrivals[pos:hi] > prev)[0]
            if viol.size:
                j = pos + int(viol[0])
                out[pos:j] = seg[: j - pos]
                cursor = float(seg[j - pos - 1]) if j > pos else seed
                i = j
                break
            out[pos:hi] = seg
            seed = float(seg[-1])
            if hi == n_items:
                cursor = seed
                i = n_items
                break
            pos = hi
            width *= 8
    return out, cursor


def _request_delivery_order(
    T: np.ndarray, wrank: np.ndarray, srv_claims: list
) -> Tuple[np.ndarray, np.ndarray]:
    """Request delivery order of one collapsed round when deliveries
    do not fuse (delivery hooks installed): ``(rx_end, TX rank)`` over
    the flat ``worker * 2M + column`` request table.  Returns the
    order and the flat RX-end (= delivery time) table it sorts."""
    n, K = T.shape
    M = K // 2
    keyflat = (wrank[:, None] * K + np.arange(K)[None, :]).ravel()
    txrank = np.empty(n * K, dtype=np.int64)
    txrank[np.lexsort((keyflat, T.ravel()))] = np.arange(n * K)
    rx_flat = np.empty(n * K)
    for m in range(M):
        o, rx_ends, _serve = srv_claims[m]
        sel = o >= n
        wkr = np.where(sel, o - n, o)
        col = np.where(sel, M + m, m)
        rx_flat[wkr * K + col] = rx_ends
    return np.lexsort((txrank, rx_flat)), rx_flat


#: Requests per columnar instant block: a collapsed round with more is
#: emitted as a run of blocks, so no row-length temporary outgrows a few
#: MB whatever the cohort size.
_BLOCK_HANDLES = 1 << 16


def _round_rows(r, is_pull, advances, shard, worker, v_train, version, serve) -> np.ndarray:
    """The :data:`~repro.obs.export.BLOCK_DTYPE` rows of a run of
    quiet-round requests, given per request (in handle order) whether
    it is a pull, whether it is its shard's n-th push, its shard,
    worker, the frontier and update counter it sees, and its serve time.

    A push is one ``push`` row, plus a ``frontier_advance`` row (the
    frontier + 1) when it is its shard's n-th; a pull is a
    ``pull_request`` and a ``pull_answer`` row."""
    per_handle = 1 + (is_pull | advances)
    second = np.ones(int(per_handle.sum()), dtype=bool)
    second[np.cumsum(per_handle) - per_handle] = False
    pull = np.repeat(is_pull, per_handle)
    advance = second & ~pull
    answer = second & pull
    v_train = np.repeat(v_train, per_handle)
    rows = np.empty(second.shape[0], dtype=BLOCK_DTYPE)
    rows["code"] = np.where(
        second,
        np.where(pull, PULL_ANSWER, FRONTIER_ADVANCE),
        np.where(pull, PULL_REQUEST, PUSH),
    )
    rows["shard"] = np.repeat(shard, per_handle)
    rows["worker"] = np.repeat(worker, per_handle)
    rows["worker"][advance] = -1
    rows["progress"] = r
    rows["v_train"] = v_train + advance
    rows["missing"] = np.where(answer, np.maximum(0, r + 1 - v_train), 0)
    rows["version"] = np.where(answer, np.repeat(version, per_handle), 0)
    rows["t"] = np.repeat(serve, per_handle)
    return rows


class FluentPSSimRunner:
    """Run one FluentPS training job on the simulated cluster."""

    def __init__(self, config: SimConfig):
        self.cfg = config
        self.engine = Engine()
        self.net: Network = config.cluster.make_network(self.engine)
        self.obs = config.obs or current_observability()
        # Observability implies a full span capture for trace export,
        # unless span_capture=False opts out (sanitize-focused runs).
        keep = (
            config.span_capture
            if config.span_capture is not None
            else (config.keep_spans or self.obs.enabled)
        )
        self.trace = TraceRecorder(keep_spans=keep)
        self.spec = config.spec
        slicer = config.slicer or ElasticSlicer()
        self.layout = ShardLayout(self.spec, slicer.slice(self.spec, config.cluster.n_servers))
        self.wire_scale = config.resolved_wire_scale()
        self.compute_model = config.compute_model or LogNormalCompute(0.2)

        n, m = config.cluster.n_workers, config.cluster.n_servers
        models = self._normalize_models(config.sync, m)
        training = config.task is not None
        if training:
            shard_vectors = self.layout.scatter(config.task.init_params.astype(np.float64))
        self.servers: List[ShardServer] = [
            ShardServer(
                shard_id=j,
                n_workers=n,
                model=models[j],
                execution=config.execution,
                params=shard_vectors[j] if training else None,
                # Per-shard drain-lane clock: equals ``engine.now`` inside
                # real handle events, and the cascaded virtual handle time
                # when the lane serves a request that landed in the busy
                # window — so waited times and protocol instants are the
                # ones an inbox loop would produce.
                clock=lambda j=j: self._srv_now[j],
                rng=derive_rng(config.seed, "server", j),
                obs=self.obs,
            )
            for j in range(m)
        ]
        self._capture = None
        self.causal = None
        self._pull_sketches = None
        #: Worker whose push is currently being applied (drives straggler
        #: blame on DPR releases; only read when causal tracing is on).
        self._current_push_worker = -1
        if self.obs.enabled:
            self.obs.registry.set_clock(lambda: self.engine.now)
            self._capture = self.obs.begin_run(
                f"sim-run{len(self.obs.runs)}-n{n}x{m}", self.trace
            )
            self.causal = self._capture.causal
            self.net.causal = self.causal
            pull_sketch = self.obs.registry.sketch(
                "pull_latency_seconds",
                "sync-wait seconds per sPull round (mergeable sketch)",
            )
            if n > config.worker_series_threshold:
                # Mesoscale: one shared aggregate series instead of one
                # label set per worker keeps the registry bounded (the
                # sketch merge is exact, so nothing is lost but the
                # per-worker split — see SimConfig.worker_series_threshold).
                agg = pull_sketch.labels(worker="all")
                self._pull_sketches = [agg] * n
            else:
                self._pull_sketches = [
                    pull_sketch.labels(worker=w) for w in range(n)
                ]
            self.obs.instants.record(
                "run_config", 0.0, actor="runner",
                runner="sim", n_workers=n, n_servers=m,
                models=[mod.name for mod in models],
                execution=config.execution.value,
            )
        #: Each worker's latest sPull round (a worker has one at a time).
        self._pending: Dict[int, _PendingPull] = {}
        self._filters: List[PushFilter] = [
            config.push_filter_factory() if config.push_filter_factory else NoFilter()
            for _ in range(n)
        ]
        self._compute_rngs = [derive_rng(config.seed, "compute", w) for w in range(n)]
        self._step_rngs = [derive_rng(config.seed, "step", w) for w in range(n)]
        self.eval_by_time = SeriesRecord("eval", x_label="time_s", y_label="metric")
        self.eval_by_iteration = SeriesRecord("eval", x_label="iteration", y_label="metric")
        self._finish_times: List[float] = [0.0] * n
        self._srv_names = [f"server{j}" for j in range(m)]
        # Per-server busy-window close time.
        self._srv_busy = [0.0] * m
        # Per-shard virtual clock: the handle time of the request this
        # shard is currently serving (== engine.now inside real handle
        # events).  ShardServer.clock reads it, so DPR waits and protocol
        # instants carry handle times, not delivery-event times.
        self._srv_now = [0.0] * m
        # Hot-path memos: node-id strings, per-shard wire sizes, and (when
        # causal tracing is off) one prebound pull responder per server —
        # all pure functions of the config, resolved once instead of per
        # request at incast rates.
        self._srv_node_ids = [config.cluster.server_id(j) for j in range(m)]
        self._wkr_node_ids = [config.cluster.worker_id(w) for w in range(n)]
        # Endpoint objects resolved once: Network.send accepts them in
        # place of node ids, skipping two registry lookups per message
        # (cache misses once the registry holds 100k entries).
        self._srv_eps = [self.net.endpoints[i] for i in self._srv_node_ids]
        self._wkr_eps = [self.net.endpoints[i] for i in self._wkr_node_ids]
        self._shard_bytes = [self._payload_bytes(j) for j in range(m)]
        self._responders = [
            partial(self._send_reply, j) for j in range(m)
        ]
        #: Dispatch counters (perf detail): requests handled at their
        #: delivery time vs. cascaded behind a busy shard lane.
        self.server_msgs_inline = 0
        self.server_msgs_drained = 0
        #: Why this run left the closed-form round collapse: empty while
        #: (and if) every round commits analytically, else ``{"reason":
        #: ...}`` from :meth:`_collapse_eligible`, or ``{"reason":
        #: "overlap", "round": k}`` when round ``k`` de-vectorized mid-run.
        self.collapse_fallback: Dict[str, object] = {}

    @staticmethod
    def _normalize_models(
        sync: Union[SyncModel, Sequence[SyncModel]], m: int
    ) -> List[SyncModel]:
        if isinstance(sync, SyncModel):
            return [sync] * m
        models = list(sync)
        if len(models) != m:
            raise ValueError(f"need one sync model per server, got {len(models)} for {m}")
        return models

    # -- sizing ---------------------------------------------------------------

    def _payload_bytes(self, server: int) -> int:
        return int(self.layout.shard_bytes(server) * self.wire_scale) + self.cfg.header_bytes

    # -- server side ----------------------------------------------------------

    def _dispatch_server(self, m: int, msg: Message) -> None:
        """Endpoint sink: handle the request inside the delivery event on
        the shard's analytic drain lane, at the virtual handle time
        ``max(deliver_time, lane busy end)`` — arrival order equals handle
        order per shard, so the cascade reproduces an inbox loop's
        busy-window FIFO with zero extra events (the loop itself is
        ``tests/reference_sim.py``)."""
        now = msg.deliver_time
        busy = self._srv_busy[m]
        if now >= busy:
            self.server_msgs_inline += 1
            self._handle_server_msg(m, msg, now)
        else:
            self.server_msgs_drained += 1
            self._handle_server_msg(m, msg, busy)

    def _handle_server_msg(self, m: int, msg: Message, now: float) -> None:
        server = self.servers[m]
        causal = self.causal
        actor = self._srv_names[m]
        self._srv_now[m] = now
        payload = msg.payload
        # ``tip`` tracks the request's causal frontier through the
        # server: delivery rx -> backlog wait -> apply/DPR wait.
        tip = msg.cause_id
        if causal is not None and now > msg.deliver_time:
            tip = causal.record(
                tip, actor, "server_queue", msg.deliver_time, now,
                shard=m, tag=msg.tag,
            )
        dprs_before = server.metrics.dprs
        cls = payload.__class__
        if cls is _PushMsg:
            self._current_push_worker = payload.worker
            server.handle_push(payload.worker, payload.progress, grad=payload.shard)
            self._current_push_worker = -1
        elif cls is _PullMsg:
            server.handle_pull(
                payload.worker,
                payload.progress,
                # Causal tracing threads the request's span id through the
                # responder; with tracing off the prebound per-server
                # responder avoids one closure per pull.
                respond=self._responders[m]
                if causal is None
                else lambda reply, j=m, cid=tip: self._send_reply(j, reply, cid),
            )
        else:
            raise TypeError(f"server {m}: unexpected message payload {payload!r}")
        # Charge server processing time: fixed per request plus per
        # DPR event this request caused (buffer/re-check bookkeeping).
        # The busy window serializes the server; later arrivals wait
        # for it to close before they are handled.
        cost = self.cfg.server_op_overhead_s
        cost += (server.metrics.dprs - dprs_before) * self.cfg.dpr_overhead_s
        end = now + cost
        self._srv_busy[m] = end
        if cost > 0 and self.obs.enabled:
            # Server-side apply spans are an observability feature;
            # the plain timing path skips the per-request recording.
            self.trace.record_span(actor, SpanKind.SERVER_APPLY, now, end)
            if causal is not None:
                causal.record(
                    tip, actor, "server_apply", now, end,
                    shard=m, tag=msg.tag,
                )

    def _send_reply(self, server: int, reply: PullReply, cause: int = -1) -> None:
        causal = self.causal
        if causal is not None and reply.waited > 0:
            # The pull sat in the DPR buffer from enqueue until this very
            # instant; the release happens inside the straggler's push, so
            # ``_current_push_worker`` names who to blame for the wait.
            now = self._srv_now[server]
            cause = causal.record(
                cause, f"server{server}", "server_queue", now - reply.waited, now,
                worker=reply.worker, iteration=reply.progress, shard=server,
                tag="dpr", blocked_on=self._current_push_worker,
            )
        pending = self._pending[reply.worker]
        if pending.flat is not None and reply.params is not None:
            # Snapshots are immutable: copy at the (virtual) send instant,
            # so no in-flight reply pins one.
            self.layout.gather_into(pending.flat, server, reply.params)
        # A reply issued from a cascaded lane handle serializes at the
        # virtual handle time (``at``), not the earlier engine clock.
        self.net.send(
            self._srv_eps[server],
            pending.gather,
            self._shard_bytes[server],
            tag="reply",
            cause=cause,
            at=self._srv_now[server],
        )

    def _open_pull(self, w: int, exclusive: bool = True) -> _PendingPull:
        """Open worker ``w``'s reply gather, one transfer per shard.
        ``exclusive``: nothing else reaches ``w``'s RX lane meanwhile — the
        stock protocol sends a worker nothing but its own M replies."""
        pending = self._pending[w] = _PendingPull(
            self.net.gather(self._wkr_eps[w], self.cfg.cluster.n_servers, exclusive),
            np.empty(self.spec.total_elements) if self.cfg.task is not None else None,
        )
        return pending

    # -- worker side ---------------------------------------------------------------

    def _worker_proc(
        self,
        w: int,
        start_iter: int = 0,
        presampled: Optional[Dict[int, float]] = None,
    ):
        """One worker's event-path life.  ``start_iter``/``presampled``
        re-materialize a worker mid-run after a partial round collapse:
        the process resumes at iteration ``start_iter`` (spawned with
        ``start_at=`` its analytic clock) and uses the compute durations
        the collapse driver already drew from its RNG stream, so the RNG
        state and every downstream timestamp match the pure event path
        bit for bit."""
        cfg = self.cfg
        engine = self.engine
        send = self.net.send
        node = self._wkr_eps[w]
        srv_ids = self._srv_eps
        n_servers = cfg.cluster.n_servers
        push_bytes = self._shard_bytes  # exact when wire_factor == 1.0
        request_bytes = cfg.request_bytes
        header_bytes = cfg.header_bytes
        record_span = self.trace.record_span
        compute_rng = self._compute_rngs[w]
        sample = self.compute_model.sample
        name = f"worker{w}"
        base = cfg.resolved_base_compute(cfg.cluster.workers[w].flops)
        params = cfg.task.init_params.copy() if cfg.task is not None else None
        causal = self.causal
        sketch = self._pull_sketches[w] if self._pull_sketches is not None else None
        for i in range(start_iter, cfg.max_iter):
            pre = None if presampled is None else presampled.get(i)
            dur = sample(w, i, base, compute_rng) if pre is None else pre
            t0 = engine.now
            yield dur  # zero-allocation spelling of Timeout(dur)
            record_span(name, SpanKind.COMPUTE, t0, engine.now, i)
            cause = -1
            if causal is not None:
                cause = causal.record(
                    -1, name, "compute", t0, engine.now, worker=w, iteration=i
                )
            wire_factor = 1.0
            if cfg.task is not None:
                update = cfg.task.step_fn(
                    StepContext(worker=w, iteration=i, params=params, rng=self._step_rngs[w])
                )
                filtered = self._filters[w].apply(update, params, i)
                wire_factor = filtered.wire_bytes_factor
                shards = self.layout.scatter(filtered.update)
            else:
                shards = [None] * n_servers
            # sPush to every shard server (async — Algorithm 1 line 4).
            # Neither pushes nor pulls subscribe to the delivery signal,
            # so both ride the signal-free send path (notify=False).
            t_sync = engine.now
            for m in range(n_servers):
                send(
                    node,
                    srv_ids[m],
                    push_bytes[m]
                    if wire_factor == 1.0
                    else max(header_bytes, int(self._payload_bytes(m) * wire_factor)),
                    payload=_PushMsg(w, i, shards[m]),
                    tag="push",
                    cause=cause,
                    notify=False,
                )
            # sPull from every shard server, then wait (lines 5-6).  The
            # push/pull messages share the worker's FIFO TX lane, so each
            # server sees this iteration's push before its pull.
            pending = self._open_pull(w)
            for m in range(n_servers):
                send(
                    node,
                    srv_ids[m],
                    request_bytes,
                    payload=_PullMsg(w, i),
                    tag="pull",
                    cause=cause,
                    notify=False,
                )
            yield pending.gather
            record_span(name, SpanKind.PULL, t_sync, engine.now, i)
            if causal is not None:
                # Terminal span of the iteration's DAG: parented on the
                # last reply to land (the cause that released the wait).
                last = pending.gather.cause_id
                parent = last if last >= 0 else cause
                causal.record(
                    parent, name, "sync_wait", t_sync, engine.now,
                    worker=w, iteration=i,
                )
            if sketch is not None:
                sketch.observe(engine.now - t_sync)
            if params is not None:
                params = pending.flat
            if w == 0 and cfg.task is not None and cfg.eval_every > 0:
                if (i + 1) % cfg.eval_every == 0 or i + 1 == cfg.max_iter:
                    value = cfg.task.eval_fn(self._global_params())
                    self.eval_by_time.append(engine.now, value)
                    self.eval_by_iteration.append(i + 1, value)
        self._finish_times[w] = engine.now

    def _global_params(self) -> np.ndarray:
        # One vectorized apply pass across shards before gathering (falls
        # back to per-shard flushes for odd shapes; bit-identical).
        flush_applies_across(self.servers)
        return self.layout.gather([s.params for s in self.servers])

    # -- closed-form round fast-forward ------------------------------------------------

    def _collapse_eligible(self) -> Optional[str]:
        """Why whole protocol rounds cannot be committed analytically —
        the first failing reason — or ``None`` when they can.

        The closed form models exactly one behavior: timing-only workers
        that push then pull every shard each iteration over analytic
        drain lanes, with every shard's sync condition provably quiet
        (every pull immediate, one frontier advance per round, no DPRs,
        no PSSP coin flips).  Anything outside that — real gradients,
        quorums below n, BSP's s=0 soft barrier, DSPS's self-mutating
        staleness, DPOR choice/delay hooks, causal tracing, span capture
        without obs — keeps the per-event path,
        which stays bit-identical by construction.  The reason lands in
        :attr:`collapse_fallback`.
        """
        cfg = self.cfg
        if type(self) is not FluentPSSimRunner:
            # Baseline runners (PS-Lite's scheduler-gated workers,
            # SpecSync) subclass this runner with their own protocols;
            # the cohort closed form models only the stock one.
            return "subclass"
        if cfg.task is not None:
            return "task"
        if self.causal is not None:
            return "causal_obs"
        if self.engine._choice_hook is not None:
            return "choice_hook"
        if self.net.delay_hook is not None:
            return "delay_hook"
        if self.trace.keep_spans and not self.obs.enabled:
            # The vector commit appends spans round by round: per-actor
            # order matches the event path, the global list order does
            # not.  Observed runs accept that (exports group by actor);
            # a bare keep_spans run keeps the event path's list.
            return "kept_spans"
        n = cfg.cluster.n_workers
        for s in self.servers:
            pc = s.pull_con
            # DSPS adapts ``s`` inside ``__call__`` — never provably quiet.
            if type(pc) is DSPSPull or not isinstance(pc, (SSPPull, PSSPPull)):
                return "pull_condition"
            if not pc.s > 0:  # BSP (s=0) blocks pulls until the frontier moves
                return "bsp"
            if s.push_con.quorum(n) != n:
                return "quorum"
            if s.callbacks or s.v_train != 0:
                return "pending_state"
            if any(p != -1 for p in s.worker_progress):
                return "pending_state"
        return None

    def _record_fallback(self, reason: str, round_index: Optional[int] = None) -> None:
        """Note why this run (or its rounds from ``round_index`` on) took
        the event path: :attr:`collapse_fallback` always, and the
        ``collapse_fallback_total{reason=...}`` counter when obs is on."""
        self.collapse_fallback = {"reason": reason}
        if round_index is not None:
            self.collapse_fallback["round"] = round_index
        if self.obs.enabled:
            self.obs.registry.counter(
                "collapse_fallback_total",
                "runs that left the closed-form round collapse, by reason",
            ).inc(reason=reason)

    def _collapse_rounds(self) -> bool:
        """Advance whole protocol rounds in closed form.

        One vectorized pass per round over the cohort state table
        (per-worker clocks, NIC lane cursors, busy accumulators, resume
        ranks) reproduces the exact float recurrences the event path
        would execute: resume order, worker TX cascades, per-server RX
        claim/serve cascades, reply TX/RX cascades, and the next round's
        resume ranks.  A round commits only when the next round is
        provably isolated (its earliest send lands strictly after this
        round's last reply), so serve orders and staleness splits cannot
        shift; the first round that fails the check — a straggler draw
        overlapping the tail — commits *nothing* and de-vectorizes the
        cohort back to per-worker event processes at their analytic
        clocks with their compute durations pre-drawn, keeping RNG
        streams and all downstream timestamps aligned with the pure
        event path bit for bit.

        Returns True when every iteration committed analytically (the
        event heap stays empty and ``engine.now`` is set directly),
        False after de-vectorizing.
        """
        cfg = self.cfg
        net = self.net
        eng = self.engine
        record_span = self.trace.record_span
        observed = self.obs.enabled
        sketches = self._pull_sketches
        block_shards = [s.block_constants() for s in self.servers] if observed else []
        n = cfg.cluster.n_workers
        M = cfg.cluster.n_servers
        K = 2 * M
        latency = net.latency_s
        cost = cfg.server_op_overhead_s
        hooks = net._delivery_hooks
        fused = not hooks
        sample = self.compute_model.sample
        rngs = self._compute_rngs
        push_bytes = self._shard_bytes
        req_bytes = cfg.request_bytes
        base_l = [
            cfg.resolved_base_compute(node.flops) for node in cfg.cluster.workers
        ]
        names = [f"worker{w}" for w in range(n)]

        # Serialization holds are pure functions of (NIC, size): one
        # vector per distinct NIC spec covers the whole cohort.
        sizes = list(push_bytes) + [req_bytes]
        nic_memo: Dict[Tuple[float, float], np.ndarray] = {}
        wh = np.empty((n, M + 1))
        for w, ep in enumerate(self._wkr_eps):
            nic_key = (ep.nic.bandwidth_Bps, ep.nic.overhead_s)
            hv = nic_memo.get(nic_key)
            if hv is None:
                hv = nic_memo[nic_key] = np.array(
                    [ep.nic.serialize_time(s) for s in sizes]
                )
            wh[w] = hv
        wtx_holds = np.empty((n, K))
        wtx_holds[:, :M] = wh[:, :M]
        wtx_holds[:, M:] = wh[:, M:]  # pull-request hold, broadcast M wide
        wrx_holds = np.ascontiguousarray(wh[:, :M])  # replies carry shard bytes
        s_push_hold = [
            self._srv_eps[m].nic.serialize_time(push_bytes[m]) for m in range(M)
        ]
        s_pull_hold = [
            self._srv_eps[m].nic.serialize_time(req_bytes) for m in range(M)
        ]
        s_reply_hold = s_push_hold  # same NIC, same payload size

        # Cohort state table: endpoint cursors and busy accumulators,
        # loaded once and written back only for committed rounds.
        wtx_free = np.array([ep.tx_free_at for ep in self._wkr_eps])
        wrx_free = np.array([ep.rx_free_at for ep in self._wkr_eps])
        wtx_busy = np.array([ep.tx_busy_s for ep in self._wkr_eps])
        wrx_busy = np.array([ep.rx_busy_s for ep in self._wkr_eps])
        stx_free = [ep.tx_free_at for ep in self._srv_eps]
        srx_free = [ep.rx_free_at for ep in self._srv_eps]
        stx_busy = [ep.tx_busy_s for ep in self._srv_eps]
        srx_busy = [ep.rx_busy_s for ep in self._srv_eps]
        sbusy = list(self._srv_busy)
        snow = list(self._srv_now)
        rounds = 0
        inline_total = 0
        drained_total = 0
        # Event census per worker per round: 2 resume events and 2M request
        # TX completions (the M replies ride the worker's fused gather) —
        # plus, under delivery hooks, 2M request deliveries and 2M reply events.
        saved_per_round = n * (2 + (2 if fused else 6) * M)
        sum_push = sum(push_bytes)

        def _flush() -> None:
            # Write the committed-round cursor/counter state back to the
            # live endpoints, network totals, and dispatch counters.
            # Must run before any de-vectorized worker spawns so their
            # sends observe the post-collapse cursors.
            for w, ep in enumerate(self._wkr_eps):
                ep.tx_free_at = float(wtx_free[w])
                ep.rx_free_at = float(wrx_free[w])
                ep.tx_busy_s = float(wtx_busy[w])
                ep.rx_busy_s = float(wrx_busy[w])
                ep.bytes_sent += rounds * (sum_push + M * req_bytes)
                ep.messages_sent += rounds * K
                ep.bytes_received += rounds * sum_push
                ep.messages_received += rounds * M
            for m, ep in enumerate(self._srv_eps):
                ep.tx_free_at = stx_free[m]
                ep.rx_free_at = srx_free[m]
                ep.tx_busy_s = stx_busy[m]
                ep.rx_busy_s = srx_busy[m]
                ep.bytes_sent += rounds * n * push_bytes[m]
                ep.messages_sent += rounds * n
                ep.bytes_received += rounds * n * (push_bytes[m] + req_bytes)
                ep.messages_received += rounds * 2 * n
                self._srv_busy[m] = sbusy[m]
                self._srv_now[m] = snow[m]
            nmsg = rounds * 3 * M * n
            net.total_messages += nmsg
            net.total_bytes += rounds * n * (2 * sum_push + M * req_bytes)
            net.fast_path_transfers += nmsg
            net._next_msg_id += nmsg
            if fused:
                net.fused_deliveries += nmsg
            self.server_msgs_inline += inline_total
            self.server_msgs_drained += drained_total

        r = 0
        c = np.zeros(n)
        rank = np.arange(n)
        dur_l = [sample(w, 0, base_l[w], rngs[w]) for w in range(n)]
        arange_n = np.arange(n)
        cost2n = np.full(2 * n, cost)
        while True:
            # -- resume order and the worker TX cascade -------------------
            e = c + np.asarray(dur_l)
            order_w = np.lexsort((rank, e))
            wrank = np.empty(n, dtype=np.int64)
            wrank[order_w] = arange_n
            cur = np.maximum(wtx_free, e)
            T = np.empty((n, K))
            for k in range(K):
                cur = cur + wtx_holds[:, k]
                T[:, k] = cur
            new_wtx_free = cur

            # -- per-server request claim, RX lane, serve cascade ---------
            # RX cursors are claimed at TX-completion events, so per-server
            # claim order is the global TX order (tx_end, send seq)
            # restricted to that server — in both fused and unfused
            # regimes (unfused delivery order is (rx_end, tx rank), whose
            # per-server restriction is the same claim order).
            pull_serve = np.empty((n, M))
            pull_rxend = np.empty((n, M))
            x_early = [0] * M
            new_srx_free = [0.0] * M
            new_srx_busy = [0.0] * M
            new_sbusy = [0.0] * M
            new_snow = [0.0] * M
            inline_round = 0
            srv_claims: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
            for m in range(M):
                t2 = np.concatenate((T[:, m], T[:, M + m]))
                k2 = np.concatenate((wrank * K + m, wrank * K + M + m))
                o = np.lexsort((k2, t2))
                at = t2[o] + latency
                is_pull = o >= n
                h2 = np.where(is_pull, s_pull_hold[m], s_push_hold[m])
                rx_ends, new_srx_free[m] = _seq_cascade(at, h2, srx_free[m])
                new_srx_busy[m] = float(
                    np.add.accumulate(np.concatenate(((srx_busy[m],), h2)))[-1]
                )
                busy_ends, new_sbusy[m] = _seq_cascade(rx_ends, cost2n, sbusy[m])
                busy_prev = np.empty(2 * n)
                busy_prev[0] = sbusy[m]
                busy_prev[1:] = busy_ends[:-1]
                serve = np.maximum(busy_prev, rx_ends)
                new_snow[m] = float(serve[-1])
                inline_round += int(np.count_nonzero(rx_ends >= busy_prev))
                # Pulls served before this shard's last push see the
                # pre-advance frontier: one missing iteration.
                last_push = int(np.nonzero(~is_pull)[0][-1])
                x_early[m] = int(np.count_nonzero(is_pull[:last_push]))
                pw = o[is_pull] - n
                pull_serve[pw, m] = serve[is_pull]
                pull_rxend[pw, m] = rx_ends[is_pull]
                srv_claims.append((o, rx_ends, serve))

            # -- global reply send seq = global pull handle order ---------
            keyp = wrank[:, None] * K + (np.arange(M) + M)[None, :]
            go = np.lexsort((keyp.ravel(), T[:, M:].ravel()))
            ptx_rank = np.empty(n * M, dtype=np.int64)
            ptx_rank[go] = np.arange(n * M)
            if fused:
                reply_rank = ptx_rank.reshape(n, M)
            else:
                go2 = np.lexsort((ptx_rank, pull_rxend.ravel()))
                rr = np.empty(n * M, dtype=np.int64)
                rr[go2] = np.arange(n * M)
                reply_rank = rr.reshape(n, M)

            # -- per-server reply TX cascade (send order = claim order) ---
            rtx = np.empty((n, M))
            new_stx_free = [0.0] * M
            new_stx_busy = [0.0] * M
            for m in range(M):
                o, _rx, serve = srv_claims[m]
                sel = o >= n
                holds_m = np.full(n, s_reply_hold[m])
                ends, new_stx_free[m] = _seq_cascade(
                    serve[sel], holds_m, stx_free[m]
                )
                new_stx_busy[m] = float(
                    np.add.accumulate(
                        np.concatenate(((stx_busy[m],), holds_m))
                    )[-1]
                )
                rtx[o[sel] - n, m] = ends

            # -- per-worker reply RX claim order and cascade --------------
            # A worker's RX cursor is claimed at reply TX completions:
            # order by (reply tx_end, reply send seq), stable two-pass.
            o1 = np.argsort(reply_rank, axis=1, kind="stable")
            rtx_s = np.take_along_axis(rtx, o1, axis=1)
            o2 = np.argsort(rtx_s, axis=1, kind="stable")
            perm = np.take_along_axis(o1, o2, axis=1)
            rtx_s = np.take_along_axis(rtx_s, o2, axis=1)
            rr_s = np.take_along_axis(reply_rank, perm, axis=1)
            hold_s = np.take_along_axis(wrx_holds, perm, axis=1)
            rrx = np.empty((n, M))
            cur = wrx_free
            new_wrx_busy = wrx_busy
            for j in range(M):
                cur = np.maximum(cur, rtx_s[:, j] + latency) + hold_s[:, j]
                rrx[:, j] = cur
                new_wrx_busy = new_wrx_busy + hold_s[:, j]
            f = cur
            # Next round's resume rank is the order the waiters' seqs are
            # allocated in: where the fused gather closes (the handle of the
            # worker's last pull), or in the last reply's delivery under hooks.
            fire_order = np.lexsort(
                (wrank, T[:, -1], f) if fused else (rr_s[:, -1], rtx_s[:, -1], f)
            )

            # -- inter-round isolation check ------------------------------
            last_round = r + 1 >= cfg.max_iter
            dur_next: List[float] = []
            if not last_round:
                dur_next = [
                    sample(w, r + 1, base_l[w], rngs[w]) for w in range(n)
                ]
                if not float(np.min(f + np.asarray(dur_next))) > float(np.max(f)):
                    # Round r+1's earliest send would overlap round r's
                    # tail (serve orders and reply times could shift), so
                    # nothing about round r is committed: the cohort
                    # de-vectorizes here, durations pre-drawn so the RNG
                    # streams stay aligned with the pure event path.
                    _flush()
                    self._record_fallback("overlap", r)
                    for pos in np.argsort(rank, kind="stable"):
                        w = int(pos)
                        eng.spawn(
                            self._worker_proc(
                                w, r, {r: dur_l[w], r + 1: dur_next[w]}
                            ),
                            name=names[w],
                            start_at=float(c[w]),
                        )
                    return False

            # -- commit round r -------------------------------------------
            delivery = _request_delivery_order(T, wrank, srv_claims) if hooks else None
            for idx in order_w:
                w = int(idx)
                record_span(names[w], SpanKind.COMPUTE, float(c[w]), float(e[w]), r)
            if observed:
                # Before the shards commit: the block (and in round 0 the
                # config snapshots) must see each shard's pre-round state.
                self._emit_round_block(r, T, order_w, srv_claims, delivery, block_shards)
            for m in range(M):
                self.servers[m].handle_quiet_round(r, x_early[m])
                if observed and cost > 0:
                    serve = srv_claims[m][2]
                    self.trace.record_spans(
                        self._srv_names[m], SpanKind.SERVER_APPLY, serve, serve + cost
                    )
            if hooks:
                self._emit_collapsed_hooks(
                    r, e, delivery, rtx_s, rr_s, rrx, perm, pull_serve,
                )
            for idx in fire_order:
                w = int(idx)
                t_sync, t_done = float(e[w]), float(f[w])
                record_span(names[w], SpanKind.PULL, t_sync, t_done, r)
                if sketches is not None:
                    sketches[w].observe(t_done - t_sync)
            wtx_free = new_wtx_free
            wrx_free = f
            wrx_busy = new_wrx_busy
            for k in range(K):
                wtx_busy = wtx_busy + wtx_holds[:, k]
            srx_free = new_srx_free
            srx_busy = new_srx_busy
            stx_free = new_stx_free
            stx_busy = new_stx_busy
            sbusy = new_sbusy
            snow = new_snow
            inline_total += inline_round
            drained_total += 2 * n * M - inline_round
            # The initial spawn-step wave is only truly saved when the
            # whole run collapses — a de-vectorization re-spawns one step
            # event per worker, cancelling the round-0 saving.
            eng.credit_collapsed_round(saved_per_round + (n if last_round else 0))
            rounds += 1
            if last_round:
                _flush()
                eng.now = float(np.max(f))
                self._finish_times = [float(x) for x in f]
                return True
            r += 1
            c = f
            rank = np.empty(n, dtype=np.int64)
            rank[fire_order] = arange_n
            dur_l = dur_next

    def _emit_round_block(self, r, T, order_w, srv_claims, delivery, shards) -> None:
        """Append one certified-quiet round's protocol instants to the
        instant log in columnar form.

        The rows are the instants ``handle_push``/``handle_pull`` would
        record if called in global handle order (TX order when request
        deliveries fuse, delivery order otherwise) with each shard's
        clock at the request's serve time — see :func:`_round_rows`.
        A round is one block up to :data:`_BLOCK_HANDLES` requests and a
        run of blocks beyond (at 100k workers one block would be ~90 MB
        of rows plus as much again in temporaries).  In round 0 the run
        is also cut where each shard's first request lands, so its
        ``server_config`` instant leads its stream as on the event path.
        ``shards`` is the servers' ``block_constants()``.
        """
        n = self.cfg.cluster.n_workers
        M = self.cfg.cluster.n_servers
        K = 2 * M
        servers = self.servers
        # Per-handle tables over the flat ``worker * 2M + column`` index.
        serve_flat = np.empty(n * K)
        vtrain_flat = np.empty(n * K, dtype=np.int32)
        version_flat = np.empty(n * K, dtype=np.int64)
        advances_flat = np.zeros(n * K, dtype=bool)
        pos = np.arange(2 * n)
        for m in range(M):
            o, _rx, serve = srv_claims[m]
            is_pull = o >= n
            flat = np.where(is_pull, (o - n) * K + M + m, o * K + m)
            last_push = int(np.nonzero(~is_pull)[0][-1])
            serve_flat[flat] = serve
            # The n-th push still reports the pre-advance frontier.
            vtrain_flat[flat] = r + (pos > last_push)
            version_flat[flat] = servers[m].version + np.cumsum(~is_pull)
            advances_flat[flat[last_push]] = True
        if delivery is None:
            # Global TX order: (tx_end, resume rank, column).  With the
            # workers laid out in resume order the tie-break is the flat
            # index itself, so one stable sort does it.
            by_rank = np.argsort(T[order_w].ravel(), kind="stable")
            gro = order_w[by_rank // K] * K + by_rank % K
        else:
            gro = delivery[0]
        col = (gro % K).astype(np.int32)
        is_pull = col >= M
        shard = np.where(is_pull, col - M, col)
        worker = (gro // K).astype(np.int32)
        advances = advances_flat[gro]
        v_train = vtrain_flat[gro]
        version = version_flat[gro]
        serve = serve_flat[gro]
        cuts = set(range(0, n * K, _BLOCK_HANDLES))
        config_at: Dict[int, int] = {}
        if r == 0:
            first_shard, first_at = np.unique(shard, return_index=True)
            config_at = dict(zip(first_at.tolist(), first_shard.tolist()))
            cuts.update(config_at)
        cuts = sorted(cuts)
        log = self.obs.instants
        for a, b in zip(cuts, cuts[1:] + [n * K]):
            if a in config_at:
                m = config_at[a]
                self._srv_now[m] = float(serve[a])
                servers[m].emit_config()
            log.append_block(
                _round_rows(
                    r, is_pull[a:b], advances[a:b], shard[a:b], worker[a:b],
                    v_train[a:b], version[a:b], serve[a:b],
                ),
                shards,
            )

    def _emit_collapsed_hooks(
        self, r, e, delivery, rtx_s, rr_s, rrx, perm, pull_serve,
    ) -> None:
        """Feed delivery hooks one collapsed round's wire traffic.

        Hooks observe one synthesized :class:`Message` per transfer with
        the exact (src, dst, size, tag, send_time, deliver_time) the
        event path produces.  Requests are emitted in delivery order,
        then replies in delivery order; cross-class interleaving, msg/
        cause ids (-1 here), and reply payloads (None here) are not
        reproduced — trace comparisons sort on the stable wire fields
        (see tests/test_round_collapse.py)."""
        cfg = self.cfg
        M = cfg.cluster.n_servers
        K = 2 * M
        hooks = self.net._delivery_hooks
        push_bytes = self._shard_bytes
        req_bytes = cfg.request_bytes
        wkr_ids = self._wkr_node_ids
        srv_ids = self._srv_node_ids
        order, rx_flat = delivery
        for idx in order:
            i = int(idx)
            w, k = divmod(i, K)
            pull = k >= M
            m = k - M if pull else k
            msg = Message(
                src=wkr_ids[w],
                dst=srv_ids[m],
                size_bytes=req_bytes if pull else push_bytes[m],
                tag="pull" if pull else "push",
                payload=_PullMsg(w, r) if pull else _PushMsg(w, r, None),
                send_time=float(e[w]),
                deliver_time=float(rx_flat[i]),
            )
            for hook in hooks:
                hook(msg)
        ps_sorted = np.take_along_axis(pull_serve, perm, axis=1).ravel()
        perm_flat = perm.ravel()
        rrx_flat = rrx.ravel()
        for idx in np.lexsort((rr_s.ravel(), rtx_s.ravel(), rrx_flat)):
            i = int(idx)
            w = i // M
            m = int(perm_flat[i])
            msg = Message(
                src=srv_ids[m],
                dst=wkr_ids[w],
                size_bytes=push_bytes[m],
                tag="reply",
                send_time=float(ps_sorted[i]),
                deliver_time=float(rrx_flat[i]),
            )
            for hook in hooks:
                hook(msg)

    # -- run ---------------------------------------------------------------------------

    def run(self) -> SimRunResult:
        """Execute the co-simulation to completion and aggregate results."""
        for m in range(self.cfg.cluster.n_servers):
            # The lane times itself off ``msg.deliver_time``, so
            # signal-free request deliveries fold into their
            # TX-completion events (see ``Endpoint.sink``).
            self._srv_eps[m].sink = partial(self._dispatch_server, m)
        # Closed-form round fast-forward: when every shard is provably
        # quiet for whole rounds, the collapse driver commits them
        # analytically and only spawns worker processes if (and from the
        # round where) it de-vectorizes.  Otherwise the event path.
        collapsed_all = False
        reason = self._collapse_eligible()
        if reason is None:
            collapsed_all = self._collapse_rounds()
        else:
            self._record_fallback(reason)
            for w in range(self.cfg.cluster.n_workers):
                self.engine.spawn(self._worker_proc(w), name=f"worker{w}")
        snapshotter = None
        if self.obs.enabled:
            snapshotter = ServerSnapshotter(
                self.obs.registry,
                self.servers,
                network=self.net,
                nodes=[self.cfg.cluster.server_id(j) for j in range(self.cfg.cluster.n_servers)],
                engine=self.engine,
                dispatch=self,
            )
            if not collapsed_all:
                # A fully collapsed run has no events to scrape between;
                # the finalize() below still records the end-state sample
                # (engine counters included).
                interval = self.cfg.snapshot_interval_s
                if interval is None:
                    interval = (
                        self.cfg.resolved_base_compute(self.cfg.cluster.workers[0].flops) / 2.0
                    )
                snapshotter.install(self.engine, interval)
        self.engine.run()
        if snapshotter is not None:
            # Final snapshot so the last partial period is never dropped
            # (a no-op when the periodic scrape already landed at end time).
            snapshotter.finalize(self.engine.now)
        unanswered = sum(1 for p in self._pending.values() if p.gather.remaining)
        if unanswered:
            raise RuntimeError(
                f"simulation drained with {unanswered} unanswered pulls "
                "(synchronization deadlock)"
            )
        if self._capture is not None:
            self._capture.complete = True
        worker_names = [f"worker{w}" for w in range(self.cfg.cluster.n_workers)]
        total_compute = self.trace.compute_time(worker_names)
        total_wall = sum(self._finish_times)
        metrics = SyncMetrics.merge_all(s.metrics for s in self.servers)
        if self.obs.enabled:
            metrics.publish(self.obs.registry)
        return SimRunResult(
            duration=max(self._finish_times),
            iterations=self.cfg.max_iter,
            n_workers=self.cfg.cluster.n_workers,
            metrics=metrics,
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


def run_fluentps(config: SimConfig) -> SimRunResult:
    """One-call convenience wrapper."""
    return FluentPSSimRunner(config).run()
