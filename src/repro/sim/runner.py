"""Co-simulation runner: FluentPS protocol × network model × real gradients.

This binds the three substrates together (DESIGN.md's centerpiece):

- worker processes compute for a sampled duration (straggler model), then
  sPush their update shards and sPull the next parameters over the
  simulated network;
- each :class:`~repro.core.server.ShardServer` runs its own pull/push
  conditions — **overlap synchronization** falls out of the architecture:
  a shard answers its pulls the moment its own condition allows,
  independent of the other M−1 shards (Figure 4b);
- when a :class:`~repro.ml.training.TrainingTask` is attached, gradient
  math is real (:mod:`repro.core.replay` does it from the run's schedule)
  and accuracy-vs-time curves come out; without one the run is
  timing-only against a :class:`~repro.ml.models_zoo.Workload` spec.

``wire_scale`` lets a small trainable proxy model carry the *paper
model's* wire footprint: message sizes are multiplied so the network sees
ResNet-56-sized transfers while the gradients stay cheap to compute.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.api import ParameterServerSystem
from repro.core.filters import PushFilter
from repro.core.keyspace import ModelSpec, Slicer
from repro.core.metrics import SyncMetrics
from repro.core.models import SyncModel, per_server
from repro.core.replay import Replay, ScheduleLog
from repro.core.server import ExecutionMode, PullReply, ShardServer
from repro.ml.models_zoo import Workload
from repro.ml.training import TrainingTask
from repro.obs import Observability, current_observability
from repro.obs.export import (
    BLOCK_DTYPE,
    DPR_BUFFERED,
    DPR_RELEASED,
    FRONTIER_ADVANCE,
    PULL_ANSWER,
    PULL_REQUEST,
    PUSH,
)
from repro.obs.snapshot import ServerSnapshotter
from repro.sim.cluster import ClusterSpec
from repro.sim.engine import Engine, Signal
from repro.sim.network import Endpoint, Gather, Network
from repro.sim.stragglers import ComputeModel, LogNormalCompute
from repro.sim.trace import CohortSpans, SpanKind, TraceRecorder
from repro.utils.checks import check_number, check_seed
from repro.utils.records import SeriesRecord
from repro.utils.rng import derive_rngs


#: Bytes every push and reply carries on top of its shard's payload.
HEADER_BYTES = 256
#: Bytes of an sPull request (and of a baseline's control message).
REQUEST_BYTES = 128


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
    #: Span-list capture.  ``None`` → spans are kept when observability
    #: is enabled (trace export needs the list).  ``False`` → never keep
    #: the span list even under observability: span *totals*
    #: (comm/compute time) still accumulate exactly, but per-span objects
    #: are dropped — at 100k workers the list alone costs hundreds of MB,
    #: and a sanitize-focused run only needs the protocol instant stream.
    #: ``True`` → always keep.
    span_capture: Optional[bool] = None
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

    def __post_init__(self) -> None:
        least = dict(max_iter=1, batch_per_worker=1, eval_every=0)
        for name, minimum in least.items():
            setattr(self, name, check_number(name, getattr(self, name), minimum, integer=True))
        for name in ("base_compute_time", "wire_scale", "snapshot_interval_s"):
            value = getattr(self, name)
            if value is not None:
                check_number(name, value, strict=True)
        for name in ("server_op_overhead_s", "dpr_overhead_s"):
            check_number(name, getattr(self, name))
        self.seed = check_seed(self.seed)
        self.execution = ExecutionMode(self.execution)
        if self.task is None and self.workload is None:
            raise ValueError("need a TrainingTask and/or a Workload")
        if self.task is None:
            # Both act on the math a timing-only run does not do.
            if self.eval_every:
                raise ValueError(f"eval_every={self.eval_every} needs a task to evaluate")
            if self.push_filter_factory is not None:
                raise ValueError("push_filter_factory needs a task whose updates it filters")
        for what in ("task", "compute_model"):
            # A per-worker model sized for another cluster would run silently.
            sized = getattr(getattr(self, what), "n_workers", self.cluster.n_workers)
            if sized != self.cluster.n_workers:
                raise ValueError(
                    f"{what} built for {sized} workers, cluster has {self.cluster.n_workers}"
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
class _Worker:
    """One event-path worker as a state row: what Algorithm 1's worker
    carries from phase to phase.  The runner's plain ``_draw`` ...
    ``_end_iteration`` helpers advance it; a ``_worker_proc`` — the stock
    one or a baseline's — only says in which order, and where it waits."""

    w: int
    name: str
    ep: Endpoint
    base: float  #: base compute seconds per iteration on this node
    i: int = 0  #: iteration
    cause: int = -1  #: causal span of this iteration's compute
    wire_factor: float = 1.0  #: push bytes after the filter, relative to dense


def _lane_rule(arrivals: np.ndarray, holds: np.ndarray, cursor: float) -> Tuple[np.ndarray, float]:
    """The capacity-1 FIFO lane rule, one request at a time, as its definition."""
    ends = []
    for arrival, hold in zip(arrivals.tolist(), holds.tolist()):
        cursor = (arrival if arrival > cursor else cursor) + hold
        ends.append(cursor)
    return np.array(ends), cursor


def _seq_cascade(
    arrivals: np.ndarray, holds: np.ndarray, cursor: float
) -> Tuple[np.ndarray, float]:
    """:func:`_lane_rule` over a sorted arrival stream, bit for bit, in a
    fixed number of vector passes per chain-length class; returns ``(ends,
    final_cursor)``.  (The wire and ``_serve`` spell the rule inline for
    n = 1, same floats.)

    *Guess* which requests find the lane idle — by the max-plus scan
    ``end_i = H_i + max(cursor, max_{j<=i}(a_j - H_{j-1}))``, ``H`` the
    running sum of holds, those that raise the running maximum; its sums
    associate differently from the rule's, so it only segments the stream.
    *Fold* each segment (an idle request and the saturated chain behind
    it) as the rule does, ``((a + h) + h') + ...``: one add for its first
    request, a sequential ``np.add.accumulate`` along the rows of a
    zero-padded table for the chains.  *Verify* the guess against ``a_i >
    end_{i-1}`` on the folded ends: equal masks, exact ties aside (both
    branches give one float there), prove by induction on ``i`` that every
    request was folded on the rule's branch; otherwise — an arrival within
    rounding of the previous end — the rule itself runs.
    """
    n_items = arrivals.shape[0]
    if n_items == 0:
        return np.empty(0), cursor
    before = np.cumsum(holds) - holds  # H_{i-1}
    peak = np.maximum.accumulate(np.concatenate(((cursor,), arrivals - before)))
    idle = peak[1:] > peak[:-1]
    idle[0] = True  # the first request opens a segment either way: no guess
    ends = arrivals + holds
    ends[0] = max(cursor, arrivals[0]) + holds[0]
    starts = np.flatnonzero(idle)
    lengths = np.diff(starts, append=n_items)
    chains = lengths > 1
    starts, lengths = starts[chains], lengths[chains]
    while starts.shape[0]:
        fits = lengths <= 4 * lengths.min()  # one length class: padding stays under 4x
        first, length = starts[fits], lengths[fits]
        starts, lengths = starts[~fits], lengths[~fits]
        cols = np.arange(int(length.max()))
        live = cols < length[:, None]
        at = (first[:, None] + cols)[live]
        table = np.zeros(live.shape)
        table[live] = holds[at]
        table[:, 0] = ends[first]
        ends[at] = np.add.accumulate(table, axis=1)[live]
    wrong = (arrivals[1:] > ends[:-1]) != idle[1:]
    wrong &= arrivals[1:] != ends[:-1]
    if wrong.any():
        return _lane_rule(arrivals, holds, cursor)
    return ends, float(ends[-1])


@dataclass(slots=True)
class _Lanes:
    """Every capacity-1 FIFO lane a stock round touches, as the collapse
    carries it from round to round: the run's constants (latency, op
    cost, per-message holds) and the state a round advances (cursors,
    busy sums, serve-lane busy ends).  Worker fields are arrays over
    workers, server fields lists over shards."""

    latency: float
    op_cost: float  #: serve-lane hold per request
    #: (n, M + 1): a worker's hold of shard ``m``'s bytes — its push on the
    #: TX lane, its reply on the RX lane — and, last, of a pull request.
    w_holds: np.ndarray
    s_push_hold: List[float]  #: server RX hold of a push = TX hold of a reply
    s_pull_hold: List[float]  #: server RX hold of a pull request
    wtx_free: np.ndarray
    wrx_free: np.ndarray
    wtx_busy: np.ndarray
    wrx_busy: np.ndarray
    stx_free: List[float]
    srx_free: List[float]
    stx_busy: List[float]
    srx_busy: List[float]
    serve_busy: List[float]  #: when each shard's serve lane frees
    #: Per shard: a barrier (BSP, s = 0) buffers the pulls it claims before
    #: its n-th push; each holds the serve lane ``dpr_cost`` (op + DPR cost).
    barrier: List[bool]
    dpr_cost: float


#: Per shard, three row arrays (intruders: ids, TX ends, rank keys; what a
#: round lent: RX ends, handles, reply TX ends).
_ShardRows = List[Tuple[np.ndarray, np.ndarray, np.ndarray]]


@dataclass(slots=True)
class _RoundSchedule:
    """One protocol round as a value: what :func:`quiet_round` returns.
    A request is ``worker * 2M + column`` (column ``m`` is the push to
    shard ``m``, ``M + m`` the pull).  The ``(M, 2n)`` tables hold each
    shard's requests in its RX-claim (= handle) order, ``claims`` saying
    which; scattering them by ``claims`` is left to whoever needs it."""

    ready: np.ndarray  #: per worker: compute done, its 2M requests sent
    order: np.ndarray  #: workers in resume order ``(ready, rank)``
    tx_end: np.ndarray  #: (n, 2M) request TX completions, ``[worker, column]``
    claims: np.ndarray  #: (M, 2n) the requests of each shard, in claim order
    rx_end: np.ndarray  #: (M, 2n) request deliveries (server RX drain ends)
    #: (M, 2n) serve instants.  A pull's reply is sent at its handle — at a
    #: barrier, at its n-th push's handle (the release) if that is later.
    handle: np.ndarray
    applied: np.ndarray  #: (M, 2n) pushes of this round the shard has applied, this one included
    early: List[int]  #: per shard: pulls handled before its n-th push
    #: Per barrier shard: its early pulls' DPR waits, in release order (else ``None``).
    waits: List[Optional[np.ndarray]]
    inline: int  #: requests handled at delivery; the rest waited out a busy serve lane
    reply_tx_end: np.ndarray  #: (n, M) ``[worker, shard]``
    reply_order: np.ndarray  #: (n, M) the shards in the order their replies drain at the worker
    reply_rx_end: np.ndarray  #: (n, M) reply deliveries, in ``reply_order``
    done: np.ndarray  #: per worker: its last reply drained
    closes: np.ndarray  #: workers in the order their reply gathers close
    rank: np.ndarray  #: next round's resume rank (position in ``closes``)
    lanes: _Lanes  #: the lane state after the round
    #: Per shard: the ``(rx_end, handle, reply_tx_end)`` of the next round's
    #: intruders this round served, the pulls' replies in claim order.
    lent: _ShardRows
    #: Per shard, what this round's cascade served, in handle order — its
    #: requests the previous round had not, merged with the intruders — as
    #: ``(ids, handle, mine)``, ``mine`` marking its own (``None``: all).
    streams: List[Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]]


def lexsort2(key: np.ndarray, t: np.ndarray, hint: np.ndarray) -> np.ndarray:
    """``np.lexsort((key, t))`` for distinct ``key`` and any permutation
    ``hint``, which sets only the cost: numpy's stable sort (timsort) is
    near linear on keys nearly in order."""
    p = hint[np.argsort(key[hint], kind="stable")]
    return p[np.argsort(t[p], kind="stable")]


def _request_tx(lanes: _Lanes, ready: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each worker's M pushes then M pulls, sent at ``ready`` on its FIFO
    TX lane: the ``(n, 2M)`` TX completions, the lane cursors and busy sums."""
    M = len(lanes.s_push_hold)
    wtx_free = np.maximum(lanes.wtx_free, ready)
    wtx_busy = lanes.wtx_busy
    tx_end = np.empty((ready.shape[0], 2 * M))
    for k in range(2 * M):
        hold = lanes.w_holds[:, min(k, M)]
        wtx_free = wtx_free + hold
        tx_end[:, k] = wtx_free
        wtx_busy = wtx_busy + hold
    return tx_end, wtx_free, wtx_busy


def quiet_round(
    lanes: _Lanes,
    ready: np.ndarray,
    order: np.ndarray,
    served: Optional[_ShardRows] = None,
    intruders: Optional[_ShardRows] = None,
) -> _RoundSchedule:
    """One stock protocol round in closed form (Algorithm 1 lines 4-6).

    Worker ``w`` sends M pushes then M pulls at ``ready[w]``, the
    workers resuming in ``order`` (by ``ready``, ties in the previous
    round's close order); a shard answers
    each pull at its handle — a barrier shard buffers the pulls it claims
    before its n-th push and releases them, in claim order, at that
    push's handle — and the round ends when each worker's M replies have
    drained: worker TX cascade -> per-shard RX claim and serve lane ->
    reply TX cascade -> the worker's private RX lane.  Every lane obeys
    the one rule of :func:`_seq_cascade`, so each float is the one the
    event path and ``tests/reference_sim.py`` produce, provided the
    next round's requests that reach a shard before this round's last
    one there are the ``intruders`` — per shard ``(ids, tx_end, key)`` in
    claim order, ``ids`` ``worker * 2M + column``, ``key`` the next
    round's ``resume rank * 2M + column`` — the caller's guess-and-verify.
    They join each shard's claim, serve and reply streams, and their
    ``(rx_end, handle, reply_tx_end)`` come back in ``lent``.  ``served``
    is the previous round's ``lent``: this round's requests it already
    served, the first of each shard's claim order; only the rest cascade,
    from ``lanes`` as that round left them.  Each claim order — a
    shard's RX lane, the replies' sends, the gathers' closes — is a
    :func:`lexsort2` hinted with an order the round already holds.
    Pure: ``lanes`` is read, the state after the round is a new object
    inside the schedule.
    """
    n, M = lanes.w_holds.shape[0], len(lanes.s_push_hold)
    K = 2 * M
    latency = lanes.latency
    arange_n = np.arange(n)
    wrank = np.empty(n, dtype=np.int64)
    wrank[order] = arange_n
    tx_end, wtx_free, wtx_busy = _request_tx(lanes, ready)

    # -- per shard: RX claims, serve lane, reply TX cascade ----------------
    # RX cursors are claimed at TX-completion events, so a shard's claim
    # order is the global TX order (tx_end, send seq) restricted to it.
    rx_end = np.empty((M, 2 * n))
    handle = np.empty((M, 2 * n))
    applied = np.empty((M, 2 * n), dtype=np.int64)
    claims = np.empty((M, 2 * n), dtype=np.int64)
    reply_tx_end = np.empty((n, M))
    early: List[int] = []
    waits: List[Optional[np.ndarray]] = []
    lent, streams = [], []
    bursts = []  # per barrier shard: its DPRs' workers and the releasing push
    column0 = np.concatenate((arange_n * K, arange_n * K + M))  # push | pull to shard 0
    key0 = np.concatenate((wrank * K, wrank * K + M))  # the same, by resume rank
    pairs = np.stack((order, order + n), axis=1).ravel()  # each worker's push, then its pull
    inline = 0
    stx_free, srx_free, stx_busy, srx_busy, serve_busy = ([0.0] * M for _ in range(5))
    for m in range(M):
        t2 = np.concatenate((tx_end[:, m], tx_end[:, M + m]))
        k2 = key0 + m
        o = lexsort2(k2, t2, pairs)
        is_pull = o >= n
        claims[m] = column0[o] + m
        applied[m] = pushes = np.cumsum(~is_pull)
        # The stream this call cascades: this round's requests the previous
        # one has not served, merged in claim order with the next round's
        # intruders (``mine`` marks this round's, when there are any).
        done_rx, done_serve, done_reply = (np.empty(0),) * 3 if served is None else served[m]
        ns, nd = done_rx.shape[0], done_reply.shape[0]
        t, pull = t2[o[ns:]], is_pull[ns:]
        stream, mine = claims[m, ns:], None
        if intruders is not None and intruders[m][0].shape[0]:
            ids, at, key = intruders[m]
            merge = np.lexsort((np.concatenate((k2[o[ns:]], key)), np.concatenate((t, at))))
            mine = merge < t.shape[0]
            stream = np.concatenate((stream, ids))[merge]
            t = np.concatenate((t, at))[merge]
            pull = np.concatenate((pull, ids % K >= M))[merge]
        holds = np.where(pull, lanes.s_pull_hold[m], lanes.s_push_hold[m])
        rx, srx_free[m] = _seq_cascade(t + latency, holds, lanes.srx_free[m])
        srx_busy[m] = float(
            np.add.accumulate(np.concatenate(((lanes.srx_busy[m],), holds)))[-1]
        )
        # Pulls claimed before this shard's n-th push see the pre-advance
        # frontier: one missing iteration, or at a barrier a DPR.
        nth = int(np.searchsorted(pushes, n))
        early.append(nth + 1 - n)
        barrier = lanes.barrier[m]  # never merged: the caller refuses that
        serve_holds = np.full(t.shape[0], lanes.op_cost)
        if barrier:
            serve_holds = np.where(is_pull & (pushes < n), lanes.dpr_cost, lanes.op_cost)
        busy_ends, serve_busy[m] = _seq_cascade(rx, serve_holds, lanes.serve_busy[m])
        busy_prev = np.concatenate(((lanes.serve_busy[m],), busy_ends[:-1]))
        serve = np.maximum(busy_prev, rx)
        inline += int(np.count_nonzero(rx >= busy_prev))
        pulled = o[is_pull] - n  # workers, in pull-claim order
        sent = serve[pull]
        waited = None
        if barrier:
            # The DPRs leave together, in claim order, at the n-th push's handle.
            release = serve[nth]
            waited = release - sent[: early[m]]
            sent = np.maximum(sent, release)
            bursts.append((m, pulled[: early[m]], t2[o[nth]], k2[o[nth]]))
        waits.append(waited)
        # Replies leave in pull-claim order.
        reply_holds = np.full(sent.shape[0], lanes.s_push_hold[m])
        ends, stx_free[m] = _seq_cascade(sent, reply_holds, lanes.stx_free[m])
        stx_busy[m] = float(
            np.add.accumulate(np.concatenate(((lanes.stx_busy[m],), reply_holds)))[-1]
        )
        if mine is None:
            lent.append((np.empty(0),) * 3)  # not ``rx[:0]``: a view pins all of ``rx``
            streams.append((stream, handle[m, ns:], mine))  # a view of the row set below
        else:
            lent.append((rx[~mine], serve[~mine], ends[~mine[pull]]))
            streams.append((stream, serve, mine))
            rx, serve, ends = rx[mine], serve[mine], ends[mine[pull]]
        rx_end[m, :ns], rx_end[m, ns:] = done_rx, rx
        handle[m, :ns], handle[m, ns:] = done_serve, serve
        reply_tx_end[pulled[:nd], m], reply_tx_end[pulled[nd:], m] = done_reply, ends

    # -- each worker's private RX lane --------------------------------------
    # Claimed at reply TX completions, i.e. in (reply tx_end, reply send
    # seq) order.  A reply is sent inside the event of the request that
    # answers it — its pull, or a barrier's n-th push — so its seq follows
    # that request's ``(tx_end, key)``, then its place in the burst.
    sent_t = tx_end[:, M:]
    sent_k = (key0[n:, None] + np.arange(M)) * n
    if bursts:
        sent_t = sent_t.copy()
    for m, burst, t, k in bursts:
        sent_t[burst, m] = t
        sent_k[burst, m] = k * n + np.arange(burst.shape[0])
    send_seq = np.empty(n * M, dtype=np.int64)
    hint = (order[:, None] * M + np.arange(M)).ravel()
    send_seq[lexsort2(sent_k.ravel(), sent_t.ravel(), hint)] = np.arange(n * M)
    del pairs, hint, sent_k, sent_t  # before the drain allocates: peak RSS
    send_seq = send_seq.reshape(n, M)
    o1 = np.argsort(send_seq, axis=1, kind="stable")
    o2 = np.argsort(np.take_along_axis(reply_tx_end, o1, axis=1), axis=1, kind="stable")
    perm = np.take_along_axis(o1, o2, axis=1)
    tx_s = np.take_along_axis(reply_tx_end, perm, axis=1)
    hold_s = np.take_along_axis(lanes.w_holds, perm, axis=1)
    reply_rx_end = np.empty((n, M))
    cur = lanes.wrx_free
    wrx_busy = lanes.wrx_busy
    for j in range(M):
        cur = np.maximum(cur, tx_s[:, j] + latency) + hold_s[:, j]
        reply_rx_end[:, j] = cur
        wrx_busy = wrx_busy + hold_s[:, j]
    # A gather closes — and its waiter's resume seq, next round's rank, is
    # allocated — when its last reply is sent.
    last = send_seq.max(axis=1)
    closes = lexsort2(last, cur, np.argsort(last))
    next_rank = np.empty(n, dtype=np.int64)
    next_rank[closes] = arange_n
    after = replace(
        lanes, wtx_free=wtx_free, wrx_free=cur, wtx_busy=wtx_busy, wrx_busy=wrx_busy,
        stx_free=stx_free, srx_free=srx_free, stx_busy=stx_busy, srx_busy=srx_busy,
        serve_busy=serve_busy,
    )
    return _RoundSchedule(
        ready, order, tx_end, claims, rx_end, handle, applied, early, waits, inline,
        reply_tx_end, perm, reply_rx_end, cur, closes, next_rank, after, lent, streams,
    )


def _intruders(
    sched: _RoundSchedule, ready: np.ndarray, order: np.ndarray, floor: Optional[np.ndarray],
    stale: Sequence[float],
) -> Optional[Tuple[_ShardRows, List[int]]]:
    """The next round's requests — sent at ``ready``, resuming in
    ``order`` — that claim a shard's RX lane before ``sched``'s last request
    there, as :func:`quiet_round`'s ``intruders``; and per shard how many
    of their pulls precede ``sched``'s n-th push (two iterations missing).
    ``None`` where no merge is the event path's: an exact TX-end tie
    between the two rounds at a shard, a request at or before ``floor``
    (the previous round's last TX end per shard: depth-2 mixing), an
    intruder at a barrier shard, or an intruder pull the pre-advance
    frontier would not answer at once (the shard's s in ``stale`` <= 1)."""
    n, K = sched.tx_end.shape
    M = K // 2
    tx = _request_tx(sched.lanes, ready)[0]
    # Per shard: the next round's first TX end and this round's last (a
    # worker's pull to a shard leaves after its push there).
    first, last = tx[:, :M].min(axis=0), sched.tx_end[:, M:].max(axis=0)
    if floor is not None and (first <= floor).any():
        return None
    none = (np.empty(0, dtype=np.int64), np.empty(0), np.empty(0, dtype=np.int64))
    rows, behind = [none] * M, [0] * M
    wrank = None
    for m in np.flatnonzero(first <= last).tolist():
        cols = np.array([m, M + m])
        w, j = np.nonzero(tx[:, cols] <= last[m])
        at, col = tx[w, cols[j]], cols[j]
        # ``at <= last``: the insertion point is a row of ``own``.
        own = np.sort(sched.tx_end[:, cols], axis=None)
        if sched.lanes.barrier[m] or (own[np.searchsorted(own, at)] == at).any():
            return None
        if wrank is None:
            wrank = np.empty(n, dtype=np.int64)
            wrank[order] = np.arange(n)
        key = wrank[w] * K + col
        p = np.lexsort((key, at))
        w, at, col, key = w[p], at[p], col[p], key[p]
        nth = sched.claims[m, sched.early[m] + n - 1]  # this round's n-th push
        behind[m] = int(np.count_nonzero((col >= M) & (at < sched.tx_end.flat[nth])))
        if behind[m] and not stale[m] > 1:
            return None
        rows[m] = (w * K + col, at, key)
    return rows, behind


#: Above this many workers the ``pull_latency_seconds`` sketch keeps one
#: aggregate ``worker="all"`` series instead of one label set per worker:
#: at 100k workers per-worker label sets would dominate run memory, and
#: sketches merge exactly, so only the per-worker split is lost.
WORKER_SERIES_THRESHOLD = 4096

#: Requests per columnar instant block: a shard's collapsed round with more
#: is emitted as a run of blocks, so no row-length temporary outgrows a few
#: MB whatever the cohort size.
_BLOCK_HANDLES = 1 << 16


def _shard_rows(
    r: int, n: int, K: int, stream: tuple, version: int, waits: Optional[np.ndarray]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One shard's :data:`~repro.obs.export.BLOCK_DTYPE` rows of committed
    round ``r`` — what its handlers record, given its ``stream``
    (:attr:`_RoundSchedule.streams`) and its ``version`` before the
    round's commit — the row each request starts at, and which requests
    are buffered pulls.

    A push is a ``push`` row; round ``r``'s n-th (the stream's last of
    that round) adds a ``frontier_advance`` row and, at a barrier
    (``waits``: its DPRs' waits in release order), a ``dpr_released`` and
    a ``pull_answer`` row per pull it releases, in claim order.  A pull is
    a ``pull_request`` and a ``pull_answer`` row — ``dpr_buffered`` at a
    barrier before its advance.  ``version``, ``v_train`` and ``missing``
    are running counts over the stream, where the next round's intruders
    push and pull one iteration ahead."""
    ids, serve, mine = stream
    index = np.arange(ids.shape[0])
    pull, ahead = ids % K >= K // 2, index < 0 if mine is None else ~mine
    nth = int(np.flatnonzero(~pull & ~ahead)[-1])
    held = pull & (index < nth) & (waits is not None)
    # Round r's pushes the previous round's stream took as intruders count too.
    versions = version + n - np.count_nonzero(~pull & ~ahead) + np.cumsum(~pull)
    per = 1 + pull
    per[nth] = 2 + 2 * np.count_nonzero(held)
    starts = np.cumsum(per) - per
    req = np.repeat(index, per)
    second = np.ones(req.shape[0], dtype=bool)
    second[starts] = False
    p, h = pull[req], held[req]
    answer = second & p & ~h
    progress, v_train = r + ahead[req], r + (req > nth) + (second & ~p)
    rows = np.empty(req.shape[0], dtype=BLOCK_DTYPE)
    rows["code"] = np.where(
        second,
        np.where(p, np.where(h, DPR_BUFFERED, PULL_ANSWER), FRONTIER_ADVANCE),
        np.where(p, PULL_REQUEST, PUSH),
    )
    rows["worker"] = np.where(second & ~p, -1, ids[req] // K)
    rows["progress"], rows["v_train"] = progress, v_train
    rows["missing"] = np.where(answer, np.maximum(0, progress + 1 - v_train), 0)
    rows["version"] = np.where(answer, versions[req], 0)
    rows["t"], rows["waited"], rows["released_by"] = serve[req], 0.0, -1
    # Behind the n-th push's advance: a (dpr_released, pull_answer) pair per
    # pull it releases, in claim order.
    tail = rows[starts[nth] + 2 : starts[nth] + per[nth]]
    tail["code"][::2], tail["code"][1::2] = DPR_RELEASED, PULL_ANSWER
    tail["worker"], tail["released_by"] = np.repeat(ids[held] // K, 2), ids[nth] // K
    tail["version"][1::2] = versions[nth]
    if waits is not None:
        tail["waited"] = np.repeat(waits, 2)
    return rows, starts, held


class FluentPSSimRunner:
    """Run one FluentPS training job on the simulated cluster."""

    #: Builds each shard of the run's :class:`ParameterServerSystem` (a
    #: baseline with its own server overrides).
    _shard_factory = ShardServer

    def __init__(self, config: SimConfig, system: Optional[ParameterServerSystem] = None):
        """``system``: continue training on an existing system (e.g. after
        its ``restore`` or ``resize``) instead of a fresh one built from
        ``config``, whose sync, execution and slicer then go unused.  Each
        worker resumes at its shards' ``worker_progress + 1`` and runs
        ``max_iter`` more iterations."""
        self.cfg = config
        self.engine = Engine()
        self.net: Network = config.cluster.make_network(self.engine)
        self.obs = config.obs or current_observability()
        # Observability implies a full span capture for trace export,
        # unless span_capture=False opts out (sanitize-focused runs).
        keep = self.obs.enabled if config.span_capture is None else config.span_capture
        self.trace = TraceRecorder(keep_spans=keep)
        self.spec = config.spec
        self.wire_scale = config.resolved_wire_scale()
        self.compute_model = config.compute_model or LogNormalCompute(0.2)

        n, m = config.cluster.n_workers, config.cluster.n_servers
        if system is None:
            system = ParameterServerSystem(
                self.spec, None if config.task is None else config.task.init_params, n, m,
                config.sync, config.execution, config.slicer, seed=config.seed, obs=self.obs,
                shard_factory=self._shard_factory,
            )
        elif (system.n_workers, system.n_servers) != (n, m):
            raise ValueError(
                f"system has {system.n_workers} workers x {system.n_servers} servers, "
                f"cluster has {n} x {m}"
            )
        self.system = system
        self.layout = system.layout
        self.servers = system.servers
        #: Each worker's first iteration: one past its shards' record, so 0
        #: on a fresh system.
        self._first = [p + 1 for p in self.servers[0].worker_progress]
        for j, server in enumerate(self.servers):
            # Per-shard drain-lane clock: equals ``engine.now`` inside real
            # handle events, and the cascaded virtual handle time when the
            # lane serves a request that landed in the busy window — so
            # waited times and protocol instants are the ones a server
            # process would produce.
            server.clock = lambda j=j: self._srv_now[j]
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
            if n > WORKER_SERIES_THRESHOLD:
                agg = pull_sketch.labels(worker="all")
                self._pull_sketches = [agg] * n
            else:
                self._pull_sketches = [
                    pull_sketch.labels(worker=w) for w in range(n)
                ]
            self.obs.instants.record(
                "run_config", 0.0, actor="runner",
                runner="sim", n_workers=n, n_servers=m,
                models=[mod.name for mod in per_server(config.sync, m)],
                execution=config.execution.value,
            )
        #: Each worker's latest sPull round's reply gather (one at a time).
        self._pending: Dict[int, Gather] = {}
        self._compute_rngs = derive_rngs(config.seed, "compute", n)
        #: A task's run records its schedule for the replay :meth:`run` starts.
        self._log = None if config.task is None else ScheduleLog.begin(
            self.servers, self._first, config.max_iter
        )
        self._replay: Optional[Replay] = None
        #: Worker 0's evaluation instants ``(time, iteration)``, whose
        #: values the replay supplies.
        self._eval_at: List[Tuple[float, int]] = []
        #: Steps the replay took after the timing run (0: none replayed).
        self.steps_replayed = 0
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
        # Hot-path memos: endpoints and per-shard wire sizes — pure
        # functions of the config, resolved once instead of per request at
        # incast rates.  The wire takes Endpoint objects in place of node
        # ids, skipping two registry lookups per message (cache misses once
        # the registry holds 100k entries).
        self._srv_eps = [self.net.endpoints[config.cluster.server_id(j)] for j in range(m)]
        self._wkr_eps = [self.net.endpoints[config.cluster.worker_id(w)] for w in range(n)]
        self._shard_bytes = [self._payload_bytes(j) for j in range(m)]
        self._op_cost, self._dpr_cost = config.server_op_overhead_s, config.dpr_overhead_s
        #: Dispatch counters (perf detail): requests handled at their
        #: delivery time vs. cascaded behind a busy shard lane.
        self.server_msgs_inline = 0
        self.server_msgs_drained = 0
        #: Why this run left the closed-form round collapse: empty while
        #: (and if) every round commits analytically, else ``{"reason":
        #: ...}`` from :meth:`_collapse_eligible`, or ``{"reason":
        #: "overlap", "round": k}`` when round ``k`` de-vectorized mid-run.
        self.collapse_fallback: Dict[str, object] = {}

    # -- sizing ---------------------------------------------------------------

    def _payload_bytes(self, server: int) -> int:
        return int(self.layout.shard_bytes(server) * self.wire_scale) + HEADER_BYTES

    # -- server side ----------------------------------------------------------

    def _serve(self, request: tuple, at: float, cause: int) -> None:
        """Every shard endpoint's sink: handle ``request`` — ``(shard,
        worker, progress, pull)``, a push carrying no values — inside its
        delivery, on the shard's analytic serve lane, at the virtual handle
        time ``max(at, lane busy end)``.  Arrival order equals handle order
        per shard, so the cascade reproduces an inbox loop's busy-window
        FIFO with zero extra events (the loop itself is
        ``tests/reference_sim.py``)."""
        m, worker, progress, pull = request
        busy = self._srv_busy[m]
        if at >= busy:
            self.server_msgs_inline += 1
            now = at
        else:
            self.server_msgs_drained += 1
            now = busy
        self._srv_now[m] = now
        server = self.servers[m]
        metrics = server.metrics
        dprs = metrics.dprs
        causal = self.causal
        if causal is not None:
            # ``cause`` tracks the request's causal frontier through the
            # server: delivery rx -> backlog wait -> apply/DPR wait.
            tag = "pull" if pull else "push"
            if now > at:
                cause = causal.record(
                    cause, self._srv_names[m], "server_queue", at, now, shard=m, tag=tag
                )
        if pull:
            # Causal tracing threads the request's span id through the
            # responder; with tracing off one bound responder serves all.
            server.handle_pull(
                worker, progress,
                self._send_reply if causal is None
                else lambda reply, cid=cause: self._send_reply(reply, cid),
            )
        else:
            if self._log is not None:
                self._log.applies[m].append((worker, progress, server.v_train))
            self._current_push_worker = worker
            server.handle_push(worker, progress)
            self._current_push_worker = -1
        # Charge server processing time: fixed per request plus per
        # DPR event this request caused (buffer/re-check bookkeeping).
        # The busy window serializes the server; later arrivals wait
        # for it to close before they are handled.
        cost = self._op_cost
        dprs = metrics.dprs - dprs
        if dprs:
            cost += dprs * self._dpr_cost
        end = now + cost
        self._srv_busy[m] = end
        if cost > 0 and self.obs.enabled:
            # Server-side apply spans are an observability feature;
            # the plain timing path skips the per-request recording.
            actor = self._srv_names[m]
            self.trace.record_span(actor, SpanKind.SERVER_APPLY, now, end)
            if causal is not None:
                causal.record(cause, actor, "server_apply", now, end, shard=m, tag=tag)

    def _send_reply(self, reply: PullReply, cause: int = -1) -> None:
        """Every shard's pull responder: the reply joins its worker's gather."""
        server = reply.shard
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
        w = reply.worker
        if self._log is not None:
            self._log.reads[w, reply.progress - self._first[w], server] = reply.version
        # A reply issued from a cascaded lane handle serializes at the
        # virtual handle time (``at``), not the earlier engine clock.
        self.net.join(
            self._srv_eps[server], self._pending[w], self._shard_bytes[server], "reply", cause,
            self._srv_now[server],
        )

    def _open_pull(self, w: int, exclusive: bool = True) -> Gather:
        """Open worker ``w``'s reply gather, one transfer per shard.
        ``exclusive``: nothing else reaches ``w``'s RX lane meanwhile — the
        stock protocol sends a worker nothing but its own M replies."""
        gather = self._pending[w] = self.net.gather(self._wkr_eps[w], len(self._srv_eps), exclusive)
        return gather

    # -- worker side ---------------------------------------------------------------
    # Algorithm 1's worker, once: plain helpers over a ``_Worker`` row.  A
    # worker process calls them in its protocol's order and yields between
    # them where that protocol waits; they never yield themselves.

    def _worker_row(self, w: int) -> _Worker:
        base = self.cfg.resolved_base_compute(self.cfg.cluster.workers[w].flops)
        return _Worker(w, f"worker{w}", self._wkr_eps[w], base)

    def _draw(self, row: _Worker) -> float:
        """This iteration's compute seconds, from the worker's own stream."""
        return self.compute_model.sample(row.w, row.i, row.base, self._compute_rngs[row.w])

    def _book_compute(self, row: _Worker, t0: float) -> None:
        """The compute that began at ``t0`` ends now: its span, and the
        root of the iteration's causal DAG."""
        now = self.engine.now
        self.trace.record_span(row.name, SpanKind.COMPUTE, t0, now, row.i)
        if self.causal is not None:
            row.cause = self.causal.record(
                -1, row.name, "compute", t0, now, worker=row.w, iteration=row.i
            )

    def _local_step(self, row: _Worker) -> None:
        """Log this iteration's step; its push's wire size is the replay's."""
        log = self._log
        if log is not None:
            log.steps.append((row.w, row.i))
            row.wire_factor = self._replay.wire_factor(len(log.steps) - 1)

    def _pushes(self, row: _Worker) -> List[tuple]:
        """This iteration's sPush to every shard (Algorithm 1 line 4), as
        the wire's ``(server, bytes, request, tag)`` transfers."""
        w, i = row.w, row.i
        sizes = self._shard_bytes  # exact when nothing was filtered out
        if row.wire_factor != 1.0:
            sizes = [
                max(HEADER_BYTES, int(self._payload_bytes(m) * row.wire_factor))
                for m in range(len(sizes))
            ]
        return [
            (dst, sizes[m], (m, w, i, False), "push") for m, dst in enumerate(self._srv_eps)
        ]

    def _pulls(self, row: _Worker, progress: int) -> List[tuple]:
        """sPull every shard at ``progress`` (line 5), as transfers."""
        w, size = row.w, REQUEST_BYTES
        return [(dst, size, (m, w, progress, True), "pull") for m, dst in enumerate(self._srv_eps)]

    def _push_all(self, row: _Worker) -> List[Signal]:
        """sPush to every shard, a delivery signal per push (the stock worker
        posts its pushes signal-free, with its pulls)."""
        send, node, cause = self.net.send, row.ep, row.cause
        return [send(node, *push, cause) for push in self._pushes(row)]

    def _send_pulls(self, row: _Worker, progress: int, exclusive: bool = True) -> Gather:
        """sPull every shard at ``progress`` into a fresh reply gather.
        Requests share the worker's FIFO TX lane with its pushes, so each
        server sees an iteration's push before its pull."""
        pending = self._open_pull(row.w, exclusive)
        self.net.post(row.ep, self._pulls(row, progress), row.cause)
        return pending

    def _book_sync(self, row: _Worker, t_sync: float, pending: Gather) -> None:
        """The wait that began at ``t_sync`` ends now, ``pending`` drained
        (line 6): PULL span, the DAG's terminal ``sync_wait``, the sketch."""
        now = self.engine.now
        self.trace.record_span(row.name, SpanKind.PULL, t_sync, now, row.i)
        if self.causal is not None:
            # Parented on the last reply to land (the cause that released
            # the wait).
            last = pending.cause_id
            self.causal.record(
                last if last >= 0 else row.cause, row.name, "sync_wait", t_sync, now,
                worker=row.w, iteration=row.i,
            )
        if self._pull_sketches is not None:
            self._pull_sketches[row.w].observe(now - t_sync)

    def _end_iteration(self, row: _Worker) -> None:
        """Worker 0's eval cadence: it reads every shard's version now."""
        done = row.i + 1
        if row.w == 0 and self._evaluates(done):
            self._log.evals.append((len(self._log.steps), [s.version for s in self.servers]))
            self._eval_at.append((self.engine.now, done))

    def _evaluates(self, done: int) -> bool:
        """Whether worker 0 evaluates once it has done ``done`` iterations."""
        every = self.cfg.eval_every
        return every > 0 and (done % every == 0 or done == self._first[0] + self.cfg.max_iter)

    def _worker_proc(
        self,
        w: int,
        start_iter: Optional[int] = None,
        presampled: Sequence[float] = (),
    ):
        """One stock worker's event-path life: one generator frame, two
        waits per iteration.  ``start_iter``/``presampled`` re-materialize
        a worker mid-run after a partial round collapse: the process
        resumes at iteration ``start_iter`` (spawned with ``start_at=`` its
        analytic clock) and takes the compute durations of its first
        ``len(presampled)`` iterations from there on, which the collapse
        driver already drew from its RNG stream, so the RNG state and every
        downstream timestamp match the pure event path bit for bit."""
        engine = self.engine
        row = self._worker_row(w)
        first = self._first[w]
        start = first if start_iter is None else start_iter
        for i in range(start, first + self.cfg.max_iter):
            row.i = i
            k = i - start
            t0 = engine.now
            # A bare delay: Timeout(dur).
            yield float(presampled[k]) if k < len(presampled) else self._draw(row)
            self._book_compute(row, t0)
            self._local_step(row)
            t_sync = engine.now
            pending = self._open_pull(w)
            # One call posts the 2M requests, pushes first: each server
            # sees an iteration's push before its pull.
            self.net.post(row.ep, self._pushes(row) + self._pulls(row, i), row.cause)
            yield pending
            self._book_sync(row, t_sync, pending)
            self._end_iteration(row)
        self._finish_times[w] = engine.now

    # -- closed-form round fast-forward ------------------------------------------------

    def _collapse_eligible(self) -> Optional[str]:
        """Why whole protocol rounds cannot be committed analytically —
        the first failing reason — or ``None`` when they can.

        The closed form models exactly one behavior: timing-only workers
        that push then pull every shard each iteration over analytic
        drain lanes, every shard's conditions committing a quiet bound
        (``committed_bound``: every pull immediate — or, at s = 0,
        buffered until the shard's one frontier advance per round) and a
        quorum of n (``committed_quorum``).  Anything outside that — a
        push filter whose wire sizes follow the values, a condition that
        declares no bound or a smaller quorum, a wire something watches
        (``Network.watcher``) — keeps the per-event path, which stays
        bit-identical by construction.  The reason lands in
        :attr:`collapse_fallback`.
        """
        cfg = self.cfg
        if type(self) is not FluentPSSimRunner:
            # Baseline runners (PS-Lite's scheduler-gated workers,
            # SpecSync) subclass this runner with their own protocols;
            # the cohort closed form models only the stock one.
            return "subclass"
        if self._replay is not None and self._replay.filters:
            return "push_filter"
        watcher = self.net.watcher()
        if watcher is not None:
            return watcher
        n = cfg.cluster.n_workers
        for s in self.servers:
            if s.pull_con.committed_bound() is None:
                return "pull_condition"
            if s.push_con.committed_quorum(n) != n:
                return "quorum"
            if s.callbacks or s.v_train != 0:
                return "pending_state"
            if max(s.worker_progress) != -1:  # no push yet: every entry is -1
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

    def _cohort_lanes(self) -> _Lanes:
        """The endpoints' and serve lanes' current state as the table
        :func:`quiet_round` advances."""
        cfg = self.cfg
        # Serialization holds are pure functions of (NIC, size): one
        # row per distinct NIC spec covers the whole cohort.
        sizes = self._shard_bytes + [REQUEST_BYTES]
        weps, seps = self._wkr_eps, self._srv_eps
        holds = {nic: [nic.serialize_time(s) for s in sizes] for nic in {ep.nic for ep in weps}}
        return _Lanes(
            latency=self.net.latency_s,
            op_cost=cfg.server_op_overhead_s,
            w_holds=np.array([holds[ep.nic] for ep in weps]),
            s_push_hold=[ep.nic.serialize_time(b) for ep, b in zip(seps, self._shard_bytes)],
            s_pull_hold=[ep.nic.serialize_time(REQUEST_BYTES) for ep in seps],
            wtx_free=np.array([ep.tx_free_at for ep in weps]),
            wrx_free=np.array([ep.rx_free_at for ep in weps]),
            wtx_busy=np.array([ep.tx_busy_s for ep in weps]),
            wrx_busy=np.array([ep.rx_busy_s for ep in weps]),
            stx_free=[ep.tx_free_at for ep in seps],
            srx_free=[ep.rx_free_at for ep in seps],
            stx_busy=[ep.tx_busy_s for ep in seps],
            srx_busy=[ep.rx_busy_s for ep in seps],
            serve_busy=list(self._srv_busy),
            barrier=[not s.pull_con.committed_bound() > 0 for s in self.servers],
            dpr_cost=cfg.server_op_overhead_s + cfg.dpr_overhead_s,
        )

    def _collapse_rounds(self) -> bool:
        """Advance whole protocol rounds in closed form.

        Per round: take the cohort's compute durations (each worker's
        stream draws a window of rounds in one ``sample_many`` call), let
        :func:`quiet_round` schedule the round from the lane table, and
        commit it — spans, sketches, the shards' ``handle_quiet_round``,
        the instant blocks, the event census — once its schedule is proven
        the event path's.  The next round's *intruders* (:func:`_intruders`:
        its requests that finish TX before this round's last one to a
        shard) are guessed from the round as if isolated, merged into its
        shard streams, and re-derived from the merged round: only a fixed
        point commits (DESIGN.md, "Overlapping rounds"), and the round
        that lent them commits with the round that takes them as served.
        No intruders is the isolated case: what overlaps lies on the
        workers' private lanes.  Observed or not, the test is the same:
        an observed round's instants are per-shard blocks in each shard's
        handle order.  The first round that fails — a refused or unverified
        merge, a straggler draw overlapping the tail — commits nothing
        from the first round of its chain on and de-vectorizes the cohort
        there, back to per-worker event processes at their analytic
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
        observed = self.obs.enabled
        log = self._log
        sketches = self._pull_sketches
        block_shards = [s.block_constants() for s in self.servers] if observed else []
        n = cfg.cluster.n_workers
        M = cfg.cluster.n_servers
        sample_many = self.compute_model.sample_many
        rngs = self._compute_rngs
        push_bytes = self._shard_bytes
        base_l = [cfg.resolved_base_compute(node.flops) for node in cfg.cluster.workers]
        names = [f"worker{w}" for w in range(n)]
        # Per-worker span totals of the committed rounds, as cohort arrays.
        compute_spans = CohortSpans(self.trace, names, SpanKind.COMPUTE)
        pull_spans = CohortSpans(self.trace, names, SpanKind.PULL)
        # Loaded once, written back only for committed rounds.
        lanes = self._cohort_lanes()
        # Event census per worker per round: 2 resume events and 2M request
        # TX completions (the M replies ride the worker's fused gather).
        saved_per_round = n * (2 + 2 * M)
        sum_push = sum(push_bytes)

        def _flush() -> None:
            # Write the cursor/counter state of the ``r`` committed rounds
            # back to the live endpoints and network totals, and their
            # span totals to the trace.
            # Must run before any de-vectorized worker spawns so their
            # sends observe the post-collapse cursors.
            compute_spans.credit()
            pull_spans.credit()
            cursors = (lanes.wtx_free, lanes.wrx_free, lanes.wtx_busy, lanes.wrx_busy)
            for ep, row in zip(self._wkr_eps, zip(*(column.tolist() for column in cursors))):
                ep.tx_free_at, ep.rx_free_at, ep.tx_busy_s, ep.rx_busy_s = row
                ep.bytes_sent += r * (sum_push + M * REQUEST_BYTES)
                ep.messages_sent += r * 2 * M
                ep.bytes_received += r * sum_push
                ep.messages_received += r * M
            for m, ep in enumerate(self._srv_eps):
                ep.tx_free_at = lanes.stx_free[m]
                ep.rx_free_at = lanes.srx_free[m]
                ep.tx_busy_s = lanes.stx_busy[m]
                ep.rx_busy_s = lanes.srx_busy[m]
                ep.bytes_sent += r * n * push_bytes[m]
                ep.messages_sent += r * n
                ep.bytes_received += r * n * (push_bytes[m] + REQUEST_BYTES)
                ep.messages_received += r * 2 * n
                self._srv_busy[m] = lanes.serve_busy[m]
            nmsg = r * 3 * M * n
            net.total_messages += nmsg
            net.total_bytes += r * n * (2 * sum_push + M * REQUEST_BYTES)
            net.fast_path_transfers += nmsg
            net._next_msg_id += nmsg
            net.fused_deliveries += nmsg

        def _commit(c: np.ndarray, _rank, sched: _RoundSchedule, behind: List[int]) -> None:
            # Round ``r`` into the trace, the schedule log, the instant log,
            # the shards and the counters.
            compute_spans.add(sched.order, c, sched.ready, r)
            if log is not None:
                self._log_round(r, sched)
            if observed:
                # Before the shards commit: the rows (and round 0's config
                # snapshots) see each shard's pre-round state.
                self._emit_round_blocks(r, sched, block_shards)
            for m in range(M):
                self.servers[m].handle_quiet_round(r, sched.early[m], sched.waits[m], behind[m])
                self._srv_now[m] = float(sched.handle[m, -1])
            f = sched.done
            pull_spans.add(sched.closes, sched.ready, f, r)
            if sketches is not None:
                waits = (f - sched.ready)[sched.closes].tolist()
                for w, waited in zip(sched.closes.tolist(), waits):
                    sketches[w].observe(waited)
            self.server_msgs_inline += sched.inline
            self.server_msgs_drained += 2 * n * M - sched.inline
            # The initial spawn-step wave is only truly saved when the
            # whole run collapses — a de-vectorization re-spawns one step
            # event per worker, cancelling the round-0 saving.
            eng.credit_collapsed_round(saved_per_round + (n if r + 1 == cfg.max_iter else 0))

        stale = [s.pull_con.committed_bound() for s in self.servers]
        r = 0  # rounds committed; ``lanes`` is the state after them
        c = np.zeros(n)
        rank = np.arange(n)
        #: Compute durations drawn for rounds ``d0`` to ``d0 + drawn.shape[1]``,
        #: a row per worker; ``d0 <= r``.
        drawn, d0 = np.empty((n, 0)), 0

        def durations(j: int) -> np.ndarray:
            # Round ``j``'s durations (``j`` at most one past the drawn
            # ones): past them, each worker's stream draws the next window
            # of rounds in one call, at most 8 MiB for the cohort.
            nonlocal drawn, d0
            if j == d0 + drawn.shape[1]:
                span = range(j, j + max(1, min(cfg.max_iter - j, 2**20 // n)))
                fresh = np.array([sample_many(w, span, base_l[w], rngs[w]) for w in range(n)])
                drawn, d0 = np.hstack((drawn[:, r - d0:], fresh)), r
            return drawn[:, j - d0]

        #: Scheduled rounds after ``r``, each lending intruders to the next:
        #: ``(c, rank, what _commit reads, behind)``; a hand-over reads the
        #: first one's ``c`` and ``rank``.
        chain: List[tuple] = []
        work, served, behind, floor = lanes, None, [0] * M, None
        ready = c + durations(0)
        order = np.argsort(ready, kind="stable")  # ties resume in worker order
        while True:
            k = r + len(chain)  # the round scheduled now
            sched = quiet_round(work, ready, order, served)
            last_round = k + 1 >= cfg.max_iter
            lend, mixed, quiet, ready_next = None, False, True, None
            if not last_round:
                dur_next = durations(k + 1)
                # Guess the intruders from the round as if isolated, merge
                # them, and commit only a fixed point: the merged round
                # lets in the very rows, at the very TX ends.
                ready_next = sched.done + dur_next
                order_next = lexsort2(sched.rank, ready_next, sched.closes)
                lend = _intruders(sched, ready_next, order_next, floor, stale)
                mixed = lend is not None and any(ids.shape[0] for ids, _t, _k in lend[0])
                if mixed:
                    del sched  # the guess: its tables go before the merged round's come
                    sched = quiet_round(work, ready, order, served, lend[0])
                    ready_next = sched.done + dur_next
                    order_next = lexsort2(sched.rank, ready_next, sched.closes)
                    again = _intruders(sched, ready_next, order_next, floor, stale)
                    if again is None or not all(
                        np.array_equal(a, b)
                        for guess, proof in zip(lend[0], again[0])
                        for a, b in zip(guess, proof)
                    ):
                        lend = None
                quiet = lend is not None
            if quiet and log is not None:
                # A logged round commits isolated, its steps and evaluation
                # in an order the log can state.
                quiet = not mixed and self._round_logs_exactly(k, sched, ready_next)
            if not quiet:
                # Round k+1 would mix with round k at a shard beyond what a
                # merge proves (or a logged round with what its log can
                # state), so nothing from round r on is committed: the
                # cohort de-vectorizes at round r, each worker's drawn
                # durations handed over so the RNG streams stay aligned
                # with the pure event path.
                c, rank = chain[0][:2] if chain else (c, rank)
                _flush()
                self._record_fallback("overlap", r)
                clock = c.tolist()
                rows = drawn[:, r - d0:]  # views into the table: no Python float per drawn round
                for w in np.argsort(rank, kind="stable").tolist():
                    eng.spawn(
                        self._worker_proc(w, r, rows[w]),
                        name=names[w],
                        start_at=clock[w],
                    )
                return False
            # Only what ``_commit`` reads stays queued: O(n) per round.
            chain.append((c, rank, sched if log is not None else replace(
                sched, tx_end=None, claims=None, rx_end=None, applied=None,
                handle=sched.handle[:, -1:].copy(), reply_tx_end=None, reply_order=None,
                reply_rx_end=None, lent=None, streams=sched.streams if observed else None,
            ), behind))
            if not mixed:
                # The chain ends at an isolated boundary or the last round: a
                # round that lent intruders commits with the round it lent
                # them to.  Popped, so no committed round outlives its commit.
                while chain:
                    _commit(*chain.pop(0))
                    r += 1
                lanes = sched.lanes
            if last_round:
                _flush()
                eng.now = float(np.max(sched.done))
                self._finish_times = sched.done.tolist()
                return True
            c, rank, work, served = sched.done, sched.rank, sched.lanes, sched.lent
            ready, order = ready_next, order_next
            behind = lend[1] if mixed else [0] * M
            floor = sched.tx_end[:, M:].max(axis=0)
            del sched  # or two rounds' tables are alive while the next is computed

    def _round_logs_exactly(
        self, k: int, sched: _RoundSchedule, ready_next: Optional[np.ndarray]
    ) -> bool:
        """Whether round ``k`` (its successor's steps at ``ready_next``)
        feeds the schedule log exactly: its steps all precede the next
        round's, and an evaluation at its end — worker 0's resume at
        ``done[0]`` — falls strictly between the two rounds' steps and at
        no instant a shard handles a push (a push is handled inside its TX
        completion, so the evaluation counts those that finished TX)."""
        ready = sched.ready
        if ready_next is not None and not ready_next.min() > ready.max():
            return False
        if not self._evaluates(k + 1):
            return True
        resume = sched.done[0]
        M = len(self.servers)
        return bool(
            ready.max() < resume
            and (ready_next is None or resume < ready_next.min())
            and not (sched.tx_end[:, :M] == resume).any()
        )

    def _log_round(self, r: int, sched: _RoundSchedule) -> None:
        """Feed committed round ``r`` — isolated, on a fresh system — to the
        schedule log, before its shards commit it: each shard's pushes in
        handle order, the version each reply read (a barrier's buffered
        pulls, at their release), the steps in resume order, worker 0's
        evaluation."""
        log = self._log
        n, K = sched.tx_end.shape
        M = K // 2
        for m, server in enumerate(self.servers):
            ids = sched.claims[m]
            pull = ids % K >= M
            workers = ids // K
            log.applies[m].extend(zip(workers[~pull].tolist(), [r] * n, [server.v_train] * n))
            applied = sched.applied[m][pull]
            if sched.lanes.barrier[m]:
                applied = np.maximum(applied, n)  # released by the n-th push
            log.reads[workers[pull], r, m] = server.version + applied
        log.steps.extend(zip(sched.order.tolist(), [r] * n))
        if self._evaluates(r + 1):
            resume = sched.done[0]
            log.evals.append((len(log.steps), [
                server.version + int(np.count_nonzero(sched.tx_end[:, m] < resume))
                for m, server in enumerate(self.servers)
            ]))
            self._eval_at.append((float(resume), r + 1))

    def _emit_round_blocks(self, r: int, sched: _RoundSchedule, shards) -> None:
        """Append committed round ``r``'s protocol instants to the instant
        log, shard by shard: each shard's stream as :func:`_shard_rows`,
        in blocks of at most :data:`_BLOCK_HANDLES` requests, cut also at
        the first of the next round's intruders; its ``server_config``
        instant just before its first block; and its ``SERVER_APPLY``
        spans in the same handle order.  The log's order contract is per
        shard.  ``shards`` is the servers' ``block_constants()``."""
        n, K = sched.ready.shape[0], 2 * len(sched.streams)
        log, cost = self.obs.instants, self._op_cost
        for m, stream in enumerate(sched.streams):
            server, serve = self.servers[m], stream[1]
            self._srv_now[m] = float(serve[0])
            server.emit_config()  # a no-op after the shard's first block
            rows, starts, held = _shard_rows(r, n, K, stream, server.version, sched.waits[m])
            rows["shard"] = m
            cuts = starts[_BLOCK_HANDLES::_BLOCK_HANDLES]
            if stream[2] is not None:  # the rows before it are one round's: provable
                cuts = np.union1d(cuts, starts[np.argmin(stream[2])])
            for part in np.split(rows, cuts):
                log.append_block(part, shards)
            hold = np.where(held, cost + self._dpr_cost, cost)  # a DPR costs its handle more
            busy = hold > 0
            self.trace.record_spans(
                self._srv_names[m], SpanKind.SERVER_APPLY, serve[busy], (serve + hold)[busy]
            )

    # -- run ---------------------------------------------------------------------------

    def run(self) -> SimRunResult:
        """Execute the co-simulation to completion and aggregate results."""
        serve = self._serve
        for ep in self._srv_eps:
            # The lane times itself off the delivery time, so signal-free
            # request deliveries fold into their TX-completion events (see
            # ``Endpoint.sink``).
            ep.sink = serve
        # Closed-form round fast-forward: when every shard is provably
        # quiet for whole rounds, the collapse driver commits them
        # analytically and only spawns worker processes if (and from the
        # round where) it de-vectorizes.  Otherwise the event path.
        if self._log is not None:  # schedule, then math
            factory, n = self.cfg.push_filter_factory, self.cfg.cluster.n_workers
            self._replay = Replay(self.system, self.cfg.task, self._log, self.cfg.seed,
                                  [factory() for _ in range(n)] if factory else ())
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
        unanswered = sum(1 for p in self._pending.values() if p.remaining)
        if unanswered:
            raise RuntimeError(
                f"simulation drained with {unanswered} unanswered pulls "
                "(synchronization deadlock)"
            )
        if self._replay is not None:
            for (t, done), value in zip(self._eval_at, self._replay.finish()):
                self.eval_by_time.append(t, value)
                self.eval_by_iteration.append(done, value)
            self.steps_replayed = self._replay.done
        if self._capture is not None:
            self._capture.complete = True
        worker_names = [f"worker{w}" for w in range(self.cfg.cluster.n_workers)]
        total_compute = self.trace.compute_time(worker_names)
        total_wall = sum(self._finish_times)
        metrics = self.system.merged_metrics()
        if self.obs.enabled:
            metrics.publish(self.obs.registry, run=self._capture.label)
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
            final_params=self.system.current_params(),
            eval_by_time=self.eval_by_time,
            eval_by_iteration=self.eval_by_iteration,
            worker_finish_times=list(self._finish_times),
        )


def run_fluentps(config: SimConfig, system: Optional[ParameterServerSystem] = None) -> SimRunResult:
    """One-call convenience wrapper (``system``: continue on it)."""
    return FluentPSSimRunner(config, system).run()
