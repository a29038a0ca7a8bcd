"""Reference simulator: the one oracle every fast path is compared with.

The textbook queueing description of the co-simulation, on the generic kit
(:class:`Engine`, generator processes, and the :class:`Resource` and
:class:`Store` defined here):

- **one process per message** — acquire the sender's TX lane, hold
  ``nic.serialize_time(size)``, release, hold the propagation latency,
  acquire the receiver's RX lane, hold, release, deliver;
- **one inbox loop per server** — take the next request, call
  ``ShardServer.handle_push``/``handle_pull``, then stay busy for
  ``server_op_overhead_s + ΔDPRs · dpr_overhead_s``;
- **one process per worker** — Algorithm 1 lines 4–6: compute, sPush every
  shard, sPull every shard, wait for the M replies;
- **worker 0's evaluation** reads, per shard, the parameters after every
  push whose TX has ended, those still on the wire or in the inbox
  included: the read DESIGN.md states as "the evaluation read-ahead".

No lane cursors, no sinks, no fused deliveries or gathers, no round
collapse.  The engine supplies the one FIFO-at-equal-times rule, so
agreement with production in tie-heavy cells is a property of the model.
Sizing (``wire_scale``, header/request bytes, push filters) and RNG
derivations are the production runner's, and so is the shard construction
(a :class:`ParameterServerSystem`, or one handed in to continue, as
``run_fluentps(cfg, system)`` does); ``SimConfig`` is only the input type.
The comparison rule: ``tests/sim_helpers.py::assert_matches_reference``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.api import ParameterServerSystem
from repro.core.filters import NoFilter
from repro.core.server import PullReply, ShardServer
from repro.core.step import StepContext
from repro.obs import current_observability
from repro.sim.engine import Engine, Signal, SimulationError
from repro.sim.runner import HEADER_BYTES, REQUEST_BYTES, SimConfig
from repro.sim.stragglers import LogNormalCompute
from repro.utils.rng import derive_rng


class Resource:
    """FIFO resource with integer capacity (a NIC lane here).

    ``acquire()`` returns a :class:`Signal` the caller yields on; the
    payload is an opaque grant token that must be passed to ``release``.
    Uncontended acquires reuse one shared pre-fired grant signal.
    """

    __slots__ = ("_engine", "_capacity", "_in_use", "_queue", "_granted", "name")

    def __init__(self, engine: Engine, capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1, got {capacity}")
        self._engine = engine
        self._capacity = capacity
        self._in_use = 0
        self._queue: List[Signal] = []
        self.name = name
        # Shared immediate-grant signal: fired signals are immutable, so
        # every uncontended acquire can hand back the same one.
        self._granted = Signal(engine, name=name + ".grant")
        self._granted._fired = True
        self._granted._payload = self

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queue_length(self) -> int:
        return len(self._queue)

    def acquire(self) -> Signal:
        """Request the resource; yield the returned signal to wait for grant."""
        if self._in_use < self._capacity:
            self._in_use += 1
            return self._granted
        sig = Signal(self._engine, name=self.name + ".grant")
        self._queue.append(sig)
        return sig

    def release(self) -> None:
        """Release one grant, waking the next FIFO waiter if any."""
        if self._in_use <= 0:
            raise SimulationError(f"release of idle resource {self.name!r}")
        if self._queue:
            nxt = self._queue.pop(0)
            nxt.fire(self)
        else:
            self._in_use -= 1


class Store:
    """Unbounded FIFO message queue with blocking ``get``."""

    __slots__ = ("_engine", "_items", "_getters", "name")

    def __init__(self, engine: Engine, name: str = ""):
        self._engine = engine
        self._items: List[Any] = []
        self._getters: List[Signal] = []
        self.name = name

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        """Append an item, waking the oldest blocked getter if any."""
        if self._getters:
            sig = self._getters.pop(0)
            sig.fire(item)
        else:
            self._items.append(item)

    def get(self) -> Signal:
        """A signal fired with the next item (immediately if one is queued)."""
        sig = Signal(self._engine, name=self.name)
        if self._items:
            sig._fired = True
            sig._payload = self._items.pop(0)
        else:
            self._getters.append(sig)
        return sig


class _Node:
    """An endpoint: two capacity-1 FIFO lanes, an inbox, its counters."""

    def __init__(self, engine: Engine, name: str, nic):
        self.name, self.nic = name, nic
        self.tx = Resource(engine, name=name + ".tx")
        self.rx = Resource(engine, name=name + ".rx")
        self.inbox = Store(engine, name=name + ".inbox")
        #: Where a delivered payload goes: the inbox unless the owner
        #: consumes deliveries directly (a worker counting its replies).
        self.deliver = self.inbox.put
        self.tx_busy_s = self.rx_busy_s = 0.0
        self.bytes_sent = self.bytes_received = 0
        self.messages_sent = self.messages_received = 0


class _Wire:
    """Point-to-point fabric: store-and-forward over per-node lanes."""

    def __init__(self, engine: Engine, latency_s: float, nics: Dict[str, Any]):
        self.engine, self.latency_s = engine, latency_s
        self.nodes = {name: _Node(engine, name, nic) for name, nic in nics.items()}
        #: (src, dst, tag, size, send_time, deliver_time), in delivery order.
        self.trace: List[tuple] = []
        #: Called with ``(dst, tag)`` when a message leaves its sender's TX lane.
        self.on_tx_end = lambda dst, tag: None

    def send(self, src: str, dst: str, size: int, tag: str = "", payload: Any = None) -> None:
        self.engine.spawn(
            self._message(self.nodes[src], self.nodes[dst], size, tag, payload, self.engine.now)
        )

    def _message(self, src: _Node, dst: _Node, size: int, tag: str, payload: Any, sent: float):
        yield src.tx.acquire()
        hold = src.nic.serialize_time(size)
        yield hold
        src.tx.release()
        self.on_tx_end(dst.name, tag)
        src.tx_busy_s += hold
        src.bytes_sent += size
        src.messages_sent += 1
        yield self.latency_s
        yield dst.rx.acquire()
        hold = dst.nic.serialize_time(size)
        yield hold
        dst.rx.release()
        dst.rx_busy_s += hold
        dst.bytes_received += size
        dst.messages_received += 1
        self.trace.append((src.name, dst.name, tag, size, sent, self.engine.now))
        dst.deliver(payload)

    def counters(self) -> Dict[str, Tuple]:
        """node -> (tx_busy_s, rx_busy_s, bytes sent/received, messages sent/received)."""
        return {
            name: (n.tx_busy_s, n.rx_busy_s, n.bytes_sent, n.bytes_received,
                   n.messages_sent, n.messages_received)
            for name, n in self.nodes.items()
        }


def reference_wire(schedule, latency_s: float, nics: Dict[str, Any]):
    """Replay ``schedule`` — ``(time, src, dst, size)`` rows — on a bare
    wire; returns the delivery trace and the per-endpoint counters."""
    engine = Engine()
    wire = _Wire(engine, latency_s, nics)
    for when, src, dst, size in schedule:
        engine.call_at(when, wire.send, src, dst, size)
    engine.run()
    return wire.trace, wire.counters()


@dataclass
class _Pull:
    """One worker's outstanding sPull round."""

    remaining: int
    done: Signal
    flat: Optional[np.ndarray]  #: co-simulation: where shard snapshots assemble


@dataclass
class ReferenceRun:
    finish_times: List[float]
    trace: List[tuple]  #: :attr:`_Wire.trace`
    endpoints: Dict[str, Tuple]  #: :meth:`_Wire.counters`
    servers: List[ShardServer]  #: metrics; protocol instants went to ``config.obs``
    final_params: Optional[np.ndarray]
    evals: List[Tuple[float, int, float]]  #: (sim time, iteration, metric)
    system: ParameterServerSystem  #: the shards, for their end state and a checkpoint


class ReferenceSim:
    """Run one FluentPS training job, message by message."""

    def __init__(self, config: SimConfig, system: Optional[ParameterServerSystem] = None):
        """``system``: continue on it (each worker resumes one past its
        shards' recorded progress) instead of a fresh one."""
        self.cfg = cfg = config
        cluster = cfg.cluster
        n, m = cluster.n_workers, cluster.n_servers
        self.engine = engine = Engine()
        nodes = cluster.workers + cluster.servers
        self.wire = _Wire(engine, cluster.latency_s, {node.name: node.nic for node in nodes})
        self.worker_ids = [node.name for node in cluster.workers]
        self.server_ids = [node.name for node in cluster.servers]
        self.compute = cfg.compute_model or LogNormalCompute(0.2)
        obs = cfg.obs or current_observability()
        obs.begin_run(f"reference-n{n}x{m}")  # its own capture: ``obs.last_run.instants``
        if system is None:
            system = ParameterServerSystem(
                cfg.spec, None if cfg.task is None else cfg.task.init_params, n, m, cfg.sync,
                cfg.execution, cfg.slicer, seed=cfg.seed, obs=obs,
            )
        system.set_clock(lambda: engine.now)
        self.system, self.layout, self.servers = system, system.layout, system.servers
        self.first = [p + 1 for p in self.servers[0].worker_progress]
        make_filter = cfg.push_filter_factory or NoFilter
        self.filters = [make_filter() for _ in range(n)]
        self.compute_rngs = [derive_rng(cfg.seed, "compute", w) for w in range(n)]
        self.step_rngs = [derive_rng(cfg.seed, "step", w) for w in range(n)]
        self.pulls: Dict[int, _Pull] = {}
        self.finish_times = [0.0] * n
        self.evals: List[Tuple[float, int, float]] = []
        #: Per shard: pushes that left their sender's TX lane, pushes handled.
        self.pushes_sent, self.pushes_handled = [0] * m, [0] * m
        #: Evaluations waiting for their shards: (time, iteration, pushes
        #: per shard, the shard parameters captured so far).
        self._due: List[Tuple[float, int, List[int], List[Optional[np.ndarray]]]] = []
        server_index = {name: j for j, name in enumerate(self.server_ids)}

        def tx_end(dst: str, tag: str) -> None:
            if tag == "push":
                self.pushes_sent[server_index[dst]] += 1

        self.wire.on_tx_end = tx_end

    def _payload_bytes(self, j: int) -> int:
        cfg = self.cfg
        return int(self.layout.shard_bytes(j) * cfg.resolved_wire_scale()) + HEADER_BYTES

    def _global_params(self) -> np.ndarray:
        return self.layout.gather([s.params for s in self.servers])

    def _capture(self, j: int) -> None:
        """Copy shard ``j``'s parameters into every due evaluation that reads
        them after exactly the pushes it has handled; evaluate, in order,
        the ones whose every shard is captured."""
        for _t, _i, sent, shards in self._due:
            if shards[j] is None and sent[j] == self.pushes_handled[j]:
                shards[j] = self.servers[j].params.copy()
        while self._due and all(p is not None for p in self._due[0][3]):
            t, i, _sent, shards = self._due.pop(0)
            self.evals.append((t, i, self.cfg.task.eval_fn(self.layout.gather(shards))))

    def _server(self, j: int):
        cfg = self.cfg
        server = self.servers[j]
        inbox = self.wire.nodes[self.server_ids[j]].inbox
        while True:
            kind, w, i, shard = yield inbox.get()
            dprs = server.metrics.dprs
            if kind == "push":
                server.handle_push(w, i, grad=shard)
                self.pushes_handled[j] += 1
                self._capture(j)
            else:
                server.handle_pull(w, i, respond=lambda reply, j=j: self._reply(j, reply))
            cost = cfg.server_op_overhead_s + (server.metrics.dprs - dprs) * cfg.dpr_overhead_s
            if cost > 0:
                yield cost

    def _reply(self, j: int, reply: PullReply) -> None:
        """Server ``j`` answers a pull, now or when a push releases it: the
        reply carries a copy of the shard as it is at the answer."""
        src, dst = self.server_ids[j], self.worker_ids[reply.worker]
        params = self.servers[j].params
        snapshot = None if params is None else params.copy()
        self.wire.send(src, dst, self._payload_bytes(j), "reply", (j, snapshot))

    def _reply_landed(self, w: int, payload) -> None:
        j, snapshot = payload
        pull = self.pulls[w]
        if pull.flat is not None and snapshot is not None:
            self.layout.gather_into(pull.flat, j, snapshot)
        pull.remaining -= 1
        if not pull.remaining:
            pull.done.fire()

    def _worker(self, w: int):
        cfg, engine, send, server_ids = self.cfg, self.engine, self.wire.send, self.server_ids
        task = cfg.task
        me = self.worker_ids[w]
        base = cfg.resolved_base_compute(cfg.cluster.workers[w].flops)
        params = self.system.current_params()
        first = self.first[w]
        for i in range(first, first + cfg.max_iter):
            yield self.compute.sample(w, i, base, self.compute_rngs[w])
            factor, shards = 1.0, [None] * len(server_ids)
            if task is not None:
                update = task.step_fn(
                    StepContext(worker=w, iteration=i, params=params, rng=self.step_rngs[w])
                )
                filtered = self.filters[w].apply(update, params, i)
                factor = filtered.wire_bytes_factor
                shards = self.layout.scatter(filtered.update)
            for j, dst in enumerate(server_ids):  # sPush (line 4)
                size = self._payload_bytes(j)
                if factor != 1.0:
                    size = max(HEADER_BYTES, int(size * factor))
                send(me, dst, size, "push", ("push", w, i, shards[j]))
            flat = np.empty(cfg.spec.total_elements) if task is not None else None
            pull = self.pulls[w] = _Pull(len(server_ids), Signal(engine), flat)
            for dst in server_ids:  # sPull (line 5)
                send(me, dst, REQUEST_BYTES, "pull", ("pull", w, i, None))
            yield pull.done  # line 6
            if params is not None:
                params = pull.flat
            if w == 0 and task is not None and cfg.eval_every > 0:
                if (i + 1) % cfg.eval_every == 0 or i + 1 == first + cfg.max_iter:
                    self._due.append((engine.now, i + 1, list(self.pushes_sent),
                                      [None] * len(server_ids)))
                    for j in range(len(server_ids)):
                        self._capture(j)
        self.finish_times[w] = engine.now

    def run(self) -> ReferenceRun:
        for j in range(len(self.server_ids)):
            self.engine.spawn(self._server(j), name=f"server{j}")
        for w, name in enumerate(self.worker_ids):
            self.wire.nodes[name].deliver = partial(self._reply_landed, w)
            self.engine.spawn(self._worker(w), name=f"worker{w}")
        self.engine.run()
        if any(p.remaining for p in self.pulls.values()):
            raise RuntimeError("reference drained with unanswered pulls (deadlock)")
        if self._due:
            raise RuntimeError("reference drained with an evaluation of pushes never handled")
        final = self._global_params() if self.cfg.task is not None else None
        wire = self.wire
        return ReferenceRun(
            self.finish_times, wire.trace, wire.counters(), self.servers, final, self.evals,
            self.system,
        )
