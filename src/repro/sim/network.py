"""Network model: NICs, point-to-point transfers, incast contention.

Transfers serialize on the sender's TX lane and the receiver's RX lane
(store-and-forward approximation).  RX serialization is what reproduces
the parameter-server *incast* bottleneck: when N workers push gradients to
one server simultaneously, the server NIC drains them one at a time, which
is exactly why PS-Lite's imbalanced default slicing makes communication
time dominate at scale (paper §II-B, Figure 6).

All sizes are bytes, all rates bytes/second, all times seconds.

One wire, scheduled analytically (see ``docs/PERFORMANCE.md``, "The wire
fast path"): both NIC lanes are plain capacity-1 FIFOs, so a transfer's
timeline is a closed-form function of each lane's ``free_at`` cursor.
``send`` advances the TX cursor and posts one event at TX completion;
that event claims the RX cursor and posts the delivery event.  At most
two heap events per message, no process: a delivery nothing observes
folds into the TX-completion event, and a transfer into a fused
:class:`Gather` posts none — its last send schedules the private RX lane
in closed form.  The textbook one-process-per-message description these
cursors must reproduce bit for bit lives in ``tests/reference_sim.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappush as _heappush
from typing import Any, Callable, Dict, List, Optional

from repro.sim.engine import Engine, Signal, SimulationError, Waitable
from repro.utils.checks import check_number

_SIGNAL_NEW = Signal.__new__


@dataclass(frozen=True)
class NicSpec:
    """Per-node network interface: full-duplex bandwidth + fixed overhead.
    ``bandwidth_Bps=inf`` serializes in zero time (the no-network preset)."""

    bandwidth_Bps: float
    overhead_s: float = 20e-6  # per-message software/serialization overhead

    def __post_init__(self) -> None:
        if not self.bandwidth_Bps > 0:  # NaN too
            raise ValueError(f"bandwidth_Bps must be > 0, got {self.bandwidth_Bps!r}")
        check_number("overhead_s", self.overhead_s)

    def serialize_time(self, size_bytes: int) -> float:
        return self.overhead_s + size_bytes / self.bandwidth_Bps


@dataclass(slots=True)
class Message:
    """One transfer on the wire.

    ``msg_id`` is assigned by :meth:`Network.send` from a per-``Network``
    counter, so identically-seeded runs in one process see identical id
    streams (a module-global counter would leak state across runs).

    ``cause_id`` threads the causal trace through the wire: the sender
    sets it to the causal span that produced the message, and delivery
    rewrites it to the receive-side span id, so the receiver can chain
    its own spans onto the message's history (-1 when tracing is off).
    """

    src: str
    dst: str
    size_bytes: int
    tag: str = ""
    payload: Any = None
    msg_id: int = -1
    send_time: float = -1.0
    deliver_time: float = -1.0
    cause_id: int = -1


_MESSAGE_NEW = Message.__new__


class Endpoint:
    """A node's attachment point: NIC lane cursors, counters and the
    consumer of what lands here."""

    __slots__ = (
        "node_id",
        "nic",
        "sink",
        "gather",
        "unfused",
        "bytes_sent",
        "bytes_received",
        "messages_sent",
        "messages_received",
        "tx_busy_s",
        "rx_busy_s",
        "tx_free_at",
        "rx_free_at",
        "_ser_times",
    )

    def __init__(self, node_id: str, nic: NicSpec):
        self.node_id = node_id
        self.nic = nic
        #: The endpoint's consumer: delivered messages are handed to
        #: ``sink(msg)`` synchronously, in ``deliver_time`` order; with no
        #: sink a delivery reaches only its signal and the delivery hooks.
        #: The consumer owns its own FIFO discipline and must time itself
        #: off ``msg.deliver_time``: an unobserved signal-free delivery
        #: runs the sink early, inside the TX-completion event.
        self.sink: Optional[Callable[["Message"], None]] = None
        #: The exclusive :class:`Gather` that last claimed the RX lane.
        self.gather: Optional["Gather"] = None
        #: Deliveries into this endpoint still waiting for their own
        #: event: while there is one, a later delivery may not fuse into
        #: its TX completion, or the sink would see it first.
        self.unfused = 0
        self.bytes_sent = 0
        self.bytes_received = 0
        self.messages_sent = 0
        self.messages_received = 0
        self.tx_busy_s = 0.0  # cumulative time the TX lane spent serializing
        self.rx_busy_s = 0.0  # cumulative time the RX lane spent draining
        #: Lane cursors: earliest time each capacity-1 FIFO lane is free.
        self.tx_free_at = 0.0
        self.rx_free_at = 0.0
        #: Serialize-time memo: PS traffic repeats a handful of message
        #: sizes (shard push/pull), so the per-size time is computed once.
        self._ser_times: Dict[int, float] = {}

    def serialize_time(self, size_bytes: int) -> float:
        """Memoized :meth:`NicSpec.serialize_time` for this endpoint."""
        t = self._ser_times.get(size_bytes)
        if t is None:
            t = self._ser_times[size_bytes] = self.nic.serialize_time(size_bytes)
        return t

    def tx_utilization(self, now: float) -> float:
        """Fraction of elapsed sim time the TX lane was serializing."""
        return self.tx_busy_s / now if now > 0 else 0.0

    def rx_utilization(self, now: float) -> float:
        """Fraction of elapsed sim time the RX lane was draining."""
        return self.rx_busy_s / now if now > 0 else 0.0


@dataclass(slots=True, eq=False)
class Gather(Waitable):
    """``count`` transfers converging on one endpoint's RX lane, then one
    completion.  The receiver opens it (:meth:`Network.gather`), senders
    :meth:`Network.send` *to* it (no payload: it only counts), and the
    receiver yields on it, resuming when the last transfer has drained.

    Once a transfer's TX cursor is advanced only the RX lane orders
    anything, so when that lane is private (``exclusive``: the protocol
    author's declaration, enforced by :class:`Network`) and nothing
    observes the wire the gather is *fused*: no per-transfer
    events, the last send schedules the lane in closed form.  Otherwise
    it counts ordinary per-message deliveries (the differential oracle).
    """

    dst: Endpoint
    remaining: int  #: transfers not yet drained (fused: not yet sent)
    _legs: Optional[List[tuple]]  #: fused mode: (tx_end, send seq, size) per transfer sent
    done_at: float = 0.0  #: completion instant, valid once ``remaining`` is 0
    cause_id: int = -1  #: receive-side causal span of the last transfer to land
    _waiter: Optional[Callable[[Any], None]] = None

    def _subscribe(self, engine: Engine, callback: Callable[[Any], None]) -> None:
        if self.remaining:
            self._waiter = callback
        else:
            engine._schedule(max(engine.now, self.done_at), callback, self)

    def _complete(self, engine: Engine, when: float) -> None:
        self.done_at = when
        if self._waiter is not None:
            engine._schedule(when, self._waiter, self)


class Network:
    """Point-to-point fabric connecting registered endpoints."""

    __slots__ = (
        "engine",
        "latency_s",
        "endpoints",
        "total_bytes",
        "total_messages",
        "bytes_in_flight",
        "messages_in_flight",
        "fast_path_transfers",
        "fused_deliveries",
        "causal",
        "delay_hook",
        "_next_msg_id",
        "_delivery_hooks",
        "_tx_done_cb",
        "_deliver_cb",
    )

    def __init__(self, engine: Engine, latency_s: float = 50e-6):
        check_number("latency_s", latency_s)
        self.engine = engine
        self.latency_s = latency_s
        self.endpoints: Dict[str, Endpoint] = {}
        self._next_msg_id = 0  # per-Network: id streams reset per run
        self.total_bytes = 0
        self.total_messages = 0
        self.bytes_in_flight = 0  # sent but not yet delivered
        self.messages_in_flight = 0
        #: Transfers scheduled on the lane cursors — every send (scraped by
        #: ``repro.obs.snapshot``).
        self.fast_path_transfers = 0
        #: Deliveries that posted no event of their own: a signal-free
        #: send to a sink endpoint that nothing observes in real time (no
        #: delivery or choice hook) delivers inside its TX-completion
        #: event, ``msg.deliver_time`` carrying the exact RX-drain instant;
        #: a transfer into a fused :class:`Gather` posts no event at all.
        self.fused_deliveries = 0
        #: Causal span sink (a :class:`repro.obs.causal.CausalTrace`);
        #: ``None`` keeps the wire recording-free.  Recording only
        #: *reads* the already-fixed timeline, so timestamps are
        #: bit-identical with tracing on or off.
        self.causal = None
        #: Optional bounded delivery perturbation: ``delay_hook(msg)``
        #: returns extra seconds of RX-side hold for that message.  The
        #: extra time extends the receiver's RX cursor, so per-(src, dst)
        #: FIFO ordering — the push-before-pull contract the runner relies
        #: on — is preserved; only cross-sender arrival interleavings
        #: change.  Used by the schedule explorer
        #: (:mod:`repro.analysis.explore`).
        self.delay_hook: Optional[Callable[[Message], float]] = None
        self._delivery_hooks: List[Callable[[Message], None]] = []
        #: Hot-path bindings: one attribute load instead of a descriptor
        #: walk per event.  ``send`` pushes ``(when, seq, fn, arg)``
        #: entries straight onto the engine heap (the body of
        #: ``Engine._schedule``, inlined) — safe because every wire
        #: timestamp is ``max(now, cursor) + hold`` with non-negative
        #: holds, so nothing lands in the past (:meth:`Engine.post` is the
        #: checked public spelling of the same protocol).
        self._tx_done_cb = self._fast_tx_done
        self._deliver_cb = self._deliver

    def add_node(self, node_id: str, nic: NicSpec) -> Endpoint:
        if node_id in self.endpoints:
            raise ValueError(f"duplicate node id {node_id!r}")
        ep = Endpoint(node_id, nic)
        self.endpoints[node_id] = ep
        return ep

    def endpoint(self, node_id: str) -> Endpoint:
        try:
            return self.endpoints[node_id]
        except KeyError:
            raise KeyError(f"unknown node {node_id!r}") from None

    def on_delivery(self, hook: Callable[[Message], None]) -> None:
        """Register a hook called (in sim time) whenever a message lands.

        A hook observes every message as a real :class:`Message`, in its
        own delivery event: installing one switches off every fused path
        for the run — the runner's round collapse (``delivery_hook``
        fallback), fused deliveries and fused gathers."""
        self._delivery_hooks.append(hook)

    def gather(self, dst, count: int, exclusive: bool = False) -> Gather:
        """Open a :class:`Gather` of ``count`` transfers into ``dst`` (Endpoint
        or node id): fused when ``exclusive`` and the wire is unobserved."""
        if count < 1:
            raise ValueError(f"a gather needs at least one transfer, got {count}")
        dst_ep = self.endpoint(dst) if dst.__class__ is str else dst
        self._check_private(dst_ep, self.engine.now)
        fused = (
            exclusive
            and not self._delivery_hooks
            and self.delay_hook is None
            and self.causal is None
            and self.engine._choice_hook is None
        )
        opened = Gather(dst_ep, count, [] if fused else None)
        dst_ep.gather = opened if exclusive else None
        return opened

    def _check_private(self, ep: Endpoint, now: float) -> None:
        """Raise if ``ep``'s RX lane still belongs to an exclusive gather."""
        held = ep.gather
        if held is not None and (held.remaining or now < held.done_at):
            raise SimulationError(f"{ep.node_id}: RX lane is private to an open exclusive gather")

    def send(
        self,
        src: str,
        dst: str,
        size_bytes: int,
        payload: Any = None,
        tag: str = "",
        cause: int = -1,
        notify: bool = True,
        at: float = -1.0,
    ) -> Optional[Signal]:
        """Start a transfer; returns a Signal fired with the Message upon
        delivery.  The message is also handed to the destination's
        :attr:`Endpoint.sink`, when it has one.  ``cause`` is the sender's
        causal span id (ignored unless a causal trace is attached via
        :attr:`causal`).  ``notify=False`` skips the delivery signal
        entirely and returns ``None`` — for callers that never subscribe
        (the runner's push/pull requests), saving one signal allocation per
        message at incast rates.  Timing is identical either way: the
        signal only ever *observes* delivery.  ``at`` (>= ``engine.now``)
        sends from a virtual instant instead of the engine clock — the
        runner's analytic drain lanes use it so a reply issued from a
        cascaded handle time serializes exactly when a server process
        waking at that time would have sent it.  ``dst`` may be an open
        :class:`Gather`: the transfer counts toward it instead of a sink or
        signal, and the call returns ``None``."""
        if size_bytes < 0:
            raise ValueError(f"negative message size: {size_bytes}")
        # ``src``/``dst`` may be Endpoint objects instead of node ids: at
        # 100k workers the endpoint registry is a large dict and the two
        # lookups per send are cache misses; hot callers (the runner)
        # memoize their endpoints and skip the registry entirely.
        if src.__class__ is str:
            src_ep = self.endpoint(src)
        else:
            src_ep = src
            src = src_ep.node_id
        done = None
        if dst.__class__ is str:
            dst_ep = self.endpoint(dst)
        elif dst.__class__ is Gather:
            done = dst
            dst_ep = done.dst
            dst = dst_ep.node_id
            notify = False
            if not done.remaining:
                raise ValueError(f"gather into {dst} is already complete")
        else:
            dst_ep = dst
            dst = dst_ep.node_id
        engine = self.engine
        now = engine.now
        if at >= 0.0:
            if at < now:
                raise ValueError(f"cannot send from the past: {at} < {now}")
            now = at
        # One identity test on the hot path: it differs only for a plain
        # send into a privately held lane, or a non-exclusive gather.
        if dst_ep.gather is not done:
            self._check_private(dst_ep, now)
        if done is not None and done._legs is not None:
            self._join_fused(done, src_ep, size_bytes, now)
            return None
        # Manual slot fills mirror Message.__init__ / Signal.__init__ (keep
        # in sync): skipping the constructor frames saves ~100 ns per
        # message, which is real money at incast rates.  The signal's
        # constant name avoids per-message f-string churn (the Message
        # carries src/dst/tag already).
        msg = _MESSAGE_NEW(Message)
        msg.src = src
        msg.dst = dst
        msg.size_bytes = size_bytes
        msg.tag = tag
        msg.payload = payload
        msg.msg_id = mid = self._next_msg_id
        self._next_msg_id = mid + 1
        msg.send_time = now
        msg.deliver_time = -1.0
        msg.cause_id = cause
        self.bytes_in_flight += size_bytes
        self.messages_in_flight += 1
        if notify:
            done = _SIGNAL_NEW(Signal)
            done._engine = engine
            done._fired = False
            done._payload = None
            done._waiters = None
            done.name = "deliver"
        # The TX lane is a capacity-1 FIFO, so this transfer starts
        # serializing the instant the lane frees.  max(now, free_at) + hold
        # is the same float addition a lane-acquiring process performs via
        # its resume timestamps, so the cursors reproduce the reference
        # timeline bit for bit — the one lane rule, spelled for n = 1 (the
        # runner's ``_seq_cascade`` is its n > 1 spelling, which the round
        # collapse applies to a cohort).  rx_hold and arrival are precomputed
        # here (both are pure functions of size and tx_end) so the TX-completion
        # event does no lookups of its own; the serialize-time memo is
        # inlined (same dict as :meth:`Endpoint.serialize_time`) to skip
        # two calls per send.
        self.fast_path_transfers += 1
        ser = src_ep._ser_times
        tx_hold = ser.get(size_bytes)
        if tx_hold is None:
            tx_hold = ser[size_bytes] = src_ep.nic.serialize_time(size_bytes)
        ser = dst_ep._ser_times
        rx_hold = ser.get(size_bytes)
        if rx_hold is None:
            rx_hold = ser[size_bytes] = dst_ep.nic.serialize_time(size_bytes)
        tx_free = src_ep.tx_free_at
        tx_end = (tx_free if tx_free > now else now) + tx_hold
        src_ep.tx_free_at = tx_end
        engine._seq = seq = engine._seq + 1
        arrival = tx_end + self.latency_s
        packed = (msg, src_ep, dst_ep, done, tx_hold, rx_hold, arrival)
        _heappush(engine._heap, (tx_end, seq, self._tx_done_cb, packed))
        return done if notify else None

    def _join_fused(self, g: Gather, src_ep: Endpoint, size_bytes: int, now: float) -> None:
        """One transfer into a fused gather: no message, no event.  The TX
        side advances as a plain send at ``now`` advances it (one msg id
        and one seq consumed: later messages keep their ids and tie ranks);
        the last transfer replays the RX claims the per-message TX-completion
        events would make — ``(tx_end, send seq)`` order, same float ops, same
        ``rx_busy_s`` accumulation — and posts the waiter at the final ``rx_free``."""
        self._next_msg_id += 1
        engine = self.engine
        engine._seq = seq = engine._seq + 1
        tx_hold = src_ep.serialize_time(size_bytes)
        tx_free = src_ep.tx_free_at
        src_ep.tx_free_at = tx_end = (tx_free if tx_free > now else now) + tx_hold
        src_ep.tx_busy_s += tx_hold
        src_ep.bytes_sent += size_bytes
        src_ep.messages_sent += 1
        legs = g._legs
        legs.append((tx_end, seq, size_bytes))
        g.remaining -= 1
        if g.remaining:
            return
        legs.sort()
        dst_ep = g.dst
        latency = self.latency_s
        rx_free = dst_ep.rx_free_at
        rx_busy = dst_ep.rx_busy_s
        nbytes = 0
        for tx_end, _seq, size in legs:
            rx_hold = dst_ep.serialize_time(size)
            arrival = tx_end + latency
            rx_free = (rx_free if rx_free > arrival else arrival) + rx_hold
            rx_busy += rx_hold
            nbytes += size
        dst_ep.rx_free_at = rx_free
        dst_ep.rx_busy_s = rx_busy
        dst_ep.bytes_received += nbytes
        dst_ep.messages_received += len(legs)
        self.total_bytes += nbytes
        self.total_messages += len(legs)
        self.fast_path_transfers += len(legs)
        self.fused_deliveries += len(legs)
        g._complete(engine, rx_free)

    @staticmethod
    def _record_wire(causal, msg, tx_start: float, arrival: float, rx_end: float) -> None:
        """One transfer's three causal spans; ``msg.cause_id`` becomes the rx span."""
        tag = msg.tag
        q = causal.record(msg.cause_id, msg.src, "tx_queue", msg.send_time, tx_start, tag=tag)
        w = causal.record(q, f"{msg.src}->{msg.dst}", "wire", tx_start, arrival, tag=tag)
        msg.cause_id = causal.record(w, msg.dst, "rx", arrival, rx_end, tag=tag)

    def _fast_tx_done(self, packed) -> None:
        """TX lane released: book TX stats, claim the RX lane.

        Runs at the transfer's TX-completion instant.  Propagation latency
        is a network-wide constant, so arrival order equals TX-completion
        event order — claiming the RX cursor here reproduces the FIFO
        arrival order a queue of lane-acquiring processes would see.
        (``arrival`` was precomputed at send time as ``tx_end + latency``;
        the heap hands back ``tx_end`` bit-exact, so it equals the
        ``engine.now + latency`` such a process would compute here.)
        """
        msg, src_ep, dst_ep, done, tx_hold, rx_hold, arrival = packed
        src_ep.tx_busy_s += tx_hold
        src_ep.bytes_sent += msg.size_bytes
        src_ep.messages_sent += 1
        rx_free = dst_ep.rx_free_at
        rx_end = (rx_free if rx_free > arrival else arrival) + rx_hold
        delay_hook = self.delay_hook
        if delay_hook is not None:
            extra = delay_hook(msg)
            if extra < 0:
                raise ValueError(f"delay_hook returned negative delay {extra}")
            rx_end += extra
        dst_ep.rx_free_at = rx_end
        causal = self.causal
        if causal is not None:
            # Pure bookkeeping over timestamps that are already fixed
            # (send_time, tx_end = engine.now, arrival, rx_end): the
            # timeline is bit-identical whether or not this branch runs.
            # Subtracting tx_hold can land one ulp before send_time for an
            # uncontended TX lane; clamp so the queue span never inverts.
            tx_start = self.engine.now - tx_hold
            if tx_start < msg.send_time:
                tx_start = msg.send_time
            self._record_wire(causal, msg, tx_start, arrival, rx_end)
        engine = self.engine
        if (
            done is None
            and dst_ep.sink is not None
            and not dst_ep.unfused
            and not self._delivery_hooks
            and engine._choice_hook is None
        ):
            # Fused delivery: nothing observes this message in real time
            # (no signal, no hooks, sink consumer) and no earlier delivery
            # to this sink is still waiting for its event, so fold the
            # delivery bookkeeping into this TX event.  The sink (the
            # runner's analytic drain lane) times the handle off
            # ``deliver_time``, so the timeline is bit-identical — only
            # the event is gone.
            self.fused_deliveries += 1
            size = msg.size_bytes
            dst_ep.rx_busy_s += rx_hold
            self.bytes_in_flight -= size
            self.messages_in_flight -= 1
            dst_ep.bytes_received += size
            dst_ep.messages_received += 1
            self.total_bytes += size
            self.total_messages += 1
            msg.deliver_time = rx_end
            dst_ep.sink(msg)
            return
        # The packed tuple is reused verbatim for the delivery event (one
        # fewer allocation per message); _deliver ignores the TX slots.
        dst_ep.unfused += 1
        engine._seq = seq = engine._seq + 1
        _heappush(engine._heap, (rx_end, seq, self._deliver_cb, packed))

    def _deliver(self, packed) -> None:
        """RX drain finished: book RX stats and deliver (``Signal.fire``
        is inlined: per-message calls matter at incast rates)."""
        msg, _src_ep, dst_ep, done, _tx_hold, rx_hold, _arrival = packed
        size = msg.size_bytes
        dst_ep.unfused -= 1
        dst_ep.rx_busy_s += rx_hold
        self.bytes_in_flight -= size
        self.messages_in_flight -= 1
        dst_ep.bytes_received += size
        dst_ep.messages_received += 1
        self.total_bytes += size
        self.total_messages += 1
        engine = self.engine
        msg.deliver_time = engine.now
        sink = dst_ep.sink
        if sink is not None and done.__class__ is not Gather:
            sink(msg)
        hooks = self._delivery_hooks
        if hooks:
            for hook in hooks:
                hook(msg)
        # Inlined Signal.fire (keep in sync): `done` is created unfired by
        # send() and fired exactly once, here (None for notify=False sends;
        # the Gather the transfer counts toward for gather sends).
        if done is not None:
            if done.__class__ is Gather:
                done.cause_id = msg.cause_id
                done.remaining -= 1
                if not done.remaining:
                    done._complete(engine, engine.now)
                return
            done._fired = True
            done._payload = msg
            waiters = done._waiters
            if waiters:
                done._waiters = None
                now = engine.now
                heap = engine._heap
                seq = engine._seq
                for cb in waiters:
                    seq += 1
                    _heappush(heap, (now, seq, cb, msg))
                engine._seq = seq

    def transfer_time_estimate(self, src: str, dst: str, size_bytes: int) -> float:
        """Uncontended end-to-end transfer time (analytic, for sizing).

        Contract: this is the *uncontended* bound — it assumes the TX and
        RX lanes are idle.  It equals the delivered latency exactly for
        a lone transfer on an idle network (asserted by
        ``tests/test_network.py``) and is a lower bound whenever a lane
        is contended; it never models queueing delay.
        """
        src_ep = self.endpoint(src)
        dst_ep = self.endpoint(dst)
        return (
            src_ep.serialize_time(size_bytes)
            + self.latency_s
            + dst_ep.serialize_time(size_bytes)
        )
