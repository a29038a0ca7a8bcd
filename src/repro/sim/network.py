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
``post`` (``send`` is its one-transfer case) advances the TX cursor and
posts one event at TX completion; that event claims the RX cursor and
posts the delivery event.  At most two heap events per transfer, no
process: a delivery nothing observes folds into the TX-completion event,
and a transfer into a fused :class:`Gather` posts none — its last one
schedules the private RX lane in closed form.  A :class:`Message` exists
only where the wire is observed (a delivery, delay or choice hook, a
causal trace or a delivery signal, present at the send); sinks are called
as ``sink(payload, deliver_time, cause_id)``.  The textbook
one-process-per-message description these cursors must reproduce bit for
bit lives in ``tests/reference_sim.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappush as _heappush
from typing import Any, Callable, Dict, Iterable, List, Optional

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
    """One observed transfer on the wire (see the module docstring).

    ``msg_id`` is assigned from a per-``Network`` counter that every
    transfer advances, observed or not, so identically-seeded runs in one
    process see identical id streams (a module-global counter would leak
    state across runs).

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
        #: The endpoint's consumer: every delivery is handed to
        #: ``sink(payload, deliver_time, cause_id)`` synchronously, in
        #: ``deliver_time`` order; with no sink a delivery reaches only its
        #: signal and the delivery hooks.  The consumer owns its own FIFO
        #: discipline and must time itself off ``deliver_time``: an
        #: unobserved signal-free delivery runs the sink early, inside the
        #: TX-completion event.
        self.sink: Optional[Callable[[Any, float, int], None]] = None
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
    :meth:`Network.join` it (no payload: it only counts), and the
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
        #: event, the sink's ``deliver_time`` the exact RX-drain instant;
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
        #: walk per event.  ``_start`` pushes ``(when, seq, fn, arg)``
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
        fallback), fused deliveries and fused gathers.  Install it before
        the transfers it should see are sent."""
        self._delivery_hooks.append(hook)

    def watcher(self) -> Optional[str]:
        """What observes the wire in real time — ``causal_obs``,
        ``choice_hook``, ``delay_hook`` or ``delivery_hook``, the first
        that does — or None: a watched wire fuses nothing."""
        if self.causal is not None:
            return "causal_obs"
        if self.engine._choice_hook is not None:
            return "choice_hook"
        if self.delay_hook is not None:
            return "delay_hook"
        if self._delivery_hooks:
            return "delivery_hook"
        return None

    def gather(self, dst, count: int, exclusive: bool = False) -> Gather:
        """Open a :class:`Gather` of ``count`` transfers into ``dst`` (Endpoint
        or node id): fused when ``exclusive`` and the wire is unobserved."""
        if count < 1:
            raise ValueError(f"a gather needs at least one transfer, got {count}")
        dst_ep = self.endpoint(dst) if dst.__class__ is str else dst
        self._check_private(dst_ep, self.engine.now)
        opened = Gather(dst_ep, count, [] if exclusive and self.watcher() is None else None)
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
        delivery.  The payload is also handed to the destination's
        :attr:`Endpoint.sink`, when it has one.  ``cause`` is the sender's
        causal span id (ignored unless a causal trace is attached via
        :attr:`causal`).  ``notify=False`` skips the delivery signal
        entirely and returns ``None``.  Timing is identical either way: the
        signal only ever *observes* delivery.  ``at`` (>= ``engine.now``)
        sends from a virtual instant instead of the engine clock — the
        runner's analytic drain lanes use it so a reply issued from a
        cascaded handle time serializes exactly when a server process
        waking at that time would have sent it.  ``dst`` may be an open
        :class:`Gather`: the transfer joins it (:meth:`join`) instead of
        reaching a sink or signal, and the call returns ``None``.  A send
        is :meth:`post`'s one-transfer case."""
        # ``src``/``dst`` may be Endpoint objects instead of node ids: at
        # 100k workers the endpoint registry is a large dict and the two
        # lookups per send are cache misses; hot callers (the runner)
        # memoize their endpoints and skip the registry entirely.
        src_ep = self.endpoint(src) if src.__class__ is str else src
        if dst.__class__ is Gather:
            self.join(src_ep, dst, size_bytes, tag, cause, at)
            return None
        dst_ep = self.endpoint(dst) if dst.__class__ is str else dst
        done = None
        if notify:
            # Manual slot fills mirror Signal.__init__ (keep in sync); the
            # constant name avoids per-message f-string churn.
            done = _SIGNAL_NEW(Signal)
            done._engine = self.engine
            done._fired = False
            done._payload = None
            done._waiters = None
            done.name = "deliver"
        self._start(src_ep, ((dst_ep, size_bytes, payload, tag),), cause, at, done)
        return done

    def post(self, src: Endpoint, transfers: Iterable[tuple], cause: int = -1) -> None:
        """``send(src, dst, size_bytes, payload, tag, cause, notify=False)``
        for each ``(dst, size_bytes, payload, tag)`` of ``transfers`` in
        order (endpoints only), in one call."""
        self._start(src, transfers, cause, -1.0, None)

    def _start(self, src_ep: Endpoint, transfers, cause: int, at: float, done) -> None:
        """The wire's lane rule, applied to each transfer in order.  ``done``
        (a :class:`Signal`, or an unfused :class:`Gather`) observes the one
        transfer it is given with."""
        engine = self.engine
        now = engine.now
        if at >= 0.0:
            if at < now:
                raise ValueError(f"cannot send from the past: {at} < {now}")
            now = at
        # A Message only for a transfer something watches (a signal fires
        # with it); manual slot fills mirror Message.__init__ (keep in sync).
        watched = (done is not None and done.__class__ is not Gather) or self.watcher() is not None
        latency = self.latency_s
        tx_done = self._tx_done_cb
        heap = engine._heap
        src_ser = src_ep._ser_times
        # The cursors advance in locals and are written back once, also if
        # a check refuses a transfer midway (its predecessors stand).
        mid = first = self._next_msg_id
        seq = engine._seq
        tx_free = src_ep.tx_free_at
        nbytes = 0
        try:
            for dst_ep, size_bytes, payload, tag in transfers:
                if size_bytes < 0:
                    raise ValueError(f"negative message size: {size_bytes}")
                # One identity test on the hot path: it differs only for a
                # send into a privately held lane, or a non-exclusive gather.
                if dst_ep.gather is not done:
                    self._check_private(dst_ep, now)
                msg = None
                if watched:
                    msg = _MESSAGE_NEW(Message)
                    msg.src = src_ep.node_id
                    msg.dst = dst_ep.node_id
                    msg.size_bytes = size_bytes
                    msg.tag = tag
                    msg.payload = payload
                    msg.msg_id = mid
                    msg.send_time = now
                    msg.deliver_time = -1.0
                    msg.cause_id = cause
                # Inlined :meth:`Endpoint.serialize_time` memo; rx_hold and
                # arrival are precomputed so the TX-completion event does no lookups.
                tx_hold = src_ser.get(size_bytes)
                if tx_hold is None:
                    tx_hold = src_ser[size_bytes] = src_ep.nic.serialize_time(size_bytes)
                ser = dst_ep._ser_times
                rx_hold = ser.get(size_bytes)
                if rx_hold is None:
                    rx_hold = ser[size_bytes] = dst_ep.nic.serialize_time(size_bytes)
                # The TX lane is a capacity-1 FIFO: max(now, free_at) + hold
                # is the float addition a lane-acquiring process performs, so
                # the cursors reproduce the reference timeline bit for bit —
                # the one lane rule, spelled for n = 1 (``_seq_cascade`` in the
                # runner is its n > 1 spelling, for the round collapse).
                tx_free = (tx_free if tx_free > now else now) + tx_hold
                seq += 1
                packed = (
                    msg, src_ep, dst_ep, done, tx_hold, rx_hold, tx_free + latency,
                    payload, size_bytes, cause,
                )
                _heappush(heap, (tx_free, seq, tx_done, packed))
                mid += 1
                nbytes += size_bytes
        finally:
            self._next_msg_id = mid
            engine._seq = seq
            src_ep.tx_free_at = tx_free
            self.bytes_in_flight += nbytes
            self.messages_in_flight += mid - first
            self.fast_path_transfers += mid - first

    def join(
        self,
        src: Endpoint,
        into: Gather,
        size_bytes: int,
        tag: str = "",
        cause: int = -1,
        at: float = -1.0,
    ) -> None:
        """One transfer from ``src`` into the open gather ``into``: what
        ``send(src, into, size_bytes, tag=tag, cause=cause, at=at)`` does,
        without its argument handling but with its checks.

        A fused gather's transfer is no message and no event.  The TX side
        advances as a plain send at ``at`` advances it (one msg id and one
        seq consumed: later transfers keep their ids and tie ranks); the
        last transfer replays the RX claims the per-transfer TX-completion
        events would make — ``(tx_end, send seq)`` order, same float ops,
        same ``rx_busy_s`` accumulation — and posts the waiter at the final
        ``rx_free``."""
        dst_ep = into.dst
        if not into.remaining:
            raise ValueError(f"gather into {dst_ep.node_id} is already complete")
        legs = into._legs
        if legs is None:
            self._start(src, ((dst_ep, size_bytes, None, tag),), cause, at, into)
            return
        engine = self.engine
        now = engine.now
        if at >= 0.0:
            if at < now:
                raise ValueError(f"cannot send from the past: {at} < {now}")
            now = at
        if dst_ep.gather is not into:
            self._check_private(dst_ep, now)
        if size_bytes < 0:
            raise ValueError(f"negative message size: {size_bytes}")
        self._next_msg_id += 1
        engine._seq = seq = engine._seq + 1
        ser = src._ser_times
        tx_hold = ser.get(size_bytes)
        if tx_hold is None:
            tx_hold = ser[size_bytes] = src.nic.serialize_time(size_bytes)
        tx_free = src.tx_free_at
        src.tx_free_at = tx_end = (tx_free if tx_free > now else now) + tx_hold
        src.tx_busy_s += tx_hold
        src.bytes_sent += size_bytes
        src.messages_sent += 1
        legs.append((tx_end, seq, size_bytes))
        into.remaining -= 1
        if into.remaining:
            return
        legs.sort()
        latency = self.latency_s
        ser = dst_ep._ser_times
        rx_free = dst_ep.rx_free_at
        rx_busy = dst_ep.rx_busy_s
        nbytes = 0
        for tx_end, _seq, size in legs:
            rx_hold = ser.get(size)
            if rx_hold is None:
                rx_hold = ser[size] = dst_ep.nic.serialize_time(size)
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
        into._complete(engine, rx_free)

    @staticmethod
    def _record_wire(causal, msg, tx_start: float, arrival: float, rx_end: float) -> int:
        """One transfer's three causal spans; ``msg.cause_id`` becomes the
        rx span, which is returned."""
        tag = msg.tag
        q = causal.record(msg.cause_id, msg.src, "tx_queue", msg.send_time, tx_start, tag=tag)
        w = causal.record(q, f"{msg.src}->{msg.dst}", "wire", tx_start, arrival, tag=tag)
        msg.cause_id = causal.record(w, msg.dst, "rx", arrival, rx_end, tag=tag)
        return msg.cause_id

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
        msg, src_ep, dst_ep, done, tx_hold, rx_hold, arrival, payload, size, cause = packed
        src_ep.tx_busy_s += tx_hold
        src_ep.bytes_sent += size
        src_ep.messages_sent += 1
        rx_free = dst_ep.rx_free_at
        rx_end = (rx_free if rx_free > arrival else arrival) + rx_hold
        engine = self.engine
        if msg is not None:  # watched when sent
            delay_hook = self.delay_hook
            if delay_hook is not None:
                extra = delay_hook(msg)
                if extra < 0:
                    raise ValueError(f"delay_hook returned negative delay {extra}")
                rx_end += extra
            causal = self.causal
            if causal is not None:
                # Bookkeeping over fixed timestamps (send_time, tx_end = now,
                # arrival, rx_end): the timeline is bit-identical either way.
                # now - tx_hold can land one ulp before send_time for an
                # uncontended TX lane; clamp so the queue span never inverts.
                tx_start = engine.now - tx_hold
                if tx_start < msg.send_time:
                    tx_start = msg.send_time
                cause = self._record_wire(causal, msg, tx_start, arrival, rx_end)
                packed = packed[:-1] + (cause,)
        dst_ep.rx_free_at = rx_end
        if (
            done is None
            and dst_ep.sink is not None
            and not dst_ep.unfused
            and (msg is None or not self._delivery_hooks and engine._choice_hook is None)
        ):
            # Fused delivery: nothing observes this transfer in real time
            # (no signal, no hooks, sink consumer) and no earlier delivery
            # to this sink is still waiting for its event, so fold the
            # delivery bookkeeping into this TX event.  The sink (the
            # runner's analytic drain lane) times the handle off its
            # ``deliver_time``, so the timeline is bit-identical — only
            # the event is gone.
            self.fused_deliveries += 1
            dst_ep.rx_busy_s += rx_hold
            self.bytes_in_flight -= size
            self.messages_in_flight -= 1
            dst_ep.bytes_received += size
            dst_ep.messages_received += 1
            self.total_bytes += size
            self.total_messages += 1
            dst_ep.sink(payload, rx_end, cause)
            return
        # The packed tuple is reused verbatim for the delivery event (one
        # fewer allocation per transfer); _deliver ignores the TX slots.
        dst_ep.unfused += 1
        engine._seq = seq = engine._seq + 1
        _heappush(engine._heap, (rx_end, seq, self._deliver_cb, packed))

    def _deliver(self, packed) -> None:
        """RX drain finished: book RX stats and deliver (``Signal.fire``
        is inlined: per-message calls matter at incast rates)."""
        msg, _src_ep, dst_ep, done, _tx_hold, rx_hold, _arrival, payload, size, cause = packed
        dst_ep.unfused -= 1
        dst_ep.rx_busy_s += rx_hold
        self.bytes_in_flight -= size
        self.messages_in_flight -= 1
        dst_ep.bytes_received += size
        dst_ep.messages_received += 1
        self.total_bytes += size
        self.total_messages += 1
        engine = self.engine
        now = engine.now
        if msg is not None:
            msg.deliver_time = now
        sink = dst_ep.sink
        if sink is not None and done.__class__ is not Gather:
            sink(payload, now, cause)
        hooks = self._delivery_hooks
        if hooks:
            for hook in hooks:
                hook(msg)
        # Inlined Signal.fire (keep in sync): `done` is created unfired by
        # send() and fired exactly once, here (None for signal-free
        # transfers; the Gather the transfer counts toward for gather ones).
        if done is not None:
            if done.__class__ is Gather:
                done.cause_id = cause
                done.remaining -= 1
                if not done.remaining:
                    done._complete(engine, now)
                return
            done._fired = True
            done._payload = msg
            waiters = done._waiters
            if waiters:
                done._waiters = None
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
