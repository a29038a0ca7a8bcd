"""Deterministic discrete-event engine with generator-based processes.

The engine is a priority queue of ``(time, seq)``-ordered callbacks plus a
small process runtime: a *process* is a Python generator that ``yield``\\ s
waitables (:class:`Timeout`, :class:`Signal`, :class:`AllOf`, another
:class:`Process`) and is resumed with the waitable's payload.  Ties at the
same timestamp resolve in scheduling order (``seq``), so a run is a pure
function of its inputs — required for reproducible co-simulation.

This is intentionally simpy-shaped but self-contained (no network access
for dependencies) and small enough to property-test exhaustively.

Hot-path design (measured by :mod:`repro.bench.perf`):

- heap entries are flat ``(when, seq, fn, arg)`` tuples — no per-event
  closure or argument tuple (every internal resume callback takes
  exactly one payload argument), and ordering never compares past
  ``seq`` (unique), so the heap stays on C-level tuple comparison;
- a scheduled event cannot be retracted: the heap only ever grows by
  pushes and shrinks by pops, so no drain tests an entry for liveness;
- :class:`Process` resumption type-dispatches on the yielded waitable:
  the overwhelmingly common ``yield Timeout(...)`` and ``yield Signal``
  cases schedule directly on the heap, skipping the generic
  ``Waitable._subscribe`` double dispatch; a bare ``yield <number>`` is
  the zero-allocation spelling of ``yield Timeout(number)`` used by the
  simulator's hottest loops;
- :meth:`Engine.run` drains with an inlined loop over local references
  rather than calling :meth:`step` per event, and raises the cyclic-GC
  gen-0 threshold for the duration of a full drain (restored on exit):
  the loop allocates short-lived tracked objects (messages, signals,
  heap tuples) at MHz rates, and the interpreter default of ~700
  allocations per collection costs ~15% of wall time in collector
  sweeps over objects that refcounting alone reclaims.  Large drains
  (>= ``_GC_FREEZE_PENDING`` pending events, i.e. 10k-worker-scale
  topologies) additionally ``gc.freeze()`` the long-lived object graph
  (processes, endpoints, parameter shards) so the collections that do
  happen stop re-traversing it; ``gc.unfreeze()`` restores it on exit.
"""

from __future__ import annotations

import gc
import heapq
from typing import Any, Callable, Generator, Iterable, List, Optional, Tuple

ProcessGen = Generator["Waitable", Any, Any]

_heappush = heapq.heappush
_heappop = heapq.heappop

#: Gen-0 allocation threshold while :meth:`Engine.run` drains the heap.
#: Collections still happen (memory stays bounded, unlike ``gc.disable``),
#: just ~140x less often; ~100k small tracked objects is a few MB of arena.
_GC_DRAIN_GEN0 = 100_000

#: Pending-event count above which a full drain freezes the long-lived
#: object graph (``gc.freeze``/``gc.unfreeze``) for the duration: at
#: 10k-worker scale the resident processes/endpoints/shards cost ~30% of
#: wall time in collector traversals that can never free them.  Small
#: drains (every micro benchmark, the 128-worker macro) stay below this
#: and pay nothing.
_GC_FREEZE_PENDING = 5_000

#: The full drain samples the heap size for ``pending_high_water`` once
#: per ``_HWM_SAMPLE_MASK + 1`` served events (and at drain entry).
_HWM_SAMPLE_MASK = 1023


def _invoke0(fn: Callable[[], None]) -> None:
    """Adapter: run a zero-argument callback under the one-arg protocol."""
    fn()


def _invoke_n(packed: Tuple[Callable[..., None], Tuple[Any, ...]]) -> None:
    """Adapter: run a multi-argument callback under the one-arg protocol."""
    fn, args = packed
    fn(*args)


class SimulationError(RuntimeError):
    """Raised for engine misuse (double fire, yield of a non-waitable...)."""


class Waitable:
    """Base class for things a process may ``yield``."""

    def _subscribe(self, engine: "Engine", callback: Callable[[Any], None]) -> None:
        raise NotImplementedError


class Timeout(Waitable):
    """Resume the waiting process after ``delay`` simulated seconds."""

    __slots__ = ("delay", "value")

    def __init__(self, delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout: {delay}")
        self.delay = delay
        self.value = value

    def _subscribe(self, engine: "Engine", callback: Callable[[Any], None]) -> None:
        engine._schedule(engine.now + self.delay, callback, self.value)


class Signal(Waitable):
    """One-shot event.  ``fire(payload)`` resumes every waiter with payload.

    Subscribing after the signal has fired resumes immediately (at the
    current simulated time), so there is no lost-wakeup hazard.
    """

    __slots__ = ("_engine", "_fired", "_payload", "_waiters", "name")

    def __init__(self, engine: "Engine", name: str = ""):
        # NOTE: repro.sim.network.Network.send fills these slots manually
        # (skipping this frame) — keep the two in sync.
        self._engine = engine
        self._fired = False
        self._payload: Any = None
        # Lazily allocated: most signals fire with zero or one waiter, and
        # the network fast path creates one signal per message.
        self._waiters: Optional[List[Callable[[Any], None]]] = None
        self.name = name

    @property
    def fired(self) -> bool:
        return self._fired

    @property
    def payload(self) -> Any:
        if not self._fired:
            raise SimulationError(f"signal {self.name!r} has not fired")
        return self._payload

    def fire(self, payload: Any = None) -> None:
        """Fire the signal once, resuming every current waiter with ``payload``."""
        if self._fired:
            raise SimulationError(f"signal {self.name!r} fired twice")
        self._fired = True
        self._payload = payload
        waiters = self._waiters
        if waiters:
            # Inlined _schedule: one fire per delivered message makes this
            # loop hot (repro.bench.perf network/macro numbers).
            self._waiters = None
            eng = self._engine
            now = eng.now
            heap = eng._heap
            seq = eng._seq
            for cb in waiters:
                seq += 1
                _heappush(heap, (now, seq, cb, payload))
            eng._seq = seq

    def _subscribe(self, engine: "Engine", callback: Callable[[Any], None]) -> None:
        if engine is not self._engine:
            raise SimulationError("signal subscribed from a foreign engine")
        if self._fired:
            engine._schedule(engine.now, callback, self._payload)
        elif self._waiters is None:
            self._waiters = [callback]
        else:
            self._waiters.append(callback)

    def subscribe(self, callback: Callable[[Any], None]) -> None:
        """Public hook: run ``callback(payload)`` when the signal fires
        (immediately, at the current sim time, if it already has)."""
        self._subscribe(self._engine, callback)


class AllOf(Waitable):
    """Resume when every child waitable has completed; payload is the list
    of child payloads in the original order."""

    __slots__ = ("_engine", "_children")

    def __init__(self, engine: "Engine", children: Iterable[Waitable]):
        self._engine = engine
        self._children = list(children)

    def _subscribe(self, engine: "Engine", callback: Callable[[Any], None]) -> None:
        n = len(self._children)
        if n == 0:
            engine._schedule(engine.now, callback, [])
            return
        results: List[Any] = [None] * n
        remaining = [n]

        def make_cb(i: int) -> Callable[[Any], None]:
            def _cb(value: Any) -> None:
                results[i] = value
                remaining[0] -= 1
                if remaining[0] == 0:
                    callback(results)

            return _cb

        for i, child in enumerate(self._children):
            child._subscribe(engine, make_cb(i))


class Process(Waitable):
    """A running generator.  Waitable: joiners get the generator's return.

    The completion :class:`Signal` is created lazily — a process nobody
    joins (e.g. one network transfer) never allocates it.
    """

    __slots__ = ("_engine", "_gen", "_done", "_finished", "_result", "_step_cb", "name")

    def __init__(self, engine: "Engine", gen: ProcessGen, name: str = ""):
        self._engine = engine
        self._gen = gen
        self._done: Optional[Signal] = None
        self._finished = False
        self._result: Any = None
        #: One closure per process (not per event): resolves gen.send, the
        #: engine, and its heap once, so each resume runs on fast locals
        #: instead of repeated attribute loads and bound-method binding.
        self._step_cb = self._make_step()
        self.name = name

    @property
    def finished(self) -> bool:
        return self._finished

    @property
    def result(self) -> Any:
        if not self._finished:
            raise SimulationError(f"process {self.name!r} has not finished")
        return self._result

    def _start(self, start_at: Optional[float] = None) -> None:
        eng = self._engine
        when = eng.now if start_at is None else start_at
        if when < eng.now:
            raise SimulationError(
                f"process {self.name!r} cannot start in the past "
                f"(start_at={when} < now={eng.now})"
            )
        eng._schedule(when, self._step_cb, None)

    def _make_step(self) -> Callable[[Any], None]:
        send = self._gen.send
        eng = self._engine
        heap = eng._heap  # never reassigned
        push = _heappush

        def step(value: Any) -> None:
            try:
                yielded = send(value)
            except StopIteration as stop:
                self._finished = True
                self._result = stop.value
                if self._done is not None:
                    self._done.fire(stop.value)
                return
            # Type dispatch, commonest waitables first (bare-number delays,
            # then signal waits — the network fast path resolves every send
            # through a Signal): Timeout and Signal resume straight through
            # the heap (inlined _schedule), skipping the generic _subscribe
            # double dispatch.
            cls = yielded.__class__
            if cls is float or cls is int:
                # Zero-allocation timeout: `yield d` == `yield Timeout(d)`
                # with a None payload.  Negative delays land in the past and
                # are rejected by the drain loop's monotonicity check.
                eng._seq = seq = eng._seq + 1
                push(heap, (eng.now + yielded, seq, step, None))
            elif cls is Signal:
                if eng is not yielded._engine:
                    raise SimulationError("signal subscribed from a foreign engine")
                if yielded._fired:
                    eng._seq = seq = eng._seq + 1
                    push(heap, (eng.now, seq, step, yielded._payload))
                elif yielded._waiters is None:
                    yielded._waiters = [step]
                else:
                    yielded._waiters.append(step)
            elif cls is Timeout:
                eng._seq = seq = eng._seq + 1
                push(heap, (eng.now + yielded.delay, seq, step, yielded.value))
            elif isinstance(yielded, Waitable):
                yielded._subscribe(eng, step)
            else:
                raise SimulationError(
                    f"process {self.name!r} yielded {type(yielded).__name__}; "
                    "processes must yield a delay number or "
                    "Timeout/Signal/AllOf/Process"
                )

        return step

    def _join_signal(self) -> Signal:
        if self._done is None:
            self._done = Signal(self._engine, name=self.name + ".done")
            if self._finished:
                # Late subscriber to an already-finished process: fire now
                # so _subscribe resumes it at the current sim time.
                self._done.fire(self._result)
        return self._done

    def _subscribe(self, engine: "Engine", callback: Callable[[Any], None]) -> None:
        self._join_signal()._subscribe(engine, callback)


class Engine:
    """The event loop.  All times are simulated seconds, starting at 0."""

    __slots__ = (
        "now",
        "_heap",
        "_seq",
        "_events_processed",
        "_daemon_pending",
        "_choice_hook",
        "_pending_hwm",
        "_rounds_collapsed",
        "_round_events_saved",
    )

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: List[Tuple[float, int, Callable[[Any], None], Any]] = []
        self._seq = 0
        self._events_processed = 0
        self._daemon_pending = 0  # scheduled call_every ticks (see below)
        #: Optional scheduling choice hook (see :meth:`set_choice_hook`).
        self._choice_hook: Optional[Callable[[float, List[Tuple]], int]] = None
        #: Pending-event high-water mark, sampled at drain entry and every
        #: ``_HWM_SAMPLE_MASK + 1`` events of a full drain — not per push.
        self._pending_hwm = 0
        #: Closed-form round fast-forward credit counters (the round
        #: analytics live in the runner).
        self._rounds_collapsed = 0
        self._round_events_saved = 0

    # -- raw callback scheduling --------------------------------------

    def _schedule(self, when: float, fn: Callable[[Any], None], arg: Any) -> None:
        """Hot-path scheduling (one-arg callback protocol, no validation)."""
        self._seq = seq = self._seq + 1
        _heappush(self._heap, (when, seq, fn, arg))

    @property
    def pending_high_water(self) -> int:
        """Largest pending-event population observed, sampled at drain
        entry, every ``_HWM_SAMPLE_MASK + 1`` events of a full drain, and
        on read."""
        pend = len(self._heap)
        if pend > self._pending_hwm:
            self._pending_hwm = pend
        return self._pending_hwm

    @property
    def rounds_collapsed(self) -> int:
        """Whole protocol rounds advanced in closed form (no events)."""
        return self._rounds_collapsed

    @property
    def round_events_saved(self) -> int:
        """Events the collapsed rounds would have scheduled and served."""
        return self._round_events_saved

    def credit_collapsed_round(self, events_saved: int) -> None:
        """Account one analytically committed protocol round.

        ``events_saved`` is the exact event census the event path would
        have scheduled and served for the round.  The clock is *not*
        advanced here: a partial collapse de-vectorizes the first
        non-quiet round at instants that precede the committed rounds'
        last event, so the drain must still be allowed to start from the
        earlier time.  A fully collapsed run (no events left) sets ``now``
        to the final instant itself before :meth:`run` returns on the
        empty queue."""
        self._rounds_collapsed += 1
        self._round_events_saved += events_saved

    def _pack(self, fn: Callable[..., None], args: Tuple[Any, ...]):
        """Adapt an external ``fn(*args)`` callback to the one-arg protocol."""
        if not args:
            return _invoke0, fn
        if len(args) == 1:
            return fn, args[0]
        return _invoke_n, (fn, args)

    def call_in(self, delay: float, fn: Callable[..., None], *args: Any) -> None:
        """Schedule ``fn(*args)`` after ``delay`` seconds (FIFO at ties)."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        cb, arg = self._pack(fn, args)
        self._schedule(self.now + delay, cb, arg)

    def call_at(self, when: float, fn: Callable[..., None], *args: Any) -> None:
        """Schedule ``fn(*args)`` at absolute simulated time ``when``."""
        if when < self.now:
            raise SimulationError(f"cannot schedule into the past: {when} < {self.now}")
        cb, arg = self._pack(fn, args)
        self._schedule(when, cb, arg)

    def post(self, when: float, fn: Callable[[Any], None], arg: Any = None) -> None:
        """Schedule ``fn(arg)`` at absolute time ``when`` on the internal
        one-argument callback protocol.

        This is the public spelling of the hot path that :meth:`call_at`
        wraps: no adapter tuple is allocated, so per-event cost stays at
        one heap push.  ``fn`` *must* accept exactly one positional
        argument (pack multiple values into a tuple).  The network's
        analytic lane scheduler posts its per-message events on this
        protocol (inlining ``_schedule``, this method minus the
        past-check — only safe when the timestamp is provably ``>= now``).
        """
        if when < self.now:
            raise SimulationError(f"cannot schedule into the past: {when} < {self.now}")
        self._schedule(when, fn, arg)

    def call_every(self, interval: float, fn: Callable[[], None]) -> None:
        """Run ``fn()`` every ``interval`` seconds as a *daemon*: the tick
        reschedules itself only while non-daemon events remain pending, so
        periodic samplers (metric snapshots) never keep a drained
        simulation alive.  The first tick fires after ``interval``."""
        if interval <= 0:
            raise SimulationError(f"call_every interval must be positive, got {interval}")

        def tick() -> None:
            self._daemon_pending -= 1
            fn()
            # Reschedule only if real work remains beyond other daemon ticks.
            if self.pending_events > self._daemon_pending:
                self._daemon_pending += 1
                self.call_in(interval, tick)

        self._daemon_pending += 1
        self.call_in(interval, tick)

    # -- process/waitable API ------------------------------------------

    def spawn(
        self,
        gen: ProcessGen,
        name: str = "",
        start_at: Optional[float] = None,
    ) -> Process:
        """Start a generator as a process; returns a joinable Process.

        ``start_at`` schedules the first resume at an absolute instant at
        or after ``now`` instead of immediately — the round-collapse
        runner uses it to re-materialize workers mid-run at their
        per-worker analytic clocks.  Spawn order still decides seq order
        at equal instants.
        """
        proc = Process(self, gen, name=name)
        proc._start(start_at)
        return proc

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """A waitable that resumes after ``delay`` seconds."""
        return Timeout(delay, value)

    def signal(self, name: str = "") -> Signal:
        """A fresh one-shot signal bound to this engine."""
        return Signal(self, name=name)

    def all_of(self, children: Iterable[Waitable]) -> AllOf:
        """A waitable that completes when every child completes."""
        return AllOf(self, children)

    # -- running --------------------------------------------------------

    def set_choice_hook(
        self, hook: Optional[Callable[[float, List[Tuple]], int]]
    ) -> None:
        """Install (or clear, with ``None``) a scheduling choice hook.

        The default drain resolves same-timestamp ties in scheduling order
        (``seq``).  With a hook installed, every group of two or more live
        events tied at the next timestamp is handed to
        ``hook(when, group)`` — ``group`` is the list of ``(when, seq, fn,
        arg)`` heap entries in seq order — and the returned index picks
        which one runs first; the rest go back on the heap (keeping their
        seqs, so the default FIFO order among them is preserved until the
        hook is consulted again).  Index 0 reproduces the default
        schedule exactly.

        This is the model checker's commutation point
        (:mod:`repro.analysis.explore`): it only affects the slow
        per-event path, never the inlined fast drain, so hookless runs
        pay nothing.
        """
        self._choice_hook = hook

    def _step_choice(self) -> bool:
        """One event via the choice hook: collect the tie group at the
        next timestamp, let the hook pick, push the rest back."""
        heap = self._heap
        group: List[Tuple[float, int, Callable[[Any], None], Any]] = []
        # Pop every entry tied at the next timestamp (seq order).
        while heap and (not group or heap[0][0] <= group[0][0]):
            group.append(_heappop(heap))
        if not group:
            return False
        choice = 0
        if len(group) > 1:
            choice = self._choice_hook(group[0][0], group)
            if not 0 <= choice < len(group):
                raise SimulationError(
                    f"choice hook returned {choice} for a group of {len(group)}"
                )
            for i, entry in enumerate(group):
                if i != choice:
                    _heappush(heap, entry)
        when, _seq, fn, arg = group[choice]
        if when < self.now:
            raise SimulationError("event heap corrupted: time went backwards")
        self.now = when
        self._events_processed += 1
        fn(arg)
        return True

    def step(self) -> bool:
        """Run one event; returns False when the queue is empty."""
        if self._choice_hook is not None:
            return self._step_choice()
        if not self._heap:
            return False
        when, _seq, fn, arg = _heappop(self._heap)
        if when < self.now:
            raise SimulationError("event heap corrupted: time went backwards")
        self.now = when
        self._events_processed += 1
        fn(arg)
        return True

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Drain events (optionally only up to time ``until``); returns now."""
        if until is None and max_events is None:
            if self._choice_hook is not None:
                # Choice-hook runs route through the per-event slow path:
                # correctness tooling, not a perf surface.
                while self._step_choice():
                    pass
                return self.now
            # Fast drain: the inlined loop over local refs is what every
            # full simulation pays per event (see repro.bench.perf).  The
            # gen-0 GC threshold is raised for the drain (see module
            # docstring) and restored even if a callback raises; drains
            # starting at 10k-worker-scale pending counts also freeze the
            # long-lived object graph for the duration.
            heap = self._heap
            pop = _heappop
            processed = 0
            hwm = len(heap)
            hwm_mask = _HWM_SAMPLE_MASK
            saved_thresholds = gc.get_threshold()
            gc.set_threshold(
                max(saved_thresholds[0], _GC_DRAIN_GEN0), *saved_thresholds[1:]
            )
            frozen = hwm >= _GC_FREEZE_PENDING
            if frozen:
                gc.collect()
                gc.freeze()
            try:
                while heap:
                    when, _seq, fn, arg = pop(heap)
                    if when < self.now:
                        raise SimulationError(
                            "event heap corrupted: time went backwards"
                        )
                    self.now = when
                    processed += 1
                    fn(arg)
                    if not processed & hwm_mask and len(heap) > hwm:
                        hwm = len(heap)
            finally:
                self._events_processed += processed
                if hwm > self._pending_hwm:
                    self._pending_hwm = hwm
                gc.set_threshold(*saved_thresholds)
                if frozen:
                    gc.unfreeze()
            return self.now
        budget = max_events if max_events is not None else float("inf")
        while budget > 0 and self._heap:
            if until is not None and self._heap[0][0] > until:
                self.now = until
                return self.now
            if self.step():
                budget -= 1
        if until is not None and until > self.now:
            self.now = until
        return self.now

    @property
    def pending_events(self) -> int:
        return len(self._heap)

    @property
    def events_processed(self) -> int:
        return self._events_processed

