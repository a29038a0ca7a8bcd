"""Unit + property tests for the discrete-event engine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import (
    AllOf,
    Engine,
    SimulationError,
    Timeout,
)


class TestScheduling:
    def test_call_in_runs_at_right_time(self):
        eng = Engine()
        seen = []
        eng.call_in(2.0, lambda: seen.append(eng.now))
        eng.call_in(1.0, lambda: seen.append(eng.now))
        eng.run()
        assert seen == [1.0, 2.0]

    def test_fifo_at_equal_times(self):
        eng = Engine()
        seen = []
        for i in range(10):
            eng.call_in(1.0, lambda i=i: seen.append(i))
        eng.run()
        assert seen == list(range(10))

    def test_negative_delay_rejected(self):
        eng = Engine()
        with pytest.raises(SimulationError):
            eng.call_in(-0.1, lambda: None)

    def test_call_at_past_rejected(self):
        eng = Engine()
        eng.call_in(5.0, lambda: None)
        eng.run()
        with pytest.raises(SimulationError):
            eng.call_at(1.0, lambda: None)

    def test_run_until_stops_clock_at_until(self):
        eng = Engine()
        eng.call_in(10.0, lambda: None)
        eng.run(until=3.0)
        assert eng.now == 3.0
        assert eng.pending_events == 1
        eng.run()
        assert eng.now == 10.0

    def test_run_until_beyond_last_event_advances_clock(self):
        eng = Engine()
        eng.call_in(1.0, lambda: None)
        eng.run(until=7.5)
        assert eng.now == 7.5

    def test_max_events_budget(self):
        eng = Engine()
        for _ in range(5):
            eng.call_in(1.0, lambda: None)
        eng.run(max_events=3)
        assert eng.events_processed == 3
        assert eng.pending_events == 2

    def test_nested_scheduling(self):
        eng = Engine()
        seen = []

        def outer():
            seen.append(("outer", eng.now))
            eng.call_in(1.5, lambda: seen.append(("inner", eng.now)))

        eng.call_in(1.0, outer)
        eng.run()
        assert seen == [("outer", 1.0), ("inner", 2.5)]


    def test_pending_high_water_sees_growth_inside_the_drain(self):
        """The queue holds one event at ``run()`` entry and grows to
        ~5000 mid-drain: the stride-sampled mark must report the grown
        population, not the entry one."""
        eng = Engine()

        def burst():
            for i in range(5_000):
                eng.call_in(1.0 + i, lambda: None)

        eng.call_in(1.0, burst)
        assert eng.pending_high_water == 1
        eng.run()
        assert eng.pending_events == 0
        assert 3_900 <= eng.pending_high_water <= 5_000

    def test_removed_engine_options_raise(self):
        """Stale callers of the deleted queue/elision knobs fail loudly."""
        with pytest.raises(TypeError):
            Engine(calendar=False)
        with pytest.raises(TypeError):
            Engine().spawn(iter(()), elidable=True)


class TestSignal:
    def test_fire_resumes_waiters_with_payload(self):
        eng = Engine()
        sig = eng.signal("s")
        got = []
        sig.subscribe(got.append)
        sig.subscribe(got.append)
        sig.fire(42)
        eng.run()
        assert got == [42, 42]

    def test_subscribe_after_fire_immediate(self):
        eng = Engine()
        sig = eng.signal()
        sig.fire("x")
        got = []
        sig.subscribe(got.append)
        eng.run()
        assert got == ["x"]

    def test_double_fire_rejected(self):
        eng = Engine()
        sig = eng.signal("dup")
        sig.fire()
        with pytest.raises(SimulationError):
            sig.fire()

    def test_payload_before_fire_rejected(self):
        eng = Engine()
        sig = eng.signal()
        with pytest.raises(SimulationError):
            _ = sig.payload

    def test_foreign_engine_rejected(self):
        a, b = Engine(), Engine()
        sig = a.signal()
        with pytest.raises(SimulationError):
            sig._subscribe(b, lambda _: None)


class TestProcess:
    def test_simple_timeout_process(self):
        eng = Engine()
        log = []

        def proc():
            log.append(eng.now)
            yield Timeout(2.0)
            log.append(eng.now)
            yield Timeout(3.0)
            log.append(eng.now)
            return "done"

        p = eng.spawn(proc())
        eng.run()
        assert log == [0.0, 2.0, 5.0]
        assert p.finished and p.result == "done"

    def test_process_waits_on_signal(self):
        eng = Engine()
        sig = eng.signal()
        got = []

        def waiter():
            value = yield sig
            got.append((eng.now, value))

        eng.spawn(waiter())
        eng.call_in(4.0, lambda: sig.fire("hello"))
        eng.run()
        assert got == [(4.0, "hello")]

    def test_process_join(self):
        eng = Engine()

        def child():
            yield Timeout(1.0)
            return 99

        def parent():
            result = yield eng.spawn(child())
            return result + 1

        p = eng.spawn(parent())
        eng.run()
        assert p.result == 100

    def test_yield_non_waitable_raises(self):
        eng = Engine()

        def bad():
            yield "not a waitable"

        eng.spawn(bad())
        with pytest.raises(SimulationError):
            eng.run()

    def test_yield_bare_number_is_timeout(self):
        eng = Engine()
        seen = []

        def proc():
            got = yield 1.5
            seen.append((eng.now, got))
            got = yield 2  # ints work too
            seen.append((eng.now, got))

        eng.spawn(proc())
        eng.run()
        assert seen == [(1.5, None), (3.5, None)]

    def test_yield_negative_number_raises(self):
        eng = Engine()

        def bad():
            yield -0.5

        eng.spawn(bad())
        with pytest.raises(SimulationError):
            eng.run()

    def test_negative_timeout_rejected(self):
        with pytest.raises(SimulationError):
            Timeout(-1.0)

    def test_all_of_collects_in_order(self):
        eng = Engine()
        s1, s2 = eng.signal(), eng.signal()
        got = []

        def waiter():
            values = yield AllOf(eng, [s1, s2, Timeout(1.0, "t")])
            got.append((eng.now, values))

        eng.spawn(waiter())
        eng.call_in(5.0, lambda: s1.fire("a"))
        eng.call_in(2.0, lambda: s2.fire("b"))
        eng.run()
        assert got == [(5.0, ["a", "b", "t"])]

    def test_all_of_empty(self):
        eng = Engine()
        got = []

        def waiter():
            values = yield eng.all_of([])
            got.append(values)

        eng.spawn(waiter())
        eng.run()
        assert got == [[]]


class TestDeterminism:
    @given(
        delays=st.lists(
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False), min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_time_monotonic_and_repeatable(self, delays):
        def run():
            eng = Engine()
            seen = []
            for i, d in enumerate(delays):
                eng.call_in(d, lambda i=i: seen.append((eng.now, i)))
            eng.run()
            return seen

        a, b = run(), run()
        assert a == b
        times = [t for t, _ in a]
        assert times == sorted(times)


class TestCallEvery:
    def test_invalid_interval_rejected(self):
        with pytest.raises(SimulationError):
            Engine().call_every(0.0, lambda: None)

    def test_daemon_ticks_stop_with_workload(self):
        eng = Engine()
        ticks = []

        def work():
            yield Timeout(5.0)

        eng.spawn(work())
        eng.call_every(1.0, lambda: ticks.append(eng.now))
        end = eng.run()
        # the sampler never keeps the drained simulation alive
        assert end == pytest.approx(5.0)
        assert ticks == pytest.approx([1.0, 2.0, 3.0, 4.0, 5.0])

    def test_two_daemons_drain_together(self):
        eng = Engine()
        eng.call_every(1.0, lambda: None)
        eng.call_every(2.0, lambda: None)
        end = eng.run(max_events=100)
        # with no real work both samplers die after their first tick
        assert end <= 2.0
        assert eng.pending_events == 0


class TestCancellation:
    """The class name predates the deletion: a scheduled event cannot be
    retracted (``Engine.schedule``/``EventHandle`` and the tombstone set are
    gone — docs/PERFORMANCE.md, "Fast-path ledger").  What is left is the
    accounting the tombstones used to complicate."""

    def test_pending_events_accounting_across_bounded_runs(self):
        eng = Engine()
        for i in range(2_000):
            eng.call_in(float(i + 1), lambda: None)
        assert eng.pending_events == 2_000
        eng.run(max_events=300)
        assert eng.pending_events == 1_700
        eng.run(until=1_000.5)
        assert eng.pending_events == 1_000
        eng.run()
        assert eng.pending_events == 0
        assert eng.events_processed == 2_000

    def test_schedule_multi_arg_callback(self):
        eng = Engine()
        seen = []
        eng.call_at(0.5, lambda a, b: seen.append((a, b)), 1, 2)
        eng.call_in(0.5, lambda a, b, c: seen.append((a, b, c)), 3, 4, 5)
        eng.run()
        assert seen == [(1, 2), (3, 4, 5)]


class TestTieOrderUnderCancellation:
    """Same-time events run in scheduling order, re-posts included.

    Satellite property for the schedule explorer: its FIFO-default choice
    hook assumes tie groups present candidates in seq (schedule) order
    even after re-post churn at the same timestamp.  (The class name
    predates the deletion of tombstone cancellation.)
    """

    @given(
        n=st.integers(min_value=3, max_value=8),
        n_repost=st.integers(min_value=0, max_value=4),
        use_hook=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_survivors_run_in_schedule_order(self, n, n_repost, use_hook):
        eng = Engine()
        if use_hook:
            # A hook that always takes the default must be a no-op.
            eng.set_choice_hook(lambda when, group: 0)
        seen = []
        for i in range(n):
            eng.call_in(1.0, seen.append, i)
        eng.run(until=0.5)
        # Posted later for the *same* timestamp: fresh seqs, so they run
        # after every original member.
        for j in range(n_repost):
            eng.call_at(1.0, seen.append, n + j)
        eng.run()
        assert seen == list(range(n + n_repost))

    @given(
        n=st.integers(min_value=2, max_value=24),
        action_at=st.integers(min_value=0, max_value=23),
        use_hook=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_mid_drain_cancel_and_repost_keep_tie_order(self, n, action_at, use_hook):
        """A callback inside a same-instant tie group re-posts at the
        current instant: the group keeps schedule order and the re-post
        runs after every original member.  (Its cancel arms went with
        tombstone cancellation; the test id is unchanged.)"""
        action_at %= n
        eng = Engine()
        if use_hook:
            eng.set_choice_hook(lambda when, group: 0)
        seen = []

        def member(i):
            seen.append((eng.now, i))
            if i == action_at:
                eng.call_in(0.0, seen.append, (eng.now, "repost"))

        for i in range(n):
            eng.call_in(1.0, member, i)
        eng.call_in(50.0, seen.append, (50.0, "future"))
        eng.run()
        assert seen == [(1.0, i) for i in range(n)] + [(1.0, "repost"), (50.0, "future")]
        assert eng.pending_events == 0
