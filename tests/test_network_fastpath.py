"""Differential tests: the analytic lane scheduler vs the reference wire.

The wire's correctness claim is *exact* timing equivalence with the
textbook one-process-per-message description
(``tests/reference_sim.py``): not a single delivered timestamp may
differ, at any preset, under any seeded schedule.  These tests run
identical traffic through the production ``Network`` and the reference
and compare by the shared rule (``tests/sim_helpers.py``), including
entire co-simulated training runs on every cluster preset.
"""

import numpy as np
import pytest

from repro.sim.engine import Engine
from repro.sim.network import Network, NicSpec

from tests.mutants import fused_overtakes_unfused
from tests.reference_sim import reference_wire
from tests.sim_helpers import (
    assert_matches_reference,
    assert_same_wire,
    endpoint_counters,
    preset_configs,
    real_gradient_cell,
    wire_row,
)


def _run_schedule(schedule, latency_s, nics):
    """Replay ``schedule`` (time, src, dst, size) on a fresh production
    network.  Returns the delivery trace plus the per-endpoint accounting
    — shaped as :func:`reference_wire` returns them — and the network."""
    eng = Engine()
    net = Network(eng, latency_s=latency_s)
    for node, nic in nics.items():
        net.add_node(node, nic)
    trace = []
    net.on_delivery(lambda m: trace.append(wire_row(m)))
    for when, src, dst, size in schedule:
        eng.call_at(when, net.send, src, dst, size)
    eng.run()
    return trace, endpoint_counters(net), net


def _random_schedule(rng, nodes, n_msgs, spread_s):
    sched = []
    for _ in range(n_msgs):
        src, dst = rng.choice(nodes, size=2, replace=False)
        size = int(rng.choice([0, 1, 1024, 64 * 1024, 1024 * 1024]))
        sched.append((float(rng.uniform(0, spread_s)), str(src), str(dst), size))
    # Deterministic issue order at equal times: sort by time, then insertion.
    sched.sort(key=lambda s: s[0])
    return sched


class TestMicroDifferential:
    """Seeded random schedules over the parameter grid, vs the reference."""

    @pytest.mark.parametrize("latency_s", [0.0, 50e-6])
    @pytest.mark.parametrize("overhead_s", [0.0, 30e-6])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_schedules_identical(self, latency_s, overhead_s, seed):
        """These degenerate schedules (zero overhead, zero-byte messages,
        a handful of repeated sizes) manufacture float ties everywhere;
        every destination must still see the reference's deliveries."""
        rng = np.random.default_rng(seed)
        nodes = [f"n{i}" for i in range(5)]
        nics = {n: NicSpec(bandwidth_Bps=1e8, overhead_s=overhead_s) for n in nodes}
        sched = _random_schedule(rng, nodes, n_msgs=60, spread_s=2e-3)
        fast, fast_stats, fast_net = _run_schedule(sched, latency_s, nics)
        slow, slow_stats = reference_wire(sched, latency_s, nics)
        assert_same_wire(fast, slow)
        assert fast_stats == slow_stats
        assert fast_net.total_bytes == sum(row[3] for row in slow)
        assert fast_net.fast_path_transfers == len(sched)

    def test_incast_burst_identical(self):
        """The paper's §II-B hot case: N senders, one receiver, same instant."""
        nodes = ["sink"] + [f"w{i}" for i in range(16)]
        nics = {n: NicSpec(bandwidth_Bps=125e6, overhead_s=20e-6) for n in nodes}
        sched = [(0.0, f"w{i}", "sink", 64 * 1024) for i in range(16)]
        sched += [(1e-5, f"w{i}", "sink", 1024) for i in range(16)]
        fast, fast_stats, _ = _run_schedule(sched, 50e-6, nics)
        slow, slow_stats = reference_wire(sched, 50e-6, nics)
        assert_same_wire(fast, slow)
        assert fast_stats == slow_stats

    def test_same_source_burst_fifo(self):
        """Back-to-back sends from one node serialize on the TX lane."""
        nics = {n: NicSpec(bandwidth_Bps=1e8, overhead_s=10e-6) for n in ("a", "b")}
        sched = [(0.0, "a", "b", 4096)] * 8
        fast, _, _ = _run_schedule(sched, 50e-6, nics)
        slow, _ = reference_wire(sched, 50e-6, nics)
        assert_same_wire(fast, slow)
        delivers = [row[5] for row in fast]
        assert delivers == sorted(delivers)

    def test_inflight_gauges_return_to_zero(self):
        nics = {n: NicSpec(bandwidth_Bps=1e8) for n in ("a", "b")}
        _, _, net = _run_schedule([(0.0, "a", "b", 1024)] * 4, 1e-5, nics)
        assert net.bytes_in_flight == 0
        assert net.messages_in_flight == 0


def _worker_and_sink():
    """Nodes ``w`` and ``s``; what reaches ``s`` is appended to ``seen`` as
    ``(payload, deliver_time)``."""
    eng = Engine()
    net = Network(eng, latency_s=50e-6)
    for node in ("w", "s"):
        net.add_node(node, NicSpec(bandwidth_Bps=1.25e9, overhead_s=30e-6))
    seen = []
    net.endpoint("s").sink = lambda payload, at, cause: seen.append((payload, at))
    return eng, net, seen


def check_sink_sees_deliver_order():
    """A signalled 1 MB push, then a signal-free 128 B pull behind it on
    the same TX lane: the pull's TX completes 27 us before the push has
    drained into the server, and it still may not reach the sink first."""
    eng, net, seen = _worker_and_sink()
    net.send("w", "s", 1_000_000, payload="push", notify=True)
    net.send("w", "s", 128, payload="pull", notify=False)
    eng.run()
    assert [payload for payload, _at in seen] == ["push", "pull"]
    assert seen[0][1] < seen[1][1]
    return net


class TestSinkOrder:
    """A sink is called in ``deliver_time`` order whatever mix of fused
    and unfused deliveries reaches it."""

    def test_signal_free_send_does_not_overtake_a_signalled_one(self):
        net = check_sink_sees_deliver_order()
        assert net.fused_deliveries == 0 and net.endpoint("s").unfused == 0

    def test_fusing_resumes_once_the_lane_is_clear(self):
        eng, net, seen = _worker_and_sink()
        net.send("w", "s", 4096, payload="a", notify=True)
        eng.run()
        for payload in "bc":
            net.send("w", "s", 4096, payload=payload, notify=False)
        eng.run()
        assert [payload for payload, _at in seen] == ["a", "b", "c"]
        assert seen == sorted(seen, key=lambda landed: landed[1])
        assert net.fused_deliveries == 2

    def test_fused_overtakes_unfused_dies_here(self, monkeypatch):
        fused_overtakes_unfused(monkeypatch)
        with pytest.raises(AssertionError):
            check_sink_sees_deliver_order()


class TestPresetDifferential:
    """Entire co-simulated runs on each preset, one event per message (a
    delivery hook): the full wire trace against the reference's."""

    @pytest.mark.parametrize("cfg_kwargs", preset_configs())
    def test_run_traces_identical(self, cfg_kwargs):
        runner, result, ref = assert_matches_reference(cfg_kwargs, hooked=True)
        assert runner.net.fast_path_transfers == len(ref.trace) == result.messages_on_wire
        assert result.bytes_on_wire == sum(row[3] for row in ref.trace)

    def test_training_run_params_identical(self):
        """A real (non-timing-only) run: final parameters are bit-equal."""
        _runner, result, _ref = assert_matches_reference(real_gradient_cell(), hooked=True)
        assert result.final_params is not None


class TestPathSelection:
    def test_default_is_analytic(self):
        """One wire: every send is scheduled on the lane cursors."""
        eng = Engine()
        net = Network(eng)
        for n in ("a", "b"):
            net.add_node(n, NicSpec(bandwidth_Bps=1e8))
        for _ in range(3):
            net.send("a", "b", 1024)
        assert net.fast_path_transfers == 3
        eng.run()
        assert net.total_messages == net.fast_path_transfers == 3


def uncontended_time(net, src, dst, size_bytes):
    """A transfer's end-to-end time on idle lanes: TX serialize, latency,
    RX serialize."""
    return (
        net.endpoint(src).serialize_time(size_bytes)
        + net.latency_s
        + net.endpoint(dst).serialize_time(size_bytes)
    )


class TestTransferTimeEstimate:
    """A lone transfer takes the uncontended time; contention only adds."""

    def test_exact_for_lone_transfer_both_paths(self):
        """Exact on the production wire and on the reference wire."""
        nics = {
            "a": NicSpec(bandwidth_Bps=1e8, overhead_s=15e-6),
            "b": NicSpec(bandwidth_Bps=2e8, overhead_s=25e-6),
        }
        eng = Engine()
        net = Network(eng, latency_s=75e-6)
        for node, nic in nics.items():
            net.add_node(node, nic)
        est = uncontended_time(net, "a", "b", 4096)
        done = net.send("a", "b", 4096)
        eng.run()
        assert done.payload.deliver_time == est
        ref_trace, _ = reference_wire([(0.0, "a", "b", 4096)], 75e-6, nics)
        assert ref_trace[0][5] == est

    def test_lower_bound_under_contention(self):
        eng = Engine()
        net = Network(eng, latency_s=50e-6)
        nic = NicSpec(bandwidth_Bps=1e8, overhead_s=10e-6)
        net.add_node("sink", nic)
        for i in range(4):
            net.add_node(f"w{i}", nic)
        est = uncontended_time(net, "w0", "sink", 64 * 1024)
        signals = [net.send(f"w{i}", "sink", 64 * 1024) for i in range(4)]
        eng.run()
        delivers = sorted(s.payload.deliver_time for s in signals)
        assert delivers[0] == est  # first one through is uncontended
        assert all(d >= est for d in delivers[1:])
        assert delivers[-1] > est  # the incast queue actually bit
