"""Tests for the NIC/fabric network model."""

import pytest

from repro.sim.engine import Engine
from repro.sim.network import Network, NicSpec


def make_net(latency=0.0, bw=100.0, overhead=0.0):
    eng = Engine()
    net = Network(eng, latency_s=latency)
    nic = NicSpec(bandwidth_Bps=bw, overhead_s=overhead)
    net.add_node("a", nic)
    net.add_node("b", nic)
    net.add_node("c", nic)
    return eng, net


class TestNicSpec:
    def test_serialize_time(self):
        nic = NicSpec(bandwidth_Bps=1000.0, overhead_s=0.5)
        assert nic.serialize_time(2000) == pytest.approx(0.5 + 2.0)

    def test_invalid_bandwidth(self):
        with pytest.raises(ValueError):
            NicSpec(bandwidth_Bps=0)

    def test_negative_overhead(self):
        with pytest.raises(ValueError):
            NicSpec(bandwidth_Bps=1.0, overhead_s=-1)

    @pytest.mark.parametrize(
        "field, value",
        [
            # serialize_time(100) was nan: NaN timestamps in the engine.
            ("bandwidth_Bps", float("nan")),
            ("overhead_s", float("nan")),
            ("overhead_s", float("inf")),
        ],
    )
    def test_non_finite_numbers_fail_at_construction(self, field, value):
        with pytest.raises(ValueError, match=field):
            NicSpec(**{"bandwidth_Bps": 1.0, field: value})

    @pytest.mark.parametrize("latency", [-1.0, float("nan"), float("inf")])
    def test_bad_latency_fails_at_construction(self, latency):
        with pytest.raises(ValueError, match="latency_s"):
            Network(Engine(), latency_s=latency)


class TestTransfer:
    def test_uncontended_transfer_time(self):
        eng, net = make_net(latency=1.0, bw=100.0)
        done = []
        net.send("a", "b", 200).subscribe(lambda m: done.append(eng.now))
        eng.run()
        # 2s tx serialize + 1s latency + 2s rx serialize
        assert done == [pytest.approx(5.0)]

    def test_tx_lane_serializes_sends(self):
        eng, net = make_net(bw=100.0)
        done = []
        net.send("a", "b", 100).subscribe(lambda m: done.append(("b", eng.now)))
        net.send("a", "c", 100).subscribe(lambda m: done.append(("c", eng.now)))
        eng.run()
        # Second transfer's tx serialization starts after the first's.
        assert done == [("b", pytest.approx(2.0)), ("c", pytest.approx(3.0))]

    def test_rx_incast_serializes(self):
        eng, net = make_net(bw=100.0)
        done = []
        net.send("a", "c", 100).subscribe(lambda m: done.append(eng.now))
        net.send("b", "c", 100).subscribe(lambda m: done.append(eng.now))
        eng.run()
        # Both serialize tx in parallel (different senders), then queue on
        # c's rx lane: 1s + 1s, 1s + 2s.
        assert done == [pytest.approx(2.0), pytest.approx(3.0)]

    def test_fifo_order_preserved_per_pair(self):
        eng, net = make_net(bw=100.0)
        order = []
        for i in range(5):
            net.send("a", "b", 50, tag=str(i)).subscribe(
                lambda m: order.append(m.tag)
            )
        eng.run()
        assert order == ["0", "1", "2", "3", "4"]

    def test_sink_delivery(self):
        """An endpoint's consumer is its sink; without one a delivery
        reaches only its signal and the hooks (nothing is stored)."""
        eng, net = make_net()
        got = []
        net.endpoint("b").sink = lambda payload, at, cause: got.append((payload, at))
        net.send("a", "b", 10, payload={"k": 1})
        net.send("a", "c", 10, payload={"k": 2})
        eng.run()
        assert [payload for payload, _at in got] == [{"k": 1}]
        assert got[0][1] == pytest.approx(0.2)

    def test_negative_size_rejected(self):
        eng, net = make_net()
        with pytest.raises(ValueError):
            net.send("a", "b", -1)

    def test_unknown_node_rejected(self):
        eng, net = make_net()
        with pytest.raises(KeyError):
            net.send("a", "zzz", 10)

    def test_duplicate_node_rejected(self):
        eng, net = make_net()
        with pytest.raises(ValueError):
            net.add_node("a", NicSpec(bandwidth_Bps=1.0))


class TestAccounting:
    def test_byte_and_message_counters(self):
        eng, net = make_net()
        net.send("a", "b", 100)
        net.send("a", "c", 50)
        eng.run()
        assert net.total_bytes == 150
        assert net.total_messages == 2
        assert net.endpoint("a").bytes_sent == 150
        assert net.endpoint("a").messages_sent == 2
        assert net.endpoint("b").bytes_received == 100
        assert net.endpoint("c").messages_received == 1

    def test_delivery_hook_called(self):
        eng, net = make_net()
        seen = []
        net.on_delivery(lambda m: seen.append((m.src, m.dst, m.size_bytes)))
        net.send("a", "b", 10)
        eng.run()
        assert seen == [("a", "b", 10)]

    def test_message_timestamps(self):
        eng, net = make_net(latency=1.0, bw=100.0)
        box = []
        net.send("a", "b", 100).subscribe(box.append)
        eng.run()
        msg = box[0]
        assert msg.send_time == 0.0
        assert msg.deliver_time == pytest.approx(3.0)


class TestFabric:
    def test_invalid_latency(self):
        with pytest.raises(ValueError):
            Network(Engine(), latency_s=-1.0)

    def test_future_send_instant(self):
        """``at`` sends from a virtual instant at or after the engine
        clock: the lane cursors serialize from it, ``send_time`` carries it."""
        eng, net = make_net(bw=100.0)
        eng.run(until=1.0)
        with pytest.raises(ValueError, match="past"):
            net.send("a", "b", 100, at=0.5)
        assert net.messages_in_flight == 0
        box = []
        net.send("a", "b", 100, at=2.5).subscribe(box.append)
        eng.run()
        assert box[0].send_time == 2.5 and box[0].deliver_time == pytest.approx(4.5)


class TestAccounting:
    def test_bytes_in_flight_returns_to_zero(self):
        eng, net = make_net(latency=1.0, bw=100.0)
        net.send("a", "b", 100)
        net.send("a", "c", 50)
        assert net.bytes_in_flight == 150
        assert net.messages_in_flight == 2
        eng.run()
        assert net.bytes_in_flight == 0
        assert net.messages_in_flight == 0
        assert net.total_bytes == 150

    def test_nic_utilization_bounds(self):
        eng, net = make_net(latency=1.0, bw=100.0)
        net.send("a", "b", 100)  # 1s tx + 1s latency + 1s rx
        eng.run()
        a, b = net.endpoints["a"], net.endpoints["b"]
        assert a.tx_busy_s == pytest.approx(1.0)
        assert b.rx_busy_s == pytest.approx(1.0)
        assert 0.0 < a.tx_utilization(eng.now) <= 1.0
        assert a.rx_utilization(eng.now) == 0.0
        assert a.tx_utilization(0.0) == 0.0  # no elapsed time -> 0
