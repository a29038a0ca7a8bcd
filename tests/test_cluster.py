"""Tests for cluster specifications and presets."""

import pytest

from repro.sim.cluster import (
    GBPS,
    ClusterSpec,
    NodeSpec,
    cpu_cluster,
    gpu_cluster_p2,
    no_network_cluster,
)
from repro.sim.engine import Engine
from repro.sim.network import NicSpec


class TestNodeSpec:
    def test_invalid_flops(self):
        with pytest.raises(ValueError):
            NodeSpec("n", flops=0, nic=NicSpec(bandwidth_Bps=1.0))


class TestClusterSpec:
    def test_requires_workers_and_servers(self):
        nic = NicSpec(bandwidth_Bps=1.0)
        node = NodeSpec("n", 1.0, nic)
        with pytest.raises(ValueError):
            ClusterSpec("c", workers=[], servers=[node])
        with pytest.raises(ValueError):
            ClusterSpec("c", workers=[node], servers=[])

    @pytest.mark.parametrize("latency", [-1.0, float("nan"), float("inf")])
    def test_bad_latency_fails_at_construction(self, latency):
        """``make_network`` used to accept NaN / inf: NaN or inf arrival
        times in the engine."""
        node = NodeSpec("n", 1.0, NicSpec(bandwidth_Bps=1.0))
        with pytest.raises(ValueError, match="latency_s"):
            ClusterSpec("c", workers=[node], servers=[node], latency_s=latency)

    def test_make_network_registers_all_nodes(self):
        spec = cpu_cluster(3, n_servers=2)
        net = spec.make_network(Engine())
        assert len(net.endpoints) == 5
        assert spec.worker_id(0) in net.endpoints
        assert spec.server_id(1) in net.endpoints


class TestPresets:
    def test_gpu_preset_shape(self):
        spec = gpu_cluster_p2(8)
        assert spec.n_workers == 8
        assert spec.n_servers == 8
        assert all(n.kind == "gpu" for n in spec.workers)
        assert spec.workers[0].flops > spec.servers[0].flops

    def test_cpu_preset_shape(self):
        spec = cpu_cluster(16, n_servers=1)
        assert spec.n_workers == 16
        assert spec.n_servers == 1
        assert spec.workers[0].nic.bandwidth_Bps == pytest.approx(1.0 * GBPS)

    def test_unique_node_names(self):
        spec = gpu_cluster_p2(4, 2)
        names = [n.name for n in spec.workers + spec.servers]
        assert len(set(names)) == len(names)

    def test_no_network_preset_costs_nothing(self):
        spec = no_network_cluster(3, n_servers=2)
        assert (spec.n_workers, spec.n_servers, spec.latency_s) == (3, 2, 0.0)
        assert all(n.nic.serialize_time(10**9) == 0.0 for n in spec.workers + spec.servers)

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            gpu_cluster_p2(0)
        with pytest.raises(ValueError):
            cpu_cluster(0)

    def test_compute_to_network_ratio_orders_clusters(self):
        """The GPU cluster is compute-rich per byte of NIC; the CPU
        cluster is network-starved — the property behind Fig 6 vs 10."""
        gpu = gpu_cluster_p2(8)
        cpu = cpu_cluster(8)
        gpu_ratio = gpu.workers[0].flops / gpu.workers[0].nic.bandwidth_Bps
        cpu_ratio = cpu.workers[0].flops / cpu.workers[0].nic.bandwidth_Bps
        assert gpu_ratio > cpu_ratio
