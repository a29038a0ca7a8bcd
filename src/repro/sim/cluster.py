"""Cluster specifications and the paper's two evaluation-cluster presets.

The paper evaluates on (1) a 32-instance AWS p2.xlarge GPU cluster (K80,
25 Gbps aggregate) and (2) a 64-machine CPU cluster (two 4-core CPUs,
1 Gbps NICs, 10 Gbps aggregate) extended to 128 workers with Kubernetes.
These presets reproduce their *ratios* of compute rate to network rate —
the quantity that determines where communication starts to dominate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

from repro.sim.engine import Engine
from repro.sim.network import Network, NicSpec
from repro.utils.checks import check_number

GBPS = 1e9 / 8.0  # bytes/second per Gbit/s


@dataclass(frozen=True)
class NodeSpec:
    """One machine: effective training throughput and NIC."""

    name: str
    flops: float  # effective achievable FLOP/s for DNN training
    nic: NicSpec
    kind: str = "cpu"  # "cpu" | "gpu"

    def __post_init__(self) -> None:
        if self.flops <= 0:
            raise ValueError(f"node flops must be positive, got {self.flops}")


@dataclass
class ClusterSpec:
    """A training cluster: worker nodes, server nodes, fabric latency."""

    name: str
    workers: List[NodeSpec]
    servers: List[NodeSpec]
    latency_s: float = 100e-6

    def __post_init__(self) -> None:
        if not self.workers:
            raise ValueError("cluster needs at least one worker")
        if not self.servers:
            raise ValueError("cluster needs at least one server")
        check_number("latency_s", self.latency_s)

    @property
    def n_workers(self) -> int:
        return len(self.workers)

    @property
    def n_servers(self) -> int:
        return len(self.servers)

    def worker_id(self, n: int) -> str:
        return self.workers[n].name

    def server_id(self, m: int) -> str:
        return self.servers[m].name

    def make_network(self, engine: Engine) -> Network:
        """Instantiate the fabric and register every node."""
        net = Network(engine, latency_s=self.latency_s)
        for node in self.workers + self.servers:
            net.add_node(node.name, node.nic)
        return net


def _mk_nodes(prefix: str, count: int, flops: float, nic: NicSpec, kind: str) -> List[NodeSpec]:
    return [NodeSpec(name=f"{prefix}{i}", flops=flops, nic=nic, kind=kind) for i in range(count)]


def gpu_cluster_p2(
    n_workers: int,
    n_servers: int = 8,
    gpu_flops: float = 2.0e11,
    nic_gbps: float = 0.8,
    latency_s: float = 100e-6,
) -> ClusterSpec:
    """Paper's Performance-Test cluster: p2.xlarge-like nodes.

    One NVIDIA K80 half per node; ``gpu_flops`` is the *effective
    achieved* training throughput (≈200 GFLOP/s — K80s reach a small
    fraction of peak on CIFAR ResNet batches; this calibrates per-
    iteration compute to the paper's ≈0.4 s/iteration for ResNet-56 at
    batch 128/worker).  Per-node NIC sized so the 32-node aggregate
    matches the paper's 25 Gbps aggregate figure at default arguments.
    Servers are co-located on worker-class machines, as in the paper's
    8-servers/32-workers setup.
    """
    if n_workers < 1:
        raise ValueError("need at least one worker")
    nic = NicSpec(bandwidth_Bps=nic_gbps * GBPS, overhead_s=30e-6)
    return ClusterSpec(
        name=f"gpu-p2-{n_workers}w{n_servers}s",
        workers=_mk_nodes("worker", n_workers, gpu_flops, nic, "gpu"),
        servers=_mk_nodes("server", n_servers, gpu_flops / 10, nic, "cpu"),
        latency_s=latency_s,
    )


def cpu_cluster(
    n_workers: int,
    n_servers: int = 1,
    cpu_flops: float = 6.0e10,
    nic_gbps: float = 1.0,
    latency_s: float = 150e-6,
) -> ClusterSpec:
    """Paper's Scalability-Test cluster: 8-core machines, 1 Gbps NICs.

    Extended past 64 nodes the same way the paper does with Kubernetes —
    more (virtual) nodes with identical specs.
    """
    if n_workers < 1:
        raise ValueError("need at least one worker")
    nic = NicSpec(bandwidth_Bps=nic_gbps * GBPS, overhead_s=50e-6)
    return ClusterSpec(
        name=f"cpu-{n_workers}w{n_servers}s",
        workers=_mk_nodes("worker", n_workers, cpu_flops, nic, "cpu"),
        servers=_mk_nodes("server", n_servers, cpu_flops, nic, "cpu"),
        latency_s=latency_s,
    )


def no_network_cluster(n_workers: int, n_servers: int = 1) -> ClusterSpec:
    """Synchronization dynamics without a network: zero latency, infinite
    bandwidth and no per-message overhead, so every message lands the
    instant it is sent.  With ``SimConfig(server_op_overhead_s=0,
    dpr_overhead_s=0)`` a run's clock is its compute draws and pull
    conditions alone (:func:`repro.bench.workloads.no_network_config`)."""
    nic = NicSpec(bandwidth_Bps=math.inf, overhead_s=0.0)
    return ClusterSpec(
        name=f"no-network-{n_workers}w{n_servers}s",
        workers=_mk_nodes("worker", n_workers, 1.0, nic, "cpu"),
        servers=_mk_nodes("server", n_servers, 1.0, nic, "cpu"),
        latency_s=0.0,
    )
