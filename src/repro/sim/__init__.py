"""Discrete-event cluster simulator.

This subpackage is the hardware substrate substituting for the paper's AWS
GPU cluster and 64/128-node CPU cluster (see DESIGN.md).  It provides:

- :mod:`repro.sim.engine` — deterministic event loop with generator-based
  processes and signals;
- :mod:`repro.sim.network` — NIC/fabric model with serialization, latency
  and contention;
- :mod:`repro.sim.cluster` — node and cluster specifications plus the two
  paper-cluster presets;
- :mod:`repro.sim.stragglers` — compute-time distributions that create the
  randomly-slow workers the synchronization models must tolerate;
- :mod:`repro.sim.trace` — span/event timeline recording;
- :mod:`repro.sim.runner` — the co-simulation binding the FluentPS core,
  the network model and real NumPy gradient math.
"""

from repro.sim.engine import AllOf, Engine, Process, Signal, Timeout
from repro.sim.network import Message, Network, NicSpec
from repro.sim.cluster import ClusterSpec, NodeSpec, cpu_cluster, gpu_cluster_p2
from repro.sim.stragglers import (
    ComputeModel,
    DeterministicCompute,
    ExponentialTailCompute,
    LogNormalCompute,
    ParetoTailCompute,
    TransientStragglerCompute,
)
from repro.sim.trace import SpanKind, TraceRecorder

__all__ = [
    "AllOf",
    "Engine",
    "Process",
    "Signal",
    "Timeout",
    "Message",
    "Network",
    "NicSpec",
    "ClusterSpec",
    "NodeSpec",
    "cpu_cluster",
    "gpu_cluster_p2",
    "ComputeModel",
    "DeterministicCompute",
    "ExponentialTailCompute",
    "LogNormalCompute",
    "ParetoTailCompute",
    "TransientStragglerCompute",
    "SpanKind",
    "TraceRecorder",
]
