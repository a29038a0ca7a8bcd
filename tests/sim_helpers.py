"""Shared helpers for the co-simulation differential suites."""

import json

import pytest

from repro.core.models import bsp, pssp, ssp
from repro.ml.models_zoo import alexnet_cifar_workload
from repro.sim.cluster import cpu_cluster, gpu_cluster_p2
from repro.sim.runner import FluentPSSimRunner
from repro.sim.stragglers import DeterministicCompute, LogNormalCompute


class EventPathRunner(FluentPSSimRunner):
    """The event path whatever the config: every round runs message by
    message.  The closed-form round collapse is differentially tested
    against this runner."""

    def _collapse_eligible(self) -> str:
        return "subclass"


def instant_stream(instants):
    """A protocol instant stream as JSON bytes, comparable across runs.

    ``uid`` is a process-global server incarnation counter — it differs
    between any two runner constructions in one process by design, so it
    is the one argument stripped before comparing streams."""
    return json.dumps(
        [
            [i.name, i.t, i.actor, {k: v for k, v in sorted(i.args.items()) if k != "uid"}]
            for i in instants
        ],
        default=str,
    )


def preset_configs():
    """One runner config per (preset, sync model, compute) cell."""
    workload = alexnet_cifar_workload()
    cells = []
    for name, cluster in [
        ("gpu_p2", gpu_cluster_p2(4, n_servers=2)),
        ("cpu", cpu_cluster(4, n_servers=2)),
    ]:
        for sync_name, sync in [("ssp3", ssp(3)), ("bsp", bsp()), ("pssp", pssp(2, 0.5))]:
            for comp_name, compute in [
                ("det", DeterministicCompute()),
                ("lognorm", LogNormalCompute(0.3)),
            ]:
                cells.append(
                    pytest.param(
                        dict(
                            cluster=cluster,
                            max_iter=6,
                            sync=sync,
                            workload=workload,
                            batch_per_worker=64,
                            compute_model=compute,
                            seed=7,
                        ),
                        id=f"{name}-{sync_name}-{comp_name}",
                    )
                )
    return cells
