"""Standard training tasks for the experiment harness.

The paper's four evaluation workloads are AlexNet/ResNet-56 on
CIFAR-10/100.  Per DESIGN.md: the *wire and compute footprint* of those
models comes from the shape-accurate Workload specs, while the gradient
math runs on fast proxies whose accuracy responds to staleness the same
way.  The factories here produce matched (task, workload) pairs.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.keyspace import ModelSpec, TensorSpec
from repro.ml.data import gaussian_blobs, synthetic_cifar10
from repro.ml.models_zoo import (
    Workload,
    alexnet_cifar_workload,
    proxy_classifier,
    resnet56_cifar_workload,
)
from repro.ml.optim import SGD
from repro.ml.training import TrainingTask
from repro.sim.cluster import no_network_cluster
from repro.sim.runner import SimConfig


def blobs_task(
    n_workers: int,
    n_classes: int = 10,
    dim: int = 32,
    hidden: Sequence[int] = (32,),
    n_train: int = 4000,
    n_test: int = 800,
    batch_size: int = 32,
    lr: float = 0.1,
    momentum: float = 0.9,
    seed: int = 0,
) -> TrainingTask:
    """Fast MLP-on-blobs task — the default proxy for AlexNet/CIFAR runs."""
    ds = gaussian_blobs(
        n_classes=n_classes, dim=dim, n_train=n_train, n_test=n_test, seed=seed
    )
    return TrainingTask(
        lambda: proxy_classifier(ds, hidden=hidden, seed=seed + 1),
        ds,
        n_workers=n_workers,
        batch_size=batch_size,
        optimizer_factory=lambda: SGD(lr=lr, momentum=momentum),
        seed=seed + 2,
    )


def cifar_proxy_task(
    n_workers: int,
    n_train: int = 1000,
    n_test: int = 300,
    size: int = 16,
    batch_size: int = 16,
    lr: float = 0.05,
    seed: int = 0,
) -> TrainingTask:
    """Image-classification proxy: an MLP on synthetic CIFAR images."""
    ds = synthetic_cifar10(n_train=n_train, n_test=n_test, seed=seed, size=size)
    return TrainingTask(
        lambda: proxy_classifier(ds, hidden=(48,), seed=seed + 1),
        ds,
        n_workers=n_workers,
        batch_size=batch_size,
        optimizer_factory=lambda: SGD(lr=lr, momentum=0.9),
        seed=seed + 2,
    )


def null_task_spec(elements: int = 8) -> ModelSpec:
    """Tiny model spec for pure synchronization-dynamics runs."""
    return ModelSpec.from_tensors("null", [TensorSpec("w", (elements,))])


def no_network_config(
    n_workers: int, sync, max_iter: int, *, n_servers: int = 1,
    task: Optional[TrainingTask] = None, **options,
) -> SimConfig:
    """Synchronization dynamics without a network: the
    :func:`~repro.sim.cluster.no_network_cluster`, free server handling
    and a one-second base compute, so durations, DPRs and staleness come
    from the compute draws and the pull conditions alone.  Timing-only
    (param-less shards over :func:`null_task_spec`) unless ``task`` is
    given; ``options`` are further :class:`SimConfig` fields."""
    return SimConfig(
        cluster=no_network_cluster(n_workers, n_servers), max_iter=max_iter, sync=sync,
        task=task, workload=None if task is not None else Workload("null", null_task_spec(), 1.0),
        base_compute_time=1.0, server_op_overhead_s=0.0, dpr_overhead_s=0.0, **options,
    )


def workload_for(name: str) -> Workload:
    """The paper-model wire/compute footprint by name."""
    name = name.lower()
    if name in ("alexnet", "alexnet-cifar"):
        return alexnet_cifar_workload()
    if name in ("resnet56", "resnet-56", "resnet56-cifar"):
        return resnet56_cifar_workload()
    raise ValueError(f"unknown workload {name!r}")
