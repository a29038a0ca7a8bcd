"""Model builders: MLP proxies and the paper's networks as wire specs.

Two uses, mirroring DESIGN.md's substitution table:

- *trainable* MLPs (``mlp``, ``proxy_classifier``) do the real gradient
  math in convergence runs;
- *shape-accurate* :class:`~repro.core.keyspace.ModelSpec`\\ s of the
  paper's exact architectures (``alexnet_cifar_spec``,
  ``resnet_cifar_spec(56)``) size the communication in timing-only
  simulations, together with canonical FLOP counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.core.keyspace import ModelSpec, TensorSpec
from repro.ml.data import Dataset
from repro.ml.layers import Dense, Flatten, Layer, ReLU
from repro.ml.network import Sequential
from repro.utils.rng import derive_rng


def mlp(
    in_dim: int,
    hidden: Sequence[int],
    n_classes: int,
    rng: np.random.Generator,
) -> Sequential:
    """Multi-layer perceptron with ReLU activations."""
    layers: List[Layer] = []
    prev = in_dim
    for h in hidden:
        layers.append(Dense(prev, h, rng))
        layers.append(ReLU())
        prev = h
    layers.append(Dense(prev, n_classes, rng))
    return Sequential(layers)


def proxy_classifier(
    dataset: Dataset, hidden: Sequence[int] = (32,), seed: int = 0
) -> Sequential:
    """A fast MLP sized for a dataset (flattens image inputs)."""
    rng = derive_rng(seed, "init", dataset.name)
    x = dataset.x_train
    if x.ndim > 2:
        in_dim = int(np.prod(x.shape[1:]))
        net = mlp(in_dim, hidden, dataset.n_classes, rng)
        return Sequential([Flatten()] + net.layers)
    return mlp(x.shape[1], hidden, dataset.n_classes, rng)


# ---------------------------------------------------------------------------
# Shape-accurate wire specs + canonical FLOP counts for timing simulations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """What a timing-only simulation needs to know about a DNN."""

    name: str
    spec: ModelSpec
    flops_per_sample: float  # forward-pass FLOPs for one input
    train_flops_factor: float = 3.0  # fwd+bwd ≈ 3× forward

    @property
    def train_flops_per_sample(self) -> float:
        return self.flops_per_sample * self.train_flops_factor

    @property
    def wire_bytes(self) -> int:
        return self.spec.total_bytes


def alexnet_cifar_spec(n_classes: int = 10) -> ModelSpec:
    """The CIFAR AlexNet variant used throughout the paper's CPU-cluster
    experiments (Caffe's cifar_full lineage): two 5×5 conv layers and
    three FC layers — the FC1 tensor holds ~89% of the parameters, which
    is exactly what makes PS-Lite's default slicing imbalanced."""
    return ModelSpec.from_tensors(
        "alexnet-cifar",
        [
            TensorSpec("conv1.W", (64, 3, 5, 5)),
            TensorSpec("conv1.b", (64,)),
            TensorSpec("conv2.W", (64, 64, 5, 5)),
            TensorSpec("conv2.b", (64,)),
            TensorSpec("fc1.W", (4096, 384)),
            TensorSpec("fc1.b", (384,)),
            TensorSpec("fc2.W", (384, 192)),
            TensorSpec("fc2.b", (192,)),
            TensorSpec("fc3.W", (192, n_classes)),
            TensorSpec("fc3.b", (n_classes,)),
        ],
    )


def resnet_cifar_spec(depth: int = 56, n_classes: int = 10) -> ModelSpec:
    """Exact tensor shapes of the CIFAR ResNet of He et al. (paper ref
    [1]): depth = 6n+2 (20, 32, 44, **56**, ...).

    A 3x3 stem conv and ReLU, three stages of n basic blocks at widths
    (16, 32, 64) with stride-2 transitions, global average pooling and a
    linear classifier.  A basic block is conv-BN-conv-BN, plus a 1x1
    projection conv-BN on the shortcut of each block that changes the
    width.  Tensor names are ``L{i}.{layer}.{param}``, ``i`` counting every
    layer in that order, the stem's ReLU and the pooling included.
    ``resnet_cifar_spec(56)`` is the paper's 0.86M-parameter model.
    """
    if (depth - 2) % 6 != 0 or depth < 8:
        raise ValueError(f"CIFAR ResNet depth must be 6n+2 with n>=1, got {depth}")

    def conv(c_in, c_out, k):
        return f"conv{c_in}x{c_out}k{k}", [("W", (c_out, c_in, k, k)), ("b", (c_out,))]

    def bn(c):
        return f"bn{c}", [("gamma", (c,)), ("beta", (c,))]

    layers = [conv(3, 16, 3), ("relu", [])]
    c_in = 16
    for c_out in (16, 32, 64):
        for _block in range((depth - 2) // 6):
            layers += [conv(c_in, c_out, 3), bn(c_out), conv(c_out, c_out, 3), bn(c_out)]
            if c_in != c_out:
                layers += [conv(c_in, c_out, 1), bn(c_out)]
            c_in = c_out
    layers += [("gap", []), (f"dense{c_in}x{n_classes}", [("W", (c_in, n_classes)),
                                                          ("b", (n_classes,))])]
    return ModelSpec.from_tensors(f"resnet{depth}-cifar", [
        TensorSpec(f"L{i}.{name}.{key}", shape)
        for i, (name, params) in enumerate(layers) for key, shape in params
    ])


def alexnet_cifar_workload(n_classes: int = 10) -> Workload:
    """AlexNet-CIFAR: ≈66 MFLOPs forward per 32×32 image."""
    return Workload("alexnet-cifar", alexnet_cifar_spec(n_classes), flops_per_sample=66e6)


def resnet56_cifar_workload(n_classes: int = 10) -> Workload:
    """ResNet-56: the canonical ≈125 MFLOPs forward per CIFAR image."""
    return Workload("resnet56-cifar", resnet_cifar_spec(56, n_classes), flops_per_sample=125e6)
