"""Tests for network containers and the flat-parameter contract."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.ml.layers import Dense, ReLU
from repro.ml.loss import softmax_cross_entropy
from repro.ml.models_zoo import (
    alexnet_cifar_spec,
    mlp,
    resnet56_cifar_workload,
    resnet_cifar_spec,
)
from repro.ml.network import Sequential
from tests.test_ml_layers import numerical_grad_input


class TestFlatContract:
    def test_roundtrip(self, rng):
        net = mlp(5, [7], 3, rng)
        flat = net.get_flat()
        assert flat.shape == (net.n_params,)
        net.set_flat(np.zeros_like(flat))
        assert net.get_flat().sum() == 0
        net.set_flat(flat)
        np.testing.assert_array_equal(net.get_flat(), flat)

    def test_set_flat_in_place(self, rng):
        net = mlp(3, [4], 2, rng)
        w_before = net.layers[0].params["W"]
        net.set_flat(np.ones(net.n_params))
        assert net.layers[0].params["W"] is w_before

    def test_wrong_size_rejected(self, rng):
        net = mlp(3, [4], 2, rng)
        with pytest.raises(ValueError):
            net.set_flat(np.zeros(net.n_params + 1))

    def test_grads_flat_matches_params_layout(self, rng):
        net = mlp(4, [5], 3, rng)
        _loss, dl = softmax_cross_entropy(net.forward(rng.normal(size=(6, 4))),
                                          rng.integers(0, 3, size=6))
        net.backward(dl)
        grads = [(f"L{i}.{layer.name}.{key}", g.shape)
                 for i, layer in enumerate(net.layers) for key, g in layer.grads.items()]
        assert grads == [(name, arr.shape) for name, arr in net.param_items()]

    def test_model_spec_matches_params(self, rng):
        net = mlp(4, [5], 3, rng)
        spec = net.model_spec("m")
        assert spec.total_elements == net.n_params
        names = [t.name for t in spec.tensors]
        assert len(set(names)) == len(names)


class TestSequential:
    def test_forward_backward_chain(self, rng):
        net = Sequential([Dense(3, 4, rng), ReLU(), Dense(4, 2, rng)])
        x = rng.normal(size=(5, 3))
        y = net.forward(x)
        assert y.shape == (5, 2)
        dy = rng.normal(size=y.shape)
        dx = net.backward(dy)
        assert dx.shape == x.shape

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Sequential([])

    def test_whole_network_gradient(self, rng):
        net = Sequential([Dense(3, 4, rng), ReLU(), Dense(4, 2, rng)])
        x = rng.normal(size=(4, 3))
        y = net.forward(x)
        dy = rng.normal(size=y.shape)
        dx = net.backward(dy)

        np.testing.assert_allclose(dx, numerical_grad_input(net, x, dy), atol=1e-5)


#: Name, ``[tensor name, shape]`` list and ``total_bytes`` of
#: ``resnet_cifar_spec(depth, n_classes)``, keyed ``"depth-n_classes"``: what
#: the wire is sized by, so every golden document depends on it.
PINNED_RESNET_SPECS = json.loads(
    (Path(__file__).parent / "resnet_cifar_specs.json").read_text()
)


class TestModelZoo:
    def test_resnet56_parameter_count(self):
        # He et al. report ~0.85M parameters for ResNet-56 on CIFAR.
        spec = resnet_cifar_spec(56)
        assert 0.8e6 < spec.total_elements < 0.9e6

    def test_resnet_depth_validation(self):
        for depth in (10, 2, 0):  # not 6n+2 with n >= 1
            with pytest.raises(ValueError):
                resnet_cifar_spec(depth)

    @pytest.mark.parametrize("key", sorted(PINNED_RESNET_SPECS))
    def test_resnet_spec_is_pinned(self, key):
        depth, n_classes = map(int, key.split("-"))
        spec, pinned = resnet_cifar_spec(depth, n_classes), PINNED_RESNET_SPECS[key]
        assert spec.name == pinned["name"]
        assert [[t.name, list(t.shape)] for t in spec.tensors] == pinned["tensors"]
        assert spec.total_bytes == pinned["total_bytes"]

    def test_resnet56_workload_uses_the_spec(self):
        spec = resnet56_cifar_workload().spec
        assert spec == resnet_cifar_spec(56)
        assert (len(spec.tensors), spec.total_bytes) == (228, 3_431_464)

    def test_alexnet_spec_dominated_by_fc1(self):
        spec = alexnet_cifar_spec()
        fc1 = spec.tensor("fc1.W").elements
        assert fc1 / spec.total_elements > 0.8
