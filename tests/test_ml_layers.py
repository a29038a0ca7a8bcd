"""Gradient checks and behaviour tests for core layers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml.layers import Dense, Flatten, ReLU


def numerical_grad_input(layer, x, dy, eps=1e-6):
    """Central-difference dL/dx where L = sum(forward(x) * dy)."""
    grad = np.zeros_like(x)
    flat = x.ravel()
    g = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        lp = float((layer.forward(x) * dy).sum())
        flat[i] = orig - eps
        lm = float((layer.forward(x) * dy).sum())
        flat[i] = orig
        g[i] = (lp - lm) / (2 * eps)
    return grad


def numerical_grad_param(layer, key, x, dy, eps=1e-6):
    param = layer.params[key]
    grad = np.zeros_like(param)
    flat = param.ravel()
    g = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        lp = float((layer.forward(x) * dy).sum())
        flat[i] = orig - eps
        lm = float((layer.forward(x) * dy).sum())
        flat[i] = orig
        g[i] = (lp - lm) / (2 * eps)
    return grad


class TestDense:
    def test_forward_shape_and_values(self, rng):
        layer = Dense(3, 2, rng)
        layer.params["W"][...] = np.arange(6).reshape(3, 2)
        layer.params["b"][...] = [1.0, -1.0]
        x = np.array([[1.0, 0.0, 0.0]])
        np.testing.assert_allclose(layer.forward(x), [[1.0, 0.0]])

    def test_input_gradient(self, rng):
        layer = Dense(4, 3, rng)
        x = rng.normal(size=(5, 4))
        dy = rng.normal(size=(5, 3))
        layer.forward(x)
        dx = layer.backward(dy)
        np.testing.assert_allclose(dx, numerical_grad_input(layer, x, dy), atol=1e-5)

    @pytest.mark.parametrize("key", ["W", "b"])
    def test_param_gradients(self, rng, key):
        layer = Dense(4, 3, rng)
        x = rng.normal(size=(5, 4))
        dy = rng.normal(size=(5, 3))
        layer.forward(x)
        layer.backward(dy)
        np.testing.assert_allclose(
            layer.grads[key], numerical_grad_param(layer, key, x, dy), atol=1e-5
        )

    def test_wrong_input_shape(self, rng):
        layer = Dense(4, 3, rng)
        with pytest.raises(ValueError):
            layer.forward(np.zeros((2, 5)))

    def test_backward_before_forward(self, rng):
        with pytest.raises(RuntimeError):
            Dense(2, 2, rng).backward(np.zeros((1, 2)))

    def test_n_params(self, rng):
        assert Dense(4, 3, rng).n_params == 15

    def test_invalid_dims(self, rng):
        with pytest.raises(ValueError):
            Dense(0, 3, rng)


class TestReLU:
    def test_forward(self):
        layer = ReLU()
        x = np.array([[-1.0, 0.0, 2.0]])
        np.testing.assert_array_equal(layer.forward(x), [[0.0, 0.0, 2.0]])

    def test_backward_masks(self):
        layer = ReLU()
        x = np.array([[-1.0, 3.0]])
        layer.forward(x)
        np.testing.assert_array_equal(layer.backward(np.ones((1, 2))), [[0.0, 1.0]])

    def test_backward_before_forward(self):
        with pytest.raises(RuntimeError):
            ReLU().backward(np.ones((1, 2)))


class TestFlatten:
    def test_roundtrip(self, rng):
        layer = Flatten()
        x = rng.normal(size=(2, 3, 4, 5))
        y = layer.forward(x)
        assert y.shape == (2, 60)
        np.testing.assert_array_equal(layer.backward(y), x)


class TestProperties:
    @given(
        batch=st.integers(min_value=1, max_value=8),
        din=st.integers(min_value=1, max_value=10),
        dout=st.integers(min_value=1, max_value=10),
        seed=st.integers(min_value=0, max_value=100),
    )
    @settings(max_examples=30, deadline=None)
    def test_dense_grad_check_random_shapes(self, batch, din, dout, seed):
        rng = np.random.default_rng(seed)
        layer = Dense(din, dout, rng)
        x = rng.normal(size=(batch, din))
        dy = rng.normal(size=(batch, dout))
        layer.forward(x)
        dx = layer.backward(dy)
        np.testing.assert_allclose(dx, numerical_grad_input(layer, x, dy), atol=1e-4)
