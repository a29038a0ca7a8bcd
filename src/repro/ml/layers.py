"""Core layers: Dense, ReLU, Flatten, Dropout, BatchNorm.

Every layer implements ``forward(x, train)`` and ``backward(dy) -> dx``,
caching whatever the backward pass needs.  Parameters and their gradients
live in ordered dicts keyed by a short name; :class:`repro.ml.network.Network`
flattens them into the single parameter vector the parameter server shards.

Dense, ReLU and Flatten also have a *stacked* form: stateless, over a
leading worker axis, with each worker's parameters and gradients as views
of one row of a ``(B, P)`` block.  Per worker slice it does the very
operations of ``forward``/``backward`` (``np.matmul`` calls one BLAS
product per slice), so B workers' steps stack bit for bit.

All math is vectorized NumPy over batched inputs (leading batch axis),
per the HPC guide: no Python loops over samples.
"""

from __future__ import annotations

import abc
from collections import OrderedDict
from typing import Optional, Tuple

import numpy as np

from repro.ml.initializers import he_normal, zeros


class Layer(abc.ABC):
    """Base layer: parameters, gradients, forward/backward."""

    def __init__(self, name: str = ""):
        self.name = name or type(self).__name__.lower()
        self.params: "OrderedDict[str, np.ndarray]" = OrderedDict()
        self.grads: "OrderedDict[str, np.ndarray]" = OrderedDict()

    @abc.abstractmethod
    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray: ...

    @abc.abstractmethod
    def backward(self, dy: np.ndarray) -> np.ndarray:
        """Given dL/d(output), fill ``self.grads`` and return dL/d(input)."""

    #: Whether the layer has the stacked form below.
    stackable = False

    def stacked_forward(self, params, x):
        """``forward`` for B workers at once: ``params`` are this layer's
        tensors as ``(B, ...)`` views, ``x`` is ``(B, batch, ...)``.  Returns
        the output and what :meth:`stacked_backward` needs."""
        raise NotImplementedError(f"{self.name} has no stacked form")

    def stacked_backward(self, params, grads, saved, dy, need_dx: bool = True):
        """``backward`` for B workers: writes dL/d(param) into ``grads``
        (``(B, ...)`` views) and returns dL/d(input).  A layer with
        parameters skips that product unless ``need_dx``."""
        raise NotImplementedError(f"{self.name} has no stacked form")

    def add_param(self, key: str, value: np.ndarray) -> None:
        self.params[key] = value
        self.grads[key] = np.zeros_like(value)

    @property
    def n_params(self) -> int:
        return sum(p.size for p in self.params.values())

    def zero_grads(self) -> None:
        for g in self.grads.values():
            g[...] = 0.0


class Dense(Layer):
    """Fully-connected layer: y = x @ W + b."""

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator,
                 name: str = ""):
        super().__init__(name or f"dense{in_features}x{out_features}")
        if in_features < 1 or out_features < 1:
            raise ValueError("feature counts must be >= 1")
        self.in_features = in_features
        self.out_features = out_features
        self.add_param("W", he_normal((in_features, out_features), in_features, rng))
        self.add_param("b", zeros((out_features,)))
        self._x: Optional[np.ndarray] = None

    def forward(self, x, train=True):
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ValueError(
                f"{self.name}: expected (batch, {self.in_features}), got {x.shape}"
            )
        self._x = x
        return x @ self.params["W"] + self.params["b"]

    def backward(self, dy):
        if self._x is None:
            raise RuntimeError(f"{self.name}: backward before forward")
        self.grads["W"][...] = self._x.T @ dy
        self.grads["b"][...] = dy.sum(axis=0)
        return dy @ self.params["W"].T

    stackable = True

    def stacked_forward(self, params, x):
        W, b = params
        return np.matmul(x, W) + b[:, None], x

    def stacked_backward(self, params, grads, x, dy, need_dx=True):
        gW, gb = grads
        np.matmul(x.transpose(0, 2, 1), dy, out=gW)
        dy.sum(axis=1, out=gb)
        return np.matmul(dy, params[0].transpose(0, 2, 1)) if need_dx else None


class ReLU(Layer):
    """Rectified linear unit."""

    def __init__(self, name: str = ""):
        super().__init__(name or "relu")
        self._mask: Optional[np.ndarray] = None

    def forward(self, x, train=True):
        self._mask = x > 0
        return x * self._mask

    def backward(self, dy):
        if self._mask is None:
            raise RuntimeError(f"{self.name}: backward before forward")
        return dy * self._mask

    stackable = True

    def stacked_forward(self, params, x):
        mask = x > 0
        return x * mask, mask

    def stacked_backward(self, params, grads, mask, dy, need_dx=True):
        return dy * mask


class Flatten(Layer):
    """Collapse all non-batch axes."""

    def __init__(self, name: str = ""):
        super().__init__(name or "flatten")
        self._shape: Optional[Tuple[int, ...]] = None

    def forward(self, x, train=True):
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, dy):
        if self._shape is None:
            raise RuntimeError(f"{self.name}: backward before forward")
        return dy.reshape(self._shape)

    stackable = True

    def stacked_forward(self, params, x):
        return x.reshape(x.shape[0], x.shape[1], -1), x.shape

    def stacked_backward(self, params, grads, shape, dy, need_dx=True):
        return dy.reshape(shape)


class Dropout(Layer):
    """Inverted dropout; identity at eval time."""

    def __init__(self, rate: float, rng: np.random.Generator, name: str = ""):
        super().__init__(name or f"dropout{rate}")
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self.rng = rng
        self._mask: Optional[np.ndarray] = None

    def forward(self, x, train=True):
        if not train or self.rate == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.rate
        self._mask = (self.rng.random(x.shape) < keep) / keep
        return x * self._mask

    def backward(self, dy):
        if self._mask is None:
            return dy
        return dy * self._mask


class BatchNorm(Layer):
    """Batch normalization over the batch (and spatial) axes.

    Accepts (batch, features) or NCHW (batch, channels, H, W); normalizes
    per feature/channel with learned scale γ and shift β, tracking running
    statistics for eval mode.
    """

    def __init__(self, num_features: int, momentum: float = 0.9, eps: float = 1e-5,
                 name: str = ""):
        super().__init__(name or f"bn{num_features}")
        if num_features < 1:
            raise ValueError("num_features must be >= 1")
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.num_features = num_features
        self.momentum = momentum
        self.eps = eps
        self.add_param("gamma", np.ones((num_features,)))
        self.add_param("beta", np.zeros((num_features,)))
        self.running_mean = np.zeros((num_features,))
        self.running_var = np.ones((num_features,))
        self._cache: Optional[Tuple] = None

    def _axes_and_shape(self, x: np.ndarray):
        if x.ndim == 2:
            return (0,), (1, self.num_features)
        if x.ndim == 4:
            return (0, 2, 3), (1, self.num_features, 1, 1)
        raise ValueError(f"{self.name}: expected 2D or 4D input, got {x.shape}")

    def forward(self, x, train=True):
        axes, shape = self._axes_and_shape(x)
        gamma = self.params["gamma"].reshape(shape)
        beta = self.params["beta"].reshape(shape)
        if train:
            mean = x.mean(axis=axes, keepdims=True)
            var = x.var(axis=axes, keepdims=True)
            self.running_mean = (
                self.momentum * self.running_mean + (1 - self.momentum) * mean.ravel()
            )
            self.running_var = (
                self.momentum * self.running_var + (1 - self.momentum) * var.ravel()
            )
        else:
            mean = self.running_mean.reshape(shape)
            var = self.running_var.reshape(shape)
        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat = (x - mean) * inv_std
        if train:
            self._cache = (x_hat, inv_std, axes, shape)
        return gamma * x_hat + beta

    def backward(self, dy):
        if self._cache is None:
            raise RuntimeError(f"{self.name}: backward before forward (train mode)")
        x_hat, inv_std, axes, shape = self._cache
        gamma = self.params["gamma"].reshape(shape)
        m = dy.size / self.num_features  # elements per feature
        self.grads["gamma"][...] = (dy * x_hat).sum(axis=axes)
        self.grads["beta"][...] = dy.sum(axis=axes)
        dxhat = dy * gamma
        # Standard batchnorm backward (all reductions over the norm axes).
        return (
            inv_std
            / m
            * (
                m * dxhat
                - dxhat.sum(axis=axes, keepdims=True)
                - x_hat * (dxhat * x_hat).sum(axis=axes, keepdims=True)
            )
        )
