"""Layers: Dense, ReLU, Flatten.

Every layer implements ``forward(x)`` and ``backward(dy) -> dx``, caching
whatever the backward pass needs.  Parameters and their gradients live in
ordered dicts keyed by a short name; :class:`repro.ml.network.Sequential`
flattens them into the single parameter vector the parameter server shards.

Each layer also has a *stacked* form: stateless, over a leading worker
axis, with each worker's parameters and gradients as views of one row of a
``(B, P)`` block.  Per worker slice it does the very operations of
``forward``/``backward`` (``np.matmul`` calls one BLAS product per slice),
so B workers' steps stack bit for bit.

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
    def forward(self, x: np.ndarray) -> np.ndarray: ...

    @abc.abstractmethod
    def backward(self, dy: np.ndarray) -> np.ndarray:
        """Given dL/d(output), fill ``self.grads`` and return dL/d(input)."""

    @abc.abstractmethod
    def stacked_forward(self, params, x):
        """``forward`` for B workers at once: ``params`` are this layer's
        tensors as ``(B, ...)`` views, ``x`` is ``(B, batch, ...)``.  Returns
        the output and what :meth:`stacked_backward` needs."""

    @abc.abstractmethod
    def stacked_backward(self, params, grads, saved, dy, need_dx: bool = True):
        """``backward`` for B workers: writes dL/d(param) into ``grads``
        (``(B, ...)`` views) and returns dL/d(input).  A layer with
        parameters skips that product unless ``need_dx``."""

    def add_param(self, key: str, value: np.ndarray) -> None:
        self.params[key] = value
        self.grads[key] = np.zeros_like(value)

    @property
    def n_params(self) -> int:
        return sum(p.size for p in self.params.values())


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

    def forward(self, x):
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

    def forward(self, x):
        self._mask = x > 0
        return x * self._mask

    def backward(self, dy):
        if self._mask is None:
            raise RuntimeError(f"{self.name}: backward before forward")
        return dy * self._mask

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

    def forward(self, x):
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, dy):
        if self._shape is None:
            raise RuntimeError(f"{self.name}: backward before forward")
        return dy.reshape(self._shape)

    def stacked_forward(self, params, x):
        return x.reshape(x.shape[0], x.shape[1], -1), x.shape

    def stacked_backward(self, params, grads, shape, dy, need_dx=True):
        return dy.reshape(shape)
