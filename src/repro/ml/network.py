"""The network container: Sequential, with its flat-parameter view.

A :class:`Sequential` exposes its parameters as one flat fp64 vector in a
deterministic order, which is the contract the parameter-server layer
shards.  ``set_flat`` writes *in place* into the layer arrays, so layer
objects keep their identity across updates.

It also runs B workers' passes as one: its parameters and gradients are
then ``(B, P)`` blocks, one flat vector per row, and no layer keeps state
between the passes.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.core.keyspace import ModelSpec, TensorSpec
from repro.ml.layers import Layer


class Sequential:
    """Layers applied in order."""

    def __init__(self, layers: Sequence[Layer]):
        if not layers:
            raise ValueError("Sequential needs at least one layer")
        self.layers: List[Layer] = list(layers)

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def backward(self, dy: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            dy = layer.backward(dy)
        return dy

    # -- flat parameter plumbing -----------------------------------------

    def param_items(self) -> List[Tuple[str, np.ndarray]]:
        """(unique name, array) for every parameter, in flattening order."""
        return [
            (f"L{i}.{layer.name}.{key}", arr)
            for i, layer in enumerate(self.layers)
            for key, arr in layer.params.items()
        ]

    @property
    def n_params(self) -> int:
        return sum(arr.size for _n, arr in self.param_items())

    def model_spec(self, name: str) -> ModelSpec:
        """A :class:`ModelSpec` describing this network's tensors — the
        input to the slicing/layout machinery."""
        return ModelSpec.from_tensors(
            name, [TensorSpec(n, arr.shape) for n, arr in self.param_items()]
        )

    def get_flat(self) -> np.ndarray:
        return np.concatenate([arr.ravel() for _n, arr in self.param_items()])

    def set_flat(self, flat: np.ndarray) -> None:
        if flat.shape != (self.n_params,):
            raise ValueError(f"expected flat vector of {self.n_params}, got {flat.shape}")
        cursor = 0
        for _n, arr in self.param_items():
            arr[...] = flat[cursor : cursor + arr.size].reshape(arr.shape)
            cursor += arr.size

    # -- B workers at once -------------------------------------------------

    def _stacked_views(self, block: np.ndarray) -> List[List[np.ndarray]]:
        """Each layer's tensors as ``(B, ...)`` views of a C-contiguous
        ``(B, P)`` block, in flattening order."""
        views, cursor = [], 0
        for layer in self.layers:
            own = []
            for arr in layer.params.values():
                own.append(block[:, cursor : cursor + arr.size].reshape((len(block),) + arr.shape))
                cursor += arr.size
            views.append(own)
        return views

    def stacked_forward(self, block: np.ndarray, x: np.ndarray):
        """Row ``k`` of ``block`` is worker ``k``'s flat parameters, ``x[k]``
        its batch: returns the ``(B, batch, ...)`` outputs and the tape
        :meth:`stacked_backward` reads."""
        tape = []
        for layer, params in zip(self.layers, self._stacked_views(block)):
            x, saved = layer.stacked_forward(params, x)
            tape.append(saved)
        return x, tape

    def stacked_backward(self, block: np.ndarray, tape, dy: np.ndarray,
                         out: np.ndarray) -> None:
        """Write each worker's flat gradient into its row of ``out`` (a
        C-contiguous ``(B, P)`` block).  No input gradient is computed
        below the first layer with parameters."""
        layers = self.layers
        first = next((i for i, layer in enumerate(layers) if layer.params), len(layers))
        params, grads = self._stacked_views(block), self._stacked_views(out)
        for i in range(len(layers) - 1, first - 1, -1):
            dy = layers[i].stacked_backward(params[i], grads[i], tape[i], dy, i > first)
