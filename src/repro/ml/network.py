"""Network containers: Sequential, residual blocks, flat-parameter view.

A :class:`Network` exposes its parameters as one flat fp64 vector (and its
gradients likewise) in a deterministic order, which is the contract the
parameter-server layer shards.  ``set_flat`` writes *in place* into the
layer arrays, so layer objects keep their identity across updates.

A :class:`Sequential` of stackable layers (an MLP) also runs B workers'
passes as one: its parameters and gradients are then ``(B, P)`` blocks,
one flat vector per row, and no layer keeps state between the passes.
"""

from __future__ import annotations

import abc
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.keyspace import ModelSpec, TensorSpec
from repro.ml.layers import BatchNorm, Layer, ReLU
from repro.ml.conv import Conv2D


class Network(abc.ABC):
    """A differentiable model over batched inputs."""

    @abc.abstractmethod
    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray: ...

    @abc.abstractmethod
    def backward(self, dy: np.ndarray) -> np.ndarray: ...

    @property
    @abc.abstractmethod
    def layers(self) -> Sequence[Layer]:
        """All layers in order (composites flattened out)."""

    # -- flat parameter plumbing -----------------------------------------

    def param_items(self) -> List[Tuple[str, np.ndarray]]:
        """(unique name, array) for every parameter, in flattening order."""
        items: List[Tuple[str, np.ndarray]] = []
        for i, layer in enumerate(self.layers):
            for key, arr in layer.params.items():
                items.append((f"L{i}.{layer.name}.{key}", arr))
        return items

    def grad_items(self) -> List[Tuple[str, np.ndarray]]:
        items: List[Tuple[str, np.ndarray]] = []
        for i, layer in enumerate(self.layers):
            for key, arr in layer.grads.items():
                items.append((f"L{i}.{layer.name}.{key}", arr))
        return items

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

    def get_flat_grads(self) -> np.ndarray:
        return np.concatenate([arr.ravel() for _n, arr in self.grad_items()])

    # -- convenience -------------------------------------------------------

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x, train=False)

    def tensor_slices(self) -> List[Tuple[int, int]]:
        """Per-tensor (start, stop) ranges in the flat vector — used by
        layer-wise optimizers like LARS."""
        out = []
        cursor = 0
        for _n, arr in self.param_items():
            out.append((cursor, cursor + arr.size))
            cursor += arr.size
        return out

    #: Whether :meth:`Sequential.stacked_forward` applies (every layer stacks).
    stackable = False


class Sequential(Network):
    """Layers applied in order."""

    def __init__(self, layers: Sequence[Layer]):
        if not layers:
            raise ValueError("Sequential needs at least one layer")
        self._layers = list(layers)

    @property
    def layers(self) -> Sequence[Layer]:
        flat: List[Layer] = []
        for layer in self._layers:
            if isinstance(layer, ResidualBlock):
                flat.extend(layer.sublayers)
            else:
                flat.append(layer)
        return flat

    def forward(self, x, train=True):
        for layer in self._layers:
            x = layer.forward(x, train=train)
        return x

    def backward(self, dy):
        for layer in reversed(self._layers):
            dy = layer.backward(dy)
        return dy

    @property
    def stackable(self) -> bool:
        return all(layer.stackable for layer in self._layers)

    def _stacked_views(self, block: np.ndarray) -> List[List[np.ndarray]]:
        """Each layer's tensors as ``(B, ...)`` views of a C-contiguous
        ``(B, P)`` block, in flattening order."""
        views, cursor = [], 0
        for layer in self._layers:
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
        for layer, params in zip(self._layers, self._stacked_views(block)):
            x, saved = layer.stacked_forward(params, x)
            tape.append(saved)
        return x, tape

    def stacked_backward(self, block: np.ndarray, tape, dy: np.ndarray,
                         out: np.ndarray) -> None:
        """Write each worker's flat gradient into its row of ``out`` (a
        C-contiguous ``(B, P)`` block).  No input gradient is computed
        below the first layer with parameters."""
        layers = self._layers
        first = next((i for i, layer in enumerate(layers) if layer.params), len(layers))
        params, grads = self._stacked_views(block), self._stacked_views(out)
        for i in range(len(layers) - 1, first - 1, -1):
            dy = layers[i].stacked_backward(params[i], grads[i], tape[i], dy, i > first)


class ResidualBlock(Layer):
    """Pre-activation-free basic block: conv-bn-relu-conv-bn + shortcut,
    then ReLU — the CIFAR ResNet block of He et al. (paper ref [1])."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        rng: np.random.Generator,
        stride: int = 1,
        use_bn: bool = True,
        name: str = "",
    ):
        super().__init__(name or f"res{in_channels}x{out_channels}s{stride}")
        self.conv1 = Conv2D(in_channels, out_channels, 3, rng, stride=stride, pad=1)
        self.conv2 = Conv2D(out_channels, out_channels, 3, rng, stride=1, pad=1)
        self.bn1 = BatchNorm(out_channels) if use_bn else None
        self.bn2 = BatchNorm(out_channels) if use_bn else None
        self.relu1 = ReLU()
        if stride != 1 or in_channels != out_channels:
            self.proj: Optional[Conv2D] = Conv2D(
                in_channels, out_channels, 1, rng, stride=stride, pad=0
            )
            self.bn_proj = BatchNorm(out_channels) if use_bn else None
        else:
            self.proj = None
            self.bn_proj = None
        self._out_mask: Optional[np.ndarray] = None

    @property
    def sublayers(self) -> List[Layer]:
        subs: List[Layer] = [self.conv1]
        if self.bn1 is not None:
            subs.append(self.bn1)
        subs.append(self.conv2)
        if self.bn2 is not None:
            subs.append(self.bn2)
        if self.proj is not None:
            subs.append(self.proj)
            if self.bn_proj is not None:
                subs.append(self.bn_proj)
        return subs

    def forward(self, x, train=True):
        h = self.conv1.forward(x, train)
        if self.bn1 is not None:
            h = self.bn1.forward(h, train)
        h = self.relu1.forward(h, train)
        h = self.conv2.forward(h, train)
        if self.bn2 is not None:
            h = self.bn2.forward(h, train)
        if self.proj is not None:
            sc = self.proj.forward(x, train)
            if self.bn_proj is not None:
                sc = self.bn_proj.forward(sc, train)
        else:
            sc = x
        out = h + sc
        self._out_mask = out > 0
        return out * self._out_mask

    def backward(self, dy):
        if self._out_mask is None:
            raise RuntimeError(f"{self.name}: backward before forward")
        dy = dy * self._out_mask
        dbranch = dy
        if self.bn2 is not None:
            dbranch = self.bn2.backward(dbranch)
        dbranch = self.conv2.backward(dbranch)
        dbranch = self.relu1.backward(dbranch)
        if self.bn1 is not None:
            dbranch = self.bn1.backward(dbranch)
        dx = self.conv1.backward(dbranch)
        if self.proj is not None:
            dsc = dy
            if self.bn_proj is not None:
                dsc = self.bn_proj.backward(dsc)
            dx = dx + self.proj.backward(dsc)
        else:
            dx = dx + dy
        return dx
