"""Worker-side optimizers producing the update pushed to the servers.

Contract (matching Algorithm 1 line 15, ``w ← w + u/N``): an optimizer
turns the worker's flat gradient into the flat update ``u`` it pushes;
the servers average contributions over workers, so for plain SGD
``u = −lr·g`` makes one global iteration apply the mean −lr·gradient.

Includes Layer-wise Adaptive Rate Scaling (LARS, paper ref [39]) — the
paper uses LARS to support its large-batch training — which needs the
per-tensor slice ranges of the flat vector.
"""

from __future__ import annotations

import abc
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

LrSchedule = Union[float, Callable[[int], float]]


def resolve_lr(lr: LrSchedule, iteration: int) -> float:
    value = lr(iteration) if callable(lr) else float(lr)
    if value < 0:
        raise ValueError(f"learning rate must be >= 0, got {value} at t={iteration}")
    return value


def step_decay(base_lr: float, boundaries: Sequence[int], factor: float = 0.1) -> Callable[[int], float]:
    """Piecewise-constant decay: multiply by ``factor`` at each boundary."""
    bounds = sorted(boundaries)

    def schedule(t: int) -> float:
        lr = base_lr
        for b in bounds:
            if t >= b:
                lr *= factor
        return lr

    return schedule


def warmup(base: Callable[[int], float], warmup_iters: int) -> Callable[[int], float]:
    """Linear warm-up wrapper (standard for large-batch training)."""
    if warmup_iters < 0:
        raise ValueError("warmup_iters must be >= 0")

    def schedule(t: int) -> float:
        lr = base(t) if callable(base) else float(base)
        if warmup_iters and t < warmup_iters:
            return lr * (t + 1) / warmup_iters
        return lr

    return schedule


class Optimizer(abc.ABC):
    """Stateful per-worker update rule over the flat parameter vector."""

    @abc.abstractmethod
    def update(self, grad: np.ndarray, params: np.ndarray, iteration: int) -> np.ndarray:
        """Return the update to push (server applies ``w += u/N``).

        ``grad`` and ``params`` may be rows of blocks the caller reuses
        (:meth:`repro.ml.training.TrainingTask.steps`): keep no reference."""


class SGD(Optimizer):
    """SGD with momentum and weight decay."""

    def __init__(
        self,
        lr: LrSchedule = 0.1,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
        nesterov: bool = False,
    ):
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        if weight_decay < 0:
            raise ValueError("weight_decay must be >= 0")
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.nesterov = nesterov
        self._velocity: Optional[np.ndarray] = None

    def update(self, grad, params, iteration):
        g = grad
        if self.weight_decay:
            g = g + self.weight_decay * params
        if self.momentum:
            if self._velocity is None:
                self._velocity = np.zeros_like(g)
            v = self._velocity
            v *= self.momentum  # in place: the two roundings of momentum * v + g
            v += g
            g = g + self.momentum * v if self.nesterov else v
        return -resolve_lr(self.lr, iteration) * g


class Adam(Optimizer):
    """Adam (Kingma & Ba — the paper's ref [21]).

    The paper's introduction lists parameter-specific learning rates as
    one mitigation for delayed gradients; the staleness ablation compares
    Adam workers against plain SGD under ASP/PSSP.
    """

    def __init__(
        self,
        lr: LrSchedule = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ValueError("betas must be in [0, 1)")
        if weight_decay < 0:
            raise ValueError("weight_decay must be >= 0")
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self._m: Optional[np.ndarray] = None
        self._v: Optional[np.ndarray] = None
        self._t = 0

    def update(self, grad, params, iteration):
        g = grad
        if self.weight_decay:
            g = g + self.weight_decay * params
        if self._m is None:
            self._m = np.zeros_like(g)
            self._v = np.zeros_like(g)
        self._t += 1
        self._m = self.beta1 * self._m + (1 - self.beta1) * g
        self._v = self.beta2 * self._v + (1 - self.beta2) * g * g
        m_hat = self._m / (1 - self.beta1**self._t)
        v_hat = self._v / (1 - self.beta2**self._t)
        return -resolve_lr(self.lr, iteration) * m_hat / (np.sqrt(v_hat) + self.eps)


class LARS(Optimizer):
    """Layer-wise Adaptive Rate Scaling (You et al., 2017).

    Per tensor: local_lr = η·‖w‖ / (‖g‖ + wd·‖w‖ + ε); the momentum update
    uses local_lr·(g + wd·w).  ``tensor_slices`` are the per-tensor flat
    ranges from :meth:`repro.ml.network.Network.tensor_slices`.
    """

    def __init__(
        self,
        tensor_slices: Sequence[Tuple[int, int]],
        lr: LrSchedule = 0.1,
        momentum: float = 0.9,
        weight_decay: float = 5e-4,
        eta: float = 0.001,
        eps: float = 1e-9,
    ):
        if not tensor_slices:
            raise ValueError("LARS needs the per-tensor slice ranges")
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.slices = list(tensor_slices)
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.eta = eta
        self.eps = eps
        self._velocity: Optional[np.ndarray] = None

    def update(self, grad, params, iteration):
        if self._velocity is None:
            self._velocity = np.zeros_like(grad)
        lr = resolve_lr(self.lr, iteration)
        out = np.empty_like(grad)
        for start, stop in self.slices:
            w = params[start:stop]
            g = grad[start:stop]
            w_norm = float(np.linalg.norm(w))
            g_norm = float(np.linalg.norm(g))
            if w_norm > 0 and g_norm > 0:
                local_lr = self.eta * w_norm / (g_norm + self.weight_decay * w_norm + self.eps)
            else:
                local_lr = 1.0
            scaled = local_lr * (g + self.weight_decay * w)
            self._velocity[start:stop] = self.momentum * self._velocity[start:stop] + scaled
            out[start:stop] = -lr * self._velocity[start:stop]
        return out
