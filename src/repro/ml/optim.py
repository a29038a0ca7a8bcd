"""Worker-side optimizers producing the update pushed to the servers.

Contract (matching Algorithm 1 line 15, ``w ← w + u/N``): an optimizer
turns the worker's flat gradient into the flat update ``u`` it pushes;
the servers average contributions over workers, so for plain SGD
``u = −lr·g`` makes one global iteration apply the mean −lr·gradient.
"""

from __future__ import annotations

import abc
from typing import Optional

import numpy as np


class Optimizer(abc.ABC):
    """Stateful per-worker update rule over the flat parameter vector."""

    @abc.abstractmethod
    def update(self, grad: np.ndarray, params: np.ndarray, iteration: int) -> np.ndarray:
        """Return the update to push (server applies ``w += u/N``).

        ``grad`` and ``params`` may be rows of blocks the caller reuses
        (:meth:`repro.ml.training.TrainingTask.steps`): keep no reference."""


class SGD(Optimizer):
    """SGD with momentum."""

    def __init__(self, lr: float = 0.1, momentum: float = 0.0):
        if lr < 0:
            raise ValueError(f"learning rate must be >= 0, got {lr}")
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.lr = float(lr)
        self.momentum = momentum
        self._velocity: Optional[np.ndarray] = None

    def update(self, grad, params, iteration):
        g = grad
        if self.momentum:
            if self._velocity is None:
                self._velocity = np.zeros_like(g)
            v = self._velocity
            v *= self.momentum  # in place: the two roundings of momentum * v + g
            v += g
            g = v
        return -self.lr * g
