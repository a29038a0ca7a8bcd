"""The worker step interface: what one gradient step reads and returns.

Algorithm 1's ``step(w)`` as every runner calls it — the simulated
cluster (:mod:`repro.sim.runner`) and the real threads
(:mod:`repro.parallel`) alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass
class StepContext:
    """Inputs to one worker gradient step."""

    worker: int
    iteration: int
    params: np.ndarray
    rng: np.random.Generator


#: Computes a local update from (possibly stale) parameters.  For plain
#: SGD return ``-lr * grad``; the server applies ``w += update / N``.
StepFn = Callable[[StepContext], np.ndarray]
