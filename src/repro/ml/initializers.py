"""Weight initializers (deterministic under a named RNG stream)."""

from __future__ import annotations

from typing import Tuple

import numpy as np


def he_normal(shape: Tuple[int, ...], fan_in: int, rng: np.random.Generator) -> np.ndarray:
    """He initialization — the standard for ReLU networks (ResNet paper)."""
    if fan_in <= 0:
        raise ValueError(f"fan_in must be positive, got {fan_in}")
    return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape)


def zeros(shape: Tuple[int, ...]) -> np.ndarray:
    return np.zeros(shape)

