"""Probabilistic SSP (PSSP): blocking probabilities and theory helpers.

Under PSSP a worker whose progress gap has reached the staleness threshold
``s`` is paused only *with probability P* (paper §III-E).  Two variants:

- **constant PSSP**: P = c for every over-threshold pull;
- **dynamic PSSP**: P(s, k) = α / (1 + e^(s−k)) for gap k ≥ s, where α is a
  constant or a function of the gradient significance SF(g, w) = |g|/|w|.

Theorem 1 shows constant PSSP-SGD(s, c) shares its regret upper bound with
SSP-SGD(s') at ``s' = s + 1/c − 1``; the closed forms live in
:mod:`repro.theory.regret`; :func:`equivalent_ssp_threshold` lives here
because the benches use it to construct Figure 9's A/B...G/H groups.
"""

from __future__ import annotations

import abc
import math
from typing import Callable, Optional, Union

import numpy as np

AlphaLike = Union[float, Callable[["SignificanceView"], float]]


class SignificanceView:
    """Minimal view handed to α-functions: the last gradient significance
    observed on this shard (|g|/|w|) and the requesting worker's gap."""

    __slots__ = ("significance", "gap", "staleness")

    def __init__(self, significance: float, gap: int, staleness: float):
        self.significance = significance
        self.gap = gap
        self.staleness = staleness


def gradient_significance(grad_norm: float, weight_norm: float, eps: float = 1e-12) -> float:
    """Gaia-style significance SF(g, w) = |g| / |w| (paper §III-E2)."""
    if grad_norm < 0 or weight_norm < 0:
        raise ValueError("norms must be non-negative")
    return grad_norm / (weight_norm + eps)


class ProbabilityModel(abc.ABC):
    """Maps (threshold s, gap k, shard state) to a pause probability P."""

    #: Whether :meth:`probability` reads the view's gradient significance:
    #: only then does PSSP read it off the shard, a catch-up of a simulated
    #: run's replay (:attr:`repro.core.conditions.PullCondition.reads_values`).
    reads_values: bool = False

    @abc.abstractmethod
    def probability(self, s: float, gap: int, view: Optional[SignificanceView] = None) -> float:
        """Return P ∈ [0, 1]: probability of pausing an over-threshold pull."""

    def constant_c(self) -> Optional[float]:
        """The constant pause probability c when this model has one, else
        None.  Carried in the server's ``server_config`` protocol event so
        trace consumers can derive the effective bound s' = s + 1/c − 1
        (paper §III-E1) for PSSP-const streams."""
        return None

    def describe(self) -> str:
        return type(self).__name__


class ConstantProbability(ProbabilityModel):
    """Constant PSSP: P = 0 below the threshold, P = c at/above it.

    c = 1 reduces to SSP; c = 0 reduces to ASP (paper §III-E1).
    """

    def __init__(self, c: float):
        if not 0.0 <= c <= 1.0:
            raise ValueError(f"c must be in [0, 1], got {c}")
        self.c = c

    def probability(self, s, gap, view=None):
        if gap < s:
            return 0.0
        return self.c

    def constant_c(self) -> Optional[float]:
        return self.c

    def describe(self) -> str:
        return f"constant(c={self.c})"


class DynamicProbability(ProbabilityModel):
    """Dynamic PSSP: P(s, k) = α / (1 + e^(s−k)) for k ≥ s, else 0.

    α may be a constant (minimum pause probability α/2 at k = s, rising
    toward α as the gap grows) or a callable of :class:`SignificanceView`
    (e.g. the gradient-significance function), in which case the bound
    analysis relies on the function's lower bound (Theorem 2).
    """

    def __init__(self, alpha: AlphaLike = 1.0):
        if isinstance(alpha, (int, float)):
            if not 0.0 <= float(alpha) <= 1.0:
                raise ValueError(f"constant alpha must be in [0, 1], got {alpha}")
        elif not callable(alpha):
            raise TypeError("alpha must be a number or a callable")
        self.alpha = alpha

    @property
    def reads_values(self) -> bool:
        return callable(self.alpha)

    def _alpha_value(self, view: Optional[SignificanceView]) -> float:
        if callable(self.alpha):
            if view is None:
                raise ValueError("callable alpha needs a SignificanceView")
            a = float(self.alpha(view))
        else:
            a = float(self.alpha)
        return min(max(a, 0.0), 1.0)

    def probability(self, s, gap, view=None):
        if gap < s:
            return 0.0
        a = self._alpha_value(view)
        # Logistic in the over-threshold gap; P(s, s) = α/2, P(∞) → α.
        return a / (1.0 + math.exp(s - gap))

    def describe(self) -> str:
        if callable(self.alpha):
            return "dynamic(alpha=significance)"
        return f"dynamic(alpha={self.alpha})"


def significance_alpha(scale: float = 10.0, floor: float = 0.05, ceil: float = 1.0):
    """An α-function driven by gradient significance: large |g|/|w| (the
    shard is still moving) ⇒ pause fast workers more readily; tiny
    significance ⇒ let them run.  ``scale`` converts the typically small
    |g|/|w| ratio into the [floor, ceil] α range."""
    if not 0.0 <= floor <= ceil <= 1.0:
        raise ValueError("need 0 <= floor <= ceil <= 1")

    def alpha(view: SignificanceView) -> float:
        return min(ceil, max(floor, scale * view.significance))

    return alpha


# -- matched-regret helper (Theorem 1 / Figure 9 pairs) ------------------


def equivalent_ssp_threshold(s: float, c: float) -> float:
    """The SSP threshold s' whose regret bound equals constant PSSP(s, c):
    s' = s + 1/c − 1.  Note s' may be fractional — PSSP provides the
    fine-tuned staleness control SSP's integer s cannot."""
    if c <= 0 or c > 1:
        raise ValueError(f"c must be in (0, 1], got {c}")
    return s + 1.0 / c - 1.0


def effective_staleness_pmf(s: int, c: float, k: int) -> float:
    """P[constant PSSP(s, c) behaves like SSP with threshold k], k ≥ s:
    the worker passed k−s over-threshold coin flips then was paused, so
    the probability is c·(1−c)^(k−s) (Theorem 1)."""
    if k < s:
        return 0.0
    if not 0.0 < c <= 1.0:
        raise ValueError(f"c must be in (0, 1], got {c}")
    return c * (1.0 - c) ** (k - s)


def expected_effective_staleness(s: int, c: float) -> float:
    """Mean of the effective-staleness distribution: s + (1−c)/c."""
    if not 0.0 < c <= 1.0:
        raise ValueError(f"c must be in (0, 1], got {c}")
    return s + (1.0 - c) / c


def sample_effective_staleness(
    s: int, c: float, rng: np.random.Generator, size: int = 1
) -> np.ndarray:
    """Monte-Carlo sampler of the same distribution (for theory tests)."""
    if not 0.0 < c <= 1.0:
        raise ValueError(f"c must be in (0, 1], got {c}")
    return s + rng.geometric(c, size=size) - 1
