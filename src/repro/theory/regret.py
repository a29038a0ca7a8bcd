"""Closed-form regret bounds: SSP-SGD, constant PSSP-SGD, dynamic PSSP-SGD.

Implements the paper's Equations 1-3 and Theorems 1-2:

- Proposition 1 (SSP-SGD, Ho et al.):
  ``R[W](s, N) ≤ 4FL·sqrt(2(s+1)N / T)``;
- Theorem 1 (constant PSSP-SGD): the geometric mixture over effective
  staleness ``k ~ c(1−c)^(k−s)`` is bounded by
  ``4FL·sqrt(2(s + 1/c)N / T)`` — i.e. PSSP(s, c) matches SSP(s') at
  ``s' = s + 1/c − 1``;
- Theorem 2 (dynamic PSSP-SGD): with constant α the pause probability is
  minimized at ``p_min = α/2``, giving ``R ≤ 4FL·sqrt(2(s + 2/α)N / T)``.

Plus the exact geometric-series form of Equation 2 (before the
Cauchy-Schwarz relaxation) and an empirical regret estimator so tests can
verify bound ≥ series ≥ Monte-Carlo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.pssp import effective_staleness_pmf


@dataclass(frozen=True)
class RegretConditions:
    """The (F, L) constants of Proposition 1: ``f_t`` are L-Lipschitz
    convex with bounded gradient norm L, and the parameter diameter
    satisfies D(w1‖w2) ≤ F²."""

    F: float = 1.0
    L: float = 1.0

    def __post_init__(self) -> None:
        if self.F <= 0 or self.L <= 0:
            raise ValueError("F and L must be positive")


def _check(N: int, T: int) -> None:
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")


def ssp_regret_bound(s: float, N: int, T: int, cond: RegretConditions = RegretConditions()) -> float:
    """Equation 1: ``4FL·sqrt(2(s+1)N / T)``."""
    _check(N, T)
    if s < 0:
        raise ValueError(f"s must be >= 0, got {s}")
    return 4 * cond.F * cond.L * math.sqrt(2 * (s + 1) * N / T)


def constant_pssp_regret_series(
    s: int, c: float, N: int, T: int,
    cond: RegretConditions = RegretConditions(),
    terms: int = 10_000,
) -> float:
    """Equation 2, summed directly: Σ_{k≥s} c(1−c)^(k−s) · 4FL·sqrt(2(k+1)N/T).

    This is the exact expectation over the effective-staleness
    distribution, i.e. the quantity Theorem 1 upper-bounds."""
    _check(N, T)
    if not 0 < c <= 1:
        raise ValueError(f"c must be in (0, 1], got {c}")
    ks = np.arange(s, s + terms)
    weights = np.array([effective_staleness_pmf(s, c, int(k)) for k in ks])
    values = 4 * cond.F * cond.L * np.sqrt(2 * (ks + 1) * N / T)
    return float(np.sum(weights * values))


def constant_pssp_regret_bound(
    s: int, c: float, N: int, T: int, cond: RegretConditions = RegretConditions()
) -> float:
    """Theorem 1 / Equation 3: ``4FL·sqrt(2(s + 1/c)N / T)``.

    Equals :func:`ssp_regret_bound` at ``s' = s + 1/c − 1`` exactly."""
    _check(N, T)
    if not 0 < c <= 1:
        raise ValueError(f"c must be in (0, 1], got {c}")
    return 4 * cond.F * cond.L * math.sqrt(2 * (s + 1.0 / c) * N / T)


def dynamic_pssp_regret_bound(
    s: int, alpha: float, N: int, T: int, cond: RegretConditions = RegretConditions()
) -> float:
    """Theorem 2: with constant α the minimum pause probability is α/2
    (at gap = s), so ``R ≤ 4FL·sqrt(2(s + 2/α)N / T)``."""
    _check(N, T)
    if not 0 < alpha <= 1:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    return constant_pssp_regret_bound(s, alpha / 2.0, N, T, cond)


def empirical_regret(
    losses: np.ndarray,
    optimum: float,
) -> float:
    """R[W] = mean_t f_t(w_t) − f(w*): the quantity the bounds cap.

    ``losses`` are the per-step training losses observed along the run;
    ``optimum`` is the best achievable loss (e.g. from a long centralized
    run)."""
    if losses.size == 0:
        raise ValueError("need at least one loss sample")
    return float(np.mean(losses) - optimum)


def sgd_regret_experiment(
    staleness_sampler: Callable[[np.random.Generator], int],
    T: int,
    dim: int = 10,
    lr: float = 0.05,
    seed: int = 0,
) -> float:
    """Monte-Carlo regret of delayed-gradient SGD on a convex quadratic.

    Runs SGD where each step's gradient is computed from the parameters
    ``k`` steps ago, with ``k`` drawn from ``staleness_sampler`` — the
    abstraction both SSP (k ≤ s deterministic) and PSSP (k geometric)
    instantiate.  Returns the empirical regret; used by the theory tests
    and the theory bench to confirm bound ordering.
    """
    rng = np.random.default_rng(seed)
    target = rng.normal(size=dim)
    history = [np.zeros(dim)]
    losses = []
    for _t in range(T):
        k = int(staleness_sampler(rng))
        if k < 0:
            raise ValueError("staleness must be >= 0")
        stale = history[max(0, len(history) - 1 - k)]
        noise = 0.1 * rng.normal(size=dim)
        grad = (stale - target) + noise
        w = history[-1] - lr * grad
        history.append(w)
        losses.append(0.5 * float(np.sum((history[-1] - target) ** 2)))
    optimum = 0.0
    return empirical_regret(np.array(losses), optimum)
