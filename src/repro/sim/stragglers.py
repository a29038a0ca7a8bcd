"""Per-iteration compute-time models, including straggler distributions.

"Even in a load-balanced cluster, some worker nodes are randomly slower
than other nodes" (paper §I, citing Project Adam).  The synchronization
models exist to tolerate exactly this variance, so the distribution is a
first-class experimental knob.  Every model maps a *base* iteration time
(model FLOPs / node FLOP rate) to a sampled duration; all draw from a
dedicated named RNG stream so runs are reproducible.
"""

from __future__ import annotations

import abc
from typing import Sequence

import numpy as np

from repro.utils.checks import check_number


class ComputeModel(abc.ABC):
    """Samples the duration of one gradient-computation step."""

    @abc.abstractmethod
    def sample(
        self,
        worker: int,
        iteration: int,
        base_time: float,
        rng: np.random.Generator,
    ) -> float:
        """Return the duration (seconds) of ``iteration`` on ``worker``."""

    def sample_many(
        self,
        worker: int,
        iterations: range,
        base_time: float,
        rng: np.random.Generator,
    ) -> Sequence[float]:
        """The durations of ``iterations`` on ``worker``, in order: what
        one :meth:`sample` per iteration returns, leaving ``rng`` where
        those calls leave it.  A model whose draws batch overrides this."""
        return [self.sample(worker, i, base_time, rng) for i in iterations]


class DeterministicCompute(ComputeModel):
    """No variance: every iteration takes ``factor * base_time``."""

    def __init__(self, factor: float = 1.0):
        check_number("factor", factor, strict=True)
        self.factor = factor

    def sample(self, worker, iteration, base_time, rng):
        return self.factor * base_time


class LogNormalCompute(ComputeModel):
    """Multiplicative log-normal jitter — the usual cloud-VM noise model.

    duration = base_time * exp(N(0, sigma)); sigma≈0.2 gives the mild,
    persistent variance of a load-balanced cluster.
    """

    def __init__(self, sigma: float = 0.2):
        check_number("sigma", sigma)
        self.sigma = sigma

    def sample(self, worker, iteration, base_time, rng):
        return base_time * float(np.exp(rng.normal(0.0, self.sigma)))

    def sample_many(self, worker, iterations, base_time, rng):
        # One normal per iteration, as the scalar draws take them.
        return base_time * np.exp(rng.normal(0.0, self.sigma, size=len(iterations)))


class ExponentialTailCompute(ComputeModel):
    """Occasional exponential slowdowns: with probability ``p_slow`` an
    iteration takes an extra Exp(mean = ``tail_scale * base_time``).

    Reproduces the 'randomly slower nodes' of Project Adam: most
    iterations are nominal, a few are badly delayed.
    """

    def __init__(self, p_slow: float = 0.1, tail_scale: float = 2.0, jitter_sigma: float = 0.1):
        if isinstance(p_slow, (bool, np.bool_)) or not 0 <= p_slow <= 1:
            raise ValueError(f"p_slow must be in [0,1], got {p_slow}")
        check_number("tail_scale", tail_scale)
        self.p_slow = p_slow
        self.tail_scale = tail_scale
        self.jitter = LogNormalCompute(jitter_sigma)

    def sample(self, worker, iteration, base_time, rng):
        t = self.jitter.sample(worker, iteration, base_time, rng)
        if rng.random() < self.p_slow:
            t += float(rng.exponential(self.tail_scale * base_time))
        return t


class ParetoTailCompute(ComputeModel):
    """Heavy (Pareto) tail — stress case beyond the paper's clusters."""

    def __init__(self, alpha: float = 3.0, scale: float = 0.3):
        check_number("alpha", alpha, 1, strict=True)  # a finite mean
        check_number("scale", scale)
        self.alpha = alpha
        self.scale = scale

    def sample(self, worker, iteration, base_time, rng):
        return base_time * (1.0 + self.scale * float(rng.pareto(self.alpha)))


class TransientStragglerCompute(ComputeModel):
    """A rotating straggler: in each window of ``period`` iterations one
    worker runs ``slow_factor`` times slower for ``duration`` iterations.

    This is the adversarial case for BSP (the barrier tracks the
    straggler) and the motivating case for SSP/PSSP.
    """

    def __init__(
        self,
        n_workers: int,
        slow_factor: float = 3.0,
        period: int = 50,
        duration: int = 10,
        jitter_sigma: float = 0.05,
    ):
        self.n_workers = check_number("n_workers", n_workers, 1, integer=True)
        check_number("slow_factor", slow_factor, 1)
        self.period = check_number("period", period, 1, integer=True)
        self.duration = check_number("duration", duration, 1, integer=True)
        if not duration <= period:
            raise ValueError("need 0 < duration <= period")
        self.slow_factor = slow_factor
        self.jitter = LogNormalCompute(jitter_sigma)

    def straggler_at(self, iteration: int) -> int:
        """Which worker is (potentially) slow during this window."""
        return (iteration // self.period) % self.n_workers

    def is_slow(self, worker: int, iteration: int) -> bool:
        return (
            self.straggler_at(iteration) == worker
            and iteration % self.period < self.duration
        )

    def sample(self, worker, iteration, base_time, rng):
        t = self.jitter.sample(worker, iteration, base_time, rng)
        if self.is_slow(worker, iteration):
            t *= self.slow_factor
        return t


class HeterogeneousCompute(ComputeModel):
    """Persistent per-worker speed differences plus mild jitter.

    Models a shared/oversubscribed CPU cluster (the paper's 64/128-worker
    scalability cluster): worker w runs at a fixed multiplier spread
    evenly over ``[1, 1+spread]``.  Persistent rate differences make the
    progress gap grow *linearly* until the staleness bound pins it — the
    regime where SSP's soft barrier fires every iteration for every fast
    worker regardless of the threshold, and where PSSP's probabilistic
    pass-through saves up to 97% of DPRs (Figure 9).
    """

    def __init__(self, n_workers: int, spread: float = 0.3, jitter_sigma: float = 0.02,
                 p_slow: float = 0.0, tail_scale: float = 2.0):
        self.n_workers = check_number("n_workers", n_workers, 1, integer=True)
        check_number("spread", spread)
        self.spread = spread
        self.tail = ExponentialTailCompute(p_slow, tail_scale, jitter_sigma)

    def rate_factor(self, worker: int) -> float:
        """Fixed slowdown multiplier of one worker (1 = fastest)."""
        if self.n_workers == 1:
            return 1.0
        return 1.0 + self.spread * worker / (self.n_workers - 1)

    def sample(self, worker, iteration, base_time, rng):
        return self.rate_factor(worker) * self.tail.sample(worker, iteration, base_time, rng)


def gpu_cluster_compute() -> ComputeModel:
    """Default compute model for the paper's GPU cluster: homogeneous
    dedicated nodes, tiny jitter, rare multi-iteration stalls (EBS/NFS
    hiccups, preemption on shared EC2 hosts)."""
    return ExponentialTailCompute(p_slow=0.004, tail_scale=4.0, jitter_sigma=0.01)


def cpu_cluster_compute(n_workers: int) -> ComputeModel:
    """Default compute model for the paper's shared CPU cluster:
    persistent heterogeneity plus occasional stalls."""
    return HeterogeneousCompute(
        n_workers, spread=0.3, jitter_sigma=0.02, p_slow=0.005, tail_scale=2.0
    )
