"""Worker-side push filters: PS-Lite 'programming filters' and Gaia.

PS-Lite exposes user filters on the communication path (paper §II-A);
Gaia (paper §V-B, ref [37]) filters *insignificant* gradients — over 95%
of updates change a parameter by less than 1% — accumulating them locally
until they matter.  FluentPS's dynamic PSSP already consumes the
significance signal; these filters apply the complementary idea on the
wire: a worker's update is split into a *sent* part and a locally
*accumulated residual*, so no gradient mass is ever dropped (Gaia's
correctness argument), but the bytes on the wire shrink.

All filters satisfy the conservation invariant

    sum of sent updates  +  current residual  ==  sum of raw updates

which the test suite checks property-style.  The sim runner charges wire
bytes for the sent fraction only (sparse encoding: index + value per
element).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Optional

import numpy as np


@dataclass
class FilterResult:
    """What one push looks like after filtering."""

    update: np.ndarray  # the dense update actually pushed
    sent_fraction: float  # fraction of elements carrying information
    wire_bytes_factor: float  # multiplier on the dense wire size

    def __post_init__(self) -> None:
        if not 0.0 <= self.sent_fraction <= 1.0:
            raise ValueError(f"sent_fraction must be in [0,1], got {self.sent_fraction}")
        if self.wire_bytes_factor < 0:
            raise ValueError("wire_bytes_factor must be >= 0")


class PushFilter(abc.ABC):
    """Transforms a worker's update before it is pushed."""

    #: Whether the filtered update and its wire size depend on the update's
    #: values: a simulated run times each push by its contents, so its
    #: replay runs the filter as each step is taken
    #: (:meth:`repro.core.replay.Replay.wire_factor`); one that reads none is skipped.
    reads_values: bool = True

    #: bytes per sent element under sparse (index, value) encoding,
    #: relative to the 4 dense bytes — i.e. a sent element costs 8 bytes.
    SPARSE_FACTOR = 2.0

    @abc.abstractmethod
    def apply(
        self, update: np.ndarray, params: Optional[np.ndarray], iteration: int
    ) -> FilterResult: ...

    def describe(self) -> str:
        return type(self).__name__

    @staticmethod
    def _result(update: np.ndarray, mask: np.ndarray) -> FilterResult:
        sent = float(mask.mean()) if mask.size else 0.0
        # Sparse encoding beats dense only below 50% density.
        factor = min(1.0, PushFilter.SPARSE_FACTOR * sent)
        return FilterResult(update=update, sent_fraction=sent, wire_bytes_factor=factor)


class NoFilter(PushFilter):
    """Identity: the dense update goes on the wire."""

    reads_values = False

    def apply(self, update, params, iteration):
        return FilterResult(update=update, sent_fraction=1.0, wire_bytes_factor=1.0)


class SignificanceFilter(PushFilter):
    """Gaia's significance filter with local accumulation.

    An element is *significant* when |accumulated update| exceeds
    ``threshold · |w|`` (relative) or ``threshold · floor`` where the
    weight is near zero.  Insignificant elements stay in a local residual
    that keeps accumulating across iterations — they are sent once their
    aggregate crosses the threshold, so convergence mass is preserved.
    """

    def __init__(self, threshold: float = 0.01, floor: float = 1e-3):
        if threshold < 0:
            raise ValueError(f"threshold must be >= 0, got {threshold}")
        if floor <= 0:
            raise ValueError(f"floor must be > 0, got {floor}")
        self.threshold = threshold
        self.floor = floor
        self._residual: Optional[np.ndarray] = None
        self.total_suppressed = 0
        self.total_elements = 0

    def apply(self, update, params, iteration):
        if self._residual is None:
            self._residual = np.zeros_like(update)
        elif self._residual.shape != update.shape:
            raise ValueError("update shape changed mid-run")
        pending = self._residual + update
        if params is not None:
            scale = np.maximum(np.abs(params), self.floor)
        else:
            scale = self.floor
        mask = np.abs(pending) >= self.threshold * scale
        sent = np.where(mask, pending, 0.0)
        self._residual = np.where(mask, 0.0, pending)
        self.total_elements += update.size
        self.total_suppressed += int(update.size - mask.sum())
        return self._result(sent, mask)

    @property
    def residual(self) -> Optional[np.ndarray]:
        return None if self._residual is None else self._residual.copy()

    def describe(self) -> str:
        return f"significance(threshold={self.threshold})"


class TopKFilter(PushFilter):
    """Send only the k-fraction largest-magnitude elements; accumulate
    the rest locally (classic gradient sparsification with memory)."""

    def __init__(self, fraction: float = 0.1):
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        self.fraction = fraction
        self._residual: Optional[np.ndarray] = None

    def apply(self, update, params, iteration):
        if self._residual is None:
            self._residual = np.zeros_like(update)
        pending = self._residual + update
        k = max(1, int(round(self.fraction * pending.size)))
        if k >= pending.size:
            self._residual = np.zeros_like(pending)
            return FilterResult(pending, 1.0, 1.0)
        cut = np.partition(np.abs(pending), pending.size - k)[pending.size - k]
        mask = np.abs(pending) >= cut
        # Ties can exceed k; that only errs toward sending more.
        sent = np.where(mask, pending, 0.0)
        self._residual = np.where(mask, 0.0, pending)
        return self._result(sent, mask)

    @property
    def residual(self) -> Optional[np.ndarray]:
        return None if self._residual is None else self._residual.copy()

    def describe(self) -> str:
        return f"topk(fraction={self.fraction})"


class RandomSparsifier(PushFilter):
    """Send each element with probability p, rescaled by 1/p (unbiased);
    stateless — a cheap baseline for the filter ablation."""

    def __init__(self, p: float, rng: np.random.Generator):
        if not 0.0 < p <= 1.0:
            raise ValueError(f"p must be in (0, 1], got {p}")
        self.p = p
        self.rng = rng

    def apply(self, update, params, iteration):
        if self.p >= 1.0:
            return FilterResult(update, 1.0, 1.0)
        mask = self.rng.random(update.shape) < self.p
        sent = np.where(mask, update / self.p, 0.0)
        return self._result(sent, mask)

    def describe(self) -> str:
        return f"random(p={self.p})"
