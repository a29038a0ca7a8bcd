"""Synchronization metrics: DPR counts, wait times, staleness histograms.

These are the quantities the paper's evaluation reports: delayed pull
requests per 100 iterations (Figure 9, Table IV), DPR wait time, and the
staleness (missing iterations) of the parameters each pull received.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

import numpy as np


@dataclass
class SyncMetrics:
    """Per-shard (mergeable) synchronization counters."""

    pulls: int = 0
    pushes: int = 0
    immediate_pulls: int = 0
    dprs: int = 0  # pulls that were buffered (delayed pull requests)
    dpr_wait_total: float = 0.0  # summed sim-seconds DPRs spent buffered
    probabilistic_passes: int = 0  # over-threshold pulls PSSP let through
    probabilistic_pauses: int = 0  # over-threshold pulls PSSP paused
    frontier_advances: int = 0
    #: histogram of missing iterations in answered pulls:
    #: missing = max(0, progress + 1 − v_train) at response time.
    staleness_hist: Dict[int, int] = field(default_factory=lambda: defaultdict(int))
    #: DPR creation iteration indices (for per-100-iteration series).
    dpr_iterations: List[int] = field(default_factory=list)

    # -- recording -------------------------------------------------------

    def record_pull(self, immediate: bool, iteration: int) -> None:
        """Count one pull; non-immediate pulls are DPRs."""
        self.pulls += 1
        if immediate:
            self.immediate_pulls += 1
        else:
            self.dprs += 1
            self.dpr_iterations.append(iteration)

    def record_push(self) -> None:
        """Count one applied push."""
        self.pushes += 1

    def record_response(self, missing: int, waited: float = 0.0) -> None:
        """Record an answered pull: staleness + buffered wait time."""
        self.staleness_hist[max(0, missing)] += 1
        self.dpr_wait_total += waited

    def record_frontier_advance(self) -> None:
        """Count one V_train increment."""
        self.frontier_advances += 1

    def record_probabilistic(self, passed: bool) -> None:
        """Count one PSSP over-threshold coin flip (pass or pause)."""
        if passed:
            self.probabilistic_passes += 1
        else:
            self.probabilistic_pauses += 1

    def record_quiet_round(
        self,
        n_workers: int,
        early_pulls: int,
        iteration: int,
        dpr_waits: Optional[np.ndarray] = None,
        two_behind: int = 0,
    ) -> None:
        """Bulk-record one analytically committed quiet round: ``n_workers``
        pushes and pulls, one frontier advance, and what the serve order
        implies for the ``early_pulls`` answered before the frontier
        advanced: one missing iteration each (two for ``two_behind`` of
        them, answered before the previous advance) — or, with
        ``dpr_waits`` (a barrier), DPRs of ``iteration`` released with none
        missing, ``dpr_waits`` their buffered seconds in release order.
        Exactly equivalent to the per-request recording sequence of the
        event path — histogram keys are only created for non-zero buckets,
        ``dpr_wait_total`` is the same left fold, and an immediate pull
        adds 0.0 to it."""
        dprs = 0 if dpr_waits is None else early_pulls
        stale = early_pulls - dprs
        self.pushes += n_workers
        self.pulls += n_workers
        self.immediate_pulls += n_workers - dprs
        self.frontier_advances += 1
        if dprs:
            self.dprs += dprs
            self.dpr_iterations.extend([iteration] * dprs)
            folded = np.add.accumulate(np.concatenate(((self.dpr_wait_total,), dpr_waits)))
            self.dpr_wait_total = float(folded[-1])
        if two_behind:
            self.staleness_hist[2] += two_behind
        if stale - two_behind:
            self.staleness_hist[1] += stale - two_behind
        if n_workers - stale:
            self.staleness_hist[0] += n_workers - stale

    # -- derived ----------------------------------------------------------

    @property
    def dpr_fraction(self) -> float:
        return self.dprs / self.pulls if self.pulls else 0.0

    def dprs_per_100_iterations(self, total_iterations: int) -> float:
        """Paper convention: DPR count normalized per 100 iterations."""
        if total_iterations <= 0:
            raise ValueError("total_iterations must be positive")
        return 100.0 * self.dprs / total_iterations

    def dpr_series(self, total_iterations: int, bucket: int = 100) -> List[int]:
        """DPR count per ``bucket`` iterations (the Figure 9 series)."""
        if bucket < 1:
            raise ValueError("bucket must be >= 1")
        n_buckets = (total_iterations + bucket - 1) // bucket
        series = [0] * max(1, n_buckets)
        for it in self.dpr_iterations:
            idx = min(max(it, 0) // bucket, len(series) - 1)
            series[idx] += 1
        return series

    def mean_staleness(self) -> float:
        """Mean missing iterations across answered pulls."""
        total = sum(self.staleness_hist.values())
        if total == 0:
            return 0.0
        return sum(k * v for k, v in self.staleness_hist.items()) / total

    def max_staleness(self) -> int:
        """Largest missing-iterations count observed."""
        return max(self.staleness_hist, default=0)

    def mean_dpr_wait(self) -> float:
        """Mean buffered time per DPR."""
        return self.dpr_wait_total / self.dprs if self.dprs else 0.0

    # -- merging -----------------------------------------------------------

    def merge(self, other: "SyncMetrics") -> "SyncMetrics":
        """A new SyncMetrics combining both (inputs unchanged)."""
        out = SyncMetrics(
            pulls=self.pulls + other.pulls,
            pushes=self.pushes + other.pushes,
            immediate_pulls=self.immediate_pulls + other.immediate_pulls,
            dprs=self.dprs + other.dprs,
            dpr_wait_total=self.dpr_wait_total + other.dpr_wait_total,
            probabilistic_passes=self.probabilistic_passes + other.probabilistic_passes,
            probabilistic_pauses=self.probabilistic_pauses + other.probabilistic_pauses,
            frontier_advances=self.frontier_advances + other.frontier_advances,
        )
        for k, v in self.staleness_hist.items():
            out.staleness_hist[k] += v
        for k, v in other.staleness_hist.items():
            out.staleness_hist[k] += v
        out.dpr_iterations = sorted(self.dpr_iterations + other.dpr_iterations)
        return out

    @staticmethod
    def merge_all(metrics: Iterable["SyncMetrics"]) -> "SyncMetrics":
        """Fold :meth:`merge` over many metric sets."""
        out = SyncMetrics()
        for m in metrics:
            out = out.merge(m)
        return out

    def summary(self) -> Dict[str, float]:
        """The headline numbers as a flat dict (for records/JSON)."""
        return {
            "pulls": float(self.pulls),
            "pushes": float(self.pushes),
            "dprs": float(self.dprs),
            "dpr_fraction": self.dpr_fraction,
            "mean_dpr_wait": self.mean_dpr_wait(),
            "mean_staleness": self.mean_staleness(),
            "max_staleness": float(self.max_staleness()),
            "frontier_advances": float(self.frontier_advances),
        }

    def publish(self, registry, **labels: object) -> None:
        """Export the headline numbers into a metrics registry as gauges
        (one label set per caller, e.g. ``shard=3`` or ``run=...``)."""
        for key, value in self.summary().items():
            registry.gauge(f"sync_{key}", f"SyncMetrics.{key}").set(value, **labels)
        if self.probabilistic_passes or self.probabilistic_pauses:
            registry.gauge(
                "sync_probabilistic_passes", "PSSP over-threshold passes"
            ).set(self.probabilistic_passes, **labels)
            registry.gauge(
                "sync_probabilistic_pauses", "PSSP over-threshold pauses"
            ).set(self.probabilistic_pauses, **labels)
