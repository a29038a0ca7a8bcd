"""Virtual-clock training driver: staleness dynamics without a network.

Runs N logical workers against a :class:`ParameterServerSystem` under a
virtual clock: compute durations are sampled from a straggler model, and a
worker whose pull becomes a DPR is parked until the server releases it.
This reproduces every synchronization-frequency phenomenon (DPR counts,
progress gaps, staleness of applied gradients) with real NumPy gradient
math, but without communication costs — the discrete-event co-simulation
in :mod:`repro.sim.runner` adds those.

This driver is also the worker side of Algorithm 1: compute ``g_i`` from
the parameters obtained in the previous pull, ``sPush``, then wait on
``sPull`` for ``w_{i+1}``.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.api import ParameterServerSystem, PullResult
from repro.core.metrics import SyncMetrics
from repro.obs import Observability, current_observability
from repro.sim.stragglers import ComputeModel, LogNormalCompute
from repro.sim.trace import SpanKind, TraceRecorder
from repro.utils.records import SeriesRecord
from repro.utils.rng import derive_rng


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


def check_number(
    name: str, value: object, least: float = 0, *, integer: bool = False, strict: bool = False
) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``value`` is finite and
    ``>= least`` (``> least`` when ``strict``).  ``integer`` also refuses
    anything but an ``int``, ``bool`` included: ``max_iter=True`` is not
    "one".  The one check behind ``SimConfig`` and both worker drivers."""
    if integer and (isinstance(value, bool) or not isinstance(value, int)):
        ok = False
    else:
        ok = (least < value if strict else least <= value) and value < math.inf
    if not ok:
        kind = "an int" if integer else "finite and"
        raise ValueError(f"{name} must be {kind} {'>' if strict else '>='} {least}, got {value!r}")


@dataclass
class DriverResult:
    """Outcome of one virtual-clock training run."""

    duration: float
    iterations: int
    n_workers: int
    metrics: SyncMetrics
    trace: TraceRecorder
    final_params: np.ndarray
    eval_by_time: SeriesRecord = field(default_factory=lambda: SeriesRecord("eval"))
    eval_by_iteration: SeriesRecord = field(default_factory=lambda: SeriesRecord("eval"))

    @property
    def compute_time(self) -> float:
        return self.trace.compute_time()

    @property
    def blocked_time(self) -> float:
        return self.trace.total_by_kind(SpanKind.BLOCKED)

    def dprs_per_100_iterations(self) -> float:
        """Paper convention (Fig 9, Table IV): total DPRs across all shard
        servers, normalized per 100 training iterations."""
        return self.metrics.dprs_per_100_iterations(self.iterations)


class VirtualClockDriver:
    """Event-driven execution of Algorithm 1's worker loop for N workers."""

    def __init__(
        self,
        system: ParameterServerSystem,
        step_fn: StepFn,
        max_iter: int,
        compute_model: Optional[ComputeModel] = None,
        base_compute_time: float = 1.0,
        seed: int = 0,
        keep_spans: bool = False,
        eval_fn: Optional[Callable[[np.ndarray], float]] = None,
        eval_every: int = 0,
        start_iteration: int = 0,
        obs: Optional[Observability] = None,
    ):
        """``start_iteration`` continues a previous run (e.g. after
        :meth:`~repro.core.api.ParameterServerSystem.restore`): workers
        push iterations ``start_iteration .. start_iteration+max_iter-1``.
        """
        check_number("max_iter", max_iter, 1, integer=True)
        check_number("start_iteration", start_iteration, integer=True)
        check_number("eval_every", eval_every, integer=True)
        check_number("base_compute_time", base_compute_time, strict=True)
        self.system = system
        self.step_fn = step_fn
        self.max_iter = max_iter
        self.start_iteration = start_iteration
        self.end_iteration = start_iteration + max_iter
        self.compute_model = compute_model or LogNormalCompute(0.2)
        self.base_compute_time = base_compute_time
        self.seed = seed
        self.obs = obs or current_observability()
        # Observability implies a full trace capture for export.
        self.trace = TraceRecorder(keep_spans=keep_spans or self.obs.enabled)
        if self.obs.enabled:
            self.obs.registry.set_clock(lambda: self.now)
            self.obs.begin_run(
                f"driver-run{len(self.obs.runs)}-n{system.n_workers}", self.trace
            )
        self.eval_fn = eval_fn
        self.eval_every = eval_every

        self.now = 0.0
        self._seq = 0
        self._heap: List[Tuple[float, int, int, int, float]] = []  # (t, seq, worker, it, dur)
        n = system.n_workers
        self._params: List[np.ndarray] = [system.current_params() for _ in range(n)]
        self._step_rngs = [derive_rng(seed, "step", w) for w in range(n)]
        self._compute_rngs = [derive_rng(seed, "compute", w) for w in range(n)]
        self._pull_issue_time: Dict[int, float] = {}
        self._done = 0
        self.eval_by_time = SeriesRecord("eval", x_label="time_s", y_label="metric")
        self.eval_by_iteration = SeriesRecord("eval", x_label="iteration", y_label="metric")
        system.set_clock(lambda: self.now)

    # -- scheduling helpers ---------------------------------------------------

    def _schedule_compute(self, worker: int, iteration: int) -> None:
        dur = self.compute_model.sample(
            worker, iteration, self.base_compute_time, self._compute_rngs[worker]
        )
        self._seq += 1
        heapq.heappush(self._heap, (self.now + dur, self._seq, worker, iteration, dur))

    def _worker_name(self, worker: int) -> str:
        return f"worker{worker}"

    # -- event handlers --------------------------------------------------------

    def _on_compute_finished(self, worker: int, iteration: int, dur: float) -> None:
        self.trace.record_span(
            self._worker_name(worker), SpanKind.COMPUTE, self.now - dur, self.now, iteration
        )
        ctx = StepContext(
            worker=worker,
            iteration=iteration,
            params=self._params[worker],
            rng=self._step_rngs[worker],
        )
        update = self.step_fn(ctx)
        self.system.s_push(worker, iteration, update)
        self._pull_issue_time[worker] = self.now
        self.system.s_pull(
            worker, iteration, lambda result, w=worker: self._on_pull_complete(w, result)
        )

    def _on_pull_complete(self, worker: int, result: PullResult) -> None:
        issued = self._pull_issue_time.pop(worker)
        if self.now > issued:
            self.trace.record_span(
                self._worker_name(worker),
                SpanKind.BLOCKED,
                issued,
                self.now,
                result.progress,
            )
        self._params[worker] = result.params
        nxt = result.progress + 1
        if worker == 0 and self.eval_fn is not None and self.eval_every > 0:
            if nxt % self.eval_every == 0 or nxt == self.end_iteration:
                value = self.eval_fn(self.system.current_params())
                self.eval_by_time.append(self.now, value)
                self.eval_by_iteration.append(nxt, value)
        if nxt < self.end_iteration:
            self._schedule_compute(worker, nxt)
        else:
            self._done += 1

    # -- run ----------------------------------------------------------------------

    def run(self) -> DriverResult:
        """Drain the virtual clock until every worker finishes its range."""
        for w in range(self.system.n_workers):
            self._schedule_compute(w, self.start_iteration)
        while self._heap:
            t, _seq, worker, iteration, dur = heapq.heappop(self._heap)
            if t < self.now:
                raise RuntimeError("virtual clock went backwards")
            self.now = t
            self._on_compute_finished(worker, iteration, dur)
        if self._done != self.system.n_workers:
            stuck = self.system.n_workers - self._done
            raise RuntimeError(
                f"deadlock: {stuck} workers never completed "
                f"(buffered pulls: {self.system.total_buffered()})"
            )
        metrics = self.system.merged_metrics()
        if self.obs.enabled:
            metrics.publish(self.obs.registry)
        return DriverResult(
            duration=self.now,
            iterations=self.max_iter,
            n_workers=self.system.n_workers,
            metrics=metrics,
            trace=self.trace,
            final_params=self.system.current_params(),
            eval_by_time=self.eval_by_time,
            eval_by_iteration=self.eval_by_iteration,
        )
