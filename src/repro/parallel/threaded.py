"""Thread-parallel FluentPS: N worker threads against shared shard servers.

Each worker thread runs Algorithm 1's loop: compute a real NumPy update,
``s_push`` it, then block on ``s_pull`` until every shard server answers.
Server state is guarded by one lock (handler calls are short — NumPy adds
release the GIL for the heavy part anyway); a worker whose pull became a
DPR waits on a per-pull :class:`threading.Event` that the releasing push
sets from whichever thread triggered the frontier advance.

This runner demonstrates liveness and linearizability of the server under
real interleavings — the co-simulation demonstrates timing.  When an
:class:`~repro.obs.Observability` sink is active it also measures those
interleavings in wall-clock time: per-worker iteration latency, lock
acquisition wait, and time blocked in the pull; at the end it publishes
the run's merged :class:`~repro.core.metrics.SyncMetrics` as the
``sync_*`` gauges, as the simulated runner does.

An optional :class:`~repro.analysis.races.RaceTracker` observes the
run's synchronization operations (lock, per-pull Event, fork/join) and
its shared-parameter accesses, flagging any pair left unordered by
happens-before — the real-thread analogue of the simulated schedule
exploration in :mod:`repro.analysis.explore`.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

import numpy as np

if TYPE_CHECKING:  # instrumentation is duck-typed; no runtime import
    from repro.analysis.races import RaceTracker

from repro.core.api import ParameterServerSystem, PullResult
from repro.core.metrics import SyncMetrics
from repro.core.step import StepContext
from repro.obs import Observability, current_observability
from repro.utils.checks import check_number, check_seed
from repro.utils.rng import derive_rng


@dataclass
class ThreadedResult:
    """Outcome of one thread-parallel training run."""

    wall_time: float
    iterations: int
    n_workers: int
    metrics: SyncMetrics
    final_params: np.ndarray
    worker_errors: List[BaseException] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.worker_errors


class ThreadedRunner:
    """Run N worker threads to completion against a shared PS system."""

    def __init__(
        self,
        system: ParameterServerSystem,
        step_fn: Callable[[StepContext], np.ndarray],
        max_iter: int,
        seed: int = 0,
        timeout_s: float = 120.0,
        join_grace_s: float = 5.0,
        obs: Optional[Observability] = None,
        race_tracker: Optional["RaceTracker"] = None,
    ):
        max_iter = check_number("max_iter", max_iter, 1, integer=True)
        check_number("timeout_s", timeout_s, strict=True)
        check_number("join_grace_s", join_grace_s)
        self.system = system
        self.step_fn = step_fn
        self.max_iter = max_iter
        self.seed = check_seed(seed)
        self.timeout_s = timeout_s
        self.join_grace_s = join_grace_s
        self.obs = obs or current_observability()
        #: Optional happens-before race tracker (repro.analysis.races);
        #: None keeps the worker loop instrumentation-free.
        self.race_tracker = race_tracker
        #: worker -> end_thread() token, filled as workers exit (joined by
        #: run() so child work happens-before the final parameter read).
        self._end_tokens: Dict[int, dict] = {}
        self._lock = threading.Lock()
        self._t0 = 0.0
        #: Last *completed* iteration per worker (-1 = none yet).
        self._progress: List[int] = [-1] * system.n_workers
        system.set_clock(self._wall)
        reg = self.obs.registry
        # Per-worker wall-clock sketches: states from concurrent runs (or
        # pool processes) merge exactly for cross-run p50/p95/p99.
        self._q_iter = reg.sketch(
            "threaded_iter_quantiles",
            "wall seconds per completed iteration (mergeable sketch)",
        )
        self._q_lock = reg.sketch(
            "threaded_lock_wait_quantiles",
            "wall seconds waiting to acquire the server lock (mergeable sketch)",
        )
        self._q_pull = reg.sketch(
            "threaded_pull_block_quantiles",
            "wall seconds blocked in the pull (mergeable sketch)",
        )

    def _wall(self) -> float:
        return time.monotonic() - self._t0

    def _worker_loop(
        self,
        worker: int,
        errors: List[BaseException],
        race_token: Optional[dict] = None,
    ) -> None:
        q_iter = self._q_iter.labels(worker=worker)
        q_lock = self._q_lock.labels(worker=worker)
        q_pull = self._q_pull.labels(worker=worker)
        tracker = self.race_tracker
        shard_locs = [
            f"shard{m}.params" for m in range(getattr(self.system, "n_servers", 0))
        ]
        if tracker is not None:
            tracker.begin_thread(race_token, name=f"worker{worker}")
        try:
            # Initial snapshot under the lock: another worker may already
            # be pushing, and the servers apply updates to the very arrays
            # current_params() reads.
            with self._lock:
                if tracker is not None:
                    tracker.lock_acquired(id(self._lock))
                    for loc in shard_locs:
                        tracker.access(loc, write=False, where=f"worker{worker}.init")
                params = self.system.current_params()
                if tracker is not None:
                    tracker.lock_released(id(self._lock))
            rng = derive_rng(self.seed, "step", worker)
            for i in range(self.max_iter):
                t_iter = time.monotonic()
                update = self.step_fn(
                    StepContext(worker=worker, iteration=i, params=params, rng=rng)
                )
                done = threading.Event()
                box: Dict[str, PullResult] = {}

                def on_complete(result: PullResult) -> None:
                    # May run on the releasing pusher's thread (DPR flush):
                    # the Event carries the happens-before edge back to us.
                    box["result"] = result
                    if tracker is not None:
                        tracker.event_set(id(done))
                    done.set()

                t_lock = time.monotonic()
                with self._lock:
                    q_lock.observe(time.monotonic() - t_lock)
                    if tracker is not None:
                        tracker.lock_acquired(id(self._lock))
                        for loc in shard_locs:
                            tracker.access(
                                loc, write=True, where=f"worker{worker}.push@{i}"
                            )
                    self.system.s_push(worker, i, update)
                    self.system.s_pull(worker, i, on_complete)
                    if tracker is not None:
                        for loc in shard_locs:
                            tracker.access(
                                loc, write=False, where=f"worker{worker}.pull@{i}"
                            )
                        tracker.lock_released(id(self._lock))
                # The pull may have completed synchronously (condition held)
                # or will be completed by another worker's push later.
                t_pull = time.monotonic()
                if not done.wait(self.timeout_s):
                    raise TimeoutError(
                        f"worker {worker} pull for iteration {i} timed out after "
                        f"{self.timeout_s}s (possible deadlock)"
                    )
                if tracker is not None:
                    tracker.event_waited(id(done))
                pull_block = time.monotonic() - t_pull
                q_pull.observe(pull_block)
                params = box["result"].params
                self._progress[worker] = i
                iter_wall = time.monotonic() - t_iter
                q_iter.observe(iter_wall)
        except BaseException as exc:  # propagate to the caller thread
            errors.append(exc)
        finally:
            if tracker is not None:
                self._end_tokens[worker] = tracker.end_thread()

    def run(self) -> ThreadedResult:
        """Start all worker threads, join them, and aggregate results.

        Joining uses one shared wall-clock deadline (``timeout_s`` plus
        ``join_grace_s``) across all threads rather than a fresh timeout
        per join — a hung run fails after the deadline, not after
        N x timeout.
        """
        errors: List[BaseException] = []
        self._t0 = time.monotonic()
        capture = None
        if self.obs.enabled:
            self.obs.registry.set_clock(self._wall)
            # Threaded runs have no sim trace; the capture still collects
            # the servers' protocol instants for the repro.analysis
            # sanitizer (wall-clock timestamps, handler-order event log).
            n_servers = getattr(self.system, "n_servers", 0)
            capture = self.obs.begin_run(
                f"threaded-run{len(self.obs.runs)}-n{self.system.n_workers}"
                f"x{n_servers}"
            )
            self.obs.instants.record(
                "run_config", 0.0, actor="runner",
                runner="threaded", n_workers=self.system.n_workers,
                n_servers=n_servers,
            )
        tracker = self.race_tracker
        threads = [
            threading.Thread(
                target=self._worker_loop,
                args=(w, errors, tracker.fork() if tracker is not None else None),
                name=f"fluentps-worker-{w}",
                daemon=True,
            )
            for w in range(self.system.n_workers)
        ]
        for t in threads:
            t.start()
        deadline = time.monotonic() + self.timeout_s + self.join_grace_s
        for t in threads:
            t.join(max(0.0, deadline - time.monotonic()))
        if tracker is not None:
            for w, t in enumerate(threads):
                if not t.is_alive():
                    tracker.join_thread(self._end_tokens.get(w))
        alive = [t.name for t in threads if t.is_alive()]
        if alive:
            progress = {
                f"worker{w}": self._progress[w] for w in range(self.system.n_workers)
            }
            errors.append(
                TimeoutError(
                    f"threads never finished: {alive}; "
                    f"last completed iteration per worker: {progress}"
                )
            )
        wall = time.monotonic() - self._t0
        if tracker is not None:
            # The final parameter read below happens-after every joined
            # worker; an unjoined (hung) worker would legitimately race.
            for m in range(getattr(self.system, "n_servers", 0)):
                tracker.access(f"shard{m}.params", write=False, where="run.final")
        if capture is not None and not errors:
            capture.complete = True
        metrics = self.system.merged_metrics()
        if self.obs.enabled:
            metrics.publish(self.obs.registry)
        return ThreadedResult(
            wall_time=wall,
            iterations=self.max_iter,
            n_workers=self.system.n_workers,
            metrics=metrics,
            final_params=self.system.current_params(),
            worker_errors=errors,
        )
