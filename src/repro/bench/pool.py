"""Parallel sweep executor with a deterministic run cache.

The experiment harness is a pile of embarrassingly parallel sweeps:
every figure/table loops over worker counts, synchronization models, or
straggler regimes, and each arm is an independent seeded simulation.
This module fans those arms out across processes and memoizes them on
disk, without changing a single output byte:

- :class:`RunTask` — one sweep arm: a module-level experiment function
  plus JSON-able kwargs (scale fields, worker count, sync-model spec,
  derived seed).  Tasks pickle cleanly to worker processes and
  fingerprint deterministically for the cache.
- :func:`derive_task_seed` — stable per-arm seed from
  ``(experiment_id, variant, base_seed)``, so the seed an arm sees never
  depends on submission order or process placement; serial and parallel
  execution produce byte-identical results.
- :class:`RunCache` — content-addressed JSON store under
  ``results/.cache/`` keyed by (task fingerprint, code fingerprint): a
  re-run recomputes only arms whose inputs *or* whose code changed.
- :class:`SweepExecutor` — maps tasks across a reusable process pool
  (``jobs=1`` runs inline and preserves the serial code path exactly),
  transports worker tracebacks back to the parent as
  :class:`WorkerFailure`, enforces a per-task timeout, and can replay
  each arm's protocol events through the :mod:`repro.analysis`
  sanitizer *inside* the worker process.

Wall-clock timing stays inside ``repro.bench`` (the ANA001 lint
boundary): nothing here leaks real time into ``repro.sim``/``repro.core``.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import hashlib
import json
import os
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from repro.bench.harness import ExperimentResult
from repro.obs import current_observability

#: Cache schema version — bump to invalidate every cached entry.
CACHE_SCHEMA = 1

#: Default location of the run cache (under the results directory).
DEFAULT_CACHE_DIR = os.path.join("results", ".cache")


# ---------------------------------------------------------------------------
# deterministic per-arm seeds
# ---------------------------------------------------------------------------


def derive_task_seed(experiment_id: str, variant: str, seed: int) -> int:
    """A stable 31-bit seed for one sweep arm.

    Hashes ``(experiment_id, variant, seed)`` so the seed an arm runs
    under is a pure function of *what* it is, never of submission order,
    worker placement, or which other arms exist.  This is what makes
    ``--jobs 1`` and ``--jobs N`` byte-identical.

    Convention: ``variant`` is the *pairing group*, not necessarily the
    arm's unique id.  Sweeps whose arms are compared against each other
    (e.g. every sync model in Figure 10, every P value of a Table IV
    row) pass the shared group so compared arms see identical straggler
    draws — common random numbers, matching the old serial loops.
    """
    payload = f"{experiment_id}\x1f{variant}\x1f{int(seed)}".encode("utf-8")
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


# ---------------------------------------------------------------------------
# tasks and fingerprints
# ---------------------------------------------------------------------------


def _canonical(value: object) -> object:
    """Reduce a kwarg value to a JSON-able canonical form for hashing."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            "__dataclass__": type(value).__name__,
            "fields": {
                f.name: _canonical(getattr(value, f.name))
                for f in dataclasses.fields(value)
            },
        }
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if hasattr(value, "value") and type(value).__module__ != "builtins":
        # Enum members (e.g. ExecutionMode) canonicalize to their value.
        return {"__enum__": type(value).__name__, "value": _canonical(value.value)}
    return {"__repr__": repr(value)}


@dataclass(frozen=True)
class RunTask:
    """One independent sweep arm, ready to ship to a worker process.

    ``fn`` must be a module-level function (pickled by reference) taking
    only JSON-able kwargs and returning an :class:`ExperimentResult`
    fragment; ``key`` is a human-readable id (``"fig7/N8"``) used in
    error messages and cache bookkeeping.
    """

    fn: Callable[..., ExperimentResult]
    kwargs: Dict[str, object] = field(default_factory=dict)
    key: str = ""
    timeout: Optional[float] = None

    def fn_ref(self) -> str:
        return f"{self.fn.__module__}:{self.fn.__qualname__}"

    def fingerprint(self) -> str:
        """Content hash of (function reference, canonical kwargs)."""
        doc = {
            "schema": CACHE_SCHEMA,
            "fn": self.fn_ref(),
            "kwargs": _canonical(self.kwargs),
        }
        blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def code_fingerprint(package_root: Optional[Path] = None) -> str:
    """Content hash over every ``repro`` source file.

    Any edit to the package invalidates the whole cache — coarse, but it
    guarantees a cached arm is interchangeable with a fresh run of the
    current code.  Computed once per process.
    """
    global _CODE_FINGERPRINT
    if package_root is None:
        if _CODE_FINGERPRINT is not None:
            return _CODE_FINGERPRINT
        import repro

        root = Path(repro.__file__).resolve().parent
    else:
        root = Path(package_root)
    h = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        h.update(str(path.relative_to(root)).encode("utf-8"))
        h.update(b"\x00")
        h.update(path.read_bytes())
        h.update(b"\x01")
    digest = h.hexdigest()
    if package_root is None:
        _CODE_FINGERPRINT = digest
    return digest


_CODE_FINGERPRINT: Optional[str] = None


# ---------------------------------------------------------------------------
# the run cache
# ---------------------------------------------------------------------------


class RunCache:
    """Content-addressed store of finished sweep arms.

    Entries live at ``<dir>/<digest[:2]>/<digest>.json`` where the
    digest covers the task fingerprint *and* the code fingerprint; the
    payload is the arm's :meth:`ExperimentResult.to_dict` JSON (the same
    round-trippable form the process pool transports).
    """

    def __init__(self, directory: Optional[str] = None):
        self.directory = Path(directory or DEFAULT_CACHE_DIR)

    def key_for(self, task: RunTask) -> str:
        blob = f"{task.fingerprint()}\x1f{code_fingerprint()}"
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def _path(self, digest: str) -> Path:
        return self.directory / digest[:2] / f"{digest}.json"

    def get(self, digest: str) -> Optional[Dict[str, object]]:
        """The cached payload for ``digest``, or None (corrupt == miss)."""
        path = self._path(digest)
        try:
            doc = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            return None
        if not isinstance(doc, dict) or doc.get("schema") != CACHE_SCHEMA:
            return None
        payload = doc.get("result")
        return payload if isinstance(payload, dict) else None

    def put(self, digest: str, task: RunTask, result: Dict[str, object]) -> Path:
        path = self._path(digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "schema": CACHE_SCHEMA,
            "task": {"fn": task.fn_ref(), "key": task.key},
            "result": result,
        }
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(doc, indent=2))
        os.replace(tmp, path)
        return path


# ---------------------------------------------------------------------------
# worker-side execution
# ---------------------------------------------------------------------------


class WorkerFailure(RuntimeError):
    """A sweep arm failed (exception, violation, or timeout) in a worker.

    Carries the remote traceback text so the parent can print exactly
    what went wrong without unpickling exotic exception types.  One
    failed task fails its experiment — never the whole suite.
    """

    def __init__(self, key: str, message: str, remote_traceback: str = ""):
        super().__init__(f"sweep arm {key or '<unnamed>'} failed: {message}")
        self.key = key
        self.remote_traceback = remote_traceback


def _sanitized_call(
    fn: Callable[..., ExperimentResult],
    kwargs: Dict[str, object],
    obs=None,
):
    """Run ``fn`` under a fresh Observability and sanitize its events.

    Mirrors the autouse pytest fixture, which cannot reach into worker
    processes: every protocol event the arm's servers emit is replayed
    through the vector-clock checker before the result is accepted.
    ``obs`` lets the caller share the bundle (e.g. to dump per-arm
    artifacts afterwards).  Returns ``(result, n_events_checked)``.

    The default bundle captures instants without the causal span DAG:
    protocol replay only needs the instant stream, skipping the DAG
    keeps mesoscale arms (100k-worker grid cells) out of causal-span
    RSS, and — unlike a causal-tracing bundle — leaves the arm eligible
    for the runner's closed-form round fast-forward.  Callers that want
    the DAG (e.g. ``obs_dir`` artifact dumps) pass their own ``obs``.
    """
    from repro.analysis.sanitizer import sanitize_observability
    from repro.obs import MetricsRegistry, Observability, observed

    if obs is None:
        obs = Observability(MetricsRegistry("pool-sanitizer"), causal=False)
    with observed(obs):
        result = fn(**kwargs)
    report = sanitize_observability(obs)
    if not report.ok:
        raise RuntimeError(
            "protocol sanitizer found violations in this arm's event stream:\n"
            + report.describe()
        )
    return result, report.n_events


def _arm_slug(key: str) -> str:
    """A filesystem-safe slug for an arm key (``"fig7/N8"`` -> ``fig7_N8``)."""
    slug = "".join(c if c.isalnum() or c in "-_." else "_" for c in key)
    return slug or "arm"


def _dump_arm_observability(obs, obs_dir: str, key: str) -> None:
    """Write one arm's trace (with causal spans) and metrics JSON.

    Artifacts land at ``<obs_dir>/<slug>.trace.json`` and
    ``<obs_dir>/<slug>.metrics.json`` — exactly the files
    ``python -m repro.obs`` consumes, so a pooled sweep's per-arm
    telemetry survives the process boundary that the parent's in-memory
    bundle cannot cross.
    """
    import json as _json

    from repro.obs.export import dump_trace

    directory = Path(obs_dir)
    directory.mkdir(parents=True, exist_ok=True)
    slug = _arm_slug(key)
    run = obs.last_run
    if run is not None:
        dump_trace(
            str(directory / f"{slug}.trace.json"),
            run.trace,
            instants=run.instants,
            process_name=run.label,
            causal=getattr(run, "causal", None),
        )
    metrics_path = directory / f"{slug}.metrics.json"
    metrics_path.write_text(_json.dumps(obs.registry.to_dict(), indent=2))


def _execute_remote(
    fn: Callable[..., ExperimentResult],
    kwargs: Dict[str, object],
    key: str,
    sanitize: bool,
    obs_dir: Optional[str] = None,
) -> Dict[str, object]:
    """Worker-process entry point: run one arm, return a plain payload.

    Resets the ambient observability first (a forked child would
    otherwise write into a copy of the parent's bundle), and never lets
    an exception escape — failures travel home as formatted tracebacks.
    With ``obs_dir`` the arm runs under its own fresh Observability and
    its trace/metrics are dumped there before returning (see
    :func:`_dump_arm_observability`).
    """
    from repro.obs import (
        MetricsRegistry,
        Observability,
        observed,
        set_current_observability,
    )

    set_current_observability(None)
    try:
        obs = None
        if obs_dir is not None:
            obs = Observability(MetricsRegistry(f"pool-arm-{_arm_slug(key)}"))
        if sanitize:
            result, n_events = _sanitized_call(fn, kwargs, obs=obs)
        elif obs is not None:
            with observed(obs):
                result = fn(**kwargs)
            n_events = 0
        else:
            result = fn(**kwargs)
            n_events = 0
        if obs is not None:
            _dump_arm_observability(obs, obs_dir, key)
        return {"ok": True, "result": result.to_dict(), "sanitized_events": n_events}
    except BaseException as exc:  # noqa: BLE001 - transported to the parent
        return {
            "ok": False,
            "error": {
                "type": type(exc).__name__,
                "message": str(exc),
                "traceback": traceback.format_exc(),
            },
        }


# ---------------------------------------------------------------------------
# the executor
# ---------------------------------------------------------------------------


@dataclass
class PoolStats:
    """Cumulative executor counters (rendered by the bench CLI)."""

    tasks: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    executed: int = 0
    failed: int = 0

    def snapshot(self) -> "PoolStats":
        return PoolStats(**dataclasses.asdict(self))

    def since(self, other: "PoolStats") -> "PoolStats":
        return PoolStats(
            tasks=self.tasks - other.tasks,
            cache_hits=self.cache_hits - other.cache_hits,
            cache_misses=self.cache_misses - other.cache_misses,
            executed=self.executed - other.executed,
            failed=self.failed - other.failed,
        )


class SweepExecutor:
    """Fan sweep arms across processes, memoized by the run cache.

    ``jobs=1`` (the default) executes inline in submission order — the
    exact serial behavior the harness always had.  ``jobs>1`` submits to
    a lazily created, reusable process pool; results are still returned
    in submission order, so merged experiment output is order-stable.

    ``sanitize=True`` replays every arm's protocol events through the
    :mod:`repro.analysis` checker inside the worker (see
    :func:`_sanitized_call`); a violation fails that arm like any other
    worker exception.  ``task_timeout`` bounds how long the parent waits
    for any single arm (the stuck worker process is abandoned, not
    killed — the pool is replaced on the next map call).

    ``obs_dir`` makes pooled workers dump per-arm observability
    artifacts (trace + metrics JSON) into that directory.  Obs options
    never enter task fingerprints, so to keep the run cache honest the
    executor *skips cache reads* for pooled arms while capturing (a
    cached hit would silently produce no artifact) but still writes
    results back — the next non-capturing sweep hits as usual.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: Optional[RunCache] = None,
        sanitize: bool = False,
        task_timeout: Optional[float] = None,
        start_method: Optional[str] = None,
        obs_dir: Optional[str] = None,
    ):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.cache = cache
        self.sanitize = sanitize
        self.task_timeout = task_timeout
        self.start_method = start_method
        self.obs_dir = obs_dir
        self.stats = PoolStats()
        self._pool: Optional[concurrent.futures.ProcessPoolExecutor] = None

    # -- pool lifecycle ----------------------------------------------------

    def _ensure_pool(self) -> concurrent.futures.ProcessPoolExecutor:
        if self._pool is None:
            import multiprocessing

            method = self.start_method
            if method is None:
                available = multiprocessing.get_all_start_methods()
                method = "fork" if "fork" in available else "spawn"
            ctx = multiprocessing.get_context(method)
            self._pool = concurrent.futures.ProcessPoolExecutor(
                max_workers=self.jobs, mp_context=ctx
            )
        return self._pool

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    def __enter__(self) -> "SweepExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- execution ---------------------------------------------------------

    def map(self, tasks: Sequence[RunTask]) -> List[ExperimentResult]:
        """Run every task; return results in submission order.

        Cache hits short-circuit execution; misses run (inline or
        pooled), are written back to the cache, and any failure is
        re-raised as :class:`WorkerFailure` *after* every task finished,
        so sibling arms still land in the cache.
        """
        results: List[Optional[ExperimentResult]] = [None] * len(tasks)
        pending: List[int] = []
        digests: List[Optional[str]] = [None] * len(tasks)
        self.stats.tasks += len(tasks)
        # Per-arm artifact capture only happens inside pooled workers;
        # cached arms never execute, so reads are bypassed while it's on.
        capture_arms = self.obs_dir is not None and self.jobs > 1
        for i, task in enumerate(tasks):
            if self.cache is not None:
                digest = digests[i] = self.cache.key_for(task)
                payload = None if capture_arms else self.cache.get(digest)
                if payload is not None:
                    results[i] = ExperimentResult.from_dict(payload)
                    self.stats.cache_hits += 1
                    continue
                self.stats.cache_misses += 1
            pending.append(i)

        first_failure: Optional[WorkerFailure] = None
        if pending:
            if self.jobs == 1:
                executed = [(i, self._run_inline(tasks[i])) for i in pending]
            else:
                executed = self._run_pooled(tasks, pending)
            for i, outcome in executed:
                self.stats.executed += 1
                if isinstance(outcome, WorkerFailure):
                    self.stats.failed += 1
                    if first_failure is None:
                        first_failure = outcome
                    continue
                results[i] = outcome
                if self.cache is not None and digests[i] is not None:
                    self.cache.put(digests[i], tasks[i], outcome.to_dict())

        self._report_to_obs()
        if first_failure is not None:
            raise first_failure
        return [r for r in results if r is not None]

    def _run_inline(self, task: RunTask):
        """Serial path: call the arm directly (ambient obs untouched)."""
        try:
            if self.sanitize:
                result, _ = _sanitized_call(task.fn, task.kwargs)
                return result
            return task.fn(**task.kwargs)
        except Exception as exc:  # noqa: BLE001 - uniform failure transport
            return WorkerFailure(task.key, str(exc), traceback.format_exc())

    def _run_pooled(self, tasks: Sequence[RunTask], pending: List[int]):
        """Submit pending tasks to the process pool; gather in order."""
        pool = self._ensure_pool()
        futures = {
            i: pool.submit(
                _execute_remote, tasks[i].fn, tasks[i].kwargs, tasks[i].key,
                self.sanitize, self.obs_dir,
            )
            for i in pending
        }
        executed = []
        timed_out = False
        for i, fut in futures.items():
            task = tasks[i]
            timeout = task.timeout if task.timeout is not None else self.task_timeout
            try:
                payload = fut.result(timeout=timeout)
            except concurrent.futures.TimeoutError:
                timed_out = True
                executed.append(
                    (i, WorkerFailure(task.key, f"timed out after {timeout}s"))
                )
                continue
            except concurrent.futures.process.BrokenProcessPool as exc:
                self.close()
                executed.append((i, WorkerFailure(task.key, f"worker died: {exc}")))
                continue
            if payload["ok"]:
                executed.append((i, ExperimentResult.from_dict(payload["result"])))
            else:
                err = payload["error"]
                executed.append(
                    (
                        i,
                        WorkerFailure(
                            task.key,
                            f"{err['type']}: {err['message']}",
                            err["traceback"],
                        ),
                    )
                )
        if timed_out:
            # The stuck worker still occupies a pool slot; start fresh.
            self.close()
        return executed

    def _report_to_obs(self) -> None:
        """Mirror cumulative counters into the ambient metrics registry."""
        reg = current_observability().registry
        counter = reg.counter(
            "bench_pool_tasks", "sweep-executor task outcomes by kind"
        )
        s = self.stats
        for outcome, value in (
            ("cache_hit", s.cache_hits),
            ("cache_miss", s.cache_misses),
            ("executed", s.executed),
            ("failed", s.failed),
        ):
            bound = counter.labels(outcome=outcome)
            current = counter.value(outcome=outcome)
            if value > current:
                bound.inc(value - current)


def run_sweep(
    tasks: Sequence[RunTask], pool: Optional[SweepExecutor] = None
) -> List[ExperimentResult]:
    """Execute ``tasks`` through ``pool`` (or inline when None)."""
    if pool is None:
        pool = SweepExecutor(jobs=1)
    return pool.map(tasks)
