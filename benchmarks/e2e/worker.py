"""One workload in a fresh process; one JSON object on stdout.

``run.py`` starts this file several times per workload so that
``peak_rss_mb`` and ``setup_s`` belong to this workload alone.  Everything
is measured from outside the program: public constructors and ``run()`` are
called and timed, public counters are read afterwards.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import sys
import time
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402
from metrics import COUNTERS  # noqa: E402

RUN_SPAN = "sim.runner:FluentPSSimRunner.run"
SANITIZE_SPAN = "analysis.sanitizer:sanitize_observability"


class _SumOf:
    """Attribute-wise sum over the shard servers."""

    def __init__(self, items) -> None:
        self._items = list(items)

    def __getattr__(self, attr: str):
        return sum(getattr(item, attr) for item in self._items)


def read_counters(objects: Dict[str, Any]) -> Dict[str, Optional[float]]:
    """Read every public counter; ``None`` marks one the program lacks."""
    return {
        metric: getattr(objects.get(key), attr, None)
        for metric, (key, attr) in COUNTERS.items()
    }


def _hash(values) -> str:
    return hashlib.sha256(np.ascontiguousarray(values, dtype=np.float64).tobytes()).hexdigest()[:16]


def _ratio(num: Optional[float], den: Optional[float]) -> Optional[float]:
    if num is None or den is None:
        return None
    return num / den if den else 0.0


def sim_digest(result, report, accuracy) -> Dict[str, Any]:
    """Simulated statistics: exact for a seed, so they are the correctness
    digest.  JSON round-trips floats by ``repr``, so equality is bitwise."""
    digest = {
        "duration_s": result.duration,
        "total_compute_s": result.total_compute_time,
        "total_comm_s": result.total_comm_time,
        "messages_on_wire": result.messages_on_wire,
        "bytes_on_wire": result.bytes_on_wire,
        "pushes": result.metrics.pushes,
        "pulls": result.metrics.pulls,
        "dprs": result.metrics.dprs,
        "frontier_advances": result.metrics.frontier_advances,
        "finish_times_hash": _hash(result.worker_finish_times),
    }
    if result.final_params is not None:
        digest["final_params_hash"] = _hash(result.final_params)
        digest["final_accuracy"] = accuracy
    if report is not None:
        digest["events_checked"] = report.n_events
        digest["violations"] = len(report.violations)
    return digest


def layer_metrics(rec, root, stop, raw_span, runner, result, counters, obs_capture, report,
                  accuracy, init_s) -> Dict[str, Optional[float]]:
    """Every per-layer metric of this traced rep except
    ``trace.overhead_ratio`` (``run.py`` has the untraced reps)."""
    wall = rec.duration(root)
    stats = rec.by_name(root, stop)
    self_s = tracing.layer_self_times(stats)

    def calls(span: str) -> int:
        return stats.get(span, (0, 0.0, 0.0))[0]

    # host shares: self times over the traced wall.  On the checked
    # workload the program layers are charged what the identical raw run
    # spent in them and the excess of the observed run is ``obs``.
    shares = {layer: self_s.get(layer, 0.0) for layer in tracing.LAYERS}
    overhead_s = checked_over_raw = 0.0
    if raw_span is not None:
        raw_root, raw_stop = raw_span
        raw_stats = rec.by_name(raw_root, raw_stop)
        raw_run_s = raw_stats[RUN_SPAN][1]
        overhead_s = stats[RUN_SPAN][1] - raw_run_s
        checked_over_raw = wall / raw_run_s
        raw_self = tracing.layer_self_times(raw_stats)
        for layer in tracing.LAYERS:
            shares[layer] = raw_self.get(layer, 0.0)
        shares["obs"] = overhead_s
        shares["analysis.sanitizer"] = self_s.get("analysis.sanitizer", 0.0)
    shares["unattributed"] = self_s.get("bench", 0.0)

    model = type(runner.compute_model)
    sampler = next(c for c in model.__mro__ if "sample" in c.__dict__)
    step = stats.get("ml:TrainingTask.step_fn", (0, 0.0, 0.0))
    engine_self = self_s.get("sim.engine", 0.0)
    sanitizer_self = self_s.get("analysis.sanitizer", 0.0)
    events = counters["sim.engine.events_processed"]
    saved = counters["sim.engine.round_events_saved"]
    out: Dict[str, Optional[float]] = dict(counters)
    out.update({f"{layer}.self_s": self_s.get(layer, 0.0) for layer in tracing.LAYERS
                if layer != "obs"})
    out.update({f"host_share.{layer}": s / wall for layer, s in shares.items()})
    out.update({
        "sim.engine.ns_per_event": _ratio(engine_self * 1e9, events),
        "sim.network.send_calls": calls("sim.network:Network.send"),
        "core.server.push_calls": calls("core.server:ShardServer.handle_push"),
        "core.server.pull_calls": calls("core.server:ShardServer.handle_pull"),
        "core.server.quiet_round_calls": calls("core.server:ShardServer.handle_quiet_round"),
        "core.server.dpr_share": _ratio(counters["core.server.dprs"], result.metrics.pulls),
        "sim.runner.init_s": init_s,
        "sim.runner.collapse_share": (
            None if events is None or saved is None else _ratio(saved, events + saved)
        ),
        "sim.stragglers.sample_calls": calls(f"sim.stragglers:{sampler.__name__}.sample"),
        "ml.step_calls": step[0],
        "ml.steps_per_s": _ratio(step[0], step[1]),
        "ml.final_accuracy": 0.0 if accuracy is None else accuracy,
        "obs.instants": 0 if obs_capture is None else len(obs_capture.instants),
        "obs.instants_spilled": (
            0 if obs_capture is None else getattr(obs_capture.instants, "spilled_events", None)
        ),
        "obs.overhead_s": overhead_s,
        "obs.checked_over_raw": checked_over_raw,
        "analysis.sanitizer.events_checked": 0 if report is None else report.n_events,
        "analysis.sanitizer.events_per_s": (
            0.0 if report is None else _ratio(report.n_events, sanitizer_self)
        ),
        "analysis.sanitizer.violations": 0 if report is None else len(report.violations),
        "sim.duration_s": result.duration,
        "sim.dprs_per_100_iters": result.dprs_per_100_iterations(),
        "sim.comm_share": _ratio(
            result.total_comm_time, result.total_comm_time + result.total_compute_time
        ),
    })
    return out


def timed_run(rec, name: str, seed: int, quick: bool, trace: bool) -> Tuple[float, Dict[str, Any]]:
    """Build the job, run its timed section once, digest the outcome.
    Returns ``time.monotonic()`` at the start of the timed section, and
    the run."""
    from repro.analysis.sanitizer import sanitize_observability
    from repro.sim.runner import FluentPSSimRunner

    raw_span = None
    if trace and workloads.WORKLOADS[name].checked:
        raw_runner = FluentPSSimRunner(workloads.build(name, seed, quick, observed=False).config)
        gc.collect()
        with rec.span("bench:raw_run") as raw_root:
            raw_runner.run()
        raw_span = (raw_root, len(rec))
        del raw_runner

    built = workloads.build(name, seed, quick)
    with rec.span("sim.runner:FluentPSSimRunner.__init__") as init:
        runner = FluentPSSimRunner(built.config)
    gc.collect()
    entered_at = time.monotonic()
    report = accuracy = None
    with rec.span("bench:timed") as root:
        result = runner.run()
        if built.obs is not None:
            with rec.span(SANITIZE_SPAN):
                report = sanitize_observability(built.obs)
        if built.task is not None:
            accuracy = float(built.task.eval_fn(result.final_params))
    stop = len(rec)

    out: Dict[str, Any] = {
        "run_wall_s": rec.duration(root),
        "digest": sim_digest(result, report, accuracy),
    }
    if trace:
        counters = read_counters({
            "engine": runner.engine,
            "net": runner.net,
            "runner": runner,
            "servers": _SumOf(runner.servers),
            "sync_metrics": result.metrics,
        })
        capture = None if built.obs is None else built.obs.last_run
        out["layers"] = layer_metrics(rec, root, stop, raw_span, runner, result, counters,
                                      capture, report, accuracy, rec.duration(init))
    return entered_at, out


def run_process(name: str, seed: int, quick: bool, trace: bool, spawned_at: float,
                slice_s: float, out_dir: Optional[Path]) -> Dict[str, Any]:
    """Set up once, then repeat the timed run (a fresh runner each time)
    until another one would overrun this process's ``slice_s``, counted
    from ``spawned_at``.  ``setup_s`` ends where the first run begins and
    ``peak_rss_mb`` is read where it ends: the high-water mark of set-up
    plus exactly one run, however many repeats follow."""
    rec = tracing.SpanRecorder()
    workloads.import_program()
    if trace:
        tracing.install(rec)
    runs = []
    setup_s = peak_rss_mb = None
    longest = 0.0
    while True:
        t0 = time.monotonic()
        entered_at, run = timed_run(rec, name, seed, quick, trace)
        runs.append(run)
        if setup_s is None:
            setup_s = entered_at - spawned_at
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        gc.collect()
        now = time.monotonic()
        longest = max(longest, now - t0)
        if now + longest > spawned_at + slice_s:
            break
    if trace and out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        rec.dump(out_dir / f"{name}-seed{seed}-spans.npz")
    n_workers, max_iter = workloads.WORKLOADS[name].size(quick)
    return {
        "workload": name,
        "seed": seed,
        "traced": trace,
        "n_workers": n_workers,
        "max_iter": max_iter,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "runs": runs,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spawned-at", type=float, default=None,
                        help="parent's time.monotonic() just before it started this process")
    parser.add_argument("--slice-s", type=float, default=0.0,
                        help="repeat the timed run while it fits this many seconds from the start")
    parser.add_argument("--out-dir", type=Path, default=None)
    parser.add_argument("--import-only", action="store_true",
                        help="import the program and exit (the discarded warm-up)")
    args = parser.parse_args(argv)
    if args.import_only:
        workloads.import_program()
        print("{}")
        return 0
    spawned_at = time.monotonic() if args.spawned_at is None else args.spawned_at
    out = run_process(args.workload, args.seed, args.quick, args.trace, spawned_at,
                      args.slice_s, args.out_dir)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
