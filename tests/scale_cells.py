"""Differential cells at sizes tier-1 does not reach.

Each row of :data:`CELLS` is one check built from tier-1's helpers and
pins the path it guards, so a cell cannot drift off it:

- production as shipped against the reference simulator
  (``tests/reference_sim.py``) by the comparison rule of
  :func:`tests.sim_helpers.assert_matches_reference`: a 1000-worker x
  8-server straggler cell committed whole in closed form, raw and observed
  (each shard's instants match the reference's and the protocol sanitizer
  passes them), an observed real-gradient cell, the benchmark's 400-worker
  soft-barrier configuration on the event path, and 1000 x 8 BSP and
  merged SSP(3) runs committed whole;
- the round collapse's own oracles: 1000 x 8 x 3 schedule rows against
  the reference trace (:func:`tests.test_round_schedule.check_collapsed_wire`),
  the lane cascade against the scalar recurrence at 200 000 requests a
  stream, a 10k-worker collapse against the event path (event census,
  span totals, per-kind key order), and the e2e benchmark's 5000-worker
  log-normal isolated run against the event path;
- one full 100k-worker scale-grid cell (the paper axis's end point), which
  proves the box holds the population and prints its cost.

~35 s on two cores.  Every cell runs; the exit status is 1 if any failed::

    PYTHONPATH=src python -m tests.scale_cells
"""

import sys
import time
import traceback

import numpy as np

from repro.analysis import sanitize_observability
from repro.bench.perf import _peak_rss_mb
from repro.bench.pool import derive_task_seed
from repro.bench.scale_grid import _grid_arm
from repro.core.models import bsp, pssp, ssp
from repro.core.server import ExecutionMode
from repro.ml.models_zoo import alexnet_cifar_workload
from repro.obs import NULL_OBS, MetricsRegistry, Observability
from repro.sim.cluster import cpu_cluster
from repro.sim.runner import FluentPSSimRunner, SimConfig
from repro.sim.stragglers import DeterministicCompute, LogNormalCompute, cpu_cluster_compute

from tests.sim_helpers import EventPathRunner, assert_matches_reference, isolated_task_cell
from tests.test_round_collapse import _fingerprint
from tests.test_round_schedule import (
    adversarial_stream,
    assert_cascade_is_the_rule,
    check_collapsed_wire,
    isolated_cell,
    rule_runs,
)


def cpu_cell(n, max_iter, sync, **extra):
    """``n`` workers on 8 CPU servers training the AlexNet workload under
    the CPU cluster's straggler model, seed 0."""
    return dict(
        cluster=cpu_cluster(n, n_servers=8), max_iter=max_iter, sync=sync,
        workload=alexnet_cifar_workload(), compute_model=cpu_cluster_compute(n), seed=0,
        **extra,
    )


def uncausal_obs(label):
    return lambda: Observability(MetricsRegistry(label), causal=False)


def straggler_1k():
    # Overlapping rounds commit whole in closed form (0 engine events).
    runner, result, ref = assert_matches_reference(cpu_cell(1000, 2, ssp(3)))
    assert runner.net.fused_deliveries == len(ref.trace) == 3 * 1000 * 8 * 2
    assert runner.collapse_fallback == {}, runner.collapse_fallback
    assert runner.engine.events_processed == 0
    assert runner.engine.rounds_collapsed == 2
    return (f"{len(ref.trace)} messages, duration {result.duration:.6f} sim-s, "
            f"{runner.engine.rounds_collapsed} rounds collapsed")


def straggler_1k_observed():
    # Observability without the causal trace: the same rounds commit whole.
    runner, result, ref = assert_matches_reference(
        cpu_cell(1000, 2, ssp(3)), make_obs=uncausal_obs("ci-observed"))
    assert runner.collapse_fallback == {}, runner.collapse_fallback
    assert runner.engine.events_processed == 0
    assert runner.engine.rounds_collapsed == 2
    report = sanitize_observability(runner.obs)
    assert report.ok, report.describe()
    return report.describe()


def real_gradient_256_observed():
    # The timing run takes the raw run's path, the replay takes every step.
    n, iters = 256, 5
    runner, result, ref = assert_matches_reference(
        lambda: isolated_task_cell(n, 8, iters), make_obs=uncausal_obs("ci-observed-task"))
    assert runner.collapse_fallback == {}, runner.collapse_fallback
    assert runner.engine.events_processed == 0
    assert runner.steps_replayed == n * iters
    report = sanitize_observability(runner.obs)
    assert report.ok, report.describe()
    return (f"{runner.engine.rounds_collapsed} rounds collapsed, "
            f"{runner.steps_replayed} steps replayed, {report.describe()}")


def soft_barrier_400():
    # The benchmark's soft-barrier workload (built here, not from
    # benchmarks/e2e): round 0 de-vectorizes, the rest runs message by message.
    runner, result, ref = assert_matches_reference(
        cpu_cell(400, 18, pssp(1, 0.3), execution=ExecutionMode.SOFT_BARRIER))
    assert runner.collapse_fallback == {"reason": "overlap", "round": 0}
    assert runner.engine.events_processed == 130000
    assert result.metrics.dprs == 8195
    return (f"{len(ref.trace)} messages, {result.metrics.dprs} DPRs, "
            f"duration {result.duration:.6f} sim-s, "
            f"{runner.engine.events_processed} production events")


def schedule_rows_1000x8x3():
    cell = dict(isolated_cell(1000, 8, ssp(3), DeterministicCompute()), max_iter=3)
    runner = check_collapsed_wire(cell)
    assert runner.engine.rounds_collapsed == 3 and runner.collapse_fallback == {}
    assert runner.net.total_messages == 72_000
    return "schedule rows == reference trace (72000 messages)"


def bsp_1000x8x3():
    # Every buffered pull is released in closed form.
    runner, result, ref = assert_matches_reference(cpu_cell(1000, 3, bsp()))
    assert runner.engine.rounds_collapsed == 3 and runner.collapse_fallback == {}
    return (f"{len(ref.trace)} messages, {result.metrics.dprs} DPRs, "
            f"duration {result.duration:.6f} sim-s")


def merged_ssp3_1000x8x4():
    # Mixed rounds: fast workers' next requests overtake slow ones' at the
    # shards (218 and 410 of them at two boundaries).
    runner, result, ref = assert_matches_reference(cpu_cell(1000, 4, ssp(3)))
    assert runner.engine.rounds_collapsed == 4 and runner.collapse_fallback == {}
    return f"{len(ref.trace)} messages, staleness {dict(result.metrics.staleness_hist)}"


def cascades_200k():
    n = 200_000
    spaced = np.arange(n) * 0.5
    holds = np.full(n, 0.3)
    streams = {
        "idle": (spaced, holds),
        "saturated": (spaced, np.full(n, 0.7)),
        "alternating": (np.repeat(spaced[: n // 2], 2), np.tile([0.4, 0.05], n // 2)),
        "near-tie": (adversarial_stream(
            ["idle", "tie", "ulp_late", "ulp_early"] * (n // 4), holds, [1.0] * n, 0.0),
            holds),
    }
    for arrivals, hold in streams.values():
        for cursor in (0.0, 123.25):  # an idle lane, one busy past the first arrivals
            assert_cascade_is_the_rule(arrivals, hold, cursor)
    assert rule_runs(*streams["idle"], 0.0) == rule_runs(*streams["saturated"], 0.0) == 0
    return f"cascade == scalar recurrence: {', '.join(streams)}; {n} requests, idle and busy cursor"


def collapse_vs_event_path_10k():
    def run(runner_cls):
        runner = runner_cls(SimConfig(**cpu_cell(10_000, 1, pssp(2, 0.5)), obs=NULL_OBS))
        return runner, runner.run()

    fast, fres = run(FluentPSSimRunner)
    slow, sres = run(EventPathRunner)
    assert fast.engine.rounds_collapsed > 0, "collapse never engaged at 10k"
    assert fres.duration == sres.duration
    assert fast._finish_times == slow._finish_times
    assert [s.metrics.summary() for s in fast.servers] == \
           [s.metrics.summary() for s in slow.servers]
    assert (fast.net.total_messages, fast.net.total_bytes) == \
           (slow.net.total_messages, slow.net.total_bytes)
    assert (slow.engine.events_processed - fast.engine.events_processed
            == fast.engine.round_events_saved)
    # The collapse credits its span totals from cohort arrays, once: the
    # fingerprint holds _totals (values and per-kind key order),
    # _span_counts, trace.end_time and the result's compute/comm sums.
    assert _fingerprint(fast, fres) == _fingerprint(slow, sres)
    assert (fast.trace.compute_time(), fast.trace.comm_time()) == \
           (slow.trace.compute_time(), slow.trace.comm_time())
    return (f"rounds_collapsed={fast.engine.rounds_collapsed} "
            f"events_saved={fast.engine.round_events_saved}")


def isolated_lognormal_5k():
    # The e2e benchmark's ssp_isolated_5k configuration, built here: every
    # round commits in closed form, each worker's 12 durations drawn in one
    # window, and the event path draws them one iteration at a time.
    def run(runner_cls):
        runner = runner_cls(SimConfig(
            cluster=cpu_cluster(5000, n_servers=8), max_iter=12, sync=ssp(3),
            workload=alexnet_cifar_workload(), compute_model=LogNormalCompute(sigma=0.01),
            base_compute_time=1e5, seed=0, obs=NULL_OBS,
        ))
        return runner, runner.run()

    fast, fres = run(FluentPSSimRunner)
    slow, sres = run(EventPathRunner)
    assert fast.engine.rounds_collapsed == 12, fast.collapse_fallback
    assert fast._finish_times == slow._finish_times
    assert _fingerprint(fast, fres) == _fingerprint(slow, sres)
    return f"rounds_collapsed=12 duration={fres.duration:.6f} sim-s"


def grid_cell_100k():
    t0 = time.perf_counter()
    frag = _grid_arm(
        "cpu", 100_000, "pssp", seed=derive_task_seed("scale-grid", "cpu/N100000/pssp", 0))
    wall = time.perf_counter() - t0
    rec = frag.records[0].metrics
    # Generous wall bound: shared runners are slow and the real perf gate
    # is the relative macro_100k_wall_s baseline check.
    assert wall < 300, f"100k cell too slow: {wall:.1f}s"
    # A homogeneous one-iteration cell is the collapse regime: a cell that
    # collapsed nothing ran the event path at 100k.
    assert rec["rounds_collapsed"] > 0, "round collapse never engaged at 100k"
    keys = ("sim_s_per_iter", "events", "rounds_collapsed", "round_events_saved",
            "fused_deliveries", "pending_event_hwm", "dprs")
    return " ".join([f"wall_s={wall:.2f}", f"peak_rss_mb={_peak_rss_mb()}"]
                    + [f"{k}={rec[k]}" for k in keys])


#: ``(name, check)``: a check raises on failure and returns its summary.
CELLS = (
    ("reference 1000x8x2 ssp(3) straggler collapse", straggler_1k),
    ("reference 1000x8x2 ssp(3) straggler collapse, observed", straggler_1k_observed),
    ("reference 256x8x5 observed real-gradient collapse", real_gradient_256_observed),
    ("reference 400x8x18 pssp soft barrier, event path", soft_barrier_400),
    ("schedule rows 1000x8x3 ssp(3)", schedule_rows_1000x8x3),
    ("reference 1000x8x3 bsp collapse", bsp_1000x8x3),
    ("reference 1000x8x4 ssp(3) merged collapse", merged_ssp3_1000x8x4),
    ("lane cascades at 200k requests", cascades_200k),
    ("10k collapse vs event path", collapse_vs_event_path_10k),
    ("5k ssp(3) log-normal isolated collapse vs event path", isolated_lognormal_5k),
    ("100k scale-grid cell cpu/pssp", grid_cell_100k),
)


def main() -> int:
    failed = []
    for name, check in CELLS:
        t0 = time.perf_counter()
        try:
            summary = check()
        except Exception:
            traceback.print_exc()
            failed.append(name)
            summary = "FAILED"
        print(f"{name} ({time.perf_counter() - t0:.1f} s): {summary}", flush=True)
    print(f"scale cells: {len(CELLS) - len(failed)} of {len(CELLS)} passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
