"""Topology × scale grid: where each sync model's scaling breaks.

The paper's claims (low-frequency sync, PSSP ≈ SSP quality at lower
overhead) only get interesting at cluster scale, so this experiment runs
the timing-only co-simulation over a grid of cluster preset × worker
count × sync model and reports, per cell, the simulated outcome
(sim-seconds per iteration, DPR load) and the simulator's work (events,
round-collapse counters, pending-event high water).  The document holds
only these deterministic columns; what a cell cost the host (wall clock,
events/second, peak RSS) is printed as it finishes.

The worker axis stretches to 100 000 simulated workers at paper scale —
three orders of magnitude past the old 128-worker macro ceiling; the
result's title names the largest worker count the run actually covered.

Reading the grid: a sync model's scaling "breaks" where its
``sim_s_per_iter`` stops being flat in N.  BSP degrades first (the full
barrier makes every iteration as slow as the slowest of N workers), SSP
holds until the staleness window no longer hides the straggler tail, and
PSSP tracks SSP while issuing fewer DPRs per answered pull.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence, Tuple

from repro.bench.harness import ExperimentResult, Scale
from repro.bench.pool import RunTask, SweepExecutor, derive_task_seed, run_sweep
from repro.core.models import SyncModel, bsp, pssp, ssp
from repro.ml.models_zoo import alexnet_cifar_workload
from repro.sim.cluster import ClusterSpec, cpu_cluster, gpu_cluster_p2
from repro.sim.runner import FluentPSSimRunner, SimConfig
from repro.sim.stragglers import cpu_cluster_compute, gpu_cluster_compute

#: Worker counts per scale preset.  Tiny keeps the grid test-sized;
#: quick (CI) reaches 1k workers; paper runs the full 128 → 100k sweep.
GRID_WORKERS = {
    "tiny": (8, 32),
    "quick": (128, 1_000),
    "paper": (128, 1_000, 10_000, 100_000),
}

#: Cluster topology presets (the paper's two test clusters).
GRID_PRESETS: Tuple[str, ...] = ("cpu", "gpu_p2")

#: Sync-model axis: the barrier, the paper's baseline, and its headline.
GRID_SYNCS: Tuple[str, ...] = ("bsp", "ssp3", "pssp")

#: Column set of the grid table, one entry per ``_grid_arm`` row value.
GRID_HEADERS: Tuple[str, ...] = (
    "preset",
    "workers",
    "sync",
    "sim_s_per_iter",
    "events",
    "rounds_collapsed",
    "round_events_saved",
    "pending_hwm",
    "dprs",
)


def grid_worker_counts(scale: Scale) -> Sequence[int]:
    return GRID_WORKERS.get(scale.name, GRID_WORKERS["quick"])


def _make_sync(name: str) -> SyncModel:
    if name == "bsp":
        return bsp()
    if name == "ssp3":
        return ssp(3)
    if name == "pssp":
        return pssp(2, 0.5)
    raise ValueError(f"unknown sync preset {name!r}")


def _make_cluster(preset: str, n: int) -> ClusterSpec:
    if preset == "cpu":
        return cpu_cluster(n, n_servers=8)
    if preset == "gpu_p2":
        return gpu_cluster_p2(n, n_servers=8)
    raise ValueError(f"unknown cluster preset {preset!r}")


def _grid_arm(preset: str, n: int, sync_name: str, seed: int) -> ExperimentResult:
    """One grid cell: a timing-only run at (preset, N workers, sync).
    Prints the cell's host cost: wall clock, events/second, peak RSS."""
    # One iteration at mesoscale already carries ~2N messages per server;
    # smaller cells take a few iterations so per-iteration numbers are
    # not dominated by the cold first barrier.
    iters = 1 if n >= 1_000 else 4
    compute = cpu_cluster_compute(n) if preset == "cpu" else gpu_cluster_compute()
    cfg = SimConfig(
        cluster=_make_cluster(preset, n),
        max_iter=iters,
        sync=_make_sync(sync_name),
        workload=alexnet_cifar_workload(),
        compute_model=compute,
        seed=seed,
    )
    runner = FluentPSSimRunner(cfg)
    t0 = time.perf_counter()
    res = runner.run()
    wall = time.perf_counter() - t0
    eng = runner.engine
    key = f"scale-grid/{preset}/N{n}/{sync_name}"
    from repro.bench.perf import _peak_rss_mb

    # The events the run represents, processed or saved by the round
    # collapse, as ``repro.bench.perf`` counts them: a collapsed cell
    # processes none.  The peak is process-lifetime, so per cell an upper
    # bound ("the cell fit in at most this much"): exact when cells run in
    # their own pool workers.
    represented = eng.events_processed + eng.round_events_saved
    print(
        f"{key}: wall_s={wall:.3f} effective_events_per_sec={represented / max(wall, 1e-9):.0f} "
        f"peak_rss_mb={_peak_rss_mb():.1f}",
        flush=True,
    )
    frag = ExperimentResult(key, headers=[])
    per_iter = res.duration / iters
    frag.add_row(
        preset,
        n,
        sync_name,
        round(per_iter, 4),
        int(eng.events_processed),
        int(eng.rounds_collapsed),
        int(eng.round_events_saved),
        int(eng.pending_high_water),
        int(res.metrics.dprs),
    )
    frag.record(
        key,
        sim_s=res.duration,
        sim_s_per_iter=per_iter,
        events=float(eng.events_processed),
        rounds_collapsed=float(eng.rounds_collapsed),
        round_events_saved=float(eng.round_events_saved),
        fused_deliveries=float(runner.net.fused_deliveries),
        server_msgs_inline=float(runner.server_msgs_inline),
        server_msgs_drained=float(runner.server_msgs_drained),
        pending_event_hwm=float(eng.pending_high_water),
        messages_on_wire=float(res.messages_on_wire),
        dprs=float(res.metrics.dprs),
    )
    return frag


def scale_grid(
    scale: Scale, seed: int = 0, pool: Optional[SweepExecutor] = None
) -> ExperimentResult:
    """Cluster preset × worker count × sync model scaling grid."""
    workers = grid_worker_counts(scale)
    result = ExperimentResult(
        f"Topology x scale grid: sync-model scaling to {max(workers)} workers",
        headers=list(GRID_HEADERS),
    )
    tasks = [
        RunTask(
            fn=_grid_arm,
            kwargs=dict(
                preset=preset,
                n=n,
                sync_name=sync,
                seed=derive_task_seed("scale-grid", f"{preset}/N{n}/{sync}", seed),
            ),
            key=f"scale-grid/{preset}-N{n}-{sync}",
        )
        for preset in GRID_PRESETS
        for n in workers
        for sync in GRID_SYNCS
    ]
    for frag in run_sweep(tasks, pool):
        result.merge_fragment(frag)
    result.notes.append(
        "scaling breaks where sim_s_per_iter stops being flat in workers: "
        "BSP first (full barrier), SSP when staleness no longer hides the "
        "straggler tail, PSSP last (and with fewer DPRs than SSP)"
    )
    return result
