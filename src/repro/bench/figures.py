"""One experiment function per paper figure (see DESIGN.md's index).

Every function takes a :class:`~repro.bench.harness.Scale` and returns an
:class:`~repro.bench.harness.ExperimentResult` whose rows mirror the
figure's series.  The pytest benchmarks call these and assert the paper's
qualitative shape; the examples print them.

Sweep-shaped figures (6/7/8/9/10/11 and fig 1) decompose into
module-level *arm* functions — one independent, JSON-parameterized unit
per outer-loop iteration — submitted through a
:class:`~repro.bench.pool.SweepExecutor`.  Pass ``pool=`` to fan arms
out across processes and memoize them in the run cache; the default
(no pool) runs the arms inline in the same order, producing the same
bytes.  Each arm's seed comes from
:func:`~repro.bench.pool.derive_task_seed`, so results never depend on
submission order or process placement.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.baselines.pslite import run_pslite
from repro.baselines.sspable import SSPTableConfig, run_ssptable
from repro.bench.harness import ExperimentResult, Scale
from repro.bench.pool import RunTask, SweepExecutor, derive_task_seed, run_sweep
from repro.bench.workloads import blobs_task, no_network_config, null_task_spec, workload_for
from repro.core.api import ParameterServerSystem
from repro.core.keyspace import DefaultSlicer, ElasticSlicer
from repro.core.models import SyncModel, bsp, make_model, pssp, ssp
from repro.core.pssp import equivalent_ssp_threshold
from repro.core.server import ExecutionMode, PullReply
from repro.obs import NULL_OBS
from repro.sim.cluster import cpu_cluster, gpu_cluster_p2
from repro.sim.runner import SimConfig, run_fluentps
from repro.sim.stragglers import (
    TransientStragglerCompute,
    cpu_cluster_compute,
    gpu_cluster_compute,
)
from repro.utils.records import SeriesRecord


# ---------------------------------------------------------------------------
# Figure 1 — PMLS/Bösen AlexNet accuracy vs iterations at different N
# ---------------------------------------------------------------------------


def _fig1_arm(scale: Scale, n: int, seed: int) -> ExperimentResult:
    """One Figure-1 cluster size: SSPtable accuracy at ``n`` workers."""
    frag = ExperimentResult(f"fig1/N{n}", headers=[])
    task = blobs_task(n, n_train=scale.dataset_train, n_test=scale.dataset_test, seed=seed)
    cfg = SimConfig(
        cluster=cpu_cluster(n, n_servers=1),
        max_iter=scale.iters,
        sync=ssp(3),
        task=task,
        seed=seed + 1,
        compute_model=cpu_cluster_compute(n),
        eval_every=scale.eval_every,
    )
    run = run_ssptable(SSPTableConfig(sim=cfg, staleness=3))
    final = run.eval_by_iteration.final()
    best = run.eval_by_iteration.best()
    frag.add_row(n, round(final, 4), round(best, 4))
    frag.record(f"pmls_N{n}", final_acc=final, best_acc=best)
    series = run.eval_by_iteration
    series.name = f"pmls_N{n}"
    frag.series.append(series)
    return frag


def fig1_pmls_scaling(
    scale: Scale, seed: int = 0, pool: Optional[SweepExecutor] = None
) -> ExperimentResult:
    """Bösen (SSPtable) test accuracy at increasing worker counts — the
    motivating convergence-loss observation (SSP, same staleness)."""
    result = ExperimentResult(
        "Figure 1: PMLS-Caffe (SSPtable) accuracy vs cluster size",
        headers=["workers", "final_acc", "best_acc"],
    )
    tasks = [
        RunTask(
            fn=_fig1_arm,
            kwargs=dict(scale=scale, n=n, seed=derive_task_seed("fig1", f"N{n}", seed)),
            key=f"fig1/N{n}",
        )
        for n in scale.worker_counts
    ]
    for frag in run_sweep(tasks, pool):
        result.merge_fragment(frag)
    result.notes.append(
        "paper shape: accuracy degrades sharply once N >= 8 at the same iteration budget"
    )
    return result


# ---------------------------------------------------------------------------
# Figure 3 — soft barrier vs lazy execution trade-off (scripted trace)
# ---------------------------------------------------------------------------


def fig3_tradeoff_trace() -> ExperimentResult:
    """Reproduces Figure 3's scripted scenario: s=3, three workers, W2 the
    straggler; measures when W0's delayed pull is answered and how many
    slow-worker iterations its parameters are missing."""
    result = ExperimentResult(
        "Figure 3: soft barrier vs lazy execution (s=3, 3 workers)",
        headers=["execution", "released_after_W2_pushes", "missing_iterations"],
    )
    for execution in (ExecutionMode.SOFT_BARRIER, ExecutionMode.LAZY):
        server = ParameterServerSystem(
            null_task_spec(), None, 3, 1, ssp(3), execution, obs=NULL_OBS
        ).servers[0]
        replies: List[PullReply] = []
        # W0 and W1 race ahead: they push/pull iterations 0..2 freely, then
        # push iteration 3 and pull for iteration 4.
        for w in (0, 1):
            for i in range(3):
                server.handle_push(w, i)
                server.handle_pull(w, i, replies.append)
            server.handle_push(w, 3)
        before = len(replies)
        server.handle_pull(0, 3, replies.append)  # W0's delayed pull
        assert len(replies) == before, "W0's pull must be delayed"
        # W2 now pushes its backlog one iteration at a time.
        released_after = None
        for i in range(4):
            server.handle_push(2, i)
            if len(replies) > before and released_after is None:
                released_after = i + 1
        w0_reply = replies[-1]
        result.add_row(execution.value, released_after, w0_reply.missing)
        result.record(
            f"{execution.value}",
            released_after=float(released_after),
            missing=float(w0_reply.missing),
        )
    result.notes.append(
        "paper shape: soft releases after 1 slow push with stale params; "
        "lazy waits for full catch-up and returns fully-updated params"
    )
    return result


# ---------------------------------------------------------------------------
# Figure 5 — non-overlap vs overlap synchronization timeline
# ---------------------------------------------------------------------------


def fig5_timeline(scale: Scale, seed: int = 0) -> ExperimentResult:
    """One slow worker among fast ones: overlap lets each shard answer as
    soon as the slow worker's push reaches *it*; non-overlap (PS-Lite)
    serializes push phase → scheduler grant → pull phase."""
    n_workers, n_servers = 4, 4
    wl = workload_for("resnet56")
    compute = TransientStragglerCompute(
        n_workers, slow_factor=3.0, period=8, duration=4, jitter_sigma=0.02
    )
    result = ExperimentResult(
        "Figure 5: non-overlap (PS-Lite) vs overlap (FluentPS) synchronization",
        headers=["system", "duration_s", "mean_comm_s", "mean_compute_s"],
    )
    common = dict(
        cluster=gpu_cluster_p2(n_workers, n_servers),
        max_iter=scale.sim_iters,
        sync=bsp(),
        workload=wl,
        batch_per_worker=256,
        compute_model=compute,
        seed=seed,
        span_capture=True,
    )
    r_non = run_pslite(SimConfig(**common))
    r_ovl = run_fluentps(SimConfig(**common, slicer=ElasticSlicer()))
    for name, r in (("pslite-nonoverlap", r_non), ("fluentps-overlap", r_ovl)):
        result.add_row(name, round(r.duration, 4), round(r.mean_comm_time, 4),
                       round(r.mean_compute_time, 4))
        result.record(name, duration=r.duration, comm=r.mean_comm_time,
                      compute=r.mean_compute_time)
    result.notes.append(
        f"overlap speedup: {r_non.duration / r_ovl.duration:.2f}x "
        "(paper: pull transfers overlap the remaining push transfers)"
    )
    return result


# ---------------------------------------------------------------------------
# Figure 6 — computation/communication breakdown, BSP, ResNet-56
# ---------------------------------------------------------------------------


def _fig6_arm(scale: Scale, n: int, seed: int) -> ExperimentResult:
    """One Figure-6 cluster size: PS-Lite vs FluentPS vs FluentPS+EPS."""
    frag = ExperimentResult(f"fig6/N{n}", headers=[])
    wl = workload_for("resnet56")
    cluster = gpu_cluster_p2(n, n_servers=8)
    base = dict(
        cluster=cluster,
        max_iter=scale.sim_iters,
        sync=bsp(),
        workload=wl,
        batch_per_worker=max(1, 4096 // n),
        compute_model=gpu_cluster_compute(),
        seed=seed,
    )
    runs = {
        "pslite": run_pslite(SimConfig(**base)),
        "fluentps": run_fluentps(SimConfig(**base, slicer=DefaultSlicer())),
        "fluentps+eps": run_fluentps(SimConfig(**base, slicer=ElasticSlicer())),
    }
    ps_dur = runs["pslite"].duration
    for name, r in runs.items():
        frag.add_row(
            n, name, round(r.mean_compute_time, 3), round(r.mean_comm_time, 3),
            round(r.duration, 3), round(ps_dur / r.duration, 2),
        )
        frag.record(
            f"{name}_N{n}", compute=r.mean_compute_time, comm=r.mean_comm_time,
            duration=r.duration, speedup=ps_dur / r.duration,
        )
    return frag


def fig6_overlap(
    scale: Scale, seed: int = 0, pool: Optional[SweepExecutor] = None
) -> ExperimentResult:
    """PS-Lite vs FluentPS vs FluentPS+EPS: comp/comm split as N grows
    (BSP, ResNet-56 wire footprint, batch 4096 total)."""
    result = ExperimentResult(
        "Figure 6: computation/communication time, ResNet-56 CIFAR-10 (BSP)",
        headers=["workers", "system", "compute_s", "comm_s", "total_s", "speedup_vs_pslite"],
    )
    worker_counts = [n for n in (8, 16, 32) if n <= max(scale.worker_counts) * 2]
    tasks = [
        RunTask(
            fn=_fig6_arm,
            kwargs=dict(scale=scale, n=n, seed=derive_task_seed("fig6", f"N{n}", seed)),
            key=f"fig6/N{n}",
        )
        for n in worker_counts
    ]
    for frag in run_sweep(tasks, pool):
        result.merge_fragment(frag)
    result.notes.append(
        "paper shape: PS-Lite comm grows to dominate; FluentPS up to 4.26x, "
        "EPS a further up-to-1.42x; comm reduced by up to 86%/93.7%"
    )
    return result


# ---------------------------------------------------------------------------
# Figure 7 — scalability: accuracy at fixed iterations vs worker count
# ---------------------------------------------------------------------------


def _fig7_arm(scale: Scale, n: int, seed: int) -> ExperimentResult:
    """One Figure-7 cluster size: FluentPS vs PMLS final accuracy."""
    frag = ExperimentResult(f"fig7/N{n}", headers=[])

    def make_cfg() -> SimConfig:
        task = blobs_task(
            n, n_train=scale.dataset_train, n_test=scale.dataset_test, seed=seed
        )
        return SimConfig(
            cluster=cpu_cluster(n, n_servers=1),
            max_iter=scale.iters,
            sync=ssp(3),
            task=task,
            seed=seed + 1,
            compute_model=cpu_cluster_compute(n),
            eval_every=scale.eval_every,
        )

    r_fl = run_fluentps(make_cfg())
    r_tb = run_ssptable(SSPTableConfig(sim=make_cfg(), staleness=3))
    acc_fl = r_fl.eval_by_iteration.final()
    acc_tb = r_tb.eval_by_iteration.final()
    frag.add_row(n, round(acc_fl, 4), round(acc_tb, 4))
    frag.record(f"N{n}", fluentps=acc_fl, pmls=acc_tb)
    return frag


def fig7_scalability(
    scale: Scale, seed: int = 0, pool: Optional[SweepExecutor] = None
) -> ExperimentResult:
    """FluentPS vs PMLS (SSPtable) final accuracy as the cluster grows
    (SSP s=3, AlexNet-class task on the CPU cluster)."""
    result = ExperimentResult(
        "Figure 7: test accuracy vs cluster size, SSP s=3",
        headers=["workers", "fluentps_acc", "pmls_acc"],
    )
    tasks = [
        RunTask(
            fn=_fig7_arm,
            kwargs=dict(scale=scale, n=n, seed=derive_task_seed("fig7", f"N{n}", seed)),
            key=f"fig7/N{n}",
        )
        for n in scale.worker_counts
    ]
    for frag in run_sweep(tasks, pool):
        result.merge_fragment(frag)
    result.notes.append(
        "paper shape: FluentPS accuracy flat in N; PMLS collapses for N >= 8"
    )
    return result


# ---------------------------------------------------------------------------
# Figure 8 — lazy execution vs soft barrier (accuracy/time, SSP s=2)
# ---------------------------------------------------------------------------


def _fig8_arm(scale: Scale, execution: str, seed: int) -> ExperimentResult:
    """One Figure-8 execution mode (``"soft"`` or ``"lazy"``)."""
    frag = ExperimentResult(f"fig8/{execution}", headers=[])
    mode = ExecutionMode(execution)
    n = min(32, scale.huge_workers)
    wl = workload_for("resnet56")
    task = blobs_task(n, n_train=scale.dataset_train, n_test=scale.dataset_test, seed=seed)
    cfg = SimConfig(
        cluster=gpu_cluster_p2(n, 8),
        max_iter=scale.iters,
        sync=ssp(2),
        execution=mode,
        task=task,
        workload=wl,
        batch_per_worker=128,
        compute_model=gpu_cluster_compute(),
        seed=seed + 1,
        eval_every=scale.eval_every,
    )
    r = run_fluentps(cfg)
    acc = r.eval_by_iteration.final()
    frag.add_row(mode.value, round(r.duration, 2),
                 round(r.dprs_per_100_iterations(), 1), round(acc, 4))
    frag.record(mode.value, duration=r.duration,
                dprs_per_100=r.dprs_per_100_iterations(), final_acc=acc)
    series = r.eval_by_time
    series.name = f"acc_vs_time_{mode.value}"
    frag.series.append(series)
    return frag


def fig8_lazy_vs_soft(
    scale: Scale, seed: int = 0, pool: Optional[SweepExecutor] = None
) -> ExperimentResult:
    """ResNet-56-footprint training with 32 workers, SSP s=2: lazy
    execution vs soft barrier on wall time, DPRs, and accuracy."""
    result = ExperimentResult(
        "Figure 8: lazy execution vs soft barrier (SSP s=2, 32 workers)",
        headers=["execution", "duration_s", "dprs_per_100it", "final_acc"],
    )
    tasks = [
        RunTask(
            fn=_fig8_arm,
            kwargs=dict(
                scale=scale,
                execution=execution.value,
                # Paired: soft vs lazy are compared head-to-head, so both
                # modes run under identical straggler draws.
                seed=derive_task_seed("fig8", "ssp2", seed),
            ),
            key=f"fig8/{execution.value}",
        )
        for execution in (ExecutionMode.SOFT_BARRIER, ExecutionMode.LAZY)
    ]
    for frag in run_sweep(tasks, pool):
        result.merge_fragment(frag)
    soft = result.find("soft").metrics["duration"]
    lazy = result.find("lazy").metrics["duration"]
    result.notes.append(
        f"lazy speedup: {soft / lazy:.2f}x (paper: 1.21x); lazy also converges "
        "more robustly because answered DPRs miss zero slow-worker gradients"
    )
    return result


# ---------------------------------------------------------------------------
# Figure 9 — DPR counts: matched-regret PSSP vs SSP pairs (A..H)
# ---------------------------------------------------------------------------

FIG9_GROUPS: Tuple[Tuple[str, float, str], ...] = (
    ("A/B", 1 / 2, "B"),
    ("C/D", 1 / 3, "D"),
    ("E/F", 1 / 5, "F"),
    ("G/H", 1 / 10, "H"),
)


def _fig9_arm(scale: Scale, label: str, c: float, execution: str, n: int,
              seed: int) -> ExperimentResult:
    """One Figure-9 (group, execution) cell: PSSP(3, c) vs SSP(s')."""
    frag = ExperimentResult(f"fig9/{label}/{execution}", headers=[])
    mode = ExecutionMode(execution)
    compute = cpu_cluster_compute(n)
    s_prime = int(round(equivalent_ssp_threshold(3, c)))

    def run_model(sync: SyncModel):
        return run_fluentps(no_network_config(
            n, sync, scale.dpr_iters, execution=mode, compute_model=compute, seed=seed + 1,
        ))

    r_pssp = run_model(pssp(3, c))
    r_ssp = run_model(ssp(s_prime))
    for name, r in ((f"pssp(3,{c:.2f})", r_pssp), (f"ssp({s_prime})", r_ssp)):
        frag.add_row(label, mode.value, name,
                     round(r.dprs_per_100_iterations(), 1), round(r.duration, 1))
        # Figure 9's x-axis: DPR count per 100-iteration window.
        windows = r.metrics.dpr_series(scale.dpr_iters, bucket=100)
        series = SeriesRecord(
            f"{name}_{mode.value}_{label.replace('/', '-')}",
            x=[100.0 * (i + 1) for i in range(len(windows))],
            y=[float(v) for v in windows],
            x_label="iteration",
            y_label="dprs_per_100",
        )
        frag.series.append(series)
    frag.record(
        f"{label}_{mode.value}",
        pssp_dprs=r_pssp.dprs_per_100_iterations(),
        ssp_dprs=r_ssp.dprs_per_100_iterations(),
        pssp_duration=r_pssp.duration,
        ssp_duration=r_ssp.duration,
    )
    return frag


def fig9_dpr_pairs(
    scale: Scale, seed: int = 0, n_workers: Optional[int] = None,
    pool: Optional[SweepExecutor] = None,
) -> ExperimentResult:
    """PSSP(s=3, c) vs the regret-matched SSP(s' = s + 1/c − 1), under the
    soft barrier and lazy execution, on a heterogeneous CPU cluster."""
    n = n_workers or scale.big_workers
    result = ExperimentResult(
        "Figure 9: DPRs per 100 iterations, PSSP(s=3, c) vs SSP(s')",
        headers=["group", "execution", "model", "dprs_per_100it", "duration_s"],
    )
    tasks = [
        RunTask(
            fn=_fig9_arm,
            kwargs=dict(
                scale=scale, label=label, c=c, execution=execution.value, n=n,
                seed=derive_task_seed("fig9", f"{label}/{execution.value}", seed),
            ),
            key=f"fig9/{label}/{execution.value}",
        )
        for label, c, _ssp_name in FIG9_GROUPS
        for execution in (ExecutionMode.SOFT_BARRIER, ExecutionMode.LAZY)
    ]
    for frag in run_sweep(tasks, pool):
        result.merge_fragment(frag)
    result.notes.append(
        "paper shape (soft barrier): each PSSP member produces far fewer DPRs "
        "than its regret-matched SSP partner — up to 97.1% fewer for G vs H"
    )
    return result


# ---------------------------------------------------------------------------
# Figures 10/11 — accuracy vs time across models at 64 / 128 workers
# ---------------------------------------------------------------------------

#: (model kind, params) specs — JSON-able, rebuilt in arms via make_model.
FIG10_MODEL_SPECS: Tuple[Tuple[str, dict], ...] = (
    ("bsp", {}),
    ("ssp", {"s": 3}),
    ("asp", {}),
    ("pssp", {"s": 3, "c": 0.1}),
    ("pssp", {"s": 3, "c": 0.3}),
    ("pssp", {"s": 3, "c": 0.5}),
)


def _fig10_arm(scale: Scale, n: int, kind: str, params: dict,
               seed: int) -> ExperimentResult:
    """One Figure-10/11 synchronization model at ``n`` workers."""
    sync = make_model(kind, **params)
    frag = ExperimentResult(f"fig10/N{n}/{sync.name}", headers=[])
    wl = workload_for("alexnet")
    # Calibrated effective sync payload: the paper's Table IV times
    # (≈0.46 s/iteration for ASP at 64 workers over one 1 Gbps server)
    # imply ≈128 KB of sync traffic per worker-iteration, far below the
    # dense 7 MB model — consistent with PS-Lite's key-sliced worker
    # caching.  Without this the single server's NIC saturates and washes
    # out the sync-model time differences the figure is about.
    wire_scale = 128e3 / wl.wire_bytes
    task = blobs_task(n, n_train=scale.dataset_train, n_test=scale.dataset_test, seed=seed)
    cfg = SimConfig(
        cluster=cpu_cluster(n, n_servers=1),
        max_iter=scale.iters,
        sync=sync,
        execution=ExecutionMode.SOFT_BARRIER,
        task=task,
        workload=wl,
        wire_scale=wire_scale * wl.wire_bytes / task.spec.total_bytes,
        batch_per_worker=max(1, 6400 // n),
        compute_model=cpu_cluster_compute(n),
        seed=seed + 1,
        eval_every=scale.eval_every,
    )
    r = run_fluentps(cfg)
    acc = r.eval_by_iteration.final()
    frag.add_row(sync.name, round(r.duration, 1), round(acc, 4),
                 round(r.dprs_per_100_iterations(), 1))
    frag.record(sync.name, duration=r.duration, final_acc=acc,
                dprs_per_100=r.dprs_per_100_iterations())
    series = r.eval_by_time
    series.name = sync.name
    frag.series.append(series)
    return frag


def fig10_models(
    scale: Scale, n_workers: Optional[int] = None, seed: int = 0,
    title: str = "Figure 10", pool: Optional[SweepExecutor] = None,
) -> ExperimentResult:
    """Accuracy vs time for BSP/SSP/ASP/PSSP on the CPU cluster.

    Runs under the soft barrier — the execution mode whose Table IV times
    match the paper's Figure 10/11 runs (SSP ≈ 1.38x slower than PSSP).
    """
    n = n_workers or scale.big_workers
    experiment_id = title.lower().replace(" ", "")
    result = ExperimentResult(
        f"{title}: accuracy vs time by synchronization model ({n} workers)",
        headers=["model", "duration_s", "final_acc", "dprs_per_100it"],
    )
    tasks = []
    for kind, params in FIG10_MODEL_SPECS:
        variant = make_model(kind, **params).name
        tasks.append(
            RunTask(
                fn=_fig10_arm,
                kwargs=dict(
                    scale=scale, n=n, kind=kind, params=params,
                    # Paired seeds: the figure compares durations *across*
                    # models, so every model sees the same straggler draws
                    # (common random numbers — the serial loop's behavior).
                    seed=derive_task_seed(experiment_id, f"N{n}", seed),
                ),
                key=f"{experiment_id}/N{n}/{variant}",
            )
        )
    for frag in run_sweep(tasks, pool):
        result.merge_fragment(frag)
    result.notes.append(
        "paper shape: ASP fastest but lowest accuracy; PSSP ≈ SSP accuracy "
        "while finishing ~1.4x sooner; BSP slowest"
    )
    return result


def fig11_models(
    scale: Scale, seed: int = 0, pool: Optional[SweepExecutor] = None
) -> ExperimentResult:
    """Figure 10 at double the worker count (the paper's 128-container
    Kubernetes deployment)."""
    return fig10_models(scale, n_workers=scale.huge_workers, seed=seed,
                        title="Figure 11", pool=pool)
