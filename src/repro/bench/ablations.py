"""Ablations beyond the paper's figures (DESIGN.md §design choices).

1. straggler-distribution sensitivity — do the paper's conclusions hold
   under different compute-time regimes?
2. EPS chunk size / rebalance cost — slicing quality vs movement.
3. heterogeneous per-shard models (Figure 2's server-1-SSP /
   server-2-PSSP / server-M-drop-stragglers deployment).
4. push filters (Gaia significance / top-k) — wire bytes vs accuracy.
5. PSSP vs SpecSync — pause probabilistically vs abort-and-refresh
   (the related-work comparison of §V-B, not evaluated in the paper).
6. network-model sensitivity — do the overlap/EPS wins survive different
   latency/bandwidth/fabric regimes?

Every ablation is a sweep: each outer-loop iteration is an independent
module-level *arm* submitted through the
:class:`~repro.bench.pool.SweepExecutor` (inline when no pool is given),
with a per-arm seed from :func:`~repro.bench.pool.derive_task_seed`.
"""

from __future__ import annotations


from typing import Optional

from repro.bench.harness import ExperimentResult, Scale
from repro.bench.pool import RunTask, SweepExecutor, derive_task_seed, run_sweep
from repro.bench.workloads import no_network_config, workload_for
from repro.core.keyspace import ElasticSlicer
from repro.core.models import asp, bsp, drop_stragglers, pssp, ssp
from repro.sim.runner import run_fluentps
from repro.sim.stragglers import (
    DeterministicCompute,
    ExponentialTailCompute,
    HeterogeneousCompute,
    LogNormalCompute,
    ParetoTailCompute,
    TransientStragglerCompute,
)


# ---------------------------------------------------------------------------
# 1. straggler-distribution sensitivity
# ---------------------------------------------------------------------------

#: Compute-time regimes swept by the straggler ablation (name → factory).
STRAGGLER_REGIMES = {
    "deterministic": lambda n: DeterministicCompute(),
    "lognormal": lambda n: LogNormalCompute(0.15),
    "exp-tail": lambda n: ExponentialTailCompute(0.05, 3.0, 0.05),
    "pareto": lambda n: ParetoTailCompute(2.5, 0.3),
    "transient": lambda n: TransientStragglerCompute(
        n, slow_factor=3.0, period=40, duration=8
    ),
    "heterogeneous": lambda n: HeterogeneousCompute(n, spread=0.3),
}


def _straggler_arm(scale: Scale, regime: str, seed: int) -> ExperimentResult:
    """One compute-time regime, all four synchronization models."""
    frag = ExperimentResult(f"ablation-stragglers/{regime}", headers=[])
    n = 16
    compute = STRAGGLER_REGIMES[regime](n)
    models = [("bsp", bsp()), ("ssp(3)", ssp(3)), ("pssp(3,0.3)", pssp(3, 0.3)),
              ("asp", asp())]
    for model_name, sync in models:
        r = run_fluentps(no_network_config(
            n, sync, scale.dpr_iters // 2, compute_model=compute, seed=seed + 1,
        ))
        frag.add_row(regime, model_name, round(r.duration, 1),
                     r.metrics.dprs, round(r.metrics.mean_staleness(), 2))
        frag.record(f"{regime}_{model_name}", duration=r.duration,
                    dprs=r.metrics.dprs)
    return frag


def ablation_stragglers(
    scale: Scale, seed: int = 0, pool: Optional[SweepExecutor] = None
) -> ExperimentResult:
    """BSP/SSP/ASP/PSSP durations under five straggler regimes — checks
    that the paper's ordering (ASP ≤ PSSP ≤ SSP ≤ BSP in time) is not an
    artifact of one compute-time distribution."""
    result = ExperimentResult(
        "Ablation: straggler-distribution sensitivity",
        headers=["regime", "model", "duration_s", "dprs", "mean_staleness"],
    )
    tasks = [
        RunTask(
            fn=_straggler_arm,
            kwargs=dict(
                scale=scale, regime=regime,
                seed=derive_task_seed("ablation-stragglers", regime, seed),
            ),
            key=f"ablation-stragglers/{regime}",
        )
        for regime in STRAGGLER_REGIMES
    ]
    for frag in run_sweep(tasks, pool):
        result.merge_fragment(frag)
    result.notes.append("expected ordering within each regime: asp <= pssp <= ssp <= bsp")
    return result


# ---------------------------------------------------------------------------
# 2. EPS chunk size / rebalance cost
# ---------------------------------------------------------------------------


def _eps_chunk_arm(scale: Scale, chunk: int, seed: int) -> ExperimentResult:
    """One EPS chunk size: balance quality and 8 → 6 rebalance movement."""
    frag = ExperimentResult(f"ablation-eps/chunk{chunk}", headers=[])
    wl = workload_for("alexnet")
    slicer = ElasticSlicer(chunk_elements=chunk)
    a8 = slicer.slice(wl.spec, 8)
    a6 = slicer.rebalance(a8, 6)
    a6.validate_partition(wl.spec)
    moved = a8.moved_bytes(a6) / 1e6
    pieces = sum(len(a8.pieces[m]) for m in range(8))
    frag.add_row(chunk, round(a8.imbalance(), 3), round(a6.imbalance(), 3),
                 round(moved, 3), pieces)
    frag.record(f"chunk{chunk}", imbalance8=a8.imbalance(),
                imbalance6=a6.imbalance(), moved_mb=moved)
    return frag


def ablation_eps_chunks(
    scale: Scale, seed: int = 0, pool: Optional[SweepExecutor] = None
) -> ExperimentResult:
    """EPS chunk-size sweep: balance quality and rebalance movement when
    the server count changes 8 → 6."""
    result = ExperimentResult(
        "Ablation: EPS chunk size vs balance and rebalance movement",
        headers=["chunk_elems", "imbalance_8", "imbalance_6", "moved_MB", "pieces"],
    )
    tasks = [
        RunTask(
            fn=_eps_chunk_arm,
            kwargs=dict(
                scale=scale, chunk=chunk,
                seed=derive_task_seed("ablation-eps", f"chunk{chunk}", seed),
            ),
            key=f"ablation-eps/chunk{chunk}",
        )
        for chunk in (1 << 20, 1 << 18, 1 << 16, 1 << 14, 1 << 12)
    ]
    for frag in run_sweep(tasks, pool):
        result.merge_fragment(frag)
    result.notes.append("smaller chunks -> better balance, more pieces to manage")
    return result


# ---------------------------------------------------------------------------
# 4. push filters — wire bytes vs accuracy
# ---------------------------------------------------------------------------

#: Filter sweep order; specs are (kind, param) rebuilt inside the arm.
FILTER_SPECS = (
    ("none", None, None),
    ("significance(0.01)", "significance", 0.01),
    ("significance(0.05)", "significance", 0.05),
    ("topk(0.25)", "topk", 0.25),
    ("topk(0.05)", "topk", 0.05),
    ("random(0.25)", "random", 0.25),
)


def _push_filter_arm(scale: Scale, name: str, kind: Optional[str],
                     param: Optional[float], seed: int) -> ExperimentResult:
    """One push-filter variant on the same 8-worker SSP(2) training run."""
    from repro.bench.workloads import blobs_task
    from repro.core.filters import RandomSparsifier, SignificanceFilter, TopKFilter
    from repro.sim.cluster import cpu_cluster
    from repro.sim.runner import SimConfig, run_fluentps
    from repro.utils.rng import derive_rng

    frag = ExperimentResult(f"ablation-filters/{name}", headers=[])
    if kind is None:
        factory = None
    elif kind == "significance":
        factory = lambda: SignificanceFilter(param)
    elif kind == "topk":
        factory = lambda: TopKFilter(param)
    elif kind == "random":
        factory = lambda: RandomSparsifier(param, derive_rng(seed, "sparse"))
    else:
        raise ValueError(f"unknown filter kind {kind!r}")
    n = 8
    task = blobs_task(n, n_train=scale.dataset_train, n_test=scale.dataset_test,
                      seed=seed)
    cfg = SimConfig(
        cluster=cpu_cluster(n, 1), max_iter=scale.iters, sync=ssp(2),
        task=task, seed=seed + 1, base_compute_time=0.4,
        push_filter_factory=factory,
    )
    r = run_fluentps(cfg)
    acc = task.eval_fn(r.final_params)
    frag.record(name, wire_bytes=r.bytes_on_wire, final_acc=acc,
                duration=r.duration)
    return frag


def ablation_push_filters(
    scale: Scale, seed: int = 0, pool: Optional[SweepExecutor] = None
) -> ExperimentResult:
    """Gaia-style significance / top-k / random push filters on the wire:
    bytes saved vs accuracy kept (an extension the paper's §V-B discusses
    via Gaia but does not evaluate).

    Arms report raw metrics; rows (and the bytes-saved percentage against
    the unfiltered baseline) are assembled here so the comparison stays
    identical no matter where each arm ran.
    """
    result = ExperimentResult(
        "Ablation: push filters — wire bytes vs accuracy",
        headers=["filter", "wire_MB", "bytes_saved_%", "final_acc", "duration_s"],
    )
    tasks = [
        RunTask(
            fn=_push_filter_arm,
            kwargs=dict(
                scale=scale, name=name, kind=kind, param=param,
                # Paired: bytes saved is measured against the unfiltered
                # baseline, so every filter runs the same training job.
                seed=derive_task_seed("ablation-filters", "ssp2-blobs", seed),
            ),
            key=f"ablation-filters/{name}",
        )
        for name, kind, param in FILTER_SPECS
    ]
    baseline_bytes = None
    for frag in run_sweep(tasks, pool):
        rec = frag.records[0]
        wire, acc = rec.metrics["wire_bytes"], rec.metrics["final_acc"]
        if baseline_bytes is None:
            baseline_bytes = wire
        saved = 100.0 * (1 - wire / baseline_bytes)
        rec.metrics["saved_pct"] = saved
        result.add_row(rec.name, round(wire / 1e6, 2), round(saved, 1),
                       round(acc, 4), round(rec.metrics["duration"], 1))
        result.records.extend(frag.records)
        result.series.extend(frag.series)
    result.notes.append(
        "Gaia's claim transfers: most update mass is insignificant per push; "
        "accumulate-and-send preserves accuracy at a fraction of the bytes"
    )
    return result


# ---------------------------------------------------------------------------
# 6. network-model sensitivity
# ---------------------------------------------------------------------------

#: Network regimes swept (name → gpu_cluster_p2 overrides).
NETWORK_REGIMES = (
    ("default", {}),
    ("high-latency", {"latency_s": 2e-3}),
    ("half-bandwidth", {"nic_gbps": 0.4}),
    ("double-bandwidth", {"nic_gbps": 1.6}),
)


def _network_regime_arm(scale: Scale, regime: str, overrides: dict,
                        seed: int) -> ExperimentResult:
    """One network regime: PS-Lite vs FluentPS+EPS under BSP."""
    from repro.baselines.pslite import run_pslite
    from repro.core.models import bsp as bsp_model
    from repro.sim.cluster import gpu_cluster_p2
    from repro.sim.runner import SimConfig, run_fluentps
    from repro.sim.stragglers import gpu_cluster_compute

    frag = ExperimentResult(f"ablation-network/{regime}", headers=[])
    n = 16
    wl = workload_for("resnet56")
    cluster = gpu_cluster_p2(n, 8, **overrides)
    base = dict(
        cluster=cluster, max_iter=scale.sim_iters, sync=bsp_model(),
        workload=wl, batch_per_worker=max(1, 4096 // n),
        compute_model=gpu_cluster_compute(), seed=seed,
    )
    r_ps = run_pslite(SimConfig(**base))
    r_fl = run_fluentps(SimConfig(**base, slicer=ElasticSlicer()))
    for system, r in (("pslite", r_ps), ("fluentps+eps", r_fl)):
        frag.add_row(regime, system, round(r.duration, 2),
                     round(r.mean_comm_time, 2),
                     round(r_ps.duration / r.duration, 2))
    frag.record(regime, pslite=r_ps.duration, fluentps=r_fl.duration,
                speedup=r_ps.duration / r_fl.duration)
    return frag


def ablation_network_sensitivity(
    scale: Scale, seed: int = 0, pool: Optional[SweepExecutor] = None
) -> ExperimentResult:
    """Figure 6's conclusion under four network regimes.

    The co-simulation's NIC model is an approximation; this checks that
    "FluentPS+EPS beats PS-Lite, comm dominates PS-Lite at scale" is not
    an artifact of one latency/bandwidth/fabric setting."""
    result = ExperimentResult(
        "Ablation: network-regime sensitivity of the overlap/EPS win",
        headers=["regime", "system", "total_s", "comm_s", "speedup"],
    )
    tasks = [
        RunTask(
            fn=_network_regime_arm,
            kwargs=dict(
                scale=scale, regime=regime, overrides=overrides,
                seed=derive_task_seed("ablation-network", regime, seed),
            ),
            key=f"ablation-network/{regime}",
        )
        for regime, overrides in NETWORK_REGIMES
    ]
    for frag in run_sweep(tasks, pool):
        result.merge_fragment(frag)
    result.notes.append("the overlap/EPS speedup must hold (>1) in every regime")
    return result


# ---------------------------------------------------------------------------
# 5. PSSP vs SpecSync
# ---------------------------------------------------------------------------


def _specsync_arm(scale: Scale, variant: str, seed: int) -> ExperimentResult:
    """One system of the pause-vs-abort comparison."""
    from repro.baselines.specsync import SpecSyncConfig, SpecSyncRunner
    from repro.bench.workloads import blobs_task
    from repro.core.models import asp as asp_model
    from repro.core.models import pssp as pssp_model
    from repro.sim.cluster import cpu_cluster
    from repro.sim.runner import SimConfig, run_fluentps
    from repro.sim.stragglers import cpu_cluster_compute

    frag = ExperimentResult(f"ablation-specsync/{variant}", headers=[])
    n = max(8, scale.big_workers // 2)

    def cfg(sync) -> SimConfig:
        return SimConfig(
            cluster=cpu_cluster(n, 1), max_iter=scale.iters, sync=sync,
            task=blobs_task(n, n_train=scale.dataset_train,
                            n_test=scale.dataset_test, seed=seed),
            seed=seed + 1, base_compute_time=0.4,
            compute_model=cpu_cluster_compute(n),
        )

    evaluator = blobs_task(n, n_train=scale.dataset_train,
                           n_test=scale.dataset_test, seed=seed)
    if variant == "specsync":
        runner = SpecSyncRunner(
            SpecSyncConfig(sim=cfg(asp_model()), abort_threshold=n // 2)
        )
        r = runner.run()
        aborts, wasted = runner.aborts, runner.wasted_compute
    elif variant == "pssp(3,0.3)":
        r = run_fluentps(cfg(pssp_model(3, 0.3)))
        aborts, wasted = 0, 0.0
    elif variant == "asp":
        r = run_fluentps(cfg(asp_model()))
        aborts, wasted = 0, 0.0
    else:
        raise ValueError(f"unknown specsync variant {variant!r}")
    acc = evaluator.eval_fn(r.final_params)
    frag.add_row(variant, round(r.duration, 1), round(acc, 4), aborts,
                 round(wasted, 1))
    frag.record(variant, duration=r.duration, final_acc=acc,
                aborts=float(aborts), wasted=wasted)
    return frag


def ablation_specsync(
    scale: Scale, seed: int = 0, pool: Optional[SweepExecutor] = None
) -> ExperimentResult:
    """PSSP vs SpecSync vs ASP on one training job.

    SpecSync keeps parameters fresh by *aborting* stale in-progress
    computations (wasting the work plus a refresh round-trip); PSSP keeps
    staleness bounded by occasionally *pausing* fast workers.  The paper
    argues PSSP achieves the freshness benefit "but avoid[s] the
    computation aborts in SpecSync" — this experiment quantifies it.
    """
    result = ExperimentResult(
        "Ablation: PSSP vs SpecSync (pause vs abort)",
        headers=["system", "duration_s", "final_acc", "aborts", "wasted_compute_s"],
    )
    tasks = [
        RunTask(
            fn=_specsync_arm,
            kwargs=dict(
                scale=scale, variant=variant,
                # Paired: the three systems are compared head-to-head on
                # one training job, so they share the same draws.
                seed=derive_task_seed("ablation-specsync", "blobs", seed),
            ),
            key=f"ablation-specsync/{variant}",
        )
        for variant in ("specsync", "pssp(3,0.3)", "asp")
    ]
    for frag in run_sweep(tasks, pool):
        result.merge_fragment(frag)
    result.notes.append(
        "PSSP reaches SpecSync-class accuracy without aborting any computation"
    )
    return result


# ---------------------------------------------------------------------------
# 3. heterogeneous per-shard models
# ---------------------------------------------------------------------------


def _per_shard_arm(scale: Scale, deployment: str, seed: int) -> ExperimentResult:
    """One Figure-2 deployment: uniform SSP or mixed per-shard models."""
    frag = ExperimentResult(f"ablation-shards/{deployment}", headers=[])
    n, m = 12, 3
    if deployment == "uniform ssp(3)":
        sync = ssp(3)
    elif deployment == "mixed ssp/pssp/drop":
        sync = [ssp(3), pssp(3, 0.3), drop_stragglers(n, n_t=9)]
    else:
        raise ValueError(f"unknown deployment {deployment!r}")
    r = run_fluentps(no_network_config(
        n, sync, scale.dpr_iters // 2, n_servers=m,
        compute_model=HeterogeneousCompute(n, spread=0.3), seed=seed + 1,
    ))
    frag.add_row(deployment, round(r.duration, 1), r.metrics.dprs,
                 round(r.metrics.mean_staleness(), 2))
    frag.record(deployment, duration=r.duration, dprs=r.metrics.dprs)
    return frag


def ablation_per_shard_models(
    scale: Scale, seed: int = 0, pool: Optional[SweepExecutor] = None
) -> ExperimentResult:
    """Figure 2's deployment: different models on different servers of the
    same job (SSP / PSSP / drop-stragglers), vs uniform SSP."""
    result = ExperimentResult(
        "Ablation: heterogeneous per-shard synchronization models",
        headers=["deployment", "duration_s", "dprs", "mean_staleness"],
    )
    tasks = [
        RunTask(
            fn=_per_shard_arm,
            kwargs=dict(
                scale=scale, deployment=deployment,
                # Paired: uniform vs mixed are compared on the same
                # heterogeneous-compute draws.
                seed=derive_task_seed("ablation-shards", "fig2", seed),
            ),
            key=f"ablation-shards/{deployment}",
        )
        for deployment in ("uniform ssp(3)", "mixed ssp/pssp/drop")
    ]
    for frag in run_sweep(tasks, pool):
        result.merge_fragment(frag)
    result.notes.append(
        "each server runs its own condition instances; mixed deployments are "
        "first-class (the paper's Figure 2)"
    )
    return result
