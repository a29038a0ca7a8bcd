"""Overlap synchronization vs PS-Lite's non-overlap design (Figures 4-6).

Renders the Figure-5-style ASCII timelines for a small cluster with one
straggler, then sweeps cluster sizes for the Figure-6 breakdown: PS-Lite
(central scheduler, non-overlap, default range-key slicing) vs FluentPS
(per-server conditions, overlap) vs FluentPS + EPS.

Run:  python examples/overlap_vs_nonoverlap.py
"""

from repro.baselines.pslite import run_pslite
from repro.bench.workloads import workload_for
from repro.core.keyspace import DefaultSlicer, ElasticSlicer
from repro.core.models import bsp
from repro.sim.cluster import gpu_cluster_p2
from repro.sim.runner import SimConfig, run_fluentps
from repro.sim.stragglers import TransientStragglerCompute, gpu_cluster_compute
from repro.utils.tables import format_table


def timelines() -> None:
    wl = workload_for("resnet56")
    compute = TransientStragglerCompute(3, slow_factor=3.0, period=6, duration=3,
                                        jitter_sigma=0.02)
    common = dict(
        cluster=gpu_cluster_p2(3, 4), max_iter=6, sync=bsp(), workload=wl,
        batch_per_worker=256, compute_model=compute, seed=0, span_capture=True,
    )
    non = run_pslite(SimConfig(**common))
    ovl = run_fluentps(SimConfig(**common, slicer=ElasticSlicer()))
    t_max = max(non.duration, ovl.duration)
    workers = [f"worker{w}" for w in range(3)]
    print("Non-overlap (PS-Lite, Figure 5a): push phase | grant | pull phase")
    print(non.trace.render_timeline(workers, width=96, t_max=t_max))
    print(f"\nOverlap (FluentPS, Figure 5b): finished {non.duration / ovl.duration:.2f}x sooner")
    print(ovl.trace.render_timeline(workers, width=96, t_max=t_max))


def breakdown() -> None:
    wl = workload_for("resnet56")
    rows = []
    for n in (8, 16, 32):
        base = dict(
            cluster=gpu_cluster_p2(n, 8), max_iter=40, sync=bsp(), workload=wl,
            batch_per_worker=max(1, 4096 // n), compute_model=gpu_cluster_compute(),
            seed=1,
        )
        runs = {
            "PS-Lite": run_pslite(SimConfig(**base)),
            "FluentPS": run_fluentps(SimConfig(**base, slicer=DefaultSlicer())),
            "FluentPS+EPS": run_fluentps(SimConfig(**base, slicer=ElasticSlicer())),
        }
        ps = runs["PS-Lite"].duration
        for name, r in runs.items():
            rows.append([n, name, round(r.mean_compute_time, 2),
                         round(r.mean_comm_time, 2), round(r.duration, 2),
                         f"{ps / r.duration:.2f}x"])
    print(format_table(
        ["workers", "system", "compute_s", "comm_s", "total_s", "speedup"],
        rows, title="\nFigure 6: computation/communication time (BSP, ResNet-56)",
    ))


if __name__ == "__main__":
    timelines()
    breakdown()
