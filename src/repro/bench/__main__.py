"""Run every paper experiment and print/persist the results.

Usage:
    python -m repro.bench                 # all experiments, QUICK scale
    python -m repro.bench --scale paper   # near paper scale (slow)
    python -m repro.bench --only fig6 fig9
    python -m repro.bench --jobs 4        # fan sweep arms across processes
    python -m repro.bench --list

Sweep arms go through :mod:`repro.bench.pool`: ``--jobs N`` runs them on
a process pool and the run cache under ``<save-dir>/.cache`` memoizes
finished arms across invocations (``--no-cache`` to disable).  Output is
byte-identical at any job count.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Callable, Dict, Optional

from repro.bench.ablations import (
    ablation_eps_chunks,
    ablation_network_sensitivity,
    ablation_per_shard_models,
    ablation_push_filters,
    ablation_specsync,
    ablation_stragglers,
)
from repro.bench.figures import (
    fig1_pmls_scaling,
    fig3_tradeoff_trace,
    fig5_timeline,
    fig6_overlap,
    fig7_scalability,
    fig8_lazy_vs_soft,
    fig9_dpr_pairs,
    fig10_models,
    fig11_models,
)
from repro.bench.harness import SCALES, Scale, emit_observability
from repro.bench.pool import RunCache, SweepExecutor, WorkerFailure
from repro.bench.scale_grid import scale_grid
from repro.bench.tables import table1_model_matrix, table3_conditions, table4_grid
from repro.bench.theory_bench import theory_bounds
from repro.obs import MetricsRegistry, Observability, observed
from repro.utils.tables import format_table

#: Every experiment behind a uniform (scale, seed, pool) call shape.
#: Non-sweep experiments (table1, fig3, fig5, theory) ignore the pool.
EXPERIMENTS: Dict[str, Callable[[Scale, int, Optional[SweepExecutor]], object]] = {
    "table1": lambda scale, seed, pool: table1_model_matrix(),
    "fig1": lambda scale, seed, pool: fig1_pmls_scaling(scale, seed=seed, pool=pool),
    "fig3": lambda scale, seed, pool: fig3_tradeoff_trace(),
    "fig5": lambda scale, seed, pool: fig5_timeline(scale, seed=seed),
    "fig6": lambda scale, seed, pool: fig6_overlap(scale, seed=seed, pool=pool),
    "fig7": lambda scale, seed, pool: fig7_scalability(scale, seed=seed, pool=pool),
    "fig8": lambda scale, seed, pool: fig8_lazy_vs_soft(scale, seed=seed, pool=pool),
    "fig9": lambda scale, seed, pool: fig9_dpr_pairs(scale, seed=seed, pool=pool),
    "fig10": lambda scale, seed, pool: fig10_models(scale, seed=seed, pool=pool),
    "fig11": lambda scale, seed, pool: fig11_models(scale, seed=seed, pool=pool),
    "table3": lambda scale, seed, pool: table3_conditions(scale, seed=seed, pool=pool),
    "table4": lambda scale, seed, pool: table4_grid(scale, seed=seed, pool=pool),
    "theory": lambda scale, seed, pool: theory_bounds(scale, seed=seed),
    "ablation-stragglers": lambda scale, seed, pool: ablation_stragglers(
        scale, seed=seed, pool=pool
    ),
    "ablation-eps": lambda scale, seed, pool: ablation_eps_chunks(
        scale, seed=seed, pool=pool
    ),
    "ablation-shards": lambda scale, seed, pool: ablation_per_shard_models(
        scale, seed=seed, pool=pool
    ),
    "ablation-filters": lambda scale, seed, pool: ablation_push_filters(
        scale, seed=seed, pool=pool
    ),
    "ablation-specsync": lambda scale, seed, pool: ablation_specsync(
        scale, seed=seed, pool=pool
    ),
    "ablation-network": lambda scale, seed, pool: ablation_network_sensitivity(
        scale, seed=seed, pool=pool
    ),
    "scale-grid": lambda scale, seed, pool: scale_grid(scale, seed=seed, pool=pool),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="FluentPS reproduction: run the paper's experiments.",
    )
    parser.add_argument("--scale", choices=sorted(SCALES), default="quick")
    parser.add_argument("--seed", type=int, default=0,
                        help="base seed; every sweep arm derives its own "
                             "seed from (experiment, variant, --seed)")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for sweep arms (default 1: "
                             "run inline; output is identical either way)")
    parser.add_argument("--only", nargs="*", metavar="ID",
                        help="experiment ids to run (default: all)")
    parser.add_argument("--list", action="store_true", help="list experiment ids")
    parser.add_argument("--save-dir", default=None,
                        help="directory for JSON results (default: results/)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the run cache (always recompute arms)")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="run-cache location (default: <save-dir>/.cache)")
    parser.add_argument("--trace-out", default=None, metavar="PATH",
                        help="write a Chrome/Perfetto trace of the last run "
                             "(open at https://ui.perfetto.dev)")
    parser.add_argument("--metrics-out", default=None, metavar="PATH",
                        help="write the metrics registry as JSON (default: "
                             "<trace stem>.metrics.json when --trace-out is set)")
    parser.add_argument("--sanitize", action="store_true",
                        help="run the repro.analysis protocol sanitizer over "
                             "every observed run (inside each worker process "
                             "when --jobs > 1); non-zero exit on violations")
    args = parser.parse_args(argv)

    if args.list:
        for name in EXPERIMENTS:
            print(name)
        return 0
    if args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")

    scale = SCALES[args.scale]
    wanted = args.only or list(EXPERIMENTS)
    unknown = [w for w in wanted if w not in EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiment ids: {unknown}; use --list")
    # With a pooled sweep the parent process never sees worker-side runs,
    # so trace/metrics capture moves into the workers: each arm dumps its
    # own artifacts into a sibling ".arms" directory.
    obs_dir = None
    if (args.trace_out or args.metrics_out) and args.jobs > 1:
        from pathlib import Path

        stem = Path(args.trace_out or args.metrics_out)
        obs_dir = str(stem.with_name(stem.stem + ".arms"))
        print(f"[--jobs {args.jobs}: per-arm traces/metrics will land in "
              f"{obs_dir}/ — inspect with `python -m repro.obs {obs_dir}`]")

    obs = None
    artifacts = bool(args.trace_out or args.metrics_out)
    if artifacts or args.sanitize:
        # The causal DAG only for artifacts: it would keep every inline arm
        # off the round collapse, the path a sanitized sweep must check.
        obs = Observability(MetricsRegistry("bench"), causal=artifacts)

    cache = None
    if not args.no_cache:
        cache_dir = args.cache_dir
        if cache_dir is None:
            import os

            cache_dir = os.path.join(args.save_dir or "results", ".cache")
        cache = RunCache(cache_dir)
    pool = SweepExecutor(
        jobs=args.jobs,
        cache=cache,
        # Inline arms run under the parent's observability, which the
        # end-of-run sanitizer pass already covers; workers need their own.
        sanitize=args.sanitize and args.jobs > 1,
        obs_dir=obs_dir,
    )

    timings = []  # (name, wall_s, per-experiment PoolStats, ok)
    failures = []

    def run_all() -> None:
        for name in wanted:
            t0 = time.time()
            before = pool.stats.snapshot()
            try:
                result = EXPERIMENTS[name](scale, args.seed, pool)
            except WorkerFailure as exc:
                failures.append(name)
                print(f"[{name}: FAILED — {exc}]")
                if exc.remote_traceback:
                    print(exc.remote_traceback.rstrip())
                timings.append(
                    (name, time.time() - t0, pool.stats.since(before), False)
                )
                print()
                continue
            result.show()
            stats = pool.stats.since(before)
            timings.append((name, time.time() - t0, stats, True))
            try:
                path = result.save(directory=args.save_dir)
                print(f"[{name}: {time.time() - t0:.1f}s, saved {path}]\n")
            except OSError:
                print(f"[{name}: {time.time() - t0:.1f}s]\n")

    try:
        if obs is not None:
            with observed(obs):
                run_all()
        else:
            run_all()
    finally:
        pool.close()

    rows = [
        (name, round(wall, 2), s.tasks, s.cache_hits, s.cache_misses,
         "ok" if ok else "FAILED")
        for name, wall, s, ok in timings
    ]
    print(format_table(
        ["experiment", "wall_s", "tasks", "cache_hits", "cache_misses", "status"],
        rows,
        title=f"== timing summary (jobs={args.jobs}, scale={scale.name}) ==",
    ))
    s = pool.stats
    print(f"[pool: jobs={args.jobs} tasks={s.tasks} "
          f"cache_hits={s.cache_hits} cache_misses={s.cache_misses}]")

    if obs is not None:
        if args.trace_out or args.metrics_out:
            trace_out = args.trace_out
            if trace_out and obs.last_run is None:
                # All traced runs happened inside pooled workers; their
                # artifacts are already on disk under obs_dir.
                print("[no run captured in the parent process; see the "
                      f"per-arm traces under {obs_dir}/]" if obs_dir else
                      "[no run captured; nothing to write to --trace-out]")
                trace_out = None
            emit_observability(
                obs, trace_out=trace_out, metrics_out=args.metrics_out
            )
        if args.sanitize:
            from repro.analysis import sanitize_observability

            report = sanitize_observability(obs)
            print(report.describe())
            if not report.ok:
                return 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
