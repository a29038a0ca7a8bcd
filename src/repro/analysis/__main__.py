"""CLI for the analysis layer: ``python -m repro.analysis``.

Modes (default = ``--lint src --smoke``):

- ``--lint PATH...`` — run the custom AST lint over the given trees;
- ``--smoke`` — run small simulated + threaded training jobs across the
  sync-model matrix with observability on, plus three timing-only runs
  whose rounds collapse into columnar blocks (isolated, merged under
  stragglers, BSP) and one real-gradient run whose math must be
  replayed after its timing run, and sanitize every captured event
  stream;
- ``--check-trace FILE...`` — sanitize dumped Perfetto trace files
  (``python -m repro.bench --trace-out`` artifacts);
- ``--explore [PRESET...]`` — bounded DPOR schedule exploration (all
  presets when none given); a failing schedule is delta-minimized and,
  with ``--trace-out``, saved as a replayable choice trace;
- ``--replay FILE...`` — re-run saved choice traces and check they
  reproduce their recorded violations deterministically;
- ``--race`` — run the threaded runner under the happens-before race
  detector.

Failure classes map to distinct exit codes (the id of the first violated
rule is the first output line):

=====  =========================================================
code   meaning
=====  =========================================================
0      clean
1      operational error (unreadable input, bad usage)
3      lint issue (ANA...)
4      protocol invariant violation in a smoke run (S.../CS...)
5      dumped trace failed sanitization
6      schedule exploration found a violation, or a replay drifted
7      data race detected in the threaded runner (R...)
=====  =========================================================
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Tuple

from repro.analysis.lint import lint_paths
from repro.analysis.sanitizer import (
    SanitizerReport,
    sanitize_events,
    sanitize_observability,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_LINT = 3
EXIT_INVARIANT = 4
EXIT_TRACE = 5
EXIT_EXPLORE = 6
EXIT_RACE = 7

#: (exit code, id of the first violated rule, buffered output lines).
SectionResult = Tuple[int, Optional[str], List[str]]


def run_lint(paths: List[str]) -> SectionResult:
    issues = lint_paths(paths)
    lines = [issue.describe() for issue in issues]
    lines.append(f"lint: {len(issues)} issue(s) in {', '.join(paths)}")
    if issues:
        return EXIT_LINT, issues[0].code, lines
    return EXIT_OK, None, lines


def run_check_trace(paths: List[str]) -> SectionResult:
    from repro.analysis.events import events_from_trace_file

    lines: List[str] = []
    rc, first = EXIT_OK, None
    for path in paths:
        try:
            # A dumped trace holds answered protocol traffic for finished
            # runs; liveness checks stay on (the run completed to be dumped).
            report = sanitize_events(events_from_trace_file(path), complete=True)
        except Exception as exc:
            lines.append(f"{path}: unreadable trace: {type(exc).__name__}: {exc}")
            rc, first = EXIT_TRACE, first or "X002"
            continue
        lines.append(f"{path}: {report.describe()}")
        if not report.ok:
            rc, first = EXIT_TRACE, first or report.violations[0].code
    return rc, first, lines


def _smoke_matrix():
    """(label, sync-model factory, execution) cells for the smoke run."""
    from repro.core.models import bsp, dsps, dynamic_pssp, pssp, ssp
    from repro.core.server import ExecutionMode

    return [
        ("bsp-lazy", bsp, ExecutionMode.LAZY),
        ("ssp2-lazy", lambda: ssp(2), ExecutionMode.LAZY),
        ("ssp2-soft", lambda: ssp(2), ExecutionMode.SOFT_BARRIER),
        ("pssp-const", lambda: pssp(2, 0.5), ExecutionMode.LAZY),
        ("pssp-dyn", lambda: dynamic_pssp(2), ExecutionMode.LAZY),
        ("dsps-lazy", dsps, ExecutionMode.LAZY),
    ]


def run_smoke(iters: int = 12, n_workers: int = 3, n_servers: int = 2) -> SectionResult:
    """Exercise every sync model on both runners, sanitizing each run."""
    from repro.bench.workloads import blobs_task
    from repro.core.api import ParameterServerSystem
    from repro.core.filters import SignificanceFilter
    from repro.core.models import bsp, dynamic_pssp, pssp, ssp
    from repro.core.pssp import significance_alpha
    from repro.core.server import ExecutionMode
    from repro.ml.models_zoo import alexnet_cifar_workload
    from repro.obs import MetricsRegistry, Observability, observed
    from repro.parallel import ThreadedRunner
    from repro.sim.cluster import cpu_cluster
    from repro.sim.runner import FluentPSSimRunner, SimConfig, run_fluentps
    from repro.sim.stragglers import HeterogeneousCompute, LogNormalCompute, cpu_cluster_compute

    lines: List[str] = []
    rc, first = EXIT_OK, None
    total = SanitizerReport(n_streams=0)
    for label, make_model, execution in _smoke_matrix():
        obs = Observability(MetricsRegistry("smoke"))
        with observed(obs):
            task = blobs_task(n_workers, n_train=400, n_test=100, seed=7)
            run_fluentps(
                SimConfig(
                    cluster=cpu_cluster(n_workers, n_servers),
                    max_iter=iters,
                    sync=make_model(),
                    execution=execution,
                    task=task,
                    seed=3,
                    base_compute_time=0.4,
                )
            )
        report = sanitize_observability(obs)
        lines.append(f"smoke sim {label}: {report.describe()}")
        if not report.ok:
            rc, first = EXIT_INVARIANT, first or report.violations[0].code
        total.merge(report)

    # Timing-only runs under non-causal observability whose rounds
    # collapse into columnar blocks: the isolated regime (compute >>
    # comm: the sanitizer's vector proof), stragglers (rounds merged at
    # the shards) and BSP (released DPRs: the row replay).
    for label, cluster, iters, sync, compute, base in [
        ("ssp3-isolated", cpu_cluster(120, n_servers=4), 3, ssp(3),
         LogNormalCompute(sigma=0.01), 1e5),
        ("ssp3-straggler", cpu_cluster(24, n_servers=2), 4, ssp(3), cpu_cluster_compute(24), None),
        ("bsp", cpu_cluster(12, n_servers=3), 4, bsp(), cpu_cluster_compute(12), None),
    ]:
        obs = Observability(MetricsRegistry("smoke"), causal=False)
        runner = FluentPSSimRunner(
            SimConfig(
                cluster=cluster, max_iter=iters, sync=sync, workload=alexnet_cifar_workload(),
                compute_model=compute, base_compute_time=base, seed=3, obs=obs,
            )
        )
        runner.run()
        collapsed = runner.engine.rounds_collapsed
        report = sanitize_observability(obs)
        lines.append(f"smoke sim {label} (rounds_collapsed={collapsed}): {report.describe()}")
        if not report.ok:
            rc, first = EXIT_INVARIANT, first or report.violations[0].code
        elif collapsed == 0:
            lines.append(f"smoke sim {label}: no round collapsed {runner.collapse_fallback}")
            rc, first = EXIT_INVARIANT, first or "X002"
        total.merge(report)

    # Small real-gradient runs: their math is replayed, at the end, or —
    # dynamic PSSP's significance coins and a significance filter — as the
    # timing run asks for values.  The first takes its raw twin's path, so
    # it must commit a round in closed form; the filter keeps the second
    # on the event path (``push_filter``).
    for label, sync, push_filter, compute, collapses in [
        ("pssp-replay", pssp(2, 0.5), None, None, True),
        ("dynamic-significance", dynamic_pssp(1, significance_alpha()),
         lambda: SignificanceFilter(0.01), HeterogeneousCompute(4, spread=0.8), False),
    ]:
        obs = Observability(MetricsRegistry("smoke"), causal=False)
        runner = FluentPSSimRunner(
            SimConfig(
                cluster=cpu_cluster(4, n_servers), max_iter=6, sync=sync,
                task=blobs_task(4, n_train=400, n_test=100, seed=7), eval_every=3,
                push_filter_factory=push_filter, compute_model=compute, seed=3, obs=obs,
            )
        )
        runner.run()
        replayed, collapsed = runner.steps_replayed, runner.engine.rounds_collapsed
        report = sanitize_observability(obs)
        lines.append(f"smoke sim {label} (steps_replayed={replayed}, "
                     f"rounds_collapsed={collapsed}): {report.describe()}")
        if not report.ok:
            rc, first = EXIT_INVARIANT, first or report.violations[0].code
        elif replayed != 4 * 6:
            lines.append(f"smoke sim {label}: math not replayed {runner.collapse_fallback}")
            rc, first = EXIT_INVARIANT, first or "X002"
        elif collapses and collapsed == 0:
            lines.append(f"smoke sim {label}: no round collapsed {runner.collapse_fallback}")
            rc, first = EXIT_INVARIANT, first or "X002"
        total.merge(report)

    obs = Observability(MetricsRegistry("smoke"))
    with observed(obs):
        task = blobs_task(n_workers, n_train=400, n_test=100, seed=7)
        system = ParameterServerSystem(
            task.spec, task.init_params, n_workers, n_servers, ssp(2),
            ExecutionMode.LAZY, seed=0,
        )
        result = ThreadedRunner(system, task.step_fn, max_iter=iters, seed=1).run()
        if not result.ok:
            lines.append(f"smoke threaded ssp2: run failed: {result.worker_errors}")
            rc, first = EXIT_INVARIANT, first or "X002"
    report = sanitize_observability(obs)
    lines.append(f"smoke threaded ssp2: {report.describe()}")
    if not report.ok:
        rc, first = EXIT_INVARIANT, first or report.violations[0].code
    total.merge(report)

    lines.append(
        f"smoke: {total.n_events} events over {total.n_streams} stream(s), "
        f"{len(total.violations)} violation(s)"
    )
    return rc, first, lines


def run_explore(
    presets: List[str],
    budget: int,
    iters: int,
    target: Optional[int],
    spread: float,
    trace_out: Optional[str],
) -> SectionResult:
    from repro.analysis.explore import PRESETS, ExploreConfig, explore

    lines: List[str] = []
    rc, first = EXIT_OK, None
    for preset in presets or sorted(PRESETS):
        report = explore(
            ExploreConfig(
                preset=preset,
                max_iter=iters,
                max_schedules=budget,
                target_inequivalent=target,
                spread=spread,
            )
        )
        lines.append(report.describe())
        if not report.ok:
            codes = [v.code for v in report.violations]
            if report.counterexample is not None:
                codes = report.counterexample.violations + codes
                if trace_out:
                    report.counterexample.save(trace_out)
                    lines.append(f"  counterexample trace written to {trace_out}")
            rc, first = EXIT_EXPLORE, first or (codes[0] if codes else "X002")
    return rc, first, lines


def run_replay(paths: List[str]) -> SectionResult:
    from repro.analysis.explore import ChoiceTrace, replay_trace

    lines: List[str] = []
    rc, first = EXIT_OK, None
    for path in paths:
        try:
            trace = ChoiceTrace.load(path)
        except Exception as exc:
            lines.append(f"{path}: unreadable choice trace: {type(exc).__name__}: {exc}")
            rc, first = EXIT_TRACE, first or "X002"
            continue
        result = replay_trace(trace)
        got = sorted(set(result.violation_codes()))
        want = sorted(set(trace.violations))
        for m in result.mismatches:
            lines.append(f"{path}: drift: {m}")
        if result.mismatches or got != want:
            lines.append(
                f"{path}: replay did NOT reproduce the trace: recorded {want}, "
                f"replay produced {got}"
            )
            drift_code = (got or want or ["X002"])[0]
            rc, first = EXIT_EXPLORE, first or drift_code
        else:
            lines.append(
                f"{path}: reproduced {want or ['clean run']} over "
                f"{result.n_decisions} decision(s)"
            )
    return rc, first, lines


def run_race(iters: int = 30, n_workers: int = 3, n_servers: int = 2) -> SectionResult:
    from repro.analysis.races import RaceTracker
    from repro.bench.workloads import blobs_task
    from repro.core.api import ParameterServerSystem
    from repro.core.models import ssp
    from repro.core.server import ExecutionMode
    from repro.parallel import ThreadedRunner

    lines: List[str] = []
    task = blobs_task(n_workers, n_train=200, n_test=60, seed=11)
    system = ParameterServerSystem(
        task.spec, task.init_params, n_workers, n_servers, ssp(1),
        ExecutionMode.LAZY, seed=0,
    )
    tracker = RaceTracker()
    result = ThreadedRunner(
        system, task.step_fn, max_iter=iters, seed=1, race_tracker=tracker
    ).run()
    report = tracker.report()
    lines.append(
        f"race: {report.n_events} sync/access op(s), "
        f"{len(report.violations)} race(s)"
    )
    lines += ["  " + v.describe() for v in report.violations[:10]]
    if not result.ok:
        lines.append(f"race: threaded run failed: {result.worker_errors}")
        return EXIT_RACE, "X002", lines
    if not report.ok:
        return EXIT_RACE, report.violations[0].code, lines
    return EXIT_OK, None, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--lint", nargs="*", metavar="PATH",
        help="run the custom AST lint (default path: src)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="run sanitized smoke training across the sync-model matrix",
    )
    parser.add_argument(
        "--check-trace", nargs="+", metavar="FILE",
        help="sanitize dumped Perfetto trace file(s)",
    )
    parser.add_argument("--smoke-iters", type=int, default=12)
    parser.add_argument(
        "--explore", nargs="*", metavar="PRESET",
        help="bounded DPOR schedule exploration (default: every preset)",
    )
    parser.add_argument(
        "--explore-budget", type=int, default=150,
        help="maximum schedules to run per preset (default 150)",
    )
    parser.add_argument(
        "--explore-iters", type=int, default=4,
        help="training iterations per explored schedule (default 4)",
    )
    parser.add_argument(
        "--explore-target", type=int, default=None,
        help="stop a preset once this many inequivalent schedules were seen",
    )
    parser.add_argument(
        "--spread", type=float, default=0.0,
        help="per-worker slowdown spread for exploration (default 0: symmetric)",
    )
    parser.add_argument(
        "--trace-out", metavar="PATH", default=None,
        help="write the minimized counterexample choice trace here",
    )
    parser.add_argument(
        "--replay", nargs="+", metavar="FILE",
        help="replay saved choice trace(s), checking they reproduce",
    )
    parser.add_argument(
        "--race", action="store_true",
        help="run the threaded runner under the happens-before race detector",
    )
    parser.add_argument("--race-iters", type=int, default=30)
    args = parser.parse_args(argv)

    selected = (
        args.lint is not None or args.smoke or args.check_trace
        or args.explore is not None or args.replay or args.race
    )
    sections: List[SectionResult] = []
    if args.lint is not None or not selected:
        sections.append(run_lint(args.lint or ["src"]))
    if args.check_trace:
        sections.append(run_check_trace(args.check_trace))
    if args.explore is not None:
        sections.append(
            run_explore(
                args.explore, args.explore_budget, args.explore_iters,
                args.explore_target, args.spread, args.trace_out,
            )
        )
    if args.replay:
        sections.append(run_replay(args.replay))
    if args.race:
        sections.append(run_race(iters=args.race_iters))
    if args.smoke or not selected:
        sections.append(run_smoke(iters=args.smoke_iters))

    # Output is buffered per section so a failure's rule id can lead the
    # combined output (CI log scrapers key off the first line).
    rc, first = EXIT_OK, None
    for sec_rc, sec_first, _lines in sections:
        if sec_rc != EXIT_OK and rc == EXIT_OK:
            rc, first = sec_rc, sec_first
    if first is not None:
        print(first)
    for _rc, _first, lines in sections:
        for line in lines:
            print(line)
    return rc


if __name__ == "__main__":
    sys.exit(main())
