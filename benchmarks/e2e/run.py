"""Regime-matrix end-to-end benchmark of the FluentPS co-simulator.

A closed, batch benchmark: each workload is one fixed simulation job.  A
measurement starts five fresh processes per workload, one after another;
each sets up once and repeats the timed run until its share of
``--seconds`` is used.  The result is the fastest timed run: host seconds
per job and simulated worker-iterations per host second.

    python3 benchmarks/e2e/run.py                       # all six workloads
    python3 benchmarks/e2e/run.py --workload bsp_800 --seed 7 --seconds 20 --trace 0
    python3 benchmarks/e2e/run.py --trace 1             # per-layer metrics
    python3 benchmarks/e2e/run.py --selfcheck           # two sets, must agree
    python3 benchmarks/e2e/run.py --repin               # rewrite expected.json

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from metrics import ABSENT, END_TO_END, PER_LAYER  # noqa: E402
from workloads import INSTANT_SPILL_CAP, WORKLOADS  # noqa: E402

DEFAULT_SEED = 0
MIN_REPS = 3
#: --selfcheck measurements per set, as many as the acceptance driver makes.
SELFCHECK_RUNS = 10
#: What a child may take on top of the seconds it was told to fill.
CHILD_GRACE_S = 60.0
EXPECTED = HERE / "expected.json"
#: Digest entries that depend on the host's BLAS kernels, not only on the
#: seed: compared run against run, never against ``expected.json``.
HOST_DEPENDENT = ("final_params_hash", "final_accuracy")

Rep = Dict[str, Any]


def portable(digest: Dict[str, Any]) -> Dict[str, Any]:
    """The part of a digest that ``expected.json`` pins."""
    return {k: v for k, v in digest.items() if k not in HOST_DEPENDENT}


def child_env(out_dir: Path) -> Dict[str, str]:
    """The children's environment: the program on the path, temporary files
    (the instant log's spill) inside the checkout, one hash seed."""
    tmp = out_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["TMPDIR"] = str(tmp)
    env["PYTHONHASHSEED"] = "0"
    # One BLAS thread: on two shared cores a second one makes the small
    # matrix products of ``cosim_task_32w`` slower and less steady.
    env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = "1"
    env["REPRO_INSTANT_SPILL_CAP"] = str(INSTANT_SPILL_CAP)
    return env


def run_child(args: Sequence[str], out_dir: Path, slice_s: float = 0.0) -> Rep:
    """One ``worker.py`` process, waited for; a failure is a rep with
    ``error`` set, never an exception.  The hard timeout is the child's
    ``slice_s`` (it repeats its run that long) plus ``CHILD_GRACE_S``."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args,
           "--spawned-at", repr(time.monotonic())]
    timeout = max(slice_s, 0.0) + CHILD_GRACE_S
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=child_env(out_dir),
                              timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {timeout:.0f} s"}
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no stderr"]
        return {"error": f"exit {proc.returncode}: {tail[0]}"}
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {"error": "no JSON on stdout"}


def measure(names: Sequence[str], seed: int, *, quick: bool, trace: bool, out_dir: Path,
            reps: int, seconds: float) -> Dict[str, List[Rep]]:
    """``reps`` processes per workload, strictly one at a time (two cores:
    never two children at once), round-robin over ``names`` so drift hits
    every workload equally.  Process ``i`` of a workload may run until
    ``(i + 1) / reps`` of the workload's ``seconds`` are spent, so time an
    earlier process left unused is not lost.  With ``trace`` every second
    process of a workload is traced."""
    done: Dict[str, List[Rep]] = {name: [] for name in names}
    spent = dict.fromkeys(names, 0.0)
    for rep in range(reps):
        for name in names:
            slice_s = seconds * (rep + 1) / reps - spent[name]
            args = ["--workload", name, "--seed", str(seed), "--out-dir", str(out_dir),
                    "--slice-s", repr(slice_s)]
            if quick:
                args.append("--quick")
            if trace and rep % 2 == 1:
                args.append("--trace")
            t0 = time.monotonic()
            done[name].append(run_child(args, out_dir, slice_s))
            spent[name] += time.monotonic() - t0
    return done


def check(name: str, seed: int, reps: List[Rep], expected: Optional[Dict[str, Any]]) -> List[str]:
    """One message per operation, "" for a good one.  An operation is one
    timed run, or one process that raised or timed out.  A run fails when
    its digest differs from the first run's (same seed, so the simulation
    must repeat exactly, traced or not), a regime guard is out of range,
    or — at the pinned seed — its digest differs from ``expected.json``."""
    entry = (expected or {}).get("workloads", {}).get(name, {})
    pinned = entry.get("digest") if expected and expected.get("seed") == seed else None
    first: Optional[Dict[str, Any]] = None
    out = []
    for rep in reps:
        if "error" in rep:
            out.append(rep["error"])
            continue
        for run in rep["runs"]:
            digest = run["digest"]
            first = first or digest
            problems = []
            if digest != first:
                problems.append("digest differs from another run of this seed")
            for key, (lo, hi) in entry.get("guards", {}).items():
                value = digest.get(key)
                if value is None or (lo is not None and value < lo) or (
                        hi is not None and value > hi):
                    problems.append(f"guard {key}={value} outside [{lo}, {hi}]")
            if pinned is not None:
                mine = portable(digest)
                if mine != pinned:
                    diff = sorted(k for k in set(mine) | set(pinned)
                                  if mine.get(k) != pinned.get(k))
                    problems.append(f"digest differs from expected.json in {diff}")
            out.append("; ".join(problems))
    return out


def quartiles(values: List[float]) -> List[float]:
    """[q1, median, q3]; a single value is its own quartiles."""
    if len(values) < 2:
        return [values[0]] * 3
    q1, _, q3 = statistics.quantiles(values, n=4)
    return [q1, statistics.median(values), q3]


def summarize(reps: List[Rep], failures: List[str], trace: bool) -> Dict[str, Any]:
    """The result object of one workload: the end-to-end metrics of the
    untraced processes, or (``trace``) the per-layer metrics of the fastest
    traced run."""
    result: Dict[str, Any] = {
        "correct": not any(failures),
        "attempted": len(failures),
        "failed": sum(1 for f in failures if f),
        "metrics": {},
        "detail": {"errors": sorted({f for f in failures if f})},
    }
    good = [r for r in reps if "error" not in r]
    plain = [r for r in good if not r["traced"]]
    if not plain:
        return result
    work = plain[0]["n_workers"] * plain[0]["max_iter"]
    walls = [run["run_wall_s"] for r in plain for run in r["runs"]]
    fastest = min(walls)
    if not trace:
        # The job is deterministic and interference only ever slows it
        # (README, "Noise"), so the fastest timed run and the fastest
        # set-up are the steady estimates; memory reports its median.
        setups = [r["setup_s"] for r in plain]
        values = {
            "run_wall_s": fastest,
            "worker_iters_per_s": work / fastest,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
            "setup_s": min(setups),
        }
        for metric, unit, _better, _bound in END_TO_END:
            result["metrics"][metric] = {"value": values[metric], "unit": unit}
        for metric, samples in (("run_wall_s", walls), ("setup_s", setups)):
            q1, median, q3 = quartiles(samples)
            result["detail"][metric] = {"q1": q1, "median": median, "q3": q3, "n": len(samples)}
        return result
    traced = sorted((run for r in good if r["traced"] for run in r["runs"]),
                    key=lambda run: run["run_wall_s"])
    if not traced:
        return result
    run = traced[0]
    layers = dict(run["layers"])
    layers["trace.overhead_ratio"] = run["run_wall_s"] / fastest
    for metric, unit, _better in PER_LAYER:
        value = layers.get(metric)
        result["metrics"][metric] = {"value": ABSENT if value is None else value, "unit": unit}
    result["detail"].update(
        absent=[m for m, _u, _b in PER_LAYER if layers.get(m) is None],
        traced_runs=len(traced), untraced_runs=len(walls),
    )
    return result


def render(name: str, quick: bool, result: Dict[str, Any]) -> str:
    n, iters = WORKLOADS[name].size(quick)
    lines = [f"== {name}: " + (f"quick size, {n} workers x {iters} iters" if quick
                               else WORKLOADS[name].why)]
    detail = result["detail"]
    for metric, m in result["metrics"].items():
        spread = detail.get(metric)
        extra = "" if spread is None else (
            f"  (fastest of {spread['n']}; q1 {spread['q1']:.6g}, median {spread['median']:.6g}, "
            f"q3 {spread['q3']:.6g})")
        lines.append(f"  {metric:40s} {m['value']:>16.6g} {m['unit']}{extra}")
    if detail.get("absent"):
        lines.append(f"  absent (reported as {ABSENT}): {', '.join(detail['absent'])}")
    lines.append(f"  failed {result['failed']} of {result['attempted']} operations"
                 + "".join(f"\n    ! {e}" for e in detail["errors"]))
    return "\n".join(lines)


def run_set(names: Sequence[str], seed: int, expected, **kw) -> Dict[str, Dict[str, Any]]:
    reps = measure(names, seed, **kw)
    return {
        name: summarize(reps[name], check(name, seed, reps[name], expected), kw["trace"])
        for name in names
    }


def worse_by(better: str, first: float, second: float) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    change = (second - first) / first
    return change if better == "lower" else -change


def selfcheck(names, seed, expected, **kw) -> Dict[str, Any]:
    """Two sets of ``SELFCHECK_RUNS`` measurements per workload, all of the
    one job ``seed`` names, so a spread is host noise and nothing else; per
    set the spread (IQR / median) of every end-to-end metric, then set B's
    median against set A's.  Passes when every spread except ``setup_s``'s
    and every A-to-B worsening stays within the metric's bound and no
    operation failed."""
    runs = SELFCHECK_RUNS
    doc: Dict[str, Any] = {"runs_per_set": runs, "seed": seed, "seconds": kw["seconds"],
                           "workloads": {}, "ok": True}
    values = {s: {n: {m[0]: [] for m in END_TO_END} for n in names} for s in "AB"}
    failed = dict.fromkeys(names, 0)
    for label in "AB":
        for i in range(runs):
            for name, result in run_set(names, seed, expected, **kw).items():
                failed[name] += result["failed"]
                for metric, m in result["metrics"].items():
                    values[label][name][metric].append(m["value"])
                print(f"[selfcheck {label}{i} {name}] " + " ".join(
                    f"{k}={m['value']:.5g}" for k, m in result["metrics"].items()), flush=True)
    for name in names:
        rows = {}
        for metric, _unit, better, bound in END_TO_END:
            a, b = values["A"][name][metric], values["B"][name][metric]
            row: Dict[str, Any] = {"bound": bound, "ok": False}
            if a and b:
                qa, qb = quartiles(a), quartiles(b)
                row.update(
                    median_a=qa[1], median_b=qb[1],
                    spread_a=(qa[2] - qa[0]) / qa[1], spread_b=(qb[2] - qb[0]) / qb[1],
                    b_worse_by=worse_by(better, qa[1], qb[1]),
                )
                row["ok"] = row["b_worse_by"] <= bound and (
                    metric == "setup_s" or max(row["spread_a"], row["spread_b"]) <= bound)
            rows[metric] = row
        ok = failed[name] == 0 and all(r["ok"] for r in rows.values())
        doc["workloads"][name] = {"failed": failed[name], "ok": ok, "metrics": rows}
        doc["ok"] = doc["ok"] and ok
    return doc


def render_selfcheck(doc: Dict[str, Any]) -> str:
    lines = [f"== selfcheck: 2 sets x {doc['runs_per_set']} measurements per workload, "
             f"{doc['seconds']:g} s each"]
    for name, w in doc["workloads"].items():
        lines.append(f"{name}: failed operations {w['failed']}")
        for metric, r in w["metrics"].items():
            if "median_a" not in r:
                lines.append(f"  {metric:20s} no values  FAIL")
                continue
            lines.append(
                f"  {metric:20s} A {r['median_a']:>12.6g} B {r['median_b']:>12.6g}  "
                f"B worse by {r['b_worse_by']:+.3f}  spread A {r['spread_a']:.3f} "
                f"B {r['spread_b']:.3f}  bound {r['bound']:.2f}  {'ok' if r['ok'] else 'FAIL'}")
    lines.append("selfcheck " + ("passed" if doc["ok"] else "FAILED"))
    return "\n".join(lines)


def repin(names, seed, **kw) -> None:
    """Rewrite the pinned digests (guards are kept) from fresh runs that
    must agree with one another and satisfy the guards."""
    doc = json.loads(EXPECTED.read_text())
    doc["seed"] = None
    reps = measure(names, seed, **kw)
    for name in names:
        doc["workloads"].setdefault(name, {"guards": {}}).pop("digest", None)
        failures = check(name, seed, reps[name], doc)
        if any(failures):
            raise SystemExit(f"repin: {name}: {sorted({f for f in failures if f})}")
        doc["workloads"][name]["digest"] = portable(reps[name][0]["runs"][0]["digest"])
    doc["seed"] = seed
    EXPECTED.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"[repinned {len(names)} workloads at seed {seed} -> {EXPECTED}]")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default=None,
                        help="one workload (default: all six, interleaved)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="how long to measure each workload")
    parser.add_argument("--reps", type=int, default=5,
                        help="fresh processes per workload, sharing --seconds (at least %d)"
                        % MIN_REPS)
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0,
                        help="1: trace every second process and report per-layer metrics")
    parser.add_argument("--quick", action="store_true", help="tiny sizes (tests); not pinned")
    parser.add_argument("--selfcheck", action="store_true",
                        help="measure two sets and fail unless they agree within the bounds")
    parser.add_argument("--repin", action="store_true", help="rewrite expected.json")
    parser.add_argument("--out-dir", type=Path, default=HERE / "out",
                        help="spans of traced runs, selfcheck.json, children's temp files")
    args = parser.parse_args(argv)
    if args.reps < MIN_REPS:
        parser.error(f"--reps must be at least {MIN_REPS}")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program is not at {SRC / 'repro'}", file=sys.stderr)
        return 2

    names = [args.workload] if args.workload else list(WORKLOADS)
    out_dir = args.out_dir.resolve()
    kw = dict(quick=args.quick, trace=bool(args.trace), out_dir=out_dir,
              reps=args.reps, seconds=args.seconds)
    # Discarded warm-up: compiles the .pyc files so set-up time never does.
    warm = run_child(["--workload", names[0], "--import-only"], out_dir)
    if "error" in warm:
        print(f"error: warm-up import failed: {warm['error']}", file=sys.stderr)
        return 2

    if args.repin:
        repin(names, args.seed, **dict(kw, trace=False, seconds=0.0))
        return 0
    expected = None if args.quick else json.loads(EXPECTED.read_text())
    if args.selfcheck:
        doc = selfcheck(names, args.seed, expected, **dict(kw, trace=False))
        (out_dir / "selfcheck.json").write_text(json.dumps(doc, indent=2) + "\n")
        print(render_selfcheck(doc))
        return 0 if doc["ok"] else 1

    results = run_set(names, args.seed, expected, **kw)
    for name, result in results.items():
        print(render(name, args.quick, result))
    if args.workload:
        final = {k: results[args.workload][k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}/{metric}": m for name, r in results.items()
                        for metric, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
