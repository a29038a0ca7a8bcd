"""Which functions under ``src/`` does any run of the program call?

A census under cProfile.  Each surface runs in a process of its own,
profiled to a file in a temporary directory by :func:`child`, which gives
every ``threading.Thread`` its own profile and merges them with the main
thread's:

- ``sweep``: the QUICK sweep, ``python -m repro.bench --scale quick
  --jobs 1 --no-cache`` (every experiment; ~5 min on two cores);
- ``examples``: every script under ``examples/``;
- ``e2e``: the six ``benchmarks/e2e`` workloads at quick size, one run each
  (``benchmarks/e2e/worker.py --quick``);
- ``smoke``: ``python -m repro.analysis --smoke``;
- ``ci``: the commands CI runs besides those and the tests:
  ``repro.analysis --lint src``, ``--explore --explore-budget 150
  --explore-target 100`` and ``--race --race-iters 30``, a fig5
  ``--trace-out`` run and ``--check-trace`` of its trace, a fig7
  ``--trace-out`` run and ``python -m repro.obs --blame`` of its trace,
  the scale grid at ``--no-cache --sanitize --jobs 1`` and
  ``python -m repro.bench.perf --quick``.

It then lists every ``def`` under ``src/`` (functions, methods, nested
functions) whose code none of those processes ran, by file, with the
line count of each, and the totals.

    python3 benchmarks/census.py                        # all five surfaces
    python3 benchmarks/census.py --only examples smoke  # a subset
    python3 benchmarks/census.py --json census.json     # also write the list

A function a test calls and no run does is listed: test callers do not
count.  Blind spots, where a listed function may in fact run:

- threads that override ``Thread.run`` instead of passing a ``target``
  (none under ``src/`` does), or that are still running when the process
  exits, are not counted;
- pool workers: a sweep with ``--jobs`` > 1 runs arms in worker processes
  nobody profiles, which is why the sweep here runs inline;
- the CLIs and modes it does not drive: ``repro.analysis --replay``,
  ``repro.bench --scale paper``, ``repro.bench.perf``'s ``--baseline``
  gate (its verdict depends on the box) and the ``repro.obs`` command
  line besides ``--blame``;
- paths that run only when a check fails: violations, the explorer's
  counterexample minimization and its saved trace;
- code outside a ``def`` (module bodies, class bodies, lambdas and
  comprehensions) is not counted either way.
"""

from __future__ import annotations

import argparse
import ast
import cProfile
import json
import os
import pstats
import runpy
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from typing import Dict, List, Sequence, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
E2E_WORKLOADS = (
    "ssp_isolated_5k", "ssp_straggler_4500", "pssp_softbarrier_400",
    "bsp_800", "cosim_task_32w", "checked_isolated_800",
)
SURFACES = ("sweep", "examples", "e2e", "smoke", "ci")

#: A ``def`` as ``(file, first line, name)``: cProfile's key for its code.
Key = Tuple[str, int, str]


#: How :func:`profile` starts :func:`child` in a fresh interpreter:
#: ``python -c CHILD census.py OUT ARGV...``.
CHILD = "import runpy, sys; runpy.run_path(sys.argv[1])['child'](sys.argv[2], sys.argv[3:])"


def commands(surface: str, scratch: Path) -> List[Tuple[str, List[str]]]:
    """``(label, argv)`` per process: a script and its arguments, or
    ``-m module`` and its arguments."""
    if surface == "sweep":
        return [("sweep", ["-m", "repro.bench", "--scale", "quick", "--jobs", "1",
                           "--no-cache", "--save-dir", str(scratch / "sweep")])]
    if surface == "examples":
        return [(f"example:{p.stem}", [str(p)]) for p in sorted((ROOT / "examples").glob("*.py"))]
    if surface == "e2e":
        worker = str(ROOT / "benchmarks" / "e2e" / "worker.py")
        return [(f"e2e:{w}", [worker, "--workload", w, "--quick"]) for w in E2E_WORKLOADS]
    if surface == "smoke":
        return [("smoke", ["-m", "repro.analysis", "--smoke"])]
    if surface == "ci":
        quick = ["-m", "repro.bench", "--scale", "quick", "--only"]
        return [
            ("ci:lint", ["-m", "repro.analysis", "--lint", str(SRC)]),
            ("ci:explore", ["-m", "repro.analysis", "--explore", "--explore-budget", "150",
                            "--explore-target", "100"]),
            ("ci:race", ["-m", "repro.analysis", "--race", "--race-iters", "30"]),
            ("ci:trace-fig5", [*quick, "fig5", "--trace-out", str(scratch / "fig5.trace.json"),
                               "--save-dir", str(scratch / "fig5")]),
            ("ci:check-trace", ["-m", "repro.analysis", "--check-trace",
                                str(scratch / "fig5.trace.json")]),
            ("ci:trace-fig7", [*quick, "fig7", "--trace-out", str(scratch / "fig7.trace.json"),
                               "--save-dir", str(scratch / "fig7")]),
            ("ci:blame", ["-m", "repro.obs", "--blame", str(scratch / "fig7.trace.json")]),
            ("ci:scale-grid", ["-m", "repro.bench", "--only", "scale-grid", "--no-cache",
                               "--sanitize", "--jobs", "1", "--save-dir",
                               str(scratch / "grid")]),
            ("ci:perf", ["-m", "repro.bench.perf", "--quick", "--out",
                         str(scratch / "BENCH_perf.json")]),
        ]
    raise ValueError(f"unknown surface {surface!r}")


def child(out: str, argv: List[str]) -> None:
    """Run ``argv`` as ``__main__`` (like ``python -m cProfile -o out``),
    profiling each thread that finishes on a ``cProfile.Profile`` of its
    own, and write the merged profile to ``out``."""
    done: List[cProfile.Profile] = []
    lock = threading.Lock()
    run = threading.Thread.run

    def profiled_run(self) -> None:
        prof = cProfile.Profile()
        try:
            prof.enable()
        except ValueError:  # Python 3.12+: the main profile sees every thread
            return run(self)
        try:
            run(self)
        finally:
            prof.disable()
            with lock:
                done.append(prof)

    threading.Thread.run = profiled_run
    sys.argv[:] = argv[1:] if argv[0] == "-m" else argv
    main = cProfile.Profile()
    main.enable()
    try:
        if argv[0] == "-m":
            runpy.run_module(argv[1], run_name="__main__", alter_sys=True)
        else:
            sys.path.insert(0, os.path.dirname(argv[0]))
            runpy.run_path(argv[0], run_name="__main__")
    except SystemExit as exc:
        if exc.code not in (None, 0):
            raise
    finally:
        main.disable()
    stats = pstats.Stats(main)
    with lock:
        for prof in done:
            stats.add(prof)
    stats.dump_stats(out)


def profile(surfaces: Sequence[str], scratch: Path) -> Set[Tuple[str, int, str]]:
    """Run every surface's processes under :func:`child`; the union of the
    ``(file, first line, name)`` of every function they called."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    called: Set[Tuple[str, int, str]] = set()
    for surface in surfaces:
        for i, (label, argv) in enumerate(commands(surface, scratch)):
            out = scratch / f"{surface}-{i}.prof"
            print(f"census: {label}", file=sys.stderr, flush=True)
            subprocess.run([sys.executable, "-c", CHILD, __file__, str(out), *argv],
                           cwd=scratch, env=env, check=True, stdout=subprocess.DEVNULL)
            called.update(pstats.Stats(str(out)).stats)
    return called


def definitions() -> Dict[Key, Tuple[str, int]]:
    """Every ``def`` under ``src/``: key -> (qualified name, lines)."""
    found: Dict[Key, Tuple[str, int]] = {}
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    # A decorated function's code starts at its first decorator.
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    qual = prefix + child.name
                    found[(str(path), first, child.name)] = (
                        qual, child.end_lineno - child.lineno + 1)
                    visit(child, qual + ".")
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")
                else:
                    visit(child, prefix)

        visit(tree, "")
    return found


def census(surfaces: Sequence[str]) -> Dict[str, object]:
    with tempfile.TemporaryDirectory(prefix="census-") as tmp:
        called = profile(surfaces, Path(tmp))
    called = {(str(Path(f).resolve()), line, name) for f, line, name in called}
    defs = definitions()
    never: Dict[str, List[List[object]]] = {}
    for (path, line, _name), (qual, lines) in sorted(defs.items()):
        if (path, line, _name) not in called:
            rel = str(Path(path).relative_to(ROOT))
            never.setdefault(rel, []).append([qual, line, lines])
    n_never = sum(len(v) for v in never.values())
    return {
        "surfaces": list(surfaces),
        "functions": len(defs),
        "never_called": n_never,
        "never_called_lines": sum(row[2] for v in never.values() for row in v),
        "by_file": never,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--only", nargs="+", choices=SURFACES, default=list(SURFACES),
                        help="surfaces to run (default: all)")
    parser.add_argument("--json", type=Path, default=None, help="also write the list here")
    args = parser.parse_args(argv)
    doc = census(args.only)
    for path, rows in doc["by_file"].items():
        print(path)
        for qual, line, lines in rows:
            print(f"    {line:5d}  {qual}  ({lines} lines)")
    print(f"{doc['never_called']} of {doc['functions']} functions under src/ never called "
          f"({doc['never_called_lines']} lines) by: {' '.join(doc['surfaces'])}")
    if args.json is not None:
        args.json.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
