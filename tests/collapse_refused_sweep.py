"""Whole-sweep differential with the closed-form round collapse refused.

Every committed document is regenerated with
``FluentPSSimRunner._collapse_eligible`` patched to refuse, so every run
takes the per-event path, and compared with ``results/``:

- the paper documents must be byte-identical;
- the scale grid must be equal once each record's ``metrics`` drops the
  engine counters the collapse moves (:data:`ENGINE_METRICS`) and each
  row drops the matching columns (:data:`ENGINE_COLUMNS`), and every
  record must show that no round collapsed.

The collapse claims to be a change of representation only; tier-1 checks
that cell by cell, this checks it on every arm of every document.  Runs
inline (one job, no run cache) so the patch reaches every arm::

    PYTHONPATH=src python -m tests.collapse_refused_sweep --save-dir DIR
"""

import argparse
import json
import sys
from pathlib import Path

from repro.bench.__main__ import main as bench_main
from repro.sim.runner import FluentPSSimRunner

RESULTS = Path(__file__).resolve().parent.parent / "results"
GRID_GLOB = "topology_x_scale_grid-*.json"

#: Scale-grid record metrics that count the collapse's work.
ENGINE_METRICS = ("events", "rounds_collapsed", "round_events_saved", "pending_event_hwm")
#: The scale-grid row columns built from them.
ENGINE_COLUMNS = ("events", "rounds_collapsed", "round_events_saved", "pending_hwm")


def _refuse(self):
    return "refused"


def _without_engine_counters(doc: dict) -> dict:
    drop = [doc["headers"].index(h) for h in ENGINE_COLUMNS]
    out = dict(doc)
    out["rows"] = [[v for i, v in enumerate(row) if i not in drop] for row in doc["rows"]]
    out["records"] = [
        {**rec, "metrics": {k: v for k, v in rec["metrics"].items() if k not in ENGINE_METRICS}}
        for rec in doc["records"]
    ]
    return out


def compare(save_dir: Path) -> list:
    """Differences between ``save_dir`` and ``results/`` (empty: none)."""
    problems = []
    committed = sorted(p.name for p in RESULTS.glob("*.json"))
    produced = sorted(p.name for p in save_dir.glob("*.json"))
    if produced != committed:
        problems.append(f"document set differs: {sorted(set(produced) ^ set(committed))}")
    grids = {p.name for p in RESULTS.glob(GRID_GLOB)}
    for name in sorted(set(committed) & set(produced)):
        mine = (save_dir / name).read_bytes()
        ref = (RESULTS / name).read_bytes()
        if name not in grids:
            if mine != ref:
                problems.append(f"{name}: not byte-identical")
            continue
        mine_doc, ref_doc = json.loads(mine), json.loads(ref)
        collapsed = [
            rec["name"] for rec in mine_doc["records"] if rec["metrics"]["rounds_collapsed"]
        ]
        if collapsed:
            problems.append(f"{name}: rounds collapsed despite the refusal: {collapsed}")
        if _without_engine_counters(mine_doc) != _without_engine_counters(ref_doc):
            problems.append(f"{name}: differs beyond {', '.join(ENGINE_METRICS)}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--save-dir", required=True, type=Path)
    args = parser.parse_args(argv)
    FluentPSSimRunner._collapse_eligible = _refuse
    rc = bench_main(["--no-cache", "--jobs", "1", "--save-dir", str(args.save_dir)])
    if rc != 0:
        print(f"bench exited {rc}")
        return rc
    problems = compare(args.save_dir)
    for line in problems:
        print(line)
    print("collapse-refused sweep:", "FAILED" if problems else "identical")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
