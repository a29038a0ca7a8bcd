"""Pinned outcomes of the baseline runners on small training cells.

The baselines (PS-Lite, SpecSync, SSPtable) have no reference simulator,
so their real-gradient runs are pinned by digests: the final parameters,
every parameter vector worker 0's evaluations read
(:func:`tests.sim_helpers.fingerprint_evals`), the eval values, the loss
history, the finish times and the wire bytes.  ``baseline_pins.json`` was
written by the runners that stepped the math inline, push by push; the
replayed runs must reproduce it bit for bit.

Regenerate (only when a change is meant to move these numbers)::

    PYTHONPATH=src python -m tests.baseline_pins --write
"""

import argparse
import hashlib
import json
from pathlib import Path

from repro.baselines.pslite import PSLiteSimRunner
from repro.baselines.specsync import SpecSyncConfig, SpecSyncRunner
from repro.baselines.sspable import SSPTableConfig, SSPTableRunner
from repro.bench.workloads import blobs_task
from repro.core.filters import SignificanceFilter, TopKFilter
from repro.core.models import bsp, ssp
from repro.obs import NULL_OBS
from repro.sim.cluster import cpu_cluster
from repro.sim.runner import SimConfig
from repro.sim.stragglers import HeterogeneousCompute

from tests.sim_helpers import fingerprint_evals

PINS = Path(__file__).with_name("baseline_pins.json")


def _sim(n=5, servers=2, iters=10, sync=None, **extra):
    return dict(
        cluster=cpu_cluster(n, n_servers=servers), max_iter=iters, sync=sync or ssp(2),
        task=blobs_task(n, n_train=200, n_test=60, seed=3), base_compute_time=0.4,
        compute_model=HeterogeneousCompute(n, spread=0.5), eval_every=3, seed=6,
        obs=NULL_OBS, **extra,
    )


#: cell id -> a factory of ``(runner, task)``: a task is stateful, one per run.
CELLS = {
    "ssptable-raw": lambda: SSPTableRunner(SSPTableConfig(sim=SimConfig(**_sim()), staleness=2)),
    "ssptable-averaged": lambda: SSPTableRunner(
        SSPTableConfig(sim=SimConfig(**_sim()), staleness=1, raw_additive=False)
    ),
    "ssptable-topk": lambda: SSPTableRunner(SSPTableConfig(
        sim=SimConfig(**_sim(push_filter_factory=lambda: TopKFilter(0.2))), staleness=2,
    )),
    "specsync-aborts": lambda: SpecSyncRunner(
        SpecSyncConfig(sim=SimConfig(**_sim(n=6)), abort_threshold=2)
    ),
    "specsync-significance": lambda: SpecSyncRunner(SpecSyncConfig(
        sim=SimConfig(**_sim(n=6, push_filter_factory=lambda: SignificanceFilter(0.05))),
        abort_threshold=3,
    )),
    "pslite-bsp": lambda: PSLiteSimRunner(SimConfig(**_sim(sync=bsp()))),
    "pslite-ssp-topk": lambda: PSLiteSimRunner(
        SimConfig(**_sim(push_filter_factory=lambda: TopKFilter(0.3)))
    ),
}


def _sha(array) -> str:
    return hashlib.sha256(array.tobytes()).hexdigest()


def run_cell(name):
    """Run cell ``name``; returns ``(runner, its pinned outcome)``."""
    runner = CELLS[name]()
    task = runner.cfg.task
    read = fingerprint_evals(task)
    result = runner.run()
    outcome = {
        "final_params": _sha(result.final_params),
        "eval_reads": read,
        "evals": [list(result.eval_by_time.x), list(result.eval_by_iteration.x),
                  list(result.eval_by_time.y)],
        "loss_history": hashlib.sha256(json.dumps(task.loss_history).encode()).hexdigest(),
        "finish_times": list(result.worker_finish_times),
        "bytes_on_wire": result.bytes_on_wire,
        "aborts": getattr(runner, "aborts", None),
    }
    return runner, outcome


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help=f"rewrite {PINS.name}")
    args = parser.parse_args()
    pins = {name: run_cell(name)[1] for name in CELLS}
    if args.write:
        PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    else:
        stored = json.loads(PINS.read_text())
        for name, outcome in pins.items():
            print(name, "ok" if stored.get(name) == outcome else "DIFFERS")


if __name__ == "__main__":
    main()
