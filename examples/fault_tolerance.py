"""Fault tolerance and elasticity: checkpoint, failure, resize, resume.

Story: a training job runs on 4 servers; we checkpoint it, lose two
servers (simulated failure), restore the checkpoint on the survivors
after an EPS resize, and training continues from exactly where it left
off — the scheduler's liveness/rebalance role from paper §III-A plus the
FlexPS-style stage boundary.  Every stage runs on the simulated cluster
without a network (``no_network_config``), handed the system to continue.

Run:  python examples/fault_tolerance.py
"""

import numpy as np

from repro.bench.workloads import blobs_task, no_network_config
from repro.core import ExecutionMode, ParameterServerSystem, ssp
from repro.sim.runner import run_fluentps

N_WORKERS = 8


def train(system, task, iters, seed):
    """Continue training on ``system`` for ``iters`` more iterations."""
    cfg = no_network_config(
        N_WORKERS, ssp(2), iters, n_servers=system.n_servers, task=task, seed=seed
    )
    return run_fluentps(cfg, system)


def main() -> None:
    task = blobs_task(N_WORKERS, n_train=2000, n_test=400, seed=0)
    system = ParameterServerSystem(
        task.spec, task.init_params, N_WORKERS, n_servers=4,
        sync_model=ssp(2), execution=ExecutionMode.LAZY, seed=1,
    )

    # Stage 1: train 200 iterations on 4 servers and checkpoint.
    r1 = train(system, task, 200, seed=2)
    state = system.checkpoint()
    acc1 = task.eval_fn(system.current_params())
    print(f"stage 1 (4 servers): {r1.iterations} iterations, acc={acc1:.3f}; "
          f"checkpoint taken at frontier {state['shards'][0]['v_train']}")

    # Disaster: two servers die.  Restore the checkpoint exactly on a new
    # 4-server system (exact-state recovery) and keep training there: the
    # workers resume at iteration 200, where the checkpoint left them.
    recovered = ParameterServerSystem(
        task.spec, task.init_params, N_WORKERS, n_servers=4,
        sync_model=ssp(2), execution=ExecutionMode.LAZY, seed=1,
    )
    recovered.restore(state)
    assert np.allclose(recovered.current_params(), system.current_params())
    train(recovered, task, 50, seed=3)
    progress = recovered.servers[0].worker_progress
    assert progress == [249] * N_WORKERS, progress
    print("recovery: restored checkpoint onto a fresh 4-server system "
          f"(params identical: True), resumed to iteration {progress[0]}")

    # ... or shrink to the 2 survivors at a stage boundary (EPS rebalance).
    moved = system.resize(2)
    print(f"elastic shrink 4 -> 2 servers: EPS moved {moved} bytes, "
          f"imbalance {system.scheduler.assignment.imbalance():.3f}")

    # Stage 2: continue training on 2 servers.
    r2 = train(system, task, 200, seed=3)
    acc2 = task.eval_fn(system.current_params())
    print(f"stage 2 (2 servers): {r2.iterations} more iterations, acc={acc2:.3f}")
    print(f"total pushes across both stages: {system.merged_metrics().pushes}")


if __name__ == "__main__":
    main()
