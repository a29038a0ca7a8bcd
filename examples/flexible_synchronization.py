"""Flexible synchronization: every model from Table I via conditions.

Demonstrates the paper's condition-aware methodology three ways:

1. run the same training job under BSP / ASP / SSP / DSPS /
   drop-stragglers / PSSP and compare time, DPRs, staleness, accuracy;
2. mix models across shards (Figure 2: server 1 SSP, server 2 PSSP,
   server 3 drop-stragglers);
3. switch a server's model at runtime with SetcondPull — no restart.

Run:  python examples/flexible_synchronization.py
"""


from repro.bench.workloads import blobs_task, no_network_config
from repro.core import (
    ExecutionMode,
    ParameterServerSystem,
    SSPPull,
    asp,
    bsp,
    drop_stragglers,
    dsps,
    dynamic_pssp,
    pssp,
    ssp,
)
from repro.sim.runner import run_fluentps
from repro.sim.stragglers import HeterogeneousCompute
from repro.utils.tables import format_table

N_WORKERS = 12
ITERS = 250


def run(sync, task):
    """One job on 2 shards of the simulated cluster, without a network."""
    return run_fluentps(no_network_config(
        N_WORKERS, sync, ITERS, n_servers=2, task=task,
        compute_model=HeterogeneousCompute(N_WORKERS, spread=0.3), seed=4,
        eval_every=ITERS,
    ))


def main() -> None:
    models = [
        bsp(),
        asp(),
        ssp(3),
        dsps(s0=3),
        drop_stragglers(N_WORKERS, n_t=9),
        pssp(3, 0.3),
        dynamic_pssp(3, 0.8),
    ]
    rows = []
    for sync in models:
        task = blobs_task(N_WORKERS, n_train=2000, n_test=400, seed=7)
        r = run(sync, task)
        rows.append([
            sync.name, round(r.duration, 1), r.metrics.dprs,
            round(r.metrics.mean_staleness(), 2), r.metrics.max_staleness(),
            round(r.eval_by_iteration.final(), 3),
        ])
    print(format_table(
        ["model", "time_s", "dprs", "mean_stale", "max_stale", "accuracy"],
        rows, title="One job, seven synchronization models (Table I / III)",
    ))

    # -- per-shard mixed models (Figure 2) --------------------------------
    task = blobs_task(N_WORKERS, n_train=2000, n_test=400, seed=7)
    system = ParameterServerSystem(
        task.spec, task.init_params, N_WORKERS, 3,
        [ssp(3), pssp(3, 0.3), drop_stragglers(N_WORKERS, n_t=9)],
        ExecutionMode.LAZY, seed=3,
    )
    print("\nPer-shard deployment (Figure 2):")
    print(system.describe())

    # -- runtime model switch via SetcondPull ------------------------------
    print("\nSwitching server 0 from SSP(3) to SSP(8) at runtime "
          "(the paper's SetcondPull):")
    system.set_cond_pull(0, SSPPull(8))
    print(" ", system.servers[0].pull_con.describe())


if __name__ == "__main__":
    main()
