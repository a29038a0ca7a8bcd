"""The six benchmark workloads: names, sizes, reasons, and config builders.

Importing this module imports nothing from ``repro`` — ``run.py`` reads the
names and sizes without the program on its path; only :func:`build` (called
from ``worker.py``) touches the public API.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple


@dataclass(frozen=True)
class Workload:
    """One fixed job.  ``full``/``quick`` are ``(n_workers, max_iter)``."""

    name: str
    why: str
    full: Tuple[int, int]
    quick: Tuple[int, int]
    n_servers: int = 8
    #: run with observability on and sanitize the capture afterwards
    checked: bool = False

    def size(self, quick: bool) -> Tuple[int, int]:
        return self.quick if quick else self.full


# Sizes are tuned to the driver's budget: BENCHMARK.json's 136 invocations
# share a 3420 s cap, so one invocation has ~20 s for five fresh processes
# that each set up once and repeat the timed run; a run of 0.5-1.5 s gives a
# workload 8-25 timed samples per invocation on the 2-core reference box.
# ``ssp_straggler_4500`` is the exception: the calendar queue engages above
# 32768 pending events and 4500 workers reach ~43000 (two calendar sweeps),
# so its run takes ~3.6 s and each of its processes fits exactly one.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "ssp_isolated_5k",
            "5000 workers x 12 iters, SSP(3), compute >> comm: every round is isolated, "
            "so the closed-form round collapse does all the work and the engine none",
            full=(5000, 12),
            quick=(300, 4),
        ),
        Workload(
            "ssp_straggler_4500",
            "4500 workers x 4 iters, SSP(3), heterogeneous stragglers: comm-bound overlapping "
            "rounds on the event path, calendar queue and immediate-reply server path",
            full=(4500, 4),
            quick=(96, 3),
        ),
        Workload(
            "pssp_softbarrier_400",
            "400 workers x 18 iters, PSSP(s=1,c=0.3), soft barrier: coin flips, DPR buffering "
            "and re-checks on the heap-only engine (paper Fig 8/9 regime)",
            full=(400, 18),
            quick=(48, 8),
        ),
        Workload(
            "bsp_800",
            "800 workers x 8 iters, BSP: every pull is buffered and released in frontier "
            "bursts, the server's buffered path (opposite of ssp_straggler_4500)",
            full=(800, 8),
            quick=(64, 4),
        ),
        Workload(
            "cosim_task_32w",
            "32 workers x 20 iters, real-gradient CIFAR-proxy MLP under PSSP(3,0.5) plus final "
            "eval: ml and the server's real-parameter path dominate, the engine is idle",
            full=(32, 20),
            quick=(8, 6),
            n_servers=4,
        ),
        Workload(
            "checked_isolated_800",
            "800 workers x 4 iters of the isolated regime with observability on, then the "
            "protocol sanitizer: the run a user trusts; obs and analysis.sanitizer dominate",
            full=(800, 4),
            quick=(120, 3),
            checked=True,
        ),
    )
}

#: In-memory cap of the instant log for every child (``repro.obs.export``
#: reads it from the environment).  The default 200k would never spill at
#: benchmark size; 32k spills 64k of ``checked_isolated_800``'s 77k
#: instants, the 5/6 share a 5000-worker checked run spills by default.
INSTANT_SPILL_CAP = 32_000


@dataclass
class Built:
    """A constructed job: the config, and what the timed section also does."""

    config: Any
    obs: Optional[Any] = None  # sanitize after the run when set
    task: Optional[Any] = None  # evaluate final params after the run when set


def import_program() -> None:
    """Import everything :func:`build` and the timed section will touch."""
    import repro.analysis.sanitizer  # noqa: F401
    import repro.bench.workloads  # noqa: F401
    import repro.sim.runner  # noqa: F401


def build(name: str, seed: int, quick: bool = False, observed: bool = True) -> Built:
    """Build ``name``'s :class:`~repro.sim.runner.SimConfig` from ``seed``.

    ``observed=False`` builds ``checked_isolated_800`` without observability:
    the identical raw run the trace phase subtracts to get ``obs.overhead_s``.
    """
    from repro.bench.workloads import cifar_proxy_task
    from repro.core.models import bsp, pssp, ssp
    from repro.core.server import ExecutionMode
    from repro.ml.models_zoo import alexnet_cifar_workload
    from repro.obs import MetricsRegistry, Observability
    from repro.sim.cluster import cpu_cluster
    from repro.sim.runner import SimConfig
    from repro.sim.stragglers import LogNormalCompute, cpu_cluster_compute

    w = WORKLOADS[name]
    n, iters = w.size(quick)
    common = dict(
        cluster=cpu_cluster(n, n_servers=w.n_servers),
        max_iter=iters,
        workload=alexnet_cifar_workload(),
        seed=seed,
    )
    # compute >> comm: a round's last reply lands long before the next
    # round's first send, which is what keeps every round collapsible.
    isolated = dict(
        sync=ssp(3), compute_model=LogNormalCompute(sigma=0.01), base_compute_time=1e5
    )
    if name == "ssp_isolated_5k":
        return Built(SimConfig(**common, **isolated))
    if name == "ssp_straggler_4500":
        return Built(SimConfig(**common, sync=ssp(3), compute_model=cpu_cluster_compute(n)))
    if name == "pssp_softbarrier_400":
        return Built(
            SimConfig(
                **common,
                sync=pssp(1, 0.3),
                execution=ExecutionMode.SOFT_BARRIER,
                compute_model=cpu_cluster_compute(n),
            )
        )
    if name == "bsp_800":
        return Built(SimConfig(**common, sync=bsp(), compute_model=cpu_cluster_compute(n)))
    if name == "cosim_task_32w":
        task = cifar_proxy_task(n, seed=seed)
        config = SimConfig(
            **common, sync=pssp(3, 0.5), task=task, compute_model=cpu_cluster_compute(n)
        )
        return Built(config, task=task)
    if name == "checked_isolated_800":
        if not observed:
            return Built(SimConfig(**common, **isolated))
        obs = Observability(MetricsRegistry("e2e"), causal=False)
        return Built(SimConfig(**common, **isolated, obs=obs, span_capture=False), obs=obs)
    raise KeyError(name)
