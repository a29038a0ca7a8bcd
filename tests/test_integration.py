"""Cross-module integration tests: full pipelines at small scale."""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.baselines.pslite import run_pslite
from repro.baselines.sspable import SSPTableConfig, run_ssptable
from repro.bench.workloads import blobs_task, no_network_config
from repro.core import ExecutionMode, ParameterServerSystem, pssp, ssp
from repro.parallel import ThreadedRunner
from repro.sim.cluster import cpu_cluster
from repro.sim.runner import SimConfig, run_fluentps
from repro.sim.stragglers import HeterogeneousCompute

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


class TestThreeRunnersAgree:
    """The co-simulation without and with a network, and the thread
    runner, drive the SAME server code; their synchronization accounting
    must be structurally consistent on the same workload."""

    def _task(self, n):
        return blobs_task(n, n_train=400, n_test=100, seed=11)

    def test_push_pull_counts_match_protocol(self):
        n, servers, iters = 4, 2, 50
        r_free = run_fluentps(no_network_config(
            n, ssp(2), iters, n_servers=servers, task=self._task(n),
            compute_model=HeterogeneousCompute(n, spread=0.3), seed=1,
        ))
        assert r_free.metrics.pushes == n * servers * iters
        assert r_free.metrics.immediate_pulls + r_free.metrics.dprs == r_free.metrics.pulls

        task2 = self._task(n)
        r_sim = run_fluentps(SimConfig(
            cluster=cpu_cluster(n, servers), max_iter=iters, sync=ssp(2),
            task=task2, seed=0, base_compute_time=0.4,
        ))
        assert r_sim.metrics.pushes == n * servers * iters

        task3 = self._task(n)
        system3 = ParameterServerSystem(
            task3.spec, task3.init_params, n, servers, ssp(2), ExecutionMode.LAZY, seed=0
        )
        r_thr = ThreadedRunner(system3, task3.step_fn, max_iter=iters, seed=1).run()
        assert r_thr.ok
        assert r_thr.metrics.pushes == n * servers * iters

    def test_all_runners_learn(self):
        n = 4
        accs = []
        for runner in ("no-network", "sim", "threads"):
            task = self._task(n)
            if runner == "no-network":
                r = run_fluentps(no_network_config(
                    n, pssp(2, 0.5), 150, n_servers=2, task=task, seed=1,
                ))
                final = r.final_params
            elif runner == "sim":
                r = run_fluentps(SimConfig(
                    cluster=cpu_cluster(n, 2), max_iter=150, sync=pssp(2, 0.5),
                    task=task, seed=0, base_compute_time=0.4,
                ))
                final = r.final_params
            else:
                system = ParameterServerSystem(
                    task.spec, task.init_params, n, 2, pssp(2, 0.5),
                    ExecutionMode.LAZY, seed=0,
                )
                res = ThreadedRunner(system, task.step_fn, max_iter=150, seed=1).run()
                assert res.ok
                final = res.final_params
            accs.append(self._task(n).eval_fn(final))
        # Every execution substrate trains the model well above chance.
        assert min(accs) > 0.45, accs


class TestSystemsComparison:
    def test_fluentps_vs_baselines_end_to_end(self):
        n, iters = 4, 150
        def cfg():
            return SimConfig(
                cluster=cpu_cluster(n, 1), max_iter=iters, sync=ssp(3),
                task=blobs_task(n, n_train=600, n_test=150, seed=4),
                seed=2, base_compute_time=0.4,
            )
        r_fl = run_fluentps(cfg())
        r_ps = run_pslite(cfg())
        r_tb = run_ssptable(SSPTableConfig(sim=cfg(), staleness=3))
        evaluator = blobs_task(n, n_train=600, n_test=150, seed=4)
        accs = {
            "fluentps": evaluator.eval_fn(r_fl.final_params),
            "pslite": evaluator.eval_fn(r_ps.final_params),
            "ssptable": evaluator.eval_fn(r_tb.final_params),
        }
        # At this tiny scale all three should learn; FluentPS is not worse.
        assert accs["fluentps"] > 0.5
        assert accs["fluentps"] >= accs["ssptable"] - 0.1


@pytest.mark.parametrize(
    "script",
    ["quickstart.py", "elastic_slicing.py", "threaded_training.py",
     "fault_tolerance.py"],
)
def test_examples_run(script):
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / script)],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip()
