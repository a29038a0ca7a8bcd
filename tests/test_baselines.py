"""Tests for the PS-Lite and SSPtable baseline systems."""

import numpy as np
import pytest

from repro.baselines.pslite import PSLiteSimRunner, run_pslite
from repro.baselines.sspable import (
    SSPTableConfig,
    SSPTableRunner,
    _TableServer,
    run_ssptable,
)
from repro.bench.workloads import blobs_task
from repro.core.keyspace import ElasticSlicer
from repro.core.models import asp, bsp, ssp
from repro.ml.models_zoo import alexnet_cifar_workload
from repro.sim.cluster import cpu_cluster, gpu_cluster_p2
from repro.sim.runner import SimConfig, run_fluentps
from repro.sim.stragglers import DeterministicCompute, ExponentialTailCompute


def pslite_config(n=4, servers=4, iters=8, sync=None, **kw):
    return SimConfig(
        cluster=gpu_cluster_p2(n, servers),
        max_iter=iters,
        sync=sync or bsp(),
        workload=alexnet_cifar_workload(),
        batch_per_worker=64,
        compute_model=kw.pop("compute_model", DeterministicCompute()),
        seed=kw.pop("seed", 0),
        **kw,
    )


class TestPSLite:
    def test_completes(self):
        r = run_pslite(pslite_config())
        assert r.iterations == 8
        assert r.duration > 0

    def test_default_slicing_is_range_key(self):
        runner = PSLiteSimRunner(pslite_config())
        loads = runner.layout.assignment.bytes_per_server()
        # Sequential keys in a uint32 space all land on server 0.
        assert loads[0] == alexnet_cifar_workload().spec.total_bytes

    def test_slower_than_fluentps_overlap(self):
        common = dict(n=8, servers=4, iters=10,
                      compute_model=ExponentialTailCompute(0.1, 2.0))
        r_ps = run_pslite(pslite_config(**common))
        r_fl = run_fluentps(pslite_config(slicer=ElasticSlicer(), **common))
        assert r_ps.duration > r_fl.duration

    def test_bounded_delay_and_asp_supported(self):
        for sync in (ssp(2), asp()):
            r = run_pslite(pslite_config(sync=sync,
                                         compute_model=ExponentialTailCompute(0.2, 2.0)))
            assert r.iterations == 8

    def test_per_server_models_rejected(self):
        cfg = pslite_config(sync=bsp())
        cfg = SimConfig(**{**cfg.__dict__, "sync": [bsp(), bsp(), bsp(), bsp()]})
        with pytest.raises(ValueError, match="one global model"):
            PSLiteSimRunner(cfg)

    def test_training_through_pslite(self):
        n = 4
        task = blobs_task(n, n_train=300, n_test=100, seed=5)
        cfg = SimConfig(
            cluster=cpu_cluster(n, 1), max_iter=80, sync=bsp(), task=task,
            seed=1, base_compute_time=0.5, eval_every=40,
        )
        r = run_pslite(cfg)
        assert r.eval_by_iteration.final() > 0.5

    def test_bsp_pull_waits_for_global_barrier(self):
        """Under BSP the grant cannot be issued before every worker
        reported the iteration: blocked spans must exist when compute
        times vary."""
        cfg = pslite_config(n=4, iters=6, span_capture=True,
                            compute_model=ExponentialTailCompute(0.4, 3.0))
        r = run_pslite(cfg)
        from repro.sim.trace import SpanKind

        assert r.trace.total_by_kind(SpanKind.BLOCKED) > 0


class TestTableServer:
    def test_min_clock_blocking(self):
        srv = _TableServer(0, n_workers=2, params=None, raw_additive=True)
        got = []
        srv.handle_read(0, require=1, respond=got.append)
        assert got == []
        srv.handle_update(0, clock=1, shard=None, on_clock_advance=lambda c: None)
        assert got == []  # min clock still 0 (worker 1)
        srv.handle_update(1, clock=1, shard=None, on_clock_advance=lambda c: None)
        assert got == [1]

    def test_immediate_read_when_fresh(self):
        srv = _TableServer(0, n_workers=1, params=None, raw_additive=True)
        got = []
        srv.handle_read(0, require=0, respond=got.append)
        assert got == [0]

    def test_raw_additive_vs_averaged(self):
        raw = _TableServer(0, 2, np.zeros(2), raw_additive=True)
        avg = _TableServer(0, 2, np.zeros(2), raw_additive=False)
        for srv in (raw, avg):
            srv.handle_update(0, 1, np.ones(2), lambda c: None)
        np.testing.assert_allclose(raw.params, 1.0)
        np.testing.assert_allclose(avg.params, 0.5)

    def test_clock_advance_callback(self):
        srv = _TableServer(0, 2, None, True)
        advances = []
        srv.handle_update(0, 1, None, advances.append)
        srv.handle_update(1, 1, None, advances.append)
        assert advances == [1]


class TestSSPTableRunner:
    def _cfg(self, n, iters=60, seed=1):
        task = blobs_task(n, n_train=300, n_test=100, seed=5)
        return SSPTableConfig(
            sim=SimConfig(
                cluster=cpu_cluster(n, 1), max_iter=iters, sync=ssp(3),
                task=task, seed=seed, base_compute_time=0.5,
            ),
            staleness=3,
        )

    def test_completes_and_trains(self):
        r = run_ssptable(self._cfg(2))
        assert r.final_params is not None
        assert np.isfinite(r.final_params).all()

    def test_invalidations_scale_with_workers(self):
        r2 = SSPTableRunner(self._cfg(2))
        r2.run()
        r6 = SSPTableRunner(self._cfg(6))
        r6.run()
        assert r6.invalidations_sent > r2.invalidations_sent

    def test_accuracy_degrades_with_scale(self):
        """The Figure 1/7 mechanism: raw-additive updates tuned for small
        N diverge as N grows."""
        task_eval = blobs_task(2, n_train=300, n_test=100, seed=5)
        small = run_ssptable(self._cfg(2, iters=100))
        big = run_ssptable(self._cfg(12, iters=100))
        acc_small = task_eval.eval_fn(small.final_params)
        acc_big = task_eval.eval_fn(big.final_params)
        assert acc_small > acc_big

    def test_reads_are_rare_relative_to_iterations(self):
        """SSPtable refreshes roughly every s iterations, not every one."""
        r = run_ssptable(self._cfg(4, iters=80))
        reads = r.metrics.pulls
        assert reads < 80 * 4  # strictly fewer reads than iterations x workers

    def test_invalid_staleness(self):
        cfg = self._cfg(2)
        with pytest.raises(ValueError):
            SSPTableConfig(sim=cfg.sim, staleness=-1)
