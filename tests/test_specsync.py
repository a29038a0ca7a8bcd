"""Tests for the SpecSync baseline."""

import numpy as np
import pytest

from repro.baselines.specsync import SpecSyncConfig, SpecSyncRunner
from repro.bench.workloads import blobs_task
from repro.core.models import asp
from repro.sim.cluster import cpu_cluster
from repro.sim.runner import SimConfig
from repro.sim.stragglers import DeterministicCompute, HeterogeneousCompute


def make_config(n=4, iters=40, threshold=3, sync=None, compute=None, task=True,
                slices=4, seed=0):
    sim = SimConfig(
        cluster=cpu_cluster(n, 1),
        max_iter=iters,
        sync=sync or asp(),
        task=blobs_task(n, n_train=200, n_test=60, seed=seed) if task else None,
        workload=None if task else __import__(
            "repro.ml.models_zoo", fromlist=["alexnet_cifar_workload"]
        ).alexnet_cifar_workload(),
        seed=seed + 1,
        base_compute_time=0.4,
        compute_model=compute or HeterogeneousCompute(n, spread=0.4),
    )
    return SpecSyncConfig(sim=sim, abort_threshold=threshold, abort_check_slices=slices)


class TestConfig:
    def test_validation(self):
        cfg = make_config()
        # Zero, and what ran unrefused: NaN, a fraction, ``True`` as 1.
        for field in ("abort_threshold", "abort_check_slices"):
            for value in (0, float("nan"), 2.5, True):
                with pytest.raises(ValueError, match=field):
                    SpecSyncConfig(sim=cfg.sim, **{field: value})

    def test_model_list_rejected(self):
        cfg = make_config()
        sim = cfg.sim
        object.__setattr__(sim, "sync", None)  # dataclass not frozen; set directly
        sim.sync = [asp()]
        with pytest.raises(ValueError, match="one global model"):
            SpecSyncRunner(SpecSyncConfig(sim=sim))


class TestExecution:
    def test_completes_and_trains(self):
        r = SpecSyncRunner(make_config()).run()
        assert r.iterations == 40
        assert np.isfinite(r.final_params).all()

    def test_aborts_occur_under_heterogeneity(self):
        runner = SpecSyncRunner(make_config(n=6, iters=60, threshold=3))
        runner.run()
        assert runner.aborts > 0
        assert runner.wasted_compute > 0

    def test_high_threshold_means_no_aborts(self):
        runner = SpecSyncRunner(make_config(n=4, iters=30, threshold=10**6))
        r = runner.run()
        assert runner.aborts == 0
        assert r.iterations == 30

    def test_deterministic_compute_few_aborts(self):
        # With lockstep workers, freshness accumulates evenly; a threshold
        # above N-1 never trips between a worker's own pulls.
        runner = SpecSyncRunner(
            make_config(n=4, iters=30, threshold=4, compute=DeterministicCompute())
        )
        runner.run()
        assert runner.aborts == 0

    def test_aborts_slow_the_run_down(self):
        fast = SpecSyncRunner(make_config(n=6, iters=50, threshold=10**6, seed=3)).run()
        churn = SpecSyncRunner(make_config(n=6, iters=50, threshold=2, seed=3)).run()
        assert churn.duration > fast.duration

    def test_timing_only_mode(self):
        r = SpecSyncRunner(make_config(task=False, n=4, iters=20)).run()
        assert r.final_params is None
        assert r.duration > 0
