"""Tests for the discrete-event co-simulation runner."""

from dataclasses import replace

import numpy as np
import pytest

from repro.analysis import sanitize_observability
from repro.bench.workloads import blobs_task
from repro.core.filters import NoFilter
from repro.core.models import asp, bsp, drop_stragglers, pssp, ssp
from repro.core.server import ExecutionMode, ShardServer
from repro.ml.models_zoo import alexnet_cifar_workload
from repro.sim.cluster import ClusterSpec, cpu_cluster, gpu_cluster_p2
from repro.sim.engine import Engine
from repro.sim.network import Network
from repro.obs import NULL_OBS, MetricsRegistry, Observability
from repro.sim.runner import FluentPSSimRunner, SimConfig, run_fluentps
from repro.sim.stragglers import (
    DeterministicCompute,
    ExponentialTailCompute,
    HeterogeneousCompute,
    TransientStragglerCompute,
    cpu_cluster_compute,
)


def timing_config(n=4, servers=2, iters=10, sync=None, **kw):
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


class TestConfig:
    def test_requires_task_or_workload(self):
        with pytest.raises(ValueError):
            SimConfig(cluster=gpu_cluster_p2(2), max_iter=5, sync=bsp())

    def test_task_worker_mismatch(self):
        task = blobs_task(4, n_train=100, n_test=50)
        with pytest.raises(ValueError):
            SimConfig(cluster=gpu_cluster_p2(2), max_iter=5, sync=bsp(), task=task)

    def test_wire_scale_auto(self):
        task = blobs_task(2, n_train=100, n_test=50)
        cfg = SimConfig(
            cluster=gpu_cluster_p2(2), max_iter=5, sync=bsp(), task=task,
            workload=alexnet_cifar_workload(),
        )
        expected = cfg.workload.wire_bytes / task.spec.total_bytes
        assert cfg.resolved_wire_scale() == pytest.approx(expected)

    def test_wire_scale_explicit(self):
        cfg = timing_config(wire_scale=3.0)
        assert cfg.resolved_wire_scale() == 3.0

    def test_base_compute_from_workload(self):
        cfg = timing_config()
        node_flops = cfg.cluster.workers[0].flops
        expected = cfg.workload.train_flops_per_sample * 64 / node_flops
        assert cfg.resolved_base_compute(node_flops) == pytest.approx(expected)

    def test_invalid_iters(self):
        with pytest.raises(ValueError):
            timing_config(iters=0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("base_compute_time", 0.0),
            ("base_compute_time", -1.0),
            ("wire_scale", 0.0),
            ("wire_scale", -1.0),
            ("snapshot_interval_s", 0.0),
            ("server_op_overhead_s", -20e-6),
            ("dpr_overhead_s", -1e-3),
            ("eval_every", -1),
            ("server_op_overhead_s", float("nan")),
            # Negative compute times: the run died of a corrupted event heap.
            ("batch_per_worker", -1),
            ("batch_per_worker", 0),
            # Three rounds on the collapse path, TypeError on the event path.
            ("max_iter", 2.5),
            # Accepted, then meant something else: one iteration; evaluation
            # at the last iteration only; an infinite run duration.
            ("max_iter", True),
            ("eval_every", 1.5),
            ("batch_per_worker", 1.5),
            ("base_compute_time", float("inf")),
            ("wire_scale", float("inf")),
            ("snapshot_interval_s", float("inf")),
            ("server_op_overhead_s", float("inf")),
            ("dpr_overhead_s", float("inf")),
            # derive_rng truncated: seed 2.5 ran seed 2, True ran seed 1.
            ("seed", 2.5),
            ("seed", True),
            ("seed", float("nan")),
            # Aliased: 2**32 ran seed 0, -(2**32) + 1 ran seed 1.
            ("seed", 2**32),
            ("seed", -(2**32) + 1),
            ("seed", -1),
            # Without a task: silently ignored, nothing to evaluate or filter.
            ("eval_every", 5),
            ("push_filter_factory", NoFilter),
        ],
    )
    def test_invalid_numbers_fail_at_construction(self, field, value):
        with pytest.raises(ValueError, match=field):
            replace(timing_config(), **{field: value})

    @pytest.mark.parametrize("field", ["max_iter", "batch_per_worker", "seed"])
    @pytest.mark.parametrize("value", [np.int64(3), np.uint8(3)])
    def test_numpy_integers_are_accepted_as_ints(self, field, value):
        cfg = replace(timing_config(), **{field: value})
        assert getattr(cfg, field) == 3 and type(getattr(cfg, field)) is int

    @pytest.mark.parametrize(
        "model",
        [
            # Worker 15 ran at rate 2.5, outside the declared [1, 1.3].
            HeterogeneousCompute(4, spread=0.3),
            # Workers 3-7 never straggled.
            TransientStragglerCompute(3, slow_factor=3.0, period=4, duration=2),
            cpu_cluster_compute(16),
        ],
    )
    def test_compute_model_for_another_cluster_refused(self, model):
        message = rf"compute_model built for {model.n_workers} workers, cluster has 8"
        with pytest.raises(ValueError, match=message):
            timing_config(n=8, compute_model=model)

    @pytest.mark.parametrize(
        "value, mode",
        [
            ("lazy", ExecutionMode.LAZY),
            ("soft", ExecutionMode.SOFT_BARRIER),
            (ExecutionMode.SOFT_BARRIER, ExecutionMode.SOFT_BARRIER),
        ],
    )
    def test_execution_by_value_is_that_mode(self, value, mode):
        """``execution="lazy"`` used to run the soft barrier: the shards
        tested ``execution is ExecutionMode.LAZY``."""
        cfg = timing_config(execution=value)
        assert cfg.execution is mode
        assert ShardServer(0, 2, ssp(1), value).execution is mode

    @pytest.mark.parametrize("value", ["eager", "LAZY", None, 1])
    def test_unknown_execution_refused(self, value):
        with pytest.raises(ValueError, match="execution"):
            timing_config(execution=value)
        with pytest.raises(ValueError, match="execution"):
            ShardServer(0, 2, ssp(1), value)

    @pytest.mark.no_sanitize  # explicit Observability below
    @pytest.mark.parametrize("observed", [False, True])
    def test_execution_by_value_runs_as_the_mode(self, observed):
        """The measured case: 16 workers x 2 shards, SSP(1), 10 iterations
        (observed, ``"lazy"`` died of ``'str' object has no attribute 'value'``)."""
        def dprs(execution):
            obs = Observability(MetricsRegistry("x"), causal=False) if observed else NULL_OBS
            cfg = SimConfig(
                cluster=cpu_cluster(16, n_servers=2), max_iter=10, sync=ssp(1),
                execution=execution, workload=alexnet_cifar_workload(),
                compute_model=cpu_cluster_compute(16), seed=0, obs=obs,
            )
            return run_fluentps(cfg).metrics.dprs

        lazy, soft = dprs(ExecutionMode.LAZY), dprs(ExecutionMode.SOFT_BARRIER)
        assert lazy != soft
        assert (dprs("lazy"), dprs("soft")) == (lazy, soft)

    @pytest.mark.parametrize(
        "removed",
        [
            {"engine_calendar": False},
            {"engine_calendar_threshold": 4},
            {"engine_elide": False},
            {"round_collapse": False},
            {"server_drain": "event"},
            {"server_dispatch": "proc"},
            {"keep_spans": True},  # span_capture=True
        ],
    )
    def test_removed_mode_fields_raise(self, removed):
        """Stale callers of the deleted oracle knobs fail loudly rather
        than silently running a different path."""
        with pytest.raises(TypeError):
            timing_config(**removed)

    def test_removed_wire_switches_raise(self):
        with pytest.raises(TypeError):
            Network(Engine(), analytic=False)
        with pytest.raises(TypeError):
            Network(Engine(), fabric_concurrency=2)
        cluster = gpu_cluster_p2(2)
        with pytest.raises(TypeError):
            ClusterSpec("c", cluster.workers, cluster.servers, fabric_concurrency=2)


class TestTimingRuns:
    def test_completes_and_accounts(self):
        r = run_fluentps(timing_config(iters=8))
        assert r.iterations == 8
        assert r.duration > 0
        assert r.bytes_on_wire > 0
        assert r.metrics.pushes == 8 * 4 * 2
        assert r.metrics.pulls >= 8 * 4 * 2
        assert len(r.worker_finish_times) == 4

    def test_deterministic(self):
        a = run_fluentps(timing_config(sync=pssp(2, 0.5), seed=5,
                                       compute_model=ExponentialTailCompute(0.1, 2.0)))
        b = run_fluentps(timing_config(sync=pssp(2, 0.5), seed=5,
                                       compute_model=ExponentialTailCompute(0.1, 2.0)))
        assert a.duration == b.duration
        assert a.metrics.dprs == b.metrics.dprs

    def test_comm_time_positive_and_consistent(self):
        r = run_fluentps(timing_config())
        assert r.total_comm_time > 0
        assert r.mean_comm_time == pytest.approx(r.total_comm_time / 4)
        # total wall across workers = compute + comm
        assert r.total_compute_time + r.total_comm_time == pytest.approx(
            sum(r.worker_finish_times), rel=1e-9
        )

    def test_more_workers_more_comm(self):
        small = run_fluentps(timing_config(n=2, iters=6))
        big = run_fluentps(timing_config(n=8, iters=6))
        assert big.mean_comm_time > small.mean_comm_time

    def test_wire_scale_scales_bytes(self):
        a = run_fluentps(timing_config(iters=4, wire_scale=1.0))
        b = run_fluentps(timing_config(iters=4, wire_scale=2.0))
        assert b.bytes_on_wire > 1.5 * a.bytes_on_wire

    def test_per_server_models(self):
        cfg = timing_config(servers=2, sync=[ssp(2), asp()])
        r = run_fluentps(cfg)
        assert r.duration > 0

    def test_drop_stragglers_runs(self):
        cfg = timing_config(sync=drop_stragglers(4, n_t=3),
                            compute_model=ExponentialTailCompute(0.2, 3.0))
        r = run_fluentps(cfg)
        assert r.iterations == 10


class TestTrainingRuns:
    def test_training_converges(self):
        n = 4
        task = blobs_task(n, n_train=600, n_test=200, seed=7)
        cfg = SimConfig(
            cluster=cpu_cluster(n, 1),
            max_iter=120,
            sync=ssp(2),
            task=task,
            seed=1,
            base_compute_time=0.5,
            eval_every=40,
        )
        r = run_fluentps(cfg)
        assert r.final_params is not None
        assert r.eval_by_iteration.final() > 0.55
        assert len(r.eval_by_iteration) == 3

    def test_training_workers_use_stale_params(self):
        """With ASP, some answered pulls must be missing iterations when
        compute times vary (sanity on staleness plumbing)."""
        n = 4
        task = blobs_task(n, n_train=200, n_test=50, seed=3)
        cfg = SimConfig(
            cluster=cpu_cluster(n, 1),
            max_iter=60,
            sync=asp(),
            task=task,
            seed=2,
            base_compute_time=0.5,
            compute_model=ExponentialTailCompute(0.3, 3.0),
        )
        r = run_fluentps(cfg)
        assert r.metrics.mean_staleness() > 0

    def test_soft_barrier_run(self):
        n = 4
        task = blobs_task(n, n_train=200, n_test=50, seed=3)
        cfg = SimConfig(
            cluster=cpu_cluster(n, 1),
            max_iter=40,
            sync=ssp(1),
            execution=ExecutionMode.SOFT_BARRIER,
            task=task,
            seed=2,
            base_compute_time=0.5,
            compute_model=ExponentialTailCompute(0.3, 3.0),
        )
        r = run_fluentps(cfg)
        assert r.final_params is not None


class TestOverheads:
    def test_dpr_overhead_slows_soft_barrier(self):
        common = dict(
            n=6, iters=25, sync=ssp(1),
            compute_model=ExponentialTailCompute(0.2, 4.0),
        )
        cheap = run_fluentps(timing_config(
            execution=ExecutionMode.SOFT_BARRIER, dpr_overhead_s=0.0, **common))
        costly = run_fluentps(timing_config(
            execution=ExecutionMode.SOFT_BARRIER, dpr_overhead_s=0.05, **common))
        assert costly.duration > cheap.duration


class TestWorkerSeriesCap:
    """Per-worker sketch series collapse to one aggregate at mesoscale."""

    def _run(self, n, threshold, monkeypatch):
        from repro.obs import MetricsRegistry, Observability

        monkeypatch.setattr("repro.sim.runner.WORKER_SERIES_THRESHOLD", threshold)
        obs = Observability(MetricsRegistry("cap"))
        run_fluentps(timing_config(n=n, iters=3, obs=obs))
        return obs.registry.sketch(
            "pull_latency_seconds",
            "sync-wait seconds per sPull round (mergeable sketch)",
        )

    def test_below_threshold_keeps_per_worker_series(self, monkeypatch):
        sketch = self._run(6, 6, monkeypatch)
        assert len(sketch.label_sets()) == 6
        for w in range(6):
            assert sketch.count(worker=w) == 3

    def test_above_threshold_registry_stays_bounded(self, monkeypatch):
        sketch = self._run(6, 4, monkeypatch)
        # One aggregate series regardless of worker count: the registry
        # no longer grows with N.
        assert len(sketch.label_sets()) == 1
        assert sketch.count(worker="all") == 6 * 3
        # The aggregate is exactly the merge of what per-worker series
        # would have held (same total population).
        merged = sketch.merged()
        assert merged is not None and merged.count == 6 * 3

    def test_threshold_validated(self):
        """No caller ever set it: the threshold is a module constant, and
        a config that still passes one is refused."""
        with pytest.raises(TypeError, match="worker_series_threshold"):
            timing_config(worker_series_threshold=0)


class TestMesoscaleSanitized:
    """A 1k-worker-scale event-path point through the protocol sanitizer."""

    # Explicit Observability below; the ambient conftest bundle would
    # double-report the same stream.
    pytestmark = pytest.mark.no_sanitize

    def test_1k_worker_trace_is_clean(self):
        n = 1_000
        obs = Observability(MetricsRegistry("meso"))
        runner = FluentPSSimRunner(
            SimConfig(
                cluster=cpu_cluster(n, n_servers=8),
                max_iter=1,
                sync=ssp(3),
                workload=alexnet_cifar_workload(),
                compute_model=cpu_cluster_compute(n),
                seed=3,
                obs=obs,
            )
        )
        runner.run()
        assert runner.engine.events_processed > 0  # causal obs: no collapse
        report = sanitize_observability(obs)
        assert report.ok, report.describe()
        assert report.n_events > 0
