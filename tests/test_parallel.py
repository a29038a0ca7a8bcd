"""Tests for the real-thread runner (liveness + correctness)."""

import numpy as np
import pytest

from repro.core.api import ParameterServerSystem
from repro.core.models import asp, bsp, drop_stragglers, pssp, ssp
from repro.core.server import ExecutionMode
from repro.parallel.threaded import ThreadedRunner


def make_runner(spec, step, sync, n=4, servers=2, iters=30, execution=ExecutionMode.LAZY,
                seed=0):
    system = ParameterServerSystem(
        spec, np.zeros(spec.total_elements), n, servers, sync, execution, seed=seed
    )
    return ThreadedRunner(system, step, max_iter=iters, seed=seed, timeout_s=60.0)


@pytest.mark.parametrize(
    "sync_factory",
    [lambda n: bsp(), lambda n: asp(), lambda n: ssp(2), lambda n: pssp(2, 0.5),
     lambda n: drop_stragglers(n, n_t=n - 1)],
    ids=["bsp", "asp", "ssp", "pssp", "drop"],
)
@pytest.mark.parametrize("execution", list(ExecutionMode))
def test_all_models_live_under_threads(quadratic_problem, sync_factory, execution):
    spec, target, make_step = quadratic_problem
    n = 4
    runner = make_runner(spec, make_step(), sync_factory(n), n=n)
    runner.system.execution = execution
    res = runner.run()
    assert res.ok, res.worker_errors
    assert res.metrics.pushes == 30 * n * 2


def test_threaded_converges(quadratic_problem):
    spec, target, make_step = quadratic_problem
    res = make_runner(spec, make_step(lr=0.3), ssp(2), iters=60).run()
    assert res.ok
    assert np.linalg.norm(res.final_params - target) < 0.1


def test_threaded_metrics_consistent(quadratic_problem):
    spec, target, make_step = quadratic_problem
    n, servers, iters = 4, 2, 30
    res = make_runner(spec, make_step(), ssp(1), n=n, servers=servers, iters=iters).run()
    assert res.ok
    m = res.metrics
    assert m.pulls >= iters * n * servers  # soft rebuffers may exceed
    assert m.immediate_pulls + m.dprs == m.pulls


def test_threaded_many_workers_stress(quadratic_problem):
    spec, target, make_step = quadratic_problem
    res = make_runner(spec, make_step(noise=0.05), pssp(3, 0.3), n=12,
                      servers=3, iters=25).run()
    assert res.ok
    assert res.wall_time < 60


def test_invalid_iters(quadratic_problem):
    spec, target, make_step = quadratic_problem
    system = ParameterServerSystem(
        spec, np.zeros(spec.total_elements), 2, 1, ssp(1), ExecutionMode.LAZY
    )
    with pytest.raises(ValueError):
        ThreadedRunner(system, make_step(), max_iter=0)


@pytest.mark.parametrize(
    "field, value",
    [
        # A float range() raised TypeError inside every worker thread.
        ("max_iter", 2.5),
        ("max_iter", True),
        ("timeout_s", float("nan")),
        ("timeout_s", float("inf")),
        ("join_grace_s", float("nan")),
        ("seed", 2.5),  # truncated to seed 2
        ("seed", -(2**32) + 1),  # ran seed 1
    ],
)
def test_invalid_numbers_fail_at_construction(quadratic_problem, field, value):
    spec, target, make_step = quadratic_problem
    system = ParameterServerSystem(spec, np.zeros(spec.total_elements), 2, 1, ssp(1))
    with pytest.raises(ValueError, match=field):
        ThreadedRunner(system, make_step(), **{"max_iter": 1, field: value})


class TestInstrumentation:
    def test_wall_clock_sketches_per_worker(self, quadratic_problem):
        from repro.obs import MetricsRegistry, Observability

        spec, target, make_step = quadratic_problem
        obs = Observability(MetricsRegistry("threads"))
        system = ParameterServerSystem(
            spec, np.zeros(spec.total_elements), 2, 2, ssp(2)
        )
        runner = ThreadedRunner(
            system, make_step(), max_iter=10, timeout_s=60.0, obs=obs
        )
        res = runner.run()
        assert res.ok, res.worker_errors
        for name in (
            "threaded_iter_quantiles",
            "threaded_lock_wait_quantiles",
            "threaded_pull_block_quantiles",
        ):
            q = obs.registry.get(name)
            assert q.kind == "sketch", name
            assert q.count(worker=0) == 10, name
            assert q.count(worker=1) == 10, name
            assert q.quantile(0.99, worker=0) >= 0.0, name

    def test_run_publishes_sync_metrics(self, quadratic_problem):
        from repro.obs import MetricsRegistry, Observability

        spec, target, make_step = quadratic_problem
        obs = Observability(MetricsRegistry("threads"))
        system = ParameterServerSystem(spec, np.zeros(spec.total_elements), 3, 2, bsp())
        res = ThreadedRunner(system, make_step(), max_iter=8, timeout_s=60.0, obs=obs).run()
        assert res.ok, res.worker_errors
        summary = system.merged_metrics().summary()
        assert summary["pushes"] == summary["pulls"] == 8 * 3 * 2
        for key, value in summary.items():
            assert obs.registry.get(f"sync_{key}").value() == value, key


class _ImmediateSystem:
    """Stub PS system whose pulls always answer synchronously."""

    n_workers = 2

    def __init__(self):
        from repro.core.metrics import SyncMetrics

        self._params = np.zeros(4)
        self._metrics = SyncMetrics()

    def set_clock(self, clock):
        pass

    def current_params(self):
        return self._params.copy()

    def s_push(self, worker, i, update):
        pass

    def s_pull(self, worker, i, on_complete):
        from repro.core.api import PullResult

        on_complete(PullResult(worker=worker, progress=i, params=self._params.copy()))

    def merged_metrics(self):
        return self._metrics


class TestJoinDeadline:
    def test_shared_deadline_and_progress_in_error(self):
        import time as _time

        def step(ctx):
            if ctx.worker == 1:
                _time.sleep(5.0)  # hang one worker past the deadline
            return np.zeros(4)

        runner = ThreadedRunner(
            _ImmediateSystem(), step, max_iter=3, timeout_s=0.2, join_grace_s=0.2
        )
        t0 = _time.monotonic()
        res = runner.run()
        elapsed = _time.monotonic() - t0
        assert not res.ok
        err = res.worker_errors[-1]
        assert isinstance(err, TimeoutError)
        msg = str(err)
        assert "fluentps-worker-1" in msg
        assert "last completed iteration" in msg
        assert "'worker0': 2" in msg  # finished all 3 iterations
        assert "'worker1': -1" in msg  # never completed one
        # one shared deadline, not a fresh timeout per joined thread
        assert elapsed < 2.0

    def test_invalid_params_rejected(self, quadratic_problem):
        spec, target, make_step = quadratic_problem
        system = ParameterServerSystem(
            spec, np.zeros(spec.total_elements), 2, 1, bsp()
        )
        with pytest.raises(ValueError):
            ThreadedRunner(system, make_step(), max_iter=1, timeout_s=0.0)
        with pytest.raises(ValueError):
            ThreadedRunner(system, make_step(), max_iter=1, join_grace_s=-1.0)
