"""Tests for the virtual-clock training driver."""

import numpy as np
import pytest

from repro.core.api import ParameterServerSystem
from repro.core.driver import VirtualClockDriver
from repro.core.models import asp, bsp, drop_stragglers, dsps, dynamic_pssp, pssp, ssp
from repro.core.server import ExecutionMode
from repro.sim.stragglers import (
    DeterministicCompute,
    ExponentialTailCompute,
    HeterogeneousCompute,
)
from repro.sim.trace import SpanKind

ALL_MODELS = [
    ("bsp", lambda n: bsp()),
    ("asp", lambda n: asp()),
    ("ssp", lambda n: ssp(2)),
    ("dsps", lambda n: dsps(s0=2)),
    ("drop", lambda n: drop_stragglers(n, n_t=max(1, n - 1))),
    ("pssp", lambda n: pssp(2, 0.5)),
    ("dpssp", lambda n: dynamic_pssp(2, 0.7)),
]


def run_driver(spec, step, sync, execution=ExecutionMode.LAZY, n=4, servers=2,
               iters=40, compute=None, seed=0, **kw):
    system = ParameterServerSystem(
        spec, np.zeros(spec.total_elements), n, servers, sync, execution, seed=seed
    )
    driver = VirtualClockDriver(
        system, step, max_iter=iters,
        compute_model=compute or ExponentialTailCompute(0.2, 2.0), seed=seed + 1, **kw
    )
    return driver.run()


class TestCompletion:
    @pytest.mark.parametrize("name,factory", ALL_MODELS)
    @pytest.mark.parametrize("execution", list(ExecutionMode))
    def test_all_models_terminate(self, name, factory, execution, quadratic_problem):
        spec, target, make_step = quadratic_problem
        n = 4
        res = run_driver(spec, make_step(), factory(n), execution=execution, n=n)
        assert res.iterations == 40
        assert res.metrics.pushes == 40 * n * 2  # per shard server

    def test_converges_to_target(self, quadratic_problem):
        spec, target, make_step = quadratic_problem
        res = run_driver(spec, make_step(lr=0.3), ssp(2), iters=80)
        assert np.linalg.norm(res.final_params - target) < 0.05

    def test_deterministic_under_seed(self, quadratic_problem):
        spec, target, make_step = quadratic_problem
        a = run_driver(spec, make_step(noise=0.1), pssp(2, 0.5), seed=3)
        b = run_driver(spec, make_step(noise=0.1), pssp(2, 0.5), seed=3)
        assert a.duration == b.duration
        np.testing.assert_array_equal(a.final_params, b.final_params)
        assert a.metrics.dprs == b.metrics.dprs

    def test_different_seed_differs(self, quadratic_problem):
        spec, target, make_step = quadratic_problem
        a = run_driver(spec, make_step(noise=0.1), pssp(2, 0.5), seed=3)
        b = run_driver(spec, make_step(noise=0.1), pssp(2, 0.5), seed=4)
        assert a.duration != b.duration

    def test_invalid_config(self, quadratic_problem):
        spec, target, make_step = quadratic_problem
        system = ParameterServerSystem(
            spec, np.zeros(spec.total_elements), 2, 1, ssp(1), ExecutionMode.LAZY
        )
        with pytest.raises(ValueError):
            VirtualClockDriver(system, make_step(), max_iter=0)
        with pytest.raises(ValueError):
            VirtualClockDriver(system, make_step(), max_iter=1, base_compute_time=0)

    @pytest.mark.parametrize(
        "field, value",
        [
            # Ran three iterations and reported iterations=2.5.
            ("max_iter", 2.5),
            # Ran one iteration.
            ("max_iter", True),
            # Returned duration nan / inf.
            ("base_compute_time", float("nan")),
            ("base_compute_time", float("inf")),
            # Accepted: -1 never evaluated, 1.5 evaluated every third iteration.
            ("eval_every", -1),
            ("eval_every", 1.5),
            ("start_iteration", -1),
            ("start_iteration", 0.5),
        ],
    )
    def test_invalid_numbers_fail_at_construction(self, quadratic_problem, field, value):
        """The driver refuses what ``SimConfig`` refuses, with the field
        named (one shared check)."""
        spec, target, make_step = quadratic_problem
        system = ParameterServerSystem(spec, np.zeros(spec.total_elements), 2, 1, ssp(1))
        with pytest.raises(ValueError, match=field):
            VirtualClockDriver(system, make_step(), **{"max_iter": 1, field: value})


class TestTimingSemantics:
    def test_bsp_duration_tracks_sum_of_maxima(self, quadratic_problem):
        """Under BSP every iteration ends at the slowest worker's finish,
        so the total is at least the sum of per-iteration maxima."""
        spec, target, make_step = quadratic_problem
        res = run_driver(
            spec, make_step(), bsp(), n=4, iters=30,
            compute=ExponentialTailCompute(0.3, 2.0), seed=9,
        )
        asp_res = run_driver(
            spec, make_step(), asp(), n=4, iters=30,
            compute=ExponentialTailCompute(0.3, 2.0), seed=9,
        )
        assert res.duration >= asp_res.duration

    def test_asp_never_blocks(self, quadratic_problem):
        spec, target, make_step = quadratic_problem
        res = run_driver(spec, make_step(), asp(), n=4, iters=30)
        assert res.blocked_time == 0.0
        assert res.metrics.dprs == 0

    def test_ssp_staleness_bounded_lazy(self, quadratic_problem):
        spec, target, make_step = quadratic_problem
        res = run_driver(
            spec, make_step(), ssp(3), n=6, iters=60,
            compute=HeterogeneousCompute(6, spread=0.5),
        )
        assert res.metrics.max_staleness() <= 3

    def test_bsp_staleness_zero(self, quadratic_problem):
        spec, target, make_step = quadratic_problem
        res = run_driver(spec, make_step(), bsp(), n=4, iters=30)
        assert res.metrics.max_staleness() == 0

    def test_deterministic_compute_no_blocks_under_ssp(self, quadratic_problem):
        spec, target, make_step = quadratic_problem
        res = run_driver(
            spec, make_step(), ssp(2), n=4, iters=30, compute=DeterministicCompute()
        )
        assert res.metrics.dprs == 0

    def test_compute_spans_recorded(self, quadratic_problem):
        spec, target, make_step = quadratic_problem
        res = run_driver(spec, make_step(), asp(), n=2, iters=10,
                         compute=DeterministicCompute(), keep_spans=True)
        assert res.trace.count("worker0", SpanKind.COMPUTE) == 10
        assert res.compute_time == pytest.approx(20.0)


class TestEvalHooks:
    def test_eval_series_recorded(self, quadratic_problem):
        spec, target, make_step = quadratic_problem

        def eval_fn(params):
            return -float(np.linalg.norm(params - target))

        res = run_driver(
            spec, make_step(lr=0.3), ssp(2), iters=40,
            eval_fn=eval_fn, eval_every=10,
        )
        assert len(res.eval_by_iteration) == 4
        assert list(res.eval_by_iteration.x) == [10, 20, 30, 40]
        # Error shrinks over training.
        assert res.eval_by_iteration.y[-1] > res.eval_by_iteration.y[0]
        assert res.eval_by_time.x == sorted(res.eval_by_time.x)

    def test_dprs_per_100_uses_paper_convention(self, quadratic_problem):
        spec, target, make_step = quadratic_problem
        res = run_driver(
            spec, make_step(), ssp(1), n=6, iters=50,
            compute=HeterogeneousCompute(6, spread=0.5),
        )
        assert res.dprs_per_100_iterations() == pytest.approx(
            100.0 * res.metrics.dprs / 50
        )
