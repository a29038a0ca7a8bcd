"""Synchronization dynamics without a network: the sim runner driving N
workers on the no-network preset (``no_network_config``), where a run's
clock is its compute draws and pull conditions alone."""

from dataclasses import replace

import numpy as np
import pytest

from repro.bench.workloads import no_network_config
from repro.core.models import asp, bsp, drop_stragglers, dsps, dynamic_pssp, pssp, ssp
from repro.core.server import ExecutionMode
from repro.sim.runner import run_fluentps
from repro.sim.stragglers import (
    DeterministicCompute,
    ExponentialTailCompute,
    HeterogeneousCompute,
)
from repro.sim.trace import SpanKind
from repro.utils.rng import derive_rng

ALL_MODELS = [
    ("bsp", lambda n: bsp()),
    ("asp", lambda n: asp()),
    ("ssp", lambda n: ssp(2)),
    ("dsps", lambda n: dsps(s0=2)),
    ("drop", lambda n: drop_stragglers(n, n_t=max(1, n - 1))),
    ("pssp", lambda n: pssp(2, 0.5)),
    ("dpssp", lambda n: dynamic_pssp(2, 0.7)),
]


class QuadraticTask:
    """The ``quadratic_problem`` fixture as the runner's task: a step
    function and an eval function over one flat parameter vector."""

    def __init__(self, spec, n_workers, step, eval_fn=None):
        self.spec = spec
        self.init_params = np.zeros(spec.total_elements)
        self.n_workers = n_workers
        self.step_fn = step
        self.eval_fn = eval_fn


def run_no_network(spec, step, sync, execution=ExecutionMode.LAZY, n=4, servers=2,
               iters=40, compute=None, seed=0, eval_fn=None, **kw):
    """One no-network run at the run seed ``seed + 1``."""
    cfg = no_network_config(
        n, sync, iters, n_servers=servers, execution=execution,
        task=QuadraticTask(spec, n, step, eval_fn),
        compute_model=compute or ExponentialTailCompute(0.2, 2.0), seed=seed + 1, **kw,
    )
    return run_fluentps(cfg)


def compute_draws(compute, n, iters, seed):
    """``d[w][i]``: the compute seconds worker ``w`` draws for iteration
    ``i`` in a run at seed ``seed``, from its own stream in order."""
    rngs = [derive_rng(seed, "compute", w) for w in range(n)]
    return [[compute.sample(w, i, 1.0, rngs[w]) for i in range(iters)] for w in range(n)]


class TestCompletion:
    @pytest.mark.parametrize("name,factory", ALL_MODELS)
    @pytest.mark.parametrize("execution", list(ExecutionMode))
    def test_all_models_terminate(self, name, factory, execution, quadratic_problem):
        spec, target, make_step = quadratic_problem
        n = 4
        res = run_no_network(spec, make_step(), factory(n), execution=execution, n=n)
        assert res.iterations == 40
        assert res.metrics.pushes == 40 * n * 2  # per shard server

    def test_converges_to_target(self, quadratic_problem):
        spec, target, make_step = quadratic_problem
        res = run_no_network(spec, make_step(lr=0.3), ssp(2), iters=80)
        assert np.linalg.norm(res.final_params - target) < 0.05

    def test_deterministic_under_seed(self, quadratic_problem):
        spec, target, make_step = quadratic_problem
        a = run_no_network(spec, make_step(noise=0.1), pssp(2, 0.5), seed=3)
        b = run_no_network(spec, make_step(noise=0.1), pssp(2, 0.5), seed=3)
        assert a.duration == b.duration
        np.testing.assert_array_equal(a.final_params, b.final_params)
        assert a.metrics.dprs == b.metrics.dprs

    def test_different_seed_differs(self, quadratic_problem):
        spec, target, make_step = quadratic_problem
        a = run_no_network(spec, make_step(noise=0.1), pssp(2, 0.5), seed=3)
        b = run_no_network(spec, make_step(noise=0.1), pssp(2, 0.5), seed=4)
        assert a.duration != b.duration

    def test_invalid_config(self, quadratic_problem):
        spec, target, make_step = quadratic_problem
        with pytest.raises(ValueError):
            run_no_network(spec, make_step(), ssp(1), iters=0)
        with pytest.raises(ValueError):
            replace(no_network_config(2, ssp(1), 1), base_compute_time=0)

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
        ],
    )
    def test_invalid_numbers_fail_at_construction(self, quadratic_problem, field, value):
        """The no-network preset refuses what ``SimConfig`` refuses, with
        the field named."""
        with pytest.raises(ValueError, match=field):
            replace(no_network_config(2, ssp(1), 1), **{field: value})


class TestTimingSemantics:
    def test_bsp_duration_tracks_sum_of_maxima(self, quadratic_problem):
        """Under BSP every iteration starts when the slowest worker ends
        the previous one: the duration is exactly the fold
        ``t = max_w(t + d[w][i])`` of the compute draws — and at least
        ASP's on the same draws."""
        spec, target, make_step = quadratic_problem
        compute = ExponentialTailCompute(0.3, 2.0)
        res = run_no_network(spec, make_step(), bsp(), n=4, iters=30, compute=compute, seed=9)
        t = 0.0
        for column in zip(*compute_draws(compute, 4, 30, seed=10)):
            t = max(t + d for d in column)
        assert res.duration == t
        asp_res = run_no_network(spec, make_step(), asp(), n=4, iters=30, compute=compute, seed=9)
        assert res.duration >= asp_res.duration

    def test_asp_never_blocks(self, quadratic_problem):
        """ASP never waits on a pull: the duration is exactly the longest
        worker's sequential sum of its own draws."""
        spec, target, make_step = quadratic_problem
        res = run_no_network(spec, make_step(), asp(), n=4, iters=30)
        assert res.trace.total_by_kind(SpanKind.PULL) == 0.0
        assert res.metrics.dprs == 0
        draws = compute_draws(ExponentialTailCompute(0.2, 2.0), 4, 30, seed=1)
        assert res.duration == max(sum(row) for row in draws)

    def test_ssp_staleness_bounded_lazy(self, quadratic_problem):
        spec, target, make_step = quadratic_problem
        res = run_no_network(
            spec, make_step(), ssp(3), n=6, iters=60,
            compute=HeterogeneousCompute(6, spread=0.5),
        )
        assert res.metrics.max_staleness() <= 3

    def test_bsp_staleness_zero(self, quadratic_problem):
        spec, target, make_step = quadratic_problem
        res = run_no_network(spec, make_step(), bsp(), n=4, iters=30)
        assert res.metrics.max_staleness() == 0

    def test_deterministic_compute_no_blocks_under_ssp(self, quadratic_problem):
        spec, target, make_step = quadratic_problem
        res = run_no_network(
            spec, make_step(), ssp(2), n=4, iters=30, compute=DeterministicCompute()
        )
        assert res.metrics.dprs == 0

    def test_compute_spans_recorded(self, quadratic_problem):
        spec, target, make_step = quadratic_problem
        res = run_no_network(spec, make_step(), asp(), n=2, iters=10,
                         compute=DeterministicCompute(), span_capture=True)
        assert res.trace.count("worker0", SpanKind.COMPUTE) == 10
        assert res.total_compute_time == pytest.approx(20.0)


class TestEvalHooks:
    def test_eval_series_recorded(self, quadratic_problem):
        spec, target, make_step = quadratic_problem

        def eval_fn(params):
            return -float(np.linalg.norm(params - target))

        res = run_no_network(
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
        res = run_no_network(
            spec, make_step(), ssp(1), n=6, iters=50,
            compute=HeterogeneousCompute(6, spread=0.5),
        )
        assert res.dprs_per_100_iterations() == pytest.approx(
            100.0 * res.metrics.dprs / 50
        )
