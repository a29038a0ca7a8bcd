"""Schedule, then math: which runs replay, and what the replay keeps."""

import numpy as np
import pytest

from repro.bench.workloads import blobs_task
from repro.core.api import ParameterServerSystem
from repro.core.conditions import PredicatePull, PredicatePush
from repro.core.filters import NoFilter, TopKFilter
from repro.core.models import dynamic_pssp, pssp, ssp
from repro.core.pssp import significance_alpha
from repro.core.replay import replay
from repro.ml.models_zoo import alexnet_cifar_workload
from repro.obs import NULL_OBS
from repro.sim.cluster import cpu_cluster
from repro.sim.runner import FluentPSSimRunner, SimConfig
from repro.sim.stragglers import HeterogeneousCompute

from tests.sim_helpers import CoupledRunner


def config(**extra):
    return SimConfig(**{
        "cluster": cpu_cluster(3, n_servers=2),
        "max_iter": 6,
        "sync": ssp(2),
        "task": blobs_task(3, n_train=120, n_test=60),
        "compute_model": HeterogeneousCompute(3, spread=0.5),
        "seed": 5,
        "obs": NULL_OBS,
        **extra,
    })


class TestWhoReplays:
    @pytest.mark.parametrize(
        "model, reads",
        [
            (ssp(2), False),
            (pssp(2, 0.5), False),
            (dynamic_pssp(2), False),  # a constant alpha
            (dynamic_pssp(2, significance_alpha()), True),
        ],
    )
    def test_conditions_declare_what_they_read(self, model, reads):
        assert model.make_pull().reads_values is reads
        assert not model.make_push().reads_values

    def test_predicates_may_read_anything(self):
        assert PredicatePull(lambda view: True).reads_values
        assert PredicatePush(lambda view: True).reads_values

    def test_only_the_identity_filter_reads_no_values(self):
        assert not NoFilter().reads_values
        assert TopKFilter(0.5).reads_values

    def test_a_run_whose_timing_reads_no_values_replays(self):
        runner = FluentPSSimRunner(config(push_filter_factory=NoFilter))
        runner.run()
        assert runner.steps_replayed == 3 * 6
        assert runner.collapse_fallback.get("reason") != "value_dependent"
        assert not hasattr(runner, "_step_rngs")  # the replay owns its streams

    def test_a_set_cond_pull_predicate_keeps_the_math_inline(self):
        task = blobs_task(3, n_train=120, n_test=60)
        system = ParameterServerSystem(task.spec, task.init_params, 3, 2, ssp(2), seed=5)
        system.set_cond_pull(0, lambda view: view.progress < view.v_train + 2, staleness=2)
        runner = FluentPSSimRunner(config(task=task), system)
        runner.run()
        assert runner.steps_replayed == 0
        assert runner.collapse_fallback == {"reason": "value_dependent"}

    def test_timing_only_runs_build_no_step_streams(self):
        runner = FluentPSSimRunner(config(task=None, workload=alexnet_cifar_workload()))
        assert not hasattr(runner, "_step_rngs") and not hasattr(runner, "_filters")


class TestReplay:
    def test_shards_hold_their_parameters_again(self):
        runner = FluentPSSimRunner(config(eval_every=2))
        result = runner.run()
        for server in runner.servers:
            assert server.deferred is None and server.params is not None
        coupled = CoupledRunner(config(eval_every=2)).run()
        assert result.final_params.tobytes() == coupled.final_params.tobytes()
        assert len(result.eval_by_time.x) == 3

    def test_a_log_that_reads_ahead_of_the_schedule_is_refused(self):
        runner = FluentPSSimRunner(config())
        for server in runner.servers:
            server.defer_values()
        log = runner._log
        log.steps.extend([(0, 0), (0, 1)])
        log.reads[0, 0] = [1, 1]  # the second step reads a push nobody stepped
        log.applies[0].append((1, 0, 0))
        log.applies[1].append((1, 0, 0))
        with pytest.raises(RuntimeError, match="before its step"):
            replay(runner.system, runner.cfg.task, log, seed=0)

    def test_the_step_streams_are_the_coupled_runs(self):
        """A step function that draws from ``ctx.rng``: each worker's stream
        is consumed in its own step order on both paths."""
        def make():
            task = blobs_task(3, n_train=120, n_test=60)
            step = task.step_fn

            def noisy(ctx):
                return step(ctx) + 1e-3 * ctx.rng.normal(size=ctx.params.shape)

            task.step_fn = noisy
            return config(task=task)

        replayed = FluentPSSimRunner(make()).run()
        coupled = CoupledRunner(make()).run()
        assert replayed.final_params.tobytes() == coupled.final_params.tobytes()
        assert not np.array_equal(replayed.final_params, config().task.init_params)
