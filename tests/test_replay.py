"""Schedule, then math: every real-gradient run replays, and what the replay keeps."""

import numpy as np
import pytest

from repro.bench.workloads import blobs_task
from repro.core.api import ParameterServerSystem
from repro.core.conditions import PredicatePull, PredicatePush
from repro.core.filters import NoFilter, TopKFilter
from repro.core.models import dynamic_pssp, pssp, ssp
from repro.core.pssp import significance_alpha
from repro.core import replay as replay_module
from repro.core.replay import Replay, ScheduleLog
from repro.ml.models_zoo import alexnet_cifar_workload
from repro.ml.training import TrainingTask
from repro.obs import NULL_OBS
from repro.sim.cluster import cpu_cluster
from repro.sim.runner import FluentPSSimRunner, SimConfig
from repro.sim.stragglers import HeterogeneousCompute

from tests.mutants import replay_cohort_reads_ahead, replay_cohort_same_worker
from tests.reference_sim import ReferenceSim
from tests.sim_helpers import assert_matches_reference


def cell(**extra):
    return {
        "cluster": cpu_cluster(3, n_servers=2),
        "max_iter": 6,
        "sync": ssp(2),
        "task": blobs_task(3, n_train=120, n_test=60),
        "compute_model": HeterogeneousCompute(3, spread=0.5),
        "seed": 5,
        **extra,
    }


def config(**extra):
    return SimConfig(**cell(**extra), obs=NULL_OBS)


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
        assert runner.collapse_fallback["reason"] == "overlap"  # the identity refuses nothing
        assert not hasattr(runner, "_step_rngs")  # the replay owns its streams

    @pytest.mark.parametrize("kind", ["pull", "push"])
    def test_a_set_cond_predicate_replays(self, kind):
        """A ``set_cond_pull``/``set_cond_push`` predicate that reads the
        significance: each read catches the replay up, and the run is the
        reference's, every step replayed."""
        reads = []

        def system():
            task = blobs_task(3, n_train=120, n_test=60)
            system = ParameterServerSystem(task.spec, task.init_params, 3, 2, ssp(2), seed=5)
            if kind == "pull":
                system.set_cond_pull(0, lambda view: reads.append(view.significance)
                                     or view.progress < view.v_train + 2, staleness=2)
            else:
                system.set_cond_push(1, lambda view: view.pushed(view.v_train) >= 3
                                     and not reads.append(view.significance))
            return system

        runner, _result, _ref = assert_matches_reference(cell, make_system=system)
        assert runner.steps_replayed == 18 and reads
        half = len(reads) // 2  # production's reads, then the reference's
        assert reads[:half] == reads[half:]

    def test_timing_only_runs_build_no_step_streams(self):
        runner = FluentPSSimRunner(config(task=None, workload=alexnet_cifar_workload()))
        assert not hasattr(runner, "_step_rngs") and not hasattr(runner, "_filters")


class TestReplay:
    def test_shards_hold_their_parameters_again(self):
        runner = FluentPSSimRunner(config(eval_every=2))
        result = runner.run()
        for server in runner.servers:
            assert server.params is not None and server._view_scratch.catch_up is None
        ref = ReferenceSim(config(eval_every=2)).run()
        assert result.final_params.tobytes() == ref.final_params.tobytes()
        assert len(result.eval_by_time.x) == 3

    def test_a_log_that_reads_ahead_of_the_schedule_is_refused(self):
        runner = FluentPSSimRunner(config())
        log = runner._log
        log.steps.extend([(0, 0), (0, 1)])
        log.reads[0, 0] = [1, 1]  # the second step reads a push nobody stepped
        log.applies[0].append((1, 0, 0))
        log.applies[1].append((1, 0, 0))
        with pytest.raises(RuntimeError, match="before its step"):
            Replay(runner.system, runner.cfg.task, log, seed=0).finish()

    def test_a_read_logged_after_a_catch_up_keeps_its_version(self):
        """Worker 0's reply reads version 1 after a catch-up, and the next
        catch-up, with no new step logged, moves the shard to version 2:
        version 1 is kept for the step that reads it."""
        task = blobs_task(2, n_train=40, n_test=20)
        seen, step = [], task.step_fn

        def recording(ctx):
            update = step(ctx)
            seen.append((ctx.params.copy(), update.copy()))
            return update

        task.step_fn = recording
        system = ParameterServerSystem(task.spec, task.init_params, 2, 1, ssp(2), seed=0)
        server, log = system.servers[0], ScheduleLog.begin(system.servers, [0, 0], 3)
        replay = Replay(system, task, log, seed=0)
        log.steps += [(0, 0), (1, 0)]
        replay.advance(2)
        for w, version in ((0, 1), (1, 2)):
            server.handle_push(w, 0)
            log.applies[0].append((w, 0, 0))
            if w == 0:
                log.reads[0, 0, 0] = version  # worker 0's next step reads it
        replay.significance(0)
        log.steps.append((0, 1))
        replay.advance(3)
        (init, u00), _, (read, _) = seen
        expected = init.copy()
        expected += u00 / 2
        assert read.tobytes() == expected.tobytes()

    def test_the_step_streams_are_the_coupled_runs(self, monkeypatch):
        """A step function that draws from ``ctx.rng``: each worker's stream
        is consumed in its own step order on both paths.  Replaced on the
        instance, ``step_fn`` is not the one-row case of ``steps``: it keeps
        one call per step."""
        def make():
            task = blobs_task(3, n_train=120, n_test=60)
            step = task.step_fn
            task.step_fn = lambda ctx: step(ctx) + NoisyTask.noise(ctx)
            return config(task=task)

        self.assert_one_call_per_step(make, monkeypatch)

    def test_a_subclass_step_fn_keeps_one_call_per_step(self, monkeypatch):
        def make():
            task = blobs_task(3, n_train=120, n_test=60)
            task.__class__ = NoisyTask
            return config(task=task)

        self.assert_one_call_per_step(make, monkeypatch)

    @staticmethod
    def assert_one_call_per_step(make, monkeypatch):
        sizes = count_steps_calls(monkeypatch)
        runner = FluentPSSimRunner(make())
        replayed = runner.run()
        assert sizes == [1] * runner.steps_replayed and runner.steps_replayed == 18
        ref = ReferenceSim(make()).run()
        assert replayed.final_params.tobytes() == ref.final_params.tobytes()
        assert not np.array_equal(replayed.final_params, config().task.init_params)


class NoisyTask(TrainingTask):
    @staticmethod
    def noise(ctx):
        return 1e-3 * ctx.rng.normal(size=ctx.params.shape)

    def step_fn(self, ctx):
        return super().step_fn(ctx) + self.noise(ctx)


def count_steps_calls(monkeypatch):
    """The cohort size of every ``TrainingTask.steps`` call from now on."""
    sizes = []
    steps = TrainingTask.steps

    def counted(self, ctxs, *args, **kwargs):
        sizes.append(len(ctxs))
        return steps(self, ctxs, *args, **kwargs)

    monkeypatch.setattr(TrainingTask, "steps", counted)
    return sizes


class TestCohorts:
    """The replay steps a cohort of consecutive steps at a time: distinct
    workers, no evaluation due inside, no read of a member's push.  On the
    logs the stock runner writes, the first and the last cut coincide (a
    worker's next step reads its own push), so the cohort mutants are
    killed by the rule's direct tests, not by a run."""

    def test_a_stock_run_steps_in_cohorts(self, monkeypatch):
        sizes = count_steps_calls(monkeypatch)
        runner = FluentPSSimRunner(config())
        replayed = runner.run()
        assert sizes == [3, 3, 2, 2, 3, 3, 2] and runner.steps_replayed == 18
        ref = ReferenceSim(config()).run()
        assert replayed.final_params.tobytes() == ref.final_params.tobytes()

    def test_an_evaluation_cuts_its_cohort(self, monkeypatch):
        sizes = count_steps_calls(monkeypatch)
        FluentPSSimRunner(config(eval_every=2)).run()
        assert sizes == [3, 1, 3, 2, 3, 2, 2, 2]

    def test_a_worker_never_joins_its_own_cohort(self):
        """Killer of ``replay_cohort_same_worker``."""
        never = np.full((3, 1), np.iinfo(np.int64).max)
        reads = np.zeros((3, 1), np.int64)
        assert replay_module.cohorts([0, 0, 1], reads, never, []) == [(0, 1), (1, 3)]

    def test_a_read_of_a_members_push_cuts(self):
        """Killer of ``replay_cohort_reads_ahead``: step 2 reads shard 1 at
        version 2, the version step 0's push makes there."""
        reads = np.array([[0, 0], [0, 0], [0, 2]])
        pushed = np.array([[1, 2], [2, 3], [3, 4]])
        cut = replay_module.cohorts
        assert cut([0, 1, 2], reads, pushed, []) == [(0, 2), (2, 3)]
        assert cut([0, 1, 2], reads - 1, pushed, []) == [(0, 3)]
        assert cut([0, 1, 2], reads - 1, pushed, [1]) == [(0, 1), (1, 3)]

    @pytest.mark.parametrize("mutant, killer", [
        (replay_cohort_reads_ahead, "test_a_read_of_a_members_push_cuts"),
        (replay_cohort_same_worker, "test_a_worker_never_joins_its_own_cohort"),
    ])
    def test_the_cohort_mutants_die(self, mutant, killer, monkeypatch):
        mutant(monkeypatch)
        with pytest.raises(AssertionError):
            getattr(self, killer)()
