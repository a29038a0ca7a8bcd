"""Tests for checkpoint/restore (server-failure recovery)."""

import numpy as np
import pytest

from repro.bench.workloads import blobs_task, no_network_config
from repro.core import ExecutionMode, ParameterServerSystem, ssp
from repro.sim.runner import run_fluentps
from tests.mutants import resume_ignores_restored_progress


@pytest.fixture
def task():
    return blobs_task(4, n_train=300, n_test=80, seed=2)


def make_system(task):
    return ParameterServerSystem(
        task.spec, task.init_params, 4, 2, ssp(2), ExecutionMode.LAZY, seed=0
    )


def train(system, task, iters, seed, **options):
    """Continue training on ``system`` (no network) for ``iters`` more
    iterations per worker."""
    cfg = no_network_config(4, ssp(2), iters, n_servers=system.n_servers, task=task,
                            seed=seed, **options)
    return run_fluentps(cfg, system)


def check_continued_training(task):
    """25 iterations, checkpoint, restore onto a fresh system, 10 more:
    the continuation is protocol-legal, every worker ends at progress
    ``25 + 10 - 1`` on every shard, and worker 0 evaluates on the global
    iteration count."""
    system = make_system(task)
    train(system, task, 25, seed=1)
    fresh = make_system(task)
    fresh.restore(system.checkpoint())
    r = train(fresh, task, 10, seed=2, eval_every=5)
    for server in fresh.servers:
        assert server.worker_progress == [34] * 4
        assert server.v_train == 35
    assert r.metrics.pushes == 10 * 4 * 2  # a restore carries no metrics
    assert list(r.eval_by_iteration.x) == [30, 35]


class TestCheckpoint:
    def test_roundtrip_restores_exact_state(self, task):
        system = make_system(task)
        train(system, task, 30, seed=1)
        state = system.checkpoint()
        params_at_ckpt = system.current_params()

        # Continue training (iterations 30..59), then roll back.
        train(system, task, 30, seed=2)
        assert not np.allclose(system.current_params(), params_at_ckpt)
        system.restore(state)
        np.testing.assert_allclose(system.current_params(), params_at_ckpt)
        for server, shard in zip(system.servers, state["shards"]):
            assert server.v_train == shard["v_train"]
            assert server.worker_progress == shard["worker_progress"]

    def test_resumed_training_is_protocol_legal(self, task):
        """After restore, workers resume pushing from their recorded
        progress — the sequential-push protocol check must accept it."""
        system = make_system(task)
        train(system, task, 25, seed=1)
        state = system.checkpoint()
        fresh = make_system(task)
        fresh.restore(state)
        # Workers continue at progress 25 on the restored system.
        z = np.zeros(task.spec.total_elements)
        fresh.s_push(0, 25, z)  # must not raise ProtocolError
        assert fresh.servers[0].worker_progress[0] == 25

    def test_continued_training_resumes_at_restored_progress(self, task):
        check_continued_training(task)

    def test_resume_ignores_restored_progress_dies_here(self, task, monkeypatch):
        resume_ignores_restored_progress(monkeypatch)
        with pytest.raises(Exception, match="expected 25"):
            check_continued_training(task)

    def test_checkpoint_requires_quiescence(self, task):
        system = ParameterServerSystem(
            task.spec, task.init_params, 4, 2, ssp(1), ExecutionMode.LAZY, seed=0
        )
        z = np.zeros(task.spec.total_elements)
        system.s_push(0, 0, z)
        system.s_push(0, 1, z)
        system.s_pull(0, 1, lambda r: None)
        with pytest.raises(RuntimeError, match="quiescence"):
            system.checkpoint()

    def test_restore_server_count_checked(self, task):
        system = make_system(task)
        state = system.checkpoint()
        other = ParameterServerSystem(
            task.spec, task.init_params, 4, 3, ssp(2), ExecutionMode.LAZY, seed=0
        )
        with pytest.raises(ValueError, match="resize first"):
            other.restore(state)

    def test_checkpoint_is_deep(self, task):
        """Mutating the live system must not corrupt the snapshot."""
        system = make_system(task)
        train(system, task, 10, seed=1)
        state = system.checkpoint()
        count_copy = dict(state["shards"][0]["count"])
        train(system, task, 10, seed=2)
        assert state["shards"][0]["count"] == count_copy

    def test_timing_only_system_round_trips(self):
        """A param-less (timing-only) system checkpoints, restores and
        continues like one with parameters."""
        cfg = no_network_config(4, ssp(2), 10, n_servers=2, seed=1)
        system = ParameterServerSystem(cfg.spec, None, 4, 2, ssp(2))
        run_fluentps(cfg, system)
        state = system.checkpoint()
        assert state["params"] is None and system.current_params() is None
        fresh = ParameterServerSystem(cfg.spec, None, 4, 2, ssp(2))
        fresh.restore(state)
        run_fluentps(cfg, fresh)
        assert fresh.servers[1].worker_progress == [19] * 4
