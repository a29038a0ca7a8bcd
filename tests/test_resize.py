"""Tests for elastic server-count resizing (FlexPS-style stage boundary)."""

import numpy as np
import pytest

from repro.bench.workloads import blobs_task, no_network_config
from repro.core import ExecutionMode, ParameterServerSystem, asp, ssp
from repro.core.keyspace import ElasticSlicer
from repro.sim.runner import run_fluentps


def make_system(task, n_servers=4, sync=None):
    return ParameterServerSystem(
        task.spec, task.init_params, 4, n_servers, sync or ssp(2),
        ExecutionMode.LAZY, slicer=ElasticSlicer(chunk_elements=64), seed=0,
    )


def train(system, task, iters, seed):
    """Continue training on ``system`` (no network) for ``iters`` iterations."""
    cfg = no_network_config(4, ssp(2), iters, n_servers=system.n_servers, task=task, seed=seed)
    return run_fluentps(cfg, system)


@pytest.fixture
def task():
    return blobs_task(4, n_train=400, n_test=100, seed=1)


class TestResize:
    def test_parameters_preserved(self, task):
        system = make_system(task)
        train(system, task, 30, seed=1)
        before = system.current_params()
        system.resize(2)
        np.testing.assert_allclose(system.current_params(), before)
        assert system.n_servers == 2
        assert len(system.servers) == 2

    def test_training_continues_after_resize(self, task):
        system = make_system(task)
        train(system, task, 50, seed=1)
        acc_mid = task.eval_fn(system.current_params())
        system.resize(2)
        train(system, task, 80, seed=2)
        acc_end = task.eval_fn(system.current_params())
        assert acc_end > 0.4
        assert np.isfinite(system.current_params()).all()
        assert acc_end >= acc_mid - 0.15  # no catastrophic loss across stages

    def test_grow_and_shrink(self, task):
        system = make_system(task, n_servers=2)
        system.resize(5)
        assert system.n_servers == 5
        system.scheduler.assignment.validate_partition(task.spec)
        system.resize(3)
        system.scheduler.assignment.validate_partition(task.spec)

    def test_metrics_carried_across_stages(self, task):
        system = make_system(task)
        train(system, task, 20, seed=1)
        pushes_stage1 = system.merged_metrics().pushes
        system.resize(2)
        train(system, task, 20, seed=2)
        total = system.merged_metrics().pushes
        assert total == pushes_stage1 + 20 * 4 * 2

    def test_resize_requires_quiescence(self, task):
        system = make_system(task, sync=ssp(1))
        z = np.zeros(task.spec.total_elements)
        system.s_push(0, 0, z)
        system.s_push(0, 1, z)
        system.s_pull(0, 1, lambda r: None)  # buffered DPR
        with pytest.raises(RuntimeError, match="quiescence"):
            system.resize(2)

    def test_resize_rejects_model_lists(self, task):
        system = ParameterServerSystem(
            task.spec, task.init_params, 4, 2, [ssp(2), asp()],
            ExecutionMode.LAZY, seed=0,
        )
        with pytest.raises(ValueError, match="per-server model lists"):
            system.resize(3)

    def test_invalid_count(self, task):
        with pytest.raises(ValueError):
            make_system(task).resize(0)

    def test_resized_stages_draw_fresh_coin_streams(self, task):
        """A resized stage's shard streams differ from every earlier
        stage's, though ``SeedSequence`` zero-pads short keys: the bare
        ``("server", epoch, m)`` key would replay an epoch-0 stream."""
        system = make_system(task, n_servers=3)
        seen = [s.rng.random(4).tolist() for s in system.servers]
        for n_servers in (3, 2, 3):
            system.resize(n_servers)
            fresh = [s.rng.random(4).tolist() for s in system.servers]
            assert not any(draw in seen for draw in fresh)
            seen += fresh

    def test_moved_bytes_reported(self, task):
        system = make_system(task)
        moved = system.resize(2)
        assert moved >= 0
        assert system.scheduler.total_moved_bytes >= moved
