"""Tests for the TrainingTask glue layer."""

import numpy as np
import pytest

from repro.bench.workloads import blobs_task
from repro.core.step import StepContext
from repro.ml.data import gaussian_blobs
from repro.ml.models_zoo import proxy_classifier
from repro.ml.optim import SGD
from repro.ml.training import TrainingTask, evaluate
from repro.utils.rng import derive_rng


@pytest.fixture
def task():
    ds = gaussian_blobs(n_classes=4, dim=8, n_train=400, n_test=100, seed=1)
    return TrainingTask(
        lambda: proxy_classifier(ds, hidden=(16,), seed=2),
        ds,
        n_workers=2,
        batch_size=16,
        optimizer_factory=lambda: SGD(lr=0.2, momentum=0.9),
        seed=3,
    )


class TestTrainingTask:
    def test_spec_matches_init_params(self, task):
        assert task.init_params.shape == (task.spec.total_elements,)

    def test_single_worker_loss_decreases(self, task):
        params = task.init_params.copy()
        rng = derive_rng(0, "t")
        for i in range(60):
            u = task.step_fn(StepContext(0, i, params, rng))
            params = params + u  # single worker: apply own update fully...
        early = np.mean(task.loss_history[:10])
        late = np.mean(task.loss_history[-10:])
        assert late < early * 0.7

    def test_step_returns_update_shape(self, task):
        u = task.step_fn(StepContext(0, 0, task.init_params.copy(), derive_rng(0, "u")))
        assert u.shape == task.init_params.shape
        assert np.isfinite(u).all()

    def test_worker_state_isolated(self, task):
        """A worker's updates (its momentum, its minibatch stream) are the
        same whether or not another worker's steps are interleaved with its
        own on the same task."""
        def worker0_updates(t, interleave):
            params, updates = t.init_params.copy(), []
            for i in range(4):
                updates.append(t.step_fn(StepContext(0, i, params, derive_rng(0, "a"))))
                if interleave:
                    t.step_fn(StepContext(1, i, params + 0.1, derive_rng(0, "b")))
                params = params + updates[-1]
            return np.stack(updates)

        twin = TrainingTask(task.build_net, task.dataset, 2, batch_size=16,
                            optimizer_factory=task.optimizer_factory, seed=3)
        alone, interleaved = worker0_updates(task, False), worker0_updates(twin, True)
        assert len(twin.loss_history) == 2 * len(task.loss_history)
        assert alone.tobytes() == interleaved.tobytes()

    def test_eval_fn_range(self, task):
        acc = task.eval_fn(task.init_params)
        assert 0.0 <= acc <= 1.0

    def test_eval_improves_after_training(self, task):
        params = task.init_params.copy()
        rng = derive_rng(0, "t2")
        acc0 = task.eval_fn(params)
        for i in range(120):
            params = params + task.step_fn(StepContext(0, i, params, rng))
        assert task.eval_fn(params) > acc0 + 0.1

    def test_invalid_config(self):
        ds = gaussian_blobs(n_train=20, n_test=10)
        with pytest.raises(ValueError):
            TrainingTask(lambda: None, ds, n_workers=0)
        with pytest.raises(ValueError):
            TrainingTask(lambda: None, ds, n_workers=1, batch_size=0)

    def test_fewer_samples_than_workers_refused(self):
        """A worker with an empty shard would train on empty minibatches
        and record NaN losses."""
        with pytest.raises(ValueError, match="non-empty shard"):
            blobs_task(8, n_train=4)
        assert blobs_task(4, n_train=4).n_workers == 4


class TestEvaluate:
    def test_batched_equals_full(self, rng):
        ds = gaussian_blobs(n_classes=3, dim=4, n_train=50, n_test=64, seed=1)
        net = proxy_classifier(ds, hidden=(8,), seed=2)
        a = evaluate(net, ds.x_test, ds.y_test, batch_size=7)
        b = evaluate(net, ds.x_test, ds.y_test, batch_size=1000)
        assert a == pytest.approx(b)

    def test_empty_rejected(self, rng):
        ds = gaussian_blobs(n_train=20, n_test=10)
        net = proxy_classifier(ds, hidden=(4,))
        with pytest.raises(ValueError):
            evaluate(net, ds.x_test[:0], ds.y_test[:0])
