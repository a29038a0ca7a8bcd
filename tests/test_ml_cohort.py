"""Stacked steps are the per-worker steps, bit for bit.

``TrainingTask.steps`` runs B workers' steps as one stacked forward/backward
over a ``(B, P)`` parameter block.  Every cell compares its updates and
``loss_history`` byte for byte with :class:`PerWorkerOracle`, the
per-worker step as it was before the stacked form existed (a network and
an optimizer per worker, one ``np.matmul`` per layer), kept here frozen.
CI runs this file a second time under ``OPENBLAS_NUM_THREADS=1``, so the
identity holds in both BLAS threading modes.
"""

import numpy as np
import pytest

from repro.core.step import StepContext
from repro.ml.data import gaussian_blobs, synthetic_cifar10
from repro.ml.models_zoo import proxy_classifier
from repro.ml.optim import SGD
from repro.ml.training import TrainingTask
from repro.utils.rng import derive_rng

N_WORKERS = 32
BATCH = 4


class _FrozenSGD:
    """SGD's update as it was: momentum ``v = m * v + g`` out of place."""

    def __init__(self, sgd):
        self.sgd, self.v = sgd, None

    def update(self, grad, params, iteration):
        s, g = self.sgd, grad
        if s.momentum:
            self.v = np.zeros_like(g) if self.v is None else self.v
            self.v = s.momentum * self.v + g
            g = self.v
        return -s.lr * g


class PerWorkerOracle:
    """The per-worker ``step_fn``, frozen: each worker steps its own
    network and optimizer on its own minibatch stream."""

    def __init__(self, task):
        self.task, self.nets, self.opts, self.batches = task, {}, {}, {}
        self.loss_history = []

    def step(self, ctx):
        task, w = self.task, ctx.worker
        if w not in self.nets:
            self.nets[w] = task.build_net()
            self.opts[w] = _FrozenSGD(task.optimizer_factory())
            x, y = task.dataset.shard(w, task.n_workers)
            rng = derive_rng(task.seed, "batches", w)
            self.batches[w] = task.dataset.batches(rng, task.batch_size, x, y)
        net = self.nets[w]
        net.set_flat(ctx.params)
        xb, yb = next(self.batches[w])
        logits = net.forward(xb)
        n = len(yb)
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs = e / e.sum(axis=1, keepdims=True)
        self.loss_history.append(float(-np.log(probs[np.arange(n), yb] + 1e-12).mean()))
        probs[np.arange(n), yb] -= 1.0
        net.backward(probs / n)
        grads = np.concatenate([g.ravel() for layer in net.layers for g in layer.grads.values()])
        return self.opts[w].update(grads, ctx.params, ctx.iteration)


OPTIMIZERS = {
    "sgd": lambda: SGD(lr=0.1),
    "momentum": lambda: SGD(lr=0.1, momentum=0.9),
}


def make_task(data, optimizer, ragged, build_counter=None):
    """A 32-worker task.  ``ragged``: shards of 4 and 3 samples under a
    minibatch of 4, so workers 0-16 and 17-31 draw different shapes."""
    n_train = 8 * N_WORKERS + 17 if not ragged else 3 * N_WORKERS + 17
    if data == "blobs":
        ds = gaussian_blobs(n_classes=5, dim=12, n_train=n_train, n_test=20, seed=1)
        hidden = (16, 8)
    else:  # the CIFAR proxy's shapes: 3x16x16 images, Flatten, one hidden layer
        ds = synthetic_cifar10(n_train=n_train, n_test=20, seed=1, size=16)
        hidden = (48,)

    def build():
        if build_counter is not None:
            build_counter.append(1)
        return proxy_classifier(ds, hidden=hidden, seed=2)

    return TrainingTask(build, ds, N_WORKERS, batch_size=BATCH,
                        optimizer_factory=OPTIMIZERS[optimizer], seed=3)


def rounds(task, workers, n_rounds=3):
    """``n_rounds`` cohorts of ``workers``, each row at parameters of its own."""
    rng = derive_rng(9, "cohort", len(workers))
    for r in range(n_rounds):
        block = task.init_params + 0.05 * rng.normal(size=(len(workers), task.init_params.size))
        ctxs = [StepContext(w, r, row, derive_rng(0, "s", w)) for w, row in zip(workers, block)]
        yield ctxs, block


def spread(b):
    """``b`` workers spread over all 32, so a ragged task mixes shapes."""
    return [int(w) for w in np.linspace(0, N_WORKERS - 1, b)]


@pytest.mark.parametrize("ragged", [False, True], ids=["even", "ragged"])
@pytest.mark.parametrize("optimizer", sorted(OPTIMIZERS))
@pytest.mark.parametrize("data", ["blobs", "cifar"])
@pytest.mark.parametrize("b", [1, 3, 32])
def test_stacked_steps_are_the_per_worker_steps(b, data, optimizer, ragged):
    stacked = make_task(data, optimizer, ragged)
    oracle = PerWorkerOracle(make_task(data, optimizer, ragged))
    for ctxs, block in rounds(stacked, spread(b)):
        expected = np.stack([oracle.step(ctx) for ctx in ctxs])
        out = np.empty_like(block)
        assert stacked.steps(ctxs, block, out=out) is out
        assert out.tobytes() == expected.tobytes()
    assert np.array(stacked.loss_history).tobytes() == np.array(oracle.loss_history).tobytes()
    assert np.isfinite(stacked.loss_history).all()


@pytest.mark.parametrize("data", ["blobs", "cifar"])
def test_step_fn_is_the_one_row_case(data):
    task = make_task(data, "momentum", ragged=False)
    oracle = PerWorkerOracle(make_task(data, "momentum", ragged=False))
    for ctxs, _block in rounds(task, [5, 9]):
        for ctx in ctxs:
            assert task.step_fn(ctx).tobytes() == oracle.step(ctx).tobytes()
    assert task.loss_history == oracle.loss_history


def test_an_mlp_task_builds_no_network_per_worker():
    builds = []
    task = make_task("blobs", "momentum", ragged=True, build_counter=builds)
    for ctxs, block in rounds(task, spread(32)):
        task.steps(ctxs, block)
    assert len(builds) == 1  # the reference network, built at construction

