"""Glue between the ML substrate and the parameter-server runners.

A :class:`TrainingTask` packages a network architecture, a dataset, and an
optimizer into the pieces a runner needs: a :class:`ModelSpec` for
sharding, initial flat parameters, a per-worker ``StepFn`` (Algorithm 1's
``step(w)``), and an evaluation function.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

import numpy as np

from repro.core.keyspace import ModelSpec
from repro.core.step import StepContext
from repro.ml.data import Dataset
from repro.ml.loss import accuracy, softmax_cross_entropy
from repro.ml.network import Network
from repro.ml.optim import Optimizer, SGD
from repro.utils.rng import derive_rng


def evaluate(
    net: Network,
    x: np.ndarray,
    y: np.ndarray,
    batch_size: int = 512,
    train_mode: bool = False,
) -> float:
    """Classification accuracy over a full set, batched to bound memory.

    ``train_mode=True`` makes BatchNorm use batch statistics — needed when
    evaluating a BN network whose running stats were never trained
    centrally (each worker tracked its own)."""
    if len(x) == 0:
        raise ValueError("cannot evaluate on an empty set")
    correct = 0.0
    for start in range(0, len(x), batch_size):
        xb = x[start : start + batch_size]
        yb = y[start : start + batch_size]
        logits = net.forward(xb, train=train_mode)
        correct += accuracy(logits, yb) * len(xb)
    return correct / len(x)


class TrainingTask:
    """One data-parallel training job over N workers."""

    def __init__(
        self,
        build_net: Callable[[], Network],
        dataset: Dataset,
        n_workers: int,
        batch_size: int = 32,
        optimizer_factory: Optional[Callable[[Network], Optimizer]] = None,
        seed: int = 0,
        eval_subsample: Optional[int] = None,
        eval_train_mode: bool = False,
    ):
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.build_net = build_net
        self.dataset = dataset
        self.n_workers = n_workers
        self.batch_size = batch_size
        self.optimizer_factory = optimizer_factory or (lambda net: SGD(lr=0.1))
        self.seed = seed
        self.eval_train_mode = eval_train_mode

        self._ref_net = build_net()
        self.spec: ModelSpec = self._ref_net.model_spec(dataset.name)
        self.init_params: np.ndarray = self._ref_net.get_flat()

        self._worker_nets: Dict[int, Network] = {}
        self._worker_opts: Dict[int, Optimizer] = {}
        self._worker_batches: Dict[int, object] = {}
        self.loss_history: List[float] = []

        rng = derive_rng(seed, "eval")
        n_eval = dataset.n_test if eval_subsample is None else min(eval_subsample, dataset.n_test)
        idx = rng.permutation(dataset.n_test)[:n_eval]
        self._x_eval = dataset.x_test[idx]
        self._y_eval = dataset.y_test[idx]

    # -- per-worker lazy state --------------------------------------------

    def _worker_net(self, worker: int) -> Network:
        if worker not in self._worker_nets:
            self._worker_nets[worker] = self.build_net()
        return self._worker_nets[worker]

    def _worker_opt(self, worker: int) -> Optimizer:
        if worker not in self._worker_opts:
            self._worker_opts[worker] = self.optimizer_factory(self._worker_net(worker))
        return self._worker_opts[worker]

    def _worker_batch_iter(self, worker: int):
        if worker not in self._worker_batches:
            x, y = self.dataset.shard(worker, self.n_workers)
            rng = derive_rng(self.seed, "batches", worker)
            self._worker_batches[worker] = self.dataset.batches(rng, self.batch_size, x, y)
        return self._worker_batches[worker]

    # -- runner-facing pieces -----------------------------------------------

    def step_fn(self, ctx: StepContext) -> np.ndarray:
        """Algorithm 1 worker step: forward/backward on the worker's shard
        with its current (possibly stale) parameters; returns the update
        to push (server applies ``w += u/N``)."""
        net = self._worker_net(ctx.worker)
        net.set_flat(ctx.params)
        xb, yb = next(self._worker_batch_iter(ctx.worker))
        logits = net.forward(xb, train=True)
        loss, dlogits = softmax_cross_entropy(logits, yb)
        self.loss_history.append(loss)
        net.backward(dlogits)
        grad = net.get_flat_grads()
        return self._worker_opt(ctx.worker).update(grad, ctx.params, ctx.iteration)

    def eval_fn(self, params: np.ndarray) -> float:
        """Test accuracy of the given flat parameters."""
        net = self._ref_net
        net.set_flat(params)
        return evaluate(net, self._x_eval, self._y_eval, train_mode=self.eval_train_mode)

    def mean_recent_loss(self, window: int = 50) -> float:
        if not self.loss_history:
            raise ValueError("no steps taken yet")
        recent = self.loss_history[-window:]
        return float(np.mean(recent))
