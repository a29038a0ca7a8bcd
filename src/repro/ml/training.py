"""Glue between the ML substrate and the parameter-server runners.

A :class:`TrainingTask` packages a network architecture, a dataset, and an
optimizer into the pieces a runner needs: a :class:`ModelSpec` for
sharding, initial flat parameters, a per-worker ``StepFn`` (Algorithm 1's
``step(w)``), and an evaluation function.

``TrainingTask.steps`` takes B workers' steps at once; ``step_fn`` is its
one-row case.  The steps run as one stacked forward/backward over a
``(B, P)`` parameter block (:meth:`repro.ml.network.Sequential.stacked_forward`),
each row bit for bit the step it would take alone.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.core.keyspace import ModelSpec
from repro.core.step import StepContext
from repro.ml.data import Dataset
from repro.ml.loss import accuracy, stacked_softmax_cross_entropy
from repro.ml.network import Sequential
from repro.ml.optim import Optimizer, SGD
from repro.utils.rng import derive_rng


def evaluate(net: Sequential, x: np.ndarray, y: np.ndarray, batch_size: int = 512) -> float:
    """Classification accuracy over a full set, batched to bound memory."""
    if len(x) == 0:
        raise ValueError("cannot evaluate on an empty set")
    correct = 0.0
    for start in range(0, len(x), batch_size):
        xb = x[start : start + batch_size]
        yb = y[start : start + batch_size]
        logits = net.forward(xb)
        correct += accuracy(logits, yb) * len(xb)
    return correct / len(x)


class TrainingTask:
    """One data-parallel training job over N workers."""

    def __init__(
        self,
        build_net: Callable[[], Sequential],
        dataset: Dataset,
        n_workers: int,
        batch_size: int = 32,
        optimizer_factory: Optional[Callable[[], Optimizer]] = None,
        seed: int = 0,
    ):
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if dataset.n_train < n_workers:
            raise ValueError(
                f"{dataset.n_train} training samples cannot give each of "
                f"{n_workers} workers a non-empty shard"
            )
        self.build_net = build_net
        self.dataset = dataset
        self.n_workers = n_workers
        self.batch_size = batch_size
        self.optimizer_factory = optimizer_factory or (lambda: SGD(lr=0.1))
        self.seed = seed

        self._ref_net = build_net()
        self.spec: ModelSpec = self._ref_net.model_spec(dataset.name)
        self.init_params: np.ndarray = self._ref_net.get_flat()

        self._worker_opts: Dict[int, Optimizer] = {}
        self._worker_batches: Dict[int, object] = {}
        self.loss_history: List[float] = []

        idx = derive_rng(seed, "eval").permutation(dataset.n_test)
        self._x_eval = dataset.x_test[idx]
        self._y_eval = dataset.y_test[idx]

    # -- per-worker lazy state --------------------------------------------

    def _worker_opt(self, worker: int) -> Optimizer:
        if worker not in self._worker_opts:
            self._worker_opts[worker] = self.optimizer_factory()
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
        return self.steps([ctx], ctx.params[None])[0]

    def steps(self, ctxs: Sequence[StepContext], block: np.ndarray,
              out: Optional[np.ndarray] = None) -> np.ndarray:
        """The steps of ``len(ctxs)`` distinct workers, row ``k`` of the
        ``(B, P)`` ``block`` holding ``ctxs[k]``'s parameters: returns their
        updates, row ``k`` for ``ctxs[k]``, written into ``out`` (a
        C-contiguous ``(B, P)`` block) when given.  Each row is the update
        ``ctxs[k]``'s step alone returns, and ``loss_history`` grows in
        ``ctxs`` order.  Workers whose minibatches differ in shape (shards
        one sample apart) stack in same-shape groups."""
        if out is None:
            out = np.empty(block.shape)
        batches = [next(self._worker_batch_iter(ctx.worker)) for ctx in ctxs]
        losses = np.empty(len(ctxs))
        shapes = [xb.shape for xb, _ in batches]
        for shape in dict.fromkeys(shapes):
            rows = [k for k, s in enumerate(shapes) if s == shape]
            if len(rows) == len(ctxs):
                losses[:] = self._stacked_grads(block, batches, out)
            else:
                grads = np.empty((len(rows), block.shape[1]))
                losses[rows] = self._stacked_grads(
                    block[rows], [batches[k] for k in rows], grads
                )
                out[rows] = grads
        self.loss_history.extend(losses.tolist())
        for k, ctx in enumerate(ctxs):
            out[k] = self._worker_opt(ctx.worker).update(out[k], block[k], ctx.iteration)
        return out

    def _stacked_grads(self, block: np.ndarray, batches, out: np.ndarray) -> np.ndarray:
        """One stacked forward/backward: each row's gradient into ``out``;
        returns the losses."""
        net = self._ref_net
        # np.array, not np.stack: a C-ordered copy, so Flatten needs no second one.
        logits, tape = net.stacked_forward(block, np.array([xb for xb, _ in batches]))
        losses, dlogits = stacked_softmax_cross_entropy(
            logits, np.array([yb for _, yb in batches])
        )
        net.stacked_backward(block, tape, dlogits, out)
        return losses

    def eval_fn(self, params: np.ndarray) -> float:
        """Test accuracy of the given flat parameters."""
        net = self._ref_net
        net.set_flat(params)
        return evaluate(net, self._x_eval, self._y_eval)
