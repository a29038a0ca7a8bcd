"""Schedule, then math: a real-gradient run as its timing run plus a
replayed apply log.

Staleness changes a result only through *when* each gradient is applied
relative to the version it was computed on (Algorithm 1).  Unless a pull
or push condition or a push filter reads parameter values (each declares
so: ``reads_values``), a run's timing is therefore that of the same run
timing-only.  The simulated runner (:mod:`repro.sim.runner`) runs such a
job timing-only first, its shards standing in for their parameters
(:meth:`~repro.core.server.ShardServer.defer_values`), and records a
:class:`ScheduleLog`; :func:`replay` then does the math once.  Every
float is the one a run that applies each push as its shard handles it
produces (DESIGN.md, "Schedule, then math").
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.api import ParameterServerSystem
from repro.core.pssp import gradient_significance
from repro.core.server import ApplyInfo, ShardServer
from repro.core.step import StepContext
from repro.utils.rng import derive_rng


@dataclass
class ScheduleLog:
    """What a timing run records for :func:`replay`."""

    first: List[int]  #: each worker's first iteration
    start: List[int]  #: each shard's version when the run began
    #: Per shard: the pushes it handled, in handle order, as
    #: ``(worker, iteration, v_train at the apply)``.
    applies: List[List[Tuple[int, int, int]]]
    #: ``reads[w, i - first[w], m]``: the version of shard ``m`` that
    #: worker ``w``'s pull at iteration ``i`` read (``PullReply.version``).
    reads: np.ndarray
    #: ``(worker, iteration)`` of every step, in the order they were taken.
    steps: List[Tuple[int, int]]
    #: Worker 0's evaluations: how many steps preceded each, and the version
    #: of every shard at that instant.
    evals: List[Tuple[int, List[int]]]

    @classmethod
    def begin(cls, servers: Sequence[ShardServer], first: List[int], iterations: int):
        """An empty log for a run of ``iterations`` per worker on ``servers``."""
        return cls(
            first, [s.version for s in servers], [[] for _ in servers],
            np.zeros((len(first), iterations, len(servers)), dtype=np.int64), [], [],
        )


class _Shard:
    """One shard's deferred parameters as the replay advances them along
    its apply log, with the snapshots some step or evaluation still reads.
    A version is copied only when the shard moves past it with readers
    left; a reader at the current version reads the live array (every
    reader copies what it reads: ``gather_into``)."""

    __slots__ = ("server", "params", "version", "applies", "cursor", "grads", "readers",
                 "snaps", "last")

    def __init__(self, server: ShardServer, start: int, applies, readers: Dict[int, int]):
        self.server = server
        self.params = server.deferred
        self.version = start
        self.applies = applies
        self.cursor = 0
        self.grads: Dict[Tuple[int, int], np.ndarray] = {}  #: pushed, not yet applied
        self.readers = readers  #: version -> reads still to serve
        self.snaps: Dict[int, np.ndarray] = {}
        self.last: Optional[np.ndarray] = None  #: the last applied push

    def reach(self, version: int) -> None:
        """Apply the log up to ``version``, each push as its shard did."""
        server, params, grads, readers, snaps = (
            self.server, self.params, self.grads, self.readers, self.snaps
        )
        apply_fn, n = server.apply_fn, server.n_workers
        at, cursor = self.version, self.cursor
        for w, i, v_train in self.applies[cursor : cursor + version - at]:
            if at in readers and at not in snaps:
                snaps[at] = params.copy()
            grad = grads.pop((w, i), None)
            if grad is None:
                raise RuntimeError(
                    f"shard {server.shard_id}: version {at + 1} applies worker {w}'s "
                    f"iteration {i} before its step (the log reads ahead of the schedule)"
                )
            apply_fn(params, grad, ApplyInfo(w, i, v_train, n))
            self.last = grad
            at += 1
        self.cursor += at - self.version
        self.version = at
        if at < version:
            raise RuntimeError(
                f"shard {server.shard_id}: the apply log ends at version {at}, "
                f"a reader needs {version}"
            )

    def read(self, version: int) -> np.ndarray:
        """The parameters at ``version``, for a reader that copies them at
        once; a snapshot is freed after its last reader."""
        if version > self.version:
            self.reach(version)
        left = self.readers[version] - 1
        if left:
            self.readers[version] = left
            return self.snaps.get(version, self.params)
        del self.readers[version]
        return self.snaps.pop(version, self.params)


def cohorts(workers: Sequence[int], reads: np.ndarray, pushed: np.ndarray,
            evals: Sequence[int]) -> List[Tuple[int, int]]:
    """Cut the steps into cohorts, ``[(start, stop), ...]`` in step order.

    A cohort is a run of consecutive steps of distinct workers, with no
    evaluation due between two of them, none of which reads a version a
    push of an earlier member makes: ``reads[k, m]`` (the version step
    ``k`` reads of shard ``m``) stays below ``pushed[j, m]`` (the version
    step ``j``'s push makes there) for every earlier member ``j``.  Every
    read of a cohort is then made by steps before it, so its members may
    read first and step together (DESIGN.md, "Cohort steps").
    """
    bounds: List[Tuple[int, int]] = []
    start, members, low = 0, set(), None
    due = set(evals)
    for k, (w, read, push) in enumerate(zip(workers, reads.tolist(), pushed.tolist())):
        if k > start and (
            w in members or k in due or any(r >= v for r, v in zip(read, low))
        ):
            bounds.append((start, k))
            start, members, low = k, set(), None
        members.add(w)
        low = push if low is None else [min(a, b) for a, b in zip(low, push)]
    if workers:
        bounds.append((start, len(workers)))
    return bounds


def _stacks(task) -> bool:
    """Whether ``task``'s steps may run a cohort at a time: its ``step_fn``
    is the one-row case of its ``steps`` (both defined by one class), not
    replaced on the instance."""
    def owner(name):
        return next((c for c in type(task).__mro__ if name in vars(c)), None)

    return (owner("steps") is not None and owner("step_fn") is owner("steps")
            and "step_fn" not in getattr(task, "__dict__", {}))


def replay(system: ParameterServerSystem, task, log: ScheduleLog, seed: int) -> List[float]:
    """Do ``log``'s math with ``task`` on ``system``'s deferred shards and
    hand each its parameters back; returns worker 0's evaluations in order.

    Step ``(w, i)`` reads the versions its previous pull read (its first
    step, the run's start), each shard applies its log in order, and a
    snapshot is materialised only at a version some step or evaluation
    reads.  ``seed`` keys the per-worker step streams, ``(seed, "step", w)``.
    The steps are taken a :func:`cohorts` at a time: a stock task
    (:meth:`~repro.ml.training.TrainingTask.steps`) in one call over one
    parameter and one update block, any other one ``step_fn`` call per step.
    """
    servers, layout = system.servers, system.layout
    first = np.array(log.first)
    workers = np.array([w for w, _ in log.steps], dtype=np.int64)
    offset = np.array([i for _, i in log.steps], dtype=np.int64) - first[workers]
    before = offset - 1
    # The versions each step reads, one row per step.
    reads = np.empty((len(log.steps), len(servers)), dtype=np.int64)
    reads[:] = log.start
    pulled = before >= 0
    reads[pulled] = log.reads[workers[pulled], before[pulled]]
    shards = []
    for m, server in enumerate(servers):
        readers = Counter(reads[:, m].tolist() + [versions[m] for _, versions in log.evals])
        shards.append(_Shard(server, log.start[m], log.applies[m], dict(readers)))

    def gather(versions, flat=None) -> np.ndarray:
        flat = np.empty(layout.total_elements) if flat is None else flat
        for m, shard in enumerate(shards):
            layout.gather_into(flat, m, shard.read(versions[m]))
        return flat

    # The version each step's push makes at each shard (past every read
    # when the log holds no such apply).
    step_at = np.full(log.reads.shape[:2], -1, dtype=np.int64)
    step_at[workers, offset] = np.arange(len(log.steps))
    pushed = np.full(reads.shape, np.iinfo(np.int64).max, dtype=np.int64)
    for m, applies in enumerate(log.applies):
        if applies:
            aw, ai, _ = np.array(applies, dtype=np.int64).T
            k = step_at[aw, ai - first[aw]]
            pushed[k[k >= 0], m] = log.start[m] + 1 + np.flatnonzero(k >= 0)
    bounds = cohorts(workers.tolist(), reads, pushed, [at for at, _ in log.evals])
    stacks, n_params = _stacks(task), layout.total_elements
    if stacks:  # one parameter and one update block for the whole replay
        block = np.empty((max((b - a for a, b in bounds), default=0), n_params))
        updates = np.empty_like(block)

    rngs = [derive_rng(seed, "step", w) for w in range(system.n_workers)]
    values: List[float] = []
    evals = iter(log.evals)
    due = next(evals, None)
    versions = reads.tolist()
    for start, stop in bounds:
        while due is not None and due[0] <= start:
            values.append(task.eval_fn(gather(due[1])))
            due = next(evals, None)
        params = block[: stop - start] if stacks else np.empty((stop - start, n_params))
        ctxs = [
            StepContext(worker=w, iteration=i, params=gather(versions[k], flat), rng=rngs[w])
            for k, (w, i), flat in zip(range(start, stop), log.steps[start:stop], params)
        ]
        if stacks:
            out = task.steps(ctxs, params, out=updates[: len(ctxs)])
        else:
            out = [task.step_fn(ctx) for ctx in ctxs]
        for ctx, update in zip(ctxs, out):
            for shard, piece in zip(shards, layout.scatter(update)):
                shard.grads[(ctx.worker, ctx.iteration)] = piece
    while due is not None:
        values.append(task.eval_fn(gather(due[1])))
        due = next(evals, None)
    for shard in shards:
        server = shard.server
        shard.reach(shard.version + len(shard.applies) - shard.cursor)
        if shard.version != server.version or shard.grads:
            raise RuntimeError(
                f"shard {server.shard_id}: the apply log reaches version {shard.version} "
                f"with {len(shard.grads)} push(es) unapplied, the run ended at {server.version}"
            )
        significance = None
        if shard.last is not None:
            significance = gradient_significance(
                float(np.linalg.norm(shard.last)), float(np.linalg.norm(shard.params))
            )
        server.handle_replayed(significance)
    return values
