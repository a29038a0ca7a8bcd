"""Schedule, then math: a real-gradient run as its timing run plus a
replayed apply log.

Staleness changes a result only through *when* each gradient is applied
relative to the version it was computed on (Algorithm 1).  The simulated
runner (:mod:`repro.sim.runner`) runs every job timing-only and records a
:class:`ScheduleLog`; a :class:`Replay` does the math, bit for bit that of
a run applying each push as its shard handles it, catching up whenever
the timing reads a value (DESIGN.md, "Schedule, then math").
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.api import ParameterServerSystem
from repro.core.conditions import declared_together
from repro.core.pssp import gradient_significance
from repro.core.server import ApplyInfo, ShardServer
from repro.core.step import StepContext
from repro.utils.rng import derive_rng


@dataclass
class ScheduleLog:
    """What a timing run records for its :class:`Replay`."""

    first: List[int]  #: each worker's first iteration
    start: List[int]  #: each shard's version when the run began
    #: Per shard: the pushes it handled, in handle order, as
    #: ``(worker, iteration, v_train at the apply)``.
    applies: List[List[Tuple[int, int, int]]]
    #: ``reads[w, k, m]``: the version of shard ``m`` worker ``w``'s step
    #: ``first[w] + k + 1`` reads (SpecSync's refresh rewrites it); -1: none,
    #: it reads its own writes, its last parameters + its last update / ``own_scale``.
    reads: np.ndarray
    #: ``(worker, iteration)`` of every step, in the order they were taken.
    steps: List[Tuple[int, int]]
    #: Worker 0's evaluations: how many steps preceded each, and the version
    #: of every shard at that instant.
    evals: List[Tuple[int, List[int]]]
    own_scale: int = 1

    @classmethod
    def begin(cls, servers: Sequence[ShardServer], first: List[int], iterations: int):
        """An empty log for a run of ``iterations`` per worker on ``servers``."""
        return cls(
            first, [s.version for s in servers], [[] for _ in servers],
            np.full((len(first), iterations, len(servers)), -1, dtype=np.int64), [], [],
        )


class _Shard:
    """One shard's parameters, taken from its server, as the replay
    advances them along its apply log, with the snapshots some step or
    evaluation still reads.  A version is copied only when the shard moves
    past it with readers left; a reader at the current version reads the
    live array (every reader copies what it reads: ``gather_into``)."""

    __slots__ = ("server", "params", "version", "applies", "cursor", "grads", "readers",
                 "snaps", "last")

    def __init__(self, server: ShardServer, params: np.ndarray, start: int, applies):
        self.server = server
        self.params = params
        self.version = start
        self.applies = applies
        self.cursor = 0
        self.grads: Dict[Tuple[int, int], np.ndarray] = {}  #: pushed, not yet applied
        self.readers: Counter = Counter()  #: version -> reads still to serve
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
            if readers[at] > 0 and at not in snaps:
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
        elif version < self.version and version not in self.snaps:
            raise RuntimeError(f"shard {self.server.shard_id}: version {version} was not kept")
        self.readers[version] -= 1
        if self.readers[version] > 0:
            return self.snaps.get(version, self.params)
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


class Replay:
    """``log``'s math with ``task`` on ``system``'s shards, whose arrays it
    takes at once (``defer_values``) and hands back at :meth:`finish`,
    leaving plain timing-only shards meanwhile.  Each shard applies its log
    in order; a version is copied only when its shard moves past it with a
    logged step or evaluation, or a worker's next step, still to read it.
    ``seed`` keys the step streams, ``(seed, "step", w)``; ``filters``
    (one per worker) run on each update, in step order, when one reads
    values.  Steps are taken a :func:`cohorts` at a time: a stock task in
    one ``steps`` call over one parameter block, any other one ``step_fn``
    call per step."""

    def __init__(self, system: ParameterServerSystem, task, log: ScheduleLog, seed: int,
                 filters: Sequence = ()):
        self.task, self.log, self.layout = task, log, system.layout
        self.shards = []
        for m, server in enumerate(system.servers):
            params = server.defer_values(partial(self.significance, m))
            self.shards.append(_Shard(server, params, log.start[m], log.applies[m]))
        self.rngs = [derive_rng(seed, "step", w) for w in range(system.n_workers)]
        self.filters = filters if any(f.reads_values for f in filters) else ()
        self.first = np.array(log.first)
        #: The version step ``(w, i)``'s push makes at shard ``m`` (max: not yet).
        self.made = np.full(log.reads.shape, np.iinfo(np.int64).max, dtype=np.int64)
        self.indexed = [0] * len(self.shards)  #: applies entered into :attr:`made`
        self.taken = np.zeros(len(log.first), dtype=np.int64)  #: steps taken, per worker
        self.done = 0  #: steps taken
        self.values: List[float] = []  #: worker 0's evaluations, in order
        #: A worker's last ``(params, update)`` while its next step may read its own writes.
        self.mine: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        self.factors: Dict[int, float] = {}  #: step -> its filtered push's wire factor
        self.stacks = declared_together(task, "steps", "step_fn")
        self.block = self.updates = None

    def significance(self, m: int) -> float:
        """|g|/|w| of shard ``m``'s last handled push, as ``handle_push``
        computes it on a live shard, once the replay has caught up to it."""
        shard = self.shards[m]
        version = shard.server.version
        if shard.version < version:
            self.advance(len(self.log.steps))
            shard.reach(version)
        if shard.last is None:
            return shard.server.last_significance
        return gradient_significance(float(np.linalg.norm(shard.last)),
                                     float(np.linalg.norm(shard.params)))

    def wire_factor(self, k: int) -> float:
        """The wire factor of step ``k``'s (the last logged) filtered push."""
        if self.filters:
            self.advance(k + 1)
        return self.factors.pop(k, 1.0)

    def advance(self, to: int) -> None:
        """Take the logged steps up to step ``to``, a cohort at a time, and
        the evaluations due up to there."""
        start, log, first, end = self.done, self.log, self.first, len(self.log.steps)
        for m, applies in enumerate(log.applies):
            at = self.indexed[m]
            if at < len(applies):
                aw, ai, _ = np.array(applies[at:], dtype=np.int64).T
                self.made[aw, ai - first[aw], m] = log.start[m] + 1 + at + np.arange(len(aw))
                self.indexed[m] = len(applies)
        workers, iters = np.array(log.steps[start:end], dtype=np.int64).reshape(-1, 2).T
        offset = iters - first[workers]
        reads = np.where((offset > 0)[:, None], log.reads[workers, offset - 1], log.start)
        # Readers: logged steps not taken, each worker's next step, evaluations.
        logged = self.taken + np.bincount(workers, minlength=len(self.taken))
        going = np.flatnonzero(logged < log.reads.shape[1])
        nxt = logged[going]
        ahead = np.where((nxt > 0)[:, None], log.reads[going, nxt - 1], log.start)
        evals = [versions for _, versions in log.evals[len(self.values):]]
        for m, shard in enumerate(self.shards):
            shard.readers = Counter(reads[:, m].tolist() + ahead[:, m].tolist()
                                    + [versions[m] for versions in evals])
            for version in [v for v in shard.snaps if v not in shard.readers]:
                del shard.snaps[version]  # a replaced read's
        if start < to:
            workers, offset = workers[: to - start], offset[: to - start]
            self.taken += np.bincount(workers, minlength=len(self.taken))
            due = [at - start for at, _ in log.evals[len(self.values):] if at < to]
            bounds = cohorts(workers.tolist(), reads[: to - start], self.made[workers, offset], due)
            size = max(b - a for a, b in bounds)
            if self.stacks and (self.block is None or len(self.block) < size):
                self.block = np.empty((size, self.layout.total_elements))
                self.updates = np.empty_like(self.block)
            for a, b in bounds:
                self._evaluate(start + a)
                self._step(start + a, start + b, reads[a:b].tolist())
            self.done = to
        self._evaluate(to)

    def _evaluate(self, at: int) -> None:
        """Worker 0's evaluations logged after at most ``at`` steps, in order."""
        evals, values = self.log.evals, self.values
        while len(values) < len(evals) and evals[len(values)][0] <= at:
            flat = np.empty(self.layout.total_elements)
            values.append(self.task.eval_fn(self._gather(evals[len(values)][1], flat)))

    def _gather(self, versions, flat: np.ndarray) -> np.ndarray:
        for m, shard in enumerate(self.shards):
            self.layout.gather_into(flat, m, shard.read(versions[m]))
        return flat

    def _step(self, start: int, stop: int, reads: List[List[int]]) -> None:
        """Steps ``start`` to ``stop``, one cohort, reading ``reads``."""
        log, layout, mine = self.log, self.layout, self.mine
        params = (self.block[: stop - start] if self.stacks
                  else np.empty((stop - start, layout.total_elements)))
        ctxs = []
        for (w, i), read, flat in zip(log.steps[start:stop], reads, params):
            if min(read) < 0:  # no read: its own writes
                cache, update = mine.pop(w)
                np.add(cache, update / log.own_scale, out=flat)
            else:
                mine.pop(w, None)
                self._gather(read, flat)
            ctxs.append(StepContext(worker=w, iteration=i, params=flat, rng=self.rngs[w]))
        if self.stacks:
            out = self.task.steps(ctxs, params, out=self.updates[: len(ctxs)])
        else:
            out = [self.task.step_fn(ctx) for ctx in ctxs]
        for k, ctx, update in zip(range(start, stop), ctxs, out):
            w, i = ctx.worker, ctx.iteration
            if self.filters:
                filtered = self.filters[w].apply(update, ctx.params, i)
                update, self.factors[k] = filtered.update, filtered.wire_bytes_factor
            row = i - log.first[w]
            if row + 1 < log.reads.shape[1] and (log.reads[w, row] < 0).any():
                mine[w] = (ctx.params.copy(), update.copy())  # its next read is not logged
            for shard, piece in zip(self.shards, layout.scatter(update)):
                shard.grads[(w, i)] = piece

    def finish(self) -> List[float]:
        """Advance to the end of the log, hand every shard its parameters
        back, and return worker 0's evaluations in order."""
        self.advance(len(self.log.steps))
        for shard in self.shards:
            server = shard.server
            shard.reach(server.version)
            if shard.cursor != len(shard.applies) or shard.grads:
                raise RuntimeError(f"shard {server.shard_id}: pushes past the run's end")
            server.handle_replayed(shard.params)
        return self.values
