"""The FluentPS shard server: Algorithm 1 with lazy/soft DPR execution.

Each :class:`ShardServer` owns one parameter shard and controls its own
synchronization — there is no central scheduler in the synchronization
path (the paper's first contribution).  The server is execution-agnostic:
it is driven by ``handle_push``/``handle_pull`` calls and answers pulls
through per-request ``respond`` callbacks, so the same code runs under the
discrete-event co-simulation, the real-thread runner, and direct unit
tests.

Progress conventions (see also :mod:`repro.core.conditions`):

- a worker that completed iteration ``i`` pushes ``g_i`` with
  ``progress = i`` and then pulls ``w_{i+1}`` with ``progress = i``;
- ``v_train`` is Algorithm 1's counter: the number of fully-completed
  iterations (every worker has pushed every iteration ``< v_train``);
- a pull is *delayed* (becomes a DPR) when the pull condition fails; DPRs
  are buffered keyed by the ``v_train`` value whose advance releases them:

  * **lazy execution** — key = ``progress``: the DPR is answered only once
    the slowest worker has caught up to the requester, so the returned
    parameters contain *all* gradients through ``progress`` (0 missing
    iterations, Figure 3b);
  * **soft barrier** — key = current ``v_train``: the DPR is re-examined
    at the very next frontier advance; if the pull condition still fails
    it is re-buffered, *counting as a new DPR* (the barrier re-forming).
    This is why Table IV reports soft-barrier DPR counts far above the
    number of pulls (up to 131× the lazy counts), and it answers the pull
    as soon as the condition holds — returning parameters that may still
    miss up to ``s`` iterations of slow workers' gradients (Figure 3a).
"""

from __future__ import annotations

import enum
import itertools
import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.conditions import PullCondition, PushCondition, SyncView
from repro.core.metrics import SyncMetrics
from repro.core.models import SyncModel
from repro.core.pssp import gradient_significance
from repro.obs import NULL_OBS, Observability, exponential_buckets
from repro.obs.export import ShardConstants


class ProtocolError(RuntimeError):
    """A worker violated the sPush/sPull protocol (e.g. out-of-order push)."""


#: Distinguishes server incarnations in one process: ``resize`` builds new
#: servers that reuse shard ids, so protocol event streams are keyed by a
#: unique ``uid`` rather than by shard id.
_SERVER_UIDS = itertools.count()


def _staleness_arg(s: float) -> Optional[float]:
    """JSON-safe staleness: ``None`` encodes ASP's unbounded threshold."""
    return None if math.isinf(s) else float(s)


class ExecutionMode(enum.Enum):
    """How delayed pull requests are executed (paper §III-C)."""

    LAZY = "lazy"
    SOFT_BARRIER = "soft"

    @classmethod
    def _missing_(cls, value: object) -> None:
        raise ValueError(
            f"execution must be an ExecutionMode or one of {[m.value for m in cls]}, "
            f"got {value!r}"
        )


@dataclass(slots=True)
class PullReply:
    """What a worker receives in answer to an sPull."""

    worker: int
    progress: int
    version: int  # server-side update counter at response time
    v_train: int  # frontier at response time
    missing: int  # slow-worker gradient iterations absent from the shard
    waited: float  # sim-seconds the request spent buffered (0 if immediate)
    shard: int = -1  # the answering shard's id


@dataclass(slots=True)
class _BufferedPull:
    worker: int
    progress: int
    respond: Callable[[PullReply], None]
    enqueue_time: float
    blocked_probabilistically: bool = False


@dataclass(slots=True)
class ApplyInfo:
    """Context handed to a server-side apply function."""

    worker: int
    progress: int
    v_train: int
    n_workers: int


def default_apply(params: np.ndarray, contribution: np.ndarray, info: ApplyInfo) -> None:
    """Algorithm 1 line 15: ``w ← w + g / N`` (in place)."""
    params += contribution / info.n_workers


class ShardServer:
    """One parameter server node managing one shard (Algorithm 1)."""

    def __init__(
        self,
        shard_id: int,
        n_workers: int,
        model: SyncModel,
        execution: ExecutionMode = ExecutionMode.LAZY,
        params: Optional[np.ndarray] = None,
        apply_fn: Callable[[np.ndarray, np.ndarray, ApplyInfo], None] = default_apply,
        clock: Optional[Callable[[], float]] = None,
        rng: Optional[np.random.Generator] = None,
        metrics: Optional[SyncMetrics] = None,
        obs: Optional[Observability] = None,
    ):
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        self.shard_id = shard_id
        self.n_workers = n_workers
        self.model = model
        self.execution = ExecutionMode(execution)
        #: The live shard array (``None``: a timing-only shard).
        self.params = params
        self.apply_fn = apply_fn
        self.clock = clock or (lambda: 0.0)
        self.rng = rng or np.random.default_rng(0)
        self.metrics = metrics or SyncMetrics()
        # Observability: bound (label-resolved) handles, and every
        # emission — including bound-handle updates — gated on one cached
        # bool, so the disabled hot path pays a single attribute load and
        # branch per event.  ``enabled`` is a class constant on the
        # bundle, so caching it at construction is safe.
        self.obs = obs or NULL_OBS
        self._obs_on = self.obs.enabled
        reg = self.obs.registry
        self.actor = f"server{shard_id}"
        self._c_pushes = reg.counter("ps_pushes_total", "gradient pushes applied").labels(
            shard=shard_id
        )
        self._c_pulls = reg.counter("ps_pulls_total", "sPull requests handled").labels(
            shard=shard_id
        )
        self._c_dprs = reg.counter(
            "ps_dprs_total", "pulls buffered as delayed pull requests"
        ).labels(shard=shard_id)
        self._c_advances = reg.counter(
            "ps_frontier_advances_total", "V_train increments"
        ).labels(shard=shard_id)
        self._g_frontier = reg.gauge("ps_frontier", "V_train frontier per shard").labels(
            shard=shard_id
        )
        self._h_wait = reg.histogram(
            "ps_dpr_wait_seconds", "time answered pulls spent buffered"
        ).labels(shard=shard_id)
        self._h_staleness = reg.histogram(
            "ps_staleness_iters",
            "missing iterations in answered pulls",
            buckets=exponential_buckets(1.0, 2.0, 10),
        ).labels(shard=shard_id)
        self._q_wait = reg.sketch(
            "ps_dpr_wait_quantiles",
            "DPR buffer wait seconds (mergeable quantile sketch)",
        ).labels(shard=shard_id)

        # Per-server condition instances: each server independently adjusts
        # its synchronization scheme (mutable state like DSPS's threshold
        # or PSSP's coin counters lives here, not in the shared model).
        self.pull_con: PullCondition = model.make_pull()
        self.push_con: PushCondition = model.make_push()

        self.v_train = 0
        self.version = 0
        self.count: Dict[int, int] = defaultdict(int)
        self.callbacks: Dict[int, List[_BufferedPull]] = defaultdict(list)
        self.worker_progress: List[int] = [-1] * n_workers  # last pushed iteration
        self.last_pull_progress: List[int] = [-1] * n_workers  # last accepted pull
        #: Significance of the latest applied gradient (PSSP dynamic-c input).
        self.last_significance = 0.0
        # Incremental fastest/slowest over ``worker_progress``: at 10k
        # workers the per-view ``max(wp)``/``min(wp)`` scans dominate the
        # macro run.  ``_fastest`` is a monotone max; ``_slowest`` tracks
        # the min with a membership count, rescanning only when the last
        # worker leaves the minimum (amortized O(1) per push).
        self._fastest = -1
        self._slowest = -1
        self._n_at_slowest = n_workers
        #: Worker whose push is currently being applied; DPR releases
        #: happen inside ``handle_push`` -> ``_try_advance``, so this names
        #: the straggler that each released pull was waiting on (-1 when
        #: idle or the release came from ``handle_pull`` itself).
        self._releasing_worker = -1
        # Protocol event stream (repro.analysis): unique incarnation id and
        # a lazily-emitted config event so the sanitizer can replay runs.
        self.uid = next(_SERVER_UIDS)
        self._config_log: Optional[object] = None
        # One mutable SyncView reused for every condition evaluation:
        # views are consumed synchronously inside handle_push/handle_pull
        # and never retained (the class contract is "read-only state a
        # condition may inspect"), so rebuilding a fresh instance per
        # request — two per pull at incast rates — is pure allocator churn.
        self._view_scratch = SyncView(
            progress=0,
            worker=-1,
            v_train=0,
            n_workers=n_workers,
            count=self.count,
            fastest=-1,
            slowest=-1,
            significance=0.0,
            rng=self.rng,
        )

    # -- views ------------------------------------------------------------

    def _view(self, progress: int, worker: int) -> SyncView:
        v = self._view_scratch
        v.progress = progress
        v.worker = worker
        v.v_train = self.v_train
        v.fastest = self._fastest
        v.slowest = self._slowest
        v._significance = self.last_significance
        v.rng = self.rng
        return v

    @property
    def buffered_pulls(self) -> int:
        return sum(len(v) for v in self.callbacks.values())

    # -- protocol event stream (consumed by repro.analysis) -----------------

    def emit_config(self) -> None:
        """Emit a ``server_config`` instant before this incarnation's first
        protocol event in each capture (lazily: servers may be built before
        a run capture begins, and one server may span several captures —
        e.g. two driver runs — so the config re-leads every stream).  The
        event carries a snapshot of the protocol state so the sanitizer can
        bootstrap its replay for streams that start mid-life.  The request
        handlers call this themselves; the round collapse calls it where
        the shard's first request of a columnar block would have."""
        if not self._obs_on:
            return
        log = self.obs.instants
        if log is self._config_log:
            return
        self._config_log = log
        log.record(
            "server_config", self.clock(), actor=self.actor,
            uid=self.uid, shard=self.shard_id, n_workers=self.n_workers,
            model=self.model.name, execution=self.execution.value,
            pull_kind=self.pull_con.kind,
            s=_staleness_arg(self.pull_con.staleness()),
            quorum=self.push_con.quorum(self.n_workers),
            pssp_c=self.pull_con.pssp_c(),
            v_train=self.v_train,
            worker_progress=list(self.worker_progress),
            count={str(k): int(v) for k, v in self.count.items()},
        )

    def block_constants(self) -> ShardConstants:
        """What this shard's rows of a columnar instant block share — the
        constant arguments its ``record_protocol`` sites pass per event."""
        return ShardConstants(
            actor=self.actor, uid=self.uid, shard=self.shard_id,
            kind=self.pull_con.kind,
            s=_staleness_arg(self.pull_con.staleness()),
        )

    def install_conditions(
        self,
        pull: Optional[PullCondition] = None,
        push: Optional[PushCondition] = None,
    ) -> None:
        """Install new pull/push conditions (the SetcondPull/SetcondPush
        backends); re-arms the config event so the sanitizer sees the new
        protocol parameters from the next handled request on."""
        if pull is not None:
            self.pull_con = pull
        if push is not None:
            self.push_con = push
        self._config_log = None

    # -- Algorithm 1: PushHandler ------------------------------------------

    def handle_push(
        self,
        worker: int,
        progress: int,
        grad: Optional[np.ndarray] = None,
        significance: Optional[float] = None,
    ) -> None:
        """Apply a gradient push and advance the frontier if possible."""
        if not 0 <= worker < self.n_workers:
            raise ProtocolError(f"worker id {worker} out of range [0, {self.n_workers})")
        expected = self.worker_progress[worker] + 1
        if progress != expected:
            raise ProtocolError(
                f"worker {worker} pushed iteration {progress}, expected {expected} "
                f"(pushes must be sequential)"
            )
        if self._obs_on:
            # Config (with its state snapshot) must precede the push's own
            # mutations so a replay bootstrapped from it sees this push as
            # new work.
            self.emit_config()
            self.obs.instants.record_protocol(
                "push", self.clock(), self.actor,
                self.uid, self.shard_id, worker, progress, self.v_train,
            )
        self.worker_progress[worker] = progress
        if progress > self._fastest:
            self._fastest = progress
        if progress - 1 == self._slowest:  # this worker was at the minimum
            self._n_at_slowest -= 1
            if self._n_at_slowest == 0:
                wp = self.worker_progress
                self._slowest = min(wp)
                self._n_at_slowest = wp.count(self._slowest)

        if grad is not None and self.params is not None:
            if grad.shape != self.params.shape:
                raise ProtocolError(
                    f"gradient shape {grad.shape} != shard shape {self.params.shape}"
                )
            info = ApplyInfo(worker, progress, self.v_train, self.n_workers)
            self.apply_fn(self.params, grad, info)
            if significance is None:
                significance = gradient_significance(
                    float(np.linalg.norm(grad)), float(np.linalg.norm(self.params))
                )
        if significance is not None:
            self.last_significance = float(significance)
        self.version += 1
        self.count[progress] += 1
        self.metrics.record_push()
        if self._obs_on:
            self._c_pushes.inc()
        self._releasing_worker = worker
        try:
            self._try_advance()
        finally:
            self._releasing_worker = -1

    def _try_advance(self) -> None:
        """Advance the frontier while the push condition holds, flushing
        the DPRs buffered at each passed frontier value.

        Lazy execution buffers a DPR at key ``progress``, so its flush
        coincides with the slowest worker catching up — respond outright.
        The soft barrier buffers at the blocking-time ``v_train``; each
        advance re-evaluates the pull condition and re-buffers (a fresh
        DPR) if the barrier re-forms.
        """
        while True:
            view = self._view(self.v_train, -1)
            if not self.push_con(view):
                break
            flushed_key = self.v_train
            self.v_train += 1
            self.metrics.record_frontier_advance()
            if self._obs_on:
                self._c_advances.inc()
                self._g_frontier.set(self.v_train)
                self.obs.instants.record_protocol(
                    "frontier_advance", self.clock(), self.actor,
                    self.uid, self.v_train, self.shard_id,
                )
            for req in self.callbacks.pop(flushed_key, []):
                if self.execution is ExecutionMode.LAZY:
                    self._respond(
                        req.worker, req.progress, req.respond,
                        self.clock() - req.enqueue_time, released=True,
                    )
                    continue
                s_now = self.pull_con.staleness() if self._obs_on else None
                recheck = self._view(progress=req.progress, worker=req.worker)
                ok, flipped = self._eval_pull(recheck)
                if ok:
                    self._respond(
                        req.worker, req.progress, req.respond, self.clock() - req.enqueue_time,
                        released=True, s_at_eval=s_now, coin=flipped,
                    )
                else:
                    req.blocked_probabilistically = flipped
                    self.callbacks[self.v_train].append(req)
                    self.metrics.record_pull(immediate=False, iteration=req.progress)
                    if self._obs_on:
                        self._c_dprs.inc()
                        self._c_pulls.inc()
                        self.obs.instants.record(
                            "dpr_rebuffered", self.clock(), actor=self.actor,
                            uid=self.uid, worker=req.worker, progress=req.progress,
                            key=self.v_train, shard=self.shard_id,
                            v_train=self.v_train, s=_staleness_arg(s_now),
                        )

    # -- Algorithm 1: PullHandler --------------------------------------------

    def handle_pull(
        self,
        worker: int,
        progress: int,
        respond: Callable[[PullReply], None],
    ) -> bool:
        """Answer a pull now, or buffer it as a DPR.  Returns True when the
        response was immediate."""
        if not 0 <= worker < self.n_workers:
            raise ProtocolError(f"worker id {worker} out of range [0, {self.n_workers})")
        if progress > self.worker_progress[worker]:
            raise ProtocolError(
                f"worker {worker} pulled with progress {progress} before its "
                f"push for that iteration arrived (last push: "
                f"{self.worker_progress[worker]})"
            )
        if progress < self.last_pull_progress[worker]:
            raise ProtocolError(
                f"worker {worker} pulled with progress {progress} after already "
                f"pulling progress {self.last_pull_progress[worker]} "
                f"(pulls must not regress)"
            )
        self.last_pull_progress[worker] = progress
        if self._obs_on:
            self.emit_config()
            self.obs.instants.record_protocol(
                "pull_request", self.clock(), self.actor,
                self.uid, self.shard_id, worker, progress, self.v_train,
            )
        # The threshold is read *before* evaluation (DSPS adjusts it as an
        # evaluation side effect) but only observability consumes it.
        s_now = self.pull_con.staleness() if self._obs_on else None
        ok, flipped = self._eval_pull(self._view(progress, worker))
        if ok:
            self.metrics.record_pull(True, progress)
            if self._obs_on:
                self._c_pulls.inc()
            # Immediate: no buffer entry, waited 0.0, not a release.
            self._respond(worker, progress, respond, 0.0, False, s_now, flipped)
            return True
        # Delayed pull request: buffer keyed by the v_train value whose
        # advance will release it (Algorithm 1 lines 7-11).
        key = self._buffer_key(progress)
        self.callbacks[key].append(
            _BufferedPull(
                worker,
                progress,
                respond,
                enqueue_time=self.clock(),
                blocked_probabilistically=flipped,
            )
        )
        self.metrics.record_pull(immediate=False, iteration=progress)
        if self._obs_on:
            self._c_pulls.inc()
            self._c_dprs.inc()
            self.obs.instants.record_protocol(
                "dpr_buffered", self.clock(), self.actor,
                self.uid, worker, progress, key, self.shard_id, self.v_train,
                _staleness_arg(s_now),
            )
        return False

    def _eval_pull(self, view: SyncView) -> Tuple[bool, bool]:
        """Evaluate the pull condition, accounting PSSP coin decisions.

        Returns ``(ok, flipped)``: whether the pull may be answered, and
        whether an over-threshold probabilistic coin flip decided it — the
        sanitizer exempts coin-passed answers from the hard staleness
        bound, and a coin-paused pull marks its DPR as probabilistic.
        """
        con = self.pull_con
        flips_before = con.coin_flips
        ok = con(view)
        flipped = con.coin_flips > flips_before
        if flipped:
            self.metrics.record_probabilistic(passed=ok)
            if self._obs_on:
                self.obs.instants.record(
                    "pssp_pass" if ok else "pssp_pause", self.clock(),
                    actor=self.actor, uid=self.uid, worker=view.worker,
                    progress=view.progress, v_train=view.v_train,
                )
        return ok, flipped

    def _buffer_key(self, progress: int) -> int:
        if self.execution is ExecutionMode.LAZY:
            # Flushed exactly when the slowest worker catches up to this
            # worker's progress — the returned parameters miss nothing.
            return progress
        # Soft barrier: re-examined at the very next frontier advance.
        return self.v_train

    def _respond(
        self,
        worker: int,
        progress: int,
        respond: Callable[[PullReply], None],
        waited: float,
        released: bool = False,
        s_at_eval: Optional[float] = None,
        coin: bool = False,
    ) -> None:
        """Answer ``worker``'s pull at ``progress`` now, through ``respond``;
        it spent ``waited`` seconds buffered (0.0: immediate, no buffer
        entry).  ``s_at_eval`` is the staleness threshold the granting
        pull-condition evaluation used (DSPS adjusts it as a side effect of
        evaluating, so reading it afterwards could be off by one); ``coin``
        marks answers granted by a PSSP over-threshold coin pass.

        The reply carries no parameters: a reader that needs values reads
        :attr:`params` inside ``respond``, which is the state at the
        reply's ``version``."""
        # Positional calls and no ``max``: this runs once per answered pull.
        v_train = self.v_train
        missing = progress + 1 - v_train if progress >= v_train else 0
        reply = PullReply(worker, progress, self.version, v_train, missing, waited, self.shard_id)
        self.metrics.record_response(missing, waited)
        if self._obs_on:
            self._h_wait.observe(waited)
            self._q_wait.observe(waited)
            self._h_staleness.observe(missing)
            if s_at_eval is None:
                s_at_eval = self.pull_con.staleness()
            if released:
                self.obs.instants.record_protocol(
                    "dpr_released", self.clock(), self.actor,
                    self.uid, worker, progress, waited, missing, self.shard_id,
                    self._releasing_worker,
                )
            self.obs.instants.record_protocol(
                "pull_answer", self.clock(), self.actor,
                self.uid, self.shard_id, worker, progress, self.v_train,
                missing, released, coin, self.pull_con.kind,
                _staleness_arg(s_at_eval), waited, self.version,
            )
        respond(reply)

    # -- Closed-form quiet-round commit (round collapse fast path) ----------

    def handle_quiet_round(
        self,
        progress: int,
        early_pulls: int,
        dpr_waits: Optional[np.ndarray] = None,
        two_behind: int = 0,
    ) -> None:
        """Commit one analytically fast-forwarded protocol round.

        Equivalent, state-for-state, to every worker pushing ``progress``
        and then pulling ``progress`` in some serve order where the
        frontier advances exactly once — the *quiet round* the runner's
        collapse analytics certify before calling this.  ``early_pulls``
        is how many pulls that order served before this shard's N-th push:
        immediate with one missing iteration, or — ``dpr_waits`` given, a
        barrier (s = 0) — DPRs released at that push with none missing,
        ``dpr_waits`` their buffered seconds in release order.  The rest
        are immediate with none missing.  ``two_behind`` of the early
        pulls were served before the *previous* round's frontier advance
        (the rounds overlapped): two missing iterations each.  Only legal
        for timing-only shards (no parameters, no gradients) with no
        buffered DPRs.  With observability on, the metrics the
        per-request handlers would have updated are updated here in bulk,
        exactly; the round's protocol instants are the caller's to emit
        (columnar blocks, in this shard's handle order).
        """
        if self.params is not None or self.callbacks:
            raise ProtocolError("quiet-round commit requires a timing-only, "
                                "DPR-free shard")
        n = self.n_workers
        if not self._fastest == self._slowest == progress - 1:  # max and min of worker_progress
            w = next(w for w in range(n) if self.worker_progress[w] != progress - 1)
            raise ProtocolError(
                f"worker {w} at {self.worker_progress[w]} cannot batch-push "
                f"{progress} (pushes must be sequential)"
            )
        self.worker_progress[:] = [progress] * n
        self.last_pull_progress[:] = [progress] * n
        self._fastest = progress
        self._slowest = progress
        self._n_at_slowest = n
        self.version += n
        self.count[progress] += n
        self.v_train = progress + 1
        self.metrics.record_quiet_round(n, early_pulls, progress, dpr_waits, two_behind)
        if self._obs_on:
            self._c_pushes.inc(n)
            self._c_pulls.inc(n)
            self._c_advances.inc()
            self._g_frontier.set(self.v_train)
            stale, immediate = early_pulls, n
            if dpr_waits is not None:
                stale, immediate = 0, n - early_pulls
                self._c_dprs.inc(early_pulls)
                for waited in dpr_waits.tolist():
                    self._h_wait.observe(waited)
                    self._q_wait.observe(waited)
            # An immediate pull waited exactly 0.0.
            self._h_wait.observe(0.0, immediate)
            self._q_wait.observe(0.0, immediate)
            if two_behind:
                self._h_staleness.observe(2, two_behind)
            if stale - two_behind:
                self._h_staleness.observe(1, stale - two_behind)
            if n - stale:
                self._h_staleness.observe(0, n - stale)

    # -- Schedule, then math (repro.core.replay) ----------------------------

    def defer_values(
        self, catch_up: Optional[Callable[[], float]] = None
    ) -> Optional[np.ndarray]:
        """Hand this shard's parameters to a replay of its apply log, and
        run timing-only until :meth:`handle_replayed`; a significance read
        asks ``catch_up`` meanwhile."""
        params, self.params = self.params, None
        self._view_scratch.catch_up = catch_up
        return params

    def handle_replayed(self, params: Optional[np.ndarray]) -> None:
        """Take back ``params``, which a replay of this shard's apply log
        has brought to :attr:`version`, and the significance of its last
        push (the replay's answer)."""
        view = self._view_scratch
        self.last_significance = float(view.significance)
        self.params, view.catch_up = params, None

    # -- Checkpoint restore (the only non-push/pull state transition) -------

    def handle_restore(
        self,
        shard_state: Dict[str, object],
        params: Optional[np.ndarray] = None,
    ) -> None:
        """Restore this shard's synchronization state from a checkpoint.

        Like the push/pull handlers this is a protocol operation: all
        mutable server state changes flow through ``handle_*`` methods (the
        ``repro.analysis`` lint enforces this), and the restore is recorded
        in the protocol event stream so the sanitizer can re-seed its
        replay state instead of flagging the frontier jump.
        """
        if self.buffered_pulls:
            raise ProtocolError(
                f"shard {self.shard_id}: restore with {self.buffered_pulls} "
                "buffered DPRs (restore requires quiescence)"
            )
        worker_progress = [int(p) for p in shard_state["worker_progress"]]
        if len(worker_progress) != self.n_workers:
            raise ProtocolError(
                f"checkpoint has {len(worker_progress)} workers, "
                f"server has {self.n_workers}"
            )
        if params is not None and self.params is not None:
            self.params[...] = params
        self.v_train = int(shard_state["v_train"])
        self.version = int(shard_state["version"])
        self.count.clear()
        self.count.update(
            {int(k): int(v) for k, v in dict(shard_state["count"]).items()}
        )
        self.worker_progress = worker_progress
        self._fastest = max(worker_progress)
        self._slowest = min(worker_progress)
        self._n_at_slowest = worker_progress.count(self._slowest)
        self.last_pull_progress = [-1] * self.n_workers
        self.last_significance = float(shard_state["last_significance"])
        self.callbacks.clear()
        if self._obs_on:
            self.emit_config()
            self.obs.instants.record(
                "server_restore", self.clock(), actor=self.actor,
                uid=self.uid, shard=self.shard_id, v_train=self.v_train,
                worker_progress=list(self.worker_progress),
                count={str(k): v for k, v in self.count.items()},
            )

    # -- introspection -----------------------------------------------------

    def describe(self) -> str:
        return (
            f"shard {self.shard_id}: model={self.model.name} "
            f"execution={self.execution.value} v_train={self.v_train} "
            f"buffered={self.buffered_pulls}"
        )
