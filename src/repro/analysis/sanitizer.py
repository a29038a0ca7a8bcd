"""Protocol sanitizer: replay event streams through invariant checkers.

The paper's correctness claims are invariants, and every one of them is
mechanically checkable from the protocol event stream a
:class:`~repro.core.server.ShardServer` emits:

- Algorithm 1's ``V_train`` frontier is monotone and advances only when
  the push condition held (``count[V_train] >= quorum``);
- pushes are sequential per worker (the sPush ordering contract);
- every answered pull obeys its synchronization model's staleness bound
  (``missing < s + 1``), except PSSP answers granted by an over-threshold
  coin pass — and every claimed coin pass is backed by a recorded
  ``pssp_pass`` event (the exemption cannot be forged);
- lazy execution answers delayed pulls with **0 missing iterations**
  (Figure 3b), the soft barrier with at most ``s`` missing (Figure 3a);
- a pull is buffered as a DPR only when the requester was actually over
  the threshold (no spurious blocks);
- every buffered DPR is eventually answered (no starvation) and every
  pull request gets exactly one answer (no lost wakeups — the threaded
  runner's per-pull Events depend on the releasing push firing them);
- copy-on-write snapshot discipline: replies answered at the same
  ``version`` share one parameter copy (same storage tag), and a reply
  after a push never reuses a stale copy — ``version`` and storage tag
  stay in bijection between restores (S016).

The checker keeps one :class:`VectorClock` of per-worker push progress
per server incarnation and replays events in stream order, which is the
happens-before order per shard (server handlers are serialized in every
runner).  Violations carry the offending event plus a trailing window of
context events.
"""

from __future__ import annotations

import math
from array import array
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterable, List, Optional, Tuple, Union

import numpy as np

from repro.analysis.events import EventBlock, ProtocolEvent, iter_event_stream
from repro.obs.export import (
    FRONTIER_ADVANCE,
    PULL_ANSWER,
    PULL_REQUEST,
    PUSH,
    ShardConstants,
)


@dataclass(frozen=True)
class Violation:
    """One detected protocol violation."""

    code: str
    message: str
    event: Optional[ProtocolEvent] = None
    window: Tuple[ProtocolEvent, ...] = ()
    uid: Optional[int] = None

    def describe(self) -> str:
        loc = f" at {self.event.describe()}" if self.event else ""
        return f"[{self.code}] {self.message}{loc}"


class ProtocolViolation(AssertionError):
    """Raised when a sanitized event stream violates a paper invariant.

    Carries the structured violations and, for the first one, the window
    of events leading up to it (``.window``) for debugging.
    """

    def __init__(self, violations: List[Violation]):
        self.violations = violations
        self.window = violations[0].window if violations else ()
        lines = [f"{len(violations)} protocol violation(s):"]
        lines += ["  " + v.describe() for v in violations[:10]]
        if len(violations) > 10:
            lines.append(f"  ... and {len(violations) - 10} more")
        if self.window:
            lines.append("event window before first violation:")
            lines += ["  " + e.describe() for e in self.window]
        super().__init__("\n".join(lines))


class VectorClock:
    """Per-worker monotone progress clock for one shard.

    Component ``w`` is the last iteration worker ``w`` pushed (−1 before
    any push).  A pull for progress ``p`` happens-after the requester's
    push of ``p``; the frontier ``V_train`` happens-after enough workers'
    clocks reached ``V_train − 1``.  The components live in one int64
    buffer: the row replay reads and writes them one at a time, the
    vector proof of a columnar block through a numpy :meth:`view` of the
    same memory — no conversion either way.
    """

    def __init__(self, progress: Iterable[int] = ()) -> None:
        self._c = array("q", [int(p) for p in progress])

    def get(self, worker: Optional[int]) -> int:
        try:
            if worker >= 0:
                return self._c[worker]
        except (IndexError, TypeError):  # unset component / no worker id
            pass
        return -1

    def set(self, worker: Optional[int], value: int) -> None:
        c = self._c
        if worker is None or worker < 0:  # foreign streams: no such component
            return
        if worker >= len(c):
            c.extend([-1] * (worker + 1 - len(c)))
        c[worker] = value

    def view(self, size: int) -> np.ndarray:
        """The first ``size`` components as a live, writable array (−1
        where unset).  Drop it before the next :meth:`set`: the buffer
        cannot grow while a view is exported."""
        c = self._c
        if len(c) < size:
            c.extend([-1] * (size - len(c)))
        return np.frombuffer(c, dtype=np.int64)[:size]


#: Event window length kept for violation context.
DEFAULT_WINDOW = 12


class ShardChecker:
    """Replays one server incarnation's events and checks its invariants."""

    def __init__(self, uid: int, sink: "ProtocolSanitizer"):
        self.uid = uid
        self.sink = sink
        # Config (filled by a server_config event; checks needing it are
        # skipped until it arrives, so foreign/partial streams degrade
        # gracefully instead of false-positives).
        self.n_workers: Optional[int] = None
        self.execution: Optional[str] = None
        self.quorum: Optional[int] = None
        self.pull_kind: Optional[str] = None
        # Replay state.
        self.push_clock = VectorClock()
        self.pull_clock = VectorClock()  # last answered pull per worker
        self.v_train = 0
        self.count: Dict[int, int] = {}
        self.outstanding: Dict[Tuple[int, int], int] = {}
        self.buffered: Dict[Tuple[int, int], int] = {}
        self.pssp_passes: Dict[Tuple[int, int], int] = {}
        # COW snapshot discipline (S016): version <-> storage-tag bijection.
        self.snap_by_version: Dict[int, int] = {}
        self.version_by_snap: Dict[int, int] = {}

    # -- helpers ----------------------------------------------------------

    def _flag(self, code: str, message: str, ev: ProtocolEvent) -> None:
        self.sink.flag(code, message, ev, uid=self.uid)

    # -- event dispatch ---------------------------------------------------

    def feed(self, ev: ProtocolEvent) -> None:
        handler = getattr(self, "_on_" + ev.name, None)
        if handler is not None:
            handler(ev)

    def _on_server_config(self, ev: ProtocolEvent) -> None:
        self.n_workers = ev.iarg("n_workers")
        self.execution = ev.arg("execution")
        self.quorum = ev.iarg("quorum")
        self.pull_kind = ev.arg("pull_kind")
        # Bootstrap the replay from the server's state snapshot: a stream
        # may start mid-life (second driver run, post-restore capture),
        # and the leading config event carries the state at that point.
        v = ev.iarg("v_train")
        if v is not None:
            self.v_train = v
        progress = ev.arg("worker_progress")
        if progress is not None:
            self.push_clock = VectorClock(progress)
        count = ev.arg("count")
        if count is not None:
            self.count = {int(k): int(n) for k, n in dict(count).items()}

    def _on_push(self, ev: ProtocolEvent) -> None:
        worker, progress = ev.iarg("worker"), ev.iarg("progress")
        expected = self.push_clock.get(worker) + 1
        if progress != expected:
            self._flag(
                "S001",
                f"out-of-order push: worker {worker} pushed iteration "
                f"{progress}, expected {expected}",
                ev,
            )
        self.push_clock.set(worker, progress)
        self.count[progress] = self.count.get(progress, 0) + 1

    def _on_frontier_advance(self, ev: ProtocolEvent) -> None:
        new = ev.iarg("v_train")
        if new != self.v_train + 1:
            self._flag(
                "S002",
                f"non-monotone frontier: V_train advanced {self.v_train} -> {new} "
                "(must increment by exactly 1)",
                ev,
            )
        if self.quorum is not None:
            support = self.count.get(self.v_train, 0)
            if support < self.quorum:
                self._flag(
                    "S003",
                    f"frontier overrun: advance past iteration {self.v_train} "
                    f"with only {support}/{self.quorum} required pushes",
                    ev,
                )
        self.v_train = new if new is not None else self.v_train + 1

    def _on_pull_request(self, ev: ProtocolEvent) -> None:
        worker, progress = ev.iarg("worker"), ev.iarg("progress")
        if progress > self.push_clock.get(worker):
            self._flag(
                "S006",
                f"pull before push: worker {worker} requested progress "
                f"{progress} but has only pushed through "
                f"{self.push_clock.get(worker)}",
                ev,
            )
        key = (worker, progress)
        self.outstanding[key] = self.outstanding.get(key, 0) + 1

    def _on_dpr_buffered(self, ev: ProtocolEvent) -> None:
        self._check_block_justified(ev)
        key = (ev.iarg("worker"), ev.iarg("progress"))
        self.buffered[key] = self.buffered.get(key, 0) + 1

    def _on_dpr_rebuffered(self, ev: ProtocolEvent) -> None:
        self._check_block_justified(ev)

    def _check_block_justified(self, ev: ProtocolEvent) -> None:
        """A DPR means the pull condition failed: for the SSP family the
        requester must actually be at or over the staleness threshold."""
        if self.pull_kind == "custom":
            return  # user predicate: may block under rules s doesn't describe
        s = ev.farg("s")
        if s is None:  # unbounded (ASP) or unknown threshold: nothing to check
            return
        worker, progress = ev.iarg("worker"), ev.iarg("progress")
        v = ev.iarg("v_train")
        if v is None:
            v = self.v_train
        if progress < v + s:
            self._flag(
                "S010",
                f"spurious block: worker {worker} buffered at progress "
                f"{progress} although progress < V_train({v}) + s({s})",
                ev,
            )

    def _on_pssp_pass(self, ev: ProtocolEvent) -> None:
        key = (ev.iarg("worker"), ev.iarg("progress"))
        self.pssp_passes[key] = self.pssp_passes.get(key, 0) + 1

    def _on_pull_answer(self, ev: ProtocolEvent) -> None:
        worker, progress = ev.iarg("worker"), ev.iarg("progress")
        key = (worker, progress)
        if ev.arg("coin"):
            # Coin accounting: an answer claiming the PSSP exemption must
            # pair with an actual over-threshold coin pass — otherwise the
            # exemption would hide arbitrary staleness-bound violations.
            if self.pssp_passes.get(key, 0) <= 0:
                self._flag(
                    "S015",
                    f"unaccounted coin answer: worker {worker} progress "
                    f"{progress} answered with coin=True but no pssp_pass "
                    "event preceded it",
                    ev,
                )
            else:
                self.pssp_passes[key] -= 1
                if self.pssp_passes[key] == 0:
                    del self.pssp_passes[key]
        if self.outstanding.get(key, 0) <= 0:
            self._flag(
                "S007",
                f"unmatched answer: worker {worker} progress {progress} "
                "answered without an outstanding request (double answer?)",
                ev,
            )
        else:
            self.outstanding[key] -= 1
            if self.outstanding[key] == 0:
                del self.outstanding[key]
        if self.buffered.get(key, 0) > 0:
            self.buffered[key] -= 1
            if self.buffered[key] == 0:
                del self.buffered[key]
        if progress > self.push_clock.get(worker):
            self._flag(
                "S006",
                f"answer before push: worker {worker} received parameters for "
                f"progress {progress} but has only pushed through "
                f"{self.push_clock.get(worker)}",
                ev,
            )
        if progress < self.pull_clock.get(worker):
            self._flag(
                "S014",
                f"pull regression: worker {worker} answered at progress "
                f"{progress} after progress {self.pull_clock.get(worker)}",
                ev,
            )
        self.pull_clock.set(worker, max(self.pull_clock.get(worker), progress))

        v_reported = ev.iarg("v_train")
        if v_reported is not None and v_reported != self.v_train:
            self._flag(
                "S008",
                f"state mismatch: answer reports V_train={v_reported} but the "
                f"replayed frontier is {self.v_train} (reordered events?)",
                ev,
            )
        missing = ev.iarg("missing")
        expected_missing = max(0, progress + 1 - self.v_train)
        if missing is not None and v_reported == self.v_train and missing != expected_missing:
            self._flag(
                "S009",
                f"missing mismatch: answer reports missing={missing}, replay "
                f"computes {expected_missing}",
                ev,
            )
        self._check_staleness_bound(ev, missing)
        self._check_snapshot_sharing(ev)

    def _check_snapshot_sharing(self, ev: ProtocolEvent) -> None:
        """S016: COW snapshot discipline.

        ``snap`` tags the parameter copy a reply carries (absent/None for
        param-less, timing-only shards — nothing to check).  Same ``version`` must mean same copy (the whole
        point of COW: 128 same-version pulls share 1 copy), and the same
        copy must never span versions (a post-push answer reusing a stale
        snapshot would hand workers pre-push parameters labelled with the
        new version).
        """
        snap, version = ev.iarg("snap"), ev.iarg("version")
        if snap is None or version is None:
            return
        prior_snap = self.snap_by_version.get(version)
        if prior_snap is not None and prior_snap != snap:
            self._flag(
                "S016",
                f"snapshot not shared: version {version} answered from copy "
                f"{snap} after copy {prior_snap} (same-version replies must "
                "share storage)",
                ev,
            )
        else:
            self.snap_by_version[version] = snap
        prior_version = self.version_by_snap.get(snap)
        if prior_version is not None and prior_version != version:
            self._flag(
                "S016",
                f"stale snapshot reuse: copy {snap} served version "
                f"{prior_version} and then version {version} (pushes must "
                "invalidate the cached copy)",
                ev,
            )
        else:
            self.version_by_snap[snap] = version

    def _check_staleness_bound(self, ev: ProtocolEvent, missing: Optional[int]) -> None:
        if missing is None:
            return
        kind = ev.arg("kind")
        if kind == "custom":
            return  # user-defined condition: no mechanical bound
        if ev.arg("coin"):
            return  # PSSP over-threshold coin pass: exempt by design
        s = ev.farg("s")
        released = bool(ev.arg("released"))
        # The pull condition progress < V_train + s is equivalent to
        # missing < s + 1 (missing = progress + 1 - V_train, clamped at 0).
        if s is not None and missing >= s + 1:
            self._flag(
                "S004",
                f"staleness bound violated: answered pull misses {missing} "
                f"iterations, bound is s={s} "
                f"({'released DPR' if released else 'immediate answer'})",
                ev,
            )
        if released and self.execution == "lazy" and missing != 0:
            self._flag(
                "S005",
                f"lazy pull broke the 0-missing guarantee: released DPR "
                f"returned parameters missing {missing} iterations (Fig 3b)",
                ev,
            )

    def _on_server_restore(self, ev: ProtocolEvent) -> None:
        if self.outstanding:
            self._flag(
                "S013",
                f"restore while {sum(self.outstanding.values())} pulls are "
                "outstanding (restore requires quiescence)",
                ev,
            )
        self.v_train = ev.iarg("v_train") or 0
        self.count = {
            int(k): int(v) for k, v in dict(ev.arg("count") or {}).items()
        }
        self.push_clock = VectorClock(ev.arg("worker_progress") or [])
        self.pull_clock = VectorClock()
        self.outstanding.clear()
        self.buffered.clear()
        # A restore may reinstate an already-seen version number backed by
        # a fresh copy — the bijection starts over (matching the server's
        # cache invalidation on restore).
        self.snap_by_version.clear()
        self.version_by_snap.clear()

    # -- columnar blocks ----------------------------------------------------

    def prove_rows(self, rows: np.ndarray, sc: ShardConstants) -> Optional[tuple]:
        """Vector proof that ``rows`` — this shard's rows of one columnar
        block, in stream order — replay without a violation.

        Returns the state advance for :meth:`commit_rows`, or ``None``
        when any predicate fails *or the rows are not of the shape the
        predicates cover* (a worker pushing or pulling twice, two
        frontier advances, a request not directly followed by its
        answer, a DPR's rows, replay state left over from DPRs).  ``None``
        only means "not proven": the caller then replays the rows one by one, so
        every verdict, message and context window comes from ``_on_*``.
        Nothing is mutated here.
        """
        n = self.n_workers
        if n is None or self.outstanding or self.buffered or self.pssp_passes:
            return None
        code, worker, progress = rows["code"], rows["worker"], rows["progress"]
        v_train, missing = rows["v_train"], rows["missing"]
        is_push, is_adv = code == PUSH, code == FRONTIER_ADVANCE
        is_req, is_ans = code == PULL_REQUEST, code == PULL_ANSWER
        if not (is_push | is_adv | is_req | is_ans).all() or (rows["released_by"] >= 0).any():
            return None  # DPR rows, released answers: the row replay's
        end = rows.shape[0]
        acting = worker[~is_adv]
        if acting.shape[0] and not 0 <= acting.min() <= acting.max() < n:
            return None
        push_clock, pull_clock = self.push_clock.view(n), self.pull_clock.view(n)
        # S001: each worker pushes at most once, the iteration after its last.
        at_push = np.nonzero(is_push)[0]
        w_push, p_push = worker[at_push], progress[at_push]
        push_at = np.full(n, end)
        push_at[w_push] = at_push
        if np.count_nonzero(push_at < end) != at_push.shape[0]:
            return None
        if not np.array_equal(p_push, push_clock[w_push] + 1):
            return None
        # S002/S003: at most one advance, by exactly 1, quorum-supported.
        at_adv = np.nonzero(is_adv)[0]
        if at_adv.shape[0] > 1:
            return None
        adv = end
        if at_adv.shape[0]:
            adv = int(at_adv[0])
            if v_train[adv] != self.v_train + 1:
                return None
            if self.quorum is not None:
                support = self.count.get(self.v_train, 0) + np.count_nonzero(
                    p_push[at_push < adv] == self.v_train
                )
                if support < self.quorum:
                    return None
        # S007/S011/S012: every request is answered by the very next row.
        if is_ans[0] or is_req[-1] or not np.array_equal(is_req[:-1], is_ans[1:]):
            return None
        at_req = np.nonzero(is_req)[0]
        at_ans = at_req + 1
        w_pull, p_pull = worker[at_req], progress[at_req]
        if not np.array_equal(w_pull, worker[at_ans]):
            return None
        if not np.array_equal(p_pull, progress[at_ans]):
            return None
        if np.count_nonzero(np.bincount(w_pull, minlength=n) > 1):
            return None
        # S006: pulled progress is pushed by then; S014: pulls do not regress.
        if (p_pull > push_clock[w_pull] + (push_at[w_pull] < at_req)).any():
            return None
        if (p_pull < pull_clock[w_pull]).any():
            return None
        # S008/S009: answers report the replayed frontier and its missing count.
        frontier = self.v_train + (at_ans > adv)
        if not np.array_equal(v_train[at_ans], frontier):
            return None
        m_ans = missing[at_ans]
        if not np.array_equal(m_ans, np.maximum(0, p_pull + 1 - frontier)):
            return None
        # S004: missing <= s (proven answers are never coin passes or releases,
        # and carry no snapshot tag: S005/S015/S016 have nothing to check).
        s_bound = sc.s
        if sc.kind != "custom" and s_bound is not None and not math.isinf(s_bound):
            if (m_ans >= s_bound + 1).any():
                return None
        return w_push, p_push, at_adv.shape[0], w_pull, p_pull

    def commit_rows(self, proof: tuple) -> None:
        """Advance the replay state past rows :meth:`prove_rows` proved."""
        w_push, p_push, n_adv, w_pull, p_pull = proof
        self.push_clock.view(self.n_workers)[w_push] = p_push
        self.pull_clock.view(self.n_workers)[w_pull] = p_pull
        for value, times in zip(*np.unique(p_push, return_counts=True)):
            self.count[int(value)] = self.count.get(int(value), 0) + int(times)
        self.v_train += n_adv

    # -- end of stream ----------------------------------------------------

    def finish(self, ev: Optional[ProtocolEvent] = None) -> None:
        """Liveness checks — only valid once the run completed."""
        for (worker, progress), n in sorted(self.outstanding.items()):
            if self.buffered.get((worker, progress), 0) > 0:
                self._flag(
                    "S011",
                    f"starved DPR: worker {worker} progress {progress} was "
                    f"buffered and never answered ({n} outstanding)",
                    ev,
                )
            else:
                self._flag(
                    "S012",
                    f"lost wakeup: pull request worker {worker} progress "
                    f"{progress} never answered ({n} outstanding)",
                    ev,
                )


@dataclass
class SanitizerReport:
    """Outcome of sanitizing one or more event streams."""

    violations: List[Violation] = field(default_factory=list)
    n_events: int = 0
    n_shards: int = 0
    n_streams: int = 1

    @property
    def ok(self) -> bool:
        return not self.violations

    def raise_if_violations(self) -> None:
        if self.violations:
            raise ProtocolViolation(self.violations)

    def merge(self, other: "SanitizerReport") -> "SanitizerReport":
        self.violations.extend(other.violations)
        self.n_events += other.n_events
        self.n_shards += other.n_shards
        self.n_streams += other.n_streams
        return self

    def describe(self) -> str:
        head = (
            f"sanitizer: {self.n_events} events, {self.n_shards} shard "
            f"stream(s): "
        )
        if self.ok:
            return head + "clean"
        return head + f"{len(self.violations)} violation(s)\n" + "\n".join(
            "  " + v.describe() for v in self.violations
        )


class ProtocolSanitizer:
    """Feeds a normalized event stream through per-shard checkers."""

    def __init__(self, window: int = DEFAULT_WINDOW):
        self.checkers: Dict[int, ShardChecker] = {}
        self.violations: List[Violation] = []
        self._window: Deque[ProtocolEvent] = deque(maxlen=window)
        self._n_events = 0

    def flag(
        self,
        code: str,
        message: str,
        ev: Optional[ProtocolEvent],
        uid: Optional[int] = None,
    ) -> None:
        self.violations.append(
            Violation(
                code=code,
                message=message,
                event=ev,
                window=tuple(self._window),
                uid=uid,
            )
        )

    def feed(self, ev: ProtocolEvent) -> None:
        self._window.append(ev)
        self._n_events += 1
        uid = ev.uid
        if uid is None:
            return  # run_config and other stream-level events
        checker = self.checkers.get(uid)
        if checker is None:
            checker = self.checkers[uid] = ShardChecker(uid, self)
        checker.feed(ev)

    def _prove_block(self, block) -> Optional[Tuple[ShardChecker, tuple]]:
        """The vector proof of ``block`` — one shard's rows, as the round
        collapse emits them — and its checker, or ``None``: rows of
        several shards (or of none in the constants table) are not
        proven, nor a shard's rows its checker refuses."""
        shard = block.rows["shard"]
        j = int(shard[0]) if shard.shape[0] else -1
        if not 0 <= j < len(block.shards) or (shard != j).any():
            return None
        sc = block.shards[j]
        checker = self.checkers.get(sc.uid)
        proof = None if checker is None else checker.prove_rows(block.rows, sc)
        return None if proof is None else (checker, proof)

    def feed_block(self, eb: EventBlock) -> None:
        """Check one columnar block by its vector proof, which only then
        advances the shard's checker.  Otherwise nothing has been touched
        and the block's rows are fed through :meth:`feed`, the one place
        verdicts come from."""
        proven = self._prove_block(eb.block)
        if proven is None:
            for ev in eb.events():
                self.feed(ev)
            return
        checker, proof = proven
        checker.commit_rows(proof)
        self._n_events += len(eb)
        self._window.extend(eb.tail(self._window.maxlen).events())

    def finish(self) -> None:
        last = self._window[-1] if self._window else None
        for checker in self.checkers.values():
            checker.finish(last)

    def report(self) -> SanitizerReport:
        return SanitizerReport(
            violations=list(self.violations),
            n_events=self._n_events,
            n_shards=len(self.checkers),
        )


def sanitize_events(
    events: Iterable[Union[ProtocolEvent, EventBlock]],
    complete: bool = True,
    raise_on_violation: bool = False,
) -> SanitizerReport:
    """Replay ``events`` through the checker (columnar
    :class:`~repro.analysis.events.EventBlock` items by vector proof).

    ``complete=False`` skips the end-of-stream liveness checks (starved
    DPRs, lost wakeups) — use it for streams captured mid-run or from
    direct server unit-test drive, where unanswered pulls are legitimate.
    """
    san = ProtocolSanitizer()
    for ev in events:
        if type(ev) is EventBlock:
            san.feed_block(ev)
        else:
            san.feed(ev)
    if complete:
        san.finish()
    report = san.report()
    if raise_on_violation:
        report.raise_if_violations()
    return report


def sanitize_run(capture, raise_on_violation: bool = False) -> SanitizerReport:
    """Sanitize one :class:`~repro.obs.RunCapture` (protocol events plus
    the run's trace spans and causal DAG, when captured).

    The instant stream is read lazily, so a disk-spilled instant log
    from a 100k-scale run is checked chunk by chunk.  The columnar
    blocks of collapsed rounds are proven by vector passes
    (:meth:`ProtocolSanitizer.feed_block`); a block that is not proven
    is replayed row by row, so every verdict comes from the row replay."""
    report = sanitize_events(
        iter_event_stream(capture.instants),
        complete=getattr(capture, "complete", False),
    )
    if getattr(capture, "trace", None) is not None:
        from repro.analysis.spans import check_trace_spans

        report.violations.extend(check_trace_spans(capture.trace))
    causal = getattr(capture, "causal", None)
    if causal is not None and getattr(causal, "spans", None):
        from repro.analysis.spans import check_causal_spans

        report.violations.extend(check_causal_spans(causal))
    if raise_on_violation:
        report.raise_if_violations()
    return report


def sanitize_observability(obs, raise_on_violation: bool = False) -> SanitizerReport:
    """Sanitize everything an :class:`~repro.obs.Observability` captured:
    each run capture (with liveness checks when the run completed) plus
    the ambient instants recorded outside any run (safety checks only)."""
    report = SanitizerReport(n_streams=0)
    for cap in obs.runs:
        report.merge(sanitize_run(cap))
    default_log = getattr(obs, "default_instants", None)
    if default_log is not None and len(default_log):
        report.merge(
            sanitize_events(iter_event_stream(default_log), complete=False)
        )
    if raise_on_violation:
        report.raise_if_violations()
    return report
