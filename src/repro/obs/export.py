"""Chrome/Perfetto trace-event export + metrics JSON dumping.

Converts :class:`~repro.sim.trace.TraceRecorder` spans into the Trace
Event Format both ``chrome://tracing`` and https://ui.perfetto.dev load:
one named track per worker/server actor, ``"ph": "X"`` duration events
for spans, and ``"ph": "i"`` instant events for the protocol moments the
paper's evaluation hinges on (DPR buffering, lazy-pull release, PSSP
pass/pause decisions, ``V_train`` frontier advances).

When a causal trace is supplied, the export also emits Perfetto **flow
events** (``"ph": "s"``/``"f"`` pairs) that draw push→apply→reply arrows
from each message's TX start on the sender's track to its RX completion
on the receiver's track, and embeds the raw causal spans under the
``causalSpans`` top-level key (ignored by viewers, round-tripped by
``python -m repro.obs``).

All simulated/wall times are seconds; the trace format wants
microseconds, hence ``_US``.
"""

from __future__ import annotations

import io
import itertools
import json
import operator
import os
import pickle
import tempfile
import weakref
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.obs.causal import CAUSAL_EXPORT_KEY, causal_to_dicts

_US = 1e6  # seconds -> trace-format microseconds

#: Environment override for :class:`InstantLog`'s in-memory cap.
INSTANT_SPILL_CAP_ENV = "REPRO_INSTANT_SPILL_CAP"
DEFAULT_INSTANT_SPILL_CAP = 200_000


@dataclass(frozen=True, slots=True)
class Instant:
    """One point event on an actor's track."""

    name: str
    t: float
    actor: str = ""
    args: Dict[str, object] = field(default_factory=dict)


#: The per-instant argument order of the protocol instants a shard
#: server emits on its hot path.  This is the one definition: the
#: ``ShardServer`` record sites go through :meth:`InstantLog.record_protocol`
#: and a columnar :class:`InstantBlock` materialises its rows by zipping
#: the same tuples, so both produce the same ``args`` dict — same keys,
#: same insertion order — for the same event.
PROTOCOL_INSTANT_ARGS: Dict[str, Tuple[str, ...]] = {
    "push": ("uid", "shard", "worker", "progress", "v_train"),
    "frontier_advance": ("uid", "v_train", "shard"),
    "pull_request": ("uid", "shard", "worker", "progress", "v_train"),
    "pull_answer": (
        "uid", "shard", "worker", "progress", "v_train", "missing",
        "released", "coin", "kind", "s", "waited", "version",
    ),
    "dpr_buffered": ("uid", "worker", "progress", "key", "shard", "v_train", "s"),
    "dpr_released": ("uid", "worker", "progress", "waited", "missing", "shard", "released_by"),
}

#: Block row ``code`` -> instant name.
BLOCK_NAMES: Tuple[str, ...] = tuple(PROTOCOL_INSTANT_ARGS)
PUSH, FRONTIER_ADVANCE, PULL_REQUEST, PULL_ANSWER, DPR_BUFFERED, DPR_RELEASED = range(
    len(BLOCK_NAMES)
)

#: One row of an :class:`InstantBlock`: one protocol instant.  ``shard``
#: indexes the block's per-shard constants table; ``worker`` is -1 on a
#: ``frontier_advance`` row; ``version``, ``missing`` and ``waited`` are 0
#: where the instant has no such argument, ``released_by`` -1 unless the
#: row is a released DPR's.  A ``dpr_buffered`` row's key is its progress.
BLOCK_DTYPE = np.dtype(
    [
        ("code", "i1"),
        ("shard", "i4"),
        ("worker", "i4"),
        ("progress", "i4"),
        ("v_train", "i4"),
        ("missing", "i4"),
        ("version", "i8"),
        ("t", "f8"),
        ("waited", "f8"),
        ("released_by", "i4"),
    ]
)


@dataclass(frozen=True, slots=True)
class ShardConstants:
    """What every instant of one shard server shares (stored once per
    log, not once per row): its actor track, incarnation ``uid``, shard
    id, and the pull condition's ``kind`` and JSON-safe staleness ``s``
    (``None`` = unbounded) that its quiet-round answers report."""

    actor: str
    uid: int
    shard: int
    kind: str
    s: Optional[float]


class InstantBlock:
    """A run of protocol instants held as columns (:data:`BLOCK_DTYPE`).

    The round collapse appends a shard's committed round as a run of
    them, in the shard's handle order, instead of an :class:`Instant`
    object per protocol instant.  Iterating materialises the
    rows lazily, through the same argument table the servers' record
    sites use, so a row consumer cannot tell a block from the rows the
    event path would have recorded; the sanitizer's vector proof reads
    the columns directly
    (:meth:`repro.analysis.sanitizer.ProtocolSanitizer.feed_block`).
    """

    __slots__ = ("rows", "shards")

    def __init__(self, rows: np.ndarray, shards: Sequence[ShardConstants]):
        self.rows = rows
        self.shards = shards

    def __len__(self) -> int:
        return self.rows.shape[0]

    def tail(self, n: int) -> "InstantBlock":
        """The last ``n`` rows as a block (a view)."""
        return InstantBlock(self.rows[max(0, len(self) - n):], self.shards)

    def __iter__(self) -> Iterator[Instant]:
        return itertools.starmap(Instant, self.fields())

    def fields(self) -> Iterator[Tuple[str, float, str, Dict[str, object]]]:
        """Each row as the ``(name, t, actor, args)`` of its instant."""
        rows = self.rows
        shards = self.shards
        for code, j, worker, progress, v_train, missing, version, t, waited, by in zip(
            *(rows[name].tolist() for name in BLOCK_DTYPE.names)
        ):
            sc = shards[j]
            if code == FRONTIER_ADVANCE:
                values = (sc.uid, v_train, sc.shard)
            elif code == PULL_ANSWER:
                # A quiet-round answer is immediate (waited exactly 0.0)
                # or a released DPR, never a coin pass.
                values = (
                    sc.uid, sc.shard, worker, progress, v_train, missing,
                    by >= 0, False, sc.kind, sc.s, waited, version,
                )
            elif code == DPR_BUFFERED:
                values = (sc.uid, worker, progress, progress, sc.shard, v_train, sc.s)
            elif code == DPR_RELEASED:
                values = (sc.uid, worker, progress, waited, missing, sc.shard, by)
            else:
                values = (sc.uid, sc.shard, worker, progress, v_train)
            name = BLOCK_NAMES[code]
            yield name, t, sc.actor, dict(zip(PROTOCOL_INSTANT_ARGS[name], values))


def _resolve_spill_cap(spill_cap: Optional[object]) -> int:
    source = "spill_cap"
    if spill_cap is None:
        source = INSTANT_SPILL_CAP_ENV
        spill_cap = os.environ.get(source)
        if spill_cap is None:
            return DEFAULT_INSTANT_SPILL_CAP
    try:
        cap = int(spill_cap) if isinstance(spill_cap, str) else operator.index(spill_cap)
    except (TypeError, ValueError):
        cap = 0
    if cap < 1:
        raise ValueError(f"{source} must be a positive integer, got {spill_cap!r}")
    return cap


class InstantLog:
    """Accumulates instant events for one run, spilling to disk at scale.

    The log is a sequence of *segments*: :class:`Instant` rows from
    ``record()`` and columnar :class:`InstantBlock` runs from
    ``append_block()``.  Up to ``spill_cap`` events are buffered in
    memory (the common case: every small/medium run).  Once the cap is
    reached the buffered segments are appended to an anonymous temp
    file and dropped — a block as one raw ``.npy`` array, a run of rows
    as one pickled list — so a 100k-worker run's multi-million-event
    protocol stream costs O(cap) resident memory instead of O(events)
    (a block larger than the cap spills at once, whole).  Iteration
    replays the spilled prefix chunk by chunk (via ``os.pread``, so
    nested or repeated iterations never disturb the append position)
    followed by the in-memory tail; :meth:`segments` does the same
    without materialising blocks, which is how the protocol sanitizer's
    vector proof streams a log.

    ``len()`` and :attr:`spilled_events` count events, not segments.
    ``spill_cap`` defaults from ``REPRO_INSTANT_SPILL_CAP`` when unset;
    either must be a positive integer.  The temp file is closed by
    :meth:`close` or when the log is dropped.
    """

    def __init__(self, spill_cap: Optional[int] = None) -> None:
        self.spill_cap = _resolve_spill_cap(spill_cap)
        self._tail: List[Union[Instant, InstantBlock]] = []
        self._tail_events = 0
        self._spill_file = None
        self._spill_bytes = 0
        #: (offset, nbytes, shards): one spilled chunk each; ``shards``
        #: is the block's constants table, ``None`` for a run of rows.
        self._chunks: List[Tuple[int, int, Optional[Sequence[ShardConstants]]]] = []
        self._n_spilled = 0

    def __len__(self) -> int:
        return self._n_spilled + self._tail_events

    @property
    def spilled_events(self) -> int:
        """How many instants live on disk rather than in memory."""
        return self._n_spilled

    def close(self) -> None:
        """Close the spill file (the spilled prefix is gone with it)."""
        if self._spill_file is not None:
            self._spill_file.close()

    def _spill(self) -> None:
        f = self._spill_file
        if f is None:
            f = self._spill_file = tempfile.TemporaryFile(mode="w+b")
            weakref.finalize(self, f.close)
        rows: List[Tuple[str, float, str, Dict[str, object]]] = []

        def end_chunk(shards: Optional[Sequence[ShardConstants]]) -> None:
            end = f.tell()
            self._chunks.append((self._spill_bytes, end - self._spill_bytes, shards))
            self._spill_bytes = end

        def flush_rows() -> None:
            if rows:
                pickle.dump(rows, f, pickle.HIGHEST_PROTOCOL)
                end_chunk(None)
                rows.clear()

        for seg in self._tail:
            if isinstance(seg, InstantBlock):
                flush_rows()
                np.save(f, seg.rows, allow_pickle=False)
                end_chunk(seg.shards)
            else:
                rows.append((seg.name, seg.t, seg.actor, seg.args))
        flush_rows()
        self._n_spilled += self._tail_events
        self._tail.clear()
        self._tail_events = 0

    def segments(self) -> Iterator[Union[Instant, InstantBlock]]:
        """The log in order, blocks left columnar."""
        if self._chunks:
            self._spill_file.flush()
            fd = self._spill_file.fileno()
            # Only bytes this log wrote are ever unpickled.
            for offset, nbytes, shards in self._chunks:
                data = os.pread(fd, nbytes, offset)
                if shards is None:
                    for row in pickle.loads(data):
                        yield Instant(*row)
                else:
                    yield InstantBlock(np.load(io.BytesIO(data), allow_pickle=False), shards)
        yield from self._tail

    def __iter__(self) -> Iterator[Instant]:
        for seg in self.segments():
            if isinstance(seg, InstantBlock):
                yield from seg
            else:
                yield seg

    def record(self, name: str, t: float, actor: str = "", **args: object) -> None:
        self._tail.append(Instant(name, float(t), actor, args))
        self._tail_events += 1
        if self._tail_events >= self.spill_cap:
            self._spill()

    def record_protocol(self, name: str, t: float, actor: str, *values: object) -> None:
        """``record()`` for a :data:`PROTOCOL_INSTANT_ARGS` instant: its
        argument values, positionally, in table order."""
        args = dict(zip(PROTOCOL_INSTANT_ARGS[name], values))
        self._tail.append(Instant(name, float(t), actor, args))
        self._tail_events += 1
        if self._tail_events >= self.spill_cap:
            self._spill()

    def append_block(self, rows: np.ndarray, shards: Sequence[ShardConstants]) -> None:
        """Append ``rows`` (:data:`BLOCK_DTYPE`) as one columnar segment."""
        if rows.shape[0]:
            self._tail.append(InstantBlock(rows, shards))
            self._tail_events += rows.shape[0]
            if self._tail_events >= self.spill_cap:
                self._spill()

    def by_name(self, name: str) -> List[Instant]:
        return [e for e in self if e.name == name]


class NullInstantLog(InstantLog):
    """No-op instant log for the disabled backend."""

    def __init__(self) -> None:
        # The disabled backend never buffers: nothing to configure.
        super().__init__(DEFAULT_INSTANT_SPILL_CAP)

    def record(self, name: str, t: float, actor: str = "", **args: object) -> None:
        pass

    def record_protocol(self, name: str, t: float, actor: str, *values: object) -> None:
        pass

    def append_block(self, rows: np.ndarray, shards: Sequence[ShardConstants]) -> None:
        pass


def causal_flow_events(
    causal, tids: Dict[str, int], pid: int = 1
) -> List[Dict[str, object]]:
    """Flow-event arrows linking each message's sender to its receiver.

    Each delivered message leaves a ``tx_queue -> wire -> rx`` chain in
    the causal trace; the arrow starts when the wire transfer begins on
    the sender's track and finishes when RX completes on the receiver's
    track, sharing the rx span's id.
    """
    by_id = {s.id: s for s in causal.spans}
    events: List[Dict[str, object]] = []
    for rx in causal.spans:
        if rx.category != "rx":
            continue
        wire = by_id.get(rx.parent)
        if wire is None or wire.category != "wire":
            continue
        txq = by_id.get(wire.parent)
        src_actor = txq.actor if txq is not None else ""
        if src_actor not in tids or rx.actor not in tids:
            continue
        name = rx.tag or "message"
        events.append(
            {
                "name": name,
                "cat": "causal",
                "ph": "s",
                "id": rx.id,
                "ts": wire.t0 * _US,
                "pid": pid,
                "tid": tids[src_actor],
            }
        )
        events.append(
            {
                "name": name,
                "cat": "causal",
                "ph": "f",
                "bp": "e",
                "id": rx.id,
                "ts": rx.t1 * _US,
                "pid": pid,
                "tid": tids[rx.actor],
            }
        )
    return events


def trace_to_events(
    trace,
    instants: Iterable[Instant] = (),
    pid: int = 1,
    process_name: str = "",
    causal=None,
) -> List[Dict[str, object]]:
    """Flatten a TraceRecorder (+ instants) into trace-event dicts.

    One thread track per actor; actors are discovered from both spans and
    instant events, so server actors that only emit instants still get a
    named track.  With a causal trace, flow-event arrows are appended
    (see :func:`causal_flow_events`).
    """
    instants = list(instants)
    actors = sorted({s.actor for s in trace.spans} | {e.actor for e in instants if e.actor})
    tids = {actor: i for i, actor in enumerate(actors)}
    events: List[Dict[str, object]] = []
    if process_name:
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": process_name},
            }
        )
    for actor, tid in tids.items():
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "args": {"name": actor},
            }
        )
    for s in trace.spans:
        args: Dict[str, object] = {"iteration": s.iteration}
        if s.note:
            args["note"] = s.note
        events.append(
            {
                "name": s.kind.value,
                "cat": "span",
                "ph": "X",
                "ts": s.t0 * _US,
                "dur": max(0.0, s.t1 - s.t0) * _US,
                "pid": pid,
                "tid": tids[s.actor],
                "args": args,
            }
        )
    for e in instants:
        events.append(
            {
                "name": e.name,
                "cat": "instant",
                "ph": "i",
                "ts": e.t * _US,
                # thread scope when the actor has a track, else process scope
                "s": "t" if e.actor in tids else "p",
                "pid": pid,
                "tid": tids.get(e.actor, 0),
                "args": dict(e.args),
            }
        )
    if causal is not None:
        events.extend(causal_flow_events(causal, tids, pid=pid))
    return events


def dump_trace(
    path: Union[str, Path],
    trace,
    instants: Iterable[Instant] = (),
    process_name: str = "",
    causal=None,
) -> Path:
    """Write one run's trace as a Perfetto-loadable JSON file."""
    if not getattr(trace, "keep_spans", True):
        raise ValueError(
            "trace was recorded with keep_spans=False; re-run with spans kept "
            "(enabling observability forces this)"
        )
    path = Path(path)
    doc = {
        "traceEvents": trace_to_events(
            trace, instants, process_name=process_name, causal=causal
        ),
        "displayTimeUnit": "ms",
    }
    if causal is not None and len(causal.spans):
        doc[CAUSAL_EXPORT_KEY] = causal_to_dicts(causal)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc))
    return path


def dump_metrics(path: Union[str, Path], registry) -> Path:
    """Write a registry (counters, gauge series, sketches) as JSON."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(registry.to_dict(), indent=2))
    return path


def default_metrics_path(trace_path: Union[str, Path]) -> Path:
    """The metrics JSON written alongside ``--trace-out FILE``."""
    p = Path(trace_path)
    return p.with_name(p.stem + ".metrics.json")


def load_trace(path: Union[str, Path]) -> Dict[str, object]:
    """Round-trip helper (tests, notebooks): parse a dumped trace file."""
    return json.loads(Path(path).read_text())


def actor_tracks(doc: Dict[str, object]) -> Dict[str, int]:
    """Map actor name -> tid from a loaded trace document."""
    out: Dict[str, int] = {}
    for ev in doc.get("traceEvents", []):
        if ev.get("ph") == "M" and ev.get("name") == "thread_name":
            out[ev["args"]["name"]] = ev["tid"]
    return out


def events_of_phase(doc: Dict[str, object], ph: str, name: Optional[str] = None):
    """All events of one phase letter (optionally filtered by name)."""
    return [
        ev
        for ev in doc.get("traceEvents", [])
        if ev.get("ph") == ph and (name is None or ev.get("name") == name)
    ]
