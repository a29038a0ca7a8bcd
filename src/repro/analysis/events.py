"""Normalized protocol events: the sanitizer's input format.

Every :class:`~repro.core.server.ShardServer` emits a structured event
stream through the observability instant log (``server_config``, ``push``,
``pull_request``, ``pull_answer``, ``dpr_buffered``, ``dpr_rebuffered``,
``frontier_advance``, ``server_restore``, ``pssp_pass``/``pssp_pause``).
This module turns the three places those events can live — a live
:class:`~repro.obs.export.InstantLog`, a :class:`~repro.obs.RunCapture`,
or a dumped Chrome/Perfetto trace file — into one list of
:class:`ProtocolEvent` records in emission order, which is the
happens-before order per shard (handlers run serialized per server in
every runner).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Union

from repro.obs.export import InstantBlock

#: Instant names that participate in the protocol replay.
PROTOCOL_EVENT_NAMES = frozenset(
    {
        "server_config",
        "run_config",
        "push",
        "pull_request",
        "pull_answer",
        "dpr_buffered",
        "dpr_rebuffered",
        "dpr_released",
        "frontier_advance",
        "server_restore",
        "pssp_pass",
        "pssp_pause",
    }
)

_US = 1e6  # trace-format microseconds -> seconds


@dataclass(frozen=True)
class ProtocolEvent:
    """One normalized protocol event.

    ``index`` is the event's position in the stream; within one shard
    (one server ``uid``) stream order equals the order the server handled
    the operations, which is what the happens-before checks replay.
    """

    index: int
    name: str
    t: float
    actor: str = ""
    args: Dict[str, object] = field(default_factory=dict)

    def arg(self, key: str, default=None):
        """Raw argument lookup."""
        return self.args.get(key, default)

    def iarg(self, key: str) -> Optional[int]:
        """Integer argument, or None when absent."""
        v = self.args.get(key)
        return None if v is None else int(v)

    def farg(self, key: str) -> Optional[float]:
        """Float argument; None encodes an unbounded (ASP) threshold."""
        v = self.args.get(key)
        if v is None:
            return None
        v = float(v)
        return None if math.isinf(v) else v

    @property
    def uid(self) -> Optional[int]:
        """Server incarnation id (falls back to shard id for foreign
        streams that lack uids)."""
        v = self.iarg("uid")
        return v if v is not None else self.iarg("shard")

    def describe(self) -> str:
        bits = [f"#{self.index}", self.name, f"t={self.t:.6g}"]
        for key in ("shard", "worker", "progress", "v_train", "missing", "s"):
            if key in self.args:
                bits.append(f"{key}={self.args[key]}")
        return " ".join(bits)


@dataclass(frozen=True)
class EventBlock:
    """A columnar run of protocol events: one
    :class:`~repro.obs.export.InstantBlock` of an instant log plus the
    stream ``index`` of its first row.  The sanitizer proves it from the
    columns; :meth:`events` materialises the same events row by row."""

    index: int
    block: InstantBlock

    def __len__(self) -> int:
        return len(self.block)

    def tail(self, n: int) -> "EventBlock":
        """The last ``n`` events as a block."""
        tail = self.block.tail(n)
        return EventBlock(self.index + len(self.block) - len(tail), tail)

    def events(self) -> Iterator[ProtocolEvent]:
        """The block's events, indexed as in the row stream."""
        for index, fields in enumerate(self.block.fields(), self.index):
            yield ProtocolEvent(index, *fields)


def iter_event_stream(instants: Iterable) -> Iterator[Union[ProtocolEvent, EventBlock]]:
    """Stream-normalize a live instant log, columnar blocks left whole.

    Every block row is a protocol event, so stream indices count block
    rows exactly as :func:`iter_events_from_instants` counts them one by
    one.  Anything without ``segments()`` is read as plain rows."""
    segments = getattr(instants, "segments", None)
    index = 0
    for inst in segments() if segments is not None else instants:
        if isinstance(inst, InstantBlock):
            yield EventBlock(index, inst)
            index += len(inst)
        elif inst.name in PROTOCOL_EVENT_NAMES:
            yield ProtocolEvent(
                index=index,
                name=inst.name,
                t=float(inst.t),
                actor=inst.actor,
                args=dict(inst.args),
            )
            index += 1


def iter_events_from_instants(instants: Iterable) -> Iterator[ProtocolEvent]:
    """Stream-normalize a live instant log (``repro.obs`` Instants).

    Lazy counterpart of :func:`events_from_instants`: one ProtocolEvent
    at a time, so a disk-spilled :class:`~repro.obs.export.InstantLog`
    (100k-scale runs) is replayed in chunks without ever materializing
    the multi-million-event stream.
    """
    for item in iter_event_stream(instants):
        if isinstance(item, EventBlock):
            yield from item.events()
        else:
            yield item


def events_from_instants(instants: Iterable) -> List[ProtocolEvent]:
    """Normalize a live instant log (``repro.obs`` Instants)."""
    return list(iter_events_from_instants(instants))


def events_from_trace_doc(doc: Dict[str, object]) -> List[ProtocolEvent]:
    """Normalize a loaded Chrome/Perfetto trace document.

    Instant events (``"ph": "i"``) were dumped in emission order by
    :func:`repro.obs.export.dump_trace`; list order is preserved, so the
    replay order matches the live stream.
    """
    out: List[ProtocolEvent] = []
    for ev in doc.get("traceEvents", []):
        if ev.get("ph") != "i" or ev.get("name") not in PROTOCOL_EVENT_NAMES:
            continue
        out.append(
            ProtocolEvent(
                index=len(out),
                name=str(ev["name"]),
                t=float(ev.get("ts", 0.0)) / _US,
                actor="",
                args=dict(ev.get("args", {})),
            )
        )
    return out


def events_from_trace_file(path: Union[str, Path]) -> List[ProtocolEvent]:
    """Load + normalize a dumped trace file (``--trace-out`` artifact)."""
    return events_from_trace_doc(json.loads(Path(path).read_text()))
