"""Host-time spans recorded from outside the program.

The benchmark wraps each layer's public entry points (``install``) and
records one span per call — name, start, end, parent — in flat in-memory
arrays; nothing is written until the run is over (``dump``).  A layer's
self time is its spans' duration minus the part their child spans cover,
so self times over any root span sum to that root's duration exactly.

Work a fast path inlines (the runner's worker generators and server
dispatch, the network's delivery callbacks) has no public call of its own
and is charged to the layer whose call encloses it — on the event path
that is ``Engine.run``.
"""

from __future__ import annotations

import importlib
import time
from array import array
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Tuple

import numpy as np

#: layer -> (module, class, public entry points).  Entry points a later
#: change removes are skipped, not an error.
ENTRY_POINTS: List[Tuple[str, str, str, Tuple[str, ...]]] = [
    ("sim.runner", "repro.sim.runner", "FluentPSSimRunner", ("run",)),
    ("sim.engine", "repro.sim.engine", "Engine", ("run",)),
    ("sim.network", "repro.sim.network", "Network", ("send",)),
    (
        "core.server",
        "repro.core.server",
        "ShardServer",
        ("handle_push", "handle_pull", "handle_quiet_round"),
    ),
    ("ml", "repro.ml.training", "TrainingTask", ("step_fn", "eval_fn")),
]

LAYERS = (
    "sim.engine",
    "sim.network",
    "core.server",
    "sim.runner",
    "sim.stragglers",
    "ml",
    "obs",
    "analysis.sanitizer",
)


class SpanRecorder:
    """Append-only span store for one single-threaded process."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]

    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def __len__(self) -> int:
        return len(self.start)

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        """Record one span around a block; yields its index."""
        idx = len(self.start)
        self.name_id.append(self._intern(name))
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        try:
            yield idx
        finally:
            self.end[idx] = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn: Callable, name: str) -> Callable:
        """``fn`` with one span per call: :meth:`span` inlined, because this
        runs a million times per traced run (its cost is what
        ``trace.overhead_ratio`` reports)."""
        nid = self._intern(name)
        name_ids, parents, starts, ends = self.name_id, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def duration(self, idx: int) -> float:
        return self.end[idx] - self.start[idx]

    def by_name(self, root: int, stop: int) -> Dict[str, Tuple[int, float, float]]:
        """``name -> (calls, total_s, self_s)`` over ``root`` and every span
        recorded after it up to index ``stop`` (its descendants, when
        ``stop`` is the recorder's length right after ``root`` closed)."""
        ids = np.frombuffer(self.name_id, dtype=np.intc)[root:stop]
        parent = np.frombuffer(self.parent, dtype=np.intc)[root:stop] - root
        dur = (
            np.frombuffer(self.end, dtype=np.float64)[root:stop]
            - np.frombuffer(self.start, dtype=np.float64)[root:stop]
        )
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        n_names = len(self.names)
        calls = np.bincount(ids, minlength=n_names)
        total = np.bincount(ids, weights=dur, minlength=n_names)
        self_s = np.bincount(ids, weights=dur - covered, minlength=n_names)
        return {
            name: (int(calls[i]), float(total[i]), float(self_s[i]))
            for i, name in enumerate(self.names)
            if calls[i]
        }

    def dump(self, path) -> None:
        """Write every span to ``path`` (.npz): name table plus the four
        parallel arrays."""
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.intc),
            parent=np.frombuffer(self.parent, dtype=np.intc),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


def layer_self_times(stats: Dict[str, Tuple[int, float, float]]) -> Dict[str, float]:
    """Sum ``by_name`` self times per layer.  Span names are
    ``<layer>:<entry point>``; ``bench`` is the benchmark's own root spans,
    i.e. time between layer calls."""
    out: Dict[str, float] = {}
    for name, (_calls, _total, self_s) in stats.items():
        layer = name.split(":", 1)[0]
        out[layer] = out.get(layer, 0.0) + self_s
    return out


def install(rec: SpanRecorder) -> None:
    """Wrap every layer entry point on its class, so instances built
    afterwards — and bound methods they cache — go through the recorder."""
    for layer, module, cls_name, methods in ENTRY_POINTS:
        cls = getattr(importlib.import_module(module), cls_name, None)
        if cls is None:
            continue
        for meth in methods:
            fn = cls.__dict__.get(meth)
            if fn is None:
                continue
            setattr(cls, meth, rec.wrap(fn, f"{layer}:{cls_name}.{meth}"))
    # Compute models override ``sample`` per subclass; wrap each override.
    stragglers = importlib.import_module("repro.sim.stragglers")
    base = getattr(stragglers, "ComputeModel", None)
    for obj in vars(stragglers).values():
        if isinstance(obj, type) and base is not None and issubclass(obj, base):
            fn = obj.__dict__.get("sample")
            if fn is not None and not getattr(fn, "__isabstractmethod__", False):
                setattr(obj, "sample", rec.wrap(fn, f"sim.stragglers:{obj.__name__}.sample"))
