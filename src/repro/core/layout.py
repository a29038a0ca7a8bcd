"""Shard layout: mapping a flat parameter vector onto server shards.

Training code sees one flat fp32 vector of all model parameters (the
concatenation of the model's tensors in declaration order).  A
:class:`ShardLayout` compiles a slicing :class:`~repro.core.keyspace.Assignment`
into per-server flat slices so gradients/parameters scatter and gather with
pure NumPy slicing — no per-element bookkeeping at runtime.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.core.keyspace import Assignment, ModelSpec


@dataclass(frozen=True, order=True)
class FlatSlice:
    """A contiguous range of the flat parameter vector owned by a server."""

    start: int
    stop: int

    @property
    def length(self) -> int:
        return self.stop - self.start


class ShardLayout:
    """Compiled scatter/gather plan for one (model, assignment) pair."""

    def __init__(self, model: ModelSpec, assignment: Assignment):
        assignment.validate_partition(model)
        self.model = model
        self.assignment = assignment
        self.n_servers = assignment.n_servers
        self.total_elements = model.total_elements

        offsets: Dict[str, int] = {}
        cursor = 0
        for t in model.tensors:
            offsets[t.name] = cursor
            cursor += t.elements
        self._tensor_offsets = offsets

        # Per-server sorted flat slices; pieces of one tensor are contiguous
        # in the flat vector, so each piece maps to exactly one flat range.
        self.slices: List[List[FlatSlice]] = []
        for m in range(self.n_servers):
            ranges = sorted(
                FlatSlice(
                    offsets[p.tensor] + p.start,
                    offsets[p.tensor] + p.stop,
                )
                for p in assignment.pieces[m]
            )
            self.slices.append(self._coalesce(ranges))

        self.shard_elements = [sum(s.length for s in self.slices[m]) for m in range(self.n_servers)]

    @staticmethod
    def _coalesce(ranges: Sequence[FlatSlice]) -> List[FlatSlice]:
        out: List[FlatSlice] = []
        for r in ranges:
            if out and out[-1].stop == r.start:
                out[-1] = FlatSlice(out[-1].start, r.stop)
            else:
                out.append(r)
        return out

    # -- scatter / gather ----------------------------------------------------

    def scatter(self, flat: np.ndarray) -> List[np.ndarray]:
        """Split a flat vector into per-server shard vectors (copies)."""
        if flat.shape != (self.total_elements,):
            raise ValueError(
                f"expected flat vector of {self.total_elements} elements, got {flat.shape}"
            )
        shards = []
        for m in range(self.n_servers):
            parts = [flat[s.start : s.stop] for s in self.slices[m]]
            shards.append(np.concatenate(parts) if parts else np.empty(0, dtype=flat.dtype))
        return shards

    def gather(self, shards: Sequence[np.ndarray], out: np.ndarray = None) -> np.ndarray:
        """Reassemble per-server shard vectors into a flat vector."""
        if len(shards) != self.n_servers:
            raise ValueError(f"expected {self.n_servers} shards, got {len(shards)}")
        if out is None:
            out = np.empty(self.total_elements, dtype=np.float64)
        for m, shard in enumerate(shards):
            if shard.shape != (self.shard_elements[m],):
                raise ValueError(
                    f"shard {m}: expected {self.shard_elements[m]} elements, got {shard.shape}"
                )
            cursor = 0
            for s in self.slices[m]:
                out[s.start : s.stop] = shard[cursor : cursor + s.length]
                cursor += s.length
        return out

    def gather_into(self, out: np.ndarray, server: int, shard: np.ndarray) -> None:
        """Write one server's shard back into a flat vector in place."""
        if shard.shape != (self.shard_elements[server],):
            raise ValueError(
                f"shard {server}: expected {self.shard_elements[server]} elements, "
                f"got {shard.shape}"
            )
        cursor = 0
        for s in self.slices[server]:
            out[s.start : s.stop] = shard[cursor : cursor + s.length]
            cursor += s.length

    # -- sizing ----------------------------------------------------------------

    def shard_bytes(self, server: int, dtype_size: int = 4) -> int:
        """Wire size of one shard's parameters/gradients."""
        return self.shard_elements[server] * dtype_size
