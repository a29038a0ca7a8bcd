"""Key space management: tensors, shard pieces, default slicing and EPS.

PS-Lite's default slicing range-partitions the raw key space, and since a
DNN's parameter sizes are heavily skewed (a fully-connected layer can hold
most of the parameters), one server ends up with most of the bytes — the
load-imbalance problem the paper attributes to PS-Lite (§III-A).

Elastic Parameter Slicing (EPS) remaps original keys to new keys so the
model's parameters divide evenly over all key ranges, and rebalances with
minimal movement when the server count changes.
"""

from __future__ import annotations

import abc
import zlib
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Tuple


@dataclass(frozen=True)
class TensorSpec:
    """One named parameter tensor of the model."""

    name: str
    shape: Tuple[int, ...]
    dtype_size: int = 4  # bytes per element (fp32)

    def __post_init__(self) -> None:
        if not self.shape or any(d <= 0 for d in self.shape):
            raise ValueError(f"invalid shape {self.shape} for tensor {self.name!r}")
        if self.dtype_size <= 0:
            raise ValueError(f"dtype_size must be positive, got {self.dtype_size}")

    @property
    def elements(self) -> int:
        n = 1
        for d in self.shape:
            n *= d
        return n

    @property
    def nbytes(self) -> int:
        return self.elements * self.dtype_size


@dataclass(frozen=True)
class ModelSpec:
    """An ordered collection of parameter tensors."""

    name: str
    tensors: Tuple[TensorSpec, ...]

    def __post_init__(self) -> None:
        names = [t.name for t in self.tensors]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tensor names in model {self.name!r}")
        if not self.tensors:
            raise ValueError(f"model {self.name!r} has no tensors")

    @classmethod
    def from_tensors(cls, name: str, tensors: Iterable[TensorSpec]) -> "ModelSpec":
        return cls(name=name, tensors=tuple(tensors))

    @property
    def total_elements(self) -> int:
        return sum(t.elements for t in self.tensors)

    @property
    def total_bytes(self) -> int:
        return sum(t.nbytes for t in self.tensors)

    def tensor(self, name: str) -> TensorSpec:
        for t in self.tensors:
            if t.name == name:
                return t
        raise KeyError(f"no tensor {name!r} in model {self.name!r}")


@dataclass(frozen=True)
class ShardPiece:
    """A contiguous element range ``[start, stop)`` of one tensor."""

    tensor: str
    start: int
    stop: int
    dtype_size: int = 4

    def __post_init__(self) -> None:
        if not 0 <= self.start < self.stop:
            raise ValueError(f"invalid piece range [{self.start}, {self.stop})")

    @property
    def elements(self) -> int:
        return self.stop - self.start

    @property
    def nbytes(self) -> int:
        return self.elements * self.dtype_size


@dataclass
class Assignment:
    """Maps each server index to the shard pieces it owns."""

    n_servers: int
    pieces: Dict[int, List[ShardPiece]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.n_servers < 1:
            raise ValueError("need at least one server")
        for m in range(self.n_servers):
            self.pieces.setdefault(m, [])

    def add(self, server: int, piece: ShardPiece) -> None:
        if not 0 <= server < self.n_servers:
            raise ValueError(f"server {server} out of range [0, {self.n_servers})")
        self.pieces[server].append(piece)

    def bytes_per_server(self) -> List[int]:
        return [sum(p.nbytes for p in self.pieces[m]) for m in range(self.n_servers)]

    def imbalance(self) -> float:
        """max/mean byte load; 1.0 is perfectly balanced."""
        loads = self.bytes_per_server()
        mean = sum(loads) / len(loads)
        if mean == 0:
            return 1.0
        return max(loads) / mean

    def validate_partition(self, model: ModelSpec) -> None:
        """Assert the assignment is an exact, non-overlapping cover of the model."""
        per_tensor: Dict[str, List[Tuple[int, int]]] = {t.name: [] for t in model.tensors}
        for m in range(self.n_servers):
            for p in self.pieces[m]:
                if p.tensor not in per_tensor:
                    raise ValueError(f"piece references unknown tensor {p.tensor!r}")
                per_tensor[p.tensor].append((p.start, p.stop))
        for t in model.tensors:
            ranges = sorted(per_tensor[t.name])
            cursor = 0
            for start, stop in ranges:
                if start != cursor:
                    raise ValueError(
                        f"tensor {t.name!r}: gap/overlap at element {cursor} "
                        f"(next piece starts at {start})"
                    )
                cursor = stop
            if cursor != t.elements:
                raise ValueError(
                    f"tensor {t.name!r}: covered {cursor} of {t.elements} elements"
                )

    def moved_bytes(self, other: "Assignment") -> int:
        """Bytes whose owning server differs between two assignments.

        Computed at piece-boundary granularity: both assignments' boundaries
        are merged per tensor and each fragment compared.
        """
        owners_a = _owner_map(self)
        owners_b = _owner_map(other)
        moved = 0
        tensors = set(owners_a) | set(owners_b)
        for tname in tensors:
            bounds = sorted(
                {b for (s, e, _m) in owners_a.get(tname, []) for b in (s, e)}
                | {b for (s, e, _m) in owners_b.get(tname, []) for b in (s, e)}
            )
            for s, e in zip(bounds[:-1], bounds[1:]):
                ma = _owner_at(owners_a.get(tname, []), s)
                mb = _owner_at(owners_b.get(tname, []), s)
                if ma != mb:
                    moved += (e - s)
        return moved * 4  # fp32


def _owner_map(a: Assignment) -> Dict[str, List[Tuple[int, int, int]]]:
    out: Dict[str, List[Tuple[int, int, int]]] = {}
    for m in range(a.n_servers):
        for p in a.pieces[m]:
            out.setdefault(p.tensor, []).append((p.start, p.stop, m))
    for v in out.values():
        v.sort()
    return out


def _owner_at(ranges: List[Tuple[int, int, int]], element: int) -> int:
    for s, e, m in ranges:
        if s <= element < e:
            return m
    return -1


class Slicer(abc.ABC):
    """Strategy mapping a model's tensors onto M server shards."""

    @abc.abstractmethod
    def slice(self, model: ModelSpec, n_servers: int) -> Assignment:
        """Produce an exact partition of the model over ``n_servers``."""


class DefaultSlicer(Slicer):
    """PS-Lite-style range partition of the raw key space.

    Each tensor is one key (its hash position in a uint key space); the key
    space is split into M equal ranges; a tensor lands wholly on whichever
    range its key falls into.  Because hashing ignores tensor *size*, a
    model dominated by one large tensor puts most bytes on one server —
    this is the imbalance FluentPS's EPS fixes.
    """

    def slice(self, model: ModelSpec, n_servers: int) -> Assignment:
        if n_servers < 1:
            raise ValueError("need at least one server")
        assignment = Assignment(n_servers=n_servers)
        space = 2**32
        for t in model.tensors:
            key = zlib.crc32(t.name.encode("utf-8")) % space
            server = min(int(key * n_servers // space), n_servers - 1)
            assignment.add(server, ShardPiece(t.name, 0, t.elements, t.dtype_size))
        return assignment


class RangeKeySlicer(Slicer):
    """PS-Lite's literal default: equal *range partition of the key space*.

    PS-Lite splits the uint key space into M equal ranges and a tensor
    lands wholly on the range containing its key.  Frameworks number keys
    sequentially from 0, so every key of a normal-sized model falls into
    the **first** range and one server holds (almost) all parameters —
    "the default slicing method incurs load imbalances problem because it
    puts most parameters on one key range of a server" (paper §III-A).
    This is the PS-Lite baseline's slicer in the Figure 6 experiments.

    ``key_space`` defaults to 2^32; pass a small value (e.g. the tensor
    count) to see the balanced best case.
    """

    def __init__(self, key_space: int = 2**32):
        if key_space < 1:
            raise ValueError("key_space must be >= 1")
        self.key_space = key_space

    def slice(self, model: ModelSpec, n_servers: int) -> Assignment:
        if n_servers < 1:
            raise ValueError("need at least one server")
        assignment = Assignment(n_servers=n_servers)
        for key, t in enumerate(model.tensors):
            if key >= self.key_space:
                raise ValueError(
                    f"model has more tensors ({len(model.tensors)}) than keys "
                    f"({self.key_space})"
                )
            server = min(int(key * n_servers // self.key_space), n_servers - 1)
            assignment.add(server, ShardPiece(t.name, 0, t.elements, t.dtype_size))
        return assignment


class ElasticSlicer(Slicer):
    """Elastic Parameter Slicing (EPS).

    Remaps original keys to new keys that divide the model parameters
    evenly on all key ranges: every tensor is split into chunks of at most
    ``chunk_elements``, and chunks are placed greedily (longest processing
    time first) onto the least-loaded server.  ``rebalance`` migrates the
    minimum number of chunks when the server count changes — the paper's
    "when the number of servers changes, EPS can also rebalance the
    workloads among the alive servers".
    """

    def __init__(self, chunk_elements: int = 1 << 16):
        if chunk_elements < 1:
            raise ValueError(f"chunk_elements must be >= 1, got {chunk_elements}")
        self.chunk_elements = chunk_elements

    def _chunks(self, model: ModelSpec) -> List[ShardPiece]:
        chunks: List[ShardPiece] = []
        for t in model.tensors:
            start = 0
            while start < t.elements:
                stop = min(start + self.chunk_elements, t.elements)
                chunks.append(ShardPiece(t.name, start, stop, t.dtype_size))
                start = stop
        return chunks

    def slice(self, model: ModelSpec, n_servers: int) -> Assignment:
        if n_servers < 1:
            raise ValueError("need at least one server")
        assignment = Assignment(n_servers=n_servers)
        loads = [0] * n_servers
        # LPT greedy: biggest chunks first onto the least-loaded server.
        # Ties broken by server index for determinism.
        for chunk in sorted(self._chunks(model), key=lambda p: (-p.nbytes, p.tensor, p.start)):
            m = min(range(n_servers), key=lambda i: (loads[i], i))
            assignment.add(m, chunk)
            loads[m] += chunk.nbytes
        return assignment

    def rebalance(self, current: Assignment, n_servers: int) -> Assignment:
        """Adapt an existing assignment to a new server count, moving as
        few bytes as possible: surviving servers keep their chunks, then
        chunks flow from overloaded to underloaded servers until every
        load is within one chunk of the mean."""
        if n_servers < 1:
            raise ValueError("need at least one server")
        out = Assignment(n_servers=n_servers)
        # Chunks on removed servers must move; surviving placements persist.
        homeless: List[ShardPiece] = []
        for m in range(current.n_servers):
            for p in current.pieces[m]:
                if m < n_servers:
                    out.add(m, p)
                else:
                    homeless.append(p)
        loads = out.bytes_per_server()
        for chunk in sorted(homeless, key=lambda p: (-p.nbytes, p.tensor, p.start)):
            m = min(range(n_servers), key=lambda i: (loads[i], i))
            out.add(m, chunk)
            loads[m] += chunk.nbytes
        # Drain overloaded servers down toward the mean.
        total = sum(loads)
        mean = total / n_servers
        moved = True
        while moved:
            moved = False
            donor = max(range(n_servers), key=lambda i: loads[i])
            receiver = min(range(n_servers), key=lambda i: loads[i])
            if donor == receiver or not out.pieces[donor]:
                break
            # Smallest chunk on the donor that still helps.
            candidates = sorted(out.pieces[donor], key=lambda p: p.nbytes)
            for chunk in candidates:
                if loads[donor] - mean > chunk.nbytes / 2 and mean - loads[receiver] > chunk.nbytes / 2:
                    out.pieces[donor].remove(chunk)
                    out.add(receiver, chunk)
                    loads[donor] -= chunk.nbytes
                    loads[receiver] += chunk.nbytes
                    moved = True
                    break
        return out
