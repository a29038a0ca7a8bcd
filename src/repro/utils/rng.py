"""Deterministic random-number streams.

Every stochastic component in the reproduction (straggler sampling, PSSP
coin flips, data generation, weight init) draws from its own named stream
derived from a single experiment seed.  Two runs with the same seed are
bit-identical regardless of event interleavings, which is what makes the
discrete-event co-simulation reproducible and the benchmarks comparable.
"""

from __future__ import annotations

import zlib
from typing import Union

import numpy as np

StreamKey = Union[int, str]


def _key_to_int(key: StreamKey) -> int:
    """Map a stream key to a stable 32-bit integer."""
    if isinstance(key, (int, np.integer)):
        return int(key) & 0xFFFFFFFF
    return zlib.crc32(str(key).encode("utf-8")) & 0xFFFFFFFF


def derive_rng(seed: int, *streams: StreamKey) -> np.random.Generator:
    """Return a Generator for the stream named by ``streams`` under ``seed``.

    ``derive_rng(7, "worker", 3)`` always yields the same stream, independent
    of any other stream drawn from seed 7.
    """
    entropy = [int(seed) & 0xFFFFFFFF] + [_key_to_int(k) for k in streams]
    return np.random.default_rng(np.random.SeedSequence(entropy))

