"""Deterministic random-number streams.

Every stochastic component in the reproduction (straggler sampling, PSSP
coin flips, data generation, weight init) draws from its own named stream
derived from a single experiment seed.  Two runs with the same seed are
bit-identical regardless of event interleavings, which is what makes the
discrete-event co-simulation reproducible and the benchmarks comparable.
"""

from __future__ import annotations

import zlib
from typing import List, Union

import numpy as np
from numpy.random.bit_generator import ISeedSequence

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


# numpy.random.SeedSequence's hash constants: its pool of 4 words, the
# hashmix that feeds entropy into it, and the state words it hands out.
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


class _Words(ISeedSequence):
    """A seed sequence whose PCG64 state words are already computed."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint64):
        assert n_words == 4 and np.dtype(dtype) == np.uint64, (n_words, dtype)
        return self.words


def derive_rngs(seed: int, stream: StreamKey, n: int) -> List[np.random.Generator]:
    """``[derive_rng(seed, stream, w) for w in range(n)]``, state for state,
    with ``SeedSequence``'s pool hash run once over all ``n`` entropy rows
    ``(seed, stream, w)`` as array work.  A stream's seed sequence holds
    only its state words, so it cannot ``spawn``."""
    mult = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal mult
        value = value ^ np.uint32(mult)
        mult = mult * _MULT_A & 0xFFFFFFFF
        value = value * np.uint32(mult)
        return value ^ value >> np.uint32(16)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
        return result ^ result >> np.uint32(16)

    entropy = [int(seed) & 0xFFFFFFFF, _key_to_int(stream)]
    rows = [np.full(n, e, dtype=np.uint32) for e in entropy]
    rows += [np.arange(n, dtype=np.uint32), np.zeros(n, dtype=np.uint32)]
    pool = [hashmix(row) for row in rows]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    # generate_state(4, np.uint64): 8 words, cycling the pool.
    words = np.empty((n, 2 * _POOL), dtype=np.uint32)
    mult = _INIT_B
    for i in range(2 * _POOL):
        value = pool[i % _POOL] ^ np.uint32(mult)
        mult = mult * _MULT_B & 0xFFFFFFFF
        value = value * np.uint32(mult)
        words[:, i] = value ^ value >> np.uint32(16)
    state = words.astype("<u4").view("<u8").astype(np.uint64)
    return [np.random.Generator(np.random.PCG64(_Words(row))) for row in state]
