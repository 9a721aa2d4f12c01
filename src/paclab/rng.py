"""Deterministic random streams.

A stream is identified by (master seed, stream index); the same pair
always reproduces the same draws. Disjoint stream indices give
independent-for-all-practical-purposes streams, which is how concurrent
Monte Carlo trials stay reproducible regardless of scheduling.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

_MASK64 = (1 << 64) - 1
_MIX_START = 0x243F6A8885A308D3
_GAMMA, _MUL1, _MUL2 = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB


def _splitmix64(x: int) -> int:
    # Standard SplitMix64 finalizer; good avalanche for seed derivation.
    x = (x + _GAMMA) & _MASK64
    x = ((x ^ (x >> 30)) * _MUL1) & _MASK64
    x = ((x ^ (x >> 27)) * _MUL2) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def _splitmix64_array(x: np.ndarray) -> np.ndarray:
    """_splitmix64 on each entry of a uint64 array, in place: uint64
    arithmetic wraps mod 2^64, as the masks do."""
    x += np.uint64(_GAMMA)
    x ^= x >> np.uint64(30)
    x *= np.uint64(_MUL1)
    x ^= x >> np.uint64(27)
    x *= np.uint64(_MUL2)
    x ^= x >> np.uint64(31)
    return x


def mix(*parts: int) -> int:
    """Collapse integers into one 64-bit value, order-sensitively."""
    acc = _MIX_START
    for p in parts:
        acc = _splitmix64(acc ^ (p & _MASK64))
    return acc


@dataclass(frozen=True)
class RngStream:
    """A named position in the global randomness plan, whose generator is
    seeded with `seed`. Monte Carlo trial t against member i draws from
    substream child(*prefix, i, t); a block of trials takes all their
    seeds from one pass (`child_seeds`)."""

    master_seed: int
    stream_index: int = 0

    @property
    def seed(self) -> int:
        """The seed of this stream's generator."""
        return mix(self.master_seed, self.stream_index)

    def generator(self) -> random.Random:
        """Fresh PRNG for this stream; calling twice gives identical draws."""
        return random.Random(self.seed)

    def child(self, *indices: int) -> "RngStream":
        """Substream addressed by extra indices (level, target, trial, ...)."""
        return RngStream(self.master_seed, mix(self.stream_index, *indices))

    def child_seeds(self, *prefix: int, count: int) -> list:
        """[self.child(*prefix, t).seed for t in range(count)], with no
        stream built: mix folds its parts left to right, so the master seed
        and the shared (stream index, *prefix) are each folded once, and the
        two rounds per trial run as one uint64 pass each."""
        index = np.uint64(mix(self.stream_index, *prefix))
        seeds = _splitmix64_array(np.arange(count, dtype=np.uint64) ^ index)
        seeds ^= np.uint64(mix(self.master_seed))
        return _splitmix64_array(seeds).tolist()
