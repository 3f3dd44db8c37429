"""Seeded pseudo-random number generation for reproducible experiments.

The generator is splitmix64: 64-bit state advanced by the odd constant
0x9E3779B97F4A7C15, output finalized with two xor-shift-multiply rounds.
It is tiny, fast, and easy to reimplement bit-for-bit in any language,
which is the point: experiment results are keyed to (seed, trial index)
and must be reproducible outside this codebase.

Integer draws use ``next_u64() % n``.  The modulo bias is below n / 2**64
and irrelevant for the desk-scale n used here.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1, _MIX2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB


def mix64(z):
    """The splitmix64 output function (Stafford variant 13) on an int, or
    elementwise and in place on a uint64 array: numpy wraps the array's
    products mod 2**64, so only the int takes the masks."""
    if isinstance(z, np.ndarray):
        z ^= z >> 30
        z *= np.uint64(_MIX1)
        z ^= z >> 27
        z *= np.uint64(_MIX2)
        z ^= z >> 31
        return z
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """splitmix64 stream with the convenience draws the library needs."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK64
        return mix64(self.state)

    def next_u64_block(self, n: int) -> np.ndarray:
        """The next n next_u64() outputs as a uint64 array, without moving
        the state; `advance(n)` moves it past them."""
        states = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(_GAMMA)
        states += np.uint64(self.state)
        return mix64(states)

    def advance(self, n: int) -> None:
        """Skip n draws."""
        self.state = (self.state + n * _GAMMA) & _MASK64

    def randrange(self, n: int) -> int:
        """Uniform-ish integer in [0, n)."""
        if n <= 0:
            raise ValueError("randrange() argument must be positive")
        return self.next_u64() % n

    def randranges(self, bounds) -> list[int]:
        """randrange(n) for each n in bounds, in order: the values and final
        state of successive randrange calls, drawn as one block.  Each bound
        must be below 2**64."""
        bounds = list(bounds)
        if min(bounds, default=1) <= 0:
            raise ValueError("randrange() argument must be positive")
        draws = self.next_u64_block(len(bounds)) % np.array(bounds, dtype=np.uint64)
        self.advance(len(bounds))
        return draws.tolist()

    def sample(self, seq, k: int) -> list:
        """k distinct items, uniform without replacement (partial Fisher-Yates)."""
        pool = list(seq)
        if not 0 <= k <= len(pool):
            raise ValueError("sample size out of range")
        for i, r in enumerate(self.randranges(range(len(pool), len(pool) - k, -1))):
            pool[i], pool[i + r] = pool[i + r], pool[i]
        return pool[:k]

    def shuffle(self, seq: list) -> None:
        for i, j in zip(range(len(seq) - 1, 0, -1), self.randranges(range(len(seq), 1, -1))):
            seq[i], seq[j] = seq[j], seq[i]


def trial_stream(seed: int, index: int) -> SplitMix64:
    """Independent per-trial stream derived from (seed, trial index).

    The stream seed is mix64(seed + index * 0x9E3779B97F4A7C15), so streams
    for consecutive indices are decorrelated rather than shifted copies of
    one another, and trial i can be regenerated without replaying 0..i-1.
    """
    return SplitMix64(mix64((seed + index * _GAMMA) & _MASK64))
