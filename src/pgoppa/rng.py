"""Seeded pseudo-random number generation for reproducible experiments.

The generator is splitmix64: 64-bit state advanced by the odd constant
0x9E3779B97F4A7C15, output finalized with two xor-shift-multiply rounds.
It is tiny, fast, and easy to reimplement bit-for-bit in any language,
which is the point: experiment results are keyed to (seed, trial index)
and must be reproducible outside this codebase.

Integer draws use ``next_u64() % n``.  The modulo bias is below n / 2**64
and irrelevant for the desk-scale n used here.

A stream serves every draw, single or block, from a window of its next
outputs computed in one numpy step, so a block draw costs a slice; the
outputs are exactly those of successive ``next_u64`` calls.  ``sample``
reads only the positions it draws: O(k) however long its sequence is.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1, _MIX2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
_WINDOW = 1024  # outputs computed at a time, unless one request asks for more
_STEPS = np.arange(1, _WINDOW + 1, dtype=np.uint64) * np.uint64(_GAMMA)
_EMPTY = np.empty(0, dtype=np.uint64)  # the window just after the state is set
_EMPTY.flags.writeable = False


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
    """splitmix64 stream with the convenience draws the library needs.

    It keeps a read-only window of at least `_WINDOW` next outputs, the
    state `_base` stepped 1, 2, ... times, and a cursor `_pos` into it;
    `state` reads `_base` stepped `_pos` times, and assigning it drops the
    window."""

    __slots__ = ("_base", "_pos", "_window")

    def __init__(self, seed: int):
        self.state = seed

    @property
    def state(self) -> int:
        return (self._base + self._pos * _GAMMA) & _MASK64

    @state.setter
    def state(self, value: int) -> None:
        self._base, self._pos, self._window = value & _MASK64, 0, _EMPTY

    def _ahead(self, n: int) -> np.ndarray:
        """The window, recomputed from the state first if it holds fewer than
        n outputs past the cursor."""
        if self._pos + n > len(self._window):
            base = self.state
            steps = _STEPS if n <= _WINDOW else np.arange(1, n + 1, dtype=np.uint64) * np.uint64(_GAMMA)
            window = mix64(steps + np.uint64(base))
            window.flags.writeable = False
            self._base, self._pos, self._window = base, 0, window
        return self._window

    def next_u64(self) -> int:
        window = self._ahead(1)
        self._pos += 1
        return window.item(self._pos - 1)

    def next_u64_block(self, n: int) -> np.ndarray:
        """The next n next_u64() outputs as a read-only uint64 array, without
        moving the state; `advance(n)` moves it past them."""
        window = self._ahead(n)
        return window[self._pos : self._pos + max(n, 0)]

    def advance(self, n: int) -> None:
        """Skip n draws."""
        pos = self._pos + n
        if 0 <= pos <= len(self._window):
            self._pos = pos
        else:
            self.state = self._base + pos * _GAMMA

    def randrange(self, n: int) -> int:
        """Uniform-ish integer in [0, n)."""
        if n <= 0:
            raise ValueError("randrange() argument must be positive")
        return self.next_u64() % n

    def randranges(self, bounds) -> list[int]:
        """randrange(n) for each n in bounds, in order: the values and final
        state of successive randrange calls, drawn as one block.  Each bound
        must be below 2**64."""
        if isinstance(bounds, range):
            if bounds and min(bounds[0], bounds[-1]) <= 0:
                raise ValueError("randrange() argument must be positive")
            moduli = np.arange(bounds.start, bounds.stop, bounds.step, dtype=np.uint64)
        else:
            bounds = list(bounds)
            if min(bounds, default=1) <= 0:
                raise ValueError("randrange() argument must be positive")
            moduli = np.array(bounds, dtype=np.uint64)
        draws = self.next_u64_block(len(moduli)) % moduli
        self.advance(len(moduli))
        return draws.tolist()

    def sample(self, seq, k: int) -> list:
        """k distinct items of the sequence seq, uniform without replacement:
        a partial Fisher-Yates that keeps the first k positions in a list
        and any later position a swap moves in a dict, so it reads O(k)
        items of seq, which must support len, indexing and slicing."""
        n = len(seq)
        if not 0 <= k <= n:
            raise ValueError("sample size out of range")
        head, moved = list(seq[:k]), {}
        for i, r in enumerate(self.randranges(range(n, n - k, -1))):
            j = i + r
            if j < k:
                head[i], head[j] = head[j], head[i]
            else:
                head[i], moved[j] = moved.get(j, seq[j]), head[i]
        return head

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
