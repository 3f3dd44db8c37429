"""Host-speed calibration: a fixed loop of benchmark-owned Python.

The benchmark host is a shared VM whose speed swings by up to 1.8x over a
few seconds, when other tenants load the same cores.  Timing this loop next
to each operation measures that swing.  The loop never touches pgoppa, so a
change to the package cannot move it; it churns small lists and objects and
looks up tables, as the package's polynomial code does, and so slows down
with the host by about the same factor (checked on `probe` and `fixed`: 5-s
windows of p50 latency spread 30% raw, 1.3% after scaling).

A time t measured next to a loop sample c is reported as t * REF_MS / c:
milliseconds on the reference host in its fast state.
"""

from __future__ import annotations

import time

REF_MS = 0.19  # loop time on the reference host, fast state (2-core VM, Python 3.11)

_MUL = [[(a * b) % 251 for b in range(32)] for a in range(32)]


class _Poly:
    __slots__ = ("c",)

    def __init__(self, c: list[int]):
        self.c = c

    def add(self, other: "_Poly") -> "_Poly":
        a, b = self.c, other.c
        if len(a) < len(b):
            a, b = b, a
        return _Poly([x ^ y for x, y in zip(a, b)] + a[len(b):])


def _loop() -> int:
    p, q, acc = _Poly(list(range(24))), _Poly([3] * 20), 0
    for i in range(60):
        p = p.add(q)
        acc += sum(_MUL[x & 31][i & 31] for x in p.c)
    return acc


def sample_ms() -> float:
    """Wall time of one pass of the loop, in ms."""
    start = time.perf_counter_ns()
    _loop()
    return (time.perf_counter_ns() - start) / 1e6

