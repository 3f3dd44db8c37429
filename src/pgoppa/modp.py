"""Dense exact linear algebra over Z/pZ, on numpy int64 arrays.

p is assumed prime (inverses via Fermat).  Results are reduced to [0, p).
Elimination defers its reductions mod p, so its intermediate entries stay
below min(rows, cols) * (p-1)**2 + p in absolute value; `rref_mod_p` raises
`ParamError` when that bound reaches 2**63, where int64 would overflow.
"""

from __future__ import annotations

import numpy as np

from .errors import ParamError


def rref_mod_p(mat: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form mod p.  Returns (rref, pivot column list).

    A step updates only columns from the pivot's on (the pivot row is 0 mod
    p before it) and reduces only the pivot column and row."""
    a = np.array(mat, dtype=np.int64) % p
    rows, cols = a.shape
    if min(rows, cols) * (p - 1) ** 2 + p >= 1 << 63:
        raise ParamError(f"a {rows} x {cols} elimination mod {p} would overflow int64")
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        col = a[:, c] % p
        nz = np.flatnonzero(col[r:])
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
            col[[r, pr]] = col[[pr, r]]
        a[r, c:] = a[r, c:] % p * pow(int(col[r]), p - 2, p) % p
        col[r] = 0
        others = np.flatnonzero(col)
        if others.size:
            a[others, c:] -= np.outer(col[others], a[r, c:])
        pivots.append(c)
        r += 1
    return a % p, pivots


def kernel_mod_p(mat: np.ndarray, p: int) -> np.ndarray:
    """Basis of the right null space, one basis vector per row."""
    a, pivots = rref_mod_p(mat, p)
    free = [c for c in range(a.shape[1]) if c not in pivots]
    basis = np.zeros((len(free), a.shape[1]), dtype=np.int64)
    basis[:, free] = np.eye(len(free), dtype=np.int64)
    basis[:, pivots] = -a[: len(pivots), free].T % p
    return basis


def inv_mod_p(mat: np.ndarray, p: int) -> np.ndarray | None:
    """Matrix inverse mod p, or None if singular."""
    a = np.array(mat, dtype=np.int64) % p
    n = a.shape[0]
    aug, pivots = rref_mod_p(np.hstack([a, np.eye(n, dtype=np.int64)]), p)
    if len(pivots) < n or pivots[:n] != list(range(n)):
        return None
    return aug[:, n:]
