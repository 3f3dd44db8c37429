"""Dense exact linear algebra over Z/pZ, on numpy int64 arrays.

p is assumed prime.  Results are reduced to [0, p).  Both functions run
`polyring._eliminate` over GF(p), the elimination the decoder's bounded
solve runs over GF(q); its field arithmetic is exact for every prime p.
polyring imports this module, so it is reached as `polyring._eliminate`
when called.
"""

from __future__ import annotations

import numpy as np

from . import polyring
from .fields import make_field


def kernel_mod_p(mat: np.ndarray, p: int) -> np.ndarray:
    """Basis of the right null space, one basis vector per row: for each
    free column, in order, the vector that is 1 there and 0 at the other
    free columns.  `mat` is read, never written."""
    rows, cols = np.shape(mat)
    a = (np.asarray(mat, dtype=np.int64) % p).T.copy()[:, None]  # a[column, 1 stack, row]
    pivots = polyring._eliminate(a, rows, make_field(p, 1))[0]
    free = sorted(set(range(cols)).difference(pivots.tolist()))
    basis = np.zeros((len(free), cols), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    held = pivots >= 0
    basis[:, pivots[held]] = a[free, 0][:, held]
    return basis


def inv_mod_p(mat: np.ndarray, p: int) -> np.ndarray | None:
    """Matrix inverse mod p, or None if singular.  The kernel of [A | -I]
    holds the (x, Ax): its free columns are the last n exactly when A is
    invertible, and then basis vector i is (column i of A**-1, e_i)."""
    n = len(mat)
    basis = kernel_mod_p(np.hstack([np.asarray(mat, dtype=np.int64), -np.eye(n, dtype=np.int64)]), p)
    if not np.array_equal(basis[:, n:], np.eye(n)):
        return None
    return basis[:, :n].T
