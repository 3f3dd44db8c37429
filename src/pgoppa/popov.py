"""Polynomial-matrix machinery: pivot indices, simple transformations, and
reduction to weak Popov form.  A matrix is a list of rows of Poly entries.

A matrix over GF(q)[x] is in weak Popov form when its nonzero pivot
indices are pairwise distinct; the row whose pivot degree is minimal is
then a shortest nonzero vector of the row lattice under the maximal-degree
length.  Reduction repeatedly cancels leading terms between rows (simple
transformations), which preserves the row span and keeps the transform
unimodular.
"""

from __future__ import annotations

from typing import Sequence

from .polyring import Poly, _row_addmul


def pivot_index(row: Sequence[Poly]) -> int:
    """1-based index of the rightmost entry of maximal degree; 0 for a zero row."""
    return _pivot([entry.coeffs for entry in row])


def degree_tableau(rows: Sequence[Sequence[Poly]]) -> str:
    """Entry degrees as text, '.' for zero entries; pivots bracketed."""
    lines = []
    for row in rows:
        piv = pivot_index(row)
        cells = []
        for j, entry in enumerate(row, start=1):
            d = "." if entry.is_zero() else str(entry.degree)
            cells.append(f"[{d}]" if j == piv else f" {d} ")
        lines.append(" ".join(cells))
    return "\n".join(lines)


def _pivot(row: Sequence[Sequence[int]]) -> int:
    """pivot_index on coefficient lists: degrees are lengths minus one."""
    best = 0
    best_len = 1
    for j, entry in enumerate(row, start=1):
        if len(entry) >= best_len:
            best_len = len(entry)
            best = j
    return best


def weak_popov_reduce(
    rows: Sequence[Sequence[Poly]], accumulate: bool = False
) -> tuple[list[list[Poly]], list[list[Poly]] | None]:
    """Reduce a nonempty basis, given as rows, to weak Popov form by sweeps
    of simple transformations.

    Sweep order is deterministic: source row k ascending, target row l
    ascending, repeated until no positive pivot index repeats.  Returns new
    reduced rows and, when accumulate is set, the rows of the unimodular U
    with U * rows == reduced (U is a product of elementary row operations,
    so its determinant is a nonzero constant).  The sweeps run on bare
    coefficient lists; Poly entries are built only on return, and the
    argument is left unchanged.
    """
    field = rows[0][0].field
    rows = [[list(entry.coeffs) for entry in r] for r in rows]
    n = len(rows)
    u = [[[1] if i == j else [] for j in range(n)] for i in range(n)] if accumulate else None
    piv = [_pivot(r) for r in rows]

    def has_repeat() -> bool:
        nonzero = [p for p in piv if p]
        return len(nonzero) != len(set(nonzero))

    while has_repeat():
        for k in range(n):
            if piv[k] == 0:
                continue
            col = piv[k] - 1
            src = rows[k]
            size = len(src[col])
            inv_lc = field.inv(src[col][-1])
            for ell in range(n):
                if ell == k:
                    continue
                dst = rows[ell]
                while len(dst[col]) >= size:
                    nc = field.neg(field.mul(dst[col][-1], inv_lc))
                    e = len(dst[col]) - size
                    _row_addmul(dst, src, nc, e, field)
                    if u is not None:
                        _row_addmul(u[ell], u[k], nc, e, field)
                piv[ell] = _pivot(dst)

    def to_polys(m: list[list[list[int]]]) -> list[list[Poly]]:
        return [[Poly(field, entry) for entry in r] for r in m]

    return to_polys(rows), (to_polys(u) if u is not None else None)


def min_pivot_row(rows: Sequence[Sequence[Poly]]) -> list[Poly]:
    """A row of minimal pivot degree (ties: lowest row index).

    For a matrix in weak Popov form this is a shortest nonzero lattice
    vector: every vector in the row span has degree at least the minimal
    pivot degree.
    """
    best_row = None
    best_deg = None
    for row in rows:
        p = pivot_index(row)
        if p == 0:
            continue
        d = row[p - 1].degree
        if best_deg is None or d < best_deg:
            best_deg = d
            best_row = row
    if best_row is None:
        raise ValueError("matrix has no nonzero row")
    return list(best_row)


def det_fraction_free(rows: Sequence[Sequence[Poly]]) -> Poly:
    """Determinant by Bareiss one-step fraction-free elimination.

    Divisions are exact in GF(q)[x]; intended for the small audit matrices
    produced alongside reductions, not for production linear algebra.
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant of a non-square matrix")
    field = rows[0][0].field
    m = [list(r) for r in rows]
    sign = 1
    prev = Poly.one(field)
    for k in range(n - 1):
        if m[k][k].is_zero():
            for i in range(k + 1, n):
                if not m[i][k].is_zero():
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return Poly.zero(field)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[k][k] * m[i][j] - m[i][k] * m[k][j]
                q, r = divmod(num, prev)
                assert r.is_zero(), "fraction-free elimination division not exact"
                m[i][j] = q
            m[i][k] = Poly.zero(field)
        prev = m[k][k]
    det = m[n - 1][n - 1]
    if sign < 0:
        det = -det
    return det
