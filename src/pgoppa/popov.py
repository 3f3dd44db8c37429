"""Polynomial-matrix machinery: pivot indices, simple transformations, and
reduction to weak Popov form.  A matrix is a list of rows of Poly entries.

A matrix over GF(q)[x] is in weak Popov form when its nonzero pivot
indices are pairwise distinct; the row whose pivot degree is minimal is
then a shortest nonzero vector of the row lattice under the maximal-degree
length, and for a square basis the pivot degrees sum to the degree of its
determinant.  Reduction repeatedly cancels leading terms between rows
(simple transformations), which preserves the row span.
"""

from __future__ import annotations

from typing import Sequence

from .polyring import Poly, _cancel, _pivot


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


def weak_popov_reduce(rows: Sequence[Sequence[Poly]]) -> list[list[Poly]]:
    """Reduce a nonempty basis, given as rows, to weak Popov form by sweeps
    of simple transformations, and return the new reduced rows.

    Sweep order is deterministic: source row k ascending, target row l
    ascending, repeated until no positive pivot index repeats.  Each
    transformation adds a multiple of one row to another, so the rows span
    the same lattice.  A row's pivot is read when it becomes the source,
    for one `_cancel` call that reduces every other row, and all pivots
    once per sweep for the repeat check.  The sweeps run on bare
    coefficient lists; Poly entries are built only on return, and the
    argument is left unchanged.
    """
    field = rows[0][0].field
    rows = [[list(entry.coeffs) for entry in r] for r in rows]

    def has_repeat() -> bool:
        nonzero = [p for p in map(_pivot, rows) if p]
        return len(nonzero) != len(set(nonzero))

    while has_repeat():
        for k, src in enumerate(rows):
            col = _pivot(src) - 1
            if col >= 0:
                _cancel(rows[:k] + rows[k + 1 :], src, col, field)
    return [[Poly(field, entry) for entry in r] for r in rows]
