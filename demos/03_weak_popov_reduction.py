#!/usr/bin/env python3
"""Weak Popov form step by step: pivot indices, simple transformations,
and the shortest-vector guarantee.  A matrix is a list of rows of Poly
entries."""

from pgoppa import Poly, make_field
from pgoppa.popov import degree_tableau, pivot_index, weak_popov_reduce
from pgoppa.rng import SplitMix64

F = make_field(3, 2)
rng = SplitMix64(5)

# A pivot index is the rightmost column attaining the row's maximal degree.
x = Poly.x(F)
one = Poly.one(F)
print("pivot of (x, 1):", pivot_index([x, one]))
print("pivot of (x, x):", pivot_index([x, x]), "  (ties resolve rightward)")

# Decoder-shaped basis: first row (g, 0, 0), then rows (-v_k, .., 1, ..).
t = 5
g = Poly(F, [rng.randrange(9) for _ in range(t)] + [1])
v1 = Poly(F, [rng.randrange(9) for _ in range(t)])
v2 = Poly(F, [rng.randrange(9) for _ in range(t)])
zero = Poly.zero(F)
basis = [[g, zero, zero], [-v1, one, zero], [-v2, zero, one]]
print("\ninput degree tableau (pivots bracketed):")
print(degree_tableau(basis))

reduced = weak_popov_reduce(basis)
print("\nreduced degree tableau:")
print(degree_tableau(reduced))
pivots = [pivot_index(row) for row in reduced]
print("pivot indices now pairwise distinct:", pivots)

# The reduction keeps the lattice.  Each reduced row (a0, a1, a2) lies in
# it, i.e. g divides a0 + a1*v1 + a2*v2; and the pivot degrees sum to
# deg det = deg g, which no proper sublattice of full rank reaches.
print("\nrows in the lattice:", [((a0 + a1 * v1 + a2 * v2) % g).is_zero() for a0, a1, a2 in reduced])
degrees = [row[j - 1].degree for row, j in zip(reduced, pivots)]
print("pivot degrees:", degrees, " sum:", sum(degrees), " deg g:", g.degree)

# Every vector of the row lattice has degree at least the minimal pivot
# degree, so the minimal pivot row is a shortest nonzero vector.
short = min(reduced, key=lambda row: row[pivot_index(row) - 1].degree)
short_deg = max(e.degree for e in short)
print("\nshortest row:", short, " degree:", short_deg)
for _ in range(3):
    mult = [Poly(F, [rng.randrange(9) for _ in range(3)]) for _ in range(3)]
    comb = [zero, zero, zero]
    for i, u in enumerate(mult):
        for j in range(3):
            comb[j] = comb[j] + u * reduced[i][j]
    print("random lattice vector degree:", max(c.degree for c in comb), ">=", short_deg)
