#!/usr/bin/env python3
"""Tour of the arithmetic layer: GF(p^m) contexts, element encoding,
p-th roots, and the characteristic-p polynomial decomposition."""

from pgoppa import Poly, assemble_locator, make_field, pth_power_decompose, pth_root_mod, random_irreducible
from pgoppa.rng import SplitMix64

# A field context fixes p, m, and a monic irreducible modulus.  Elements are
# plain ints: the rank sum(c_i * p**i) of their coordinate vector.
F9 = make_field(3, 2)
print("field:", repr(F9))

y = F9.from_coeffs((0, 1))
print("\nthe generator y has rank", y)
print("y * y =", F9.mul(y, y), "   (y^2 = -1 for this modulus)")

# Frobenius x -> x^p is a bijection; its inverse is the p-th root.
r = F9.pth_root(y)
print("cube root of y:", r, "->", F9.coeffs(r), "; cubed back:", F9.pow(r, 3))

# Dense polynomials carry their field and support the usual ring operators.
f = Poly(F9, [1, y, 0, 2, 1])
g = Poly(F9, [y, 0, 1])
q, rem = divmod(f, g)
print("\nf =", f, " g =", g)
print("divmod: q =", q, " r =", rem, " recheck:", q * g + rem == f)
print("derivative of f:", f.deriv())

# Any polynomial in characteristic p splits as sum_k x^k * a_k(x)^p.
F3 = make_field(3, 1)
h = Poly(F3, [1, 1, 2, 0, 1])  # x^4 + 2x^2 + x + 1
parts = pth_power_decompose(h)
print("\ndecomposition of", h, "->", parts)
# assemble_locator is that sum (made monic), as the decoder rebuilds sigma
recomposed = assemble_locator(parts, h.degree)
print("recomposed equals original:", recomposed == h)

# Modular p-th roots: the inverse Frobenius on GF(q)[x]/g, a GF(p)-linear
# map (bijective exactly when g is square-free) whose matrix is cached.
rng = SplitMix64(7)
gg = random_irreducible(5, F9, rng)
z = Poly(F9, [rng.randrange(9) for _ in range(5)])
v = pth_root_mod((z * z * z) % gg, gg)
print("\nrandom irreducible g:", gg)
print("pth_root_mod(z^3 mod g, g) == z:", v == z)
