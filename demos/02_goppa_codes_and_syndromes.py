#!/usr/bin/env python3
"""Building a Goppa code and inspecting its two parity-check views:
the t x n matrix over GF(q) and its trace expansion over GF(p)."""

import numpy as np

from pgoppa import Poly, build_code, sample_error
from pgoppa.polyring import inv_mod
from pgoppa.rng import SplitMix64

rng = SplitMix64(2024)
code = build_code(3, 3, 8, rng=rng)
print(code)
print("support size n =", code.n, " generator degree t =", code.t)
print("generator g =", code.g)
print("code dimension (kernel of the GF(p) parity check):", code.dimension)

# The syndrome of a word can be computed two independent ways: the rational
# sum  s_e = sum e_i/(x - L_i) mod g, built here from one inverse mod g per
# error position, or the parity-check product H @ e, the code's own way,
# which it takes over GF(p) as Hbar @ e, folding each coefficient's m digits
# back into a GF(q) rank.
e = sample_error(code.n, 5, "uniform", 3, rng)
print("\nerror pattern:", {i: v for i, v in enumerate(e.values) if v})
f = code.field
s_poly = Poly.zero(f)
for i in e.support:
    s_poly = s_poly + inv_mod(Poly(f, (f.neg(code.L[i]), 1)), code.g).scale(e.values[i])
s_vec = code.syndrome_from_word(e.values)
print("rational-sum syndrome:", s_poly)
print("H @ e:               ", s_vec)
print("coefficients agree:", list(s_poly.coeffs) + [0] * (code.t - len(s_poly.coeffs)) == s_vec)

# The trace construction turns each GF(q) row into m rows over GF(p); the
# kernel (the code itself) is unchanged, and folding each coefficient's m
# GF(p) digits by powers of p gives back the GF(q) syndrome.
sbar = (code.Hbar @ np.array(e.values)) % 3
print("\nGF(p) syndrome has", len(sbar), "entries =", code.field.m, "x", code.t)
folded = (sbar.reshape(code.t, code.field.m) @ 3 ** np.arange(code.field.m)).tolist()
print("digits folded by powers of p:", folded)
print("fold matches H @ e:", folded == s_vec)

# Codewords are sampled from the cached kernel basis.
w = code.random_codeword(rng)
print("\nrandom codeword weight:", sum(1 for v in w if v), " in code:", code.contains(w))

# The whole code serializes to four text lines (header, modulus, g, support).
print("\nserialized code record:")
print(code.to_text())
