#!/usr/bin/env python3
"""A complete decode, opened up: syndrome, radicands, lattice reduction,
locator assembly, root multiplicities, and verification."""

from pgoppa import Poly, build_code, decode, sample_error
from pgoppa.decoder import assemble_locator, find_roots_multiplicities, key_lattices
from pgoppa.errors import DegreeBoundError
from pgoppa.popov import degree_tableau, weak_popov_reduce
from pgoppa.rng import SplitMix64

rng = SplitMix64(99)
p = 3
code = build_code(p, 3, 8, rng=rng)
print(code)

# Corrupt a codeword with 8 errors, all of magnitude 2.
error = sample_error(code.n, 8, ("equal", 2), p, rng)
codeword = code.random_codeword(rng)
received = tuple((a + b) % p for a, b in zip(codeword, error.values))
print("true error positions:", {i: v for i, v in enumerate(error.values) if v})

# Step 1: the syndrome from the received word.
s = Poly(code.field, code.syndrome_from_word(received))
print("\nsyndrome degree:", s.degree)

# Step 2: the radicands u_k = x^k - phi*k*x^(k-1)/s have p-th roots mod g
# root(x^k) - phi*k*root(x^(k-1)/s), so 2(p-1) roots give the key lattice of
# every scale guess phi.  Reduce each and read locators off its rows.
for phi, basis in enumerate(key_lattices(code, s), start=1):
    reduced = weak_popov_reduce(basis)
    print(f"\nphi = {phi}: reduced degree tableau")
    print(degree_tableau(reduced))
    for row in reduced:
        try:
            sigma = assemble_locator(row, code.t)
        except DegreeBoundError:
            continue
        mults = find_roots_multiplicities(sigma, code)
        errs = {j: (phi * mu) % p for j, mu in mults.items()}
        verdict = code.syndrome_from_word(
            [errs.get(j, 0) for j in range(code.n)]
        ) == list(s.coeffs) + [0] * (code.t - len(s.coeffs))
        print(f"  locator degree {sigma.degree}, roots {mults}, verifies: {verdict}")

# The decode() wrapper does all of the above, tries every phi, verifies each
# candidate against the syndrome, and deduplicates.
outcome = decode(code, received)
print("\ndecode status:", outcome.status)
for cand in outcome.candidates:
    print("candidate via phi =", cand.phi, " error =", {i: v for i, v in enumerate(cand.error.values) if v})
print("true codeword recovered:", codeword in outcome.codewords())
