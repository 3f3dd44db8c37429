#!/usr/bin/env python3
"""The alternant variant: decoding modulo x**r instead of a square-free
generator, and exactly when the required p-th roots exist."""

from pgoppa import feasibility_probe
from pgoppa.alternant import (
    alternant_syndrome,
    random_restricted_alternant,
    recover_error_values,
    try_build_alternant_lattice,
)
from pgoppa.decoder import assemble_locator
from pgoppa.popov import weak_popov_reduce
from pgoppa.rng import SplitMix64

# A feasible binary instance, end to end: for p = 2 the locator splits as
# sigma = A^2 + x*B^2 with sigma' = B^2 (Patterson's split), so the radicand
# u = x + 1/s = (A/B)^2 is a square mod x^r whenever s(0) != 0.
rng = SplitMix64(3)
code = random_restricted_alternant(2, 2, 4, rng)
e = [0] * code.n
e[1] = 1
truth = {1: 1}
s = alternant_syndrome(code, e)
basis = try_build_alternant_lattice(code, s, phi=1)
print("radicand is a square mod x^r:", basis is not None)
reduced = weak_popov_reduce(basis)
for row in reduced:
    sigma = assemble_locator(row, code.r)
    if sigma is None:
        continue
    recovered = recover_error_values(code, sigma, 1)
    if recovered == truth:
        print("recovered error from locator roots at inverse support points:", recovered)

# The exact law against the Monte Carlo.
for (p, m, r) in [(2, 2, 4), (3, 1, 3), (5, 1, 5)]:
    rng = SplitMix64(10)
    report = feasibility_probe(p, m, r, trials=4000, rng=rng)
    print(f"\np={p} m={m} r={r}:")
    print("  predicted (exact law):            ", f"{report.predicted:.6f}")
    print("  observed on random codes + errors:", f"{report.estimate:.6f}",
          f"[{report.ci_low:.6f}, {report.ci_high:.6f}]")

print(
    "\nThe law: a trial is feasible with probability 1 - 1/q when p = 2 or\n"
    "r = 1, exactly when s(0) != 0.  For odd p and r >= 2 it never is: the\n"
    "radicand u_2 keeps 2*phi/s(0) at index 1, off the stride-p slice."
)
