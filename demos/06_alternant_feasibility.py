#!/usr/bin/env python3
"""The alternant variant: decoding modulo x**r instead of a square-free
generator, and why the required p-th roots rarely exist."""

from pgoppa import feasibility_probe
from pgoppa.alternant import (
    alternant_syndrome,
    predicted_feasibility,
    random_restricted_alternant,
    recover_error_values,
    try_build_alternant_lattice,
)
from pgoppa.decoder import assemble_locator
from pgoppa.errors import DegreeBoundError
from pgoppa.popov import weak_popov_reduce
from pgoppa.rng import SplitMix64

# A feasible binary instance, end to end: for p = 2 low-weight errors make
# the radicand u = x + 1/s a square mod x^r surprisingly often.
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
    try:
        sigma = assemble_locator(row, code.r)
    except DegreeBoundError:
        continue
    recovered = recover_error_values(code, sigma, 1)
    if recovered == truth:
        print("recovered error from locator roots at inverse support points:", recovered)

# The closed-form estimate assumes the radicands are uniform residues.
for (p, m, r) in [(2, 2, 4), (3, 1, 3), (5, 1, 5)]:
    rng = SplitMix64(10)
    report = feasibility_probe(p, m, r, trials=4000, rng=rng)
    print(f"\np={p} m={m} r={r}:")
    print("  predicted (uniform-radicand heuristic):", f"{report.predicted:.6f}")
    print("  observed on random codes + errors:     ", f"{report.estimate:.6f}",
          f"[{report.ci_low:.6f}, {report.ci_high:.6f}]")

print(
    "\nNote the two failure modes of the heuristic: for p = 2 real error\n"
    "patterns are far from uniform (observed >> predicted), while for odd p\n"
    "the radicand u_k, k >= 2, carries a never-vanishing coefficient at\n"
    "index k-1, so with r > p - 2 no instance is ever feasible (observed 0)."
)
