"""Restricted alternant codes attacked with the same lattice machinery,
working modulo x**r instead of a square-free generator.

The restriction is xi_j = D_j / L_j in GF(p) \\ {0}, so a code is its
support L plus these ratios, and each column multiplier D_j = xi_j * L_j is
formed where the syndrome uses it.  Locator roots are the inverses of
support elements and magnitudes follow e_j = phi * mu_j / xi_j.
Because x**r is not square-free, the radicands u_k must be p-th powers by
coefficient support alone (every index not divisible by p must vanish on
the truncation).

The law (predicted_feasibility): on a full-length code with an error uniform
over GF(p)^n, the lattice exists at phi = 1 with probability 1 - 1/q when
p = 2 or r = 1, and never otherwise.  At p = 2 it is the split
sigma = A**2 + x*B**2 of Patterson's binary decoder (N. J. Patterson, IEEE
Trans. IT 21, 1975).  feasibility_probe checks the law by Monte Carlo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import NotInvertibleError, ParamError, check_integers
from .fields import Field, make_field
from .polyring import Poly, _check_poly, _power_sums, _root_multiplicities, inv_mod


@dataclass(frozen=True)
class AlternantCode:
    """Restricted alternant code: support ranks L in [1, q), ratios xi in
    [1, p) and syndrome length r."""

    field: Field
    L: tuple[int, ...]
    xi: tuple[int, ...]
    r: int

    def __post_init__(self):
        f = self.field
        check_integers((self.r,), 1, math.inf, "syndrome length r")
        if len(self.L) != len(self.xi):
            raise ParamError("L and xi must have equal length")
        if len(set(self.L)) != len(self.L):
            raise ParamError("support elements must be distinct")
        check_integers(self.L, 1, f.q, "support elements")
        check_integers(self.xi, 1, f.p, "ratios D_j / L_j")

    @property
    def n(self) -> int:
        return len(self.L)


def random_restricted_alternant(p: int, m: int, r: int, rng) -> AlternantCode:
    """Full-length code: L is a random ordering of all nonzero elements,
    ratios xi uniform in 1..p-1.  r is checked before any draw."""
    f = make_field(p, m)
    check_integers((r,), 1, math.inf, "syndrome length r")
    support = rng.sample(range(1, f.q), f.q - 1)
    xi = [1 + v for v in rng.randranges([p - 1] * len(support))]
    code = object.__new__(AlternantCode)  # distinct, in-range draws: __post_init__ would find nothing
    code.__dict__.update(field=f, L=tuple(support), xi=tuple(xi), r=r)
    return code


def alternant_syndrome(code: AlternantCode, e: Sequence[int]) -> Poly:
    """Power-sum syndrome: coefficient i is sum_j e_j * D_j * L_j**i, i < r,
    with D_j = xi_j * L_j (`polyring._power_sums`).  ParamError unless e
    has length n and integer entries in [0, p)."""
    f = code.field
    p = f.p
    if len(e) != code.n:
        raise ParamError(f"error has length {len(e)}, code length is {code.n}")
    check_integers(e, 0, p, "error entries")
    return Poly(f, _power_sums(f, e, code.xi, code.L, code.r))


def try_build_alternant_lattice(code: AlternantCode, s: Poly, phi: int) -> list[list[Poly]] | None:
    """Basis rows for the phi-th key equation mod x**r, if the radicands
    admit p-th roots; None otherwise.

    The key equation here is -phi*sigma' == sigma*s (mod x**r), so the
    radicands carry the opposite sign from the Goppa case:
    u_k = x**k + phi*k*x**(k-1)/s.  Each u_k is rooted whole: modulo x**r
    the p-th root is not a bijection, so the decoder's split into
    root(x**k) and root(x**(k-1)/s) does not exist here.  Row k holds
    -v_k, v_k the root of u_k; the root of -u_k is -v_k, so -u_k is filled
    and rooted.  ParamError unless s is over the code's field with ranks in
    [0, q).
    """
    f = code.field
    p = f.p
    check_integers((phi,), 1, p, "scale guess")
    _check_poly(s, f, "syndrome")
    r = code.r
    xr = Poly.monomial(f, r)
    if s.is_zero() or s.coeffs[0] == 0:
        raise NotInvertibleError("syndrome not invertible modulo x**r (constant term zero)")
    s_inv = inv_mod(s, xr).coeffs
    s_inv += (0,) * (r - len(s_inv))  # padded to r coefficients
    minus_one, zero, one = f.neg(1), Poly.zero(f), Poly.one(f)
    rows = [[xr] + [zero] * (p - 1)]
    for k in range(1, p):
        c = (-phi * k) % p
        u = ([0] * (k - 1) + [f.mul(c, a) for a in s_inv])[:r]  # -phi*k * x**(k-1) / s mod x**r
        if k < r:
            u[k] = f.add(u[k], minus_one)  # - x**k: -u_k mod x**r
        if any(any(u[j::p]) for j in range(1, p)):  # off the stride-p slice: no p-th power
            return None
        # part 0 of `pth_power_decompose`: -v_k, then the k-th unit vector
        rows.append([Poly(f, map(f.pth_root, u[::p]))] + [one if j == k else zero for j in range(1, p)])
    return rows


def recover_error_values(code: AlternantCode, sigma: Poly, phi: int) -> dict[int, int]:
    """Support index -> magnitude, reading roots of sigma at inverse
    support points: e_j = phi * mu_j / xi_j.  ParamError unless sigma is
    over the code's field with ranks in [0, q)."""
    f = code.field
    p = f.p
    check_integers((phi,), 1, p, "scale guess")
    _check_poly(sigma, f, "locator")
    xi = code.xi
    mults = _root_multiplicities(f, [sigma.coeffs], tuple(f.inv(lj) for lj in code.L))[0]
    return {j: (phi * mu * pow(xi[j], p - 2, p)) % p for j, mu in enumerate(mults.tolist()) if mu}


@dataclass(slots=True)
class ProbeReport:
    p: int
    m: int
    r: int
    trials: int
    feasible: int
    estimate: float
    predicted: float
    ci_low: float
    ci_high: float

    def line(self) -> str:
        return (
            f"{self.p} {self.m} {self.r} {self.trials} {self.feasible} "
            f"{self.estimate:.6f} {self.predicted:.6f} {self.ci_low:.6f} {self.ci_high:.6f}"
        )


def predicted_feasibility(p: int, m: int, r: int) -> float:
    """The exact rate of feasibility_probe: 1 - 1/q if p == 2 or r == 1, else 0.
    - s(0) = sum_j e_j * xi_j * L_j is uniform on GF(q), and at r = 1 nothing else is tested.
    - For p >= 3 and r >= 2, u_2 keeps 2*phi/s(0) at index 1, off the stride-p slice.
    - For p = 2, sigma = A**2 + x*B**2 with sigma' = B**2, so x + 1/s = (A/B)**2."""
    return 1.0 - float(p) ** -m if p == 2 or r == 1 else 0.0  # no p**m for a huge m


def feasibility_probe(p: int, m: int, r: int, trials: int, rng) -> ProbeReport:
    """Monte-Carlo rate at which random codes plus random error patterns
    admit the full radicand p-th-root computation (phi = 1).

    Per trial: a fresh full-length restricted code, an error vector uniform
    over GF(p)^n, success iff the syndrome is invertible mod x**r and every
    u_k is a p-th power there.  Non-invertible syndromes count as
    infeasible.  A 3-sigma binomial interval around the observed rate is
    reported alongside the exact law.
    """
    check_integers((trials,), 1, math.inf, "trials")
    feasible = 0
    for i in range(trials):
        code = random_restricted_alternant(p, m, r, rng)
        e = rng.randranges([p] * code.n)
        s = alternant_syndrome(code, e)
        try:
            if try_build_alternant_lattice(code, s, 1) is not None:
                feasible += 1
        except NotInvertibleError:
            pass
    est = feasible / trials
    sigma = math.sqrt(est * (1.0 - est) / trials)
    return ProbeReport(
        p=p,
        m=m,
        r=r,
        trials=trials,
        feasible=feasible,
        estimate=est,
        predicted=predicted_feasibility(p, m, r),
        ci_low=max(0.0, est - 3.0 * sigma),
        ci_high=min(1.0, est + 3.0 * sigma),
    )
