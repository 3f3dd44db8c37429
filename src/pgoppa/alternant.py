"""Restricted alternant codes attacked with the same lattice machinery,
working modulo x**r instead of a square-free generator.

The restriction is xi_j = D_j / L_j in GF(p) \\ {0}, so a code is its
support L plus these ratios, and each column multiplier D_j = xi_j * L_j is
formed where the syndrome uses it.  Locator roots are the inverses of
support elements and magnitudes follow e_j = phi * mu_j / xi_j.
Because x**r is not square-free, the radicands u_k must be p-th powers by
coefficient support alone (every index not divisible by p must vanish on
the truncation), which is rare; feasibility_probe measures how rare
against the closed-form estimate.

A structural note the probe makes visible: for p >= 3 and k >= 2 the
radicand u_k = x**k + phi*k*x**(k-1)/s always carries the nonzero
coefficient phi*k/s(0) at index k-1, which is not a multiple of p, so
whenever r > p - 2 no invertible syndrome is ever feasible and the
observed rate is exactly zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import NotInvertibleError, ParamError, check_integers
from .fields import Field, make_field
from .polyring import Poly, _root_multiplicities, inv_mod


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
    ratios xi uniform in 1..p-1."""
    f = make_field(p, m)
    support = rng.sample(range(1, f.q), f.q - 1)
    xi = [1 + v for v in rng.randranges([p - 1] * len(support))]
    return AlternantCode(f, tuple(support), tuple(xi), r)


def alternant_syndrome(code: AlternantCode, e: Sequence[int]) -> Poly:
    """Power-sum syndrome: coefficient i is sum_j e_j * D_j * L_j**i, i < r,
    with D_j = xi_j * L_j.  ParamError unless e has length n and integer
    entries in [0, p)."""
    f = code.field
    p = f.p
    if len(e) != code.n:
        raise ParamError(f"error has length {len(e)}, code length is {code.n}")
    check_integers(e, 0, p, "error entries")
    s = [0] * code.r
    for ej, xj, lj in zip(e, code.xi, code.L):
        if ej:
            c = ej * xj % p  # e_j * xi_j is a prime-subfield rank
            for i in range(code.r):
                c = f.mul(c, lj)  # e_j * D_j * L_j**i
                s[i] = f.add(s[i], c)
    return Poly(f, s)


def try_build_alternant_lattice(code: AlternantCode, s: Poly, phi: int) -> list[list[Poly]] | None:
    """Basis rows for the phi-th key equation mod x**r, if the radicands
    admit p-th roots; None otherwise.

    The key equation here is -phi*sigma' == sigma*s (mod x**r), so the
    radicands carry the opposite sign from the Goppa case:
    u_k = x**k + phi*k*x**(k-1)/s.  Each u_k is rooted whole: modulo x**r
    the p-th root is not a bijection, so the decoder's split into
    root(x**k) and root(x**(k-1)/s) does not exist here.
    """
    f = code.field
    p = f.p
    check_integers((phi,), 1, p, "scale guess")
    r = code.r
    xr = Poly.monomial(f, r)
    if s.is_zero() or s.coeffs[0] == 0:
        raise NotInvertibleError("syndrome not invertible modulo x**r (constant term zero)")
    s_inv = inv_mod(s, xr)
    zero, one = Poly.zero(f), Poly.one(f)
    rows: list[list[Poly]] = [[xr] + [zero] * (p - 1)]
    for k in range(1, p):
        c = (phi * k) % p
        u = (Poly.monomial(f, k) + s_inv.shift(k - 1).scale(c)).coeffs[:r]  # mod x**r
        if any(any(u[j::p]) for j in range(1, p)):  # off the stride-p slice: no p-th power
            return None
        v = Poly(f, map(f.pth_root, u[::p]))  # part 0 of `pth_power_decompose`
        rows.append([-v] + [one if j == k else zero for j in range(1, p)])
    return rows


def recover_error_values(code: AlternantCode, sigma: Poly, phi: int) -> dict[int, int]:
    """Support index -> magnitude, reading roots of sigma at inverse
    support points: e_j = phi * mu_j / xi_j."""
    f = code.field
    p = f.p
    check_integers((phi,), 1, p, "scale guess")
    xi = code.xi
    mults = _root_multiplicities(sigma, tuple(f.inv(lj) for lj in code.L))
    return {j: (phi * mu * pow(xi[j], p - 2, p)) % p for j, mu in mults.items()}


@dataclass
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
    """Closed-form estimate p**(-m*r*(p-1)**2/p) under the (optimistic)
    assumption of uniformly distributed radicands."""
    return float(p) ** (-(m * r * (p - 1) ** 2) / p)


def feasibility_probe(p: int, m: int, r: int, trials: int, rng) -> ProbeReport:
    """Monte-Carlo rate at which random codes plus random error patterns
    admit the full radicand p-th-root computation (phi = 1).

    Per trial: a fresh full-length restricted code, an error vector uniform
    over GF(p)^n, success iff the syndrome is invertible mod x**r and every
    u_k is a p-th power there.  Non-invertible syndromes count as
    infeasible.  A 3-sigma binomial interval around the observed rate is
    reported alongside the closed-form estimate.
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
