"""Decoder for square-free Goppa codes over GF(p), any prime p.

For each scale guess phi in 1..p-1 the syndrome yields radicands
u_k = x**k - phi*k*x**(k-1)/s mod g whose p-th roots v_k define a p x p
polynomial lattice; rows of its weak Popov form that satisfy the degree
bounds assemble into locator candidates sigma = sum x**j a_j**p.  Roots of
sigma on the support mark error positions, root multiplicities give the
magnitudes (e_j = phi * mu_j), and every candidate is kept only if it
reproduces the received syndrome exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Iterable, Sequence

import numpy as np

from .errors import DegreeBoundError, NotInvertibleError, check_integers
from .goppa import ErrorPattern, GoppaCode
from .polyring import Poly, _digit_split, _pth_roots, _root_multiplicities, _shifts_mod, inv_mod, pth_power_decompose, pth_root_mod
from .popov import weak_popov_reduce


@dataclass
class Candidate:
    codeword: tuple[int, ...]
    error: ErrorPattern
    phi: int
    sigma: Poly


@dataclass
class DecodeOutcome:
    candidates: list[Candidate] = dc_field(default_factory=list)

    @property
    def status(self) -> str:
        return "ok" if self.candidates else "empty"

    def codewords(self) -> list[tuple[int, ...]]:
        return [c.codeword for c in self.candidates]


def key_lattices(code: GoppaCode, s: Poly) -> list[list[list[Poly]]]:
    """Bases, as row lists that share no row, whose short vectors solve the
    key equations for phi = 1..p-1.

    Row 0 of each is (g, 0, ..., 0); row k is (-v_k, 0, .., 1, .., 0) with
    v_k**p == x**k - phi*k*x**(k-1)/s (mod g).  The p-th root mod a
    square-free g is additive and fixes GF(p), so -v_k = phi*b_k - a_k with
    a_k = root(x**k) and b_k = k*root(x**(k-1)/s).  The code keeps its a_k
    from its first decode on; the x**(k-1)/s mod g are stacked and every
    b_k comes from one product, and the (p-1)**2 entries phi*b_k - a_k are
    one expression on GF(p) digits.
    Raises NotInvertibleError when s is not invertible mod g.
    """
    f = code.field
    p, t = f.p, code.t
    g = code.g
    inverse, a = code.pth_roots(pth_root_mod)
    scales = np.arange(1, p)  # k, and phi, in 1..p-1
    b = _pth_roots(_shifts_mod(inv_mod(s, g), g, p - 1), inverse, f) * scales[:, None, None]
    a_ranks = np.zeros((p - 1, t), dtype=np.int64)
    for row, ak in zip(a_ranks, a):
        row[: len(ak.coeffs)] = ak.coeffs
    entries = (scales[:, None, None, None] * b - _digit_split(a_ranks, f)) % p @ p ** np.arange(f.m)
    zero, one = Poly.zero(f), Poly.one(f)
    units = [[one if j == k else zero for j in range(1, p)] for k in range(1, p)]
    return [
        [[g] + [zero] * (p - 1)] + [[Poly(f, c)] + e for c, e in zip(col, units)]
        for col in entries.tolist()
    ]


def assemble_locator(a: Sequence[Poly], t: int) -> Poly:
    """sigma = sum x**j a_j**p, made monic; rejects rows breaking the
    degree bounds deg(a_j) <= (t - j) // p, all checked before any power is
    taken.  Coefficient i of a_j, raised to the p-th power, is coefficient
    p*i + j of sigma: j < p, so no two terms share a slot."""
    f = a[0].field
    p = f.p
    for j, aj in enumerate(a):
        if aj.degree > (t - j) // p:
            raise DegreeBoundError(f"deg(a_{j}) = {aj.degree} exceeds {(t - j) // p}")
    out, ppow = [0] * (t + 1), f._ppow
    for j, aj in enumerate(a):
        out[j : j + p * len(aj.coeffs) : p] = [ppow[c] for c in aj.coeffs]
    sigma = Poly(f, out)
    if sigma.is_zero():
        raise DegreeBoundError("zero locator")
    return sigma.monic()


def find_roots_multiplicities(sigma: Poly, code: GoppaCode) -> dict[int, int]:
    """Map support index -> multiplicity of L_j as a root of sigma, in
    ascending support order.  A locator has degree at most t, so every
    sigma shares the evaluation matrix of the code's degree bound."""
    return _root_multiplicities(sigma, code.L, code.t)


def locator_degree(e: Sequence[int], phi: int, p: int) -> int:
    """Least degree of a locator that yields error e from scale guess phi:
    a root multiplicity mu_j is congruent to e_j/phi (mod p) and at least 1
    where e_j != 0, so the sum of e_j/phi lifted into 1..p-1."""
    inv = pow(phi, -1, p)
    return sum(v * inv % p for v in e if v)


def decode(code: GoppaCode, received: Sequence[int], phis: Iterable[int] | None = None) -> DecodeOutcome:
    """Full decode of a received word; returns every verified candidate.

    A zero syndrome short-circuits to the received word itself.  Otherwise
    each scale guess in `phis` (default 1..p-1) is tried even after a success
    (distinct phi can yield distinct valid codewords), every degree-valid row
    of each reduced basis is assembled and syndrome-checked, and candidates
    are deduplicated in (phi ascending, row) discovery order.  ParamError
    unless every scale guess is an integer in [1, p).
    """
    f = code.field
    p = f.p
    n = code.n
    tried = range(1, p) if phis is None else list(phis)
    check_integers(tried, 1, p, "scale guesses")  # before sorting: "1" and 1 do not compare
    tried = sorted(set(tried))
    s_vec = code.syndrome_from_word(received)  # ParamError on a bad length or entry
    s_poly = Poly(f, s_vec)
    if s_poly.is_zero():
        cand = Candidate(
            codeword=tuple(received),
            error=ErrorPattern((0,) * n),
            phi=0,
            sigma=Poly.one(f),
        )
        return DecodeOutcome([cand])
    try:
        bases = key_lattices(code, s_poly)
    except NotInvertibleError:
        return DecodeOutcome([])
    outcome = DecodeOutcome([])
    seen: set[tuple[int, ...]] = set()
    for phi in tried:
        reduced = weak_popov_reduce(bases[phi - 1])
        for row in reduced:
            try:
                sigma = assemble_locator(row, code.t)
            except DegreeBoundError:
                continue
            mults = find_roots_multiplicities(sigma, code)
            if not mults:
                continue
            e = [0] * n
            for j, mu in mults.items():
                e[j] = (phi * mu) % p
            if code.syndrome_from_word(e) != s_vec:
                continue
            codeword = tuple((r - ev) % p for r, ev in zip(received, e))
            if codeword in seen:
                continue
            seen.add(codeword)
            outcome.candidates.append(Candidate(codeword, ErrorPattern(tuple(e)), phi, sigma))
    return outcome


def verify_sign_convention() -> int:
    """Check the radicand sign on a known single-error instance and return
    the one that holds (-1, matching the key-equation algebra).

    The true locator's p-th-power decomposition must lie in the phi = 1
    basis and not in the phi = p - 1 basis, which is the one the plus sign
    u_k = x**k + phi*k*x**(k-1)/s would build for phi = 1.  Raises
    otherwise.
    """
    from .goppa import build_code, sample_error
    from .rng import SplitMix64

    rng = SplitMix64(0x5167)
    code = build_code(3, 2, 2, rng=rng)
    error = sample_error(code.n, 1, ("equal", 1), 3, rng)
    f = code.field
    a = pth_power_decompose(Poly(f, (f.neg(code.L[error.support[0]]), 1)))

    def contains(basis: list[list[Poly]]) -> bool:
        # (a_0, .., a_{p-1}) = sum_k a_k row_k + lambda*row_0 iff g divides
        # a_0 - sum_k a_k row_k[0]
        residue = a[0]
        for k in range(1, f.p):
            residue = residue - a[k] * basis[k][0]
        return (residue % code.g).is_zero()

    bases = key_lattices(code, code.syndrome_poly(error.values))
    results = {-1: contains(bases[0]), +1: contains(bases[-1])}
    if not results[-1] or results[+1]:
        raise AssertionError(f"radicand sign check: holds under {results}, expected only -1")
    return -1
