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
from typing import Sequence

from .errors import DegreeBoundError, NotInvertibleError, ParamError
from .goppa import ErrorPattern, GoppaCode
from .polyring import Poly, _root_multiplicities, inv_mod, poly_pth_power, pth_root_mod
from .popov import PolyMatrix, weak_popov_reduce


@dataclass
class KeyLattice:
    """Reduction input for one scale guess: radicand roots and the basis."""

    phi: int
    u: list[Poly]
    v: list[Poly]
    basis: PolyMatrix


@dataclass
class Locator:
    poly: Poly
    phi: int


@dataclass
class Candidate:
    codeword: tuple[int, ...]
    error: ErrorPattern
    phi: int
    sigma: Poly
    multiplicities: dict[int, int]


@dataclass
class DecodeOutcome:
    candidates: list[Candidate] = dc_field(default_factory=list)

    @property
    def status(self) -> str:
        return "ok" if self.candidates else "empty"

    def codewords(self) -> list[tuple[int, ...]]:
        return [c.codeword for c in self.candidates]


def build_key_lattice(code: GoppaCode, s: Poly, phi: int) -> KeyLattice:
    """Basis whose short vectors solve the phi-th key equation.

    First row (g, 0, ..., 0); row k+1 is (-v_k, 0, .., 1, .., 0) where
    v_k**p == x**k - phi*k*x**(k-1)/s (mod g).
    """
    s_inv = inv_mod(s, code.g)
    return _key_lattice(code, s_inv, phi, -1)


def _key_lattice(code: GoppaCode, s_inv: Poly, phi: int, sign: int) -> KeyLattice:
    f = code.field
    p = f.p
    g = code.g
    zero, one = Poly.zero(f), Poly.one(f)
    us: list[Poly] = []
    vs: list[Poly] = []
    rows: list[list[Poly]] = [[g] + [zero] * (p - 1)]
    for k in range(1, p):
        c = (sign * phi * k) % p
        u = (Poly.monomial(f, k) + s_inv.shift(k - 1).scale(c)) % g
        v = pth_root_mod(u, g)
        us.append(u)
        vs.append(v)
        row = [-v] + [one if j == k else zero for j in range(1, p)]
        rows.append(row)
    return KeyLattice(phi=phi, u=us, v=vs, basis=PolyMatrix(f, rows))


def assemble_locator(a: Sequence[Poly], phi: int, t: int) -> Locator:
    """sigma = sum x**j a_j**p, made monic; rejects rows breaking the
    degree bounds deg(a_j) <= (t - j) // p."""
    f = a[0].field
    p = f.p
    sigma = Poly.zero(f)
    for j, aj in enumerate(a):
        if aj.degree > (t - j) // p:
            raise DegreeBoundError(f"deg(a_{j}) = {aj.degree} exceeds {(t - j) // p}")
        if aj:
            sigma = sigma + poly_pth_power(aj).shift(j)
    if sigma.is_zero():
        raise DegreeBoundError("zero locator")
    return Locator(sigma.monic(), phi)


def find_roots_multiplicities(locator: Locator | Poly, code: GoppaCode) -> dict[int, int]:
    """Map support index -> multiplicity of L_j as a root of sigma, in
    ascending support order."""
    sigma = locator.poly if isinstance(locator, Locator) else locator
    return _root_multiplicities(sigma, code.L)


def decode(code: GoppaCode, received: Sequence[int]) -> DecodeOutcome:
    """Full decode of a received word; returns every verified candidate.

    A zero syndrome short-circuits to the received word itself.  Otherwise
    every scale guess phi is tried even after a success (distinct phi can
    yield distinct valid codewords), every degree-valid row of each reduced
    basis is assembled and syndrome-checked, and candidates are
    deduplicated in (phi, row) discovery order.
    """
    return _decode_impl(code, received, -1)


def _decode_impl(code: GoppaCode, received: Sequence[int], sign: int) -> DecodeOutcome:
    f = code.field
    p = f.p
    n = code.n
    if len(received) != n:
        raise ParamError(f"received word has length {len(received)}, code length is {n}")
    if any(not 0 <= r < p for r in received):
        raise ParamError(f"received word entries must lie in [0, {p})")
    s_vec = code.syndrome_from_word(received)
    s_poly = Poly(f, s_vec)
    if s_poly.is_zero():
        cand = Candidate(
            codeword=tuple(received),
            error=ErrorPattern((0,) * n),
            phi=0,
            sigma=Poly.one(f),
            multiplicities={},
        )
        return DecodeOutcome([cand])
    try:
        s_inv = inv_mod(s_poly, code.g)
    except NotInvertibleError:
        return DecodeOutcome([])
    outcome = DecodeOutcome([])
    seen: set[tuple[int, ...]] = set()
    for phi in range(1, p):
        lattice = _key_lattice(code, s_inv, phi, sign)
        reduced, _ = weak_popov_reduce(lattice.basis)
        for row in reduced.rows:
            try:
                loc = assemble_locator(row, phi, code.t)
            except DegreeBoundError:
                continue
            mults = find_roots_multiplicities(loc, code)
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
            outcome.candidates.append(
                Candidate(codeword, ErrorPattern(tuple(e)), phi, loc.poly, mults)
            )
    return outcome


def verify_sign_convention() -> int:
    """Decode a known single-error instance under both radicand signs and
    return the one that verifies (-1, matching the key-equation algebra).

    Raises if the minus convention fails to decode it or the plus
    convention does.
    """
    from .goppa import build_code, sample_error
    from .rng import SplitMix64

    rng = SplitMix64(0x5167)
    code = build_code(3, 2, 2, rng=rng)
    error = sample_error(code.n, 1, ("equal", 1), 3, rng)
    results = {}
    for sign in (-1, +1):
        outcome = _decode_impl(code, error.values, sign)
        zero = (0,) * code.n
        results[sign] = zero in outcome.codewords()
    if not results[-1] or results[+1]:
        raise AssertionError(f"radicand sign check: decoded under {results}, expected only -1")
    return -1
