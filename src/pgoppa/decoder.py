"""Decoder for square-free Goppa codes over GF(p), any prime p.

For each scale guess phi in 1..p-1 the syndrome yields radicands
u_k = x**k - phi*k*x**(k-1)/s mod g whose p-th roots v_k define a p x p
polynomial lattice; each row of its weak Popov form whose pivot meets the
degree bound, p*deg(a_piv) + piv <= t, assembles into a locator candidate
sigma = sum x**j a_j**p.  Roots of sigma on the support mark error
positions, root multiplicities give the magnitudes (e_j = phi * mu_j), and
every candidate is kept only if it reproduces the received syndrome exactly.

A decode of three or more guesses solves for each guess's bounded space,
the vectors with p*deg(a_j) + j <= t for every j: the phi-free parts of
-v_k = phi*b_k - a_k are shifted by x**i once, then every guess's system
is formed and one GF(q) elimination runs on all (`polyring._bounded_system`,
`_bounded_rows`).  The weak Popov form is reduced for that degree, so at
dimension 1 the kernel vector is c times its one degree-valid row, with
the same monic sigma.  A basis is reduced at dimension 2 or more, and in
decodes of fewer guesses, where that is faster.  Every row then takes one
array pass: a stack of monic sigmas (`_pth_power_compose`), one root
finder call and one parity-check product with the stacked words r - e.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Iterable, Sequence

import numpy as np

from .errors import NotInvertibleError, ParamError, check_integers
from .goppa import ErrorPattern, GoppaCode
from .polyring import Poly, _bounded_rows, _bounded_system, _check_poly, _pth_power_compose, _pth_roots, _root_multiplicities, _shifts_mod, inv_mod, pth_power_decompose, pth_root_mod
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
    a_k = root(x**k) and b_k = k*root(x**(k-1)/s), phi-free GF(p) digits
    (`_key_parts`): the code keeps its a_k from its first decode on, and
    every b_k comes from one product.  The solve shifts them before it
    applies phi (`polyring._bounded_system`); a basis applies it at once.
    Raises NotInvertibleError when s is not invertible mod g, and
    ParamError when s is not over the code's field with ranks in [0, q).
    """
    _check_poly(s, code.field, "syndrome")
    return _bases(code.g, *_key_parts(code, s), range(1, code.field.p))


def _key_parts(code: GoppaCode, s: Poly) -> tuple[np.ndarray, np.ndarray]:
    """(a, b): the (p-1, t, m) GF(p) digits of the code's a_k and of b_k."""
    f = code.field
    inverse, a = code.pth_roots(pth_root_mod)
    return a, _pth_roots(_shifts_mod(inv_mod(s, code.g), code.g, f.p - 1), inverse, f) * np.arange(1, f.p)[:, None, None] % f.p


def _bases(g: Poly, a: np.ndarray, b: np.ndarray, phis: Sequence[int]) -> list[list[list[Poly]]]:
    """The key lattice (g, 0, ..., 0), (phi*b_k - a_k, 0, .., 1, .., 0) of
    each phi in phis, from `_key_parts`, as fresh rows."""
    f = g.field
    zero, one = Poly.zero(f), Poly.one(f)
    units = [[one if j == k else zero for j in range(1, f.p)] for k in range(1, f.p)]
    columns = (np.array(phis, dtype=np.int64)[:, None, None, None] * b - a) % f.p @ f.p ** np.arange(f.m)
    return [[[g] + [zero] * (f.p - 1)] + [[Poly(f, c)] + e for c, e in zip(col, units)] for col in columns.tolist()]


def _padded(rows: Sequence[Sequence[Poly]], t: int, p: int) -> np.ndarray:
    """Rows of p polynomials as (rows, p, max(t, 0)//p + 1) zero-padded ranks, the
    solve's shape.  A row with a longer entry breaks deg(a_j) <= (t - j)//p and
    comes out as zeros: `_pth_power_compose` drops it either way."""
    width = max(t, 0) // p + 1
    out = [[e.coeffs + (0,) * (width - len(e.coeffs)) for e in row] for row in rows]
    return np.array([r if all(len(e) == width for e in r) else [(0,) * width] * p for r in out], dtype=np.int64)


def assemble_locator(a: Sequence[Poly], t: int) -> Poly | None:
    """sigma = sum x**j a_j**p, made monic, or None if the row is zero or
    breaks a bound deg(a_j) <= (t - j) // p: `_pth_power_compose`'s one
    pivot test and composition on one row.  ParamError unless it is p
    polynomials over one field; ranks unchecked."""
    f = a[0].field if a else None
    if f is None or len(a) != f.p or any(aj.field is not f and aj.field != f for aj in a):
        raise ParamError("a locator row must be p polynomials over one field")
    kept, sigmas = _pth_power_compose(_padded([a], t, f.p), t, f)
    return Poly(f, sigmas[0].tolist()) if kept else None


def find_roots_multiplicities(sigma: Poly, code: GoppaCode) -> dict[int, int]:
    """Map support index -> multiplicity of L_j as a root of sigma, in
    ascending support order: `_root_multiplicities` on one row, built for
    the code's degree bound t, which no locator exceeds.  ParamError unless
    sigma is over the code's field with ranks in [0, q)."""
    _check_poly(sigma, code.field, "locator")
    mults = _root_multiplicities(code.field, [sigma.coeffs], code.L, code.t)[0]
    return {j: mu for j, mu in enumerate(mults.tolist()) if mu}


def locator_degree(e: Sequence[int], phi: int, p: int) -> int:
    """Least degree of a locator that yields error e from scale guess phi:
    a root multiplicity mu_j is congruent to e_j/phi (mod p) and at least 1
    where e_j != 0, so the sum of e_j/phi lifted into 1..p-1.  ParamError
    unless phi is an integer in [1, p)."""
    check_integers((phi,), 1, p, "scale guesses")
    inv = pow(phi, -1, p)
    return sum(v * inv % p for v in e if v)


def decode(code: GoppaCode, received: Sequence[int], phis: Iterable[int] | None = None) -> DecodeOutcome:
    """Full decode of a received word; returns every verified candidate.

    A zero syndrome short-circuits to the received word itself.  Otherwise
    each scale guess in `phis` (default 1..p-1) is tried even after a success
    (distinct phi can yield distinct valid codewords): the degree-valid rows
    of every guess, reduced or solved (module docstring), go through one
    array pass, and candidates are deduplicated in (phi ascending, row)
    discovery order, by a stable sort of the verified rows.  Codeword
    entries are ints, whatever the word's dtype.  ParamError unless every
    scale guess is an integer in [1, p).
    """
    f = code.field
    p = f.p
    n = code.n
    tried = range(1, p) if phis is None else list(phis)
    check_integers(tried, 1, p, "scale guesses")  # before sorting: "1" and 1 do not compare
    tried = sorted(set(tried))
    s_vec = code.syndrome_from_word(received)  # ParamError on a bad length or entry
    word = np.asarray(received).astype(np.int64)  # unsigned entries would wrap in word - e
    s_poly = Poly(f, s_vec)
    if s_poly.is_zero():
        return DecodeOutcome([Candidate(tuple(word.tolist()), ErrorPattern((0,) * n), 0, Poly.one(f))])
    try:
        a, b = _key_parts(code, s_poly)
    except NotInvertibleError:
        return DecodeOutcome([])
    solved, found = [False] * len(tried), np.zeros((0, p, code.t // p + 1), dtype=np.int64)  # fewer guesses reduce every basis
    if len(tried) >= 3:
        solved, found = _bounded_rows(_bounded_system(code.mul_x, a, b, tried, f), f)
    left = [phi for phi, ok in zip(tried, solved) if not ok]
    guesses = [phi for phi, ok in zip(tried, solved) if ok] + [phi for phi in left for _ in range(p)]
    if left:  # the solved rows, then the reduced ones, composed at once
        found = np.concatenate([found, _padded([row for basis in _bases(code.g, a, b, left) for row in weak_popov_reduce(basis)], code.t, p)])
    kept, sigmas = _pth_power_compose(found, code.t, f)
    errors = np.array(guesses, dtype=np.int64)[kept, None] * _root_multiplicities(f, sigmas, code.L, code.t) % p
    words = (word - errors) % p  # e reproduces the syndrome iff r - e has none
    outcome = DecodeOutcome([])
    seen: set[tuple[int, ...]] = set()
    for i in sorted(np.flatnonzero(~(code.Hbar @ words.T % p).any(axis=0)).tolist(), key=lambda i: guesses[kept[i]]):
        codeword = tuple(words[i].tolist())
        if codeword not in seen:
            seen.add(codeword)
            error = ErrorPattern(tuple(errors[i].tolist()))
            outcome.candidates.append(Candidate(codeword, error, guesses[kept[i]], Poly(f, sigmas[i].tolist())))
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

    bases = key_lattices(code, Poly(f, code.syndrome_from_word(error.values)))
    results = {-1: contains(bases[0]), +1: contains(bases[-1])}
    if not results[-1] or results[+1]:
        raise AssertionError(f"radicand sign check: holds under {results}, expected only -1")
    return -1
