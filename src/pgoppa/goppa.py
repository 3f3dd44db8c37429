"""Goppa codes over GF(p): construction, parity checks, syndromes, sampling.

A code is determined by a support L of distinct field elements, in order,
and a monic square-free generator g with g(L_i) != 0.  Hbar, the parity
check's trace expansion over GF(p), is cached eagerly and gives every
syndrome; the kernel basis, the p-th-root data (`pth_roots`) and x's
matrix mod g (`mul_x`) are made on first use.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import modp
from .errors import ParamError, check_integers
from .fields import Field, ints_from_text, make_field
from .polyring import _square_free as is_square_free  # unchecked; perfbench's span wraps this name
from .polyring import (
    Poly,
    _digit_split,
    _elementwise,
    _frobenius_inverse,
    _mul_x_matrix,
    _neg_inverse,
    _synthetic_division,
    random_irreducible,
)


@dataclass(frozen=True)
class ErrorPattern:
    """Length-n vector of mod-p magnitudes and its support."""

    values: tuple[int, ...]

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(i for i, v in enumerate(self.values) if v)


def sample_error(n: int, w: int, dist, p: int, rng) -> ErrorPattern:
    """Random error pattern: w distinct positions, magnitudes per dist.

    dist is one of:
      "equal"          one random magnitude shared by all positions
      ("equal", v)     fixed magnitude v
      "uniform"        independent uniform magnitudes in 1..p-1
      {v: count, ...}  explicit magnitude profile (counts sum to w)
    """
    check_integers((n, w), 0, math.inf, "n and w")
    check_integers((p,), 2, math.inf, "characteristic p")
    if not 0 <= w <= n:
        raise ParamError(f"weight {w} out of range for length {n}")
    values = [0] * n
    positions = rng.sample(range(n), w)
    if isinstance(dist, dict):
        check_integers(list(dist.values()), 0, math.inf, "magnitude profile counts")
        if sum(dist.values()) != w:
            raise ParamError("magnitude profile counts do not sum to the weight")
        check_integers(list(dist), 1, p, "magnitudes")
        bag: list[int] = []
        for v, cnt in sorted(dist.items()):
            bag.extend([v] * cnt)
        rng.shuffle(bag)
        mags = bag
    elif dist == "uniform":
        mags = [1 + v for v in rng.randranges([p - 1] * w)]
    elif dist == "equal":
        v = 1 + rng.randrange(p - 1)
        mags = [v] * w
    elif isinstance(dist, tuple) and len(dist) == 2 and dist[0] == "equal":
        v = dist[1]
        check_integers((v,), 1, p, "magnitudes")
        mags = [v] * w
    else:
        raise ParamError(f"unknown magnitude distribution {dist!r}")
    for pos, v in zip(positions, mags):
        values[pos] = v
    return ErrorPattern(tuple(values))


def _check_shape(q: int, m: int, t: int, n: int) -> None:
    """ParamError unless a length-n code over GF(q = p**m) with a degree-t
    generator has the shape the decoder takes: t and n integers >= 1,
    n <= q and n - m*t > 0."""
    check_integers((t, n), 1, math.inf, "t and n")
    if n > q:
        raise ParamError(f"n = {n} exceeds field size {q}")
    if n - m * t <= 0:
        raise ParamError(f"dimension bound violated: n - m*t = {n - m * t}")


def _check_size(field: Field, t: int, n: int) -> None:
    """`_check_shape`, then ParamError unless Hbar @ word stays exact in
    int64 for length-n words mod p."""
    _check_shape(field.q, field.m, t, n)
    if n * (field.p - 1) ** 2 + field.p >= 1 << 63:
        raise ParamError(f"syndromes of length-{n} words mod {field.p} would overflow int64")


class GoppaCode:
    """Immutable Goppa code with a cached GF(p) parity-check matrix."""

    __slots__ = ("field", "L", "g", "n", "t", "Hbar", "_kernel", "_frobenius", "_roots", "_mul_x")

    def __init__(self, field: Field, support: Sequence[int], g: Poly):
        if g.field != field:
            raise ParamError(f"generator is over {g.field}, code over {field}")
        n = len(support)
        t = g.degree
        if t < 1:
            raise ParamError("generator must have degree >= 1")
        if g.lc() != 1:
            raise ParamError("generator must be monic")
        if len(set(support)) != n:
            raise ParamError("support elements must be distinct")
        _check_size(field, t, n)
        # before any table lookup: an out-of-range rank would index past the tables
        check_integers(support, 0, field.q, "support elements")
        check_integers(g.coeffs, 0, field.q, "generator coefficients")
        if not is_square_free(g):  # the ranks were checked above
            raise ParamError("generator must be square-free")
        self._fill(field, support, g, None)

    @classmethod
    def _drawn(cls, field: Field, support: list[int], g: Poly, frobenius: np.ndarray | None) -> "GoppaCode":
        """The code of an irreducible g from `random_irreducible`, with its
        screen's p-Frobenius matrix (None at t = 1), on a sample of field
        elements.  `GoppaCode(...)`, and through it `from_text`/`load` and
        `build_code`'s composite draw, checks every property of g and the
        support.  Here g is drawn monic and in range, Rabin's test proves it
        square-free (it divides x**(q**t) - x) and a sample is distinct and
        in range, so only `_check_size` and the parity check's root check run."""
        _check_size(field, g.degree, len(support))
        code = cls.__new__(cls)
        code._fill(field, support, g, frobenius)
        return code

    def _fill(self, field: Field, support: Sequence[int], g: Poly, frobenius: np.ndarray | None) -> None:
        """Set every slot from checked parts; Hbar is built here."""
        self.field = field
        self.L = tuple(support)
        self.g = g
        self.n = len(support)
        self.t = g.degree
        self.Hbar = self._expand_trace(self._build_parity_check())
        self._kernel = self._roots = self._mul_x = None
        self._frobenius = frobenius  # g's p-Frobenius matrix, when build_code has it

    # -- parity checks -------------------------------------------------------

    def _build_parity_check(self) -> np.ndarray:
        """t x n matrix over GF(q) with H @ e equal to the coefficient
        vector (low to high) of the syndrome polynomial.

        Column j holds the coefficients of 1/(x - L_j) mod g, which is
        -(g(x) - g(L_j)) / ((x - L_j) * g(L_j)): one synthetic division per
        support point, all points at once.  It also yields g(L_j), which
        must not vanish.
        """
        f = self.field
        *quotient, values = _synthetic_division(self.g.coeffs, self.L, f)
        if not values.all():
            raise ParamError("support must avoid the roots of the generator")
        return _elementwise(f)[1](np.array(quotient[::-1]), _neg_inverse(values, f))

    def _expand_trace(self, h: np.ndarray) -> np.ndarray:
        """mt x n matrix over GF(p): each GF(q) row becomes m coordinate rows."""
        digits = _digit_split(h, self.field)
        return digits.transpose(0, 2, 1).reshape(self.field.m * self.t, self.n)

    # -- syndromes -------------------------------------------------------------

    def syndrome_from_word(self, word: Sequence[int]) -> list[int]:
        """The syndrome coefficients, low to high, as GF(q) ranks: Hbar @ word
        mod p, each coefficient's m digits folded by powers of p.  ParamError
        unless word has shape (n,) and integer entries in [0, p)."""
        p, m = self.field.p, self.field.m
        try:
            w = np.asarray(word)
        except ValueError:  # a ragged nesting has no shape
            raise ParamError(f"word is ragged, code needs shape ({self.n},)") from None
        if w.shape != (self.n,):
            raise ParamError(f"word has shape {w.shape}, code needs ({self.n},)")
        if w.dtype.kind not in "iu" or w.min() < 0 or w.max() >= p:
            raise ParamError(f"word entries must be integers in [0, {p})")
        digits = self.Hbar @ w.astype(np.int64) % p
        return (digits.reshape(self.t, m) @ p ** np.arange(m)).tolist()

    # -- codewords ---------------------------------------------------------------

    @property
    def kernel_basis(self) -> np.ndarray:
        if self._kernel is None:
            self._kernel = modp.kernel_mod_p(self.Hbar, self.field.p)
        return self._kernel

    def pth_roots(self, root) -> tuple[np.ndarray, np.ndarray]:
        """(F**-1, a): the inverse p-Frobenius matrix mod g and the (p-1, t, m)
        GF(p) digits of the roots a_k = root(x**k, g, inverse=F**-1), made on
        first use by `root`, a function like `pth_root_mod`.  F is the screen's
        matrix when build_code had one, and is built from g otherwise."""
        if self._roots is None:
            f, g = self.field, self.g
            inverse = _frobenius_inverse(g, self._frobenius)
            roots = [root(Poly.monomial(f, k), g, inverse=inverse).coeffs for k in range(1, f.p)]
            self._roots = inverse, _digit_split(np.array([r + (0,) * (self.t - len(r)) for r in roots]), f)
        return self._roots

    @property
    def mul_x(self) -> np.ndarray:
        """g's `_mul_x_matrix`, made on first use: by a decode that solves."""
        if self._mul_x is None:
            self._mul_x = _mul_x_matrix(self.field, np.array([self.g.coeffs]))[0]
        return self._mul_x

    @property
    def dimension(self) -> int:
        return self.kernel_basis.shape[0]

    def random_codeword(self, rng) -> tuple[int, ...]:
        basis = self.kernel_basis
        coeffs = np.array(rng.randranges([self.field.p] * basis.shape[0]))
        word = (coeffs @ basis) % self.field.p
        return tuple(int(v) for v in word)

    def contains(self, word: Sequence[int]) -> bool:
        return all(c == 0 for c in self.syndrome_from_word(word))

    # -- serialization -------------------------------------------------------------

    def to_text(self) -> str:
        lines = [
            f"{self.field.p} {self.field.m} {self.t} {self.n}",
            " ".join(map(str, self.field.modulus)),
            self.g.to_text(),
            " ".join(map(str, self.L)),
        ]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "GoppaCode":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if len(lines) != 4:
            raise ParamError(f"expected 4 lines in code record, got {len(lines)}")
        header = ints_from_text(lines[0])
        if len(header) != 4:
            raise ParamError(f"code record header needs 4 fields, got {len(header)}")
        p, m, t, n = header
        field = make_field(p, m, ints_from_text(lines[1]))
        g = Poly(field, ints_from_text(lines[2]))
        support = ints_from_text(lines[3])
        if g.degree != t or len(support) != n:
            raise ParamError("code record header disagrees with body")
        return cls(field, support, g)

    @classmethod
    def load(cls, path) -> "GoppaCode":
        with open(path) as fh:
            return cls.from_text(fh.read())

    def __repr__(self) -> str:
        f = self.field
        return f"GoppaCode(p={f.p}, m={f.m}, t={self.t}, n={self.n})"


def _random_square_free(t: int, field: Field, rng) -> Poly:
    """Product of distinct random irreducibles with total degree t."""
    while True:
        degrees = []
        while sum(degrees) < t:
            degrees.append(1 + rng.randrange(t - sum(degrees)))
        factors: list[Poly] = []
        for d in degrees:
            fresh = (random_irreducible(d, field, rng) for _ in range(50))
            factors.append(next((c for c in fresh if c not in factors), None))
            if factors[-1] is None:
                break  # no new factor of degree d in 50 draws: start again
        if factors[-1] is not None:
            return functools.reduce(operator.mul, factors)


def build_code(
    p: int,
    m: int,
    t: int,
    n: int | None = None,
    *,
    rng,
    irreducible_only: bool = True,
) -> GoppaCode:
    """Random Goppa code: random (square-free) generator, then a uniform
    random support of size n among elements avoiding the generator's roots.

    n defaults to the maximum possible length (all of GF(q) when the
    generator is irreducible of degree >= 2).
    """
    field = make_field(p, m)
    _check_shape(field.q, m, t, field.q if n is None else n)  # a default n is at most q
    if irreducible_only:
        g, frob = random_irreducible(t, field, rng, with_frobenius=True)
    else:
        g, frob = _random_square_free(t, field, rng), None
    if irreducible_only and t >= 2:  # an irreducible g of degree >= 2 has no roots
        candidates = field.elements()
    else:
        candidates = np.flatnonzero(_synthetic_division(g.coeffs, field.elements(), field)[-1]).tolist()
    target = len(candidates) if n is None else n
    if target > len(candidates):
        raise ParamError(
            f"support of size {target} impossible: only {len(candidates)} usable elements"
        )
    support = rng.sample(candidates, target)
    return GoppaCode._drawn(field, support, g, frob) if irreducible_only else GoppaCode(field, support, g)


def word_to_text(word: Sequence[int]) -> str:
    return " ".join(map(str, word))


def word_from_text(line: str) -> tuple[int, ...]:
    return tuple(ints_from_text(line))
