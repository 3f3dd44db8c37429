"""Exact arithmetic in GF(p) and GF(p^m) for prime p.

Elements are plain Python ints in [0, q): the integer rank of the
coefficient vector in the polynomial basis, rank = sum(c_i * p**i).
Ranks below p are exactly the prime subfield, and rank arithmetic is
what the on-disk formats use, so no wrapper type is needed.

Every field has the same lookups (_add[a][b], _mul[a][b], _neg[a], _inv[a],
_ppow[a] == a**p, _proot[a]) and numpy array ops, int64 ranks in and out:
_arrays (add, mul), _neg_inv (-1/a of nonzero ranks) and _digits, the digit
split of a rank array into its coordinates along a new last axis.  Tables
built from the digit arithmetic when q <= 512 (the split and -1/a takes from
the tables), entries computed from it when read beyond.  No discrete-log or Zech tables; q <= 2**63, so ranks fit int64.

Field operations do not check their arguments: a rank outside [0, q)
gives an IndexError or a wrong answer.  Ranks are checked where they
enter from outside (records, code construction, decode input), never per
element.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from .errors import ParamError, check_integers

_TABLE_LIMIT = 512


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    for d in range(3, math.isqrt(n) + 1, 2):
        if n % d == 0:
            return False
    return True


def _default_modulus(p: int, m: int) -> tuple[int, ...]:
    """Smallest monic irreducible of degree m, candidates ordered by the
    base-p integer value of their low coefficient vector.  Blocks of
    consecutive ranks, 8 at first and doubling up to 1024 after each miss (all p reducible
    x**3 + c come first when p = 2 mod 3), go through polyring's block test."""
    if m == 1:
        return (0, 1)
    from .polyring import _first_irreducible  # local: polyring imports fields

    start, size = 0, 8
    while True:
        ranks, rows = np.arange(start, start + size), np.ones((size, m + 1), dtype=np.int64)
        for i in range(m):
            ranks, rows[:, i] = np.divmod(ranks, p)
        hit = _first_irreducible(make_field(p, 1), rows)[0]
        if hit is not None:
            return tuple(rows[hit].tolist())
        start, size = start + size, min(2 * size, 1024)


class _Computed:
    """Stand-in for a lookup table too large to build: entry [a] is
    op(*args, a), computed when it is read."""

    __slots__ = ("op", "args")

    def __init__(self, op, *args):
        self.op, self.args = op, args

    def __getitem__(self, a):
        return self.op(*self.args, a)


class Field:
    """Immutable GF(p^m) context; all element operations are pure."""

    __slots__ = ("p", "m", "q", "modulus", "_red", "_add", "_mul", "_neg", "_inv", "_ppow", "_proot", "_arrays", "_neg_inv", "_digits")

    def __init__(self, p: int, m: int, modulus: Sequence[int]):
        self.p = p
        self.m = m
        self.q = p**m
        self.modulus = tuple(c % p for c in modulus)
        # digit rows for y^j mod modulus, j = m .. 2m-2
        self._red = [[(-c) % p for c in self.modulus[:m]]]
        for _ in range(m - 2):
            self._red.append(self._shift_reduce(self._red[-1]))
        if self.q <= _TABLE_LIMIT:
            self._build_tables()
        else:
            self._computed_lookups()

    def _shift_reduce(self, row: list[int]) -> list[int]:
        p, m = self.p, self.m
        top = row[-1]
        out = [0] + row[:-1]
        if top:
            base = self._red[0]
            out = [(out[i] + top * base[i]) % p for i in range(m)]
        return out

    # -- coordinate view ---------------------------------------------------

    def coeffs(self, a: int) -> tuple[int, ...]:
        """Coordinates of element a in the polynomial basis, low to high."""
        p = self.p
        out = []
        for _ in range(self.m):
            a, d = divmod(a, p)
            out.append(d)
        return tuple(out)

    def from_coeffs(self, cs: Iterable[int]) -> int:
        rank = 0
        for i, c in enumerate(cs):
            rank += (c % self.p) * self.p**i
        return rank

    # -- arithmetic --------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return self._add[a][b]

    def neg(self, a: int) -> int:
        return self._neg[a]

    def mul(self, a: int, b: int) -> int:
        return self._mul[a][b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return self._inv[a]

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            a, e = self.inv(a), -e
        result = 1
        acc = a
        while e:
            if e & 1:
                result = self.mul(result, acc)
            acc = self.mul(acc, acc)
            e >>= 1
        return result

    def pth_root(self, a: int) -> int:
        """Unique b with b**p == a; the Frobenius x -> x**p has order m,
        so its inverse is x -> x**(p**(m-1))."""
        return self._proot[a]

    def _add_raw(self, a: int, b: int) -> int:
        p = self.p
        ca, cb = self.coeffs(a), self.coeffs(b)
        return self.from_coeffs((x + y) % p for x, y in zip(ca, cb))

    def _mul_raw(self, a: int, b: int) -> int:
        p, m = self.p, self.m
        if m == 1:
            return (a * b) % p
        if a == 0 or b == 0:
            return 0
        ca, cb = self.coeffs(a), self.coeffs(b)
        conv = [0] * (2 * m - 1)
        for i, x in enumerate(ca):
            if x:
                for j, y in enumerate(cb):
                    conv[i + j] += x * y
        for k in range(2 * m - 2, m - 1, -1):
            t = conv[k] % p
            if t:
                row = self._red[k - m]
                for i in range(m):
                    conv[i] += t * row[i]
            conv[k] = 0
        return self.from_coeffs(c % p for c in conv[:m])

    def _build_tables(self) -> None:
        """Row tables (_mul[a][b] == a*b) from digit arithmetic: digit k of a*b
        is sum_j b_j (a y**j)_k.  The array ops take entry a*q + b of the
        raveled numpy tables."""
        p, m, q = self.p, self.m, self.q
        weights = p ** np.arange(m)
        digits = np.arange(q)[:, None] // weights % p
        powers = np.vstack([np.eye(m, dtype=np.int64), self._red])  # digits of y**k, k < 2m - 1
        lifted = np.stack([digits @ powers[j : j + m] for j in range(m)], axis=1)
        add = sum((digits[:, None, k] + digits[:, k]) % p * weights[k] for k in range(m))
        mul = sum(digits @ lifted[:, :, k].T % p * weights[k] for k in range(m))
        self._add, self._mul = add.tolist(), mul.tolist()
        flat_add, flat_mul = add.ravel(), mul.ravel()  # take() of a flat index beats a 2-D gather
        self._arrays = (lambda a, b: flat_add.take(a * q + b)), (lambda a, b: flat_mul.take(a * q + b))
        self._digits = lambda ranks: digits.take(ranks, axis=0)
        neg, inv = -digits % p @ weights, np.argmax(mul == 1, axis=1)
        self._neg, self._inv, neg_inv = neg.tolist(), inv.tolist(), neg.take(inv)
        self._neg_inv = lambda ranks: neg_inv.take(ranks)
        self._ppow = [self.pow(a, p) for a in range(q)]
        self._proot = np.argsort(self._ppow).tolist()  # the inverse permutation

    def _computed_lookups(self) -> None:
        """Lookups computed by the digit arithmetic when read, array ops
        that apply add, mul and -1/a elementwise on Python ints, cast to
        int64, and the digit split by int64 floor division."""
        self._add = _Computed(_Computed, self._add_raw)  # _add[a] is the row of a
        self._mul = _Computed(_Computed, self._mul_raw)
        self._neg = _Computed(lambda a: self.from_coeffs(-c for c in self.coeffs(a)))
        self._inv = _Computed(lambda a: self.pow(a, self.q - 2))
        self._ppow = _Computed(lambda a: self.pow(a, self.p))
        self._proot = _Computed(lambda a: self.pow(a, self.p ** (self.m - 1)))
        add, mul = np.frompyfunc(self._add_raw, 2, 1), np.frompyfunc(self._mul_raw, 2, 1)
        self._arrays = (lambda a, b: add(a, b).astype(np.int64)), (lambda a, b: mul(a, b).astype(np.int64))
        neg_inv = np.frompyfunc(lambda a: self._neg[self._inv[a]], 1, 1)
        self._neg_inv = lambda ranks: neg_inv(ranks).astype(np.int64)
        weights = self.p ** np.arange(self.m)
        self._digits = lambda ranks: ranks[..., None] // weights % self.p

    # -- misc ----------------------------------------------------------------

    def elements(self) -> range:
        return range(self.q)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Field)
            and (self.p, self.m, self.modulus) == (other.p, other.m, other.modulus)
        )

    def __hash__(self) -> int:
        return hash((self.p, self.m, self.modulus))

    def __reduce__(self):
        return Field, (self.p, self.m, self.modulus)  # lookups hold closures; rebuild them

    def __repr__(self) -> str:
        return f"Field(p={self.p}, m={self.m}, modulus={list(self.modulus)})"


_FIELD_CACHE: dict[tuple, Field] = {}


def _check_characteristic(p: int, m: int) -> None:
    """ParamError unless p is a prime, m an integer >= 1 and p**m <= 2**63."""
    check_integers((p, m), 1, math.inf, "characteristic and extension degree")
    if p ** min(m, 64) > 1 << 63:  # m capped: any p >= 2 exceeds it at m = 64
        raise ParamError(f"field size {p}**{m} exceeds 2**63")
    if not is_prime(p):
        raise ParamError(f"characteristic must be prime, got {p}")


def make_field(p: int, m: int, modulus: Sequence[int] | None = None) -> Field:
    """Build (or fetch the cached) GF(p^m) context.

    When no modulus is given, the deterministic default is the
    lexicographically smallest monic irreducible of degree m, so codes
    serialized against the default field deserialize identically anywhere.

    A modulus of degree m >= 2 is checked by `polyring.is_irreducible`,
    whose Frobenius matrix is exact only while m*(p-1)**2 < 2**53; beyond
    that (p > 2**26 for m = 2) ParamError is raised.  No code over such a
    field could be built anyway: its m*t-dimensional residue space is at
    least as large.
    """
    _check_characteristic(p, m)
    if modulus is not None:
        check_integers(modulus, -math.inf, math.inf, "modulus coefficients")
        modulus = tuple(c % p for c in modulus)
        if len(modulus) != m + 1 or modulus[-1] != 1:
            raise ParamError(f"modulus must be monic of degree {m}, got {list(modulus)}")
        from .polyring import Poly, is_irreducible  # local: polyring imports fields

        # degree 1 needs no test, which also keeps make_field(p, 1) from recursing
        if m > 1 and not is_irreducible(Poly(make_field(p, 1), modulus)):
            raise ParamError(f"modulus {list(modulus)} is reducible over GF({p})")
        key = (p, m, modulus)
    else:
        key = (p, m, None)
    field = _FIELD_CACHE.get(key)
    if field is None:
        field = Field(p, m, modulus if modulus is not None else _default_modulus(p, m))
        _FIELD_CACHE[key] = field
        _FIELD_CACHE[(p, m, field.modulus)] = field
    return field


def ints_from_text(text: str) -> list[int]:
    """Whitespace-separated decimal integers; ParamError on any other token."""
    try:
        return [int(tok) for tok in text.split()]
    except ValueError as exc:
        raise ParamError(f"malformed record {text.strip()!r}: {exc}") from None
