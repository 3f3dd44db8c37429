"""Dense univariate polynomials over GF(q), plus what the decoder is built
on: the characteristic-p decomposition, p-th roots modulo a square-free g
(a stack of residues in one product with the inverse Frobenius matrix),
and the root finder (root multiplicities as the first non-vanishing Hasse
derivative, every level a digit row against one evaluation matrix).

Coefficients are stored low-to-high with no trailing zeros; the zero
polynomial has degree NEG_INF, a sentinel ordered below every integer, so
a zero polynomial meets every degree bound.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from . import modp
from .errors import NotInvertibleError, ParamError, check_integers
from .fields import _TABLE_LIMIT, Field, is_prime

NEG_INF = float("-inf")

_BLOCK_ROWS = 24  # candidates per block of the generator search, root-screened at once
_STAGE_ROWS = 4  # root-free candidates per Frobenius stage


class Poly:
    """Immutable dense polynomial over a Field."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, field: Field) -> "Poly":
        return cls(field)

    @classmethod
    def one(cls, field: Field) -> "Poly":
        return cls(field, (1,))

    @classmethod
    def x(cls, field: Field) -> "Poly":
        return cls(field, (0, 1))

    @classmethod
    def monomial(cls, field: Field, deg: int) -> "Poly":
        return cls(field, (0,) * deg + (1,))

    # -- basic queries ---------------------------------------------------------

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self) -> bool:
        return not self.coeffs

    def lc(self) -> int:
        """Leading coefficient (0 for the zero polynomial)."""
        return self.coeffs[-1] if self.coeffs else 0

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def _check(self, other: "Poly") -> None:
        if self.field is not other.field and self.field != other.field:
            raise ValueError("polynomials belong to different fields")

    # -- ring operations -------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        return _plus_scaled(self.field, self.coeffs, 1, other.coeffs)

    def __neg__(self) -> "Poly":
        return _plus_scaled(self.field, (), self.field.neg(1), self.coeffs)

    def __sub__(self, other: "Poly") -> "Poly":
        self._check(other)
        return _plus_scaled(self.field, self.coeffs, self.field.neg(1), other.coeffs)

    def __mul__(self, other: "Poly") -> "Poly":
        self._check(other)
        out: list[int] = []
        dst, src, add, mul = [out], [(0, other.coeffs)], self.field._add, self.field._mul
        for i, c in enumerate(self.coeffs):
            if c:
                _row_addmul(dst, src, mul[c], i, add)
        return Poly(self.field, out)

    def scale(self, c: int) -> "Poly":
        return _plus_scaled(self.field, (), c, self.coeffs)

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        r, q = self._cancel_by(other, [list(self.coeffs), []], [self.field.neg(1)])
        return Poly(self.field, q), Poly(self.field, r)

    def __mod__(self, other: "Poly") -> "Poly":
        return Poly(self.field, self._cancel_by(other, [list(self.coeffs)])[0])

    def _cancel_by(self, other: "Poly", row: list[list[int]], *cofactor: Sequence[int]) -> list[list[int]]:
        """row cancelled against (other, *cofactor) by `_cancel`, in place:
        entry 0 ends as the remainder mod other, and the row (a, 0) against
        (b, -1) collects the quotient in entry 1."""
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        _cancel([row], [other.coeffs, *cofactor], 0, self.field)
        return row

    def deriv(self) -> "Poly":
        """Formal derivative; exponents act through the prime subfield."""
        f = self.field
        p = f.p
        out = [f.mul(i % p, c) for i, c in enumerate(self.coeffs)][1:]
        return Poly(f, out)

    def monic(self) -> "Poly":
        if self.is_zero() or self.lc() == 1:
            return self
        return self.scale(self.field.inv(self.lc()))

    # -- plumbing ---------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poly)
            and self.coeffs == other.coeffs
            and self.field == other.field
        )

    def __hash__(self) -> int:
        return hash((self.field, self.coeffs))

    def __repr__(self) -> str:
        return f"Poly({list(self.coeffs)})"

    def to_text(self) -> str:
        """Decimal coefficient ranks, low to high, one line; zero is "0"."""
        return " ".join(map(str, self.coeffs)) if self.coeffs else "0"


def _check_poly(f: Poly, field: Field, what: str) -> None:
    """ParamError unless f is over field, its coefficients ranks in [0, q):
    for a Poly that enters a public decoding step from outside."""
    if f.field is not field and f.field != field:
        raise ParamError(f"{what} is over {f.field!r}, not {field!r}")
    check_integers(f.coeffs, 0, field.q, f"{what} coefficients")


# -- coefficient-list kernels ----------------------------------------------
#
# Every GF(q)[x] operation reduces to one loop over coefficients,
# `_row_addmul`, and one loop over leading terms, `_cancel`, on rows of
# bare coefficient lists (low to high, trimmed).  They run over the field's
# lookups, tables or computed alike.  `_cancel` binds the field's tables,
# the table row of the source's -1/lc and its nonzero entries once per call,
# for all its target rows, so a transformation has no set-up of its own.
# `_power_sums` is no third arithmetic loop but an evaluation, like
# `_evaluation_matrix`: weighted sums of the powers of a list of points, one
# list pass per power (an array form of it read 0.95x at the probe's sizes).


def _row_addmul(dst: list[list[int]], src: Sequence[tuple[int, Sequence[int]]], times: Sequence[int], e: int, add) -> None:
    """dst += c * x**e * src in place on trimmed coefficient lists: src as
    (index, coefficients) pairs, times c's row of _mul, add the field's _add."""
    for j, s in src:
        d = dst[j]
        short = e + len(s) - len(d)
        if short > 0:
            d.extend([0] * short)
        i = e  # stepped by hand: cheaper than enumerate's tuple per update
        for si in s:
            d[i] = add[d[i]][times[si]]
            i += 1
        if short >= 0:  # the update reached d's top; below it d stays trimmed
            while d and d[-1] == 0:
                d.pop()


def _cancel(targets: Sequence[list[list[int]]], src: Sequence[Sequence[int]], col: int, field: Field) -> None:
    """For each target row in order, cancel its entry col's leading term
    against src[col]'s until it is shorter, in place: each step is one
    simple transformation, row += c * x**e * src by `_row_addmul`, c read
    from the table row of -1/lc(src[col]), taken once.  src is no target."""
    add, mul, coef = field._add, field._mul, field._mul[field._neg[field._inv[src[col][-1]]]]
    size, pairs = len(src[col]), [(j, s) for j, s in enumerate(src) if s]
    for dst in targets:
        lead = dst[col]
        while len(lead) >= size:
            _row_addmul(dst, pairs, mul[coef[lead[-1]]], len(lead) - size, add)


def _pivot(row: Sequence[Sequence[int]]) -> int:
    """`popov.pivot_index` on trimmed coefficient lists: degrees are lengths minus one."""
    best = 0
    best_len = 1
    for j, entry in enumerate(row, start=1):
        if len(entry) >= best_len:
            best_len = len(entry)
            best = j
    return best


def _plus_scaled(field: Field, a: Sequence[int], c: int, b: Sequence[int]) -> Poly:
    """a + c * b, as a Poly."""
    out = list(a)
    _row_addmul([out], [(0, b)], field._mul[c], 0, field._add)
    return Poly(field, out)


def _power_sums(field: Field, e: Sequence[int], xi: Sequence[int], points: Sequence[int], r: int) -> list[int]:
    """Entry i < r is sum_j e_j * xi_j * points_j**(i+1), e_j * xi_j a
    prime-subfield rank: the terms of the nonzero e_j in one list pass,
    each power a fold over them, every power past the first one more pass
    that multiplies each term by its point."""
    p, add, mul = field.p, field._add, field._mul
    terms = [mul[a][ej * xj % p] for ej, xj, a in zip(e, xi, points) if ej]
    if r > 1:  # the terms' points, read from the second power on
        points = [a for ej, a in zip(e, points) if ej]
    sums = []
    for i in range(r):
        if i:
            terms = [mul[a][c] for a, c in zip(points, terms)]
        acc = 0
        for c in terms:
            acc = add[acc][c]
        sums.append(acc)
    return sums


def _euclid(a: list[list[int]], b: list[list[int]], field: Field) -> list[list[int]]:
    """Euclid as row elimination, in place.  Rows are coefficient lists,
    entry 0 the remainder; any other entries ride along as cofactors.  b's
    leading term cancels a's by the simple transformation of
    `popov.weak_popov_reduce` (`_cancel`), then the rows swap, until b's
    remainder is zero.  Returns the last row with a nonzero remainder,
    scaled to make it monic (a when both are zero)."""
    while b[0]:
        _cancel([a], b, 0, field)
        a, b = b, a
    times = field._mul[field.inv(a[0][-1]) if a[0] else 1]
    return [[times[c] for c in entry] for entry in a]


def poly_gcd(a: Poly, b: Poly) -> Poly:
    a._check(b)
    return Poly(a.field, _euclid([list(a.coeffs)], [list(b.coeffs)], a.field)[0])


def inv_mod(f: Poly, g: Poly) -> Poly:
    """Inverse of f modulo g; NotInvertibleError when gcd(f, g) != 1.  Euclid's
    first step reduces (f, 1) against (g, 0), so f is passed unreduced."""
    f._check(g)
    if g.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    d, u = _euclid([list(f.coeffs), [1]], [list(g.coeffs), []], g.field)
    if len(d) != 1:
        raise NotInvertibleError(f"not invertible, gcd has degree {len(d) - 1}")
    return Poly(g.field, u)


def _square_free(g: Poly) -> bool:
    """True iff g has no repeated factor; its ranks unchecked.  A vanishing
    derivative means g is a p-th power, hence not square-free."""
    d = g.deriv()
    if d.is_zero():
        return False
    return poly_gcd(g, d).degree == 0


def _elementwise(field: Field):
    """(add, mul): the field's add and mul on int64 arrays of ranks, each
    returning an int64 array, whether the field has tables or not."""
    return field._arrays


def _synthetic_division(gc: Sequence, points, field: Field) -> list[np.ndarray]:
    """Horner's rule for g = sum gc[i] x**i at every point at once.

    Each gc[i] is one coefficient shared by all points, or a row holding a
    coefficient per point (so each point may divide its own polynomial).
    Returns the rows r_{t-1}, ..., r_0, r_{-1}: at each point a, row r_k is
    coefficient k of (g(x) - g(a)) / (x - a), and the last row is g(a).
    """
    add, mul = _elementwise(field)
    points = np.array(points, dtype=np.int64)
    rows = [np.full(points.shape, gc[-1], dtype=np.int64)]
    for c in reversed(gc[:-1]):
        rows.append(add(mul(rows[-1], points), c))
    return rows


def _root_multiplicities(field: Field, sigmas, points: Sequence[int], bound: int = 0) -> np.ndarray:
    """Entry [r, i] is the multiplicity of points[i] as a root of sigma_r,
    or 0, for the rows sigma_r of a stack of nonzero polynomials (an array
    or equal-length lists of coefficient ranks, low to high, zero-padded).

    The multiplicity at a is the first i with D**(i) sigma (a) != 0, D**(i)
    the i-th Hasse derivative (H. Hasse, J. reine angew. Math. 175, 1936):
    sigma = sum_i D**(i) sigma (a) (x - a)**i in any characteristic, where
    the ordinary derivatives of order p and above vanish.  Coefficient s of
    D**(i) sigma is C(s + i, i) * c_(s+i), a prime-subfield scaling of
    c_(s+i)'s digits, so the levels of the stack are one product with
    `_hasse_matrix`.  Level 0 goes through `_evaluation_matrix` in one
    product, the higher levels in a second at the points that are a root of
    some row; a value is zero iff its rank (a product with the digit
    weights) is.  The matrix is built for degree max(bound, width - 1), so
    callers under one bound share it; over a field with q <= 512 it covers
    GF(q), the one the root screen uses, so a new support builds none, and
    beyond it covers the points alone.  ParamError for a zero row or a rank
    outside [0, q).
    """
    sigmas = np.asarray(sigmas, dtype=np.int64)
    if not sigmas.any(axis=1).all():
        raise ParamError("the zero polynomial has no root multiplicities")
    if sigmas.size and not 0 <= sigmas.min() <= sigmas.max() < field.q:
        raise ParamError(f"locator coefficients must be ranks in [0, {field.q})")
    p, m, t, rows = field.p, field.m, max(bound, sigmas.shape[1] - 1), len(sigmas)
    if field.q <= _TABLE_LIMIT:
        evaluate, at = _evaluation_matrix(field, t, field.elements()), np.array(points, dtype=np.int64)
    else:
        evaluate, at = _evaluation_matrix(field, t, tuple(points)), np.arange(len(points))
    weights = (p ** np.arange(m)).astype(evaluate.dtype)  # zero tests only: exact in any float
    digits = np.zeros((rows, t + 1, m), dtype=evaluate.dtype)
    digits[:, : sigmas.shape[1]] = _digit_split(sigmas, field)
    values = _fmod(digits.reshape(rows, (t + 1) * m) @ evaluate, p)
    roots = (values.reshape(rows, evaluate.shape[1] // m, m) @ weights)[:, at] == 0
    mults, cols = np.zeros(roots.shape, dtype=np.int64), np.flatnonzero(roots.any(axis=0))
    if len(cols):
        levels = _fmod(digits.reshape(rows, -1) @ _hasse_matrix(p, t, m, evaluate.dtype), p)
        values = _fmod(levels.reshape(rows * t, -1) @ evaluate[:, (at[cols, None] * m + np.arange(m)).ravel()], p)
        first = (values.reshape(rows, t, len(cols), m) @ weights != 0).argmax(axis=1) + 1
        mults[:, cols] = np.where(roots[:, cols], first, 0)
    return mults


@lru_cache(maxsize=8)
def _hasse_matrix(p: int, t: int, m: int, dtype: np.dtype) -> np.ndarray:
    """GF(p) matrix, (t+1)m x t(t+1)m, of the Hasse derivatives of orders
    i = 1..t on the digit rows of polynomials of degree <= t: C(s + i, i)
    mod p takes digit k of coefficient s + i to digit k of coefficient s of
    order i, column ((i-1)*(t+1) + s)*m + k.  A stack's levels thus come
    out as rows in the layout of `_evaluation_matrix`'s, with no gather."""
    out = np.zeros((t + 1, t, t + 1), dtype=dtype)
    for k in range(1, t + 1):
        for i in range(1, k + 1):
            out[k, i - 1, k - i] = math.comb(k, i) % p
    return np.kron(out.reshape(t + 1, -1), np.eye(m, dtype=dtype))


def _digit_split(ranks: np.ndarray, field: Field) -> np.ndarray:
    """GF(p) coordinates of an int64 array of element ranks, along a new
    last axis: the field's digit split, a take from its digit table when
    q <= 512 and floor division beyond."""
    return field._digits(ranks)


def _neg_inverse(ranks: np.ndarray, field: Field) -> np.ndarray:
    """-1/a for each a of an int64 array of nonzero ranks, unchecked: the
    field's array op, a take from its tables when q <= 512."""
    return field._neg_inv(ranks)


def _fmod(x: np.ndarray, p: int) -> np.ndarray:
    """x mod p, in place, for a float temporary x of exact integers below
    2**24 (float32) or 2**53; several times cheaper than float %."""
    r = x / p
    x -= np.multiply(np.floor(r, out=r), p, out=r)
    return x


_EXACT_BITS = {np.float32: 24, np.float64: 53}  # a float dtype's integers are exact below 2**bits


def _exact_products(p: int, dim: int) -> tuple[type, int]:
    """(dtype, k): a reduced GF(p) value takes k products in a row by
    reduced matrices of side dim before it needs `_fmod`, its entries then
    at most (p-1) * (dim*(p-1))**k, exact below 2**24 in float32 (taken
    where it holds one product) and 2**53 in float64; ParamError where
    neither holds one."""
    for dtype, bits in _EXACT_BITS.items():
        k, bound = 0, p - 1
        while k < bits and bound * dim * (p - 1) < 1 << bits:
            k, bound = k + 1, bound * dim * (p - 1)
        if k:
            return dtype, k
    raise ParamError(f"GF({p}) products of matrices of side {dim} exceed exact float64 range")


def _power_mod(a: np.ndarray, e: int, p: int) -> np.ndarray:
    """a**e mod p for a reduced a, by repeated squaring in a's float dtype,
    exact under the bound `_frobenius_matrix` enforces.  Each operand
    carries a bound on its entries, p - 1 when reduced and side * b * c for
    a product of operands bounded by b and c; `_fmod` runs on an operand
    only where the next product could leave the dtype's exact range
    (`_EXACT_BITS`), and on the result."""
    limit, side = 1 << _EXACT_BITS[a.dtype.type], a.shape[-1]

    def fit(x: np.ndarray, bound: int, other: int) -> int:
        """x's bound, x reduced in place first where its product with an
        operand bounded by other could be inexact."""
        if bound < p or side * bound * other < limit:
            return bound
        _fmod(x, p)
        return p - 1

    base, power, bb, pb = a, None, p - 1, 0
    while e:
        if e & 1:
            if power is None:
                power, pb = base, bb
            else:
                if pb < bb:  # the larger bound first: its reduction may spare the other's
                    bb = fit(base, bb, pb)
                pb = fit(power, pb, bb)
                bb = fit(base, bb, pb)
                power, pb = power @ base, side * pb * bb
        e >>= 1
        if e:
            bb = fit(base, bb, bb)
            base, bb = base @ base, side * bb * bb
    return np.eye(side) if power is None else power if pb < p else _fmod(power, p)


def _mul_x_matrix(field: Field, gc: np.ndarray) -> np.ndarray:
    """GF(p) matrices C, C @ digits(f) = digits(x*f mod g), for each monic row
    g of gc (as in `_frobenius_matrix`), in `_exact_products`' dtype for side
    m*t; the last block, -y**k * (g - x**t), takes m*t field products."""
    p, m = field.p, field.m
    rows, dim = gc.shape[0], m * (gc.shape[1] - 1)
    top = _elementwise(field)[1](np.array([field.neg(p**k) for k in range(m)])[:, None], gc[:, None, :-1])
    mul_x = np.zeros((rows, dim, dim), dtype=_exact_products(p, dim)[0])
    mul_x[:, np.arange(m, dim), np.arange(dim - m)] = 1
    mul_x[:, :, -m:] = _digit_split(top, field).transpose(0, 2, 3, 1).reshape(rows, dim, m)
    return mul_x


def _frobenius_matrix(field: Field, gc: np.ndarray) -> np.ndarray:
    """GF(p) matrices of y -> y**p on GF(q)[x]/g, one for each monic row
    g = sum gc[k, i] x**i of gc, stacked as a float (K, m*t, m*t) array.

    Coordinate j*m + k is digit k of the coefficient of x**j, so column
    j*m + k is the image (y**k)**p * x**(j*p) mod g.  The residues x**(j*p)
    mod g come one per block: while j*p < t the monomial itself, then each
    the last times C**p, C g's `_mul_x_matrix`.  One product with
    `_frobenius_constants` then scales every residue by each (y**k)**p.
    `_exact_products` picks the dtype (float32 while one product,
    m*t*(p-1)**2, stays below 2**24, as everywhere on the experiment grid,
    where it is below 12,000) and how many blocks the recurrence takes
    between reductions mod p, and ParamError is raised where not even
    float64 holds one product.
    """
    p, m = field.p, field.m
    rows, t = gc.shape[0], gc.shape[1] - 1
    dim = m * t
    dtype, every = _exact_products(p, dim)
    mul_x = _mul_x_matrix(field, gc)
    if p > 2 * t * p.bit_length():  # p - 1 thin products would cost more than squaring
        mul_xp = _power_mod(mul_x, p, p)
    else:  # block i of C**p, column k: digits of y**k x**(p + i) mod g
        mul_xp, low = np.empty_like(mul_x), max(t - p, 0) * m
        mul_xp[:, :, :low] = np.eye(dim, dtype=dtype)[:, p * m :]
        tail = [mul_x[:, :, -m:]]  # x**t, ..., x**(t + p - 1)
        while len(tail) < p:
            tail.append(_fmod(mul_x @ tail[-1], p))
        mul_xp[:, :, low:] = np.concatenate(tail[max(p - t, 0) :], axis=-1)
    first = -(-t // p)  # blocks j < first have j*p < t: their residue is x**(j*p)
    out = np.zeros((rows, dim, dim), dtype=dtype)
    constants = _frobenius_constants(field, dtype)
    js = np.arange(first)
    out.reshape(rows, t, m, t, m)[:, js * p, :, js, :] = constants[0].reshape(m, m).T  # [d, k]: digit d of (y**k)**p
    residues = np.empty((rows, t - first, dim), dtype=dtype)  # digits of x**(j*p) mod g, j >= first
    residue = out[:, :, (first - 1) * m, None]
    for j in range(first, t):
        residue = mul_xp @ residue
        if (j + 1 - first) % every == 0:
            residue = _fmod(residue, p)
        residues[:, j - first] = residue[:, :, 0]
    # [row, j, i, k, d]: digit d of (y**k)**p times coefficient i of block j's residue
    images = _fmod(_fmod(residues, p).reshape(rows, t - first, t, m) @ constants, p).reshape(rows, t - first, t, m, m)
    out.reshape(rows, t, m, t, m)[:, :, :, first:] = images.transpose(0, 2, 4, 1, 3)
    return out


@lru_cache(maxsize=8)
def _frobenius_constants(field: Field, dtype: np.dtype) -> np.ndarray:
    """GF(p) matrix, m x m*m, of multiplication by the constants (y**k)**p,
    k < m: row l, column k*m + d holds digit d of y**l * (y**k)**p, so a
    row of digits times it gives the digits of each of its m products.
    Read-only, as every call shares it."""
    p, m = field.p, field.m
    constants = np.array([field._ppow[p**k] for k in range(m)])
    products = _elementwise(field)[1](p ** np.arange(m)[:, None], constants)  # [l, k]
    matrix = _digit_split(products, field).reshape(m, m * m).astype(dtype)
    matrix.flags.writeable = False
    return matrix


@lru_cache(maxsize=8)
def _evaluation_matrix(field: Field, t: int, points: Sequence[int]) -> np.ndarray:
    """GF(p) matrix of g -> (g(a) for a in points) on polynomials of degree
    <= t, as a float ((t+1)*m, len(points)*m) array; points is a tuple or
    range of ranks, so the cache is keyed by it.

    Row i*m + k is digit k of coefficient i, so the rows of a lower degree
    are a leading slice; column j*m + l is digit l of g(points[j]): block
    (i, j) is the matrix of multiplication by a**i, its column k the digits
    of y**k * a**i.  Every dot product sums (t+1)*m terms below (p-1)**2:
    `_exact_products` for side (t+1)*m picks float32 while (t+1)*m*(p-1)**2
    < 2**24 and float64 below 2**53, and raises ParamError beyond.
    """
    p, m = field.p, field.m
    mul, pts = _elementwise(field)[1], np.array(points, dtype=np.int64)
    powers = np.ones((t + 1, len(pts)), dtype=np.int64)  # powers[i, j] = points[j]**i
    for i in range(1, t + 1):
        powers[i] = mul(powers[i - 1], pts)
    # digits[k, i, j, l] is digit l of y**k * points[j]**i, y**k having rank p**k
    digits = _digit_split(mul(p ** np.arange(m)[:, None, None], powers), field)
    dtype = _exact_products(p, (t + 1) * m)[0]
    return digits.transpose(1, 0, 2, 3).reshape((t + 1) * m, len(pts) * m).astype(dtype)


def _root_free(field: Field, gc: np.ndarray) -> tuple[np.ndarray, bool]:
    """(rows, screened): over a field with q <= 512 and for t >= 2, the indices
    of gc's rows (as in `_rabin_screen`) with no root in GF(q), every row at
    every element in one product, and True; elsewhere every row and False."""
    live = np.arange(len(gc))
    if field.q > _TABLE_LIMIT or gc.shape[1] <= 2:
        return live, False
    evaluate = _evaluation_matrix(field, gc.shape[1] - 1, field.elements())
    values = _fmod(_digit_split(gc, field).reshape(len(gc), -1).astype(evaluate.dtype) @ evaluate, field.p)
    # each g(a)'s rank, zero iff a is a root: one product, cheaper than any() over the digits
    ranks = values.reshape(len(gc), field.q, field.m) @ (field.p ** np.arange(field.m)).astype(values.dtype)
    return live[ranks.all(axis=1)], True


def _rabin_screen(field: Field, gc: np.ndarray, live: np.ndarray) -> tuple[list[int], list[np.ndarray], np.ndarray | None]:
    """Rabin's test on rows of a block, all but its gcds.  Row k of gc holds
    the coefficients, low to high, of a monic g of degree t >= 1.

    g is irreducible iff x**(q**t) == x (mod g) and gcd(x**(q**(t/r)) - x, g)
    = 1 for each prime r | t.  The rows of gc that `live` lists, however
    chosen, go through one Frobenius stage: x**(q**i) mod g from
    their stacked q-Frobenius matrices, the chain reduced mod p as often as
    `_exact_products` requires and wherever it is read (at a level and at
    i = t).  Returns the rows, in order, that pass, for each level i = t/r
    the coefficient ranks of x**(q**i) - x at those rows, and their stacked
    p-Frobenius matrices.  For t = 1, where every row is irreducible and x
    has no coordinate, it returns every live row, no levels and None.
    """
    t = gc.shape[1] - 1
    if t == 1 or not len(live):
        return live.tolist(), [], None
    p, m = field.p, field.m
    levels = [t // r for r in range(2, t + 1) if t % r == 0 and is_prime(r)]
    frob = _frobenius_matrix(field, gc[live])
    frob_q = _power_mod(frob, m, p)  # y -> y**q
    every = _exact_products(p, m * t)[1]
    x = (np.arange(m * t) == m).astype(frob_q.dtype)
    h, powers = x[:, None], []
    for i in range(1, t + 1):
        h = frob_q @ h
        if i % every == 0 or i in levels or i == t:
            _fmod(h, p)
        if i in levels:
            powers.append(h[:, :, 0])
    passed = (h[:, :, 0] == x).all(axis=1)
    weights = p ** np.arange(m)  # int64: float64 is inexact past 2**53
    gaps = [_fmod(v[passed] - x, p).astype(np.int64).reshape(-1, t, m) @ weights for v in powers]
    return live[passed].tolist(), gaps, frob[passed]


def is_irreducible(g: Poly, gaps: Sequence[Sequence[int]] | None = None) -> bool:
    """Irreducibility over GF(q) by Rabin's test.  With `gaps`, g passed
    `_rabin_screen` and gaps are its rows there (x**(q**i) - x at each
    level), so one gcd per level decides; without, g is screened alone, and
    its coefficients must be ranks in [0, q)."""
    if gaps is None:
        check_integers(g.coeffs, 0, g.field.q, "polynomial coefficients")
        return g.degree >= 1 and _first_irreducible(g.field, np.array([g.monic().coeffs]))[0] == 0
    return all(poly_gcd(g, Poly(g.field, r)).degree == 0 for r in gaps)


def _first_irreducible(field: Field, gc: np.ndarray) -> tuple[int | None, np.ndarray | None]:
    """Index of the first irreducible row of gc (rows as in `_rabin_screen`)
    and its p-Frobenius matrix from the screen, or None: one root screen of
    the block, then `_rabin_screen` stages of `_STAGE_ROWS` root-free rows
    in order (one stage of every row where no root screen runs), each
    stage's survivors decided by is_irreducible from its own levels, until
    one is accepted."""
    live, screened = _root_free(field, gc)
    stage = _STAGE_ROWS if screened else len(gc)
    for start in range(0, len(live), stage):
        passed, gaps, frob = _rabin_screen(field, gc, live[start : start + stage])
        for j, k in enumerate(passed):
            if is_irreducible(Poly(field, gc[k].tolist()), [v[j].tolist() for v in gaps]):
                return k, None if frob is None else frob[j]
    return None, None


def random_irreducible(t: int, field: Field, rng, *, with_frobenius: bool = False):
    """Uniform monic irreducible g of degree exactly t (rejection sampling).
    Each candidate takes t randrange(q) draws of rng, low coefficient first;
    blocks of `_BLOCK_ROWS` are drawn and root-screened at once (over a
    field with q > 512, blocks of `_STAGE_ROWS`, one Frobenius stage each),
    and rng is left just after the accepted candidate's draws.
    `with_frobenius` returns (g, F), F being g's p-Frobenius matrix from the
    screen, or None for t = 1, where it builds none."""
    check_integers((t,), 1, math.inf, "degree t")
    q = field.q
    k = _BLOCK_ROWS if q <= _TABLE_LIMIT else _STAGE_ROWS
    while True:
        draws = rng.next_u64_block(k * t)
        gc = np.ones((k, t + 1), dtype=np.int64)
        gc[:, :t] = (draws % np.uint64(q)).reshape(k, t)
        hit, frob = _first_irreducible(field, gc)
        rng.advance(t * (k if hit is None else hit + 1))
        if hit is not None:
            g = Poly(field, gc[hit].tolist())
            return (g, frob) if with_frobenius else g


def pth_power_decompose(f: Poly) -> list[Poly]:
    """Split f into (a_0, ..., a_{p-1}) with f = sum x**k * a_k**p.

    In characteristic p the coefficient of x**(p*i + k) in f is the p-th
    power of coefficient i of a_k, so each a_k is read off by taking p-th
    roots of a stride-p slice.
    """
    fld = f.field
    return [Poly(fld, map(fld.pth_root, f.coeffs[k :: fld.p])) for k in range(fld.p)]


def _pth_power_compose(rows: np.ndarray, t: int, field: Field) -> tuple[list[int], np.ndarray]:
    """(kept, sigmas): which rows (a_0, ..., a_{p-1}) of a (rows, p, t//p + 1)
    array of zero-padded ranks are nonzero and meet every deg(a_k) <= (t-k)//p,
    and t + 1 ranks of each one's monic sigma = sum x**k * a_k**p, in one
    array pass.  A nonzero a_k[i] lands, p-th powered by `_ppow`, at x**(p*i
    + k), no other term's slot; the top slot, at the row's pivot, decides
    every bound before any power is taken and is the degree of sigma."""
    p, width = field.p, rows.shape[2]
    top = ((rows != 0) * (p * np.arange(width) + np.arange(1, p + 1)[:, None])).max(axis=(1, 2)) - 1  # -1: zero row
    kept = np.flatnonzero((top >= 0) & (top <= t))
    live = rows[kept]
    r, k, i = live.nonzero()
    sigmas = np.zeros((len(kept), t + 1), dtype=np.int64)
    sigmas[r, p * i + k] = [field._ppow[c] for c in live[r, k, i].tolist()]
    scales = [field._inv[c] for c in sigmas[np.arange(len(kept)), top[kept]].tolist()]
    return kept.tolist(), _elementwise(field)[1](sigmas, np.array(scales, dtype=np.int64)[:, None])


def _frobenius_inverse(g: Poly, frob: np.ndarray | None = None) -> np.ndarray:
    """Matrix of the inverse of y -> y**p on GF(q)[x]/g, for a monic g of
    degree t >= 1, in the float dtype of its matrix F, which `pth_root_mod`'s
    product uses.

    The residue ring is an m*t-dimensional GF(p)-space and the Frobenius is
    GF(p)-linear: F is `frob`, or `_frobenius_matrix`'s when that is None.
    y -> y**p has order m*t on GF(q**t), and order dividing m*t on
    GF(q)[x]/g for square-free g whose factor degrees all divide t; there
    F**-1 is F**(m*t - 1), taken by `_power_mod`.  It is kept if F times it
    is the identity; otherwise elimination inverts F, as a composite
    square-free g needs.  F is singular exactly when g is not square-free,
    and ParamError is raised.
    """
    p = g.field.p
    if frob is None:
        frob = _frobenius_matrix(g.field, np.array([g.coeffs]))[0]
    inverse = _power_mod(frob, len(frob) - 1, p)
    if not np.array_equal(_fmod(frob @ inverse, p), np.eye(len(frob))):
        inverse = modp.inv_mod_p(frob, p)
        if inverse is None:
            raise ParamError("p-th roots need a square-free modulus")
    return inverse.astype(frob.dtype)


def _shifts_mod(z: Poly, g: Poly, count: int) -> np.ndarray:
    """Coefficient ranks of x**k * z mod g for k < count, one row each,
    low to high and padded to g's degree t >= 1: each row is the last
    shifted by one and reduced by one `_cancel` step."""
    out = np.zeros((count, g.degree), dtype=np.int64)
    row = list((z % g).coeffs)
    out[0, : len(row)] = row
    for k in range(1, count):
        row = [0, *row] if row else row
        _cancel([[row]], [g.coeffs], 0, g.field)
        out[k, : len(row)] = row
    return out


def _pth_roots(rows: np.ndarray, inverse: np.ndarray, field: Field) -> np.ndarray:
    """p-th roots mod g of the residues whose coefficient ranks, padded to
    g's degree t, are the rows of a (k, t) array, as their GF(p) digits in
    a (k, t, m) array: one product with g's `_frobenius_inverse`."""
    v = _digit_split(rows, field).reshape(len(rows), -1).astype(inverse.dtype)
    return _fmod(v @ inverse.T, field.p).astype(np.int64).reshape(len(rows), -1, field.m)


def _eliminate(a: np.ndarray, eqs: int, field: Field) -> np.ndarray:
    """Gauss-Jordan elimination over `field`, in place, of all stacks of
    a[unknown, stack, row] at once; rows below `eqs` are equations, the
    rest passive.  Returns pivots[stack, row], the unknown an equation row
    is the pivot of, or -1.  Pivots are scaled to -1 and cleared from every
    other row, so a[j] at a free unknown j holds the kernel vector that is
    1 at j and 0 at the other free unknowns: its entry at pivots[r] in
    equation row r, and a passive row's value on it in that row.

    Step j reads unknown j as a[j] and updates the contiguous block a[j:]
    whole, gathering stacks only where some hold no pivot at j.  A stack's
    pivot row is its live row with the largest entry at j; which row it is
    changes no kernel vector, as those are unique.  The loop ends once
    every equation row holds a pivot.
    """
    add, mul = _elementwise(field)
    stacks = a.shape[1]
    pivots = np.full((stacks, eqs), -1)
    every = np.arange(stacks)
    for j in range(len(a) if eqs else 0):  # no equation: every unknown free
        live = a[j, :, :eqs] * (pivots < 0)  # rows that hold a pivot masked out
        dst = live.argmax(axis=1)
        lead = live[every, dst].tolist()  # 0 where a stack holds no pivot at unknown j
        if all(lead):
            hit, on, k = every, slice(None), every
        else:  # gather the stacks that hold one
            hit = np.flatnonzero(lead)
            if not len(hit):
                if pivots.min() >= 0:
                    break
                continue
            on, lead, dst, k = hit, [c for c in lead if c], dst[hit], every[: len(hit)]
        # an equation row that holds no pivot yet is zero at every earlier
        # unknown, so adding multiples of it changes unknowns j onwards only
        sub = a[j:, on]
        scale = np.array([field._neg[field._inv[c]] for c in lead], dtype=np.int64)
        pivot = mul(sub[:, k, dst], scale)  # its entry 0, at unknown j, is -1
        sub = add(sub, mul(sub[:1], pivot[..., None]))  # the pivot's own row drops to 0
        sub[:, k, dst] = pivot
        a[j:, on] = sub
        pivots[hit, dst] = j
    return pivots


@lru_cache(maxsize=8)
def _solve_layout(p: int, t: int) -> tuple[np.ndarray, np.ndarray]:
    """The solve's unknowns, a_k[i] for i <= (t-k)//p, k = 1..p-1, i-major:
    `take` indices into `_bounded_system`'s digit rows, [shift, part, k - 1,
    coefficient], equations first, and flat indices into a solved row."""
    i, k = np.nonzero(np.arange((t - 1) // p + 1)[:, None] <= (t - np.arange(1, p)) // p)
    at = (i * 2 * (p - 1) + k)[:, None] * t + np.arange(t // p + 1, t // p + 1 + t) % t
    return np.stack([at, at + (p - 1) * t])[:, :, None], (k + 1) * (t // p + 1) + i


def _bounded_system(mul_x: np.ndarray, a: np.ndarray, b: np.ndarray, phis: Sequence[int], field: Field) -> np.ndarray:
    """`_bounded_rows`' system for the key columns phi*b_k - a_k mod g, each
    phi in phis, from the (p-1, t, m) GF(p) digits of a_k and b_k (read only).
    Unknown (k, i)'s column is phi*(x**i b_k) - x**i a_k mod g: the 2(p-1)
    digit rows shift first, one float product with mul_x (g's `_mul_x_matrix`)
    each, then every guess goes straight into a[unknown, stack, coefficient]."""
    p, m, t = field.p, field.m, a.shape[1]
    shifts, mul_x = [np.concatenate([a, b]).reshape(2 * (p - 1), t * m).astype(mul_x.dtype)], mul_x.T
    for _ in range((t - 1) // p):
        shifts.append(_fmod(shifts[-1] @ mul_x, p))
    a, b = np.stack(shifts).reshape(-1, m).take(_solve_layout(p, t)[0], axis=0)  # [unknown, 1, coefficient, digit]
    return _fmod(np.array(phis, dtype=a.dtype)[:, None, None] * b - a, p).astype(np.int64) @ p ** np.arange(m)


def _bounded_rows(a: np.ndarray, field: Field) -> tuple[np.ndarray, np.ndarray]:
    """(solved, rows) for a `_bounded_system` a, columns c_1..c_{p-1} mod g of
    degree t: solved[stack] is True where the (a_0, ..., a_{p-1}) spanned by
    (g, 0, ..., 0) and the (c_k, 0, .., 1, .., 0) with p*deg(a_j) + j <= t
    for every j form a space of dimension 1, not 2 or more, and rows[r], (p,
    t//p + 1) ranks, spans the r-th such space.  a_0 = sum a_k c_k mod g
    must vanish at x**(t//p + 1) .. x**(t - 1), the equations; there is one
    unknown more, so d = 1 where all hold a pivot after one `_eliminate`, in
    place on a, and a[free] is every such stack's kernel vector at once."""
    p, t = field.p, a.shape[2]
    eqs, width = t - 1 - t // p, t // p + 1
    pivots = _eliminate(a, eqs, field)
    solved = (pivots >= 0).all(axis=1)
    free = len(a) * (len(a) - 1) // 2 - pivots[solved].sum(axis=1)  # the unknowns' sum less the pivots'
    values, x = a[free, solved], np.ones((len(free), len(a)), dtype=np.int64)
    x[np.arange(len(free))[:, None], pivots[solved]] = values[:, :eqs]
    rows = np.zeros((len(free), p * width), dtype=np.int64)
    rows[:, :width], rows[:, _solve_layout(p, t)[1]] = values[:, eqs:], x
    return solved, rows.reshape(-1, p, width)


def pth_root_mod(z: Poly, g: Poly, *, inverse: np.ndarray | None = None) -> Poly:
    """The v with v**p == z (mod g) for a square-free g of degree >= 1;
    ParamError for any other g, or for coefficients of z or g that are not
    ranks in [0, q).  `inverse` is g's `_frobenius_inverse`; the root is
    `_pth_roots` on one row."""
    check_integers(z.coeffs + g.coeffs, 0, g.field.q, "polynomial coefficients")
    if g.degree < 1:
        raise ParamError("modulus must have degree >= 1")
    f = g.field
    if inverse is None:
        inverse = _frobenius_inverse(g.monic())
    digits = _pth_roots(_shifts_mod(z, g, 1), inverse, f)[0]
    return Poly(f, (digits @ f.p ** np.arange(f.m)).tolist())
