"""Dense univariate polynomials over GF(q), plus the characteristic-p
decomposition and modular p-th root the decoder is built on.

Coefficients are stored low-to-high with no trailing zeros; the zero
polynomial has degree NEG_INF, a sentinel ordered below every integer
(pivot bookkeeping in the lattice reduction relies on that total order).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from . import modp
from .errors import NoRootError, NotInvertibleError, ParamError
from .fields import Field, ints_from_text

NEG_INF = float("-inf")


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
    def monomial(cls, field: Field, deg: int, c: int = 1) -> "Poly":
        return cls(field, (0,) * deg + (c,))

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
        for i, c in enumerate(self.coeffs):
            if c:
                _row_addmul([out], [other.coeffs], c, i, self.field)
        return Poly(self.field, out)

    def scale(self, c: int) -> "Poly":
        return _plus_scaled(self.field, (), c, self.coeffs)

    def shift(self, e: int) -> "Poly":
        """Multiply by x**e."""
        if not self.coeffs:
            return self
        return Poly(self.field, (0,) * e + self.coeffs)

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        q, r = _divmod(self.coeffs, other.coeffs, self.field)
        return Poly(self.field, q), Poly(self.field, r)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def __call__(self, a: int) -> int:
        """Evaluate at a field element a: the remainder mod x - a."""
        r = _divmod(self.coeffs, (self.field.neg(a), 1), self.field)[1]
        return r[0] if r else 0

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

    def pow_mod(self, e: int, g: "Poly") -> "Poly":
        f = self.field
        result = Poly.one(f)
        acc = self % g
        while e:
            if e & 1:
                result = (result * acc) % g
            acc = (acc * acc) % g
            e >>= 1
        return result

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


def poly_from_text(field: Field, line: str) -> Poly:
    """Inverse of Poly.to_text; ParamError on a rank outside [0, q)."""
    coeffs = ints_from_text(line)
    if any(not 0 <= c < field.q for c in coeffs):
        raise ParamError(f"coefficient ranks must lie in [0, {field.q})")
    return Poly(field, coeffs)


# -- coefficient-list kernels ----------------------------------------------
#
# Every GF(q)[x] operation reduces to these two loops on bare coefficient
# lists (low to high, trimmed).  Table-backed fields run them fused over the
# flat add/mul tables; others make the same updates through Field.add and
# Field.mul.


def _row_addmul(dst: list[list[int]], src: Sequence[Sequence[int]], nc: int, e: int, field: Field) -> None:
    """dst += nc * x**e * src in place, entrywise on trimmed coefficient lists."""
    add, mul, q = field._add, field._mul, field.q
    ncq = nc * q
    for j, s in enumerate(src):
        if not s:
            continue
        d = dst[j]
        short = e + len(s) - len(d)
        if short > 0:
            d.extend([0] * short)
        if mul is not None:
            for i, si in enumerate(s, e):
                d[i] = add[d[i] * q + mul[ncq + si]]
        else:
            for i, si in enumerate(s, e):
                d[i] = field.add(d[i], field.mul(nc, si))
        while d and d[-1] == 0:
            d.pop()


def _divmod(a: Sequence[int], b: Sequence[int], field: Field) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by a nonzero b, as trimmed coefficient lists.

    One fused loop: each elimination step subtracts c * x**k * b from the
    running remainder in place, touching only b's nonzero coefficients.
    """
    db = len(b) - 1
    r = list(a)
    if len(r) <= db:
        return [], r
    add, mul, neg, q = field._add, field._mul, field._neg, field.q
    inv_lb = field.inv(b[-1])
    quo = [0] * (len(r) - db)
    steps = range(len(quo) - 1, -1, -1)
    if mul is not None:
        for k in steps:
            c = mul[r[k + db] * q + inv_lb]
            if c:
                quo[k] = c
                ncq = neg[c] * q
                for i, bi in enumerate(b, k):
                    if bi:
                        r[i] = add[r[i] * q + mul[ncq + bi]]
    else:
        for k in steps:
            c = field.mul(r[k + db], inv_lb)
            if c:
                quo[k] = c
                nc = field.neg(c)
                for i, bi in enumerate(b, k):
                    if bi:
                        r[i] = field.add(r[i], field.mul(nc, bi))
    del r[db:]
    while r and r[-1] == 0:
        r.pop()
    return quo, r


def _plus_scaled(field: Field, a: Sequence[int], c: int, b: Sequence[int]) -> Poly:
    """a + c * b, as a Poly."""
    out = list(a)
    _row_addmul([out], [b], c, 0, field)
    return Poly(field, out)


def _gcd_cofactor(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """Monic gcd d and the u with u*a == d (mod b), from one Euclid loop
    that carries only that Bezout cofactor."""
    if a.is_zero() and b.is_zero():
        raise ValueError("gcd(0, 0) is undefined")
    f = a.field
    r0, r1 = a, b
    s0, s1 = Poly.one(f), Poly.zero(f)
    while not r1.is_zero():
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
    c = f.inv(r0.lc())
    return r0.scale(c), s0.scale(c)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    a._check(b)
    x, y = a.coeffs, b.coeffs
    while y:
        x, y = y, _divmod(x, y, a.field)[1]
    return Poly(a.field, x).monic()


def inv_mod(f: Poly, g: Poly) -> Poly:
    """Inverse of f modulo g; NotInvertibleError when gcd(f, g) != 1."""
    d, u = _gcd_cofactor(f % g, g)
    if d.degree != 0:
        raise NotInvertibleError(f"not invertible, gcd has degree {d.degree}", gcd=d)
    return u % g


def is_square_free(g: Poly) -> bool:
    """True iff g has no repeated factor.  A vanishing derivative means g
    is a p-th power, hence not square-free."""
    d = g.deriv()
    if d.is_zero():
        return False
    return poly_gcd(g, d).degree == 0


@lru_cache(maxsize=32)
def _elementwise(field: Field):
    """(add, mul, dtype): add and mul on arrays of ranks, and the dtype the
    arrays take.  Table-backed fields index q x q copies of their tables;
    others apply their scalar ops elementwise, on Python ints."""
    if field._mul is None:
        return np.frompyfunc(field.add, 2, 1), np.frompyfunc(field.mul, 2, 1), object
    q = field.q
    add = np.array(field._add).reshape(q, q)
    mul = np.array(field._mul).reshape(q, q)
    return (lambda a, b: add[a, b]), (lambda a, b: mul[a, b]), np.int64


def _synthetic_division(gc: Sequence, points, field: Field) -> list[np.ndarray]:
    """Horner's rule for g = sum gc[i] x**i at every point at once.

    Each gc[i] is one coefficient shared by all points, or a row holding a
    coefficient per point (so each point may divide its own polynomial).
    Returns the rows r_{t-1}, ..., r_0, r_{-1}: at each point a, row r_k is
    coefficient k of (g(x) - g(a)) / (x - a), and the last row is g(a).
    """
    add, mul, dtype = _elementwise(field)
    points = np.array(points, dtype=dtype)
    rows = [np.full(points.shape, gc[-1], dtype=dtype)]
    for c in reversed(gc[:-1]):
        rows.append(add(mul(rows[-1], points), c))
    return rows


def _root_multiplicities(sigma: Poly, points: Sequence[int]) -> dict[int, int]:
    """Map point index -> multiplicity of points[i] as a root of sigma.

    sigma is evaluated at every point at once by synthetic division.  At a
    root a the quotient rows are exactly sigma/(x - a), so the points that
    hit are divided again, each by its own quotient, until none hits.  Keys
    come in ascending index order; points that are not roots are absent.
    """
    if sigma.is_zero():
        raise ValueError("the zero polynomial has no root multiplicities")
    index = np.arange(len(points))
    points = np.array(points)
    mults = np.zeros(len(points), dtype=np.int64)
    rows = _synthetic_division(sigma.coeffs, points, sigma.field)
    hit = rows[-1] == 0
    while hit.any():
        index, points = index[hit], points[hit]
        mults[index] += 1
        quotient = [r[hit] for r in reversed(rows[:-1])]
        rows = _synthetic_division(quotient, points, sigma.field)
        hit = rows[-1] == 0
    return {int(j): int(mults[j]) for j in np.flatnonzero(mults)}


def _digit_split(ranks: np.ndarray, field: Field) -> np.ndarray:
    """GF(p) coordinates of an array of element ranks, along a new last axis."""
    return ranks[..., None] // field.p ** np.arange(field.m) % field.p


def _fmod(x: np.ndarray, p: int) -> np.ndarray:
    """x mod p for float64 x holding exact integers; several times cheaper
    than float %."""
    return x - p * np.floor(x / p)


def _power_mod(a: np.ndarray, e: int, p: int) -> np.ndarray:
    """a**e mod p by repeated squaring in float64, exact under the bound
    `_frobenius_matrix` enforces."""
    base, power = a.astype(float), np.eye(len(a))
    while e:
        if e & 1:
            power = _fmod(power @ base, p)
        e >>= 1
        if e:
            base = _fmod(base @ base, p)
    return power


def _frobenius_matrix(field: Field, gc: Sequence[int]) -> np.ndarray:
    """GF(p) matrix of y -> y**p on GF(q)[x]/g, for monic g = sum gc[i] x**i.

    Coordinate j*m + k is digit k of the coefficient of x**j.  With C the
    matrix of multiplication by x (its last block, -y**k * (g - x**t), takes
    m*t field products), block j of the result is (C**p)**j applied to the
    digits of (y**k)**p, k < m.  Every dot product sums m*t terms below
    (p-1)**2, so the float64 products are exact while m*t*(p-1)**2 < 2**53,
    and ParamError is raised beyond; on the experiment grid the sum stays
    below 12,000.
    """
    p, m = field.p, field.m
    t = len(gc) - 1
    dim = m * t
    if dim * (p - 1) ** 2 >= 1 << 53:
        raise ParamError(f"GF({p}) residue space of dimension {dim} exceeds exact float64 range")
    ys = [p**k for k in range(m)]  # the ranks of y**k
    top = np.array([[field.neg(field.mul(y, c)) for c in gc[:t]] for y in ys], dtype=np.int64)
    # blocks[i], column k: digits of y**k x**i mod g
    eye = np.eye(dim)
    blocks = [eye[:, i * m : (i + 1) * m] for i in range(t)]
    blocks.append(_digit_split(top, field).transpose(1, 2, 0).reshape(dim, m).astype(float))
    mul_x = np.hstack(blocks[1:])
    if p > 2 * t * p.bit_length():  # p - 1 thin products would cost more than squaring
        mul_xp = _power_mod(mul_x, p, p)
    else:
        while len(blocks) < t + p:
            blocks.append(mul_x @ blocks[-1] % p)
        mul_xp = np.hstack(blocks[p : p + t])
    first = np.zeros((dim, m))
    first[:m] = _digit_split(np.array([field.pow(y, p) for y in ys]), field).T
    out = [first]
    for _ in range(1, t):
        out.append(mul_xp @ out[-1] % p)
    return np.hstack(out).astype(np.int64)


def is_irreducible(g: Poly) -> bool:
    """Irreducibility over GF(q) by Ben-Or's test.

    g of degree t is reducible iff it has an irreducible factor of degree
    i <= t/2, iff gcd(x**(q**i) - x, g) is non-constant for some such i.
    The powers x**(q**i) mod g come from m steps each of the p-Frobenius
    matrix.  Step i = 1 is decided first, and exactly, by evaluating g at
    every element of a table-backed field: gcd(x**q - x, g) != 1 iff g has
    a root in GF(q), and for t <= 3 that step is the whole test.
    """
    t = g.degree
    if t < 1:
        return False
    if t == 1:
        return True
    f = g.field
    p, m = f.p, f.m
    gm = g.monic()
    gc = gm.coeffs
    screened = f._mul is not None
    if screened:
        if not _synthetic_division(gc, np.arange(f.q), f)[-1].all():
            return False
        if t < 4:
            return True  # a reducible g of degree <= 3 has a root
    frob = _frobenius_matrix(f, gc).astype(float)
    h = np.zeros(m * t)
    h[m] = 1.0  # x
    weights = (p ** np.arange(m)).astype(float)
    for i in range(1, t // 2 + 1):
        for _ in range(m):
            h = frob @ h % p
        if i == 1 and screened:
            continue
        diff = h.copy()
        diff[m] = (diff[m] - 1) % p
        ranks = (diff.reshape(t, m) @ weights).astype(np.int64).tolist()
        if poly_gcd(gm, Poly(f, ranks)).degree != 0:
            return False
    return True


def random_irreducible(t: int, field: Field, rng) -> Poly:
    """Uniform monic irreducible of degree exactly t (rejection sampling)."""
    if t < 1:
        raise ValueError("degree must be >= 1")
    q = field.q
    while True:
        g = Poly(field, [rng.randrange(q) for _ in range(t)] + [1])
        if is_irreducible(g):
            return g


def pth_power_decompose(f: Poly) -> list[Poly]:
    """Split f into (a_0, ..., a_{p-1}) with f = sum x**k * a_k**p.

    In characteristic p the coefficient of x**(p*i + k) in f is the p-th
    power of coefficient i of a_k, so each a_k is read off by taking p-th
    roots of a stride-p slice.
    """
    fld = f.field
    p = fld.p
    root = fld.pth_root
    parts: list[list[int]] = [[] for _ in range(p)]
    for idx, c in enumerate(f.coeffs):
        parts[idx % p].append(root(c))
    return [Poly(fld, cs) for cs in parts]


def poly_pth_power(a: Poly) -> Poly:
    """Exact a**p using (sum c_i x**i)**p = sum c_i**p x**(p*i)."""
    fld = a.field
    p = fld.p
    out = [0] * (p * len(a.coeffs))
    for i, c in enumerate(a.coeffs):
        out[p * i] = fld.pow(c, p)
    return Poly(fld, out)


def _frobenius_inverse(frob: np.ndarray, p: int) -> np.ndarray | None:
    """Inverse of the p-Frobenius matrix F on GF(q)[x]/g, or None if singular.

    y -> y**p has order m*t on GF(q**t), and order dividing m*t on
    GF(q)[x]/g for square-free g whose factor degrees all divide t; there
    F**-1 is F**(m*t - 1), taken by `_power_mod`.  It is kept if F times
    it is the identity; otherwise elimination decides.
    """
    dim = len(frob)
    power = _power_mod(frob, dim - 1, p)
    if np.array_equal(_fmod(frob @ power, p), np.eye(dim)):
        return power.astype(np.int64)
    return modp.inv_mod_p(frob, p)


class _FrobeniusSolver:
    """Inverse of y -> y**p on GF(q)[x]/g, as a GF(p)-linear system.

    The residue ring is an m*t-dimensional GF(p)-space; the Frobenius is
    linear over GF(p), so its matrix is materialized once per modulus.  For
    square-free g the ring is a product of fields and the map is bijective
    (matrix invertible); otherwise roots are found, when they exist, by
    per-call elimination.
    """

    def __init__(self, field: Field, g: Poly):
        self.field = field
        self.g = g
        p, t = field.p, g.degree
        self.t = t
        self.matrix = _frobenius_matrix(field, g.monic().coeffs)
        self.inverse = _frobenius_inverse(self.matrix, p)

    def root(self, z: Poly) -> Poly:
        f = self.field
        p = f.p
        cs = (z % self.g).coeffs
        v = _digit_split(np.array(cs + (0,) * (self.t - len(cs)), dtype=np.int64), f).ravel()
        if self.inverse is not None:
            sol = (self.inverse @ v) % p
        else:
            sol = modp.solve_mod_p(self.matrix, v, p)
            if sol is None:
                raise NoRootError("no p-th root modulo a non-square-free modulus")
        return Poly(f, (sol.reshape(self.t, f.m) @ p ** np.arange(f.m)).tolist())


@lru_cache(maxsize=128)
def _frobenius_solver(field: Field, g_coeffs: tuple[int, ...]) -> _FrobeniusSolver:
    return _FrobeniusSolver(field, Poly(field, g_coeffs))


def pth_root_mod(z: Poly, g: Poly) -> Poly:
    """The v with v**p == z (mod g), unique when g is square-free."""
    if g.degree < 1:
        raise ValueError("modulus must have degree >= 1")
    solver = _frobenius_solver(g.field, g.coeffs)
    return solver.root(z)
