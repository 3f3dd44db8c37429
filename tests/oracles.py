"""Test oracles: direct computations the decode path never runs, kept
here so tests can check the package against them."""

from collections import Counter
from typing import Sequence

from pgoppa.alternant import AlternantCode
from pgoppa.decoder import decode
from pgoppa.errors import DegreeBoundError
from pgoppa.experiments import TrialConfig
from pgoppa.goppa import ErrorPattern, GoppaCode, build_code, sample_error
from pgoppa.polyring import Poly, _euclid, inv_mod, poly_gcd, pth_root_mod
from pgoppa.popov import pivot_index
from pgoppa.rng import trial_stream


# -- polynomial matrices as lists of rows: the U * A == A' audits and the
# reference reduction


def identity_matrix(field, n: int) -> list[list[Poly]]:
    one, zero = Poly.one(field), Poly.zero(field)
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def matmul(a: Sequence[Sequence[Poly]], b: Sequence[Sequence[Poly]]) -> list[list[Poly]]:
    """The product a * b of two row lists."""
    zero = Poly.zero(a[0][0].field)
    out = []
    for row in a:
        new = []
        for j in range(len(b[0])):
            acc = zero
            for k, x in enumerate(row):
                if x:
                    acc = acc + x * b[k][j]
            new.append(acc)
        out.append(new)
    return out


def _row_submul(dst: list[Poly], src: Sequence[Poly], c: int, e: int) -> None:
    """dst -= c * x**e * src, entrywise."""
    for j, s in enumerate(src):
        if s:
            dst[j] = dst[j] - s.scale(c).shift(e)


def reference_weak_popov_reduce(a: Sequence[Sequence[Poly]]) -> tuple[list[list[Poly]], list[list[Poly]]]:
    """The reduction on Poly entries, in the same sweep order as
    weak_popov_reduce (source k ascending, target l ascending, repeated
    until no positive pivot index repeats); returns the reduced rows and
    the rows of the U with U * a == reduced, built from the same row
    operations applied to the identity."""
    field = a[0][0].field
    rows = [list(r) for r in a]
    n = len(rows)
    u = identity_matrix(field, n)
    piv = [pivot_index(r) for r in rows]

    def has_repeat():
        seen = set()
        for p in piv:
            if p:
                if p in seen:
                    return True
                seen.add(p)
        return False

    while has_repeat():
        for k in range(n):
            if piv[k] == 0:
                continue
            col = piv[k] - 1
            for ell in range(n):
                if ell == k:
                    continue
                src = rows[k][col]
                while rows[ell][col].degree >= src.degree:
                    c = field.mul(rows[ell][col].lc(), field.inv(src.lc()))
                    e = rows[ell][col].degree - src.degree
                    _row_submul(rows[ell], rows[k], c, e)
                    _row_submul(u[ell], u[k], c, e)
                piv[ell] = pivot_index(rows[ell])
    return rows, u


def min_pivot_row(rows: Sequence[Sequence[Poly]]) -> Sequence[Poly]:
    """A row of minimal pivot degree, ties to the lowest row index.  For a
    matrix in weak Popov form this is a shortest nonzero lattice vector:
    every vector in the row span has degree at least the minimal pivot
    degree."""
    return min((r for r in rows if pivot_index(r)), key=lambda r: r[pivot_index(r) - 1].degree)


def det_fraction_free(rows: Sequence[Sequence[Poly]]) -> Poly:
    """Determinant of a square matrix by Bareiss one-step fraction-free
    elimination; the divisions are exact in GF(q)[x]."""
    n = len(rows)
    field = rows[0][0].field
    m = [list(r) for r in rows]
    sign = 1
    prev = Poly.one(field)
    for k in range(n - 1):
        if m[k][k].is_zero():
            for i in range(k + 1, n):
                if not m[i][k].is_zero():
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return Poly.zero(field)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[k][k] * m[i][j] - m[i][k] * m[k][j]
                q, r = divmod(num, prev)
                assert r.is_zero(), "fraction-free elimination division not exact"
                m[i][j] = q
            m[i][k] = Poly.zero(field)
        prev = m[k][k]
    det = m[n - 1][n - 1]
    if sign < 0:
        det = -det
    return det


# -- schoolbook GF(q)[x] arithmetic: one Field method call per coefficient


def schoolbook_add(a: Poly, b: Poly) -> Poly:
    add = a.field.add
    x, y = a.coeffs, b.coeffs
    if len(x) < len(y):
        x, y = y, x
    out = list(x)
    for i, c in enumerate(y):
        out[i] = add(out[i], c)
    return Poly(a.field, out)


def schoolbook_neg(a: Poly) -> Poly:
    return Poly(a.field, [a.field.neg(c) for c in a.coeffs])


def schoolbook_sub(a: Poly, b: Poly) -> Poly:
    return schoolbook_add(a, schoolbook_neg(b))


def schoolbook_scale(a: Poly, c: int) -> Poly:
    return Poly(a.field, [a.field.mul(c, x) for x in a.coeffs])


def schoolbook_mul(a: Poly, b: Poly) -> Poly:
    f = a.field
    if not a.coeffs or not b.coeffs:
        return Poly(f)
    out = [0] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            out[i + j] = f.add(out[i + j], f.mul(x, y))
    return Poly(f, out)


def schoolbook_divmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    f = a.field
    db = b.degree
    r = list(a.coeffs)
    if len(r) - 1 < db:
        return Poly(f), a
    inv_lb = f.inv(b.lc())
    q = [0] * (len(r) - db)
    for k in range(len(r) - 1 - db, -1, -1):
        c = f.mul(r[k + db], inv_lb)
        q[k] = c
        for i, bi in enumerate(b.coeffs):
            r[k + i] = f.add(r[k + i], f.neg(f.mul(c, bi)))
    return Poly(f, q), Poly(f, r[:db])


def schoolbook_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd by Euclid on the schoolbook remainder."""
    while b.coeffs:
        a, b = b, schoolbook_divmod(a, b)[1]
    return schoolbook_scale(a, a.field.inv(a.lc())) if a.coeffs else a


def evaluate(g: Poly, a: int) -> int:
    """g at a field element a by Horner's rule, one Field call per step."""
    f = g.field
    acc = 0
    for c in reversed(g.coeffs):
        acc = f.add(f.mul(acc, a), c)
    return acc


def pow_mod(a: Poly, e: int, g: Poly) -> Poly:
    """a**e mod g by square and multiply."""
    result = Poly.one(a.field)
    acc = a % g
    while e:
        if e & 1:
            result = (result * acc) % g
        acc = (acc * acc) % g
        e >>= 1
    return result


def rabin_irreducible(g: Poly) -> bool:
    """Rabin's criterion with Poly arithmetic only: monic g of degree t >= 1
    is irreducible iff x**(q**t) == x (mod g) and gcd(x**(q**(t/r)) - x, g)
    is 1 for every prime r dividing t.  The gcd is taken at every i < t, not
    only at t/r: a nontrivial one is a factor of degree dividing i, so a
    reducible g is rejected at its least factor degree, at most t/2."""
    f, t = g.field, g.degree
    x = Poly.x(f)
    h = x % g  # x**(q**i) mod g
    for _ in range(1, t):
        h = pow_mod(h, f.q, g)
        if poly_gcd(h - x, g).degree > 0:
            return False
    return pow_mod(h, f.q, g) == x % g


def poly_pth_power(a: Poly) -> Poly:
    """Exact a**p using (sum c_i x**i)**p = sum c_i**p x**(p*i)."""
    fld = a.field
    p = fld.p
    out = [0] * (p * len(a.coeffs))
    for i, c in enumerate(a.coeffs):
        out[p * i] = fld.pow(c, p)
    return Poly(fld, out)


def assemble_locator_reference(a: Sequence[Poly], t: int) -> Poly:
    """sigma = sum x**j a_j**p as a sum of Poly terms, made monic, with the
    degree bounds deg(a_j) <= (t - j) // p checked in order."""
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
    return sigma.monic()


def random_irreducible_reference(t: int, field, rng) -> Poly:
    """The generator search one candidate at a time: t next_u64 draws per
    candidate, low coefficient first, each decided by rabin_irreducible."""
    while True:
        g = Poly(field, [rng.next_u64() % field.q for _ in range(t)] + [1])
        if rabin_irreducible(g):
            return g


class SplitMix64Reference:
    """splitmix64 keeping only an int state: each draw is one step of the
    state and one masked output mix, the per-draw reference for the
    windowed `SplitMix64`."""

    MASK, GAMMA = (1 << 64) - 1, 0x9E3779B97F4A7C15

    def __init__(self, seed: int):
        self.state = seed & self.MASK

    def next_u64(self) -> int:
        self.state = z = (self.state + self.GAMMA) & self.MASK
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self.MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self.MASK
        return z ^ (z >> 31)

    def next_u64_block(self, n: int) -> list[int]:
        start = self.state
        block = [self.next_u64() for _ in range(n)]
        self.state = start
        return block

    def advance(self, n: int) -> None:
        self.state = (self.state + n * self.GAMMA) & self.MASK

    def randrange(self, n: int) -> int:
        if n <= 0:
            raise ValueError("randrange() argument must be positive")
        return self.next_u64() % n

    def randranges(self, bounds) -> list[int]:
        if any(b <= 0 for b in bounds):
            raise ValueError("randrange() argument must be positive")
        return [self.randrange(b) for b in bounds]


def sample_reference(rng, seq, k: int) -> list:
    """SplitMix64.sample one draw at a time: partial Fisher-Yates with one
    randrange call per position."""
    pool = list(seq)
    for i in range(k):
        j = i + rng.randrange(len(pool) - i)
        pool[i], pool[j] = pool[j], pool[i]
    return pool[:k]


def shuffle_reference(rng, seq: list) -> None:
    """SplitMix64.shuffle one draw at a time, in place."""
    for i in range(len(seq) - 1, 0, -1):
        j = rng.randrange(i + 1)
        seq[i], seq[j] = seq[j], seq[i]


def root_multiplicity(sigma: Poly, point: int) -> int:
    """Multiplicity of point as a root of a nonzero sigma, by repeated
    division by x - point; the per-point reference for the vectorised
    root finder."""
    f = sigma.field
    lin = Poly(f, (f.neg(point), 1))
    count = 0
    h = sigma
    while h.coeffs:
        h, r = schoolbook_divmod(h, lin)
        if r.coeffs:
            break
        count += 1
    return count


def parity_check(code: GoppaCode) -> list[list[int]]:
    """The t x n parity-check matrix over GF(q), entry (i, j) the
    coefficient of x**i in 1/(x - L_j) mod g: code.Hbar with each
    coefficient's m digit rows folded back into one rank."""
    f, t, n = code.field, code.t, code.n
    digits = code.Hbar.reshape(t, f.m, n)
    return sum(digits[:, k] * f.p**k for k in range(f.m)).tolist()


def locator_from_error(code: GoppaCode, e: ErrorPattern, phi: int) -> Poly:
    """Direct product prod (x - L_i)**(e_i/phi), exponents lifted to 0..p-1."""
    f = code.field
    p = f.p
    phi_inv = pow(phi, p - 2, p)
    sigma = Poly.one(f)
    for i, ei in enumerate(e.values):
        if ei:
            exp = (ei * phi_inv) % p
            lin = Poly(f, (f.neg(code.L[i]), 1))
            for _ in range(exp):
                sigma = sigma * lin
    return sigma


def reference_key_lattice(code: GoppaCode, s_inv: Poly, phi: int) -> list[list[Poly]]:
    """The phi-th key lattice one radicand at a time: u_k = x**k -
    phi*k*x**(k-1)*s_inv mod g, then v_k = pth_root_mod(u_k, g) and row k =
    (-v_k, 0, .., 1, .., 0) under (g, 0, ..., 0)."""
    f = code.field
    p = f.p
    g = code.g
    zero, one = Poly.zero(f), Poly.one(f)
    rows = [[g] + [zero] * (p - 1)]
    for k in range(1, p):
        u = (Poly.monomial(f, k) + s_inv.shift(k - 1).scale((-phi * k) % p)) % g
        v = pth_root_mod(u, g)
        rows.append([-v] + [one if j == k else zero for j in range(1, p)])
    return rows


def per_root_key_lattices(code: GoppaCode, s: Poly) -> list[list[list[Poly]]]:
    """The key lattices for phi = 1..p-1 from 2(p-1) `pth_root_mod` calls:
    a_k = root(x**k) and b_k = k*root(x**(k-1)/s), then row k of the phi-th
    basis is (phi*b_k - a_k, 0, .., 1, .., 0) by Poly scale and subtract."""
    f, g = code.field, code.g
    p = f.p
    s_inv = inv_mod(s, g)
    zero, one = Poly.zero(f), Poly.one(f)
    a = [pth_root_mod(Poly.monomial(f, k), g) for k in range(1, p)]
    b = [pth_root_mod(s_inv.shift(k - 1), g).scale(k) for k in range(1, p)]
    units = [[one if j == k else zero for j in range(1, p)] for k in range(1, p)]
    return [
        [[g] + [zero] * (p - 1)] + [[bk.scale(phi) - ak] + e for ak, bk, e in zip(a, b, units)]
        for phi in range(1, p)
    ]


def alternant_locator_from_error(code: AlternantCode, e: Sequence[int], phi: int) -> Poly:
    """prod (1 - x L_i)**(e_i xi_i / phi), exponents lifted to 0..p-1."""
    f = code.field
    p = f.p
    phi_inv = pow(phi, p - 2, p)
    sigma = Poly.one(f)
    for li, xii, ei in zip(code.L, code.xi, e):
        if ei:
            exp = (ei * xii * phi_inv) % p
            lin = Poly(f, (1, f.neg(li)))
            for _ in range(exp):
                sigma = sigma * lin
    return sigma


def ext_gcd(a: Poly, b: Poly) -> tuple[Poly, Poly, Poly]:
    """Monic gcd d plus Bezout coefficients with u*a + v*b = d.

    All three come from `_euclid`, the row elimination `inv_mod` runs, on
    the rows (a, 1, 0) and (b, 0, 1), so Bezout checks on this exercise
    that loop with its cofactors.
    """
    if a.is_zero() and b.is_zero():
        raise ValueError("gcd(0, 0) is undefined")
    f = a.field
    return tuple(Poly(f, e) for e in _euclid([list(a.coeffs), [1], []], [list(b.coeffs), [], [1]], f))


def magnitude_profile(e: ErrorPattern) -> dict[int, int]:
    """Nonzero magnitude -> number of positions carrying it."""
    return dict(Counter(v for v in e.values if v))


def reference_trial(cfg: TrialConfig, index: int) -> bool:
    """Trial `index` of cfg by the recipe: code, error and a random codeword
    from trial_stream(seed, index), then a full decode of codeword + error;
    success when the codeword is among the candidates."""
    rng = trial_stream(cfg.seed, index)
    code = build_code(cfg.p, cfg.m, cfg.t, cfg.n, rng=rng)
    error = sample_error(code.n, cfg.w, cfg.dist, cfg.p, rng)
    codeword = code.random_codeword(rng)
    received = tuple((a + b) % cfg.p for a, b in zip(codeword, error.values))
    return codeword in decode(code, received).codewords()
