"""Test oracles: direct computations the decode path never runs, kept
here so tests can check the package against them."""

from collections import Counter
from typing import Sequence

from pgoppa.alternant import AlternantCode
from pgoppa.decoder import decode
from pgoppa.experiments import TrialConfig
from pgoppa.goppa import ErrorPattern, GoppaCode, build_code, sample_error
from pgoppa.polyring import Poly, _gcd_cofactor, poly_gcd, pth_root_mod
from pgoppa.popov import PolyMatrix
from pgoppa.rng import trial_stream


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
            r[k + i] = f.sub(r[k + i], f.mul(c, bi))
    return Poly(f, q), Poly(f, r[:db])


def schoolbook_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd by Euclid on the schoolbook remainder."""
    while b.coeffs:
        a, b = b, schoolbook_divmod(a, b)[1]
    return schoolbook_scale(a, a.field.inv(a.lc())) if a.coeffs else a


def rabin_irreducible(g: Poly) -> bool:
    """Rabin's criterion with Poly arithmetic only: monic g of degree t >= 1
    is irreducible iff x**(q**t) == x (mod g) and gcd(x**(q**(t/r)) - x, g)
    is 1 for every prime r dividing t."""
    f, t = g.field, g.degree
    x = Poly.x(f)
    powers = [x % g]  # x**(q**i) mod g, i = 0..t
    for _ in range(t):
        powers.append(powers[-1].pow_mod(f.q, g))
    primes = [r for r in range(2, t + 1) if t % r == 0 and all(r % d for d in range(2, r))]
    return powers[t] == x % g and all(poly_gcd(powers[t // r] - x, g).degree == 0 for r in primes)


def random_irreducible_reference(t: int, field, rng) -> Poly:
    """The generator search one candidate at a time: t next_u64 draws per
    candidate, low coefficient first, each decided by rabin_irreducible."""
    while True:
        g = Poly(field, [rng.next_u64() % field.q for _ in range(t)] + [1])
        if rabin_irreducible(g):
            return g


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


def reference_key_lattice(code: GoppaCode, s_inv: Poly, phi: int) -> PolyMatrix:
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
    return PolyMatrix(f, rows)


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

    d and u come from `_gcd_cofactor`, the Euclid loop `inv_mod` runs, so
    Bezout checks on this exercise that loop; v is derived from them.
    """
    d, u = _gcd_cofactor(a, b)
    v = Poly.zero(a.field) if b.is_zero() else (d - u * a) // b
    return d, u, v


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
