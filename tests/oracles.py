"""Test oracles: direct computations the decode path never runs, kept
here so tests can check the package against them."""

from collections import Counter
from typing import Sequence

from pgoppa.alternant import AlternantCode
from pgoppa.decoder import Locator
from pgoppa.goppa import ErrorPattern, GoppaCode
from pgoppa.polyring import Poly, _gcd_cofactor


def locator_from_error(code: GoppaCode, e: ErrorPattern, phi: int) -> Locator:
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
    return Locator(sigma, phi)


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
