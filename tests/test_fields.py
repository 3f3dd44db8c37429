"""Field arithmetic tests, cross-validated against independent brute-force
integer-polynomial arithmetic."""

import random
from itertools import count

import numpy as np
import pytest

from pgoppa.errors import NotPrimeError, ParamError, ReducibleModulusError
from pgoppa.fields import Field, _is_irreducible_modulus, field_from_text, is_prime, make_field


def brute_mul(a, b, p, m, modulus):
    """Independent product: integer-digit convolution reduced by long
    division modulo (modulus, p).  Shares no code with Field."""

    def digits(r):
        out = []
        for _ in range(m):
            r, d = divmod(r, p)
            out.append(d)
        return out

    da, db = digits(a), digits(b)
    conv = [0] * (2 * m - 1) if m > 1 else [0]
    for i, x in enumerate(da):
        for j, y in enumerate(db):
            conv[i + j] += x * y
    conv = [c % p for c in conv]
    # long division by the monic modulus
    for k in range(len(conv) - 1, m - 1, -1):
        c = conv[k]
        if c:
            for i in range(m + 1):
                conv[k - m + i] = (conv[k - m + i] - c * modulus[i]) % p
    return sum(c * p**i for i, c in enumerate(conv[:m]))


def monic_of_rank(k, p, m):
    """Monic degree-m polynomial whose low coefficients are the base-p
    digits of k, coefficients low to high."""
    digits = []
    for _ in range(m):
        k, d = divmod(k, p)
        digits.append(d)
    return digits + [1]


def trial_division_irreducible(f, p):
    """Monic f over GF(p) (low to high) has no monic factor of degree
    1..deg(f)//2, by trial division."""
    m = len(f) - 1
    for d in range(1, m // 2 + 1):
        for k in range(p**d):
            g = monic_of_rank(k, p, d)
            # remainder of f mod g
            r = list(f)
            while len(r) - 1 >= d and any(r):
                while r and r[-1] == 0:
                    r.pop()
                if len(r) - 1 < d:
                    break
                c = r[-1]
                off = len(r) - 1 - d
                for i in range(d + 1):
                    r[off + i] = (r[off + i] - c * g[i]) % p
            while r and r[-1] == 0:
                r.pop()
            if not r:
                return False
    return True


def smallest_irreducible_oracle(p, m):
    """Enumerate monic degree-m candidates by the base-p integer value of
    their low coefficients; return the first with no nontrivial factor."""
    for k in range(p**m):
        f = monic_of_rank(k, p, m)
        if trial_division_irreducible(f, p):
            return tuple(f)
    raise AssertionError


def test_make_field_prime_field():
    f = make_field(2, 1)
    assert f.q == 2
    assert f.add(1, 1) == 0


def test_make_field_default_modulus_is_smallest_irreducible():
    # (521, 2): the prime field has no lookup tables
    for p, m in [(3, 2), (2, 3), (2, 4), (5, 2), (3, 3), (7, 2), (11, 2), (3, 4), (5, 3), (521, 2)]:
        f = make_field(p, m)
        assert f.modulus == smallest_irreducible_oracle(p, m)
    for p in (1031, 65537):
        assert make_field(p, 3).modulus == (4, 1, 0, 1)


def test_default_cubic_modulus_past_the_binomials():
    # p = 2 mod 3: every x^3 + c has a root, so the first irreducible lies
    # past rank p, in one of the later, doubled blocks of the search (whose
    # bounds are 8, 24, 56, ..., 1016, 2040); a cubic is irreducible iff it
    # has no root.  These p put the first hit on both sides of each bound.
    for p in (5, 11, 23, 29, 53, 59, 113, 131, 239, 251, 503, 509, 1013, 1019, 2039, 2063):
        xs = np.arange(p)
        cubics = (monic_of_rank(k, p, 3) for k in count())
        first = next(f for f in cubics if ((f[0] + xs * (f[1] + xs * (f[2] + xs))) % p).all())
        assert make_field(p, 3).modulus == tuple(first), p


@pytest.mark.parametrize("p,degrees", [(2, (2, 3, 4)), (3, (2, 3, 4)), (5, (2, 3))])
def test_modulus_check_matches_trial_division(p, degrees):
    for m in degrees:
        for k in range(p**m):
            f = monic_of_rank(k, p, m)
            assert _is_irreducible_modulus(p, f) == trial_division_irreducible(f, p), f


def test_modulus_check_beyond_exact_float64_range():
    # m*(p-1)**2 >= 2**53: the Frobenius matrix would not be exact
    with pytest.raises(ParamError):
        make_field(67108879, 2)
    assert make_field(67108879, 1).q == 67108879  # degree 1 needs no test


def test_make_field_rejects_composite_characteristic():
    with pytest.raises(NotPrimeError):
        make_field(4, 1)


def test_make_field_rejects_reducible_modulus():
    with pytest.raises(ReducibleModulusError):
        make_field(3, 2, [0, 0, 1])  # y^2
    with pytest.raises(ReducibleModulusError):
        make_field(2, 2, [1, 1])  # wrong degree


def test_is_prime():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_f9_worked_examples():
    f = make_field(3, 2)
    assert f.modulus == (1, 0, 1)  # y^2 + 1
    y = f.from_coeffs((0, 1))
    assert f.mul(y, y) == 2  # y^2 = -1
    assert f.pth_root(y) == f.from_coeffs((0, 2))
    assert f.pow(f.from_coeffs((0, 2)), 3) == y


def test_additive_identity_and_inverse_law():
    rng = random.Random(1)
    for p, m in [(2, 4), (3, 3), (5, 2)]:
        f = make_field(p, m)
        for _ in range(1000):
            a = rng.randrange(f.q)
            assert f.add(a, 0) == a
            if a:
                assert f.mul(a, f.inv(a)) == 1


def test_pth_root_fixed_points_and_roundtrip():
    rng = random.Random(2)
    for p, m in [(2, 4), (3, 3), (5, 2)]:
        f = make_field(p, m)
        assert f.pth_root(0) == 0
        assert f.pth_root(1) == 1
        for _ in range(1000):
            a = rng.randrange(f.q)
            assert f.pth_root(f.pow(a, p)) == a


@pytest.mark.parametrize("p,m", [(2, 2), (2, 4), (2, 6), (3, 2), (3, 3), (3, 4), (5, 2), (7, 2)])
def test_unit_group_order_and_pth_root_exhaustive(p, m):
    # every field here has q <= 81
    f = make_field(p, m)
    assert f.q <= 81
    for a in range(1, f.q):
        assert f.pow(a, f.q - 1) == 1
    for a in range(f.q):
        assert f.pow(f.pth_root(a), p) == a


@pytest.mark.parametrize("p,m", [(2, 2), (3, 2)])
def test_tables_match_brute_force(p, m):
    f = make_field(p, m)
    for a in range(f.q):
        for b in range(f.q):
            assert f.mul(a, b) == brute_mul(a, b, p, m, f.modulus)
            assert f.add(a, b) == brute_mul_add_check(f, a, b, p, m)


def brute_mul_add_check(f, a, b, p, m):
    ca, cb = f.coeffs(a), f.coeffs(b)
    return sum(((x + y) % p) * p**i for i, (x, y) in enumerate(zip(ca, cb)))


def test_generic_path_matches_tables():
    f = make_field(3, 3)  # table-backed, q = 27
    for a in range(f.q):
        for b in range(f.q):
            assert f.mul(a, b) == f._mul_raw(a, b)
            assert f.add(a, b) == f._add_raw(a, b)


def test_large_field_generic_path():
    f = make_field(3, 6)  # q = 729 > table limit
    assert f._mul is None
    rng = random.Random(3)
    for _ in range(200):
        a, b = rng.randrange(f.q), rng.randrange(f.q)
        if a:
            assert f.mul(a, f.inv(a)) == 1
        assert f.pth_root(f.pow(b, 3)) == b
        assert f.mul(a, b) == f.mul(b, a)


def test_coeffs_roundtrip():
    f = make_field(5, 2)
    for a in range(f.q):
        assert f.from_coeffs(f.coeffs(a)) == a


def test_serialization_roundtrip():
    for p, m in [(2, 1), (3, 2), (5, 2)]:
        f = make_field(p, m)
        g = field_from_text(f.to_text())
        assert g is f  # cache returns the identical context
    assert field_from_text("3 2 1 0 1").modulus == (1, 0, 1)
    for bad in ("3 2 1 x 1", "3 2.0 1 0 1", "3 2"):
        with pytest.raises(ParamError):
            field_from_text(bad)


def test_field_cache_identity():
    assert make_field(3, 3) is make_field(3, 3)
    assert make_field(3, 2, [1, 0, 1]) is make_field(3, 2)


# prime fields, then every table-backed extension field the Table-1 grid uses
@pytest.mark.parametrize(
    "p,m", [(7, 1), (509, 1), (2, 4), (2, 5), (3, 3), (3, 4), (5, 2), (5, 3), (7, 2), (11, 2)],
    ids=["7", "509", "2-4", "2-5", "3-3", "3-4", "5-2", "5-3", "7-2", "11-2"],
)
def test_prime_field_tables_match_digit_arithmetic(p, m):
    f = make_field(p, m)
    q = f.q
    assert type(f._add) is list and type(f._mul) is list
    if m == 1:
        rng = random.Random(p)
        pairs = [(a, b) for a in (0, 1, p - 1) for b in (0, 1, p - 1)]
        pairs += [(rng.randrange(p), rng.randrange(p)) for _ in range(500)]
    else:
        pairs = [(a, b) for a in range(q) for b in range(q)]
    for a, b in pairs:
        assert f._add[a * q + b] == f._add_raw(a, b)
        assert f._mul[a * q + b] == f._mul_raw(a, b) == brute_mul(a, b, p, m, f.modulus)
    for a in range(q):
        assert f._add_raw(a, f._neg[a]) == 0
        assert a == 0 or f._mul_raw(a, f._inv[a]) == 1
        assert f.pow(f._proot[a], p) == a
