"""Field arithmetic tests, cross-validated against independent brute-force
integer-polynomial arithmetic."""

import pickle
import random
from itertools import count

import numpy as np
import pytest

from pgoppa.errors import ParamError
from pgoppa.fields import Field, _default_modulus, ints_from_text, is_prime, make_field
from pgoppa.polyring import Poly, _elementwise, _neg_inverse, is_irreducible


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


# the smallest monic irreducible of each (p, m) by candidate rank; over
# p > 512 no root screen runs
DEFAULT_MODULI = {
    (521, 3): (7, 1, 0, 1),
    (1031, 2): (1, 0, 1),
    (523, 4): (1, 1, 0, 0, 1),
    (2, 16): (1, 1, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (3, 9): (1, 0, 1, 2, 0, 0, 0, 0, 0, 1),
}


@pytest.mark.parametrize("p, m", DEFAULT_MODULI)
def test_default_modulus_is_pinned(p, m):
    assert _default_modulus(p, m) == DEFAULT_MODULI[p, m]


@pytest.mark.parametrize("p,degrees", [(2, (2, 3, 4)), (3, (2, 3, 4)), (5, (2, 3))])
def test_modulus_check_matches_trial_division(p, degrees):
    for m in degrees:
        for k in range(p**m):
            f = monic_of_rank(k, p, m)
            assert is_irreducible(Poly(make_field(p, 1), f)) == trial_division_irreducible(f, p), f


def test_modulus_check_beyond_exact_float64_range():
    # m*(p-1)**2 >= 2**53: the Frobenius matrix would not be exact
    with pytest.raises(ParamError):
        make_field(67108879, 2)
    assert make_field(67108879, 1).q == 67108879  # degree 1 needs no test


def test_make_field_rejects_composite_characteristic():
    with pytest.raises(ParamError, match="prime"):
        make_field(4, 1)
    for p in (5.0, "5", True):  # types too, before the field cache is consulted
        with pytest.raises(ParamError, match="characteristic"):
            make_field(p, 2)


def test_make_field_rejects_a_field_whose_ranks_overflow_int64():
    # q = 3**40 and 2**64 exceed 2**63; 2**64 is rejected before 2**m is taken
    for p, m in ((3, 40), (2, 64), (2, 10**18)):
        with pytest.raises(ParamError, match=r"exceeds 2\*\*63"):
            make_field(p, m)
    f = make_field(2, 63)  # q = 2**63: the largest rank is 2**63 - 1
    assert f.q == 1 << 63 and is_irreducible(Poly(make_field(2, 1), f.modulus))


@pytest.mark.parametrize("p, m", [(3, 4), (3, 6), (509, 1), (2**31 - 1, 1)], ids=["3-4", "3-6", "509", "2^31-1"])
def test_array_ops_return_int64_ranks_equal_to_the_lookups(p, m):
    # tabled (3**4, 509) and computed (3**6, 2**31 - 1) fields alike
    f = make_field(p, m)
    rng = random.Random(p * m)
    a, b = (np.array([rng.randrange(f.q) for _ in range(12)]).reshape(3, 4) for _ in range(2))
    add, mul = _elementwise(f)
    for op, lookup in ((add, f.add), (mul, f.mul)):
        for other in (b, b[0], int(b[0, 0])):  # an array, a broadcast row, one shared rank
            out, pairs = op(a, other), zip(*(v.ravel().tolist() for v in np.broadcast_arrays(a, other)))
            assert out.dtype == np.int64 and out.ravel().tolist() == [lookup(x, y) for x, y in pairs]


def test_make_field_rejects_a_degree_below_one():
    for m in (0, 2.0, "2", True):
        with pytest.raises(ParamError, match="degree"):
            make_field(3, m)


def test_make_field_rejects_reducible_modulus():
    with pytest.raises(ParamError, match="reducible"):
        make_field(3, 2, [0, 0, 1])  # y^2
    with pytest.raises(ParamError, match="monic of degree"):
        make_field(2, 2, [1, 1])  # wrong degree


def test_make_field_rejects_modulus_entries_that_are_not_integers():
    # checked before the cache is read: 1.0 % 3 and True % 3 would hit the
    # cached GF(9) of modulus y^2 + 1
    assert make_field(3, 2, [4, 0, -2]) is make_field(3, 2, [1, 0, 1])  # integers reduce mod p
    for bad in (1.0, "1", True):
        with pytest.raises(ParamError, match="modulus coefficients must be integers"):
            make_field(3, 2, [bad, 0, 1])


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
    assert not isinstance(f._mul, list)  # no tables: lookups are computed
    rng = random.Random(3)
    for _ in range(200):
        a, b = rng.randrange(f.q), rng.randrange(f.q)
        if a:
            assert f.mul(a, f.inv(a)) == 1
        assert f.pth_root(f.pow(b, 3)) == b
        assert f.mul(a, b) == f.mul(b, a)


def test_fields_pickle_with_or_without_tables():
    # a code or polynomial sent to another process carries its field
    for f in (make_field(3, 3), make_field(3, 6)):
        twin = pickle.loads(pickle.dumps(f))
        assert twin == f and type(twin._mul) is type(f._mul)
        assert [twin.mul(a, 19) for a in range(f.q)] == [f.mul(a, 19) for a in range(f.q)]
        assert [twin.pth_root(a) for a in range(f.q)] == [f.pth_root(a) for a in range(f.q)]
        # the p-th power lookup is a**p and inverts pth_root
        assert all(twin._ppow[a] == f.pow(a, f.p) and twin._ppow[f.pth_root(a)] == a for a in range(f.q))


def test_coeffs_roundtrip():
    f = make_field(5, 2)
    for a in range(f.q):
        assert f.from_coeffs(f.coeffs(a)) == a


def test_serialization_roundtrip():
    # a code record's modulus line rebuilds the identical (cached) context
    for p, m in [(2, 1), (3, 2), (5, 2)]:
        f = make_field(p, m)
        assert make_field(p, m, ints_from_text(" ".join(map(str, f.modulus)))) is f
    for bad in ("1 x 1", "1 0.0 1"):
        with pytest.raises(ParamError):
            ints_from_text(bad)


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
    assert [len(row) for row in f._add] == [len(row) for row in f._mul] == [q] * q
    if m == 1:
        rng = random.Random(p)
        pairs = [(a, b) for a in (0, 1, p - 1) for b in (0, 1, p - 1)]
        pairs += [(rng.randrange(p), rng.randrange(p)) for _ in range(500)]
    else:
        pairs = [(a, b) for a in range(q) for b in range(q)]
    for a, b in pairs:
        assert f._add[a][b] == f._add_raw(a, b)
        assert f._mul[a][b] == f._mul_raw(a, b) == brute_mul(a, b, p, m, f.modulus)
    for a in range(q):
        assert f._add_raw(a, f._neg[a]) == 0
        assert a == 0 or f._mul_raw(a, f._inv[a]) == 1
        assert f.pow(f._proot[a], p) == a


@pytest.mark.parametrize("p, m", [(7, 1), (3, 4), (7, 3), (2, 9)])
def test_negated_inverse_of_every_rank_on_tabled_fields(p, m):
    f = make_field(p, m)
    ranks = np.arange(1, f.q, dtype=np.int64)
    expected = [f.neg(f.inv(a)) for a in range(1, f.q)]
    out = _neg_inverse(ranks, f)
    assert out.dtype == np.int64 and out.tolist() == expected
    # any shape: a 2-D array comes back in its shape
    square = ranks[: (f.q - 1) // 2 * 2].reshape(2, -1)
    assert _neg_inverse(square, f).tolist() == [expected[: square.shape[1]], expected[square.shape[1] : 2 * square.shape[1]]]


@pytest.mark.parametrize("p, m", [(3, 6), (5, 4), (2**31 - 1, 1), (7, 3)])
def test_negated_inverse_of_drawn_ranks_in_any_shape(p, m):
    # the computed GF(3**6), GF(5**4) and GF(2**31 - 1), and a tabled field
    f = make_field(p, m)
    rng = random.Random(p * m)
    ranks = np.array([rng.randrange(1, f.q) for _ in range(24)], dtype=np.int64)
    expected = [f.neg(f.inv(int(a))) for a in ranks]
    for shape in ((24,), (4, 6), (0,), (3, 0)):
        drawn = ranks[: np.prod(shape, dtype=int)].reshape(shape)
        out = _neg_inverse(drawn, f)
        assert out.dtype == np.int64 and out.shape == shape
        assert out.ravel().tolist() == expected[: drawn.size]
