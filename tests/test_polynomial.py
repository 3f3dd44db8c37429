"""Polynomial ring tests: ring laws, gcd machinery, characteristic-p
decomposition, and the modular inverse Frobenius."""

import hashlib
import itertools
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pgoppa import modp, polyring
from pgoppa.errors import NotInvertibleError, ParamError
from pgoppa.fields import is_prime, make_field
from pgoppa.polyring import (
    NEG_INF,
    Poly,
    _digit_split,
    _evaluation_matrix,
    _exact_products,
    _first_irreducible,
    _fmod,
    _frobenius_inverse,
    _frobenius_matrix,
    _mul_x_matrix,
    _rabin_screen,
    _root_free,
    _root_multiplicities,
    _square_free,
    inv_mod,
    is_irreducible,
    poly_gcd,
    pth_power_decompose,
    pth_root_mod,
    random_irreducible,
)
from pgoppa.rng import SplitMix64

from oracles import (
    evaluate,
    ext_gcd,
    frobenius_matrix_reference,
    poly_pth_power,
    pow_mod,
    power_mod_reference,
    rabin_irreducible,
    root_multiplicity,
    random_irreducible_reference,
    schoolbook_add,
    schoolbook_divmod,
    schoolbook_gcd,
    schoolbook_mul,
    schoolbook_neg,
    schoolbook_scale,
    schoolbook_sub,
    shift,
)
from test_popov import PROPERTY_FIELDS, polys

F3 = make_field(3, 1)


def rand_poly(field, deg_max, rng):
    return Poly(field, [rng.randrange(field.q) for _ in range(deg_max + 1)])


def test_degree_sentinel():
    assert Poly.zero(F3).degree == NEG_INF
    assert Poly.zero(F3).degree < -(10**9)
    assert Poly.one(F3).degree == 0


def test_divmod_random():
    rng = random.Random(5)
    f = make_field(3, 2)
    for _ in range(1000):
        a = rand_poly(f, rng.randrange(12), rng)
        b = rand_poly(f, rng.randrange(8), rng)
        if b.is_zero():
            continue
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.degree < b.degree


def mod_mul(a, b, g):
    """Product mod g with both factors reduced first."""
    return ((a % g) * (b % g)) % g


def test_mod_mul_matches_direct():
    rng = random.Random(6)
    f = make_field(5, 1)
    g = Poly(f, [2, 0, 1, 1])
    for _ in range(200):
        a = rand_poly(f, 6, rng)
        b = rand_poly(f, 6, rng)
        assert mod_mul(a, b, g) == (a * b) % g


def test_derivative_kills_pth_powers():
    for p in (2, 3, 5):
        f = make_field(p, 1)
        xp = Poly.monomial(f, p)
        assert xp.deriv().is_zero()


def test_derivative_worked_example():
    # over GF(3): (x^4 + 2x^2 + x + 1)' = x^3 + x + 1
    f = Poly(F3, [1, 1, 2, 0, 1])
    assert f.deriv() == Poly(F3, [1, 1, 0, 1])


def test_eval_matches_power_sum():
    # the evaluation matrix's product, and the oracle's Horner, at every point
    rng = random.Random(7)
    f = make_field(3, 2)
    evaluate_all = _evaluation_matrix(f, 6, f.elements())
    for _ in range(100):
        a = rand_poly(f, 6, rng)
        direct = []
        for x in f.elements():
            value = 0
            for i, c in enumerate(a.coeffs):
                value = f.add(value, f.mul(c, f.pow(x, i)))
            direct.append(value)
        digits = _digit_split(np.array(a.coeffs + (0,) * (7 - len(a.coeffs))), f).reshape(-1)
        values = _fmod(digits.astype(evaluate_all.dtype) @ evaluate_all, 3).reshape(f.q, f.m) @ [1, 3]
        assert values.tolist() == direct
        assert [evaluate(a, x) for x in f.elements()] == direct


def test_ext_gcd_base_case():
    f = make_field(3, 2)
    a = Poly(f, [2, 5, 7])
    d, u, v = ext_gcd(a, Poly.zero(f))
    assert d == a.monic()
    assert u == Poly(f, [f.inv(a.lc())])
    assert v.is_zero()


def test_ext_gcd_worked_example():
    a = Poly(F3, [2, 0, 1])  # x^2 - 1
    b = Poly(F3, [2, 1])  # x - 1
    d, u, v = ext_gcd(a, b)
    assert d == Poly(F3, [2, 1])  # monic gcd = x - 1
    assert u * a + v * b == d


def test_ext_gcd_bezout_random():
    rng = random.Random(8)
    f = make_field(2, 4)
    for _ in range(300):
        a = rand_poly(f, rng.randrange(8), rng)
        b = rand_poly(f, rng.randrange(8), rng)
        if a.is_zero() and b.is_zero():
            continue
        d, u, v = ext_gcd(a, b)
        assert u * a + v * b == d
        assert d.lc() == 1
        assert (a % d).is_zero() and (b % d).is_zero()


def test_inv_mod_examples():
    g = Poly(F3, [1, 0, 1])  # x^2 + 1
    assert inv_mod(Poly.one(F3), g) == Poly.one(F3)
    inv_x = inv_mod(Poly.x(F3), g)
    assert inv_x == Poly(F3, [0, 2])
    assert (Poly.x(F3) * inv_x) % g == Poly.one(F3)
    with pytest.raises(NotInvertibleError, match=r"^not invertible, gcd has degree 1$"):
        inv_mod(Poly.x(F3), Poly(F3, [0, 0, 1]))  # gcd x
    with pytest.raises(NotInvertibleError, match=r"^not invertible, gcd has degree 2$"):
        inv_mod(Poly(F3, [1, 0, 1]) * Poly(F3, [2, 1]), g * Poly(F3, [1, 1]))  # gcd g


def test_inv_mod_reduces_only_an_f_not_below_g():
    # an f of lower degree than g skips the remainder; one of higher or equal
    # degree is reduced first, and its inverse is that of f mod g
    f9 = make_field(3, 2)
    g = Poly(f9, [2, 0, 1, 1])  # x^3 + x^2 + 2, irreducible over GF(3)
    for f in (Poly(f9, [5]), Poly(f9, [1, 7, 3]), g + Poly(f9, [0, 4]), g * Poly(f9, [3, 2, 1]) + Poly(f9, [8])):
        u = inv_mod(f, g)
        assert u.degree < g.degree and (u * f) % g == Poly.one(f9)
        assert u == inv_mod(f % g, g)
    with pytest.raises(NotInvertibleError, match="gcd has degree 3"):
        inv_mod(Poly.zero(f9), g)  # gcd(0, g) = g
    with pytest.raises(NotInvertibleError, match="gcd has degree 3"):
        inv_mod(g * Poly(f9, [1, 1]), g)  # f = 0 mod g
    with pytest.raises(ValueError, match="different fields"):
        inv_mod(Poly(F3, [1]), g)  # deg f < deg g: the fields are still checked
    with pytest.raises(ValueError, match="different fields"):
        inv_mod(Poly(F3, [1, 1, 1, 1, 1]), g)
    for f in (Poly(f9, [1, 1]), Poly.zero(f9)):
        with pytest.raises(ZeroDivisionError):
            inv_mod(f, Poly.zero(f9))


def test_is_square_free():
    assert _square_free(Poly(F3, [1, 0, 1]))  # irreducible quadratic
    assert not _square_free(Poly(F3, [0, 0, 1]))  # x^2
    for c in range(3):
        # x^3 + c has zero derivative: a cube, never square-free
        assert not _square_free(Poly(F3, [c, 0, 0, 1]))


def test_random_irreducible_linear_always():
    f = make_field(5, 1)
    rng = SplitMix64(9)
    for _ in range(20):
        g = random_irreducible(1, f, rng)
        assert g.degree == 1 and g.lc() == 1
    for t in (0, 1.0, "1"):
        with pytest.raises(ParamError, match="degree"):
            random_irreducible(t, f, rng)


def test_random_irreducible_no_roots_small_degree():
    f = make_field(3, 2)
    rng = SplitMix64(10)
    for t in (2, 3):
        for _ in range(25):
            g = random_irreducible(t, f, rng)
            assert all(evaluate(g, a) != 0 for a in f.elements())


def test_random_irreducible_square_free():
    f = make_field(3, 3)
    rng = SplitMix64(11)
    for _ in range(30):
        assert _square_free(random_irreducible(8, f, rng))


def test_irreducible_scan_equals_full_criterion():
    # the block screen and its gcds against Rabin's criterion in Poly arithmetic
    rng = SplitMix64(12)
    for p, m, t in [(2, 2, 6), (3, 2, 5), (5, 1, 6)]:
        f = make_field(p, m)
        for _ in range(150):
            g = Poly(f, [rng.randrange(f.q) for _ in range(t)] + [1])
            assert is_irreducible(g) == rabin_irreducible(g)


def monic_polys(field, degree):
    for k in range(field.q**degree):
        cs = []
        for _ in range(degree):
            k, c = divmod(k, field.q)
            cs.append(c)
        yield Poly(field, cs + [1])


def irreducible_by_trial_division(g):
    f = g.field
    return g.degree >= 1 and not any(
        (g % d).is_zero() for k in range(1, g.degree // 2 + 1) for d in monic_polys(f, k)
    )


def test_irreducible_matches_trial_division():
    # every monic polynomial of degree <= 3 over table-backed fields, where
    # the root screen decides, and of degree 4 over GF(4) and GF(5), where
    # the Frobenius steps do; then a sample over GF(3^6), which has no tables
    for p, m, degrees in [(2, 2, (1, 2, 3, 4)), (3, 2, (1, 2, 3)), (5, 1, (1, 2, 3, 4))]:
        f = make_field(p, m)
        for t in degrees:
            for g in monic_polys(f, t):
                assert is_irreducible(g) == irreducible_by_trial_division(g), g
    f = make_field(3, 6)
    assert not isinstance(f._mul, list)  # no tables: lookups are computed
    rng = SplitMix64(18)
    verdicts = set()
    for t in (2, 3):
        for _ in range(6):
            g = Poly(f, [rng.randrange(f.q) for _ in range(t)] + [1])
            verdict = is_irreducible(g)
            assert verdict == irreducible_by_trial_division(g), g
            verdicts.add((t, verdict))
    assert (3, True) in verdicts and (3, False) in verdicts


@pytest.mark.parametrize(
    "rows",
    [
        # x^4 + 1 = (x^2 + 2)(x^2 + 3); (x^2 + 2)^2; x (x^3 + 1); x^4 + 2
        [[1, 0, 0, 0, 1], [4, 0, 4, 0, 1], [0, 1, 0, 0, 1], [2, 0, 0, 0, 1]],
        # x^8 + 1 = (x^4 + 2)(x^4 + 3): the gcd at t/2 = 4 rejects it, not the one at 2; x^8 + 2
        [[1] + [0] * 7 + [1], [2] + [0] * 7 + [1]],
    ],
    ids=["t4", "t8"],
)
def test_block_verdicts_on_crafted_rows(monkeypatch, rows):
    # row 0 is square-free with factor degrees dividing t, so it passes
    # x**(q**t) == x and only a gcd can reject it; the last row is irreducible
    f = make_field(5, 1)
    t = len(rows[0]) - 1
    x = Poly.x(f)
    assert pow_mod(x, 5**t, Poly(f, rows[0])) == x
    gcd_calls = []
    monkeypatch.setattr(polyring, "poly_gcd", lambda a, b: gcd_calls.append(a) or poly_gcd(a, b))
    assert _rabin_screen(f, np.array(rows), _root_free(f, np.array(rows))[0])[0] == [0, len(rows) - 1]
    assert _first_irreducible(f, np.array(rows))[0] == len(rows) - 1
    assert [g.coeffs for g in gcd_calls] == [tuple(rows[0]), tuple(rows[-1])]
    for k, row in enumerate(rows):
        g = Poly(f, row)
        assert is_irreducible(g) == irreducible_by_trial_division(g) == rabin_irreducible(g) == (k == len(rows) - 1)


@pytest.mark.parametrize("roots", [(1, 2), (1, 2, 3), (1, 2, 3, 4, 5)], ids=["t2", "t3", "t5"])
def test_rabin_screen_rejects_unscreened_split_rows(monkeypatch, roots):
    # a product of distinct linear factors passes x**(q**t) == x; with no
    # root screen before it, the stage's level t/t = 1, gcd(x**q - x, g),
    # is what rejects it
    f = make_field(7, 1)
    g = Poly.one(f)
    for a in roots:
        g = g * Poly(f, (f.neg(a), 1))
    passed, gaps, frob = _rabin_screen(f, np.array([g.coeffs]), np.arange(1))
    assert passed == [0] and len(gaps) == 1 and frob.shape == (1, g.degree, g.degree)
    assert not is_irreducible(g, [v[0].tolist() for v in gaps])
    # nor does the block search accept it when the root screen keeps every row
    monkeypatch.setattr(polyring, "_root_free", lambda field, gc: (np.arange(len(gc)), False))
    assert _first_irreducible(f, np.array([g.coeffs])) == (None, None)


def test_gap_ranks_past_two_to_the_53_stay_exact():
    # GF(3**34) ranks reach 3**34 > 2**53, where a float64 fold of the gap
    # digits rounds: linear x quadratic x cubic passes x**(q**6) == x, and
    # only exact gaps at the levels 3 and 2 reject it
    f = make_field(3, 34)
    rng = SplitMix64(34)
    quadratic, cubic = random_irreducible(2, f, rng), random_irreducible(3, f, rng)
    assert rabin_irreducible(quadratic) and rabin_irreducible(cubic)
    g = Poly(f, (rng.randrange(f.q), 1)) * quadratic * cubic
    passed, gaps, _ = _rabin_screen(f, np.array([g.coeffs]), np.arange(1))
    assert passed == [0] and not is_irreducible(g, [v[0].tolist() for v in gaps])
    assert not is_irreducible(g)


# the untabled GF(3^6) runs the block test without the root screen
BLOCK_FIELDS = [(2, 3), (3, 2), (7, 1), (3, 4), (3, 6)]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(BLOCK_FIELDS), st.integers(1, 8), st.integers(0, 2**64 - 1))
def test_block_search_matches_one_at_a_time_reference(field, t, seed):
    f = make_field(*field)
    block, single = SplitMix64(seed), SplitMix64(seed)
    assert random_irreducible(t, f, block) == random_irreducible_reference(t, f, single)
    assert block.state == single.state


def has_no_root(g):
    return all(evaluate(g, a) for a in g.field.elements())


ROOT_SCREEN_FIELDS = [(2, 3), (7, 1), (3, 2), (3, 4)]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(ROOT_SCREEN_FIELDS), st.integers(1, 8), st.integers(0, 2**64 - 1))
def test_root_screen_keeps_exactly_the_rootless_rows(field, t, seed):
    f = make_field(*field)
    gc = np.ones((8, t + 1), dtype=np.int64)
    gc[:, :t] = (SplitMix64(seed).next_u64_block(8 * t) % np.uint64(f.q)).reshape(8, t)
    rootless = [k for k in range(8) if has_no_root(Poly(f, gc[k].tolist()))]
    live, screened = _root_free(f, gc)
    assert screened == (t > 1)
    assert live.tolist() == (rootless if screened else list(range(8)))  # a linear g always has a root
    passed = _rabin_screen(f, gc, live)[0]
    if t == 1:  # every linear g is irreducible, and no row is screened
        assert passed == list(range(8))
    elif t < 4:  # the root screen is the whole verdict
        assert passed == rootless
    else:
        assert set(passed) <= set(rootless)


HASSE_FIELDS = [(2, 4), (3, 2), (7, 2), (3, 6)]  # GF(3**6) has no lookup tables


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(HASSE_FIELDS), st.integers(0, 8), st.integers(0, 2**64 - 1))
def test_root_multiplicities_equal_scan_from_multiplicity_p_on(field, extra, seed):
    # roots of multiplicity p, p + 1 and 2p planted on a random cofactor:
    # there sigma's ordinary derivatives all vanish (those of order p and
    # above vanish everywhere), so only the Hasse derivatives tell them apart
    f = make_field(*field)
    p = f.p
    rng = SplitMix64(seed)
    points = rng.sample(range(f.q), min(f.q, 20))
    sigma = Poly(f, [rng.randrange(f.q) for _ in range(rng.randrange(4))] + [1])
    for a, mu in zip(points, (p, p + 1, 2 * p)):
        for _ in range(mu):
            sigma = sigma * Poly(f, (f.neg(a), 1))
    derivatives = [sigma]
    while derivatives[-1]:
        derivatives.append(derivatives[-1].deriv())
    assert all(evaluate(d, a) == 0 for d in derivatives[1:] for a in points[:3])
    want = {j: mu for j, a in enumerate(points) if (mu := root_multiplicity(sigma, a))}
    assert all(want[j] >= mu for j, mu in enumerate((p, p + 1, 2 * p)))
    mults = _root_multiplicities(f, [sigma.coeffs], points, sigma.degree + extra)[0].tolist()
    assert {j: mu for j, mu in enumerate(mults) if mu} == want


STACK_FIELDS = [(2, 3), (3, 2), (7, 2), (5, 4)]  # GF(5**4) has no lookup tables


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(STACK_FIELDS), st.integers(1, 9), st.integers(0, 2**64 - 1))
def test_batched_root_multiplicities_equal_one_row_calls_and_division(field, t, seed):
    # a stack of mixed degrees padded to t + 1: constant rows, rows with no
    # root in GF(q), random rows, and (x - a)**k, k up to t, times a
    # cofactor; each row equals its one-row call, whose matrix is built for
    # its own degree, and repeated division at every point
    f = make_field(*field)
    rng = SplitMix64(seed)
    points = rng.sample(range(f.q), min(f.q, 12))
    sigmas = []
    for _ in range(1 + rng.randrange(6)):
        kind = rng.randrange(4)
        if kind == 0 or (kind == 1 and t < 2):
            sigma = Poly(f, (1 + rng.randrange(f.q - 1),))
        elif kind == 1:
            sigma = random_irreducible(2 + rng.randrange(t - 1), f, rng)
        elif kind == 2:
            sigma = Poly(f, [rng.randrange(f.q) for _ in range(rng.randrange(t + 1))] + [1 + rng.randrange(f.q - 1)])
        else:
            k = 1 + rng.randrange(t)
            sigma = Poly(f, [rng.randrange(f.q) for _ in range(rng.randrange(t - k + 1))] + [1])
            a = points[rng.randrange(len(points))]
            for _ in range(k):
                sigma = sigma * Poly(f, (f.neg(a), 1))
        sigmas.append(sigma)
    stack = np.zeros((len(sigmas), t + 1), dtype=np.int64)
    for row, sigma in zip(stack, sigmas):
        row[: len(sigma.coeffs)] = sigma.coeffs
    got = _root_multiplicities(f, stack, points, t)
    assert got.shape == (len(sigmas), len(points)) and got.dtype == np.int64
    for row, sigma in zip(got.tolist(), sigmas):
        assert row == _root_multiplicities(f, [sigma.coeffs], points)[0].tolist()
        assert row == [root_multiplicity(sigma, a) for a in points]


def test_root_multiplicities_reject_a_zero_row_and_a_rank_past_q():
    f = make_field(3, 2)
    assert _root_multiplicities(f, np.zeros((0, 3), dtype=np.int64), range(9), 2).shape == (0, 9)
    for stack, message in [([[1, 1], [0, 0]], "zero polynomial"), ([[1, 9]], r"ranks in \[0, 9\)"), ([[-1, 1]], "ranks")]:
        with pytest.raises(ParamError, match=message):
            _root_multiplicities(f, stack, range(9), 2)


@pytest.mark.parametrize("t, dtype", [(64, np.float32), (65, np.float64)])
def test_root_screen_at_the_float32_bound(t, dtype):
    # 65 * 508**2 < 2**24 <= 66 * 508**2: t = 65 is the first degree over
    # GF(509) whose evaluation sums float32 cannot hold exactly
    f = make_field(509, 1)
    assert _evaluation_matrix(f, t, f.elements()).dtype == dtype
    rng = SplitMix64(t)
    rows = [Poly(f, [rng.randrange(509) for _ in range(t)] + [1]) for _ in range(4)]
    for a in (0, 508):  # rows with a root at a
        rows.append(Poly(f, (f.neg(a), 1)) * Poly(f, [rng.randrange(509) for _ in range(t - 1)] + [1]))
    gc = np.array([g.coeffs for g in rows])
    assert _root_free(f, gc)[0].tolist() == [k for k, g in enumerate(rows) if has_no_root(g)]


def test_block_search_matches_reference_on_fresh_block(monkeypatch):
    # each block drawn is root-screened once; its root-free rows then enter
    # Frobenius stages in stream order, each row in at most one, every row
    # of a block without a hit; F is built for a stage's rows and no others
    f, t = make_field(3, 4), 20  # the (3,4,20) Table-1 block
    want = {}
    for seed in (1, 2):
        rng = SplitMix64(seed)
        want[seed] = random_irreducible_reference(t, f, rng), rng.state
    events = []
    draw, root_free, screen, frobenius = (
        SplitMix64.next_u64_block,
        polyring._root_free,
        polyring._rabin_screen,
        polyring._frobenius_matrix,
    )

    def record_draw(rng, n):
        out = draw(rng, n)
        events.append(("draw", (out % np.uint64(f.q)).reshape(-1, t)))
        return out

    def record_screen(field, gc):
        live, screened = root_free(field, gc)
        events.append(("screen", gc[:, :t].copy(), live))
        return live, screened

    def record_stage(field, gc, live):
        events.append(("stage", gc[live, :t].copy()))
        return screen(field, gc, live)

    def record_frobenius(field, gc):
        events.append(("frob", gc[:, :t].copy()))
        return frobenius(field, gc)

    monkeypatch.setattr(SplitMix64, "next_u64_block", record_draw)
    monkeypatch.setattr(polyring, "_root_free", record_screen)
    monkeypatch.setattr(polyring, "_rabin_screen", record_stage)
    monkeypatch.setattr(polyring, "_frobenius_matrix", record_frobenius)
    for seed in (1, 2):
        events.clear()
        rng = SplitMix64(seed)
        g = random_irreducible(t, f, rng)
        assert (g, rng.state) == want[seed]
        starts = [i for i, e in enumerate(events) if e[0] == "draw"]
        assert starts[0] == 0
        for b, (lo, hi) in enumerate(zip(starts, starts[1:] + [len(events)])):
            (_, rows), (kind, screened, live), *rest = events[lo:hi]
            assert kind == "screen" and np.array_equal(screened, rows)
            assert [e[0] for e in rest] == ["stage", "frob"] * (len(rest) // 2)
            stages, built = rest[::2], rest[1::2]
            assert all(np.array_equal(s[1], m[1]) for s, m in zip(stages, built))
            assert all(0 < len(s[1]) <= polyring._STAGE_ROWS for s in stages)
            staged = np.concatenate([s[1] for s in stages]) if stages else rows[:0]
            assert np.array_equal(staged, rows[live][: len(staged)])
            if b < len(starts) - 1:  # a block without a hit
                assert len(staged) == len(live)
            else:
                assert list(g.coeffs[:t]) in stages[-1][1].tolist()


# the generator search's whole output at seeds 1-3: the first 16 hex digits
# of sha256 over (g's coefficients, the rng's next draw, F's dtype) and F's
# bytes, as the search gave them with blocks of 8 and no stages; the last
# two entries are over the untabled GF(3**6), with no root screen
SEARCH_DIGESTS = {
    (3, 3, 8): ["424988df86b95923", "72964f9b40113f6f", "ce1af4b8b50328ff"],
    (3, 4, 20): ["6f0eb8efb5b1a467", "103d0ba34f3d87b3", "33d69bd4e4ab50de"],
    (5, 2, 12): ["739f3d625619882f", "ab9ef4966c28e349", "b1129c61ca6b203a"],
    (5, 3, 41): ["a46324e1ff74794d", "60d3d8ee0fa87383", "cb972de57bf26926"],
    (7, 2, 24): ["1861d8501482af9c", "bde607f2e870c753", "475af5d8a763c54f"],
    (11, 2, 60): ["b75ba2e9507dfd98", "976d8e541837a7da", "543250f90abc4e10"],
    (3, 6, 5): ["ea5546ab148019f5", "64ad480e98101fb4", "34675e450225132f"],
    (3, 6, 9): ["813cda1c14096ed6", "c7fce6700670bb85", "1777209ed57951cf"],
}


@pytest.mark.parametrize("p, m, t", SEARCH_DIGESTS)
def test_generator_search_output_is_pinned(p, m, t):
    for seed, digest in zip((1, 2, 3), SEARCH_DIGESTS[p, m, t]):
        rng = SplitMix64(seed)
        g, frob = random_irreducible(t, make_field(p, m), rng, with_frobenius=True)
        h = hashlib.sha256(repr((g.coeffs, rng.next_u64(), str(frob.dtype))).encode())
        h.update(frob.tobytes())
        assert h.hexdigest()[:16] == digest


# (3,4,20) holds three products between reductions; over GF(509), t = 65 is
# the last float32 degree (65 * 508**2 < 2**24 <= 66 * 508**2), which holds
# one, and t = 66 the first float64 one, which holds two.  The rows with
# x**(q**t) == x are irreducible, or (over GF(509), where the reference
# search is slow) products of distinct linears with irreducibles of the
# given degrees, whose factor degrees all divide t
@pytest.mark.parametrize(
    "p, m, t, dtype, k, degrees",
    [(3, 4, 20, np.float32, 3, (20,)), (509, 1, 65, np.float32, 1, (5,)), (509, 1, 66, np.float64, 2, (2, 3))],
)
def test_lazy_reduction_equals_eager_at_its_edges(p, m, t, dtype, k, degrees):
    dim, bits = m * t, 24 if dtype == np.float32 else 53
    assert _exact_products(p, dim) == (dtype, k)
    assert (p - 1) * (dim * (p - 1)) ** k < 1 << bits <= (p - 1) * (dim * (p - 1)) ** (k + 1)
    f = make_field(p, m)
    rng = SplitMix64(t)
    rows = []
    for _ in range(2):
        g = Poly.one(f)
        for d in degrees:
            g = g * random_irreducible_reference(d, f, rng)
        for a in rng.sample(range(f.q), t - g.degree):
            g = g * Poly(f, (f.neg(a), 1))
        rows.append(g.coeffs)
    rows += [[rng.randrange(f.q) for _ in range(t)] + [1] for _ in range(2)]
    gc = np.array(rows)
    frob = _frobenius_matrix(f, gc)
    assert frob.dtype == dtype
    for row, F in zip(rows, frob.astype(np.int64)):  # F against Poly arithmetic
        z = Poly(f, [rng.randrange(f.q) for _ in range(t)])
        assert (F @ frobenius_digits(z, t) % p).tolist() == frobenius_digits(pow_mod(z, p, Poly(f, row)), t)
    # the chain and the powers against int64 products reduced at every step,
    # and the powers also on the all-(p-1) matrix, the largest reduced one
    passed, gaps, _ = _rabin_screen(f, gc, np.arange(len(rows)))
    frob_q = np.stack([np.eye(dim, dtype=np.int64)] * len(rows))
    for _ in range(m):
        frob_q = frob.astype(np.int64) @ frob_q % p
    x = (np.arange(dim) == m).astype(np.int64)
    h, want = np.tile(x, (len(rows), 1)), {}
    for i in range(1, t + 1):
        h = np.einsum("rij,rj->ri", frob_q, h) % p
        want[i] = (h - x) % p
    assert passed == [0, 1] and (h[:2] == x).all()
    levels = sorted(t // r for r in range(2, t + 1) if t % r == 0 and is_prime(r))  # the chain meets them in order
    assert len(gaps) == len(levels) > 0 and any(v.any() for v in gaps)
    for v, i in zip(gaps, levels):
        assert np.array_equal(v, want[i][:2].reshape(2, t, m) @ p ** np.arange(m))
    for a in (frob, np.full((1, dim, dim), p - 1, dtype=dtype)):
        for e in (m, dim - 1, dim + 1):  # F**m carries the chain; F**(m*t - 1) inverts F
            power, ref = polyring._power_mod(a, e, p), np.stack([np.eye(dim, dtype=np.int64)] * len(a))
            for _ in range(e):
                ref = a.astype(np.int64) @ ref % p
            assert power.dtype == dtype and np.array_equal(power, ref)


@settings(max_examples=40, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5, 7, 11, 13, 31]),
    side=st.integers(1, 300),
    stack=st.sampled_from([0, 1, 3]),
    e=st.integers(0, 300),
    wide=st.booleans(),
    full=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
# with p <= 31 and side <= 300 `_exact_products` always picks float32;
# wide takes float64, whose range defers more reductions
@example(p=31, side=300, stack=3, e=300, wide=False, full=True, seed=0)
@example(p=31, side=300, stack=0, e=255, wide=True, full=True, seed=0)
def test_power_mod_equals_reducing_every_product(p, side, stack, e, wide, full, seed):
    # a single matrix (stack 0) or a stack of them, reduced: random or all
    # p - 1, the largest reduced matrix.  The power, reduced only where a
    # product could leave the dtype's exact range, equals the power reduced
    # after every product, in array and dtype, and leaves a as it was
    dtype = np.float64 if wide else _exact_products(p, side)[0]
    shape = (side, side) if stack == 0 else (stack, side, side)
    a = np.full(shape, p - 1) if full else np.random.default_rng(seed).integers(0, p, shape)
    a = a.astype(dtype)
    kept = a.copy()
    power, want = polyring._power_mod(a, e, p), power_mod_reference(kept.copy(), e, p)
    assert power.dtype == want.dtype and np.array_equal(power, want)
    assert np.array_equal(a, kept)


def test_digit_split_is_coeffs_rank_by_rank():
    # every rank of tabled fields, GF(2**9) the largest table (512 x 9), and
    # drawn ranks of the computed GF(3**6) and GF(5**4); 1-D, 3-D and empty
    rng = SplitMix64(4800)
    for p, m in [(7, 1), (3, 5), (7, 3), (2, 9), (3, 6), (5, 4)]:
        f = make_field(p, m)
        ranks = np.arange(f.q) if f.q <= 512 else np.array([rng.randrange(f.q) for _ in range(300)])
        for shaped in (ranks, ranks[: len(ranks) // 6 * 6].reshape(2, 3, -1), ranks[:0], ranks[:0].reshape(0, 3, 0)):
            digits = _digit_split(shaped, f)
            assert digits.dtype == np.int64 and digits.shape == shaped.shape + (m,)
            assert digits.reshape(-1, m).tolist() == [list(f.coeffs(int(a))) for a in shaped.ravel()]


def test_public_verdicts_reject_out_of_range_coefficients(monkeypatch):
    # rank -1 would read the last table row, 100 would index past it
    f = make_field(3, 2)
    for c in (-1, 9, 100, 1.5, True):
        with pytest.raises(ParamError, match="coefficients"):
            is_irreducible(Poly(f, [c, 0, 0, 0, 1]))
    # the search's own survivors are not checked again
    checks = []
    check = polyring.check_integers
    monkeypatch.setattr(polyring, "check_integers", lambda values, *rest: checks.append(rest[-1]) or check(values, *rest))
    random_irreducible(20, make_field(3, 4), SplitMix64(1))
    assert checks == ["degree t"]


def frobenius_digits(poly, t):
    f = poly.field
    cs = poly.coeffs + (0,) * (t - len(poly.coeffs))
    return [d for c in cs for d in f.coeffs(c)]


def test_frobenius_matrix_is_pth_power():
    rng = SplitMix64(19)
    # at (67, 1) and (4099, 1) the product by x**p is taken by squaring,
    # elsewhere by p - 1 steps; (4099, 1) is past float32's exact range
    for p, m in [(2, 3), (3, 2), (5, 1), (7, 2), (3, 6), (67, 1), (4099, 1)]:
        f = make_field(p, m)
        g1 = random_irreducible(3, f, rng)
        while True:
            g2 = random_irreducible(2, f, rng)
            g3 = random_irreducible(1, f, rng)
            if g2 != g3:
                break
        composite = g2 * g3
        assert _square_free(composite) and not is_irreducible(composite)
        for g in (g1, composite):
            frob = _frobenius_matrix(f, np.array([g.coeffs]))[0]
            for _ in range(20):
                z = Poly(f, [rng.randrange(f.q) for _ in range(3)])
                image = (frob @ np.array(frobenius_digits(z, 3))) % p
                assert image.tolist() == frobenius_digits(pow_mod(z, p, g), 3)


def test_mul_x_matrix_is_multiplication_by_x():
    # C @ digits(f) == digits(x*f mod g) against Poly arithmetic, for an
    # irreducible g and a composite one stacked in one call: tabled fields,
    # the computed GF(5**4) and GF(3**6), and t = 1, where C is one block
    rng = SplitMix64(4701)
    for p, m, t in [(3, 3, 5), (7, 2, 24), (5, 4, 3), (3, 6, 4), (7, 1, 1), (2, 3, 1), (5, 2, 2)]:
        f = make_field(p, m)
        gs = [random_irreducible(t, f, rng)]
        if t > 1:
            gs.append(random_irreducible(1, f, rng) * random_irreducible(t - 1, f, rng))
            assert _square_free(gs[1]) and not is_irreducible(gs[1])
        mul_x = _mul_x_matrix(f, np.array([g.coeffs for g in gs]))
        assert mul_x.shape == (len(gs), m * t, m * t) and mul_x.dtype == _exact_products(p, m * t)[0]
        for g, c in zip(gs, mul_x.astype(np.int64)):
            for _ in range(10):
                z = Poly(f, [rng.randrange(f.q) for _ in range(t)])
                assert (c @ frobenius_digits(z, t) % p).tolist() == frobenius_digits(Poly.x(f) * z % g, t)


def test_frobenius_matrix_is_pinned():
    # F for an irreducible and a composite g in one call, its dtype and
    # bytes pinned as `_frobenius_matrix` gave them before it took C from
    # `_mul_x_matrix`: tabled fields, computed ones, t = 1, and p = 67,
    # where C**p is taken by squaring
    rng = SplitMix64(4700)
    pins = {
        (3, 3, 5): "28a6f60e4b5d673b",
        (7, 2, 24): "3d596a7b0c95a364",
        (5, 4, 3): "225268ab2a6dcd7b",
        (3, 6, 4): "2148a5c4f439f8cf",
        (7, 1, 1): "80b8fd6d60fa85fd",
        (11, 1, 2): "89dd549a8d69dad1",
        (67, 1, 3): "723245ddbc650c60",
    }
    for (p, m, t), digest in pins.items():
        f = make_field(p, m)
        g = random_irreducible(t, f, rng)
        other = random_irreducible(1, f, rng) * random_irreducible(t - 1, f, rng) if t > 1 else g
        frob = _frobenius_matrix(f, np.array([g.coeffs, other.coeffs]))
        assert frob.dtype == np.float32
        assert hashlib.sha256(frob.tobytes()).hexdigest()[:16] == digest


# Table-1 and binary blocks, t = 1, t < p, the largest tabled field, the
# computed GF(3**6) and GF(5**4), GF(509) on both sides of float32's exact
# range (65 * 508**2 < 2**24 < 66 * 508**2) and p = 65521, where C**p is a
# power and every product float64
FROBENIUS_BLOCKS = [
    (3, 4, 20), (3, 3, 8), (5, 3, 41), (7, 2, 24), (11, 2, 60), (2, 4, 3), (2, 9, 20),
    (3, 4, 1), (7, 1, 1), (7, 2, 3), (11, 2, 5), (3, 6, 4), (5, 4, 6),
    (509, 1, 65), (509, 1, 66), (65521, 1, 3),
]


@pytest.mark.parametrize("p, m, t", FROBENIUS_BLOCKS)
@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_frobenius_matrix_equals_the_block_recurrence(p, m, t, data):
    # one residue per block, scaled by the constants (y**k)**p in one
    # product, against the m-wide recurrence: the same values, dtype and
    # C-order bytes, for a stack of any monic rows
    f = make_field(p, m)
    rows = data.draw(st.integers(1, 4))
    coeffs = data.draw(st.lists(st.lists(st.integers(0, f.q - 1), min_size=t, max_size=t), min_size=rows, max_size=rows))
    gc = np.array([row + [1] for row in coeffs], dtype=np.int64)
    frob, reference = _frobenius_matrix(f, gc), frobenius_matrix_reference(f, gc)
    assert frob.dtype == reference.dtype and frob.flags.c_contiguous
    assert frob.tobytes() == reference.tobytes()


def test_frobenius_inverse_is_a_power_with_elimination_fallback(monkeypatch):
    calls, dtypes = [], []
    inv_mod_p, power_mod = modp.inv_mod_p, polyring._power_mod
    monkeypatch.setattr(modp, "inv_mod_p", lambda a, p: calls.append(p) or inv_mod_p(a, p))
    monkeypatch.setattr(polyring, "_power_mod", lambda a, e, p: dtypes.append(a.dtype) or power_mod(a, e, p))
    rng = SplitMix64(21)
    # the power is taken in float32 while m*t*(p-1)**2 < 2**24: (2039, 1, 4)
    # lies just below that bound, (4099, 1, 2) just above it
    for p, m, t, dtype in [
        (3, 4, 5, np.float32),
        (7, 2, 4, np.float32),
        (2, 3, 6, np.float32),
        (5, 1, 1, np.float32),
        (2039, 1, 4, np.float32),
        (4099, 1, 2, np.float64),
    ]:
        f = make_field(p, m)
        g = random_irreducible(t, f, rng)
        dtypes.clear()
        inverse = _frobenius_inverse(g)
        assert set(dtypes) == {np.dtype(dtype)}
        assert not calls  # F**(m*t - 1) passed its check
        assert inverse.dtype == dtype  # the dtype of F, which pth_root_mod's product uses
        assert np.array_equal(inverse, inv_mod_p(_frobenius_matrix(f, np.array([g.coeffs]))[0], p))
    # factor degrees 2 and 3 do not divide 5, so F**(m*t) != I
    f = make_field(3, 2)
    g = random_irreducible(2, f, rng) * random_irreducible(3, f, rng)
    inverse = _frobenius_inverse(g)
    frob = _frobenius_matrix(f, np.array([g.coeffs]))[0].astype(np.int64)
    eye = np.eye(len(frob), dtype=np.int64)
    power = eye
    for _ in range(len(frob) - 1):
        power = power @ frob % 3
    assert not np.array_equal(frob @ power % 3, eye)
    assert calls == [3]
    assert np.array_equal(frob @ inverse.astype(np.int64) % 3, eye)


def test_pth_power_decompose_zero():
    parts = pth_power_decompose(Poly.zero(F3))
    assert len(parts) == 3 and all(p.is_zero() for p in parts)


def test_pth_power_decompose_worked_example():
    # f = x^4 + 2x^2 + x + 1 over GF(3): a_0 = 1, a_1 = x + 1, a_2 = 2
    f = Poly(F3, [1, 1, 2, 0, 1])
    a0, a1, a2 = pth_power_decompose(f)
    assert a0 == Poly.one(F3)
    assert a1 == Poly(F3, [1, 1])
    assert a2 == Poly(F3, [2])
    recomposed = poly_pth_power(a0) + shift(poly_pth_power(a1), 1) + shift(poly_pth_power(a2), 2)
    assert recomposed == f


def test_pth_power_decompose_roundtrip_and_bounds():
    rng = random.Random(13)
    for p, m in [(2, 3), (3, 2), (5, 1)]:
        f = make_field(p, m)
        for _ in range(300):
            a = rand_poly(f, rng.randrange(15), rng)
            parts = pth_power_decompose(a)
            t = a.degree
            total = Poly.zero(f)
            for k, ak in enumerate(parts):
                if not a.is_zero():
                    assert ak.degree <= (t - k) // p or ak.is_zero()
                total = total + shift(poly_pth_power(ak), k)
            assert total == a


def test_pth_root_mod_identity_and_roundtrip():
    rng = SplitMix64(14)
    for p, m in [(2, 4), (3, 3), (5, 2)]:
        f = make_field(p, m)
        g = random_irreducible(5, f, rng)
        assert pth_root_mod(Poly.one(f), g) == Poly.one(f)
        for _ in range(200):
            z = Poly(f, [rng.randrange(f.q) for _ in range(5)])
            zp = pow_mod(z, p, g)
            assert pth_root_mod(zp, g) == z % g


def test_pth_root_mod_exhaustive_tiny():
    g = Poly(F3, [1, 0, 1])
    for c0 in range(3):
        for c1 in range(3):
            z = Poly(F3, [c0, c1])
            v = pth_root_mod(z, g)
            assert pow_mod(v, 3, g) == z


def test_pth_root_mod_frobenius_linearity():
    rng = SplitMix64(15)
    f = make_field(3, 2)
    g = random_irreducible(4, f, rng)
    for _ in range(100):
        z1 = Poly(f, [rng.randrange(9) for _ in range(4)])
        z2 = Poly(f, [rng.randrange(9) for _ in range(4)])
        c = rng.randrange(9)
        lhs = pth_root_mod(z1 + z2, g)
        assert lhs == pth_root_mod(z1, g) + pth_root_mod(z2, g)
        scaled = pth_root_mod(z1.scale(f.pow(c, 3)), g)
        assert scaled == pth_root_mod(z1, g).scale(c)


def test_pth_root_mod_no_root():
    # x is no cube mod x^2: F is singular exactly when g is not square-free
    with pytest.raises(ParamError, match="square-free"):
        pth_root_mod(Poly.x(F3), Poly(F3, [0, 0, 1]))
    with pytest.raises(ParamError, match="degree"):
        pth_root_mod(Poly.x(F3), Poly.one(F3))
    # ranks outside [0, q) in z or g: -1 gave a wrong root, 9 in g an IndexError
    f9 = make_field(3, 2)
    g9 = Poly(f9, [1, 1, 0, 1])
    assert _square_free(g9)
    for z in ([-1, 2], [9, 1], [1.5, 2], [True, 2]):
        with pytest.raises(ParamError, match="coefficients"):
            pth_root_mod(Poly(f9, z), g9)
    for g in ([1, -1, 0, 1], [1, 9, 0, 1], [1, 1.5, 0, 1]):
        with pytest.raises(ParamError, match="coefficients"):
            pth_root_mod(Poly(f9, [1, 2]), Poly(f9, g))
    for f in (F3, make_field(2, 2)):  # every monic g of degree 1..3
        for t in (1, 2, 3):
            for low in itertools.product(range(f.q), repeat=t):
                g = Poly(f, low + (1,))
                try:
                    _frobenius_inverse(g)
                except ParamError:
                    assert not _square_free(g)
                else:
                    assert _square_free(g)


def test_square_free_composite_modulus_roots_exist():
    # product of distinct irreducibles: Frobenius still bijective
    f = make_field(3, 2)
    rng = SplitMix64(16)
    g1 = random_irreducible(2, f, rng)
    g2 = random_irreducible(3, f, rng)
    g = g1 * g2
    assert _square_free(g)
    for _ in range(100):
        z = Poly(f, [rng.randrange(9) for _ in range(5)])
        v = pth_root_mod(z, g)
        assert pow_mod(v, 3, g) == z % g


def test_serialization():
    f = make_field(3, 2)
    assert Poly(f, [4, 0, 7]).to_text() == "4 0 7"
    assert Poly.zero(f).to_text() == "0"


def test_gcd_monic():
    rng = random.Random(17)
    f = make_field(2, 3)
    for _ in range(100):
        a = rand_poly(f, 6, rng)
        b = rand_poly(f, 6, rng)
        c = rand_poly(f, 3, rng)
        if (a * c).is_zero() and (b * c).is_zero():
            continue
        d = poly_gcd(a * c, b * c)
        if not c.is_zero():
            assert ((a * c) % d).is_zero()
            assert (d % c.monic()).is_zero()


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_kernels_match_schoolbook(data):
    # both kernel branches: the tabled fields and GF(3^6), which has none;
    # zero operands and degree-0 divisors come up often
    p, m = data.draw(st.sampled_from(PROPERTY_FIELDS))
    f = make_field(p, m)
    a, b = data.draw(polys(f, 7)), data.draw(polys(f, 5))
    c = data.draw(st.integers(0, f.q - 1))
    assert a + b == schoolbook_add(a, b)
    assert a - b == schoolbook_sub(a, b)
    assert -a == schoolbook_neg(a)
    assert a * b == schoolbook_mul(a, b)
    assert a.scale(c) == schoolbook_scale(a, c)
    assert poly_gcd(a, b) == schoolbook_gcd(a, b)
    if b.is_zero():
        return
    assert divmod(a, b) == schoolbook_divmod(a, b)
    try:
        u = inv_mod(a, b)
    except NotInvertibleError:
        assert schoolbook_gcd(a, b).degree != 0
    else:
        assert u.degree < b.degree
        assert schoolbook_divmod(schoolbook_mul(u, a), b)[1] == schoolbook_divmod(Poly.one(f), b)[1]


LONG_FIELDS = [(3, 1), (7, 1), (11, 1), (3, 6)]


@st.composite
def long_polys(draw, f, min_deg, max_deg):
    cs = draw(st.lists(st.integers(0, f.q - 1), min_size=min_deg, max_size=max_deg))
    return Poly(f, cs + [draw(st.integers(1, f.q - 1))])


@settings(max_examples=10, deadline=None)
@given(st.data())
def test_kernels_match_schoolbook_on_long_operands(data):
    # many-step Euclid: degrees 20..60, with a common factor c so the gcd
    # is often not 1; GF(3^6) reads computed lookups
    p, m = data.draw(st.sampled_from(LONG_FIELDS))
    f = make_field(p, m)
    c = data.draw(long_polys(f, 0, 10))
    x, y = data.draw(long_polys(f, 20, 50)), data.draw(long_polys(f, 20, 50))
    a, b = x * c, y * c
    assert divmod(a, b) == schoolbook_divmod(a, b)
    d, u, v = ext_gcd(a, b)
    assert poly_gcd(a, b) == d == schoolbook_gcd(a, b) and (d % c).is_zero()
    assert u * a + v * b == d
    for s, g in ((a, b), (x, y)):
        degree = schoolbook_gcd(s, g).degree
        try:
            w = inv_mod(s, g)
        except NotInvertibleError as exc:
            assert degree > 0 and str(exc).endswith(f"gcd has degree {degree}")
        else:
            assert degree == 0 and w.degree < g.degree
            assert schoolbook_divmod(schoolbook_mul(w, s), g)[1] == Poly.one(f)
