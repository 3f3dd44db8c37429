"""Goppa code tests: parity-check consistency between the matrix product
and the rational-sum syndrome, trace expansion, sampling, file formats."""

import hashlib
import math
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pgoppa import polyring
from pgoppa.decoder import decode
from pgoppa.errors import ParamError
from pgoppa.experiments import TrialConfig
from pgoppa.fields import make_field
from pgoppa.goppa import (
    ErrorPattern,
    GoppaCode,
    build_code,
    sample_error,
    word_from_text,
    word_to_text,
)
from pgoppa.polyring import Poly, _frobenius_matrix, is_irreducible, is_square_free, pth_root_mod, random_irreducible
from pgoppa.rng import SplitMix64

from oracles import evaluate, magnitude_profile, parity_check


@pytest.fixture(scope="module")
def code338():
    return build_code(3, 3, 8, rng=SplitMix64(42))


def padded_coeffs(poly, t):
    return list(poly.coeffs) + [0] * (t - len(poly.coeffs))


def test_build_code_table_row_parameters(code338):
    assert code338.n == 27
    assert code338.field.m * code338.t == 24
    assert code338.dimension >= 3
    assert is_irreducible(code338.g)


def test_build_code_binary():
    code = build_code(2, 4, 3, 16, rng=SplitMix64(1))
    assert code.n == 16 and code.t == 3


def test_build_code_dimension_rule():
    with pytest.raises(ParamError):
        build_code(3, 3, 9, 27, rng=SplitMix64(2))
    # maximal length: the bound on the 9 usable elements is GoppaCode's to check
    with pytest.raises(ParamError, match=r"dimension bound violated: n - m\*t = -1"):
        build_code(3, 2, 5, rng=SplitMix64(2))


def test_build_code_oversized_support():
    with pytest.raises(ParamError):
        build_code(3, 2, 2, 10, rng=SplitMix64(3))


def test_build_code_memory_follows_n_not_q():
    # an irreducible g of degree >= 2 has no roots, so the support is
    # sampled from range(q) itself, reading only the positions it draws:
    # over GF(3^13) a 100-point code allocates kilobytes, not a q-entry list
    make_field(3, 13)
    tracemalloc.start()
    try:
        code = build_code(3, 13, 2, 100, rng=SplitMix64(5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code.n == 100 and peak < 1 << 22


def test_t1_parity_check_specialization():
    # g = x - a: the syndrome of a unit error at j is (a - L_j)^-1
    f = make_field(3, 2)
    a = 5
    g = Poly(f, (f.neg(a), 1))
    support = [e for e in f.elements() if e != a][:7]
    code = GoppaCode(f, support, g)
    assert parity_check(code)[0] == [f.inv(f.add(a, f.neg(lj))) for lj in support]


def toeplitz_vandermonde_diag(code):
    """The raw product toep(g_1..g_t) @ vdm_t(L) @ diag(1/g(L_j)), entry by
    entry: an independent reference for the parity check."""
    f, t, n = code.field, code.t, code.n
    gc = code.g.coeffs
    out = [[0] * n for _ in range(t)]
    for j, lj in enumerate(code.L):
        dj = f.inv(evaluate(code.g, lj))
        powers = [1] * t
        for k in range(1, t):
            powers[k] = f.mul(powers[k - 1], lj)
        for i in range(t):
            acc = 0
            # row i of the Toeplitz factor is (g_{t-i}, ..., g_t, 0, ...)
            for k in range(i + 1):
                acc = f.add(acc, f.mul(gc[t - i + k], powers[k]))
            out[i][j] = f.mul(acc, dj)
    return out


def test_parity_check_is_reversed_negated_product(code338):
    # the product yields the syndrome coefficients reversed and negated
    rng = SplitMix64(61)
    composite = build_code(3, 3, 4, rng=rng, irreducible_only=False)
    while len(composite.L) == composite.field.q:  # until g has roots in GF(q)
        composite = build_code(3, 3, 4, rng=rng, irreducible_only=False)
    untabled = build_code(3, 6, 3, 40, rng=rng)  # GF(729) has no lookup tables
    for code in (code338, composite, untabled):
        f = code.field
        fixed = [[f.neg(c) for c in row] for row in reversed(toeplitz_vandermonde_diag(code))]
        assert fixed == parity_check(code)


def test_syndrome_paths_agree(code338):
    rng = SplitMix64(50)
    for _ in range(300):
        e = sample_error(code338.n, rng.randrange(code338.n + 1), "uniform", 3, rng)
        via_poly = padded_coeffs(code338.syndrome_poly(e.values), code338.t)
        via_matrix = code338.syndrome_from_word(e.values)
        assert via_poly == via_matrix


def test_syndrome_zero_pattern(code338):
    assert code338.syndrome_poly((0,) * code338.n).is_zero()


def test_syndrome_single_error(code338):
    from pgoppa.polyring import inv_mod

    f = code338.field
    e = [0] * code338.n
    e[5] = 1
    expected = inv_mod(Poly(f, (f.neg(code338.L[5]), 1)), code338.g)
    assert code338.syndrome_poly(e) == expected


def test_syndrome_linearity(code338):
    rng = SplitMix64(51)
    for _ in range(100):
        e1 = sample_error(code338.n, 5, "uniform", 3, rng)
        e2 = sample_error(code338.n, 7, "uniform", 3, rng)
        esum = tuple((a + b) % 3 for a, b in zip(e1.values, e2.values))
        assert code338.syndrome_poly(esum) == code338.syndrome_poly(
            e1.values
        ) + code338.syndrome_poly(e2.values)


def test_trace_construction_equivalence(code338):
    rng = SplitMix64(52)
    for _ in range(300):
        w = tuple(rng.randrange(3) for _ in range(code338.n))
        hq = code338.syndrome_from_word(w)
        hp = (code338.Hbar @ np.array(w)) % 3
        assert list(hp) == [d for c in hq for d in code338.field.coeffs(c)]
        assert (all(v == 0 for v in hq)) == (not hp.any())


@lru_cache(maxsize=1)
def syndrome_codes():
    """Tabled fields, the untabled GF(3^6), a composite square-free g with
    roots in GF(q), and supports shorter than q."""
    rng = SplitMix64(62)
    composite = build_code(3, 3, 4, rng=rng, irreducible_only=False)
    while len(composite.L) == composite.field.q:  # until g has roots in GF(q)
        composite = build_code(3, 3, 4, rng=rng, irreducible_only=False)
    return [
        build_code(3, 3, 8, rng=rng),
        build_code(2, 4, 3, 14, rng=rng),
        build_code(7, 1, 2, rng=rng),
        build_code(5, 2, 4, 17, rng=rng),
        build_code(3, 6, 3, 40, rng=rng),
        composite,
    ]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_syndrome_from_word_matches_syndrome_poly(data):
    code = data.draw(st.sampled_from(syndrome_codes()))
    p = code.field.p
    word = data.draw(st.lists(st.integers(0, p - 1), min_size=code.n, max_size=code.n))
    assert code.syndrome_from_word(word) == padded_coeffs(code.syndrome_poly(word), code.t)


def test_word_of_wrong_length_or_entry_is_rejected():
    code = build_code(3, 2, 2, rng=SplitMix64(1))
    assert code.n == 9
    for bad in ((0, 0, 0), (0,) * 11, (0,) * 8 + (3,), (-1,) + (0,) * 8):
        with pytest.raises(ParamError):
            code.contains(bad)
    # entries that are not integers, even ones equal to an integer
    for entry in (0.5, 1.0, "1", None):
        bad = (entry,) + (0,) * 8
        for check in (code.contains, lambda w: decode(code, w)):
            with pytest.raises(ParamError):
                check(bad)
    # any shape but (n,), named in the message: a scalar has no len(), and
    # a 2-D word's len() is its row count
    for bad in (5, [[0] * 9], np.zeros((9, 1), dtype=int)):
        for check in (code.contains, lambda w: decode(code, w)):
            with pytest.raises(ParamError, match=r"word has shape \("):
                check(bad)
    # a ragged nesting has no shape: np.asarray raised numpy's own ValueError
    for bad in ([[0], [0, 0]] + [0] * 7, [[0, 1], [2]] + [0] * 7):
        for check in (code.syndrome_from_word, code.contains, lambda w: decode(code, w)):
            with pytest.raises(ParamError, match=r"word is ragged, code needs shape \(9,\)"):
                check(bad)
    assert code.contains((0,) * 9)


def test_syndromes_that_would_overflow_int64_are_rejected():
    # over GF(2**31 - 1) four products of entries below p sum past 2**63, so
    # Hbar @ word would wrap: the word (p-1, p-2, p-3, p-4) read 142496150
    # where the exact syndrome is 142496154
    p = 2**31 - 1
    f = make_field(p, 1)
    g = Poly(f, (5, 1))
    support = (123456789, 987654321, 55555555, 777777)
    with pytest.raises(ParamError, match="would overflow int64"):
        GoppaCode(f, support, g)
    # two products stay below the bound, and the syndrome is exact: the sum
    # of w_j / (x - L_j) mod x + 5, that is of -w_j / (L_j + 5)
    code = GoppaCode(f, support[:2], g)
    word = (p - 1, p - 2)
    exact = sum(-w * pow(a + 5, -1, p) for w, a in zip(word, support)) % p
    assert code.syndrome_from_word(word) == [exact]


def test_trace_degenerate_extension():
    # m = 1: the GF(p) matrix is the GF(q) one, column j the syndrome of e_j
    code = build_code(5, 1, 1, n=4, rng=SplitMix64(54))
    units = [[int(i == j) for i in range(code.n)] for j in range(code.n)]
    assert code.Hbar.T.tolist() == [padded_coeffs(code.syndrome_poly(u), code.t) for u in units]


def test_random_codeword_membership(code338):
    rng = SplitMix64(55)
    assert code338.contains((0,) * code338.n)
    for _ in range(200):
        assert code338.contains(code338.random_codeword(rng))


def test_codeword_min_weight_at_design_distance(code338):
    rng = SplitMix64(56)
    for _ in range(300):
        w = code338.random_codeword(rng)
        weight = sum(1 for v in w if v)
        if weight:
            assert weight >= code338.t + 1


def test_sample_error_basics():
    rng = SplitMix64(57)
    z = sample_error(10, 0, "equal", 3, rng)
    assert not any(z.values) and magnitude_profile(z) == {}
    e = sample_error(40, 9, "equal", 5, rng)
    assert sum(1 for v in e.values if v) == 9
    assert len(magnitude_profile(e)) == 1
    assert sum(magnitude_profile(e).values()) == 9
    fixed = sample_error(40, 6, ("equal", 3), 5, rng)
    assert magnitude_profile(fixed) == {3: 6}
    prof = sample_error(40, 5, {1: 2, 4: 3}, 5, rng)
    assert magnitude_profile(prof) == {1: 2, 4: 3}


def test_sample_error_uniform_multinomial():
    rng = SplitMix64(58)
    w = 1000
    e = sample_error(2000, w, "uniform", 5, rng)
    sigma = math.sqrt(w * 0.25 * 0.75)
    for v in (1, 2, 3, 4):
        assert abs(magnitude_profile(e).get(v, 0) - w / 4) <= 3 * sigma


@pytest.mark.parametrize("p", [2.5, 1, 0, -3, "3"])
def test_sample_error_rejects_a_characteristic_below_two_or_not_an_integer(p):
    for dist in ("equal", "uniform"):
        with pytest.raises(ParamError, match="characteristic"):
            sample_error(10, 3, dist, p, SplitMix64(60))


def test_sample_error_param_errors():
    rng = SplitMix64(59)
    with pytest.raises(ParamError):
        sample_error(5, 9, "equal", 3, rng)
    with pytest.raises(ParamError):
        sample_error(5, 2, ("equal", 0), 3, rng)
    with pytest.raises(ParamError):
        sample_error(5, 2, {1: 3}, 3, rng)
    with pytest.raises(ParamError, match="counts must be integers"):  # counts sum to w, one is negative
        sample_error(10, 4, {1: 5, 2: -1}, 3, SplitMix64(1))
    with pytest.raises(ParamError):
        sample_error(5, 2, "weird", 3, rng)
    # types as well as ranges: n, w, magnitudes and counts are integers
    for n, w, dist in [(8, 1.0, "equal"), (8.0, 1, "equal"), (9, 2, {1.5: 2}), (9, 2, ("equal", True)),
                       (9, 2, {1: 1.0, 2: 1.0})]:
        with pytest.raises(ParamError, match="must be integers"):
            sample_error(n, w, dist, 3, rng)


def test_square_free_composite_generator():
    rng = SplitMix64(60)
    for _ in range(10):
        code = build_code(3, 3, 4, rng=rng, irreducible_only=False)
        assert is_square_free(code.g)
        assert code.g.degree == 4
        assert all(evaluate(code.g, a) != 0 for a in code.L)


# (block, irreducible_only, seed) -> sha256 of the code's text, and the
# RNG's next draw after build_code: the composite stream's generator
# factors and draw order, the root filter, and one t = 1 irreducible code
PINNED_CODES = [
    ((3, 3, 6), False, 1, "cb2ffbcd5500f9e07dc1dfdb3bf4652a5e45cd7298a7e79cdcfe27a820581610", 3264522013856772444),
    ((3, 3, 6), False, 2, "d1c52492a77a340583d727f26b50479f876822f408cedc210dff09b2f3062fb0", 10138876236859337939),
    ((3, 3, 6), False, 3, "c73f3dd7f02c6183ff6c9459fee4cfa375f1f5346f5267b786ca488013895878", 7886750572372291415),
    ((5, 2, 4), False, 1, "eeef70298eb04c76ae09695db6594083ff64207af8b4691956c7f17e91217d65", 9772298966463872780),
    ((5, 2, 4), False, 2, "45cc85223b08a2781e81610d45e3d29ca9cd345e2239818db193cc18b2e71141", 8046303945656381530),
    ((5, 2, 4), False, 3, "656bc81aa22b3fb5a053d93f35b224b195c9081cd102f8119b07778e00fb685d", 13366586412811330209),
    ((3, 3, 1), True, 1, "38088579f5cef9a8bd1e48ace7c691e1e9ad2484199f6dd805938f520db4ffdb", 13166747327335888811),
]


@pytest.mark.parametrize("block,irreducible,seed,digest,next_draw", PINNED_CODES)
def test_composite_and_t1_codes_are_pinned(block, irreducible, seed, digest, next_draw):
    rng = SplitMix64(seed)
    code = build_code(*block, rng=rng, irreducible_only=irreducible)
    assert hashlib.sha256(code.to_text().encode()).hexdigest() == digest
    assert rng.next_u64() == next_draw


@pytest.mark.parametrize("p, m, t", [(3, 4, 20), (7, 2, 24), (5, 3, 41), (3, 3, 8)])
def test_built_code_keeps_the_screens_frobenius_matrix(monkeypatch, p, m, t):
    code = build_code(p, m, t, rng=SplitMix64(2200 + p))
    frob = _frobenius_matrix(code.field, np.array([code.g.coeffs]))[0]
    assert code._frobenius.dtype == frob.dtype and np.array_equal(code._frobenius, frob)
    # the code's roots use that matrix; a code read from text builds its own
    built = []
    real = polyring._frobenius_matrix
    monkeypatch.setattr(polyring, "_frobenius_matrix", lambda field, gc: built.append(len(gc)) or real(field, gc))
    inverse, a = code.pth_roots(pth_root_mod)
    assert not built
    assert inverse.dtype == frob.dtype
    assert code.pth_roots(pth_root_mod)[1] is a  # made once
    loaded = GoppaCode.from_text(code.to_text())
    assert loaded._frobenius is None
    built.clear()
    assert np.array_equal(loaded.pth_roots(pth_root_mod)[0], inverse) and built == [1]


def test_code_file_roundtrip(tmp_path, code338):
    path = tmp_path / "code.txt"
    path.write_text(code338.to_text())
    loaded = GoppaCode.load(path)
    assert loaded.L == code338.L
    assert loaded.g == code338.g
    assert np.array_equal(loaded.Hbar, code338.Hbar)
    assert loaded.to_text() == code338.to_text()


def test_code_rejects_non_integer_support_and_generator(code338):
    f, L, g = code338.field, code338.L, code338.g
    for bad in (1.5, "1", None):
        with pytest.raises(ParamError, match="support elements must be integers"):
            GoppaCode(f, (bad,) + L[1:], g)
    with pytest.raises(ParamError, match="generator coefficients must be integers"):
        GoppaCode(f, L, Poly(f, (0.5,) + g.coeffs[1:]))
    for t, n in [(2.0, None), (True, None), (2, 9.0)]:
        with pytest.raises(ParamError, match="t and n must be integers"):
            build_code(3, 2, t, n, rng=SplitMix64(3))


def test_code_record_rejects_ranks_outside_field(code338):
    # GF(27): ranks lie in [0, 27)
    header, modulus, gen, support = code338.to_text().splitlines()
    for bad in (27, -1):
        bad_support = " ".join(map(str, code338.L[:-1] + (bad,)))
        with pytest.raises(ParamError, match="support"):
            GoppaCode.from_text("\n".join([header, modulus, gen, bad_support]))
        bad_gen = " ".join(map(str, (bad,) + code338.g.coeffs[1:]))
        with pytest.raises(ParamError, match="generator"):
            GoppaCode.from_text("\n".join([header, modulus, bad_gen, support]))


F9 = make_field(3, 2)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: GoppaCode(F9, range(9), Poly.one(F9)), "degree >= 1"),
        (lambda: GoppaCode(F9, range(9), Poly(F9, (1, 1, 2))), "must be monic"),
        (lambda: GoppaCode(F9, (0, 0, 1, 2, 3, 4), Poly.x(F9)), "support elements must be distinct"),
        (lambda: GoppaCode(F9, range(10), Poly.x(F9)), "exceeds field size 9"),
        (lambda: GoppaCode(F9, range(2, 9), Poly(F9, (1, 1, 1))), "square-free"),  # (x - 1)^2
        (lambda: GoppaCode(F9, range(9), Poly.x(F9)), "avoid the roots"),  # 0 is a root of x
        (lambda: GoppaCode.from_text("3 2 1 8\n1 0 1\n0 1\n"), "expected 4 lines"),
        (lambda: GoppaCode.from_text("3 2 1\n1 0 1\n0 1\n1 2 3 4 5 6 7 8\n"), "header needs 4 fields"),
        (lambda: GoppaCode.from_text("3 2 1 7\n1 0 1\n0 1\n1 2 3 4 5 6 7 8\n"), "header disagrees"),
        (lambda: build_code(3, 2, 1, 9, rng=SplitMix64(5)), "support of size 9 impossible"),
        (lambda: GoppaCode(F9, range(9), Poly(make_field(3, 1), [1, 2, 0, 1])), "generator is over"),
    ],
    ids=["degree", "monic", "distinct", "length", "square-free", "root", "lines", "header", "body", "usable", "field"],
)
def test_code_parameters_are_rejected_with_their_message(build, message):
    with pytest.raises(ParamError, match=message):
        build()


def test_build_code_checks_the_default_shape_before_the_search():
    # n omitted is n = q = 27 at most, and 27 - 3*9 = 0: no generator is drawn
    rng = SplitMix64(8)
    with pytest.raises(ParamError, match=r"dimension bound violated: n - m\*t = 0"):
        build_code(3, 3, 9, rng=rng)
    assert rng.state == 8


@pytest.mark.parametrize(
    "n, message", [(10, "n = 10 exceeds field size 9"), (4, "dimension bound violated: n - m*t = 0")]
)
def test_each_shape_rule_has_one_wording(n, message):
    # the experiment config, the code builder and the code itself reject a
    # length-n, degree-2 code over GF(9) alike: n = q + 1 and n = m*t
    g = random_irreducible(2, F9, SplitMix64(6))
    builds = (
        lambda: TrialConfig(3, 2, 2, 0, n=n).validate(),
        lambda: build_code(3, 2, 2, n, rng=SplitMix64(6)),
        lambda: GoppaCode(F9, range(n), g),
    )
    for build in builds:
        with pytest.raises(ParamError) as caught:
            build()
        assert str(caught.value) == message


def test_word_text_roundtrip():
    w = (0, 2, 1, 0, 4)
    assert word_from_text(word_to_text(w)) == w


# (p, m, largest t) with q - t - m*t > 0, so a support of size > m*t exists
RECORD_FIELDS = [(2, 4, 3), (3, 2, 2), (3, 3, 3), (5, 2, 3), (7, 1, 3)]


@settings(max_examples=50, deadline=None)
@given(st.sampled_from(RECORD_FIELDS), st.data())
def test_records_round_trip(block, data):
    p, m, tmax = block
    rng = SplitMix64(data.draw(st.integers(0, 2**64 - 1)))
    # a random modulus, not only the default one
    f = make_field(p, m, random_irreducible(m, make_field(p, 1), rng).coeffs)
    g = random_irreducible(data.draw(st.integers(1, tmax)), f, rng)
    usable = [a for a in f.elements() if evaluate(g, a) != 0]
    code = GoppaCode(f, rng.sample(usable, m * g.degree + 1 + rng.randrange(len(usable) - m * g.degree)), g)
    back = GoppaCode.from_text(code.to_text())
    assert (back.field, back.g, back.L) == (f, g, code.L)
    assert back.to_text() == code.to_text()
    w = tuple(data.draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=code.n)))
    assert word_from_text(word_to_text(w)) == w


def test_error_pattern_fields():
    e = ErrorPattern((0, 2, 0, 2, 1))
    assert sum(1 for v in e.values if v) == 3
    assert magnitude_profile(e) == {2: 2, 1: 1}
    assert e.support == (1, 3, 4)
