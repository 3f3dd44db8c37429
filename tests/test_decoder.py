"""Decoder tests: key-equation algebra, lattice membership of the true
solution, locator assembly and root extraction, and end-to-end decoding
across characteristics."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from pgoppa import decoder, goppa, modp
from pgoppa.decoder import (
    assemble_locator,
    decode,
    find_roots_multiplicities,
    key_lattices,
    locator_degree,
    verify_sign_convention,
)
from pgoppa.errors import NotInvertibleError, ParamError
from pgoppa.fields import Field, make_field
from pgoppa.goppa import ErrorPattern, GoppaCode, build_code, sample_error
from pgoppa.polyring import (
    Poly,
    _bounded_rows,
    _bounded_system,
    _pth_power_compose,
    _root_multiplicities,
    inv_mod,
    pth_power_decompose,
    pth_root_mod,
    random_irreducible,
)
from pgoppa.popov import weak_popov_reduce
from pgoppa.rng import SplitMix64

from oracles import (
    assemble_locator_reference,
    bounded_dimension,
    bounded_rows_reference,
    bounded_system_reference,
    evaluate,
    locator_from_error,
    magnitude_profile,
    per_root_key_lattices,
    pow_mod,
    reference_decode,
    reference_key_lattice,
    shift,
    syndrome_poly,
)
from test_popov import PROPERTY_FIELDS


def corrupt(codeword, error, p):
    return tuple((a + b) % p for a, b in zip(codeword, error.values))


def random_small_code(rng):
    p = (2, 3, 5)[rng.randrange(3)]
    m = 1 + rng.randrange(3 if p == 2 else 2)
    q = p**m
    tmax = min((q - 2) // m, 6)
    if tmax < 1:
        return None
    t = 1 + rng.randrange(tmax)
    return build_code(p, m, t, rng=rng)


def test_sign_convention_is_minus():
    assert verify_sign_convention() == -1


def test_sign_check_rejects_a_verifying_plus(monkeypatch):
    # every phi gets the phi = 1 basis, so the plus sign's basis holds too
    real = decoder.key_lattices

    def both_signs(code, s):
        bases = real(code, s)
        return [bases[0]] * len(bases)

    monkeypatch.setattr(decoder, "key_lattices", both_signs)
    with pytest.raises(AssertionError, match="expected only -1"):
        verify_sign_convention()


def test_sign_check_rejects_a_failing_minus(monkeypatch):
    # bases in reverse phi order: only the plus sign's basis holds
    real = decoder.key_lattices
    monkeypatch.setattr(decoder, "key_lattices", lambda code, s: real(code, s)[::-1])
    with pytest.raises(AssertionError, match="expected only -1"):
        verify_sign_convention()


def test_decode_runs_no_sign_check(monkeypatch):
    def fail():
        raise AssertionError("sign check ran at decode time")

    monkeypatch.setattr(decoder, "verify_sign_convention", fail)
    rng = SplitMix64(7)
    code = build_code(3, 2, 2, rng=rng)
    error = sample_error(code.n, 1, ("equal", 1), 3, rng)
    assert (0,) * code.n in decode(code, error.values).codewords()


def test_key_equation_identity_random():
    rng = SplitMix64(2001)
    checked = 0
    while checked < 150:
        code = random_small_code(rng)
        if code is None:
            continue
        p = code.field.p
        e = sample_error(code.n, rng.randrange(code.n + 1), "uniform", p, rng)
        phi = 1 + rng.randrange(p - 1)
        sigma = locator_from_error(code, e, phi)
        s = syndrome_poly(code, e.values)
        assert (sigma.deriv().scale(phi) % code.g) == ((sigma * s) % code.g)
        checked += 1


def test_locator_from_error_examples():
    rng = SplitMix64(2002)
    code = build_code(3, 2, 3, rng=rng)
    zero = ErrorPattern((0,) * code.n)
    assert locator_from_error(code, zero, 1) == Poly.one(code.field)
    # degree = sum over the profile of lifted v/phi exponents
    e = sample_error(code.n, 4, "uniform", 3, rng)
    for phi in (1, 2):
        sigma = locator_from_error(code, e, phi)
        phi_inv = pow(phi, 1, 3) if phi == 1 else 2
        expect = sum(((v * phi_inv) % 3) * cnt for v, cnt in magnitude_profile(e).items())
        assert sigma.degree == expect


def test_locator_p2_equals_patterson_product():
    rng = SplitMix64(2003)
    code = build_code(2, 4, 3, rng=rng)
    e = sample_error(code.n, 3, ("equal", 1), 2, rng)
    sigma = locator_from_error(code, e, 1)
    f = code.field
    direct = Poly.one(f)
    for i in e.support:
        direct = direct * Poly(f, (f.neg(code.L[i]), 1))
    assert sigma == direct


def test_key_lattice_defining_property():
    rng = SplitMix64(2004)
    for _ in range(30):
        code = random_small_code(rng)
        if code is None:
            continue
        p = code.field.p
        e = sample_error(code.n, min(2, code.n), "uniform", p, rng)
        s = syndrome_poly(code, e.values)
        if s.is_zero():
            continue
        phi = 1 + rng.randrange(p - 1)
        try:
            basis = key_lattices(code, s)[phi - 1]
        except NotInvertibleError:
            continue
        s_inv = inv_mod(s, code.g)
        for k in range(1, p):
            u = (Poly.monomial(code.field, k) - shift(s_inv, k - 1).scale(phi * k % p)) % code.g
            v = -basis[k][0]
            assert pow_mod(v, p, code.g) == u
            assert v.degree < code.t


def test_key_lattice_binary_shape():
    rng = SplitMix64(2005)
    code = build_code(2, 4, 3, rng=rng)
    e = sample_error(code.n, 2, ("equal", 1), 2, rng)
    s = syndrome_poly(code, e.values)
    bases = key_lattices(code, s)
    assert len(bases) == 1
    basis = bases[0]
    assert len(basis) == 2
    assert basis[0][0] == code.g
    # -v with v**2 == x - 1/s == x + 1/s (mod g)
    u = (Poly.x(code.field) + inv_mod(s, code.g)) % code.g
    assert pow_mod(basis[1][0], 2, code.g) == u
    assert basis[1][1] == Poly.one(code.field)


def test_true_solution_lies_in_lattice():
    # decompose the true locator and check the lattice residue vanishes
    rng = SplitMix64(2006)
    hits = 0
    while hits < 25:
        p = (3, 5)[rng.randrange(2)]
        if p == 3:
            code = build_code(3, 2, 4, rng=rng)
        else:
            code = build_code(5, 2, 4, rng=rng)
        phi = 1 + rng.randrange(p - 1)
        w = 1 + rng.randrange(code.t)
        e = sample_error(code.n, w, ("equal", phi), p, rng)
        sigma = locator_from_error(code, e, phi)
        assert sigma.degree == w
        s = syndrome_poly(code, e.values)
        if s.is_zero():
            continue
        try:
            basis = key_lattices(code, s)[phi - 1]
        except NotInvertibleError:
            continue
        a = pth_power_decompose(sigma)
        residue = a[0]
        for k in range(1, p):
            residue = residue - a[k] * basis[k][0]
        assert (residue % code.g).is_zero()
        # reconstruct the multiplier vector and check the product row by row
        lam = divmod(residue, code.g)[0]
        combo = [lam] + a[1:]
        product = [Poly.zero(code.field) for _ in range(p)]
        for i, ci in enumerate(combo):
            for j in range(p):
                product[j] = product[j] + ci * basis[i][j]
        assert product == a
        hits += 1


# (p, m, t) with p in {2, 3, 5, 7}; drawn with irreducible and composite g
LATTICE_BLOCKS = [(2, 4, 3), (2, 4, 2), (3, 2, 2), (3, 3, 4), (5, 2, 4), (7, 2, 3)]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(LATTICE_BLOCKS), st.booleans(), st.integers(0, 2**64 - 1))
def test_key_lattices_equal_per_phi_reference(block, irreducible, seed):
    p, m, t = block
    rng = SplitMix64(seed)
    code = build_code(p, m, t, rng=rng, irreducible_only=irreducible)
    f = code.field
    s = Poly(f, [rng.randrange(f.q) for _ in range(t)])
    try:
        s_inv = inv_mod(s, code.g)
    except NotInvertibleError:
        with pytest.raises(NotInvertibleError):
            key_lattices(code, s)
        return
    want = [reference_key_lattice(code, s_inv, phi) for phi in range(1, p)]
    bases = key_lattices(code, s)
    assert bases == want
    # every b_k from one product and the entries phi*b_k - a_k as one digit
    # expression, against 2(p-1) pth_root_mod calls and Poly scale/subtract
    assert bases == per_root_key_lattices(code, s)
    # plain row lists: a row shared between bases would let one reduction edit another
    rows = [id(row) for basis in bases for row in basis]
    assert len(rows) == len(set(rows))


def invertible_syndrome(code, rng):
    while True:
        s = Poly(code.field, [rng.randrange(code.field.q) for _ in range(code.t)])
        try:
            inv_mod(s, code.g)
            return s
        except NotInvertibleError:
            pass


def test_one_product_bases_with_an_eliminated_frobenius_inverse(monkeypatch):
    # g = (x - a) * cubic over GF(27): the p-Frobenius has order 3 on GF(27)
    # and 9 on GF(27**3), so F**(m*t - 1) = F**11 is not its inverse, and
    # the code's F**-1 comes from modp.inv_mod_p
    rng = SplitMix64(2812)
    f = make_field(3, 3)
    g = Poly(f, (f.neg(5), 1)) * random_irreducible(3, f, rng)
    code = GoppaCode(f, [a for a in f.elements() if evaluate(g, a)], g)
    eliminated = []
    real = modp.inv_mod_p
    monkeypatch.setattr(modp, "inv_mod_p", lambda *args: eliminated.append(1) or real(*args))
    for _ in range(5):
        s = invertible_syndrome(code, rng)
        assert key_lattices(code, s) == per_root_key_lattices(code, s)
    assert code._frobenius is None  # no screen matrix: the code inverts F itself
    assert len(eliminated) == 1 + 5 * 2 * (f.p - 1)  # the code's inverse, then one per oracle root


def test_decoder_roots_equal_roots_built_from_g():
    # the roots the decoder takes with a code's matrix equal pth_root_mod(z, g)
    # wherever the matrix comes from: the screen, a code file, a composite g,
    # t <= 3 (a Frobenius stage after the root screen), GF(3**6)
    rng = SplitMix64(2204)
    built = build_code(3, 3, 8, rng=rng)
    codes = [built, GoppaCode.from_text(built.to_text()), build_code(3, 3, 4, rng=rng, irreducible_only=False),
             build_code(5, 2, 3, rng=rng), build_code(3, 6, 4, rng=rng)]
    assert [c._frobenius is None for c in codes] == [False, True, True, False, False]
    for code in codes:
        f, g = code.field, code.g
        inverse, a = code.pth_roots(pth_root_mod)
        assert a.shape == (f.p - 1, code.t, f.m)
        assert [Poly(f, row.tolist()) for row in a @ f.p ** np.arange(f.m)] == [pth_root_mod(Poly.monomial(f, k), g) for k in range(1, f.p)]
        for _ in range(5):
            z = Poly(f, [rng.randrange(f.q) for _ in range(2 * code.t)])
            assert pth_root_mod(z, g, inverse=inverse) == pth_root_mod(z, g)
        s = invertible_syndrome(code, rng)
        s_inv = inv_mod(s, g)
        assert key_lattices(code, s) == [reference_key_lattice(code, s_inv, phi) for phi in range(1, f.p)]


def test_decode_takes_two_roots_per_radicand_index(monkeypatch):
    # a_k and b_k for k = 1..p-1, shared by every phi: 2(p-1) roots, not
    # (p-1)**2.  The code takes its a_k by pth_root_mod on its first decode
    # and keeps them; every decode takes its b_k as one product of p-1 rows
    calls, products = [], []
    real, real_rows = decoder.pth_root_mod, decoder._pth_roots
    monkeypatch.setattr(decoder, "pth_root_mod", lambda z, g, **kw: calls.append(z) or real(z, g, **kw))
    monkeypatch.setattr(decoder, "_pth_roots", lambda rows, *args: products.append(len(rows)) or real_rows(rows, *args))
    rng = SplitMix64(2021)
    code = build_code(5, 2, 4, rng=rng)
    for roots in (5 - 1, 0):
        e = sample_error(code.n, 2, "uniform", 5, rng)
        cw = code.random_codeword(rng)
        calls.clear()
        products.clear()
        assert cw in decode(code, corrupt(cw, e, 5)).codewords()
        assert len(calls) == roots
        assert products == [5 - 1]


def test_assemble_locator_examples():
    f3 = make_field(3, 1)
    one = Poly.one(f3)
    zero = Poly.zero(f3)
    assert assemble_locator([one, zero, zero], 6) == one
    # a = (x + c, 0, 0) assembles to (x + c)^3 = x^3 + c^3
    for c in range(3):
        sigma = assemble_locator([Poly(f3, (c, 1)), zero, zero], 6)
        assert sigma == Poly(f3, ((c**3) % 3, 0, 0, 1))
    # a = (c, 1, 0) assembles to c^3 + x
    for c in range(3):
        sigma = assemble_locator([Poly(f3, (c,)), one, zero], 6)
        assert sigma == Poly(f3, ((c**3) % 3, 1))


def test_assemble_locator_degree_filter():
    f3 = make_field(3, 1)
    big = Poly(f3, (1, 1, 1))  # degree 2 > (4 - 0) // 3
    assert assemble_locator([big, Poly.zero(f3), Poly.zero(f3)], 4) is None


def test_assemble_locator_checks_every_bound_before_any_power(monkeypatch):
    # a row rejected at a_2 takes no p-th power of a_0 or a_1 first
    f3 = make_field(3, 1)
    powers = []

    class Counting:  # the p-th power lookup, recording each read
        def __getitem__(self, a):
            powers.append(a)
            return f3.pow(a, 3)

    monkeypatch.setattr(f3, "_ppow", Counting())
    row = [Poly(f3, (1, 2)), Poly(f3, (2,)), Poly(f3, (1, 1, 1))]
    assert assemble_locator(row, 5) is None
    assert powers == []
    assert assemble_locator(row[:2] + [Poly(f3, (1, 1))], 5) == Poly(f3, (1, 2, 1, 2, 0, 1))
    assert powers == [1, 2, 2, 1, 1]


@st.composite
def exact_degree_polys(draw, f, deg):
    """A polynomial of degree exactly deg over f (zero for deg = -1)."""
    if deg < 0:
        return Poly.zero(f)
    low = [draw(st.integers(0, f.q - 1)) for _ in range(deg)]
    return Poly(f, low + [draw(st.integers(1, f.q - 1))])


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_assemble_locator_matches_poly_sum(data):
    # the pivot comparison rejects exactly the rows the per-entry bounds
    # reject, and otherwise gives the same sigma as summing Poly terms;
    # degrees from a narrow range make zero entries and ties common
    f = make_field(*data.draw(st.sampled_from(PROPERTY_FIELDS + [(11, 1)])))
    p = f.p
    t = data.draw(st.integers(-1, 3 * p))
    top = data.draw(st.integers(-1, 4))
    row = [data.draw(exact_degree_polys(f, data.draw(st.integers(-1, top)))) for _ in range(p)]
    expected = assemble_locator_reference(row, t)
    sigma = assemble_locator(row, t)
    assert (sigma is None) == (expected is None)
    assert sigma == expected


@pytest.mark.parametrize("p, m, t", [(3, 3, 6), (5, 2, 6), (7, 2, 12)])
def test_padded_rows_compose_as_padded_to_their_longest_entry(p, m, t):
    # _padded gives every row the solve's (p, t//p + 1) shape and zeroes a
    # row with a longer entry, which breaks a degree bound; composing rows
    # padded to their longest entry instead must keep the same rows and
    # give the same sigmas.  Reduced key lattices, then random rows where
    # every other row has an entry of length t//p + 2
    rng = SplitMix64(4900 + p)
    code = build_code(p, m, t, rng=rng)
    f, width = code.field, t // p + 1
    rows = []
    while len(rows) < 12 * p:
        e = sample_error(code.n, 1 + rng.randrange(2 * t // p), "uniform", p, rng)
        try:
            rows += [row for basis in key_lattices(code, syndrome_poly(code, e.values)) for row in weak_popov_reduce(basis)]
        except NotInvertibleError:
            continue
    for r in range(40):
        lengths = [rng.randrange(max(0, (t - j) // p + 2)) for j in range(p)]
        if r % 2:
            lengths[rng.randrange(p)] = width + 1
        rows.append([Poly(f, [rng.randrange(f.q) for _ in range(n - 1)] + [1 + rng.randrange(f.q - 1)]) if n else Poly.zero(f) for n in lengths])
    long = [max(len(e.coeffs) for e in row) > width for row in rows]
    padded = decoder._padded(rows, t, p)
    assert padded.shape == (len(rows), p, width)
    assert not padded[long].any()
    kept, sigmas = _pth_power_compose(padded, t, f)
    wide = max(len(e.coeffs) for row in rows for e in row)
    want_kept, want_sigmas = _pth_power_compose(np.array([[e.coeffs + (0,) * (wide - len(e.coeffs)) for e in row] for row in rows]), t, f)
    assert any(long) and kept and not set(kept) & set(np.flatnonzero(long).tolist())
    assert kept == want_kept and np.array_equal(sigmas, want_sigmas)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_assemble_locator_at_t_below_one(p):
    # t = 0 admits only a nonzero constant a_0, whose sigma is 1; t = -1
    # admits no row.  Both pad to width 1
    f = make_field(p, 1)
    zero = Poly.zero(f)
    for c in range(1, p):
        const, x = Poly(f, (c,)), Poly(f, (0, c))
        for t, row in [(0, [const] + [zero] * (p - 1)), (0, [zero, const] + [zero] * (p - 2)), (0, [x] + [zero] * (p - 1)),
                       (-1, [const] + [zero] * (p - 1)), (0, [zero] * p), (-1, [zero] * p)]:
            assert decoder._padded([row], t, p).shape == (1, p, 1)
            assert assemble_locator(row, t) == assemble_locator_reference(row, t)
        assert assemble_locator([const] + [zero] * (p - 1), 0) == Poly.one(f)


@pytest.mark.parametrize("length", [0, 2, 4])
def test_assemble_locator_rejects_a_row_of_the_wrong_length(length):
    # a row over GF(3) has exactly 3 entries, one per residue of j mod 3
    f3 = make_field(3, 1)
    with pytest.raises(ParamError, match="p polynomials over one field"):
        assemble_locator([Poly(f3, (1,))] * length, 6)


def test_assemble_locator_rejects_a_row_over_mixed_fields():
    # a GF(9) entry in a GF(3) row would put GF(9) ranks into sigma
    f3, f9 = make_field(3, 1), make_field(3, 2)
    one, zero = Poly.one(f3), Poly.zero(f3)
    for row in ([Poly(f9, (5,)), one, zero], [one, Poly(f9, (5,)), zero]):
        with pytest.raises(ParamError, match="p polynomials over one field"):
            assemble_locator(row, 6)
    # an equal field that is a distinct object is the same field
    twin = Field(3, 1, f3.modulus)
    assert twin is not f3
    assert assemble_locator([one, Poly.one(twin), zero], 6) == Poly(f3, (1, 1))


def test_assemble_decompose_roundtrip():
    rng = SplitMix64(2007)
    f = make_field(3, 2)
    for _ in range(100):
        t = 3 + rng.randrange(6)
        sigma = Poly(f, [rng.randrange(9) for _ in range(t)] + [1])
        parts = pth_power_decompose(sigma)
        back = assemble_locator(parts, t)
        assert back == sigma  # sigma was monic already


def test_find_roots_multiplicities():
    rng = SplitMix64(2008)
    code = build_code(3, 3, 8, rng=rng)
    f = code.field
    sigma = Poly.one(f)
    assert find_roots_multiplicities(sigma, code) == {}
    lin3 = Poly(f, (f.neg(code.L[3]), 1))
    lin7 = Poly(f, (f.neg(code.L[7]), 1))
    sigma = lin3 * lin3 * lin7
    mults = find_roots_multiplicities(sigma, code)
    assert mults == {3: 2, 7: 1}
    assert sum(mults.values()) <= sigma.degree
    with pytest.raises(ValueError):
        find_roots_multiplicities(Poly.zero(f), code)


def scan_roots(sigma, code):
    """Evaluate sigma at each support point in turn; divide out x - L_j
    while it still vanishes there."""
    f = code.field
    out = {}
    for j, lj in enumerate(code.L):
        lin = Poly(f, (f.neg(lj), 1))
        h = sigma
        while evaluate(h, lj) == 0:
            h = divmod(h, lin)[0]
            out[j] = out.get(j, 0) + 1
    return out


def test_roots_match_scan_random():
    rng = SplitMix64(2009)
    # GF(3^6) has no lookup tables, so it takes the generic elementwise path
    for p, m, t in [(2, 4, 3), (3, 2, 4), (5, 2, 3), (3, 6, 3)]:
        code = build_code(p, m, t, n=min(p**m, 40), rng=rng)
        f = code.field
        for _ in range(20):
            sigma = Poly(f, [rng.randrange(f.q) for _ in range(t + 1)])
            if sigma.is_zero():
                continue
            for _ in range(rng.randrange(3)):
                lin = Poly(f, (f.neg(code.L[rng.randrange(code.n)]), 1))
                sigma = sigma * lin * lin
            got = find_roots_multiplicities(sigma, code)
            want = scan_roots(sigma, code)
            assert got == want
            assert list(got) == sorted(got)


def test_decode_zero_syndrome_short_circuit():
    rng = SplitMix64(2010)
    code = build_code(3, 3, 8, rng=rng)
    cw = code.random_codeword(rng)
    out = decode(code, cw)
    assert out.status == "ok"
    assert out.codewords() == [cw]
    assert not any(out.candidates[0].error.values)


def test_decode_single_error():
    rng = SplitMix64(2011)
    for p, m, t in [(2, 4, 3), (3, 3, 8), (5, 2, 12)]:
        code = build_code(p, m, t, rng=rng)
        for phi in range(1, p):
            e = sample_error(code.n, 1, ("equal", phi), p, rng)
            cw = code.random_codeword(rng)
            rx = corrupt(cw, e, p)
            out = decode(code, rx)
            assert cw in out.codewords()
            found = next(c for c in out.candidates if c.codeword == cw)
            assert found.error.values == e.values
            # sigma vanishes only at L_j, with multiplicity mu matching the
            # magnitude through found.phi (the same codeword may be found
            # first at a smaller phi as (x - L_j)**mu)
            j = e.support[0]
            mults = find_roots_multiplicities(found.sigma, code)
            assert mults.keys() == {j}
            mu = mults[j]
            assert (found.phi * mu) % p == phi
            lin = Poly(code.field, (code.field.neg(code.L[j]), 1))
            expect = Poly.one(code.field)
            for _ in range(mu):
                expect = expect * lin
            assert found.sigma == expect


def test_decode_soundness_external_check():
    rng = SplitMix64(2012)
    code = build_code(3, 3, 8, rng=rng)
    for _ in range(30):
        e = sample_error(code.n, 8, "equal", 3, rng)
        cw = code.random_codeword(rng)
        rx = corrupt(cw, e, 3)
        out = decode(code, rx)
        srx = code.syndrome_from_word(rx)
        for cand in out.candidates:
            assert code.contains(cand.codeword)
            assert code.syndrome_from_word(cand.error.values) == srx
            assert cand.codeword == tuple(
                (r - ev) % 3 for r, ev in zip(rx, cand.error.values)
            )


def test_decode_patterson_regime_sample():
    rng = SplitMix64(2013)
    for i in range(100):
        code = build_code(2, 4, 3, 16, rng=rng)
        e = sample_error(16, 3, ("equal", 1), 2, rng)
        cw = code.random_codeword(rng)
        assert cw in decode(code, corrupt(cw, e, 2)).codewords()


@settings(max_examples=50, deadline=None)
@given(st.sampled_from([(2, 4, 3), (2, 5, 6)]), st.integers(0, 2**64 - 1))
def test_binary_full_weight_always_decodes(block, seed):
    # p = 2, irreducible g: every error of weight t is corrected
    p, m, t = block
    rng = SplitMix64(seed)
    code = build_code(p, m, t, rng=rng)
    e = sample_error(code.n, t, ("equal", 1), p, rng)
    cw = code.random_codeword(rng)
    assert cw in decode(code, corrupt(cw, e, p)).codewords()


def test_two_over_p_bound_on_locator_degrees():
    # weight <= (2/p)t: some phi keeps the locator degree within t
    rng = SplitMix64(2014)
    for _ in range(100):
        code = build_code(5, 2, 12, rng=rng)
        w = rng.randrange(1 + (2 * code.t) // 5)
        e = sample_error(code.n, w, "uniform", 5, rng)
        best = min(locator_from_error(code, e, phi).degree for phi in range(1, 5))
        assert best <= code.t


# (p, m, t, largest w): w <= floor(2t/p), and the worst tail
# q**-(t+1-floor(w p/2)) is 49**-4 at (7,2,24) and 81**-5 at (3,4,20)
TWO_OVER_P_BLOCKS = [(7, 2, 24, 6), (3, 4, 20, 11)]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(TWO_OVER_P_BLOCKS), st.data())
def test_two_over_p_weight_decodes_with_any_magnitudes(block, data):
    # some phi has locator degree at most floor(w p / 2) <= t, so only the
    # tail above can lose the zero word, whatever the magnitudes are
    p, m, t, wmax = block
    assert wmax <= 2 * t // p and (p**m) ** -(t + 1 - wmax * p // 2) <= 1e-6
    rng = SplitMix64(data.draw(st.integers(0, 2**64 - 1)))
    code = build_code(p, m, t, rng=rng)
    w = data.draw(st.integers(1, wmax))
    e = [0] * code.n
    for pos in rng.sample(range(code.n), w):
        e[pos] = data.draw(st.integers(1, p - 1))
    assert (0,) * code.n in decode(code, e).codewords()


def test_locator_degree_examples():
    # e_j / phi mod p, lifted into 1..p-1, summed over the nonzero e_j
    e = (1, 1, 2, 0)
    assert [locator_degree(e, phi, 5) for phi in range(1, 5)] == [4, 7, 8, 11]
    assert [locator_degree((3, 3, 3), phi, 7) for phi in (1, 3, 4)] == [9, 3, 18]
    assert locator_degree((1, 0, 1), 1, 2) == 2
    assert locator_degree((0, 0, 0), 2, 3) == 0


@pytest.mark.parametrize("phi", [0, 3, -1, True, 1.5])
def test_locator_degree_rejects_a_scale_guess_outside_one_to_p(phi):
    # phi is a unit of GF(p) named by an integer in 1..p-1: at p = 3, -1
    # would alias 2, and 0 and 3 have no inverse
    with pytest.raises(ParamError, match=r"scale guesses must be integers in \[1, 3\)"):
        locator_degree((1, 2, 0), phi, 3)


@given(st.sampled_from([2, 3, 5, 7, 11]), st.data())
def test_locator_degree_sums_to_w_p_choose_2(p, data):
    # as phi runs over the units, e_j / phi runs over 1..p-1 once: the sum
    # is w p(p-1)/2, so the best phi has degree at most floor(w p / 2)
    e = data.draw(st.lists(st.integers(0, p - 1), max_size=40))
    w = sum(1 for v in e if v)
    degrees = [locator_degree(e, phi, p) for phi in range(1, p)]
    assert sum(degrees) == w * p * (p - 1) // 2
    assert min(degrees) <= w * p // 2


def test_locator_degree_is_degree_of_direct_locator():
    rng = SplitMix64(2019)
    for p, m, t in [(3, 3, 8), (5, 2, 12), (7, 2, 6)]:
        code = build_code(p, m, t, rng=rng)
        e = sample_error(code.n, t, "uniform", p, rng)
        for phi in range(1, p):
            assert locator_degree(e.values, phi, p) == locator_from_error(code, e, phi).degree


def test_decode_scale_guess_boundaries():
    rng = SplitMix64(2248)  # candidates from phi = 1, 2 and 3
    code = build_code(5, 2, 3, rng=rng)
    e = sample_error(code.n, 3, "uniform", 5, rng)
    rx = corrupt(code.random_codeword(rng), e, 5)
    for bad in ([0], [5], [1, 5], [-1], [1.5], [1.0], ["1"], [1, "1"], [True], "1"):
        with pytest.raises(ParamError):
            decode(code, rx, bad)
    full = decode(code, rx)
    assert [c.phi for c in full.candidates] == [1, 2, 3]
    assert decode(code, rx, range(1, 5)).candidates == full.candidates
    assert decode(code, rx, [4, 2, 2, 1, 3]).candidates == full.candidates
    # a subset keeps exactly the candidates of its phi, in the same order
    assert decode(code, rx, [3, 1]).candidates == [c for c in full.candidates if c.phi in (1, 3)]
    assert decode(code, rx, []).candidates == []


def test_decode_uniform_magnitudes_within_bound():
    rng = SplitMix64(2015)
    for _ in range(25):
        code = build_code(5, 2, 12, rng=rng)
        e = sample_error(code.n, 4, "uniform", 5, rng)
        cw = code.random_codeword(rng)
        assert cw in decode(code, corrupt(cw, e, 5)).codewords()


def test_decode_equal_magnitude_sigma_degree():
    rng = SplitMix64(2016)
    code = build_code(3, 3, 8, rng=rng)
    e = sample_error(code.n, 8, ("equal", 2), 3, rng)
    sigma = locator_from_error(code, e, 2)
    assert sigma.degree == 8


def test_decode_deterministic_candidate_order():
    rng = SplitMix64(2017)
    code = build_code(3, 3, 8, rng=rng)
    e = sample_error(code.n, 8, "equal", 3, rng)
    cw = code.random_codeword(rng)
    rx = corrupt(cw, e, 3)
    first = decode(code, rx)
    second = decode(code, rx)
    assert first.codewords() == second.codewords()
    assert [c.phi for c in first.candidates] == [c.phi for c in second.candidates]


def test_decode_non_invertible_syndrome_returns_empty():
    # composite square-free g = g1 * g2; a word in the g1-subcode but not in
    # the full code has a syndrome divisible by g1, hence not invertible
    rng = SplitMix64(2018)
    f = make_field(3, 2)
    while True:
        g1 = random_irreducible(2, f, rng)
        g2 = random_irreducible(2, f, rng)
        if g1 != g2:
            break
    g = g1 * g2
    support = [a for a in f.elements() if evaluate(g, a) != 0]
    code = GoppaCode(f, support, g)
    sub = GoppaCode(f, support, g1)
    for _ in range(100):
        w = sub.random_codeword(rng)
        if not code.contains(w):
            out = decode(code, w)
            assert out.status == "empty"
            assert out.candidates == []
            break
    else:
        pytest.fail("never sampled a subcode word outside the full code")


def test_decode_rejects_wrong_length():
    rng = SplitMix64(2019)
    code = build_code(3, 2, 2, rng=rng)
    for n in (code.n + 1, code.n - 1):
        with pytest.raises(ParamError):
            decode(code, (0,) * n)


def test_decode_rejects_entries_outside_prime_field():
    # at p = 3, an entry 5 is no residue; it must not be read as a GF(9) rank
    code = build_code(3, 2, 2, rng=SplitMix64(2020))
    for bad in (5, 3, -1):
        word = [0] * code.n
        word[1] = bad
        with pytest.raises(ParamError):
            decode(code, word)


# -- the bounded space: decode solves for it where it tries three or more
# scale guesses, and reduces a basis only where its dimension is 2 or more

# (p, m, t, irreducible g): p = 2 and 3 decode by the reduction alone, so
# the property calls the solve directly; composite g; GF(5**4) has computed
# lookups
SOLVE_BLOCKS = [(2, 3, 2, True), (3, 2, 4, True), (3, 3, 4, False), (5, 2, 3, False), (5, 2, 4, True),
                (7, 1, 3, True), (7, 2, 1, True), (5, 4, 3, True)]


def key_columns(code, s, phis):
    """Entry 0 of rows 1..p-1 of each phi's `key_lattices` basis, as a
    (len(phis), p-1, t) array of ranks, zero-padded."""
    bases, t = key_lattices(code, s), code.t
    cols = [[row[0].coeffs + (0,) * (t - len(row[0].coeffs)) for row in bases[phi - 1][1:]] for phi in phis]
    return np.array(cols, dtype=np.int64).reshape(len(phis), code.field.p - 1, t)


def solve_all(code, s):
    """The solve over every scale guess of syndrome s, as decode runs it."""
    f = code.field
    a, b = decoder._key_parts(code, s)
    return _bounded_rows(_bounded_system(code.mul_x, a, b, range(1, f.p), f), f)


def as_lists(solved, rows):
    """`_bounded_rows`' (solved, rows) in `oracles.bounded_rows_reference`'s
    form: [row] of p trimmed coefficient lists per solved stack, else None."""
    found, out = iter(rows.tolist()), []
    for ok in solved.tolist():
        row = next(found) if ok else None
        for c in row or ():
            while c and not c[-1]:
                c.pop()
        out.append(row and [row])
    return out


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SOLVE_BLOCKS), st.integers(0, 2**64 - 1), st.data())
def test_bounded_system_equals_the_rank_shift_reference(block, seed, data):
    # the system built by shifting the two phi-free digit parts, then
    # forming phi*b - a, equals the one built by shifting each guess's
    # combined rank columns in GF(q) arithmetic, for any set of guesses
    p, m, t, irreducible = block
    rng = SplitMix64(seed)
    code = build_code(p, m, t, 40 if p**m > 512 else None, rng=rng, irreducible_only=irreducible)
    f = code.field
    s = invertible_syndrome(code, rng)
    a, b = decoder._key_parts(code, s)
    phis = sorted(data.draw(st.sets(st.integers(1, p - 1), min_size=1)))
    system = _bounded_system(code.mul_x, a, b, phis, f)
    want = bounded_system_reference(code.g, key_columns(code, s, phis))
    assert system.dtype == np.int64 and system.flags.c_contiguous
    assert np.array_equal(system, want)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SOLVE_BLOCKS), st.integers(0, 2**64 - 1))
def test_bounded_rows_follow_the_dimension_of_the_reduced_basis(block, seed):
    # one row where the weak Popov form bounds a space of dimension 1, as p
    # zero-padded coefficient rows of ranks within the bounds, with the
    # monic sigma of its one degree-valid row; none where it is 2 or more;
    # never 0, as the unknowns outnumber the equations by one
    p, m, t, irreducible = block
    rng = SplitMix64(seed)
    code = build_code(p, m, t, 40 if p**m > 512 else None, rng=rng, irreducible_only=irreducible)
    f = code.field
    s = invertible_syndrome(code, rng)
    solved, rows = solve_all(code, s)
    assert solved.dtype == bool and rows.dtype == np.int64
    assert rows.shape == (solved.sum(), p, t // p + 1)
    assert ((0 <= rows) & (rows < f.q)).all()
    for k in range(1, p):
        assert not rows[:, k, max(0, (t - k) // p + 1) :].any()  # deg(a_k) <= (t - k) // p
    found = iter(rows)
    for basis, ok in zip(key_lattices(code, s), solved.tolist(), strict=True):
        reduced = weak_popov_reduce(basis)
        d = bounded_dimension(reduced, t)
        assert d >= 1
        assert ok == (d == 1)
        if ok:
            kept, sigmas = _pth_power_compose(next(found)[None], t, f)
            want = [sigma for sigma in map(lambda row: assemble_locator(row, t), reduced) if sigma is not None]
            assert kept == [0] and len(want) == 1
            assert Poly(f, sigmas[0].tolist()) == want[0]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SOLVE_BLOCKS), st.integers(0, 2**64 - 1))
def test_bounded_rows_equal_the_stack_major_reference(block, seed):
    # the same rows, none in the same places, as the stack-major
    # elimination, with crafted stacks in one system next to the key
    # columns of a drawn syndrome, all built by the rank-shift reference:
    # all zero, c_2 = c_1 and a zero residue c_k.  Their free columns come
    # before the last one, and the all-zero stack's space has dimension 2
    # or more wherever there is an equation, so every such example runs a
    # step where only some stacks hold a pivot
    p, m, t, irreducible = block
    rng = SplitMix64(seed)
    code = build_code(p, m, t, 40 if p**m > 512 else None, rng=rng, irreducible_only=irreducible)
    f = code.field
    drawn = key_columns(code, invertible_syndrome(code, rng), range(1, p))
    zero, twin, gap = np.zeros_like(drawn[0]), drawn[0].copy(), drawn[-1].copy()
    twin[1:2] = twin[0]  # c_2 = c_1 where p >= 3
    gap[rng.randrange(p - 1)] = 0
    stacks = list(drawn)
    for crafted in (zero, twin, gap):
        stacks.insert(rng.randrange(len(stacks) + 1), crafted)
    columns = np.stack(stacks)
    eqs = t - 1 - t // p
    assume(eqs == 0 or columns[:, 0, t // p + 1 :].any())  # some stack holds a pivot at unknown 0
    solved = as_lists(*_bounded_rows(bounded_system_reference(code.g, columns), f))
    assert solved == bounded_rows_reference(code.g, columns)
    if eqs:
        assert solved[next(b for b, c in enumerate(stacks) if c is zero)] is None


@pytest.mark.parametrize("block", [(5, 2, 12, 25), (5, 4, 3, 3), (7, 2, 1, 3)])
def test_bounded_rows_leave_their_columns_unchanged(block):
    # the solve's inputs are the code's own a_k digits and mul_x, which
    # every later decode reads again, and the b_k digits; a solve that wrote
    # through them would corrupt those decodes without an error.  Inputs
    # passed whole and as views; the system is a new array, which the
    # elimination may overwrite
    p, m, t, seed = block
    rng = SplitMix64(seed)
    code = build_code(p, m, t, 40 if p**m > 512 else None, rng=rng)
    f = code.field
    a, b = decoder._key_parts(code, invertible_syndrome(code, rng))
    mul_x = code.mul_x
    before = a.copy(), b.copy(), mul_x.copy()
    for view in (np.s_[:], np.s_[::-1], np.s_[..., ::-1]):
        system = _bounded_system(mul_x, a[view], b[view], range(1, p), f)
        assert not any(np.shares_memory(system, x) for x in (a, b, mul_x))
        _bounded_rows(system, f)
        assert all(np.array_equal(x, y) for x, y in zip((a, b, mul_x), before))
    for _ in range(3):
        rx = corrupt(code.random_codeword(rng), sample_error(code.n, t, "uniform", p, rng), p)
        decode(code, rx)
        assert code.pth_roots(pth_root_mod)[1] is a and code.mul_x is mul_x
        assert all(np.array_equal(x, y) for x, y in zip((a, mul_x), before[::2]))


def test_decode_builds_mul_x_only_where_it_solves(monkeypatch):
    # decodes of one or two scale guesses reduce every basis and never
    # build the code's multiplication-by-x matrix; the first decode of
    # three or more builds it once, and later ones reuse it
    built = []
    real = goppa._mul_x_matrix
    monkeypatch.setattr(goppa, "_mul_x_matrix", lambda field, gc: built.append(len(gc)) or real(field, gc))
    rng = SplitMix64(47)
    for p, m, t in [(3, 3, 6), (5, 2, 6)]:
        code = build_code(p, m, t, rng=rng)
        for phis in ([1], [1, 2], None, None):
            rx = corrupt(code.random_codeword(rng), sample_error(code.n, 2, "uniform", p, rng), p)
            decode(code, rx, phis)
        assert (code._mul_x is None) == (p == 3)
    assert built == [1]


# (p, m, t, n): every decode here tries p - 1 >= 4 scale guesses; GF(5**4)
# has computed lookups, so a short support
REFERENCE_BLOCKS = [(5, 2, 12, None), (7, 2, 8, None), (11, 1, 5, None), (5, 3, 6, None), (5, 4, 3, 40)]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(REFERENCE_BLOCKS), st.sampled_from(["equal", "uniform"]), st.integers(0, 1), st.integers(0, 2**64 - 1))
def test_decode_equals_the_reference_decode(block, dist, beyond, seed):
    # candidate for candidate, in order, against reducing every basis, at
    # w = t and at w = t + 1, where the list rarely holds the truth
    p, m, t, n = block
    rng = SplitMix64(seed)
    code = build_code(p, m, t, n, rng=rng)
    e = sample_error(code.n, t + beyond, dist, p, rng)
    rx = corrupt(code.random_codeword(rng), e, p)
    assert decode(code, rx).candidates == reference_decode(code, rx).candidates


@pytest.mark.parametrize("block", [(5, 1, 1), (7, 1, 1), (5, 2, 1), (5, 1, 2), (7, 1, 3)])
def test_decode_at_t_below_p_equals_the_reference_decode(block):
    # t - 1 - t//p equations: none at t = 1, where a nonzero syndrome gives
    # every scale guess a sigma x - L for one support point L: p - 1
    # candidates
    p, m, t = block
    rng = SplitMix64(4300 + 10 * p + t)
    for _ in range(4):
        code = build_code(p, m, t, rng=rng)
        for w, dist in [(t, "equal"), (t, "uniform"), (t + 1, "uniform")]:
            rx = corrupt(code.random_codeword(rng), sample_error(code.n, w, dist, p, rng), p)
            got = decode(code, rx).candidates
            assert got == reference_decode(code, rx).candidates
            if t == 1 and any(code.syndrome_from_word(rx)):
                assert len(got) == p - 1


def test_decode_reduces_only_a_guess_whose_bounded_space_has_dimension_two(monkeypatch):
    # (5,2,12), w = t, magnitude 4: the bounded space of phi = 4 has
    # dimension 2, and its reduced basis still holds the true locator
    reduced = []
    monkeypatch.setattr(decoder, "weak_popov_reduce", lambda rows: reduced.append(rows) or weak_popov_reduce(rows))
    rng = SplitMix64(25)
    code = build_code(5, 2, 12, rng=rng)
    e = sample_error(code.n, 12, "equal", 5, rng)
    cw = code.random_codeword(rng)
    rx = corrupt(cw, e, 5)
    got = decode(code, rx)
    bases = key_lattices(code, Poly(code.field, code.syndrome_from_word(rx)))
    assert reduced == [bases[3]]
    assert bounded_dimension(weak_popov_reduce(bases[3]), 12) == 2
    assert got.candidates == reference_decode(code, rx).candidates
    assert [(c.codeword, c.phi) for c in got.candidates] == [(cw, 4)]


def test_decode_drops_a_wrong_guess_whose_sigma_has_roots():
    # (7,2,24), w = t, magnitude 1: every guess has a bounded space of
    # dimension 1, and the sigma of phi = 4 vanishes at support points with
    # multiplicities summing to 4, but its error fails the syndrome check;
    # the list is the truth alone, as reducing every basis gives
    rng = SplitMix64(44)
    code = build_code(7, 2, 24, rng=rng)
    e = sample_error(code.n, 24, ("equal", 1), 7, rng)
    cw = code.random_codeword(rng)
    rx = corrupt(cw, e, 7)
    s_vec = code.syndrome_from_word(rx)
    solved, found = solve_all(code, Poly(code.field, s_vec))
    assert solved.all()
    kept, sigmas = _pth_power_compose(found, 24, code.field)
    mults = _root_multiplicities(code.field, sigmas, code.L, 24)
    assert kept == list(range(6)) and mults.sum(axis=1).tolist() == [24, 0, 0, 4, 0, 0]
    assert code.syndrome_from_word((4 * mults[3] % 7).tolist()) != s_vec
    got = decode(code, rx).candidates
    assert [(c.codeword, c.phi) for c in got] == [(cw, 1)]
    assert got == reference_decode(code, rx).candidates


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint64, np.int8, np.int64, None],
                         ids=["uint8", "uint16", "uint64", "int8", "int64", "list"])
def test_decode_gives_int_codewords_for_any_integer_word(dtype):
    # an unsigned word once wrapped in r - e and gave non-codewords; a
    # corrupted word and a codeword (the zero-syndrome short circuit)
    rng = SplitMix64(3)
    code = build_code(7, 2, 24, rng=rng)
    cw = code.random_codeword(rng)
    rx = corrupt(cw, sample_error(code.n, 24, "equal", 7, rng), 7)
    for word in (rx, cw):
        got = decode(code, list(word) if dtype is None else np.array(word, dtype=dtype)).candidates
        assert got and got == decode(code, list(word)).candidates
        for c in got:
            assert code.contains(c.codeword) and all(type(v) is int for v in c.codeword)
