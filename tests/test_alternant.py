"""Alternant probe tests: syndrome paths, p-th-power detection mod x**r,
the key-equation identity, end-to-end recovery on feasible instances, the
structural infeasibility in odd characteristic, and the probe's exact law."""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pgoppa.alternant import (
    AlternantCode,
    alternant_syndrome,
    feasibility_probe,
    predicted_feasibility,
    random_restricted_alternant,
    recover_error_values,
    try_build_alternant_lattice,
)
from pgoppa.decoder import assemble_locator, find_roots_multiplicities, key_lattices
from pgoppa.errors import NotInvertibleError, ParamError
from pgoppa.fields import make_field
from pgoppa.goppa import build_code
from pgoppa.polyring import Poly, inv_mod, pth_power_decompose
from pgoppa.popov import weak_popov_reduce
from pgoppa.rng import SplitMix64

from oracles import (
    alternant_locator_from_error,
    evaluate,
    poly_pth_power,
    reference_alternant_lattice,
    root_multiplicity,
    shift,
)


def alternant_syndrome_series(code, e):
    """Same syndrome via sum_j e_j * D_j / (1 - x L_j) mod x**r, D_j = xi_j * L_j."""
    f = code.field
    xr = Poly.monomial(f, code.r)
    acc = Poly.zero(f)
    for j, ej in enumerate(e):
        if ej:
            denom = Poly(f, (1, f.neg(code.L[j])))
            acc = acc + inv_mod(denom, xr).scale(f.mul(ej, f.mul(code.xi[j], code.L[j])))
    return acc % xr


def random_error(code, w, rng):
    e = [0] * code.n
    for pos in rng.sample(range(code.n), w):
        e[pos] = 1 + rng.randrange(code.field.p - 1)
    return e


def test_code_validation():
    f = make_field(3, 2)
    with pytest.raises(ParamError):
        AlternantCode(f, (0, 1), (1, 1), 2)  # zero support element
    y = f.from_coeffs((0, 1))
    with pytest.raises(ParamError):
        AlternantCode(f, (y, 1), (y, 1), 2)  # xi = y not in GF(p)
    for r in (0, 1.5, 2.0, True):  # syndrome length: an integer >= 1
        with pytest.raises(ParamError, match="syndrome length"):
            AlternantCode(f, (1, 2), (2, 1), r)
    assert AlternantCode(f, (1, 2), (2, 1), 2).n == 2


@pytest.mark.parametrize(
    "support, xi, message",
    [((1, 2), (1,), "must have equal length"),  # one ratio per support element
     ((1, 1), (2, 1), "support elements must be distinct")],
)
def test_code_rejects_a_malformed_support(support, xi, message):
    with pytest.raises(ParamError, match=message):
        AlternantCode(make_field(3, 2), support, xi, 2)


def test_code_rejects_ranks_outside_the_field():
    # support ranks are integers in [1, q) and ratios integers in [1, p),
    # checked before any table lookup: 500 would index past GF(9)'s tables,
    # -1 from their end, and 1.5 is no index at all
    f = make_field(3, 2)
    for support, xi in [((1, 500), (1, 1)), ((1, -1), (1, 1)), ((1, 9), (1, 1)),
                        ((1, 2), (1, 3)), ((1, 2), (0, 1)), ((1, 2), (1, -2)),
                        ((1.5, 2), (1, 1)), ((1.0, 2), (1, 1)), (("1", 2), (1, 1)), ((True, 2), (1, 1)),
                        ((1, 2), (1.0, 1)), ((1, 2), (0.5, 1)), ((1, 2), ("1", 1))]:
        with pytest.raises(ParamError, match="must be integers in"):
            AlternantCode(f, support, xi, 1)
    # NumPy integers are integers
    assert AlternantCode(f, tuple(np.arange(1, 3)), (np.int64(2), 1), 1).n == 2


def test_syndrome_rejects_a_wrong_length_or_entry():
    code = random_restricted_alternant(3, 2, 2, SplitMix64(3011))
    for e in ([1], [0] * (code.n - 1), [0] * (code.n + 1),
              [5] + [0] * (code.n - 1), [3] + [0] * (code.n - 1), [-1] + [0] * (code.n - 1),
              [1.0] + [0] * (code.n - 1), [0.5] + [0] * (code.n - 1), ["1"] + [0] * (code.n - 1),
              [None] + [0] * (code.n - 1)):
        with pytest.raises(ParamError):
            alternant_syndrome(code, e)


def test_random_restricted_alternant_shape():
    rng = SplitMix64(3000)
    code = random_restricted_alternant(3, 2, 4, rng)
    assert code.n == 8
    assert sorted(code.L) == list(range(1, 9))
    assert all(1 <= x <= 2 for x in code.xi)


@pytest.mark.parametrize("p,m,r", [(2, 3, 5), (3, 4, 1), (7, 1, 1), (3, 6, 1)])
def test_drawn_code_passes_the_public_checks(p, m, r):
    # random_restricted_alternant builds its code without __post_init__:
    # each draw must equal the code the checked constructor builds from it,
    # from the same draws in the same order as a replay of the stream
    for seed in range(5):
        rng, replay = SplitMix64(seed), SplitMix64(seed)
        code = random_restricted_alternant(p, m, r, rng)
        assert code == AlternantCode(code.field, code.L, code.xi, code.r)
        q = p**m
        assert code.L == tuple(replay.sample(range(1, q), q - 1))
        assert code.xi == tuple(1 + v for v in replay.randranges([p - 1] * (q - 1)))
        assert rng.state == replay.state


@pytest.mark.parametrize("r", [0, 1.5, True])
def test_bad_syndrome_length_raises_before_any_draw(r):
    for draw in (lambda rng: random_restricted_alternant(3, 2, r, rng),
                 lambda rng: feasibility_probe(3, 4, r, 5, rng)):
        rng = SplitMix64(3001)
        state = rng.state
        with pytest.raises(ParamError, match="syndrome length"):
            draw(rng)
        assert rng.state == state


def test_syndrome_zero_and_single():
    rng = SplitMix64(3001)
    code = random_restricted_alternant(3, 2, 4, rng)
    assert alternant_syndrome(code, [0] * code.n).is_zero()
    f = code.field
    e = [0] * code.n
    e[2] = 1
    s = alternant_syndrome(code, e)
    d2 = f.mul(code.xi[2], code.L[2])
    expect = [f.mul(d2, f.pow(code.L[2], i)) for i in range(code.r)]
    assert list(s.coeffs) + [0] * (code.r - len(s.coeffs)) == expect


def test_syndrome_two_paths_agree():
    # r up to 6 on tabled fields, and GF(3^6), whose lookups are computed
    rng = SplitMix64(3002)
    for p, m, r, codes in [(2, 3, 4, 170), (3, 2, 5, 170), (5, 1, 4, 170),
                           (2, 4, 6, 40), (3, 2, 6, 40), (7, 1, 6, 40), (3, 6, 3, 3)]:
        for _ in range(codes):
            code = random_restricted_alternant(p, m, r, rng)
            e = [rng.randrange(p) for _ in range(code.n)]
            assert alternant_syndrome(code, e) == alternant_syndrome_series(code, e)


def test_pth_power_decompose_detects_pth_powers_mod_xr():
    # the probe's test: u of degree < r is a p-th power mod x**r iff parts
    # 1..p-1 of its split vanish, and part 0 is then its root
    f = make_field(3, 2)
    rng = SplitMix64(3003)
    for _ in range(100):
        h = Poly(f, [rng.randrange(9) for _ in range(3)])
        power = poly_pth_power(h) % Poly.monomial(f, 7)
        root, *rest = pth_power_decompose(power)
        assert not any(rest)
        assert poly_pth_power(root) % Poly.monomial(f, 7) == power
    # a nonzero coefficient at a non-multiple-of-p index has no root
    assert pth_power_decompose(Poly.x(f))[1]
    assert any(pth_power_decompose(Poly(f, (1, 0, 0, 2, 1)))[1:])  # index 4 term


def test_key_equation_identity_mod_xr():
    # -phi * sigma' == sigma * s  (mod x^r), exact on every instance
    rng = SplitMix64(3004)
    for p, m, r in [(2, 2, 4), (3, 1, 3), (3, 2, 4), (5, 1, 5)]:
        f = make_field(p, m)
        xr = Poly.monomial(f, r)
        for _ in range(60):
            code = random_restricted_alternant(p, m, r, rng)
            e = random_error(code, 1 + rng.randrange(min(code.n, 3)), rng)
            phi = 1 + rng.randrange(p - 1)
            sigma = alternant_locator_from_error(code, e, phi)
            s = alternant_syndrome(code, e)
            assert (-(sigma.deriv().scale(phi))) % xr == (sigma * s) % xr


def test_locator_roots_are_inverse_supports():
    rng = SplitMix64(3005)
    code = random_restricted_alternant(2, 3, 4, rng)
    e = random_error(code, 2, rng)
    sigma = alternant_locator_from_error(code, e, 1)
    f = code.field
    for j in range(code.n):
        if e[j]:
            assert evaluate(sigma, f.inv(code.L[j])) == 0


def test_end_to_end_feasible_binary_instances():
    # built backwards from a chosen error: low-weight binary instances are
    # feasible and the reduction recovers positions and magnitudes
    recovered = 0
    for p, m, r in [(2, 1, 2), (2, 2, 4), (2, 3, 4), (2, 2, 6)]:
        for seed in range(12):
            rng = SplitMix64(seed)
            code = random_restricted_alternant(p, m, r, rng)
            e = random_error(code, 1 + rng.randrange(min(code.n, 2)), rng)
            truth = {j: v for j, v in enumerate(e) if v}
            s = alternant_syndrome(code, e)
            basis = try_build_alternant_lattice(code, s, 1)
            assert basis is not None
            xr = Poly.monomial(code.field, r)
            assert basis[0][0] == xr
            s_inv = inv_mod(s, xr)
            for k in range(1, p):
                u = (Poly.monomial(code.field, k) + shift(s_inv, k - 1).scale(k % p)) % xr
                assert poly_pth_power(-basis[k][0]) % xr == u
            reduced = weak_popov_reduce(basis)
            hit = False
            for row in reduced:
                sigma = assemble_locator(row, r)
                if sigma is None:
                    continue
                if recover_error_values(code, sigma, 1) == truth:
                    hit = True
            assert hit
            recovered += 1
    assert recovered == 48


def test_odd_characteristic_structural_infeasibility():
    # for p >= 3 and r >= 2 the radicand u_2 keeps 2*phi/s(0) != 0 at index
    # 1, never a multiple of p and kept mod x**r: no instance is feasible
    rng = SplitMix64(3006)
    for p, m, r in [(3, 1, 4), (3, 2, 3), (5, 1, 5), (5, 1, 2), (7, 1, 3), (7, 2, 2)]:
        feasible = 0
        for _ in range(150):
            code = random_restricted_alternant(p, m, r, rng)
            e = [rng.randrange(p) for _ in range(code.n)]
            s = alternant_syndrome(code, e)
            try:
                if try_build_alternant_lattice(code, s, 1) is not None:
                    feasible += 1
            except NotInvertibleError:
                pass
        assert feasible == 0


# (m, r) blocks whose code syndromes are compared too, by p
CODE_SYNDROME_BLOCKS = {2: [(2, 4), (3, 5)], 3: [(4, 1)], 5: [(2, 1)], 7: [(1, 1)], 11: [(1, 1)]}


@pytest.mark.parametrize("p,m", [(2, 3), (3, 2), (5, 1), (7, 1), (11, 1)])
def test_lattice_equals_poly_built_reference(p, m):
    # the radicands -u_k filled and stride-tested as coefficient lists give
    # the Poly-built lattice, None and NotInvertibleError alike, for r from
    # 1 to p + 2 and every phi, and on 100 code syndromes of each block in
    # CODE_SYNDROME_BLOCKS; at r = 1 the stride test is vacuous, so an
    # invertible syndrome is always feasible.  Past p = 2, -1 != 1 and
    # -phi*k covers coefficients other than +-1
    f = make_field(p, m)
    rng = SplitMix64(3014 + p)
    cases = []
    for r in range(1, p + 3):
        code = AlternantCode(f, (1,), (1,), r)
        cases += [(code, Poly(f, [rng.randrange(f.q) for _ in range(r)])) for _ in range(60)]
    for bm, br in CODE_SYNDROME_BLOCKS[p]:
        for _ in range(100):
            code = random_restricted_alternant(p, bm, br, rng)
            cases.append((code, alternant_syndrome(code, rng.randranges([p] * code.n))))
    outcomes = set()
    for code, s in cases:
        for phi in range(1, p):
            try:
                want = reference_alternant_lattice(code, s, phi)
            except NotInvertibleError:
                with pytest.raises(NotInvertibleError):
                    try_build_alternant_lattice(code, s, phi)
                outcomes.add("not invertible")
                continue
            assert try_build_alternant_lattice(code, s, phi) == want
            assert want is not None or code.r > 1
            outcomes.add("infeasible" if want is None else "feasible")
    assert outcomes == {"not invertible", "infeasible", "feasible"}


OFF_FIELD = {None: "over GF(27)", (99, 1): "rank 99", (-1, 1): "rank -1"}
POLY_STEPS = [("try_build_alternant_lattice", "syndrome"), ("recover_error_values", "locator"),
              ("find_roots_multiplicities", "locator"), ("key_lattices", "syndrome")]


@pytest.mark.parametrize(
    "step, what, coeffs",
    [(step, what, c) for step, what in POLY_STEPS for c in OFF_FIELD]
    + [(step, what, ()) for step, what in POLY_STEPS if what == "locator"],
    ids=lambda v: {**OFF_FIELD, (): "zero"}.get(v),
)
def test_a_polynomial_off_the_codes_field_is_rejected(step, what, coeffs):
    # a Poly over another field, or with a rank outside [0, q), used to give
    # a bare ValueError or IndexError, None, or a root map read from the
    # wrong tables; each public step now names the argument in a ParamError.
    # The zero locator has no root multiplicities, also a ParamError
    alternant = random_restricted_alternant(3, 2, 2, SplitMix64(1))
    goppa = build_code(3, 2, 2, rng=SplitMix64(2))
    assert goppa.field == alternant.field  # GF(9)
    poly = Poly(make_field(3, 3), (1, 1)) if coeffs is None else Poly(alternant.field, coeffs)
    call = {
        "try_build_alternant_lattice": lambda: try_build_alternant_lattice(alternant, poly, 1),
        "recover_error_values": lambda: recover_error_values(alternant, poly, 1),
        "find_roots_multiplicities": lambda: find_roots_multiplicities(poly, goppa),
        "key_lattices": lambda: key_lattices(goppa, poly),
    }[step]
    with pytest.raises(ParamError, match="zero polynomial" if coeffs == () else what):
        call()


def test_non_invertible_syndrome_raises():
    rng = SplitMix64(3007)
    code = random_restricted_alternant(2, 2, 4, rng)
    with pytest.raises(NotInvertibleError):
        try_build_alternant_lattice(code, Poly(code.field, (0, 1)), 1)


def test_predicted_feasibility_values():
    # the exact law: 1 - 1/q when p = 2 or r = 1, and 0 otherwise
    assert predicted_feasibility(2, 2, 4) == 0.75
    assert predicted_feasibility(2, 3, 5) == 0.875
    assert predicted_feasibility(3, 4, 1) == 1 - 1 / 81
    assert predicted_feasibility(7, 1, 1) == 1 - 1 / 7
    assert predicted_feasibility(2, 1, 1) == 0.5
    assert predicted_feasibility(5, 1, 2) == predicted_feasibility(3, 2, 3) == predicted_feasibility(7, 1, 9) == 0.0
    assert predicted_feasibility(3, 100000000, 1) == 1.0  # 3**m is never formed


# every field with p**n <= 6561 (n = q - 1), so the whole of GF(p)^n is enumerated
LAW_FIELDS = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1)]


@settings(max_examples=20, deadline=None)
@given(pmr=st.sampled_from(LAW_FIELDS).flatmap(lambda pm: st.tuples(*map(st.just, pm), st.integers(1, 2 * pm[1] + 1))),
       seed=st.integers(0, 2**32))
@example(pmr=(3, 2, 1), seed=0)  # one example for each case of the law
@example(pmr=(5, 1, 2), seed=0)
@example(pmr=(2, 3, 7), seed=0)
def test_the_law_counts_every_feasible_error(pmr, seed):
    # over every e in GF(p)^n on a drawn code, the feasible errors number
    # exactly law * p**n, for r in [1, 2m + 1]
    p, m, r = pmr
    code = random_restricted_alternant(p, m, r, SplitMix64(seed))
    feasible = 0
    for e in itertools.product(range(p), repeat=code.n):
        try:
            feasible += try_build_alternant_lattice(code, alternant_syndrome(code, e), 1) is not None
        except NotInvertibleError:
            pass
    assert feasible / p**code.n == pytest.approx(predicted_feasibility(p, m, r), rel=0, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(m=st.integers(1, 4), tail=st.lists(st.integers(0, 2**64), max_size=10))
def test_a_binary_locator_splits_into_squares(m, tail):
    # Patterson's split: over GF(2^m), sigma = A**2 + x*B**2 with sigma' = B**2,
    # so sigma + x*sigma' = A**2, which is x + 1/s = (A/B)**2 for s = sigma'/sigma
    f = make_field(2, m)
    sigma = Poly(f, [1] + [c % f.q for c in tail])
    a, b = pth_power_decompose(sigma)
    x = Poly.x(f)
    assert sigma == a * a + x * b * b
    assert sigma.deriv() == b * b
    assert sigma + x * sigma.deriv() == a * a


def test_feasibility_probe_reporting():
    report = feasibility_probe(2, 2, 4, 600, SplitMix64(3008))
    assert report.trials == 600
    assert 0 <= report.feasible <= 600
    assert report.estimate == pytest.approx(report.feasible / 600)
    assert report.ci_low <= report.estimate <= report.ci_high
    assert report.predicted == 0.75
    fields = report.line().split()
    assert len(fields) == 9
    assert fields[:5] == ["2", "2", "4", "600", str(report.feasible)]
    for trials in (0, 2.0, True):
        with pytest.raises(ParamError, match="trials must be integers"):
            feasibility_probe(2, 2, 4, trials, SplitMix64(3008))


def test_feasibility_probe_interval_shrinks():
    rng1 = SplitMix64(3009)
    rng2 = SplitMix64(3009)
    small = feasibility_probe(2, 2, 4, 200, rng1)
    large = feasibility_probe(2, 2, 4, 3200, rng2)
    assert (large.ci_high - large.ci_low) < (small.ci_high - small.ci_low)


def test_feasibility_probe_deterministic():
    a = feasibility_probe(2, 2, 4, 300, SplitMix64(3010))
    b = feasibility_probe(2, 2, 4, 300, SplitMix64(3010))
    assert a.line() == b.line()


@pytest.mark.parametrize("p,m", [(2, 4), (3, 2), (7, 1), (3, 6)])
def test_recover_error_values_matches_per_point_oracle(p, m):
    # random locators times repeated factors x - 1/L_j; GF(3^6) has no tables
    rng = SplitMix64(40 + p * m)
    f = make_field(p, m)
    support = rng.sample(range(1, f.q), min(f.q - 1, 24))
    xi = [1 + rng.randrange(p - 1) for _ in support]
    code = AlternantCode(f, tuple(support), tuple(xi), 4)
    for _ in range(15):
        sigma = Poly(f, [rng.randrange(f.q) for _ in range(1 + rng.randrange(4))] + [1])
        for _ in range(rng.randrange(4)):
            lin = Poly(f, (f.neg(f.inv(support[rng.randrange(code.n)])), 1))
            for _ in range(1 + rng.randrange(3)):
                sigma = sigma * lin
        phi = 1 + rng.randrange(p - 1)
        want = {}
        for j, lj in enumerate(code.L):
            mu = root_multiplicity(sigma, f.inv(lj))
            if mu:
                want[j] = (phi * mu * pow(code.xi[j], p - 2, p)) % p
        assert recover_error_values(code, sigma, phi) == want
    with pytest.raises(ValueError):
        recover_error_values(code, Poly.zero(f), 1)


@pytest.mark.parametrize("p", [134217757, 2147483659])
def test_root_finding_beyond_exact_float64_products_is_rejected(p):
    # (p - 1)**2 >= 2**53: not even one product of the evaluation matrix is
    # exact in float64, and roots read through it can be missed
    f = make_field(p, 1)
    support = (5, 11, 1000003, p - 2)
    code = AlternantCode(f, support, (1,) * len(support), 4)
    sigma = Poly.one(f)
    for lj in support[:3]:
        sigma = sigma * Poly(f, (f.neg(f.inv(lj)), 1))
    with pytest.raises(ParamError, match="exact float64"):
        recover_error_values(code, sigma, 1)


@pytest.mark.parametrize("phi", [0, 3, -1, 1.5, "1", True, None])
def test_scale_guess_outside_one_to_p_is_rejected(phi):
    # phi is a magnitude in GF(p) \ {0}: 0 would report error positions of
    # magnitude 0, and a float or a string would reach the field arithmetic
    code = random_restricted_alternant(3, 2, 2, SplitMix64(3012))
    rng = SplitMix64(3013)
    s = Poly.zero(code.field)
    while s.is_zero() or s.coeffs[0] == 0:
        s = alternant_syndrome(code, random_error(code, 2, rng))
    sigma = Poly(code.field, (code.field.neg(code.field.inv(code.L[0])), 1))
    with pytest.raises(ParamError, match="scale guess"):
        try_build_alternant_lattice(code, s, phi)
    with pytest.raises(ParamError, match="scale guess"):
        recover_error_values(code, sigma, phi)
