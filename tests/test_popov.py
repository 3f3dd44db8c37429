"""Weak Popov reduction tests: pivot semantics, the worked 2x2 example,
lattice membership and unimodularity, the shortest-vector property, the
Euclid equivalence in characteristic 2, agreement with a Poly-entry
reference reduction, the pinned reduced rows of decoder key lattices, and
agreement of the kernels over tabulated and computed lookups."""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from pgoppa import polyring
from pgoppa.decoder import key_lattices
from pgoppa.fields import Field, make_field
from pgoppa.goppa import build_code, sample_error
from pgoppa.polyring import Poly, inv_mod, random_irreducible
from pgoppa.popov import degree_tableau, pivot_index, weak_popov_reduce
from pgoppa.rng import SplitMix64, trial_stream

from oracles import det_fraction_free, identity_matrix, matmul, min_pivot_row, reference_weak_popov_reduce

F3 = make_field(3, 1)
X = Poly.x(F3)
ONE = Poly.one(F3)
ZERO = Poly.zero(F3)


def random_lattice_basis(p, m, t, rng):
    """p x p basis shaped like the decoder's: first row (g, 0, ..), then
    rows (-v_k, .., 1, ..)."""
    f = make_field(p, m)
    g = Poly(f, [rng.randrange(f.q) for _ in range(t)] + [1])
    rows = [[g] + [Poly.zero(f)] * (p - 1)]
    for k in range(1, p):
        v = Poly(f, [rng.randrange(f.q) for _ in range(t)])
        rows.append([-v] + [Poly.one(f) if j == k else Poly.zero(f) for j in range(1, p)])
    return rows


def pivots(rows):
    return [pivot_index(r) for r in rows]


def test_pivot_index_examples():
    assert pivot_index([ZERO, ZERO]) == 0
    assert pivot_index([X, ONE]) == 1
    assert pivot_index([X, X]) == 2  # ties resolve rightward


def test_identity_already_reduced():
    a = identity_matrix(F3, 3)
    assert weak_popov_reduce(a) == a
    assert reference_weak_popov_reduce(a) == (a, a)


def test_worked_2x2_example():
    a = [[X * X, ZERO], [X, ONE]]
    r = weak_popov_reduce(a)
    assert r == [[ZERO, -X], [X, ONE]]
    assert pivots(r) == [2, 1]
    want, u = reference_weak_popov_reduce(a)
    assert r == want
    assert matmul(u, a) == r
    d = det_fraction_free(u)
    assert d.degree == 0 and d.lc() != 0


def test_degree_tableau_brackets_pivots():
    assert degree_tableau([[X * X, ZERO], [X, ONE]]) == "[2]  . \n[1]  0 "
    assert degree_tableau([[ZERO, -X], [ZERO, ZERO]]) == " .  [1]\n .   . "


def test_row_list_arguments_are_left_unchanged():
    # rows are plain lists, so the reduction must copy before it writes
    rng = SplitMix64(4242)
    bases = [random_lattice_basis(p, m, t, rng) for p, m, t in [(3, 2, 5), (5, 1, 4), (2, 3, 6)]]
    for a in bases + [[[ZERO, X], [ONE, ZERO]]]:
        before = [list(r) for r in a]
        r = weak_popov_reduce(a)
        assert a == before
        assert not any(x is y for x in r for y in a)


def test_degenerate_constant_off_diagonal():
    # constant v rows: the general pivot rule labels them correctly and the
    # basis is already in weak Popov form
    g = Poly(F3, [1, 2, 0, 1])
    c = Poly(F3, [2])
    a = [[g, ZERO], [c, ONE]]
    r = weak_popov_reduce(a)
    assert r == a
    assert pivots(r) == [1, 2]


@pytest.mark.parametrize("p,m,t", [(2, 3, 6), (3, 2, 6), (5, 1, 5), (7, 1, 4)])
def test_random_bases_reduce_correctly(p, m, t):
    # the reduction keeps the lattice without a transform to check: every
    # reduced row lies in it, and the pivot degrees of a weak Popov form sum
    # to deg det = deg g, which no proper sublattice of full rank reaches
    rng = SplitMix64(100 + p)
    for _ in range(60):
        a = random_lattice_basis(p, m, t, rng)
        g = a[0][0]
        r = weak_popov_reduce(a)
        piv = pivots(r)
        assert len(set(piv)) == p and 0 not in piv
        for row in r:
            # (a_0, .., a_{p-1}) is in the lattice iff g | a_0 + sum_k a_k v_k,
            # where basis row k is (-v_k, e_k)
            residue = row[0]
            for k in range(1, p):
                residue = residue - row[k] * a[k][0]
            assert (residue % g).is_zero()
        assert sum(row[j - 1].degree for row, j in zip(r, piv)) == g.degree


def test_shortest_vector_lemma_sampled():
    rng = SplitMix64(321)
    f = make_field(3, 2)
    for _ in range(20):
        a = random_lattice_basis(3, 2, 6, rng)
        r = weak_popov_reduce(a)
        mind = min(row[pivot_index(row) - 1].degree for row in r if pivot_index(row))
        assert max(e.degree for e in min_pivot_row(r)) == mind
        for _ in range(10):
            mult = [Poly(f, [rng.randrange(9) for _ in range(4)]) for _ in range(3)]
            comb = [Poly.zero(f) for _ in range(3)]
            for i, ui in enumerate(mult):
                for j in range(3):
                    comb[j] = comb[j] + ui * r[i][j]
            if any(not c.is_zero() for c in comb):
                assert max(c.degree for c in comb) >= mind


def euclid_with_stop(g: Poly, v: Poly, stop: int):
    """Extended Euclid on (g, v), returning the first remainder of degree
    <= stop together with its v-cofactor: r = u*v (mod g)."""
    f = g.field
    r0, r1 = g, v
    u0, u1 = Poly.zero(f), Poly.one(f)
    while r1.degree > stop:
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, u0 - q * u1
    return r1, u1


def test_p2_reduction_coincides_with_euclid():
    rng = SplitMix64(777)
    f = make_field(2, 4)
    for _ in range(50):
        t = 4 + rng.randrange(5)
        g = random_irreducible(t, f, rng)
        v = Poly(f, [rng.randrange(16) for _ in range(t)])
        if v.is_zero():
            continue
        basis = [[g, Poly.zero(f)], [v, Poly.one(f)]]
        r = weak_popov_reduce(basis)
        degs = sorted(row[pivot_index(row) - 1].degree for row in r)
        if degs[0] == degs[1]:
            continue  # shortest vector not unique; no canonical comparison
        a0, a1 = min_pivot_row(r)
        e0, e1 = euclid_with_stop(g, v, t // 2)
        # agreement up to a scalar: cross-multiply
        assert a0 * e1 == e0 * a1
        assert not a1.is_zero() and not e1.is_zero()


def test_cost_scaling_trend(monkeypatch):
    """Kernel work grows no faster than a fitted c * p^3 * t^2 curve.

    Work is tallied at the kernel's row operation: one simple
    transformation per call, and one coefficient update per source
    coefficient it touches (src is (index, coefficients) pairs).
    """
    tally = {"ops": 0, "updates": 0}
    kernel = polyring._row_addmul

    def counting(dst, src, times, e, add):
        tally["ops"] += 1
        tally["updates"] += sum(len(s) for _, s in src)
        kernel(dst, src, times, e, add)

    def measure(p, t, reps=4):
        f = make_field(p, 1)
        rng = SplitMix64(1000 * p + t)
        tally["ops"] = tally["updates"] = 0
        for _ in range(reps):
            g = Poly(f, [rng.randrange(p) for _ in range(t)] + [1])
            rows = [[g] + [Poly.zero(f)] * (p - 1)]
            for k in range(1, p):
                v = Poly(f, [rng.randrange(p) for _ in range(t)])
                rows.append(
                    [-v] + [Poly.one(f) if j == k else Poly.zero(f) for j in range(1, p)]
                )
            with monkeypatch.context() as mp:  # only the reduction's kernel calls
                mp.setattr(polyring, "_row_addmul", counting)
                weak_popov_reduce(rows)
        assert tally["ops"] > 0 and tally["updates"] > 0
        return tally["updates"] / reps

    # t-scaling at fixed p: quadrupling t should stay within ~(ratio^2) * slack
    for p in (3, 5):
        small, large = measure(p, 4), measure(p, 16)
        assert large <= small * (16 / 4) ** 2 * 3.0
    # p-scaling at fixed t: cost ratio bounded by (p ratio)^3 * slack
    c3, c7 = measure(3, 6), measure(7, 6)
    assert c7 <= c3 * (7 / 3) ** 3 * 3.0


# GF(7), GF(3^2), GF(2^3), and GF(3^6), whose q = 729 has no lookup tables
PROPERTY_FIELDS = [(7, 1), (3, 2), (2, 3), (3, 6)]


@st.composite
def polys(draw, f, max_deg):
    deg = draw(st.integers(-1, max_deg))
    return Poly(f, [draw(st.integers(0, f.q - 1)) for _ in range(deg + 1)])


@st.composite
def decoder_bases(draw):
    """p x p bases shaped like the decoder's key lattices."""
    p, m = draw(st.sampled_from(PROPERTY_FIELDS))
    f = make_field(p, m)
    t = draw(st.integers(1, 6))
    g = Poly(f, [draw(st.integers(0, f.q - 1)) for _ in range(t)] + [1])
    rows = [[g] + [Poly.zero(f)] * (p - 1)]
    for k in range(1, p):
        v = draw(polys(f, t - 1))
        rows.append([-v] + [Poly.one(f) if j == k else Poly.zero(f) for j in range(1, p)])
    return rows


@st.composite
def square_matrices(draw):
    """Random square matrices; zero entries and zero rows come up often."""
    p, m = draw(st.sampled_from(PROPERTY_FIELDS))
    f = make_field(p, m)
    n = draw(st.integers(1, 4))
    zero_rows = draw(st.sets(st.integers(0, n - 1), max_size=n))
    rows = [
        [Poly.zero(f) if i in zero_rows else draw(polys(f, 4)) for _ in range(n)]
        for i in range(n)
    ]
    return rows


@settings(max_examples=150, deadline=None)
@given(st.one_of(decoder_bases(), square_matrices()))
def test_reduction_matches_poly_reference(a):
    got = weak_popov_reduce(a)
    want, u = reference_weak_popov_reduce(a)
    assert got == want
    assert matmul(u, a) == want


# (block, magnitude distribution of each word) for the pinned reductions
PINNED_WORDS = [
    ((7, 2, 24), ("equal", "uniform", "equal")),
    ((3, 4, 20), ("equal", "uniform", "equal")),
    ((11, 2, 60), ("equal",)),
]


def test_key_lattice_reductions_are_pinned(monkeypatch):
    """The reduced rows of every key lattice of a fixed set of words, and
    the number of simple transformations that made them.  A faster sweep
    or kernel must make exactly the same transformations, which the
    digests and golden CSVs rely on."""
    calls = []
    kernel = polyring._row_addmul

    def counting(dst, src, nc, e, field):
        calls.append(1)
        kernel(dst, src, nc, e, field)

    digest = hashlib.sha256()
    for (p, m, t), dists in PINNED_WORDS:
        rng = trial_stream(2026, p)
        code = build_code(p, m, t, rng=rng)
        for dist in dists:
            e = sample_error(code.n, t, dist, p, rng)
            s = Poly(code.field, code.syndrome_from_word(e.values))
            for basis in key_lattices(code, s):
                with monkeypatch.context() as mp:  # only the reduction's kernel calls
                    mp.setattr(polyring, "_row_addmul", counting)
                    reduced = weak_popov_reduce(basis)
                for row in reduced:
                    digest.update(repr([list(x.coeffs) for x in row]).encode())
    assert len(calls) == 8822
    assert digest.hexdigest() == "32e32276e0809356b76ef0ac0b1c229d8cf49aa3106bf544baa20691e71656aa"


def without_tables(f: Field) -> Field:
    """A twin of a table-backed field whose lookups are computed by the
    digit arithmetic, as for a field too large to tabulate."""
    twin = Field(f.p, f.m, f.modulus)
    twin._computed_lookups()
    return twin


@pytest.mark.parametrize("p,m,t", [(7, 2, 8), (3, 4, 10), (2, 3, 6)])
def test_kernel_branches_agree(p, m, t):
    # the reduction, products and inverses on a table-backed field equal
    # those on its table-free twin, coefficient for coefficient
    f = make_field(p, m)
    twin = without_tables(f)
    assert f._mul is not None

    def on_twin(a):
        return Poly(twin, a.coeffs)

    rng = SplitMix64(31 * p + m)
    g = random_irreducible(t, f, rng)
    for _ in range(6):
        rows = random_lattice_basis(p, m, t, rng)
        got = weak_popov_reduce([[on_twin(x) for x in r] for r in rows])
        assert [[x.coeffs for x in r] for r in got] == [[x.coeffs for x in r] for r in weak_popov_reduce(rows)]
        a, b = (Poly(f, [rng.randrange(f.q) for _ in range(t + 3)]) for _ in range(2))
        assert (on_twin(a) * on_twin(b)).coeffs == (a * b).coeffs
        if not (a % g).is_zero():
            assert inv_mod(on_twin(a), on_twin(g)).coeffs == inv_mod(a, g).coeffs
