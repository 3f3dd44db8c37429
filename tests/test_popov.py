"""Weak Popov reduction tests: pivot semantics, the worked 2x2 example,
unimodularity, the shortest-vector property, the Euclid equivalence in
characteristic 2, and agreement with a Poly-entry reference reduction."""

import pytest
from hypothesis import given, settings, strategies as st

from pgoppa import popov
from pgoppa.fields import make_field
from pgoppa.polyring import Poly, random_irreducible
from pgoppa.popov import (
    degree_tableau,
    det_fraction_free,
    min_pivot_row,
    pivot_index,
    weak_popov_reduce,
)
from pgoppa.rng import SplitMix64

from oracles import identity_matrix, matmul

F3 = make_field(3, 1)
X = Poly.x(F3)
ONE = Poly.one(F3)
ZERO = Poly.zero(F3)


def _row_submul(dst, src, c, e):
    """dst -= c * x**e * src, entrywise."""
    for j, s in enumerate(src):
        if s:
            dst[j] = dst[j] - s.scale(c).shift(e)


def reference_weak_popov_reduce(a, accumulate=False):
    """The reduction on Poly entries, in the same sweep order as
    weak_popov_reduce: source k ascending, target l ascending, repeated
    until no positive pivot index repeats."""
    field = a[0][0].field
    rows = [list(r) for r in a]
    n = len(rows)
    u = identity_matrix(field, n) if accumulate else None
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
                    c = field.div(rows[ell][col].lc(), src.lc())
                    e = rows[ell][col].degree - src.degree
                    _row_submul(rows[ell], rows[k], c, e)
                    if u is not None:
                        _row_submul(u[ell], u[k], c, e)
                piv[ell] = pivot_index(rows[ell])
    return rows, u


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
    r, u = weak_popov_reduce(a, accumulate=True)
    assert r == a
    assert u == identity_matrix(F3, 3)


def test_worked_2x2_example():
    a = [[X * X, ZERO], [X, ONE]]
    r, u = weak_popov_reduce(a, accumulate=True)
    assert r == [[ZERO, -X], [X, ONE]]
    assert pivots(r) == [2, 1]
    assert matmul(u, a) == r
    d = det_fraction_free(u)
    assert d.degree == 0 and d.lc() != 0


def test_degree_tableau_brackets_pivots():
    assert degree_tableau([[X * X, ZERO], [X, ONE]]) == "[2]  . \n[1]  0 "
    assert degree_tableau([[ZERO, -X], [ZERO, ZERO]]) == " .  [1]\n .   . "


def test_min_pivot_row_tie_breaks_to_lowest_row_index():
    a = [[ZERO, -X], [X, ONE]]
    # both pivot degrees are 1; the first row wins the tie
    assert min_pivot_row(a) == [ZERO, -X]
    b = identity_matrix(F3, 2)
    assert min_pivot_row(b) == [ONE, ZERO]


def test_min_pivot_row_rejects_zero_matrix():
    with pytest.raises(ValueError):
        min_pivot_row([[ZERO, ZERO]])


def test_det_fraction_free_rejects_non_square():
    with pytest.raises(ValueError, match="non-square"):
        det_fraction_free([[ONE, ZERO]])
    with pytest.raises(ValueError, match="non-square"):
        det_fraction_free([[ONE, ZERO], [ONE]])


def test_row_list_arguments_are_left_unchanged():
    # rows are plain lists, so every function must copy before it writes
    rng = SplitMix64(4242)
    bases = [random_lattice_basis(p, m, t, rng) for p, m, t in [(3, 2, 5), (5, 1, 4), (2, 3, 6)]]
    # the last has a zero leading entry, so det_fraction_free swaps rows
    for a in bases + [[[ZERO, X], [ONE, ZERO]]]:
        before = [list(r) for r in a]
        r, u = weak_popov_reduce(a, accumulate=True)
        assert a == before
        assert not any(x is y for x in r for y in a) and not any(x is y for x in u for y in a)
        assert not det_fraction_free(a).is_zero()
        assert a == before
        min_pivot_row(a).append(ZERO)
        assert a == before


def test_degenerate_constant_off_diagonal():
    # constant v rows: the general pivot rule labels them correctly and the
    # basis is already in weak Popov form
    g = Poly(F3, [1, 2, 0, 1])
    c = Poly(F3, [2])
    a = [[g, ZERO], [c, ONE]]
    r, _ = weak_popov_reduce(a)
    assert r == a
    assert pivots(r) == [1, 2]


@pytest.mark.parametrize("p,m,t", [(2, 3, 6), (3, 2, 6), (5, 1, 5), (7, 1, 4)])
def test_random_bases_reduce_correctly(p, m, t):
    rng = SplitMix64(100 + p)
    for _ in range(60):
        a = random_lattice_basis(p, m, t, rng)
        r, u = weak_popov_reduce(a, accumulate=True)
        piv = [x for x in pivots(r) if x]
        assert len(piv) == len(set(piv))
        assert matmul(u, a) == r
        d = det_fraction_free(u)
        assert d.degree == 0 and d.lc() != 0


def test_shortest_vector_lemma_sampled():
    rng = SplitMix64(321)
    f = make_field(3, 2)
    for _ in range(20):
        a = random_lattice_basis(3, 2, 6, rng)
        r, _ = weak_popov_reduce(a)
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
        r, _ = weak_popov_reduce(basis)
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
    coefficient it touches.
    """
    tally = {"ops": 0, "updates": 0}
    kernel = popov._row_addmul

    def counting(dst, src, nc, e, field):
        tally["ops"] += 1
        tally["updates"] += sum(len(s) for s in src)
        kernel(dst, src, nc, e, field)

    monkeypatch.setattr(popov, "_row_addmul", counting)

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
    got, got_u = weak_popov_reduce(a, accumulate=True)
    want, want_u = reference_weak_popov_reduce(a, accumulate=True)
    assert got == want
    assert got_u == want_u
    assert weak_popov_reduce(a)[0] == want
