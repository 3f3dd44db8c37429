"""GF(p) linear algebra tests: kernels and inverses against a per-step
reference elimination, exact at primes whose products overflow int64, and
the shared elimination they run, batched over stacks and alone."""

import numpy as np
from hypothesis import given, settings, strategies as st

from pgoppa.fields import make_field
from pgoppa.goppa import build_code
from pgoppa.modp import inv_mod_p, kernel_mod_p
from pgoppa.polyring import _eliminate
from pgoppa.rng import SplitMix64

PRIMES = (2, 3, 5, 7, 11)
LARGE = 2**31 - 1  # products of two residues overflow int64 once summed


def product_mod(a, b, p):
    """a @ b mod p in Python ints, exact for every p."""
    return (np.asarray(a).astype(object) @ np.asarray(b).astype(object) % p).astype(np.int64)


def reference_rref_mod_p(mat, p):
    """RREF mod p that reduces every updated row at every pivot step."""
    a = np.array(mat, dtype=np.int64) % p
    rows, cols = a.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
        a[r] = (a[r] * pow(int(a[r, c]), p - 2, p)) % p
        others = np.nonzero(a[:, c])[0]
        others = others[others != r]
        if others.size:
            a[others] = (a[others] - np.outer(a[others, c], a[r])) % p
        pivots.append(c)
        r += 1
    return a, pivots


@st.composite
def matrices(draw, square=False):
    """(matrix, p): wide, tall or square, with zero rows and columns and
    rows that are combinations of earlier rows; now and then p is LARGE."""
    p = draw(st.sampled_from(PRIMES + (LARGE,)))
    rows = draw(st.integers(0, 7))
    cols = rows if square else draw(st.integers(0, 7))
    cells = st.integers(0, p - 1)
    a = np.array([[draw(cells) for _ in range(cols)] for _ in range(rows)], dtype=np.int64)
    a = a.reshape(rows, cols)
    for i in range(1, rows):
        if draw(st.booleans()):  # rank deficiency
            mix = np.array([draw(cells) for _ in range(i)], dtype=np.int64)
            a[i] = product_mod(mix, a[:i], p)
    if rows:
        a[sorted(draw(st.sets(st.integers(0, rows - 1), max_size=2)))] = 0
    if cols:
        a[:, sorted(draw(st.sets(st.integers(0, cols - 1), max_size=2)))] = 0
    return a, p


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_kernel_is_canonical_and_annihilated(case):
    a, p = case
    basis = kernel_mod_p(a, p)
    ref, pivots = reference_rref_mod_p(a, p)
    free = [c for c in range(a.shape[1]) if c not in pivots]
    want = np.zeros((len(free), a.shape[1]), dtype=np.int64)
    for i, fc in enumerate(free):
        want[i, fc] = 1
        for r, pc in enumerate(pivots):
            want[i, pc] = -ref[r, fc] % p
    assert np.array_equal(basis, want)  # the canonical basis random_codeword draws against
    assert not product_mod(a, basis.T, p).any()


@settings(max_examples=150, deadline=None)
@given(matrices(square=True))
def test_inverse_exactly_when_nonsingular(case):
    a, p = case
    n = a.shape[0]
    inv = inv_mod_p(a, p)
    singular = len(reference_rref_mod_p(a, p)[1]) < n
    assert (inv is None) == singular
    if inv is not None:
        assert np.array_equal(product_mod(a, inv, p), np.eye(n, dtype=np.int64))




def test_large_primes_are_exact():
    # products of residues of LARGE reach 2**62 and their sums pass 2**63,
    # where int64 elimination would overflow; every check is in Python ints
    rng = np.random.default_rng(11)
    cases = [
        (np.array([[1, 2, 3], [4, 5, 6], [7, 8, 10]]), LARGE),
        (np.array([[3, 2**31 - 5, 2**30 + 7], [2**31 - 2, 11, 2**31 - 9]]), LARGE),
        (np.array([[65520, 3, 17], [2, 65519, 9], [40000, 12345, 65000]]), 65521),
    ]
    for p in (65521, LARGE):
        wide = rng.integers(0, p, size=(12, 16))
        wide[5] = product_mod(rng.integers(0, p, size=5), wide[:5], p)  # rank 11
        square = rng.integers(0, p, size=(9, 9))
        singular = square.copy()
        singular[:, 4] = product_mod(singular[:, :4], rng.integers(0, p, size=4), p)
        cases += [(wide, p), (square, p), (singular, p)]
    for a, p in cases:
        basis = kernel_mod_p(a, p)
        ref, pivots = reference_rref_mod_p(a, p)
        assert basis.shape == (a.shape[1] - len(pivots), a.shape[1])
        assert ((0 <= basis) & (basis < p)).all()
        assert not product_mod(a, basis.T, p).any()
        free = [c for c in range(a.shape[1]) if c not in pivots]
        assert np.array_equal(basis[:, free], np.eye(len(free), dtype=np.int64))
        if a.shape[0] == a.shape[1]:
            inv = inv_mod_p(a, p)
            assert (inv is None) == (len(pivots) < len(a))
            if inv is not None:
                assert np.array_equal(product_mod(a, inv, p), np.eye(len(a), dtype=np.int64))
    assert inv_mod_p(cases[0][0], LARGE) is not None and inv_mod_p(cases[-1][0], LARGE) is None


# GF(5**4) has computed lookups
ELIMINATION_FIELDS = [(2, 1), (7, 1), (3, 2), (2, 3), (5, 4)]


@st.composite
def stacked_systems(draw):
    """(a[unknown, stack, row], eqs, field): up to four stacks, each drawn
    whole, all zero, or with one equation row a multiple of another."""
    f = make_field(*draw(st.sampled_from(ELIMINATION_FIELDS)))
    unknowns, rows, stacks = draw(st.integers(0, 6)), draw(st.integers(0, 6)), draw(st.integers(1, 4))
    eqs = draw(st.integers(0, rows))
    a = np.zeros((unknowns, stacks, rows), dtype=np.int64)
    for b in range(stacks):
        kind = draw(st.sampled_from(["drawn", "zero", "deficient"]))
        if kind == "zero":
            continue
        cells = draw(st.lists(st.integers(0, f.q - 1), min_size=unknowns * rows, max_size=unknowns * rows))
        a[:, b] = np.array(cells, dtype=np.int64).reshape(unknowns, rows)
        if kind == "deficient" and eqs >= 2:
            src, dst = draw(st.permutations(range(eqs)))[:2]
            c = draw(st.integers(0, f.q - 1))
            a[:, b, dst] = [f.mul(c, x) for x in a[:, b, src].tolist()]
    return a, eqs, f


@settings(max_examples=150, deadline=None)
@given(stacked_systems())
def test_eliminate_batched_equals_alone(case):
    # each stack comes out of one elimination over all stacks exactly as
    # it does alone, and the kernel vector read off each free unknown
    # solves its equations and gives each passive row's value on it
    a, eqs, f = case
    batched = a.copy()
    pivots = _eliminate(batched, eqs, f).tolist()
    for b, held in enumerate(pivots):
        alone = a[:, b : b + 1].copy()
        assert held == _eliminate(alone, eqs, f)[0].tolist()
        assert np.array_equal(batched[:, b], alone[:, 0])
        for j in set(range(len(a))).difference(held):
            v = [0] * len(a)
            v[j] = 1
            for r, n in enumerate(held):
                if n >= 0:
                    v[n] = int(alone[j, 0, r])
            for r in range(a.shape[2]):
                value = 0
                for u, x in enumerate(a[:, b, r].tolist()):
                    value = f.add(value, f.mul(x, v[u]))
                assert value == (0 if r < eqs else alone[j, 0, r])


def test_kernel_and_inverse_leave_their_argument_unchanged():
    # GoppaCode.kernel_basis passes the code's own Hbar, which every
    # syndrome reads again
    code = build_code(3, 2, 4, rng=SplitMix64(5))
    hbar = code.Hbar.copy()
    assert code.kernel_basis.shape[1] == code.n
    assert np.array_equal(code.Hbar, hbar)
    rng = np.random.default_rng(7)
    for p in (7, LARGE):
        a = rng.integers(0, p, size=(5, 6))
        before = a.copy()
        for view in (a, a.T, a[1:, ::-1], a[:, 1:]):
            kernel_mod_p(view, p)
            if view.shape[0] == view.shape[1]:
                inv_mod_p(view, p)
        assert np.array_equal(a, before)
