"""GF(p) linear algebra tests: the deferred-reduction elimination against a
per-step reference, kernels, inverses and solves, and the int64 bound."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pgoppa.errors import ParamError
from pgoppa.modp import inv_mod_p, kernel_mod_p, rref_mod_p

PRIMES = (2, 3, 5, 7, 11)


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
    rows that are combinations of earlier rows."""
    p = draw(st.sampled_from(PRIMES))
    rows = draw(st.integers(0, 7))
    cols = rows if square else draw(st.integers(0, 7))
    cells = st.integers(0, p - 1)
    a = np.array([[draw(cells) for _ in range(cols)] for _ in range(rows)], dtype=np.int64)
    a = a.reshape(rows, cols)
    for i in range(1, rows):
        if draw(st.booleans()):  # rank deficiency
            mix = np.array([draw(cells) for _ in range(i)], dtype=np.int64)
            a[i] = mix @ a[:i] % p
    if rows:
        a[sorted(draw(st.sets(st.integers(0, rows - 1), max_size=2)))] = 0
    if cols:
        a[:, sorted(draw(st.sets(st.integers(0, cols - 1), max_size=2)))] = 0
    return a, p


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_rref_matches_reference(case):
    a, p = case
    got, pivots = rref_mod_p(a, p)
    want, want_pivots = reference_rref_mod_p(a, p)
    assert pivots == want_pivots
    assert got.dtype == np.int64 and np.array_equal(got, want)


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
    assert not (a @ basis.T % p).any()


@settings(max_examples=150, deadline=None)
@given(matrices(square=True))
def test_inverse_exactly_when_nonsingular(case):
    a, p = case
    n = a.shape[0]
    inv = inv_mod_p(a, p)
    singular = len(reference_rref_mod_p(a, p)[1]) < n
    assert (inv is None) == singular
    if inv is not None:
        assert np.array_equal(a @ inv % p, np.eye(n, dtype=np.int64))


def test_int64_bound_is_enforced():
    # a bad modulus is a bad parameter, like every other one
    a = np.array([[1, 2, 3], [4, 5, 6], [7, 8, 10]])
    with pytest.raises(ParamError, match="overflow"):
        rref_mod_p(a, 2**31 - 1)
    with pytest.raises(ParamError, match="overflow"):
        inv_mod_p(a, 2**31 - 1)
    # two rows stay just below the bound, where an unreduced pivot row would overflow
    wide = np.array([[3, 2**31 - 5, 2**30 + 7], [2**31 - 2, 11, 2**31 - 9]])
    got, pivots = rref_mod_p(wide, 2**31 - 1)
    want, want_pivots = reference_rref_mod_p(wide, 2**31 - 1)
    assert pivots == want_pivots and np.array_equal(got, want)
    big = np.array([[65520, 3, 17], [2, 65519, 9], [40000, 12345, 65000]])
    got, pivots = rref_mod_p(big, 65521)
    want, want_pivots = reference_rref_mod_p(big, 65521)
    assert pivots == want_pivots == [0, 1, 2]
    assert np.array_equal(got, want)
    inv = inv_mod_p(big, 65521)
    assert np.array_equal(big @ inv % 65521, np.eye(3, dtype=np.int64))
