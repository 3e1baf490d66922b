"""Tests for the LDL^T inertia kernel."""

from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fractalsturm import _kernels as kern
from fractalsturm.assembly import PencilDiscretization
from fractalsturm.spectral import count, counting_function

from _oracles import clamped_sweep


def random_pencil(rng, n):
    """Random symmetric tridiagonal pencil with positive definite A."""
    a_off = rng.normal(size=n - 1)
    a_diag = np.abs(rng.normal(size=n)) + 2.0 + np.abs(np.r_[0.0, a_off]) + np.abs(np.r_[a_off, 0.0])
    b_off = 0.1 * rng.normal(size=n - 1)
    b_diag = rng.uniform(0.5, 2.0, size=n)
    return a_diag, a_off, b_diag, b_off


def dense_negative_count(a_diag, a_off, b_diag, b_off, lam):
    n = len(a_diag)
    m = np.diag(a_diag - lam * b_diag)
    off = a_off - lam * b_off
    m += np.diag(off, 1) + np.diag(off, -1)
    return int(np.sum(np.linalg.eigvalsh(m) < 0))


@st.composite
def pencils(draw):
    """Random tridiagonal pencils, some with zero rows of B.

    Small-integer entries with an integer lam make exact zero pivots
    (breakdowns) and a vanishing scale common.
    """
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        a_diag = rng.integers(-3, 4, n).astype(float)
        a_off = rng.integers(-2, 3, n - 1).astype(float)
        b_diag = rng.integers(0, 3, n).astype(float)
        b_off = rng.integers(-1, 2, n - 1).astype(float)
        lam = float(rng.integers(-3, 4))
    else:
        a_diag, a_off, b_diag, b_off = random_pencil(rng, n)
        lam = float(rng.normal(scale=5.0))
    zero_rows = rng.random(n) < draw(st.sampled_from([0.0, 0.3]))
    b_diag[zero_rows] = 0.0
    b_off[zero_rows[:-1] | zero_rows[1:]] = 0.0
    return a_diag, a_off, b_diag, b_off, lam


TWO_BY_TWO = (np.array([2.0, 3.0]), np.array([0.0]), np.ones(2), np.array([0.0]))


@settings(max_examples=300, deadline=None)
@given(pencil=pencils(), chunk=st.sampled_from([1, 2, 3, 7, 4096]))
@example(pencil=(*TWO_BY_TWO, 2.0), chunk=1)
@example(pencil=(np.array([5.0]), np.zeros(0), np.array([2.0]), np.zeros(0), 2.5), chunk=4096)
def test_sweep_matches_reference_loop(pencil, chunk):
    *arrays, lam = pencil
    with mock.patch.object(kern, "_CHUNK", chunk):
        got = kern._sweep(*arrays, lam, 1e-12)
    assert got == clamped_sweep(*arrays, lam, 1e-12)


def test_sweep_matches_reference_across_chunk_boundaries():
    rng = np.random.default_rng(5)
    for n in (kern._CHUNK - 1, kern._CHUNK, kern._CHUNK + 1, 2 * kern._CHUNK + 1):
        a_diag, a_off, b_diag, b_off = random_pencil(rng, n)
        for lam in (-3.0, 0.7, 40.0):
            got = kern._sweep(a_diag, a_off, b_diag, b_off, lam, 1e-12)
            assert got == clamped_sweep(a_diag, a_off, b_diag, b_off, lam, 1e-12)


def test_scalar_batch_and_counting_paths_agree_at_breakdown():
    # lambda = 2 zeroes the first pivot of A - lambda B exactly
    a_diag, a_off, b_diag, b_off = TWO_BY_TWO
    disc = PencilDiscretization(np.array([0.0, 1.0]), a_diag, a_off, b_diag, b_off, 0, ())
    scalar, _ = kern.negative_pivot_count(a_diag, a_off, b_diag, b_off, 2.0)
    negs, _ = kern.negative_pivot_counts(a_diag, a_off, b_diag, b_off, [2.0])
    assert scalar == negs[0] == 1
    assert count(disc, 2.0).n_plus == counting_function(disc, [2.0])[0].n_plus == 1


def test_negative_count_matches_dense_inertia():
    rng = np.random.default_rng(11)
    for _ in range(30):
        n = rng.integers(2, 40)
        a_diag, a_off, b_diag, b_off = random_pencil(rng, n)
        lam = rng.normal(scale=10.0)
        neg, _ = kern.negative_pivot_count(a_diag, a_off, b_diag, b_off, lam)
        assert neg == dense_negative_count(a_diag, a_off, b_diag, b_off, lam)


def test_batch_matches_scalar_loop():
    rng = np.random.default_rng(3)
    a_diag, a_off, b_diag, b_off = random_pencil(rng, 25)
    lams = np.sort(rng.normal(scale=8.0, size=17))
    negs, nears = kern.negative_pivot_counts(a_diag, a_off, b_diag, b_off, lams)
    for i, lam in enumerate(lams):
        neg, near = kern.negative_pivot_count(a_diag, a_off, b_diag, b_off, lam)
        assert negs[i] == neg
        assert nears[i] == near


def test_breakdown_at_exact_eigenvalue_resolved_by_micro_shift():
    # diag(2, 3) vs I: lambda = 2 zeroes the first pivot exactly.
    a_diag = np.array([2.0, 3.0])
    a_off = np.array([0.0])
    b_diag = np.ones(2)
    b_off = np.array([0.0])
    neg, near, breakdown, min_piv = kern.sturm_pivots(a_diag, a_off, b_diag, b_off, 2.0, 1e-12)
    assert breakdown == 1
    assert min_piv == 0.0
    # The retry shifts upward, so the eigenvalue at lambda counts as below it.
    neg, near = kern.negative_pivot_count(a_diag, a_off, b_diag, b_off, 2.0)
    assert neg == 1
    assert near >= 1
    neg, _ = kern.negative_pivot_count(a_diag, a_off, b_diag, b_off, 2.0 - 1e-9)
    assert neg == 0


def test_near_flag_marks_close_pivots_only():
    a_diag = np.array([2.0, 3.0])
    a_off = np.array([0.0])
    b_diag = np.ones(2)
    b_off = np.array([0.0])
    _, near, breakdown, _ = kern.sturm_pivots(a_diag, a_off, b_diag, b_off, 2.5, 1e-12)
    assert near == 0
    assert breakdown == 0
    _, near, _, _ = kern.sturm_pivots(a_diag, a_off, b_diag, b_off, 2.0 + 1e-14, 1e-12)
    assert near == 1


def test_min_pivot_ratio_vanishes_at_spectrum():
    a_diag = np.array([2.0, 3.0])
    a_off = np.array([0.0])
    b_diag = np.ones(2)
    b_off = np.array([0.0])
    _, ratio_eig = kern.min_pivot_ratio(a_diag, a_off, b_diag, b_off, 2.0)
    _, ratio_gap = kern.min_pivot_ratio(a_diag, a_off, b_diag, b_off, 2.5)
    assert ratio_eig == 0.0
    assert ratio_gap > 0.1


def test_coupled_off_diagonal_counts():
    # 2x2 with coupling: A = [[2,1],[1,2]], B = I, eigenvalues 1 and 3.
    a_diag = np.array([2.0, 2.0])
    a_off = np.array([1.0])
    b_diag = np.ones(2)
    b_off = np.array([0.0])
    for lam, expected in ((0.5, 0), (2.0, 1), (4.0, 2)):
        neg, _ = kern.negative_pivot_count(a_diag, a_off, b_diag, b_off, lam)
        assert neg == expected


def test_single_node_pencil():
    a_diag = np.array([5.0])
    a_off = np.zeros(0)
    b_diag = np.array([2.0])
    b_off = np.zeros(0)
    assert kern.negative_pivot_count(a_diag, a_off, b_diag, b_off, 2.0)[0] == 0
    assert kern.negative_pivot_count(a_diag, a_off, b_diag, b_off, 3.0)[0] == 1
