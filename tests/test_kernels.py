"""Tests for the LDL^T inertia kernel."""

import importlib.util
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fractalsturm import BoundaryCondition, CompositeMeasure, assemble, cantor_ladder
from fractalsturm import _kernels as kern
from fractalsturm.assembly import PencilDiscretization
from fractalsturm.spectral import count, counting_function, eigenvalues

from _oracles import clamped_sweep


def random_pencil(rng, n):
    """Random symmetric tridiagonal pencil with positive definite A."""
    a_off = rng.normal(size=n - 1)
    a_diag = np.abs(rng.normal(size=n)) + 2.0 + np.abs(np.r_[0.0, a_off]) + np.abs(np.r_[a_off, 0.0])
    b_off = 0.1 * rng.normal(size=n - 1)
    b_diag = rng.uniform(0.5, 2.0, size=n)
    return a_diag, a_off, b_diag, b_off


def pivot_counts(a_diag, a_off, b_diag, b_off, lam):
    """(negatives, near-zeros) of A - lam B from a one-lambda batch."""
    ((neg, near, _),) = kern.sturm_pivots_many(a_diag, a_off, b_diag, b_off, np.array([lam]))
    return neg, near


def dense_eigenvalues(a_diag, a_off, b_diag, b_off, lam):
    """The eigenvalues of the matrix A - lam B."""
    m = np.diag(a_diag - lam * b_diag)
    off = a_off - lam * b_off
    m += np.diag(off, 1) + np.diag(off, -1)
    return np.linalg.eigvalsh(m)


def dense_negative_count(a_diag, a_off, b_diag, b_off, lam):
    return int(np.sum(dense_eigenvalues(a_diag, a_off, b_diag, b_off, lam) < 0))


@st.composite
def pencils(draw):
    """Random tridiagonal pencils, some with zero rows of B.

    Small-integer entries with an integer lam make exact zero pivots and
    a vanishing scale common.
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

# (_MIN_RUNS, _RUN_NODES): pure Python, a hand-over after 1, 2, 3 and 7
# dpttrf runs, pure dpttrf, and the shipped threshold
NEVER = 10**9
SWITCHES = [(0, NEVER), (1, NEVER), (2, NEVER), (3, NEVER), (7, NEVER), (NEVER, 0),
            (kern._MIN_RUNS, kern._RUN_NODES)]


def switched(switch):
    return mock.patch.multiple(kern, _MIN_RUNS=switch[0], _RUN_NODES=switch[1])


def rows(*values):
    return tuple(np.array(v, dtype=float) for v in values)


@settings(max_examples=300, deadline=None)
@given(pencil=pencils(), switch=st.sampled_from(SWITCHES))
@example(pencil=(*TWO_BY_TWO, 2.0), switch=(NEVER, 0))
@example(pencil=(np.array([5.0]), np.zeros(0), np.array([2.0]), np.zeros(0), 2.5), switch=(NEVER, 0))
# n = 2
@example(pencil=(*rows([1.0, 1.0], [2.0], [0.0, 0.0], [0.0]), 0.0), switch=(NEVER, 0))
# the pivot that stops dpttrf is the last node
@example(pencil=(*rows([2.0, 2.0, 0.5], [1.0, 1.0], [0.0] * 3, [0.0] * 2), 0.0), switch=(NEVER, 0))
# exact zero pivots at node 0 and in the middle of a run
@example(pencil=(*rows([0.0, 1.0, 1.0], [1.0, 1.0], [0.0] * 3, [0.0] * 2), 0.0), switch=(NEVER, 0))
@example(pencil=(*rows([2.0, 2.0, 1.0, 3.0], [2.0, 1.0, 1.0], [0.0] * 4, [0.0] * 3), 0.0), switch=(NEVER, 0))
# every pivot negative, and runs of both signs
@example(pencil=(*rows([-2.0] * 5, [1.0] * 4, [0.0] * 5, [0.0] * 4), 0.0), switch=(NEVER, 0))
@example(pencil=(*rows([3.0, -1.0, -2.0, -3.0, 4.0, 1.0, -5.0], [1.0] * 6, [0.0] * 7, [0.0] * 6), 0.0),
         switch=(NEVER, 0))
# a negative pivot below the clamp inside a negated run: -1 + (1 - 2^-53)^2
@example(pencil=(*rows([-1.0, -1.0, -1e15, 1e17], [1.0 - 2.0**-53, 1.0, 0.0], [0.0] * 4, [0.0] * 3), 0.0),
         switch=(NEVER, 0))
# a positive pivot below the clamp inside a run: 1 - (1 - 2^-53)^2 leaves
# 2^-52, below the clamp 5e-15 at scale 1e17; carried on unclamped it
# would turn the next pivot negative
@example(pencil=(*rows([1.0, 1.0, 1e15, 1e17], [1.0 - 2.0**-53, 1.0, 0.0], [0.0] * 4, [0.0] * 3), 0.0),
         switch=(NEVER, 0))
def test_sweep_matches_reference_loop(pencil, switch):
    *arrays, lam = pencil
    with switched(switch):
        got = kern._sweep(*arrays, lam)
    assert got == clamped_sweep(*arrays, lam, 1e-12)
    if all(np.array_equal(x, np.round(x)) for x in (*arrays, lam)):
        # an exact zero pivot counts as negative: by Weyl the count lies
        # between the eigenvalues of A - lam B below 0 and those at or below 0
        eigs = dense_eigenvalues(*arrays, lam)
        assert np.sum(eigs < -1e-9) <= got[0] <= np.sum(eigs <= 1e-9)


def test_sweep_matches_reference_across_chunk_boundaries():
    # 4096 nodes is the block of the Python loop
    rng = np.random.default_rng(5)
    for n in (4095, 4096, 4097, 8193):
        a_diag, a_off, b_diag, b_off = random_pencil(rng, n)
        for lam in (-3.0, 0.7, 40.0):
            want = clamped_sweep(a_diag, a_off, b_diag, b_off, lam, 1e-12)
            for switch in ((kern._MIN_RUNS, kern._RUN_NODES), (0, NEVER)):
                with switched(switch):
                    assert kern._sweep(a_diag, a_off, b_diag, b_off, lam) == want


def test_dpttrf_writes_into_views():
    # the kernel relies on dpttrf overwriting its tail views in place; a
    # silent copy would leave the pivots unfactored
    d = np.array([9.0, 2.0, 3.0, 4.0])
    e = np.array([7.0, 1.0, 1.0])
    kern.dpttrf(d[1:], e[1:], overwrite_d=1, overwrite_e=1)
    assert d[0] == 9.0 and e[0] == 7.0
    assert d[2] == 3.0 - (1.0 / 2.0) * 1.0
    assert e[1] == 0.5


def test_scalar_batch_and_counting_paths_agree_at_breakdown():
    # lambda = 2 zeroes the first pivot of A - lambda B exactly
    a_diag, a_off, b_diag, b_off = TWO_BY_TWO
    disc = PencilDiscretization(np.array([0.0, 1.0]), a_diag, a_off, b_diag, b_off, 0)
    scalar, _, _ = kern.sturm_pivots(a_diag, a_off, b_diag, b_off, 2.0)
    ((batch, _, _),) = kern.sturm_pivots_many(a_diag, a_off, b_diag, b_off, np.array([2.0]))
    assert scalar == batch == 1
    assert count(disc, 2.0).n_plus == counting_function(disc, [2.0])[0].n_plus == 1


def test_negative_count_matches_dense_inertia():
    rng = np.random.default_rng(11)
    for _ in range(30):
        n = rng.integers(2, 40)
        a_diag, a_off, b_diag, b_off = random_pencil(rng, n)
        lam = rng.normal(scale=10.0)
        neg, _ = pivot_counts(a_diag, a_off, b_diag, b_off, lam)
        assert neg == dense_negative_count(a_diag, a_off, b_diag, b_off, lam)


def test_batch_matches_scalar_loop():
    rng = np.random.default_rng(3)
    a_diag, a_off, b_diag, b_off = random_pencil(rng, 25)
    lams = np.sort(rng.normal(scale=8.0, size=17))
    records = kern.sturm_pivots_many(a_diag, a_off, b_diag, b_off, lams)
    assert records == [kern.sturm_pivots(a_diag, a_off, b_diag, b_off, lam) for lam in lams.tolist()]
    for (neg_i, near_i, _), lam in zip(records, lams, strict=True):
        neg, near = pivot_counts(a_diag, a_off, b_diag, b_off, lam)
        assert neg_i == neg
        assert near_i == near


def test_exact_zero_pivot_counts_eigenvalue_at_lambda_as_below():
    # diag(2, 3) vs I: lambda = 2 zeroes the first pivot exactly.
    a_diag = np.array([2.0, 3.0])
    a_off = np.array([0.0])
    b_diag = np.ones(2)
    b_off = np.array([0.0])
    _, _, min_piv = kern.sturm_pivots(a_diag, a_off, b_diag, b_off, 2.0)
    assert min_piv == 0.0
    # The zero pivot counts as negative, so the eigenvalue at lambda counts as below it.
    neg, near = pivot_counts(a_diag, a_off, b_diag, b_off, 2.0)
    assert neg == 1
    assert near >= 1
    neg, _ = pivot_counts(a_diag, a_off, b_diag, b_off, 2.0 - 1e-9)
    assert neg == 0


def test_clamp_does_not_underflow_at_tiny_scale():
    # at scale 1e-300, 5e-32 * scale underflows to 0; a clamp of 0 would
    # carry the exact zero first pivot on as 0, the next pivot as -inf and
    # count 2
    arrays = rows([0.0, 1e-300, 1e-300], [1e-300, 1e-300], [0.0] * 3, [0.0] * 2)
    assert pivot_counts(*arrays, 0.0)[0] == dense_negative_count(*arrays, 0.0) == 1


def test_near_flag_marks_close_pivots_only():
    a_diag = np.array([2.0, 3.0])
    a_off = np.array([0.0])
    b_diag = np.ones(2)
    b_off = np.array([0.0])
    _, near, _ = kern.sturm_pivots(a_diag, a_off, b_diag, b_off, 2.5)
    assert near == 0
    _, near, _ = kern.sturm_pivots(a_diag, a_off, b_diag, b_off, 2.0 + 1e-14)
    assert near == 1


def test_pivot_ratio_vanishes_at_spectrum():
    a_diag = np.array([2.0, 3.0])
    a_off = np.array([0.0])
    b_diag = np.ones(2)
    b_off = np.array([0.0])
    _, _, ratio_eig = kern.sturm_pivots(a_diag, a_off, b_diag, b_off, 2.0)
    _, _, ratio_gap = kern.sturm_pivots(a_diag, a_off, b_diag, b_off, 2.5)
    assert ratio_eig == 0.0
    assert ratio_gap > 0.1


def test_coupled_off_diagonal_counts():
    # 2x2 with coupling: A = [[2,1],[1,2]], B = I, eigenvalues 1 and 3.
    a_diag = np.array([2.0, 2.0])
    a_off = np.array([1.0])
    b_diag = np.ones(2)
    b_off = np.array([0.0])
    for lam, expected in ((0.5, 0), (2.0, 1), (4.0, 2)):
        neg, _ = pivot_counts(a_diag, a_off, b_diag, b_off, lam)
        assert neg == expected


def test_single_node_pencil():
    a_diag = np.array([5.0])
    a_off = np.zeros(0)
    b_diag = np.array([2.0])
    b_off = np.zeros(0)
    assert pivot_counts(a_diag, a_off, b_diag, b_off, 2.0)[0] == 0
    assert pivot_counts(a_diag, a_off, b_diag, b_off, 3.0)[0] == 1


def test_benchmark_tracer_counts_each_sweep_once():
    # the benchmark's span tracer wraps both kernel entries and every
    # binding of them; each lambda the pencil memo holds was swept once
    spec = importlib.util.spec_from_file_location(
        "tracer", Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    )
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        disc = assemble(
            1.0, 0.0, CompositeMeasure.from_selfsim(cantor_ladder()), BoundaryCondition.neumann(), depth=6
        )
        tracer.run = 0
        counting_function(disc, np.geomspace(10.0, 1e4, 7))
        eigenvalues(disc, 4)
        tracer.run = None
    finally:
        tracer.uninstall()
    kernels = tracer.run_metrics(0)
    assert kernels["kernels.sweeps"] == len(disc._memo) > 0
    assert kernels["kernels.node_lambda_pairs"] == len(disc._memo) * disc.n_free
