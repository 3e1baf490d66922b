"""Tests for the level recursion that counts pair-route pencils.

The reference is the tridiagonal kernel on the same pencil's arrays,
built by the run walk: a pencil made from those arrays alone
(PencilDiscretization(...)) is swept by sturm_pivots_many.  The records
themselves are pinned to a recursion that evaluates one cell per call
and one junction per chain port (_oracles.reference_level_inertia): bit
for bit where no run is counted in closed form, and otherwise with the
50-digit recursion (_oracles.exact_negatives) deciding the counts near
an eigenvalue, which also checks eigenvalues to 1e-13.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dgttrf

from fractalsturm import (
    BoundaryCondition,
    InvalidParametersError,
    MonotonePrimitive,
    PencilDiscretization,
    SelfSimilarParams,
    UnsupportedConfigurationError,
    asymptotics_report,
    assemble_iterated_pair,
    assemble_selfsimilar_pair,
    cantor_ladder,
    count,
    counting_function,
    eigenvalues,
    splitting_inequality,
)
from fractalsturm import _kernels, assembly
from fractalsturm.selfsim import moments, pair_moments
from fractalsturm.spectral import zero_tolerance

from _oracles import (
    classes_loop,
    dense,
    exact_eigenvalue,
    exact_negatives,
    reference_from_segments,
    reference_level_inertia,
    reference_template,
    scan_every_candidate,
    walk_segments,
)

NEUMANN = BoundaryCondition.neumann()
DIRICHLET = BoundaryCondition.dirichlet()
IDENTITY = MonotonePrimitive.identity(3)
CANTOR_R = MonotonePrimitive.cantor()
CANTOR = cantor_ladder()
# d' = (w, 0, 1 - w) as in the benchmark's general workload: the two live
# letters scale differently, so level L has L + 1 classes
UNEVEN = SelfSimilarParams(a=(1 / 3,) * 3, dprime=(0.3, 0.0, 0.7), betaprime=(0.0, 0.3, 0.3))
# P with two equal live letters, a massless one and a heavier one: the
# chain of its k = 2 iterate holds runs of two ports, single ports and
# wires of two lengths
PAIRED = SelfSimilarParams(a=(0.25,) * 4, dprime=(0.25, 0.25, 0.0, 0.5), betaprime=(0.0, 0.25, 0.5, 0.5))

# criterion 1 and the counterexample workload: lam and the splitting
# arguments d_i d'_i lam; criterion 6 and the asymptotics workload, and
# the same grid one period on; the general workload; criterion 7's
# uniform draws
GRID = np.unique(np.concatenate((
    [0.0, 510.0, 85.0, 85.0 / 6.0],
    np.geomspace(1e3, 1e7, 25),
    6.0 * np.geomspace(1e3, 1e7, 25),
    [1e2, 1e3, 1e4],
    np.random.default_rng(2024).uniform(-2000.0, 8000.0, 50),
)))


def from_arrays(disc):
    """The same pencil, counted by the kernel over its arrays."""
    return PencilDiscretization(
        disc.nodes, disc.a_diag, disc.a_off, disc.b_diag, disc.b_off, disc.free_start
    )


def counts(disc, lams):
    return [(r.n_plus, r.n_minus) for r in counting_function(disc, lams)]


def cantor(bc, depth, **scales):
    return assemble_selfsimilar_pair(IDENTITY, CANTOR, bc, depth, **scales)


def iterate(bc, depth, **scales):
    return assemble_iterated_pair(CANTOR_R, 6, CANTOR, bc, depth, **scales)


def uneven(bc, depth, **scales):
    return assemble_selfsimilar_pair(IDENTITY, UNEVEN, bc, depth, **scales)


def iterate10(bc, depth, **scales):
    return assemble_iterated_pair(CANTOR_R, 10, CANTOR, bc, depth, **scales)


def paired(bc, depth, **scales):
    return assemble_iterated_pair(MonotonePrimitive.identity(4), 2, PAIRED, bc, depth, **scales)


# d' = (0.3, 0.7) on halves: level L has the L + 1 classes 0.15^j 0.35^(L - j),
# so the class count grows per level and no two levels share a table
HALVES = SelfSimilarParams(a=(0.5, 0.5), dprime=(0.3, 0.7), betaprime=(0.0, 0.3))
# (R, P, k) of each pencil built here; k None for assemble_selfsimilar_pair
PROBLEMS = {
    "cantor": (IDENTITY, CANTOR, None),
    "iterate": (CANTOR_R, CANTOR, 6),
    "iterate0": (CANTOR_R, CANTOR, 0),
    "iterate10": (CANTOR_R, CANTOR, 10),
    "uneven": (IDENTITY, UNEVEN, None),
    "paired": (MonotonePrimitive.identity(4), PAIRED, 2),
    "halves": (MonotonePrimitive.identity(2), HALVES, None),
}


def pair_route(r, p, k, bc, depth, **scales):
    """The pencil of the pair route for k (None: self-similar), with the
    letter factors of its levels, its chain level and its hat products."""
    if k is None:
        disc = assemble_selfsimilar_pair(r, p, bc, depth, **scales)
        factors, chain_level, mu = (r.params.dprime,) * depth, 0, pair_moments(r, p, 2)
    else:
        disc = assemble_iterated_pair(r, k, p, bc, depth, **scales)
        factors, chain_level, mu = (r.params.dprime,) * k + (r.params.a,) * (depth - k), k, moments(p, 2)
    return disc, factors, chain_level, np.array([mu[0] - 2 * mu[1] + mu[2], mu[1] - mu[2], mu[2]])


@pytest.mark.parametrize(
    "build, depth",
    [(cantor, 9), (cantor, 12), (cantor, 15), (iterate, 9), (iterate, 14), (uneven, 9), (uneven, 12)],
)
def test_counts_equal_kernel_sweep(build, depth):
    disc = build(NEUMANN, depth)
    assert counts(disc, GRID) == counts(from_arrays(disc), GRID)


@st.composite
def pair_problems(draw, signed=False):
    """(R, P) sharing cell widths: R's weights positive or zero (a plateau),
    P's zero on R's plateaus and on some other letters, no junction atoms;
    signed P's weights may be negative too."""
    n = draw(st.integers(2, 4))
    a = np.asarray(draw(st.lists(st.floats(0.1, 1.0), min_size=n, max_size=n)))
    a = tuple(a / a.sum())
    r_d = np.asarray(draw(st.lists(st.floats(0.1, 1.0), min_size=n, max_size=n)))
    r_d[list(draw(st.sets(st.integers(0, n - 1), max_size=n - 2)))] = 0.0
    r_d /= r_d.sum()
    p_d = np.asarray(draw(st.lists(st.floats(-1.0 if signed else 0.1, 1.0), min_size=n, max_size=n)))
    p_d[(r_d == 0.0) | np.isin(np.arange(n), list(draw(st.sets(st.integers(0, n - 1), max_size=n - 2))))] = 0.0
    # one live letter would make dP a point mass at an end
    assume(np.count_nonzero(p_d) >= 2 and abs(p_d.sum()) > 0.1)
    p_d /= p_d.sum()

    def params(d):
        return SelfSimilarParams(a=a, dprime=tuple(d), betaprime=tuple(np.concatenate(([0.0], np.cumsum(d)[:-1]))))

    return MonotonePrimitive(params(r_d)), params(p_d)


@settings(max_examples=60, deadline=None)
@given(
    pair_problems(),
    st.integers(1, 7),
    st.data(),
    st.sampled_from([NEUMANN, DIRICHLET, BoundaryCondition(0.7, None), BoundaryCondition(-0.5, 2.5)]),
)
def test_counts_equal_kernel_sweep_on_random_pairs(problem, depth, data, bc):
    r, p = problem
    k = data.draw(st.none() | st.integers(0, depth))
    if k is None:
        disc = assemble_selfsimilar_pair(r, p, bc, depth, r_mass=1.3, p_scale=0.7)
    else:
        # on levels above k the plateaus of R carry no mass of P, below it R is affine
        disc = assemble_iterated_pair(r, k, p, bc, depth, r_mass=1.3, p_scale=0.7)
    grid = np.concatenate(([0.0], np.geomspace(1.0, 1e6, 40), -np.geomspace(1e-2, 1e3, 6)))
    assert counts(disc, grid) == counts(from_arrays(disc), grid)


@settings(max_examples=60, deadline=None)
@given(
    pair_problems(signed=True),
    st.integers(1, 7),
    st.data(),
    st.sampled_from([NEUMANN, DIRICHLET, BoundaryCondition(0.7, None), BoundaryCondition(-0.5, 2.5)]),
)
def test_chain_and_arrays_equal_depth_first_walk(problem, depth, data, bc):
    # the template is the one built level by level (its chain the depth-first
    # rows down to the chain level, classed by the sorted loop and grouped
    # port by port; no table shared); the arrays, from the run walk over
    # every level, are the rows of the whole walk stamped one by one
    r, p = problem
    k = data.draw(st.none() | st.integers(0, depth))
    disc, factors, chain_level, quad = pair_route(r, p, k, bc, depth, r_mass=1.3, p_scale=0.7)

    def t_factor(level, i):
        return factors[level - 1][i]

    assert disc._levels == reference_template(p, factors, chain_level, quad, 1.3, bc, 0.7)
    want = reference_from_segments(walk_segments(p, depth, t_factor), quad, 1.3, bc, 0.7)
    for name in ("nodes", "a_diag", "a_off", "b_diag", "b_off"):
        assert np.array_equal(getattr(disc, name), getattr(want, name)), name


@st.composite
def scale_lists(draw):
    """Values as the pair routes class them: repeats, neighbours within and
    just beyond 1e-12 relative, both signs and zeros of both signs."""
    base = draw(st.lists(st.floats(-1e3, 1e3) | st.sampled_from([0.0, -0.0, 5e-324]), min_size=1, max_size=8))
    rel = st.sampled_from([0.0, 1e-13, -1e-13, 9e-13, 1e-12, -1e-12, 1.1e-12, 3e-12])
    return draw(st.lists(st.tuples(st.sampled_from(base), rel).map(lambda x: x[0] * (1.0 + x[1])), max_size=40))


@settings(max_examples=200, deadline=None)
@given(scale_lists())
# one class, the first value kept: all equal, zeros of both signs
@example([2.5, 2.5, 2.5])
@example([0.0, -0.0])
@example([-0.0, 0.0, 0.0])
@example([])
def test_classes_equal_sorted_loop(values):
    index, classes = assembly._classes(values)
    want_index, want_classes = classes_loop(values)
    assert index == want_index
    # bit for bit, the sign of a zero included
    assert [x.hex() for x in classes] == [x.hex() for x in want_classes]


def test_pair_templates_walk_no_numpy_rows(monkeypatch):
    def refuse(*args):
        raise AssertionError("pair-route arrays built")

    monkeypatch.setattr(assembly, "_pair_arrays", refuse)
    assert len(cantor(NEUMANN, 15)._levels.levels) == 15
    assert paired(NEUMANN, 7)._levels.chain[0] == (0, 16.0, 2)
    # the k = 14 Cantor iterate's 2^14 chain cells are one run
    disc = assemble_iterated_pair(CANTOR_R, 14, CANTOR, NEUMANN, 14)
    assert disc._levels.chain == ((0, 16384.0, 16384),)


def test_graded_arrays_pencil_keeps_small_eigenvalues():
    # letter weights 0.32 and 0.04 grade the depth-7 mesh: |A| / |B| in
    # the largest-entry norm is ~1.7e14, and a zero band of 1e-12 times
    # that (~168) took the eigenvalues near 9.3, 42.8 and 107.3 for 0
    r = MonotonePrimitive(SelfSimilarParams(
        a=(0.25,) * 4, dprime=(0.32, 0.32, 0.32, 0.04), betaprime=(0.0, 0.32, 0.64, 0.96)
    ))
    p = SelfSimilarParams(a=(0.25,) * 4, dprime=(0.25,) * 4, betaprime=(0.0, 0.25, 0.5, 0.75))
    disc = assemble_selfsimilar_pair(r, p, NEUMANN, 7, r_mass=1.3, p_scale=0.7)
    arrays = from_arrays(disc)
    assert zero_tolerance(arrays) < 1.0
    assert counts(disc, [0.0, 1.0, 10.0, 50.0, 110.0]) == [(1, 0), (1, 0), (2, 0), (3, 0), (4, 0)]
    assert counts(arrays, [0.0, 1.0, 10.0, 50.0, 110.0]) == [(1, 0), (1, 0), (2, 0), (3, 0), (4, 0)]


def test_one_class_per_distinct_scaling():
    # Cantor cells of one level share one scaling; (w, 0, 1 - w) gives
    # level L the products w^j (1 - w)^(L - j), one class each
    assert [len(t) for t in cantor(NEUMANN, 12)._levels.levels] == [1] * 12
    assert [len(t) for t in uneven(NEUMANN, 12)._levels.levels] == list(range(12, 0, -1))
    assert len(uneven(NEUMANN, 12)._levels.leaves) == 13


def test_single_segment_rejected_at_assembly():
    # as the arrays' own check would, before any array is built
    with pytest.raises(InvalidParametersError, match="no free nodes"):
        cantor(DIRICHLET, 0)
    with pytest.raises(InvalidParametersError, match="no free nodes"):
        assemble_iterated_pair(CANTOR_R, 0, CANTOR, DIRICHLET, 0)
    assert cantor(BoundaryCondition(None, 0.0), 0)._levels is not None
    # the k = 6 iterate at depth 6 is one run of 64 one-element ports: its
    # chain holds one entry but 63 free nodes between Dirichlet ends
    disc = assemble_iterated_pair(CANTOR_R, 6, CANTOR, DIRICHLET, 6)
    assert disc._levels.chain == ((0, 64.0, 64),) and disc._levels.levels == ()
    assert counts(disc, GRID) == counts(from_arrays(disc), GRID)


@pytest.mark.parametrize("build", [cantor, iterate, uneven, paired])
@pytest.mark.parametrize(
    "bc", [DIRICHLET, BoundaryCondition(None, 1.5), BoundaryCondition(0.7, 2.5), BoundaryCondition(-1.0, -1.0)],
    ids=["dirichlet", "dirichlet-robin", "robin", "negative-robin"],
)
@pytest.mark.parametrize("r_mass, p_scale", [(1.0, 1.0), (2.5, 0.3), (1e-3, 1e3)])
def test_counts_equal_kernel_sweep_at_ends_and_scales(build, bc, r_mass, p_scale):
    disc = build(bc, 9, r_mass=r_mass, p_scale=p_scale)
    grid = np.concatenate((GRID, -np.geomspace(1e-2, 1e3, 12)))
    assert counts(disc, grid) == counts(from_arrays(disc), grid)


def first_eigenvalues(disc, how_many):
    """The first how_many positive eigenvalues, by bisection on counts alone."""
    found = []
    for k in range(count(disc, 0.0).n_plus + 1, count(disc, 0.0).n_plus + how_many + 1):
        lo, hi = 1e-3, 1.0
        while count(disc, hi).n_plus < k:
            lo, hi = hi, 8.0 * hi
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if count(disc, mid).n_plus < k:
                lo = mid
            else:
                hi = mid
        found.append(hi)
    return found


@pytest.mark.parametrize("build", [cantor, iterate])
def test_counts_monotone_around_eigenvalues_at_depth_30(build):
    disc = build(NEUMANN, 30)
    eigs = first_eigenvalues(disc, 20)
    assert 7.0 < eigs[0] and len(set(eigs)) == 20
    for e in eigs:
        window = np.linspace(e * (1.0 - 1e-10), e * (1.0 + 1e-10), 41)
        got = [n for n, _ in counts(disc, window)]
        assert got == sorted(got), e
    # a 2^30-node pencil: nothing above may have built its arrays
    assert "a_diag" not in vars(disc)


@pytest.mark.parametrize("build", [cantor, iterate])
@pytest.mark.parametrize("depth", [9, 24, 45])
@pytest.mark.parametrize("r_mass", [1e-3, 1.0, 1e3])
@pytest.mark.parametrize("p_scale", [1e-3, 1.0, 1e3])
def test_zero_mode_counts_at_any_depth(build, depth, r_mass, p_scale):
    disc = build(NEUMANN, depth, r_mass=r_mass, p_scale=p_scale)
    zt = zero_tolerance(disc)
    assert 0.0 < zt < 1e-200
    assert count(disc, 0.0).n_plus == 1
    assert count(disc, -zt).n_minus == 0
    assert "a_diag" not in vars(disc)


def test_count_only_routes_build_no_arrays(monkeypatch):
    def refuse(*args):
        raise AssertionError("pair-route arrays built")

    monkeypatch.setattr(assembly, "_assemble_from_segments", refuse)
    disc = cantor(NEUMANN, 15)
    grid = np.geomspace(1e3, 1e7, 25)
    rep = asymptotics_report(disc, IDENTITY.params.dprime, CANTOR.dprime, grid)
    assert [r.n_plus for r in counting_function(disc, grid)] == rep.n_plus.tolist()
    chk = splitting_inequality(CANTOR_R, CANTOR, 6, 510.0, depth=9)
    assert (chk.lhs, chk.rhs_terms) == (8, (3, 1, 3))
    assert not any(name in vars(disc) for name in ("nodes", "a_diag", "b_off"))


def test_arrays_built_once_on_first_read():
    disc = iterate(BoundaryCondition(None, 0.0), 9)
    assert disc.free_start == 1 and "nodes" not in vars(disc)
    # the left end is eliminated, the right end kept
    assert disc.free_index(0) is None and disc.free_index(disc.nodes.size - 1) == disc.nodes.size - 2
    arrays = [vars(disc)[name] for name in ("nodes", "a_diag", "a_off", "b_diag", "b_off")]
    assert disc.n_free == disc.nodes.size - 1
    assert all(getattr(disc, name) is arr for name, arr in zip(("nodes", "a_diag"), arrays))
    with pytest.raises(AttributeError):
        disc.no_such_field


def test_arrays_over_the_node_cap_raise_before_the_walk(monkeypatch):
    # the depth-9 Cantor pair walks 2^10 - 1 rows; counts and eigenvalues
    # need no arrays, and only an explicit read of them meets the cap
    want = count(cantor(NEUMANN, 9), 1e3).n_plus, eigenvalues(cantor(NEUMANN, 9), 3)
    monkeypatch.setattr(assembly, "_MAX_NODES", 2**10 - 2)
    disc = cantor(NEUMANN, 9)

    def refuse(*args):
        raise AssertionError("walk started")

    monkeypatch.setattr(assembly, "_walk_runs", refuse)
    assert (count(disc, 1e3).n_plus, eigenvalues(disc, 3)) == want
    assert want[0] > 3
    assert "a_diag" not in vars(disc)
    with pytest.raises(UnsupportedConfigurationError, match="cap"):
        disc.a_diag


@pytest.mark.parametrize("depth, walks", [(24, True), (25, False)])
def test_node_cap_admits_depth_24_of_the_cantor_pair(monkeypatch, depth, walks):
    # depth d walks 2^(d + 1) - 1 rows, under the cap 2^25 up to d = 24;
    # the walk itself is stubbed, so no array is allocated
    disc = cantor(NEUMANN, depth)

    class Walked(Exception):
        pass

    def walk(*args):
        raise Walked

    monkeypatch.setattr(assembly, "_walk_runs", walk)
    with pytest.raises(Walked if walks else UnsupportedConfigurationError):
        disc.a_diag


# two hat elements with M01 = 0: c = 1 and rho = -s, so the junction
# pivot 1 + 1 - 2s and, on one Neumann element, the first chain pivot
# 1 - s vanish at s = 1
JOINED = _kernels.LevelTemplate(
    s_unit=1.0, quad=(1.0, 0.0, 1.0), leaves=(1.0,), levels=((((0, 1.0), (0, 1.0)),),),
    chain=((0, 1.0, 1),), left=None, right=None,
)
ELEMENT = JOINED._replace(levels=(), left=0.0, right=0.0)


def test_exact_zero_pivots_are_clamped_near_zeros():
    # the exact zero pivot counts as negative: at s = 1 the joined cells'
    # eigenvalue counts as below s, and on one element the clamped first
    # pivot turns the last one positive, which keeps the count at 1
    lams = np.array([1.0 - 1e-9, 1.0, 1.0 + 1e-9])
    assert _kernels.level_pivots_many(JOINED, lams) == [
        (0, 0, pytest.approx(5e-10)), (1, 1, 0.0), (1, 0, pytest.approx(5e-10))
    ]
    assert _kernels.level_pivots_many(ELEMENT, np.array([1.0])) == [(1, 1, 0.0)]


def iterate0(bc, depth, **scales):
    return assemble_iterated_pair(CANTOR_R, 0, CANTOR, bc, depth, **scales)


# 0 and the smallest subnormals, negatives down to -1e12, the workloads'
# grid and a seeded uniform sample
RECORD_LAMS = np.concatenate((
    [0.0, 5e-324, -5e-324],
    -np.geomspace(1e-3, 1e12, 16),
    GRID,
    np.random.default_rng(18).uniform(-1e4, 1e5, 40),
))


def same_records(template, lams):
    """The kernel's records against the per-port reference recursion.

    Bit for bit when no run of the chain is counted in closed form (a run
    of at most three ports is swept port by port).  Otherwise, at every
    lam, the shift-check verdict (no negatives and a ratio above 1e-13)
    and the near-zero count; and the negatives equal the reference's
    where the decimal recursion finds no eigenvalue within 1e-13
    relative, and lie between its counts at the window's ends inside.
    """
    got = _kernels.level_pivots_many(template, lams)
    want = [reference_level_inertia(template, lam) for lam in lams.tolist()]
    if all(count <= 3 for *_, count in template.chain):
        return got == want
    for lam, (neg, near, ratio), (ref_neg, ref_near, ref_ratio) in zip(lams.tolist(), got, want):
        if (neg == 0 and ratio > 1e-13) != (ref_neg == 0 and ref_ratio > 1e-13) or near != ref_near:
            return False
        around = [exact_negatives(template, x) for x in (lam * (1.0 - 1e-13), lam * (1.0 + 1e-13))]
        if len(set(around)) == 1:
            if neg != ref_neg:
                return False
        elif not min(around) <= neg <= max(around):
            return False
    return True


@pytest.mark.parametrize("build", [cantor, iterate, uneven, iterate0])
@pytest.mark.parametrize(
    "bc", [NEUMANN, DIRICHLET, BoundaryCondition(0.7, 2.5), BoundaryCondition(None, 1.5)],
    ids=["neumann", "dirichlet", "robin", "mixed"],
)
@pytest.mark.parametrize("depth", [6, 9, 14, 30])
def test_records_equal_reference_recursion(build, bc, depth):
    template = build(bc, depth, r_mass=1.3, p_scale=0.7)._levels
    lams = np.concatenate((RECORD_LAMS, [template.zero_band, -template.zero_band]))
    assert same_records(template, lams)


@pytest.mark.parametrize("template", [JOINED, ELEMENT], ids=["joined", "element"])
def test_records_equal_reference_on_hand_built_templates(template):
    # around and at their exact zero pivots
    lams = np.concatenate((RECORD_LAMS, [1.0 - 1e-9, 1.0, 1.0 + 1e-9, 0.5, 2.0]))
    assert same_records(template, lams)


@pytest.mark.parametrize(
    "build, depth, runs",
    [
        (iterate, 9, [(0, 64)]),
        (iterate10, 12, [(0, 1024)]),
        (paired, 7, [(0, 2), (-1, 1), (1, 1), (0, 2), (-1, 1), (1, 1), (-1, 1), (1, 2), (-1, 1), (2, 1)]),
    ],
    ids=["k6", "k10", "mixed"],
)
@pytest.mark.parametrize(
    "bc", [NEUMANN, DIRICHLET, BoundaryCondition(0.7, 2.5), BoundaryCondition(None, 1.5)],
    ids=["neumann", "dirichlet", "robin", "mixed"],
)
def test_chain_runs_equal_reference(build, depth, runs, bc):
    template = build(bc, depth, r_mass=1.3, p_scale=0.7)._levels
    assert [(index, count) for index, _, count in template.chain] == runs
    lams = np.concatenate((RECORD_LAMS, [template.zero_band, -template.zero_band]))
    assert same_records(template, lams)


# three one-element ports in one run between Neumann ends: at s the pivots
# are 1 - s, then 1 - 2s - s / (1 - s) at the run's first inner junction,
# which vanishes at s = 1 - sqrt(2)/2; at s = 1 the first pivot is exactly
# zero, and the clamp carried into the run makes its second inner pivot
# exactly zero too; at s = 1/2 the last node's pivot is exactly zero
RUN = ELEMENT._replace(chain=((0, 1.0, 3),))


def test_run_records_equal_reference_at_zero_pivots():
    root = 1.0 - math.sqrt(2.0) / 2.0
    near_root = [root]
    for _ in range(3):
        near_root = [np.nextafter(near_root[0], 0.0), *near_root, np.nextafter(near_root[-1], 1.0)]
    lams = np.concatenate((RECORD_LAMS, near_root, [0.5, 1.0]))
    assert same_records(RUN, lams)
    records = _kernels.level_pivots_many(RUN, np.array([root, 0.5, 1.0]))
    assert [near for _, near, _ in records] == [1, 1, 2]
    # the eigenvalue at s = 1/2 counts as below it, with the constant mode
    assert [neg for neg, _, _ in records] == [1, 2, 2]


def rows(*values):
    return tuple(np.array(v, dtype=float) for v in values)


# the arrays of the hand-built templates, stamped by hand: unit hat
# elements with c = 1, M00 = M11 = 1 and M01 = 0, so s is lam
RUN_ARRAYS = rows([1, 2, 2, 1], [-1, -1, -1], [1, 2, 2, 1], [0, 0, 0])
JOINED_ARRAYS = rows([2], [], [2], [])  # its Dirichlet ends eliminated
ELEMENT_ARRAYS = rows([1, 1], [-1], [1, 1], [0])


@pytest.mark.parametrize(
    "template, arrays, lam",
    [(RUN, RUN_ARRAYS, 0.5), (RUN, RUN_ARRAYS, 1.0), (JOINED, JOINED_ARRAYS, 1.0), (ELEMENT, ELEMENT_ARRAYS, 1.0)],
    ids=["run-half", "run-one", "joined", "element"],
)
def test_routes_agree_at_exact_zero_pivots(template, arrays, lam):
    # one rule in both kernels: the level recursion and the sweep over
    # the same pencil's arrays count the same negatives at an exact zero
    # pivot, between the eigenvalues of A - lam B below 0 and at or below 0
    ((level, _, ratio),) = _kernels.level_pivots_many(template, np.array([lam]))
    swept = _kernels.sturm_pivots(*arrays, lam)[0]
    a_diag, a_off, b_diag, b_off = arrays
    off = a_off - lam * b_off
    eigs = np.linalg.eigvalsh(np.diag(a_diag - lam * b_diag) + np.diag(off, 1) + np.diag(off, -1))
    assert ratio == 0.0
    assert level == swept
    assert np.sum(eigs < -1e-9) <= level <= np.sum(eigs <= 1e-9)


def test_zero_weight_has_no_band():
    weightless = _kernels.LevelTemplate(1.0, (0.3, 0.2, 0.5), (), (), ((-1, 1.0, 1),), 0.0, 0.0)
    with pytest.raises(InvalidParametersError):
        weightless.zero_band


@settings(max_examples=40, deadline=None)
@given(
    pair_problems(signed=True),
    st.integers(1, 7),
    st.data(),
    st.sampled_from([NEUMANN, DIRICHLET, BoundaryCondition(0.7, None), BoundaryCondition(-0.5, 2.5)]),
)
def test_counts_equal_exact_reference_on_random_pairs(problem, depth, data, bc):
    # closed-form runs against the 50-digit recursion, wherever no
    # eigenvalue lies within 1e-13 relative of the grid point
    r, p = problem
    k = data.draw(st.none() | st.integers(0, depth))
    if k is None:
        template = assemble_selfsimilar_pair(r, p, bc, depth, r_mass=1.3, p_scale=0.7)._levels
    else:
        template = assemble_iterated_pair(r, k, p, bc, depth, r_mass=1.3, p_scale=0.7)._levels
    grid = np.concatenate((np.geomspace(1.0, 1e6, 30), -np.geomspace(1e-2, 1e3, 6)))
    for lam, (neg, _, _) in zip(grid.tolist(), _kernels.level_pivots_many(template, grid)):
        around = {exact_negatives(template, x) for x in (lam * (1.0 - 1e-13), lam * (1.0 + 1e-13))}
        if len(around) == 1:
            assert around == {neg}, lam


@pytest.mark.parametrize("build, depth", [(cantor, 5), (iterate, 7), (uneven, 5), (paired, 4)])
@pytest.mark.parametrize("bc", [NEUMANN, DIRICHLET, BoundaryCondition(0.7, 2.5), BoundaryCondition(-1.0, None)])
def test_slopes_carry_the_records_and_the_log_det_derivative(build, depth, bc):
    # the records of the Newton evaluation are the counts' bit for bit, and
    # its slope is (log |det(A - lam B)|)' = -tr((A - lam B)^-1 B)
    disc = build(bc, depth, r_mass=1.3, p_scale=0.7)
    lams = np.concatenate((RECORD_LAMS, np.geomspace(1.0, 1e4, 30)))
    got = _kernels.level_slopes_many(disc._levels, lams)
    assert [record for record, _ in got] == _kernels.level_pivots_many(disc._levels, lams)
    a, b = dense(disc)
    for lam, (_, slope) in list(zip(lams.tolist(), got))[::3]:
        mat = a - lam * b
        if np.min(np.abs(np.linalg.eigvalsh(mat))) > 1e-6 * np.max(np.abs(mat)):
            want = -np.trace(np.linalg.solve(mat, b))
            assert slope == pytest.approx(want, rel=1e-7, abs=1e-9 * np.abs(b).sum()), lam


def test_slope_where_a_run_coupling_squared_underflows():
    # at lam = -1e11 a run of the k = 6 iterate at depth 12 has |c| < 1e-154,
    # where 4c^2 underflowed to 0 and the slope raised ZeroDivisionError; it
    # matches a central difference of log |det(A - lam B)| on the arrays
    disc = iterate(NEUMANN, 12)
    lam, h = -1e11, 1e6
    ((record, slope),) = _kernels.level_slopes_many(disc._levels, np.array([lam]))
    assert [record] == _kernels.level_pivots_many(disc._levels, np.array([lam]))

    def log_det(x):
        off = disc.a_off - x * disc.b_off
        _, u, _, _, _, info = dgttrf(off, disc.a_diag - x * disc.b_diag, off)
        assert info == 0
        return np.log(np.abs(u)).sum()

    assert disc.n_free == 8129
    assert slope == pytest.approx((log_det(lam + h) - log_det(lam - h)) / (2.0 * h), rel=1e-6)


@pytest.mark.parametrize("k, depth", [(6, 9), (10, 12), (14, 16)])
def test_counts_monotone_around_the_first_40_eigenvalues(k, depth):
    # the iterate's chain is one run of 2^k ports, counted in closed form
    disc = assemble_iterated_pair(CANTOR_R, k, CANTOR, NEUMANN, depth)
    eigs = eigenvalues(disc, 41)[1:]
    assert len(set(eigs)) == 40
    for e in eigs:
        window = np.linspace(e * (1.0 - 1e-10), e * (1.0 + 1e-10), 41)
        got = [n for n, _ in counts(disc, window)]
        assert got == sorted(got), e
    assert "a_diag" not in vars(disc)


@pytest.mark.parametrize("build, depth", [(cantor, 60), (iterate, 60), (cantor, 15), (iterate, 14)])
def test_eigenvalues_equal_the_exact_reference_to_1e_13(build, depth, monkeypatch):
    # depth 60 (about 2^60 nodes), and 65,536 and 32,705 nodes at depths 15
    # and 14: every value comes from the level template, Newton steps
    # included, and agrees with the 50-digit recursion to 1e-13
    def refuse(*args):
        raise AssertionError("pair-route arrays built")

    monkeypatch.setattr(assembly, "_pair_arrays", refuse)
    disc = build(NEUMANN, depth)
    got = eigenvalues(disc, 20, rtol=1e-13)
    assert got[0] == 0.0 and len(set(got)) == 20
    for k, e in enumerate(got[1:], start=2):
        assert abs(e - exact_eigenvalue(disc._levels, k, e)) <= 1e-13 * e
    assert "a_diag" not in vars(disc)


@pytest.mark.parametrize("depth", [9, 12, 16, 24, 30, 45, 60])
def test_newton_evaluations_stay_flat_in_depth(depth, monkeypatch):
    # 20 eigenvalues of the k = 6 iterate take at most 160 recursion
    # evaluations, counts and Newton steps together, at every depth
    spent = []
    for name in ("level_pivots_many", "level_slopes_many"):
        entry = getattr(_kernels, name)

        def spy(template, lams, entry=entry):
            spent.extend(lams.tolist())
            return entry(template, lams)

        monkeypatch.setattr(_kernels, name, spy)
    disc = iterate(NEUMANN, depth)
    eigenvalues(disc, 20)
    assert 0 < len(spent) <= 160


@pytest.mark.parametrize("build, depth", [(iterate, 9), (iterate, 14), (cantor, 12), (cantor, 15), (uneven, 9), (paired, 7)])
def test_template_eigenvalues_within_rtol_of_the_exact_reference(build, depth):
    # the Newton values within rtol of the 50-digit recursion's, as the
    # array polish (to depth 11) and bisection (from depth 12) gave them
    disc = build(NEUMANN, depth)
    rtol = 1e-10
    got = eigenvalues(disc, 12, rtol=rtol)
    assert got[0] == 0.0
    for k, value in enumerate(got[1:], start=2):
        exact = exact_eigenvalue(disc._levels, k, value, rel=1e-9)
        assert abs(value - exact) <= rtol * exact


def port_by_port(c, inner, row, pivot, m, slope):
    """m junctions of a run swept one by one, with the lam-derivatives.

    (negatives, smallest pivot ratio, row, pivot, sum of pivot' / pivot,
    row', pivot') for a run whose c, inner and the start's row and pivot
    have the derivatives slope = (c', inner', row', pivot').
    """
    dc, dinner, drow, dpivot = slope
    neg, low, total = 0, math.inf, 0.0
    for _ in range(m):
        through = c * row / pivot
        dthrough = (dc * row + c * drow - through * dpivot) / pivot
        row, drow = inner + through, dinner + dthrough
        pivot, dpivot = row + c, drow + dc
        low = min(low, abs(pivot) / (abs(inner) + abs(through) + abs(c)))
        if pivot == 0.0:
            return neg, 0.0, row, pivot, math.nan, drow, dpivot
        neg += pivot < 0.0
        total += dpivot / pivot
    return neg, low, row, pivot, total, drow, dpivot


@settings(max_examples=400, deadline=None)
@given(
    st.floats(-3.0, 3.0),
    st.sampled_from([1.0, -1.0]),
    st.one_of(st.floats(1e-3, 1.0 - 1e-3), st.floats(-50.0, -1e-3), st.floats(1.0 + 1e-3, 50.0), st.sampled_from([0.0, 1.0])),
    st.floats(-3.0, 3.0),
    st.sampled_from([1, 2, 5, 61, 300]),
    st.tuples(*[st.floats(-2.0, 2.0)] * 3),
)
def test_run_closed_form_equals_the_port_recurrence(log_c, sign, g, start, m, slopes):
    # elliptic (0 < g < 1), hyperbolic and parabolic (g = 0 or 1) runs of
    # either sign of c, from a junction before them with pivot = row + c;
    # within theta ~ sqrt(g) or sqrt(|1 - g|) of a parabolic end the slope
    # loses about eps / theta^2 (which slows Newton, and moves no count),
    # so g keeps 1e-3 from those ends unless it is at one
    c = sign * 10.0**log_c
    inner = -4.0 * c * g
    row = c * start
    pivot = row + c
    dc, dinner, drow = slopes
    slope = (dc, dinner, drow, drow + dc)
    assume(abs(pivot) > 1e-3 * abs(c))
    neg, low, want_row, want_pivot, total, drow, dpivot = port_by_port(c, inner, row, pivot, m, slope)
    assume(low > 1e-6)  # no pivot on the way close enough to 0 for rounding to decide its sign
    got = _kernels._run(c, inner, row, pivot, m, slope)
    assert got[:2] == (neg, 0)
    scale = abs(c) + abs(inner)
    assert got[3] == pytest.approx(want_row, rel=1e-6, abs=1e-9 * scale)
    assert got[4] == pytest.approx(want_pivot, rel=1e-6, abs=1e-9 * scale)
    assert got[:5] == _kernels._run(c, inner, row, pivot, m)
    assert got[5] == pytest.approx(total, rel=1e-5, abs=1e-7 * m * (1 + abs(total)))
    assert got[7] == pytest.approx(dpivot, rel=1e-5, abs=1e-7 * (1 + abs(dpivot)))


@pytest.mark.parametrize("inner", [-0.5, 0.0, 0.75])
def test_run_with_a_decoupled_port(inner):
    # c = 0: every junction inside the run has the pivot inner, which an
    # exact zero carries as negative and near-zero
    slope = (0.3, -0.2, 0.1, 0.4)
    neg, near, ratio, row, pivot, total, _, dpivot = _kernels._run(0.0, inner, 1.0, 1.0, 7, slope)
    assert (neg, near, row) == ((7, 7, 0.0) if inner == 0.0 else (7 * (inner < 0.0), 0, inner))
    assert pivot == (inner or -_kernels._TINY) and ratio == (1.0 if inner else 0.0)
    assert dpivot == -0.2 and total == 7 * -0.2 / pivot


@pytest.mark.parametrize(
    "name, depth",
    [("cantor", 15), ("cantor", 60), ("iterate", 9), ("iterate", 24), ("iterate0", 9),
     ("iterate10", 12), ("uneven", 12), ("paired", 7), ("halves", 10)],
)
@pytest.mark.parametrize(
    "bc", [NEUMANN, DIRICHLET, BoundaryCondition(0.7, 2.5), BoundaryCondition(None, 1.5)],
    ids=["neumann", "dirichlet", "robin", "mixed"],
)
def test_shared_tables_equal_a_level_by_level_build(name, depth, bc):
    r, p, k = PROBLEMS[name]
    disc, factors, chain_level, quad = pair_route(r, p, k, bc, depth, r_mass=1.3, p_scale=0.7)
    got, want = disc._levels, reference_template(p, factors, chain_level, quad, 1.3, bc, 0.7)
    assert got == want
    lams = np.concatenate((RECORD_LAMS, [got.zero_band, -got.zero_band]))
    # bit for bit, signed zeros included
    assert repr(_kernels.level_pivots_many(got, lams)) == repr(_kernels.level_pivots_many(want, lams))


def test_repeating_levels_share_one_table():
    levels = cantor(NEUMANN, 15)._levels.levels
    assert len(levels) == 15 and all(table is levels[0] for table in levels)
    levels = iterate(NEUMANN, 9)._levels.levels
    assert len(levels) == 3 and all(table is levels[0] for table in levels)
    # a table per class count
    levels = pair_route(*PROBLEMS["halves"], NEUMANN, 10)[0]._levels.levels
    assert [len(table) for table in levels] == list(range(10, 0, -1))
    assert len({id(table) for table in levels}) == 10


@settings(max_examples=60, deadline=None)
@given(
    pair_problems(signed=True),
    st.integers(1, 7),
    st.data(),
    st.sampled_from([NEUMANN, BoundaryCondition(0.0, -0.0)]),
)
def test_neumann_pairs_reject_the_zero_shift_the_scan_skips(problem, depth, data, bc):
    # at lam = 0 every rho of the template is +-0, so the last pivot is +-0:
    # counted as negative with ratio 0, a shift check that fails
    r, p = problem
    disc = pair_route(r, p, data.draw(st.none() | st.integers(0, depth)), bc, depth, r_mass=1.3, p_scale=0.7)[0]
    ((neg, _, ratio),) = _kernels.level_pivots_many(disc._levels, np.array([0.0]))
    assert neg >= 1 and ratio == 0.0
    assert assembly.positivity_scan(disc, assembly.default_shift_grid()) == scan_every_candidate(disc._levels)
