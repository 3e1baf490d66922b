"""Tests for pencil assembly, boundary data, and the resolvent sandwich."""

import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_banded

from fractalsturm import (
    BoundaryCondition,
    CompositeMeasure,
    InvalidParametersError,
    MonotonePrimitive,
    PencilDiscretization,
    ResolventPoleError,
    SelfSimilarParams,
    StepFunction,
    UnsupportedConfigurationError,
    assemble,
    assemble_iterated_pair,
    assemble_selfsimilar_pair,
    boundary_data,
    cantor_ladder,
    count,
    default_shift_grid,
    eigenvalue,
    eigenvalues,
    moments,
    pair_moments,
    positivity_scan,
    resolvent_sandwich,
)
from fractalsturm.assembly import _Accumulator, _assemble_from_segments, _locate, _pair_arrays, _walk_runs
from fractalsturm.selfsim import junction_gaps

from _oracles import RecursiveAccumulator, reference_assemble, reference_from_segments, walk_segments

DIRICHLET = BoundaryCondition(None, None)
NEUMANN = BoundaryCondition(0.0, 0.0)
TWO_ATOMS = CompositeMeasure.from_atoms([(0.4, 1.0), (0.6, 1.0)])
PENCIL_FIELDS = ("nodes", "a_diag", "a_off", "b_diag", "b_off")
JUMPY = SelfSimilarParams(a=(0.3, 0.3, 0.4), dprime=(0.3, 0.0, 0.4), betaprime=(0.0, 0.45, 0.6))
DEAD_ENDS = SelfSimilarParams(a=(0.25,) * 4, dprime=(0.0, 0.5, 0.5, 0.0), betaprime=(0.0, 0.0, 0.5, 1.0))
# a signed P: the massless middle letter under a cell of negative mass
# gives that row a mass of -0.0
SIGNED = SelfSimilarParams(a=(1 / 3,) * 3, dprime=(1.2, 0.0, -0.2), betaprime=(0.0, 1.2, 1.2))


@st.composite
def monotone_params(draw):
    """Nondecreasing P from 0 to 1: zero letters, and junction gaps that
    are either all zero (cumulative offsets) or nonnegative jumps."""
    n = draw(st.integers(2, 4))
    a = np.asarray(draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)))
    d = np.asarray(draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)))
    dead = draw(st.sets(st.integers(0, n - 1), max_size=n - 2))
    d[list(dead)] = 0.0
    gaps = np.zeros(n - 1)
    if draw(st.booleans()):
        d *= draw(st.floats(0.2, 0.9)) / d.sum()
        split = np.asarray(draw(st.lists(st.floats(0.0, 1.0), min_size=n - 1, max_size=n - 1)))
        gaps = (1.0 - d.sum()) * (split / split.sum() if split.sum() > 0 else np.full(n - 1, 1 / (n - 1)))
    else:
        d /= d.sum()
    b = np.concatenate(([0.0], np.cumsum(d[:-1] + gaps)))
    return SelfSimilarParams(a=tuple(a / a.sum()), dprime=tuple(d), betaprime=tuple(b))


def atom_lists(max_size):
    return st.lists(st.tuples(st.floats(0.001, 0.999), st.floats(0.1, 2.0)), max_size=max_size)


@st.composite
def step_densities(draw):
    k = draw(st.integers(1, 4))
    inner = sorted(set(draw(st.lists(st.floats(0.01, 0.99), min_size=k - 1, max_size=k - 1))))
    values = draw(st.lists(st.floats(0.0, 2.0), min_size=len(inner) + 1, max_size=len(inner) + 1))
    return StepFunction(np.array([0.0, *inner, 1.0]), np.array(values))


class TestBoundaryData:
    def test_identity_gives_dirichlet(self):
        assert boundary_data(np.eye(2)) == BoundaryCondition(None, None)

    def test_minus_identity_gives_neumann(self):
        bc = boundary_data(-np.eye(2))
        assert bc.left == 0.0
        assert bc.right == 0.0

    def test_quarter_phase_gives_unit_robin(self):
        # theta = pi/2: v = -cot(theta/2) = -1
        bc = boundary_data(np.diag([1j, 1j]))
        assert bc.left == pytest.approx(-1.0)
        assert bc.right == pytest.approx(-1.0)

    def test_mixed_sides(self):
        bc = boundary_data(np.diag([1.0, -1.0]))
        assert bc.left is None
        assert bc.right == 0.0

    def test_non_unitary_rejected(self):
        with pytest.raises(InvalidParametersError):
            boundary_data(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_coupled_unitary_rejected(self):
        th = np.pi / 3
        rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        with pytest.raises(UnsupportedConfigurationError):
            boundary_data(rot)


class TestAssemble:
    def test_free_node_bookkeeping(self):
        disc = assemble(1.0, 0.0, CompositeMeasure.lebesgue(), DIRICHLET, depth=2)
        assert disc.n_free == len(disc.nodes) - 2
        assert disc.free_index(len(disc.nodes) - 1) is None
        j = disc.node_index(0.5)
        assert disc.nodes[j] == pytest.approx(0.5)
        assert disc.free_index(j) == j - 1
        assert disc.free_index(0) is None

    def test_neumann_keeps_all_nodes(self):
        disc = assemble(1.0, 0.0, CompositeMeasure.lebesgue(), NEUMANN, depth=2)
        assert disc.n_free == len(disc.nodes)
        assert [disc.free_index(j) for j in (0, len(disc.nodes) - 1)] == [0, len(disc.nodes) - 1]

    def test_mass_matrix_sums_to_measure_mass(self):
        p = CompositeMeasure(
            atoms=((0.123456789, 0.7),),
            density=StepFunction.constant(0.3),
            selfsim=(cantor_ladder(), 1.5),
        )
        disc = assemble(1.0, 0.0, p, NEUMANN, depth=6)
        assert disc.b_diag.sum() + 2 * disc.b_off.sum() == pytest.approx(p.total_mass(), abs=1e-12)

    def test_jumpy_selfsim_mass_exact_beyond_mesh_cap(self):
        jp = SelfSimilarParams(a=(0.5, 0.5), dprime=(0.5, 0.0), betaprime=(0.0, 1.0))
        disc = assemble(1.0, 0.0, CompositeMeasure.from_selfsim(jp), BoundaryCondition(0.0, None), depth=14)
        assert disc.b_diag.sum() + 2 * disc.b_off.sum() == pytest.approx(1.0, abs=1e-12)

    def test_lebesgue_dirichlet_eigenvalues(self):
        disc = assemble(1.0, 0.0, CompositeMeasure.lebesgue(), DIRICHLET, depth=9)
        evs = eigenvalues(disc, 3)
        for k, e in enumerate(evs, start=1):
            assert e == pytest.approx(np.pi**2 * k**2, rel=2e-4)

    def test_second_order_refinement(self):
        errs = []
        for dep in (6, 7, 8):
            disc = assemble(1.0, 0.0, CompositeMeasure.lebesgue(), DIRICHLET, depth=dep)
            errs.append(eigenvalue(disc, 1) - np.pi**2)
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.05)
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.05)

    def test_constant_potential_shifts_spectrum(self):
        disc = assemble(1.0, 5.0, CompositeMeasure.lebesgue(), DIRICHLET, depth=9)
        assert eigenvalue(disc, 1) == pytest.approx(np.pi**2 + 5.0, rel=1e-4)

    def test_potential_measure_atom(self):
        # q = 3 delta_{1/2} raises the ground state above pi^2
        qm = CompositeMeasure.from_atoms([(0.5, 3.0)])
        disc = assemble(1.0, qm, CompositeMeasure.lebesgue(), DIRICHLET, depth=9)
        e1 = eigenvalue(disc, 1)
        assert np.pi**2 + 2.0 < e1 < np.pi**2 + 6.0

    def test_scaled_preserves_counts(self):
        disc = assemble(1.0, 0.0, TWO_ATOMS, DIRICHLET, depth=8)
        arrays = (3.0 * disc.a_diag, 3.0 * disc.a_off, 3.0 * disc.b_diag, 3.0 * disc.b_off)
        scaled = PencilDiscretization(disc.nodes, *arrays, disc.free_start)
        assert count(disc, 100.0).n_plus == count(scaled, 100.0).n_plus

    def test_pencil_is_read_only(self):
        a_diag = np.array([2.0, 2.0])
        off = np.array([-1.0, 7.0])
        view = off[:1]
        view.flags.writeable = False
        disc = PencilDiscretization(np.array([0.0, 0.5, 1.0]), a_diag, view, np.ones(2), np.zeros(1), 0)
        # writable inputs, and read-only views of writable memory, are copied
        a_diag[0] = 5.0
        off[0] = 5.0
        assert disc.a_diag[0] == 2.0 and disc.a_off[0] == -1.0
        assembled = assemble(1.0, 0.0, TWO_ATOMS, DIRICHLET, depth=4)
        # a pair-route pencil's arrays, built on first read
        pair = assemble_iterated_pair(MonotonePrimitive.cantor(), 2, cantor_ladder(), NEUMANN, depth=5)
        for d in (disc, assembled, pair):
            for arr in (d.nodes, d.a_diag, d.a_off, d.b_diag, d.b_off):
                assert arr.dtype == np.float64 and arr.flags.c_contiguous
            with pytest.raises(ValueError):
                d.a_diag[0] = 1.0
            with pytest.raises(ValueError):
                d.b_off += 1.0

    @pytest.mark.parametrize("name", ["nodes", "a_diag", "a_off", "b_diag", "b_off"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_arrays_rejected(self, name, bad):
        # the LAPACK solves of the polish and the sandwich do not check
        arrays = {
            "nodes": np.array([0.0, 0.5, 1.0]), "a_diag": np.array([2.0, 2.0]),
            "a_off": np.array([-1.0]), "b_diag": np.ones(2), "b_off": np.zeros(1),
        }
        arrays[name][0] = bad
        with pytest.raises(InvalidParametersError, match=name):
            PencilDiscretization(**arrays, free_start=0)

    def test_compares_and_hashes_by_identity(self):
        # the generated == compared the arrays and raised; on a pair-route
        # pencil it would also have built them
        for build in (
            lambda: assemble(1.0, 0.0, TWO_ATOMS, DIRICHLET, depth=4),
            lambda: assemble_selfsimilar_pair(MonotonePrimitive.identity(3), cantor_ladder(), NEUMANN, 9),
        ):
            one, other = build(), build()
            assert one == one and one != other
            assert len({one, other, one}) == 2
        assert not any(field in vars(one) for field in PENCIL_FIELDS)

    @settings(max_examples=30, deadline=None)
    @given(
        monotone_params(),
        st.floats(0.2, 2.0),
        atom_lists(4),
        st.none() | step_densities(),
        atom_lists(3),
        st.none() | step_densities(),
        st.sampled_from([DIRICHLET, NEUMANN, BoundaryCondition(0.7, 2.5), BoundaryCondition(None, 1.5)]),
        st.integers(1, 6),
    )
    # junction gaps, and an atom strictly inside the first depth-5 cell
    # [0, 0.3**5]: the junction atoms above the leaves and the descent of a
    # straddling leaf both run
    @example(
        params=JUMPY,
        scale=1.5,
        p_atoms=[(0.0012, 0.7), (0.5, 1.1)],
        p_dens=None,
        q_atoms=[(0.37, 0.4)],
        q_dens=StepFunction(np.array([0.0, 0.5, 1.0]), np.array([1.0, 2.0])),
        bc=DIRICHLET,
        depth=5,
    )
    def test_matches_depth_first_reference(self, params, scale, p_atoms, p_dens, q_atoms, q_dens, bc, depth):
        # random atoms sit strictly inside self-similar cells, so the cells
        # around them split down to the lumping level
        p = CompositeMeasure(atoms=tuple(p_atoms), density=p_dens, selfsim=(params, scale))
        q = CompositeMeasure(atoms=tuple(q_atoms), density=q_dens)
        got = assemble(1.3, q, p, bc, depth)
        want = reference_assemble(1.3, q, p, bc, depth)
        assert np.array_equal(got.nodes, want.nodes)
        assert np.array_equal(got.a_diag, want.a_diag)
        assert np.array_equal(got.a_off, want.a_off)
        # stamps reach shared entries level by level instead of depth first
        np.testing.assert_allclose(got.b_diag, want.b_diag, rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(got.b_off, want.b_off, rtol=1e-13, atol=0.0)

        # the batched atom stamp against one call per mass, including
        # masses on a node and within the 1e-12 node tolerance
        nodes = got.nodes
        pos = [x for x, _ in p_atoms] + [nodes[0], nodes[-1], nodes[1] + 5e-13, nodes[-2] - 5e-13]
        pos += [x for x, _ in p_atoms]
        weight = np.linspace(0.5, 1.5, len(pos))
        acc = _Accumulator(nodes)
        acc.add_atoms(np.array(pos), weight)
        ref = RecursiveAccumulator(nodes)
        for x, w in zip(pos, weight):
            ref.add_atom(x, w)
        assert np.array_equal(acc.diag, ref.diag)
        assert np.array_equal(acc.off, ref.off)


def _mixed_atoms(nodes, rng, size):
    """size masses, about half on a node and half between nodes, unsorted."""
    on = nodes[rng.integers(0, nodes.size, size)]
    between = rng.uniform(0.0, 1.0, size)
    return np.where(rng.random(size) < 0.5, on, between)


NODES = np.concatenate(([0.0], np.sort(np.random.default_rng(7).uniform(0.0, 1.0, 30)), [1.0]))
ATOM_CASES = {
    "every mass on a node": (NODES[[3, 0, 31, 3, 17, 16]], np.linspace(0.5, 1.5, 6)),
    "no mass on a node": (0.5 * (NODES[[4, 0, 30, 4, 9]] + NODES[[5, 1, 31, 5, 10]]), np.linspace(0.5, 1.5, 5)),
    "a mix": (
        np.array([NODES[2], 0.5 * (NODES[2] + NODES[3]), NODES[3], NODES[3] - 5e-13, 0.5 * (NODES[2] + NODES[3])]),
        np.array([0.3, 1.1, -0.4, 2.0, 0.7]),
    ),
    "no masses": (np.zeros(0), np.zeros(0)),
    "a zero weight": (np.array([NODES[5], 0.5 * (NODES[5] + NODES[6]), NODES[6]]), np.array([0.0, 0.0, 1.0])),
    "unsorted, more than 64 masses": (
        _mixed_atoms(NODES, np.random.default_rng(3), 100),
        np.random.default_rng(4).uniform(-1.0, 2.0, 100),
    ),
}


class TestAccumulator:
    @pytest.mark.parametrize("case", list(ATOM_CASES))
    def test_atoms_match_one_call_per_mass_bit_for_bit(self, case):
        pos, weight = ATOM_CASES[case]
        acc = _Accumulator(NODES)
        acc.add_atoms(pos, weight)
        ref = RecursiveAccumulator(NODES)
        for x, w in zip(pos, weight):
            ref.add_atom(x, w)
        assert np.array_equal(acc.diag, ref.diag)
        assert np.array_equal(acc.off, ref.off)

    def test_atom_near_two_nodes_lands_on_the_left_one(self):
        # both nodes are within 1e-12 of the mass; the left one takes it
        nodes = np.array([0.0, 0.4, 0.4 + 1e-13, 1.0])
        pos = np.array([0.4 + 0.5e-13, 0.4 + 1e-13, 0.7])
        weight = np.array([1.0, 2.0, 3.0])
        acc = _Accumulator(nodes)
        acc.add_atoms(pos, weight)
        ref = RecursiveAccumulator(nodes)
        for x, w in zip(pos, weight):
            ref.add_atom(x, w)
        assert np.array_equal(acc.diag, ref.diag)
        assert np.array_equal(acc.off, ref.off)
        assert acc.diag[1] == 3.0  # the first two masses

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_locate_matches_searchsorted(self, side):
        nodes = np.array([0.0, 0.25, 0.25, 0.5, 0.75, 1.0])
        for keys in (
            np.array([-1.0, 0.0, 0.0, 0.25, 0.3, 0.5, 0.5, 1.0, 2.0]),  # ties with nodes and with keys
            np.zeros(0),
            np.sort(np.random.default_rng(5).choice(nodes, 40)),
            np.array([0.5, 0.25, 1.0, 0.0]),  # not sorted
        ):
            got = _locate(nodes, keys, side)
            assert np.array_equal(got, np.searchsorted(nodes, keys, side=side))


class TestPairRoutes:
    def test_generic_and_iterated_routes_agree(self):
        cl = cantor_ladder()
        r = MonotonePrimitive.cantor()
        g1 = assemble(1.0, 0.0, CompositeMeasure.from_selfsim(cl), DIRICHLET, depth=8)
        g2 = assemble_iterated_pair(r, 0, cl, DIRICHLET, depth=8)
        e1 = eigenvalues(g1, 4)
        e2 = eigenvalues(g2, 4)
        np.testing.assert_allclose(e1, e2, rtol=1e-8)

    def test_transformed_problem_is_lebesgue_string(self):
        # Cantor base against Cantor weight transports to the unit Lebesgue
        # string, so the spectrum approaches pi^2 k^2
        disc = assemble_selfsimilar_pair(MonotonePrimitive.cantor(), cantor_ladder(), DIRICHLET, depth=9)
        for k, e in enumerate(eigenvalues(disc, 3), start=1):
            assert e == pytest.approx(np.pi**2 * k**2, rel=1e-3)

    def test_stamping_matches_segment_loop(self):
        cantor = cantor_ladder()
        identity = MonotonePrimitive.identity(3)
        m = pair_moments(identity, cantor, 2)
        quad = np.array([m[0] - 2 * m[1] + m[2], m[1] - m[2], m[2]])
        segs = walk_segments(cantor, 15, lambda level, i: identity.params.dprime[i])
        got = assemble_selfsimilar_pair(identity, cantor, NEUMANN, 15)
        want = reference_from_segments(segs, quad, 1.0, NEUMANN)
        # the pair routes build their arrays on first read
        assert not any(field in vars(got) for field in PENCIL_FIELDS)
        assert got.n_free == 65_536
        for field in PENCIL_FIELDS:
            assert np.array_equal(getattr(got, field), getattr(want, field)), field

        r = MonotonePrimitive.cantor()
        mu = moments(cantor, 2)
        quad = np.array([mu[0] - 2 * mu[1] + mu[2], mu[1] - mu[2], mu[2]])
        segs = walk_segments(cantor, 9, lambda level, i: (r.params.dprime if level <= 6 else r.params.a)[i])
        got = assemble_iterated_pair(r, 6, cantor, NEUMANN, 9)
        want = reference_from_segments(segs, quad, 1.0, NEUMANN)
        assert not any(field in vars(got) for field in PENCIL_FIELDS)
        for field in PENCIL_FIELDS:
            assert np.array_equal(getattr(got, field), getattr(want, field)), field

    @settings(max_examples=80, deadline=None)
    @given(
        p=monotone_params(),
        depth=st.integers(0, 7),
        flat=st.sets(st.integers(0, 3), max_size=2),
        shrink=st.lists(st.floats(0.05, 1.0), min_size=4, max_size=4),
    )
    # dead end letters: runs of massless segments as long as the depth
    @example(p=DEAD_ENDS, depth=6, flat=set(), shrink=[0.25] * 4)
    # 63 rows of mass -0.0
    @example(p=SIGNED, depth=7, flat=set(), shrink=[0.25] * 4)
    def test_level_walk_matches_depth_first_walk(self, p, depth, flat, shrink):
        # a zero shrink under a letter with mass must raise the same error
        assume(max(abs(g) for g in junction_gaps(p)) <= 1e-12)

        def t_factor(level, i):
            return 0.0 if i in flat and level <= 2 else shrink[i] / level

        factors = [tuple(t_factor(level, i) for i in range(p.n)) for level in range(1, depth + 1)]
        try:
            want = walk_segments(p, depth, t_factor)
        except UnsupportedConfigurationError as exc:
            with pytest.raises(UnsupportedConfigurationError, match=re.escape(str(exc))):
                _walk_runs(p, factors)
            return
        # the same rows as runs of equal neighbours, each run maximal
        runs = _walk_runs(p, factors)
        assert [(t, m) for t, m, count in runs for _ in range(count)] == want
        assert all(a[:2] != b[:2] for a, b in zip(runs, runs[1:]))
        quad = np.array([0.3, 0.2, 0.5])
        got = _pair_arrays(p, tuple(factors), quad, 1.3, NEUMANN, 0.7)
        # bit for bit, zero signs included, the arrays of the depth-first
        # rows, whose massless rows hold +0.0; and those stamped one by one
        rows = _assemble_from_segments(np.array(want).reshape(-1, 2), quad, 1.3, NEUMANN, 0.7)
        ref = reference_from_segments(want, quad, 1.3, NEUMANN, 0.7)
        for field in PENCIL_FIELDS:
            assert getattr(got, field).tobytes() == getattr(rows, field).tobytes(), field
            assert np.array_equal(getattr(got, field), getattr(ref, field)), field

    def test_iteration_count_validation(self):
        with pytest.raises(InvalidParametersError):
            assemble_iterated_pair(MonotonePrimitive.cantor(), -1, cantor_ladder(), NEUMANN, depth=3)

    @pytest.mark.parametrize("depth", [-1, -2])
    def test_negative_depth_rejected_on_every_route(self, depth):
        # the self-similar pair gave the depth-0 pencil, and an atoms-only
        # p a TypeError from the uniform mesh
        cantor = cantor_ladder()
        with pytest.raises(InvalidParametersError, match="depth"):
            assemble_selfsimilar_pair(MonotonePrimitive.identity(3), cantor, NEUMANN, depth)
        with pytest.raises(InvalidParametersError, match="depth"):
            assemble_iterated_pair(MonotonePrimitive.cantor(), 0, cantor, NEUMANN, depth)
        for p in (TWO_ATOMS, CompositeMeasure.from_selfsim(cantor)):
            with pytest.raises(InvalidParametersError, match="depth"):
                assemble(1.0, 0.0, p, DIRICHLET, depth)

    def test_mass_on_plateau_rejected(self):
        full = SelfSimilarParams(a=(1 / 3,) * 3, dprime=(0.25, 0.5, 0.25), betaprime=(0.0, 0.25, 0.75))
        with pytest.raises(UnsupportedConfigurationError):
            assemble_iterated_pair(MonotonePrimitive.cantor(), 1, full, NEUMANN, depth=5)

    def test_junction_atoms_rejected_on_pair_route(self):
        jp = SelfSimilarParams(a=(0.5, 0.5), dprime=(0.5, 0.0), betaprime=(0.0, 1.0))
        with pytest.raises(UnsupportedConfigurationError):
            assemble_selfsimilar_pair(MonotonePrimitive.identity(2), jp, NEUMANN, depth=5)


class TestResolventSandwich:
    def test_hilbert_identity(self):
        disc = assemble(1.0, -7 * np.pi**2, TWO_ATOMS, DIRICHLET, depth=12)
        lam, mu = 10.0, 30.0
        gl = resolvent_sandwich(disc, [0.4, 0.6], lam)
        gm = resolvent_sandwich(disc, [0.4, 0.6], mu)
        w = np.diag([1.0, 1.0])
        assert np.abs(gl @ w @ gm - (gl - gm) / (lam - mu)).max() < 1e-10

    def test_symmetric(self):
        disc = assemble(1.0, -7 * np.pi**2, TWO_ATOMS, DIRICHLET, depth=12)
        g = resolvent_sandwich(disc, [0.4, 0.6], 0.0)
        assert g[0, 1] == pytest.approx(g[1, 0], abs=1e-14)
        assert np.all(np.isfinite(g))

    def test_pole_detection(self):
        disc = assemble(1.0, 0.0, TWO_ATOMS, DIRICHLET, depth=10)
        e1 = eigenvalue(disc, 1)
        with pytest.raises(ResolventPoleError):
            resolvent_sandwich(disc, [0.4, 0.6], e1)

    def test_matches_banded_reference_bit_for_bit(self):
        # the acceptance-test pencil (criterion 2); solve_banded ends in the
        # same LAPACK gtsv on the same numbers
        disc = assemble(1.0, -7 * np.pi**2, TWO_ATOMS, DIRICHLET, depth=12)
        lam = 1.0
        off = disc.a_off - lam * disc.b_off
        ab = np.zeros((3, disc.n_free))
        ab[0, 1:] = ab[2, :-1] = off
        ab[1] = disc.a_diag - lam * disc.b_diag
        free = [disc.free_index(disc.node_index(x)) for x in (0.4, 0.6)]
        rhs = np.zeros((disc.n_free, 2))
        rhs[free, [0, 1]] = 1.0
        sol = solve_banded((1, 1), ab, rhs)[free]
        assert np.array_equal(resolvent_sandwich(disc, [0.4, 0.6], lam), 0.5 * (sol + sol.T))

    def test_no_positions_give_an_empty_matrix(self):
        disc = assemble(1.0, 0.0, TWO_ATOMS, DIRICHLET, depth=4)
        assert resolvent_sandwich(disc, [], 1.0).shape == (0, 0)

    def test_exactly_singular_shift_is_a_pole(self):
        # A - 2 B has a zero pivot that dgtsv reports as info > 0
        disc = PencilDiscretization(np.linspace(0.0, 1.0, 3), np.array([1.0, 2.0, 3.0]), np.zeros(2),
                                    np.ones(3), np.zeros(2), 0)
        with pytest.raises(ResolventPoleError):
            resolvent_sandwich(disc, [0.5], 2.0)


class TestPositivityScan:
    def test_definite_problem_hits_first_grid_point(self):
        disc = assemble(1.0, 0.0, CompositeMeasure.lebesgue(), DIRICHLET, depth=6)
        grid = np.r_[0.0, np.geomspace(1e-3, 1e3, 20)]
        assert positivity_scan(disc, grid) == 0.0

    def test_strongly_indefinite_potential_finds_nothing(self):
        disc = assemble(1.0, -7 * np.pi**2, TWO_ATOMS, DIRICHLET, depth=12)
        grid = np.r_[-np.geomspace(1e6, 1e-6, 100), 0.0, np.geomspace(1e-6, 1e6, 100)]
        assert positivity_scan(disc, grid) is None

    def test_default_grid_is_one_read_only_array(self):
        grid = default_shift_grid()
        mags = np.geomspace(1e-6, 1e8, 29)
        expected = np.concatenate(([0.0], -mags, mags))
        assert grid.dtype == expected.dtype and grid.shape == (59,)
        assert grid.tobytes() == expected.tobytes()
        assert not grid.flags.writeable
        assert default_shift_grid() is grid
