"""Tests for transporting measures through a monotone primitive R."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractalsturm import (
    CompositeMeasure,
    MonotonePrimitive,
    SelfSimilarParams,
    StepFunction,
    UnsupportedConfigurationError,
    cantor_ladder,
    identity_params,
    pushforward_params,
    transform_measure,
)
from fractalsturm import assembly, selfsim
from fractalsturm.assembly import BoundaryCondition, _dedupe
from fractalsturm.reduction import _density_through
from fractalsturm.selfsim import evaluate, support_cells

from _oracles import cdf, clean_atoms_loop, dedupe_loop, merge_atoms_loop, reference_assemble

R_CANTOR = MonotonePrimitive.cantor()


class TestPushforwardParams:
    def test_cantor_through_cantor_is_identity(self):
        out = pushforward_params(R_CANTOR, cantor_ladder())
        assert out == identity_params(2)

    def test_mass_on_plateau_rejected(self):
        p = SelfSimilarParams(a=(1 / 3,) * 3, dprime=(0.25, 0.5, 0.25), betaprime=(0.0, 0.25, 0.75))
        with pytest.raises(UnsupportedConfigurationError):
            pushforward_params(R_CANTOR, p)

    def test_survivor_widths_are_renormalized_r_weights(self):
        r = MonotonePrimitive(
            SelfSimilarParams(a=(0.5, 0.5), dprime=(0.25, 0.75), betaprime=(0.0, 0.25))
        )
        p = SelfSimilarParams(a=(0.5, 0.5), dprime=(0.5, 0.5), betaprime=(0.0, 0.5))
        out = pushforward_params(r, p)
        assert out.a == pytest.approx((0.25, 0.75))
        assert out.dprime == pytest.approx((0.5, 0.5))


class TestTransformMeasure:
    def test_window_density_collapses_to_atom(self):
        # chi_[2/5,3/5] Lebesgue through the Cantor ladder: the window sits
        # inside the middle plateau, so all its mass lands at 1/2.
        f = CompositeMeasure(
            density=StepFunction(np.array([0.0, 0.4, 0.6, 1.0]), np.array([0.0, 1.0, 0.0]))
        )
        g = transform_measure(f, R_CANTOR, depth=8)
        atoms = dict(g.atoms)
        assert atoms[0.5] == pytest.approx(0.2, abs=1e-6)
        assert g.total_mass() == pytest.approx(0.2, abs=1e-12)

    def test_atom_maps_to_image_point(self):
        g = transform_measure(CompositeMeasure.from_atoms([(1 / 9, 2.0)]), R_CANTOR)
        assert g.atoms.tolist() == [[0.25, 2.0]]

    def test_compatible_selfsim_stays_selfsim(self):
        g = transform_measure(CompositeMeasure.from_selfsim(cantor_ladder()), R_CANTOR)
        assert g.selfsim is not None
        params, scale = g.selfsim
        assert params == identity_params(2)
        assert scale == pytest.approx(1.0)
        assert len(g.atoms) == 0

    def test_lebesgue_through_cantor_plateau_atoms(self):
        g = transform_measure(CompositeMeasure.lebesgue(), R_CANTOR, depth=6)
        assert g.total_mass() == pytest.approx(1.0, abs=1e-12)
        atoms = dict(g.atoms)
        # plateau at level 1/2 has Lebesgue mass 1/3, at 1/4 and 3/4 mass 1/9
        assert atoms[0.5] == pytest.approx(1 / 3, abs=1e-9)
        assert atoms[0.25] == pytest.approx(1 / 9, abs=1e-9)
        assert atoms[0.75] == pytest.approx(1 / 9, abs=1e-9)

    def test_incompatible_selfsim_scattered_to_atoms(self):
        g = transform_measure(CompositeMeasure.from_selfsim(identity_params(2)), R_CANTOR, depth=8)
        assert g.selfsim is None
        assert g.density is None
        assert len(g.atoms) > 10
        assert g.total_mass() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "params, r",
        [
            (identity_params(2), R_CANTOR),
            (
                SelfSimilarParams(a=(0.2, 0.3, 0.5), dprime=(0.3, 0.0, -0.2), betaprime=(0.0, 0.5, 1.2)),
                MonotonePrimitive.identity(3),
            ),
        ],
    )
    def test_incompatible_scatter_matches_loop(self, params, r):
        # one evaluate call per atom and per cell end, as the scatter used to run
        f = CompositeMeasure(atoms=((0.4, 0.5), (1 / 3, 0.25)), selfsim=(params, 1.7))
        for depth in (0, 3, 8):
            pairs = [(evaluate(r.params, x, 60)[0], w) for x, w in f.atoms.tolist()]
            for left, width, weight, _ in support_cells(params, depth).tolist():
                mass = 1.7 * weight * (params.p1 - params.p0)
                lo, hi = evaluate(r.params, left, 60)[0], evaluate(r.params, left + width, 60)[0]
                if mass != 0.0:
                    pairs.append((0.5 * (lo + hi), mass))
            assert transform_measure(f, r, depth).atoms.tolist() == merge_atoms_loop(pairs)

    def test_identity_preserves_distribution(self):
        f = CompositeMeasure(
            atoms=((0.3, 0.5),),
            density=StepFunction(np.array([0.0, 0.4, 0.6, 1.0]), np.array([0.0, 1.0, 0.0])),
        )
        g = transform_measure(f, MonotonePrimitive.identity(2), depth=8)
        assert g.total_mass() == pytest.approx(f.total_mass(), abs=1e-12)
        for x in (0.1, 0.3, 0.45, 0.59, 0.8, 1.0):
            assert cdf(g, x) == pytest.approx(cdf(f, x), abs=1e-9)

    def test_scaled_input_scales_output(self):
        f = CompositeMeasure.from_atoms([(1 / 9, -1.0)])
        g = transform_measure(f, R_CANTOR)
        assert g.atoms.tolist() == [[0.25, -1.0]]


def general_problem(rng):
    """p and q of the benchmark's general route: step density, atoms and a
    compatible self-similar part in p, positive atoms in q."""
    breaks = np.concatenate(([0.0], np.sort(rng.uniform(0.0, 1.0, 15)), [1.0]))
    density = StepFunction(breaks, rng.uniform(0.2, 2.0, 16))
    atoms = tuple(zip(rng.uniform(0.01, 0.99, 24), rng.uniform(0.01, 0.5, 24)))
    w = float(rng.uniform(0.2, 0.8))
    part = SelfSimilarParams(a=(1 / 3, 1 / 3, 1 / 3), dprime=(w, 0.0, 1.0 - w), betaprime=(0.0, w, w))
    p = CompositeMeasure(atoms=atoms, density=density, selfsim=(part, float(rng.uniform(0.5, 2.0))))
    q = CompositeMeasure.from_atoms(zip(rng.uniform(0.01, 0.99, 6), rng.uniform(0.5, 5.0, 6)))
    return p, q


@st.composite
def clustered(draw, tol):
    """Sorted-or-not positions in [0, 1] with ties and chains of steps near tol."""
    base = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6))
    xs = []
    for x in base:
        step = draw(st.sampled_from([0.0, tol / 3, tol / 2, 0.9 * tol, tol, 1.1 * tol, 3 * tol]))
        length = draw(st.integers(1, 6))
        xs += [min(x + k * step, 1.0) for k in range(length)]
    return draw(st.permutations(xs))


class TestMergeRules:
    """The vectorised merge rules reproduce their one-item-at-a-time loops."""

    @settings(max_examples=200, deadline=None)
    @given(xs=clustered(1e-13))
    def test_dedupe_matches_loop(self, xs):
        xs = np.array([0.0, 1.0] + xs)
        assert np.array_equal(_dedupe(xs), dedupe_loop(xs))

    @settings(max_examples=200, deadline=None)
    @given(xs=clustered(1e-12), data=st.data())
    def test_atom_cleaning_and_merge_match_loops(self, xs, data):
        ws = data.draw(st.lists(st.sampled_from([0.0, 0.5, -0.5, 1.0, 0.25, 1e-300]),
                                min_size=len(xs), max_size=len(xs)))
        atoms = list(zip(xs, ws))
        assert CompositeMeasure(atoms=atoms).atoms.tolist() == clean_atoms_loop(atoms)
        merged = transform_measure(CompositeMeasure(atoms=atoms), MonotonePrimitive.identity(2))
        want = merge_atoms_loop((evaluate(identity_params(2), x, 60)[0], w) for x, w in clean_atoms_loop(atoms))
        assert merged.atoms.tolist() == want

    @pytest.mark.parametrize(
        "atoms",
        [
            [(0.5, 1.0), (0.5, 0.25)],  # in order by position, not by weight at the tie
            [(0.0, 0.5), (-0.0, 0.25), (0.3, 1.0)],  # -0.0 and 0.0 tie
            [(-0.0, 0.25), (0.0, 0.5), (0.5, -1.0), (0.5, 1.0), (0.75, 0.0)],  # already in order
            [(0.75, 1.0), (0.25, 2.0), (0.75, -1.0), (0.5, 0.0)],
        ],
    )
    def test_atom_table_order_matches_loop(self, atoms):
        assert CompositeMeasure(atoms=atoms).atoms.tolist() == clean_atoms_loop(atoms)

    def test_transform_orders_atoms_that_land_on_one_point_by_weight(self):
        # 0.4 and 0.5 lie on the Cantor plateau (1/3, 2/3) and both map to
        # exactly 0.5, so the weights decide their order before the merge
        atoms = [(0.4, 1.0), (0.5, 0.25), (0.2, 0.5)]
        f = CompositeMeasure(atoms=atoms)
        assert [evaluate(R_CANTOR.params, x, 60)[0] for x in (0.4, 0.5)] == [0.5, 0.5]
        want = merge_atoms_loop((evaluate(R_CANTOR.params, x, 60)[0], w) for x, w in atoms)
        assert transform_measure(f, R_CANTOR).atoms.tolist() == want

    def test_atom_outside_unit_interval_rejected(self):
        with pytest.raises(ValueError, match="atom at 1.5 outside"):
            CompositeMeasure(atoms=[(0.5, 1.0), (1.5, 1.0), (-1.0, 1.0)])
        with pytest.raises(ValueError):
            CompositeMeasure(atoms=[(0.5, 1.0, 2.0), (0.25, 1.0, 2.0)])
        with pytest.raises(ValueError):
            CompositeMeasure(atoms=[(None, 1.0)])

    @pytest.mark.parametrize("seed", [1, 2])
    def test_general_route_matches_loops(self, seed):
        rng = np.random.default_rng(seed)
        r = MonotonePrimitive.cantor()
        for p, q in (general_problem(rng) for _ in range(3)):
            pos, w, _ = _density_through(r, p.density, 14)
            moved = [(evaluate(r.params, x, 60)[0], v) for x, v in p.atoms.tolist()]
            p_t = transform_measure(p, r, depth=14)
            assert p_t.atoms.tolist() == merge_atoms_loop(moved + list(zip(pos.tolist(), w.tolist())))
            q_t = transform_measure(q, r, depth=14)
            seen = []
            with mock.patch.object(assembly, "_dedupe", side_effect=lambda xs: seen.append(xs) or _dedupe(xs)):
                disc = assembly.assemble(1.0, q_t, p_t, BoundaryCondition.neumann(), 14)
            assert np.array_equal(disc.nodes, dedupe_loop(seen[0]))

    def test_general_assemble_expands_each_tree_once(self, monkeypatch):
        # the mesh and the stamping share the depth-14 cells, and the zero
        # junction gaps of the image part need no jump_atoms walk
        p, q = general_problem(np.random.default_rng(1))
        r = MonotonePrimitive.cantor()
        p_t, q_t = (transform_measure(mu, r, depth=14) for mu in (p, q))
        calls = []
        children = selfsim._children

        def spy(*args):
            calls.append(args[1].size)
            return children(*args)

        monkeypatch.setattr(selfsim, "_children", spy)
        monkeypatch.setattr(assembly, "_children", spy)
        assembly.assemble(1.0, q_t, p_t, BoundaryCondition.neumann(), 14)
        assert calls == [2**k for k in range(14)]


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_benchmark_sized_general_pencil_matches_depth_first_reference(seed):
    # the general route at the depth and on the problems the benchmark runs:
    # the pencil against the depth-first walk, bit for bit where every leaf fits
    p, q = general_problem(np.random.default_rng(seed))
    r = MonotonePrimitive.cantor()
    p_t, q_t = (transform_measure(mu, r, depth=14) for mu in (p, q))
    bc = BoundaryCondition.neumann()
    got = assembly.assemble(1.0, q_t, p_t, bc, 14)
    want = reference_assemble(1.0, q_t, p_t, bc, 14)
    for name in ("nodes", "a_diag", "a_off"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    left, width = support_cells(p_t.selfsim[0], 14)[:, :2].T
    j = np.searchsorted(got.nodes, left, side="right") - 1
    if np.all(left + width <= got.nodes[j + 1] + 1e-12):
        # every leaf fits one mesh interval and is stamped as the walk does
        for name in ("b_diag", "b_off"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
    else:
        # an atom cuts a leaf (seed 4): the leaf's descendants reach shared
        # entries level by level, not depth first, which can move the last bit
        for name in ("b_diag", "b_off"):
            np.testing.assert_allclose(getattr(got, name), getattr(want, name), rtol=1e-13, atol=0.0)
