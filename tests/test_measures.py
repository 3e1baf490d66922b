"""Tests for step functions and composite measures."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractalsturm import (
    CompositeMeasure,
    InvalidParametersError,
    SelfSimilarParams,
    StepFunction,
    cantor_ladder,
    jump_atoms,
    support_cells,
)

from _oracles import cdf, integrate_against

CANTOR = cantor_ladder()
JUMP = SelfSimilarParams(a=(0.5, 0.5), dprime=(0.5, 0.0), betaprime=(0.0, 1.0))
SIGNED_JUMP = SelfSimilarParams(a=(0.5, 0.5), dprime=(-0.5, 0.0), betaprime=(0.0, 1.0))


class TestStepFunction:
    def test_constant(self):
        f = StepFunction.constant(2.5)
        assert f(0.3) == 2.5
        assert f.integral() == pytest.approx(2.5)

    def test_piecewise_values_and_integral(self):
        f = StepFunction(np.array([0.0, 0.25, 1.0]), np.array([2.0, -1.0]))
        assert f(0.1) == 2.0
        assert f(0.5) == -1.0
        assert f.integral() == pytest.approx(0.25 * 2.0 - 0.75)
        assert f.integral(0.25, 0.5) == pytest.approx(-0.25)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(0.001, 0.999), max_size=40, unique=True), st.data())
    def test_array_integral_matches_scalar_calls(self, inner, data):
        # breaks on depth-3 Cantor cell ends, as the reduction meets them
        cells = support_cells(CANTOR, 3)
        ends = cells[:, 0] + cells[:, 1]
        on_ends = data.draw(st.lists(st.sampled_from(ends[:-1].tolist()), max_size=4))
        breaks = np.array([0.0, *sorted(set(inner) | set(on_ends)), 1.0])
        values = data.draw(st.lists(st.floats(-3.0, 3.0), min_size=breaks.size - 1, max_size=breaks.size - 1))
        f = StepFunction(breaks, np.array(values))
        points = st.sampled_from(breaks.tolist() + ends.tolist()) | st.floats(-0.1, 1.1)
        pairs = data.draw(st.lists(st.tuples(points, points), min_size=1, max_size=60))
        lo = np.array([x for x, _ in pairs])
        hi = np.array([y for _, y in pairs])
        hi[::3] = lo[::3]  # zero-width plateaus
        got = f.integral(lo, hi)
        assert np.array_equal(got, [f.integral(float(x), float(y)) for x, y in zip(lo, hi)])
        assert np.array_equal(f.integral(lo[0], hi), [f.integral(float(lo[0]), float(y)) for y in hi])
        # sorted bounds, as the reduction passes them, are located by one merge
        lo, hi = np.sort(lo), np.sort(hi)
        assert np.array_equal(f.integral(lo, hi), [f.integral(float(x), float(y)) for x, y in zip(lo, hi)])

    def test_2d_integral_matches_scalar_calls(self):
        # the spans loop once indexed 2-D bounds with flat indices and
        # raised a broadcast ValueError as soon as a pair spanned a break
        f = StepFunction(np.array([0.0, 0.25, 0.5, 1.0]), np.array([2.0, -1.0, 3.0]))
        lo = np.array([[0.1, 0.3, 0.9], [0.2, -0.2, 0.6], [0.95, 0.55, -0.5]])
        hi = np.array([[0.2, 0.45, 0.1], [0.8, 0.05, 1.3], [0.4, 0.6, 1.5]])
        # inside one piece, spanning breaks, flipped, beyond [0, 1]
        got = f.integral(lo, hi)
        assert got.shape == (3, 3)
        want = [[f.integral(float(x), float(y)) for x, y in zip(*row)] for row in zip(lo, hi)]
        assert np.array_equal(got, want)
        # a scalar bound broadcast against a column
        col = np.array([[0.1], [0.7], [1.2]])
        assert np.array_equal(f.integral(0.3, col), [[f.integral(0.3, float(y))] for y in col[:, 0]])

    def test_array_values_match_scalar_calls(self):
        f = StepFunction(np.array([0.0, 0.25, 0.5, 1.0]), np.array([2.0, -1.0, 3.0]))
        for x in (
            np.array([-0.1, 0.0, 0.25, 0.25, 0.3, 0.5, 1.0, 1.2]),  # sorted, ties with the breaks
            np.array([0.5, 0.1, 1.0, 0.25]),
            np.zeros(0),
        ):
            assert np.array_equal(f(x), [f(float(v)) for v in x])

    def test_keeps_read_only_copies(self):
        b = np.array([0.0, 0.5, 1.0])
        v = np.array([1.0, 2.0])
        f = StepFunction(b, v)
        b[1] = 2.0
        v[0] = -7.0
        assert f.breaks.tolist() == [0.0, 0.5, 1.0]
        assert f.integral() == 1.5
        for arr in (f.breaks, f.values):
            with pytest.raises(ValueError):
                arr[0] = 3.0

    def test_array_integral_keeps_narrow_plateaus(self):
        # 1e-12-wide plateaus next to O(1) mass; a difference of a running
        # antiderivative would keep only about four digits of them
        f = StepFunction(np.array([0.0, 0.3, 0.7, 1.0]), np.array([1.7, 0.9, 2.3]))
        lo = np.array([0.0, 0.3 - 1e-12, 0.5, 0.7, 1.0 - 1e-12])
        hi = np.array([0.3 - 1e-12, 0.3, 0.5 + 1e-12, 0.7 + 1e-12, 1.0])
        exact = np.array([1.7, 1.7, 0.9, 2.3, 2.3]) * (hi - lo)
        got = f.integral(lo, hi)
        assert np.all(np.abs(got - exact) <= 1e-14 * np.abs(exact))

    def test_breaks_must_increase(self):
        with pytest.raises(InvalidParametersError):
            StepFunction(np.array([0.0, 0.5, 0.5, 1.0]), np.array([1.0, 2.0, 3.0]))

    def test_json_round_trip(self):
        f = StepFunction(np.array([0.0, 0.25, 1.0]), np.array([2.0, -1.0]))
        g = StepFunction.from_json(f.to_json())
        np.testing.assert_allclose(g.breaks, f.breaks)
        np.testing.assert_allclose(g.values, f.values)


class TestCompositeMeasure:
    def test_lebesgue(self):
        mu = CompositeMeasure.lebesgue(1.0)
        assert mu.total_mass() == pytest.approx(1.0)
        assert cdf(mu, 0.37) == pytest.approx(0.37)

    def test_atoms_cdf_includes_position(self):
        mu = CompositeMeasure.from_atoms([(0.3, 2.0), (0.7, -1.0)])
        assert cdf(mu, 0.3) == pytest.approx(2.0)
        assert cdf(mu, 0.3 - 1e-9) == pytest.approx(0.0)
        assert mu.total_mass() == pytest.approx(1.0)

    def test_cantor_cdf_is_the_ladder(self):
        mu = CompositeMeasure.from_selfsim(CANTOR)
        assert cdf(mu, 1 / 9) == pytest.approx(0.25)
        assert cdf(mu, 1.0) == pytest.approx(1.0)
        assert mu.total_mass() == pytest.approx(1.0)

    def test_jump_cdf_right_continuous_at_atom(self):
        mu = CompositeMeasure.from_selfsim(JUMP)
        assert cdf(mu, 0.5) == pytest.approx(1.0)
        assert cdf(mu, 0.5 - 1e-12) == pytest.approx(0.5)

    def test_signed_jump_total_variation_exact(self):
        # purely atomic: atoms at 2^-k alternate sign, |masses| sum to 3
        mu = CompositeMeasure.from_selfsim(SIGNED_JUMP)
        assert mu.total_mass() == pytest.approx(1.0)
        masses = [w for _, w in jump_atoms(SIGNED_JUMP, 60)]
        assert sum(masses) == pytest.approx(1.0)
        assert sum(map(abs, masses)) == pytest.approx(3.0)

    def test_unit_contraction_sum_with_jumps_has_infinite_variation(self):
        # sum |d'| = 1, so every level adds junction atoms of total |mass| 2/3
        p = SelfSimilarParams(a=(0.5, 0.5), dprime=(0.5, -0.5), betaprime=(0.0, 1.0), p1=2 / 3)
        for depth in (4, 8, 12):
            assert sum(abs(w) for _, w in jump_atoms(p, depth)) == pytest.approx(2 / 3 * depth)

    def test_signed_continuous_has_unbounded_variation(self):
        # continuity with nonzero mass forces sum d' = 1, so mixed signs
        # give sum |d'| > 1 and the level-m variation grows geometrically
        p = SelfSimilarParams(a=(0.5, 0.5), dprime=(1.25, -0.25), betaprime=(0.0, 1.25))
        mu = CompositeMeasure.from_selfsim(p)
        level_variation = [float(np.sum(np.abs(support_cells(p, m)[:, 2]))) for m in (2, 4, 8)]
        assert level_variation == pytest.approx([1.5**2, 1.5**4, 1.5**8])
        assert mu.total_mass() == pytest.approx(1.0)

    def test_scaled(self):
        mu = CompositeMeasure.from_selfsim(CANTOR, -2.0)
        assert mu.total_mass() == pytest.approx(-2.0)
        assert cdf(mu, 1 / 3) == pytest.approx(-1.0)

    def test_mixed_parts_add(self):
        mu = CompositeMeasure(
            atoms=((0.5, 0.25),),
            density=StepFunction.constant(1.0),
            selfsim=(CANTOR, 0.5),
        )
        assert mu.total_mass() == pytest.approx(1.75)
        assert cdf(mu, 0.5) == pytest.approx(0.25 + 0.5 + 0.25)

    def test_zero_measure(self):
        z = CompositeMeasure()
        assert z.is_zero()
        assert z.total_mass() == 0.0
        assert CompositeMeasure.from_json({}).is_zero()

    def test_json_number_collapse(self):
        assert CompositeMeasure.lebesgue(2.5).to_json() == 2.5
        mu = CompositeMeasure.from_json(2.5)
        assert mu.total_mass() == pytest.approx(2.5)

    def test_json_round_trips(self):
        for mu in (
            CompositeMeasure.from_atoms([(0.3, 2.0), (0.7, -1.0)]),
            CompositeMeasure.from_selfsim(CANTOR, 2.0),
            CompositeMeasure(density=StepFunction(np.array([0.0, 0.5, 1.0]), np.array([1.0, 3.0]))),
        ):
            again = CompositeMeasure.from_json(mu.to_json())
            assert np.array_equal(again.atoms, mu.atoms)
            xs = np.linspace(0, 1, 11)
            for x in xs:
                assert cdf(again, x) == pytest.approx(cdf(mu, x), abs=1e-12)


class TestAtomFormat:
    """Atoms are read-only (m, 2) float64 arrays of (position, weight) rows."""

    PAIRS = [(0.7, -1.0), (0.3, 2.0), (0.3, 0.5), (1.0 + 1e-13, 0.25)]

    @staticmethod
    def assert_table(atoms, m):
        assert isinstance(atoms, np.ndarray)
        assert atoms.dtype == np.float64 and atoms.shape == (m, 2)
        assert atoms.flags.c_contiguous and not atoms.flags.writeable
        assert np.all(np.diff(atoms[:, 0]) >= 0.0)
        with pytest.raises(ValueError):
            atoms[:1] = 0.5

    def test_measure_atoms_and_jump_atoms(self):
        mu = CompositeMeasure.from_atoms(self.PAIRS)
        self.assert_table(mu.atoms, 4)
        assert mu.atoms.tolist() == [[0.3, 0.5], [0.3, 2.0], [0.7, -1.0], [1.0, 0.25]]
        self.assert_table(CompositeMeasure().atoms, 0)
        self.assert_table(jump_atoms(JUMP, 5), 5)
        self.assert_table(jump_atoms(CANTOR, 4), 0)

    def test_pairs_and_array_build_equal_tables(self):
        from_pairs = CompositeMeasure(atoms=self.PAIRS).atoms
        array = np.array(self.PAIRS)
        from_array = CompositeMeasure(atoms=array).atoms
        assert np.array_equal(from_pairs, from_array)
        assert np.array_equal(CompositeMeasure.from_atoms(iter(self.PAIRS)).atoms, from_pairs)
        assert np.array_equal(CompositeMeasure(atoms=from_array).atoms, from_pairs)
        # the table is the measure's own: writes to the input do not reach it
        array[:, 1] = 0.0
        assert np.array_equal(from_array, from_pairs)

    @pytest.mark.parametrize(
        "atoms", [np.zeros((2, 3)), [(0.5, 1.0), (0.25,)], None], ids=["m-by-3", "ragged", "none"]
    )
    def test_misshapen_atoms_rejected(self, atoms):
        with pytest.raises(InvalidParametersError):
            CompositeMeasure(atoms=atoms)


@pytest.mark.parametrize(
    "build",
    [
        lambda: StepFunction.constant(1.0),
        lambda: CompositeMeasure.from_atoms([(0.5, 1.0), (0.2, 1.0)]),
        lambda: CompositeMeasure(density=StepFunction.constant(2.0), selfsim=(CANTOR, 1.5)),
    ],
    ids=["step", "atoms", "composite"],
)
def test_compare_and_hash_by_identity(build):
    # the generated == compared array fields and raised
    one, other = build(), build()
    assert one == one and one != other
    assert len({one, other, one}) == 2


class TestIntegrateAgainst:
    def test_atoms_exact(self):
        mu = CompositeMeasure.from_atoms([(0.25, 2.0), (0.75, -0.5)])
        assert integrate_against(mu, lambda x: x**2) == pytest.approx(2 * 0.0625 - 0.5 * 0.5625)

    def test_density(self):
        mu = CompositeMeasure(density=StepFunction.constant(1.0))
        assert integrate_against(mu, lambda x: x, depth=12) == pytest.approx(0.5, abs=1e-6)

    def test_cantor_first_moment(self):
        mu = CompositeMeasure.from_selfsim(CANTOR)
        assert integrate_against(mu, lambda x: x, depth=12) == pytest.approx(0.5, abs=1e-6)

    def test_jump_measure_includes_junction_atoms(self):
        mu = CompositeMeasure.from_selfsim(JUMP)
        assert integrate_against(mu, lambda x: x, depth=14) == pytest.approx(1 / 3, abs=1e-7)
