"""Tests for counting, multisection eigenvalues, and asymptotics diagnostics."""

import io
import math
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigvalsh_tridiagonal, solve_banded
from scipy.optimize import brentq

from fractalsturm import (
    BoundaryCondition,
    CompositeMeasure,
    EigenvalueNotFoundError,
    FractalSturmError,
    GeometricRegimeError,
    IndefinitePencilError,
    InvalidParametersError,
    MonotonePrimitive,
    PencilDiscretization,
    SelfSimilarParams,
    asymptotics_report,
    assemble,
    assemble_iterated_pair,
    assemble_selfsimilar_pair,
    cantor_ladder,
    count,
    counting_function,
    eigenvalue,
    eigenvalues,
    eigenvalues_below,
    geometric_asymptotics,
    ladder_counts,
    period_and_case,
    positivity_scan,
    spectral_dimension,
    splitting_inequality,
    write_counting_csv,
)
from fractalsturm import _kernels, assembly, spectral
from fractalsturm.spectral import resolve_shift, zero_tolerance

from _oracles import arpack_eigenvalues, dense_count, pencil_eigenvalues, scan_every_candidate

DIRICHLET = BoundaryCondition(None, None)
NEUMANN = BoundaryCondition(0.0, 0.0)


def arrays_pencil(disc):
    """The same pencil held as its arrays alone, which eigenvalue searches polish."""
    return PencilDiscretization(disc.nodes, disc.a_diag, disc.a_off, disc.b_diag, disc.b_off, disc.free_start)


def counterexample_arrays():
    """The k = 6 iterate at depth 9 as a pencil of its arrays alone."""
    r = MonotonePrimitive.cantor()
    return arrays_pencil(assemble_iterated_pair(r, 6, r.params, NEUMANN, depth=9))


def sample_problems():
    rng = np.random.default_rng(42)
    cl = cantor_ladder()
    out = []
    # lebesgue string
    out.append(assemble(1.0, 0.0, CompositeMeasure.lebesgue(), DIRICHLET, depth=5))
    # cantor string with potential
    out.append(assemble(1.0, 2.5, CompositeMeasure.from_selfsim(cl), NEUMANN, depth=4))
    # random positive atoms
    atoms = [(float(x), float(w)) for x, w in zip(rng.uniform(0.05, 0.95, 8), rng.uniform(0.1, 2.0, 8))]
    out.append(assemble(1.0, 0.0, CompositeMeasure.from_atoms(atoms), DIRICHLET, depth=5))
    # signed atoms (indefinite B)
    satoms = [(0.2, 1.0), (0.45, -0.4), (0.7, 0.8)]
    out.append(assemble(1.0, 0.0, CompositeMeasure.from_atoms(satoms), DIRICHLET, depth=5))
    return out


class TestCounting:
    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(0)
        for disc in sample_problems():
            lams = np.r_[rng.uniform(-500, 2000, 20), 0.0]
            for lam in lams:
                res = count(disc, float(lam))
                oracle_plus, oracle_minus = dense_count(disc, float(lam), res.reference_shift)
                assert (res.n_plus, res.n_minus) == (oracle_plus, oracle_minus), f"lam={lam}"
        # A = diag(1.5, 1e12), B = I: the zero band is (-1, 1) and 1.5 lies
        # past lam = 1.2, though not past lam + zt
        wide = PencilDiscretization(
            np.array([0.0, 1.0]), [1.5, 1e12], [0.0], [1.0, 1.0], [0.0], 0
        )
        res = count(wide, 1.2)
        assert (res.n_plus, res.n_minus) == dense_count(wide, 1.2) == (0, 0)

    def test_batch_equals_scalar(self):
        disc = assemble(1.0, 0.0, CompositeMeasure.lebesgue(), DIRICHLET, depth=6)
        lams = [0.0, 50.0, 500.0, 1234.5]
        batch = counting_function(disc, lams)
        for lam, res in zip(lams, batch):
            single = count(disc, lam)
            assert (res.n_plus, res.n_minus) == (single.n_plus, single.n_minus)

    def test_monotone_in_lambda(self):
        disc = assemble(1.0, 0.0, CompositeMeasure.from_selfsim(cantor_ladder()), NEUMANN, depth=6)
        lams = np.linspace(0.0, 3000.0, 40)
        counts = [count(disc, float(l)).n_plus for l in lams]
        assert all(a <= b for a, b in zip(counts, counts[1:]))

    def test_neumann_counts_zero_mode(self):
        disc = assemble(1.0, 0.0, CompositeMeasure.lebesgue(), NEUMANN, depth=5)
        assert count(disc, 0.0).n_plus == 1

    def test_weyl_count_on_lebesgue_string(self):
        disc = assemble(1.0, 0.0, CompositeMeasure.lebesgue(), DIRICHLET, depth=10)
        lam = 1000.0
        assert count(disc, lam).n_plus == math.floor(math.sqrt(lam) / math.pi)

    def test_near_zero_pivots_reported(self):
        # A = diag(2, 3), B = I: the end 2 / (1 + 1e-9), nudged, sits on
        # the eigenvalue 2, so its pivot is near zero
        disc = PencilDiscretization(
            np.array([0.0, 1.0]), [2.0, 3.0], [0.0], [1.0, 1.0], [0.0], 0
        )
        on_eig = 2.0 / (1.0 + 1e-9)
        assert count(disc, on_eig).near_zero == 1
        assert count(disc, 2.5).near_zero == 0
        assert [r.near_zero for r in counting_function(disc, [on_eig, 2.5])] == [1, 0]

    @pytest.mark.parametrize("depth", [9, 15])
    def test_counts_agree_with_eigenvalues(self, depth):
        # the zero band is 2.51 wide at depth 15; counts end at lam, not lam + zt
        disc = assemble_iterated_pair(MonotonePrimitive.cantor(), 0, cantor_ladder(), NEUMANN, depth)
        assert count(disc, 5.0).n_plus == 1
        assert count(disc, 0.0).n_plus == 1
        e = eigenvalues(disc, 7)
        for k in range(2, 8):
            below = count(disc, e[k - 1] * (1 - 1e-8)).n_plus
            above = count(disc, e[k - 1] * (1 + 1e-8)).n_plus
            assert below < k <= above

    def test_indefinite_potential_has_no_shift(self):
        two = CompositeMeasure.from_atoms([(0.4, 1.0), (0.6, 1.0)])
        disc = assemble(1.0, -7 * np.pi**2, two, DIRICHLET, depth=12)
        with pytest.raises(IndefinitePencilError):
            count(disc, 10.0)

    def test_explicit_valid_shift_is_honored(self):
        disc = assemble(1.0, 0.0, CompositeMeasure.lebesgue(), DIRICHLET, depth=5)
        res = count(disc, 100.0, reference_shift=-5.0)
        assert res.reference_shift == -5.0
        assert res.n_plus == count(disc, 100.0).n_plus

    def test_invalid_explicit_shift_rejected(self):
        two = CompositeMeasure.from_atoms([(0.4, 1.0), (0.6, 1.0)])
        disc = assemble(1.0, 0.0, two, DIRICHLET, depth=8)
        e1 = eigenvalue(disc, 1)
        with pytest.raises(IndefinitePencilError):
            count(disc, 100.0, reference_shift=e1 + 1.0)


class TestEigenvalues:
    def test_bisection_matches_dense(self):
        disc = assemble(1.0, 0.0, CompositeMeasure.from_selfsim(cantor_ladder()), DIRICHLET, depth=6)
        dense = pencil_eigenvalues(disc)
        pos = sorted(m for m in dense if m > 0)
        got = eigenvalues(disc, 5)
        for g, d in zip(got, pos):
            assert abs(g - d) <= 1e-10 * abs(d)

    def test_count_consistency(self):
        disc = assemble(1.0, 0.0, CompositeMeasure.from_selfsim(cantor_ladder()), NEUMANN, depth=6)
        for n in (1, 3, 5):
            e = eigenvalue(disc, n)
            assert count(disc, e * (1 + 1e-8) + 1e-8).n_plus >= n
            if e > 0:
                assert count(disc, e * (1 - 1e-6)).n_plus < n

    def test_neumann_ground_state_is_zero(self):
        disc = assemble(1.0, 0.0, CompositeMeasure.lebesgue(), NEUMANN, depth=5)
        zt = zero_tolerance(disc)
        assert abs(eigenvalue(disc, 1)) <= zt

    def test_negative_side(self):
        satoms = [(0.2, 1.0), (0.45, -0.4), (0.7, 0.8)]
        disc = assemble(1.0, 0.0, CompositeMeasure.from_atoms(satoms), DIRICHLET, depth=6)
        em = eigenvalue(disc, 1, side=-1)
        assert em < 0
        dense = pencil_eigenvalues(disc)
        neg = sorted((m for m in dense if m < 0), key=abs)
        assert abs(em - neg[0]) <= 1e-10 * abs(neg[0])

    def test_dense_oracle_next_to_the_neumann_zero_mode(self):
        # at the shift -1e-6 that resolve_shift finds next to the zero
        # mode the dense oracle is off by 2.3e-9 relative here; at its
        # own shift -1 it stays within 1e-11
        disc = assemble_iterated_pair(MonotonePrimitive.cantor(), 2, cantor_ladder(), NEUMANN, depth=6)
        dense = pencil_eigenvalues(disc)
        got = eigenvalues(disc, 20, rtol=0.0)
        assert got[0] == 0.0 and abs(dense[0]) <= 1e-11 * got[1]
        for g, d in zip(got[1:], dense[1:20]):
            assert abs(g - d) <= 1e-11 * g

    def test_counterexample_matches_arpack(self):
        r = MonotonePrimitive.cantor()
        disc = assemble_iterated_pair(r, 6, r.params, NEUMANN, depth=9)
        got = eigenvalues(disc, 20)
        for g, m in zip(got, arpack_eigenvalues(disc, 22)):
            assert abs(g - m) <= 1e-9 * max(abs(m), 1.0)

    @pytest.mark.parametrize("depth, rel", [(9, 1e-6), (13, 1e-6), (15, 1e-5)])
    def test_cantor_string_matches_arpack(self, depth, rel):
        # no longer low by the zero band, which is 2.5 wide at depth 15
        disc = assemble_iterated_pair(MonotonePrimitive.cantor(), 0, cantor_ladder(), NEUMANN, depth)
        got = eigenvalues(disc, 7)
        assert got[0] == 0.0
        assert got[1] > 7.0
        for g, m in zip(got[1:], arpack_eigenvalues(disc, 8)[1:]):
            assert abs(g - m) <= rel * m

    def test_values_are_certified_by_counts(self, monkeypatch):
        # raw counts of (-zt, x) put index k between e_k (1 -+ rtol);
        # the polishes stop on the Kato-Temple bound, where confirming
        # each converged quotient with one more solve took 99 solves
        disc = counterexample_arrays()
        xi = resolve_shift(disc)
        rtol = 1e-10
        solve = spectral._tri_solve
        solves = []
        monkeypatch.setattr(spectral, "_tri_solve", lambda *a: solves.append(1) or solve(*a))

        def raw(x):
            return spectral._from_edge(disc, xi, [x])[0][0]

        for k, e in enumerate(eigenvalues(disc, 20, reference_shift=xi, rtol=rtol), start=1):
            if e != 0.0:
                assert raw(e * (1 - rtol)) < k <= raw(e * (1 + rtol))
        assert disc._b_semidefinite and 0 < len(solves) <= 82

    def test_no_polish_below_rounding_floor(self, monkeypatch):
        # rtol * lam under eps * |A| / |B|: no count could certify a polish
        disc = assemble(1.0, 0.0, CompositeMeasure.from_selfsim(cantor_ladder()), DIRICHLET, depth=6)
        pos = sorted(m for m in pencil_eigenvalues(disc) if m > 0)

        def refuse(*args):
            raise AssertionError("polished below the rounding floor")

        monkeypatch.setattr(spectral, "_polish", refuse)
        for g, d in zip(eigenvalues(disc, 5, rtol=1e-17), pos):
            assert abs(g - d) <= 1e-12 * d

    @pytest.mark.parametrize(
        "build",
        [  # lambdas, so that the test ids stay <lambda>0 and <lambda>1
            lambda: counterexample_arrays(),
            lambda: assemble(1.0, 0.0, CompositeMeasure.from_selfsim(cantor_ladder()), DIRICHLET, depth=6),
        ],
    )
    def test_polish_matches_banded_reference(self, build, monkeypatch):
        # the first five isolated brackets that multisection hands to the polish
        disc = build()
        polish = spectral._polish
        calls = []

        def spy(disc, lo, hi, rtol, x0):
            s = polish(disc, lo, hi, rtol, x0)
            calls.append((lo, hi, rtol, s))
            return s

        monkeypatch.setattr(spectral, "_polish", spy)
        eigenvalues(disc, 8)
        assert len(calls) >= 5 and any(s is not None for *_, s in calls[:5])
        for lo, hi, rtol, s in calls[:5]:
            assert s == reference_polish(disc, lo, hi, rtol)

    def test_polish_at_a_singular_shift_returns_it(self):
        # the first shift, the midpoint 1.0, makes A - shift B exactly singular
        disc = PencilDiscretization(np.linspace(0.0, 1.0, 3), np.array([1.0, 2.0, 3.0]), np.zeros(2),
                                    np.ones(3), np.zeros(2), 0)
        x0 = np.random.default_rng(0).standard_normal(3)
        assert spectral._polish(disc, 0.5, 1.5, 1e-10, x0) == 1.0

    def test_polish_keeps_its_shift_inside_the_interval(self):
        # the first quotient, 381.9, lies below (400, 512): the shift stays
        # at the midpoint and inverse iteration goes on to the eigenvalue
        r = MonotonePrimitive.cantor()
        disc = assemble_iterated_pair(r, 6, r.params, NEUMANN, depth=9)
        x0 = np.random.default_rng(0).standard_normal(disc.n_free)
        assert spectral._polish(disc, 400.0, 512.0, 1e-10, x0) == pytest.approx(483.14411097, rel=1e-9)

    def test_polish_stops_at_the_rounding_floor(self, monkeypatch):
        # the quotients near 9.87 and 39.48 wander by more than rtol / 100
        # relative but less than eps |A| / |B| (5.2e-10): the polish stops
        # there instead of running all _POLISH_SOLVES solves
        r = MonotonePrimitive.cantor()
        disc = assemble_iterated_pair(r, 6, r.params, NEUMANN, depth=9)
        x0 = np.random.default_rng(0).standard_normal(disc.n_free)
        solve = spectral._tri_solve
        solves = []
        monkeypatch.setattr(spectral, "_tri_solve", lambda *a: solves.append(1) or solve(*a))
        for lo, hi, lam in ((8.0, 36.0, 9.8694117), (36.0, 64.0, 39.475333)):
            solves.clear()
            assert spectral._polish(disc, lo, hi, 1e-10, x0) == pytest.approx(lam, rel=1e-7)
            assert len(solves) < spectral._POLISH_SOLVES

    def test_kato_temple_bound_is_taken_at_the_nearer_end(self, monkeypatch):
        # the eigenvalue near 38.4975 lies 4.5e-4 above lo = 38.4971 and
        # 34.5 below hi: the fourth quotient, 38.49778, has eps2 = 0.0104,
        # within tol = 3.8e-3 times its distance to hi but not to lo, so
        # the polish goes on to a fifth solve
        disc = cantor_pencil()
        assert disc._b_semidefinite
        x0 = np.random.default_rng(0).standard_normal(disc.n_free)
        solve = spectral._tri_solve
        solves = []
        monkeypatch.setattr(spectral, "_tri_solve", lambda *a: solves.append(1) or solve(*a))
        got = spectral._polish(disc, 38.4971, 73.0, 1e-2, x0)
        assert len(solves) == 5
        assert got == reference_polish(disc, 38.4971, 73.0, 1e-2)
        assert got == pytest.approx(38.497548018, rel=1e-10)

    def test_failed_polish_is_retried_on_a_narrower_interval(self, monkeypatch):
        # from the midpoint of (1184, 1408) the quotients head for the
        # neighbour 1417.13 above it; the round bisects the interval, and
        # the polish on (1184, 1296) finds eigenvalue 12
        disc = counterexample_arrays()
        x0 = np.random.default_rng(0).standard_normal(disc.n_free)
        assert spectral._polish(disc, 1184.0, 1408.0, 1e-10, x0) is None
        assert reference_polish(disc, 1184.0, 1408.0, 1e-10) is None
        polish = spectral._polish
        calls = []

        def spy(disc, lo, hi, rtol, x0):
            s = polish(disc, lo, hi, rtol, x0)
            calls.append((lo, hi, s))
            return s

        monkeypatch.setattr(spectral, "_polish", spy)
        got = eigenvalues(disc, 20)
        assert calls.index((1184.0, 1408.0, None)) < calls.index((1184.0, 1296.0, got[11]))
        assert got[11] == pytest.approx(1191.3416671, rel=1e-9)
        # a polish that returns a value is the last one for its index
        values = [s for *_, s in calls if s is not None]
        assert len(values) == len(set(values)) == 19

    def test_b_semidefinite_with_zero_rows(self):
        # 31 of the 34 rows of B are zero between the atoms; their exact
        # zero pivots count as negative, which the check of -B allows
        atoms = [(0.2, 1.0), (0.45, 0.4), (0.7, 0.8)]
        disc = assemble(1.0, 0.0, CompositeMeasure.from_atoms(atoms), DIRICHLET, depth=5)
        assert np.count_nonzero(disc.b_diag == 0.0) == 31 and disc.n_free == 34
        assert disc._b_semidefinite
        assert not signed_pencil()._b_semidefinite

    def test_indefinite_b_keeps_the_two_quotient_stop(self, monkeypatch):
        # B of the signed p has the eigenvalue -0.4, so the Kato-Temple
        # bound does not hold; taken anyway, it stopped the polishes at
        # 5.592 and -51.96 after one solve each, which no count certifies
        disc = signed_pencil()
        assert not disc._b_semidefinite
        polish = spectral._polish
        calls = []

        def spy(disc, lo, hi, rtol, x0):
            s = polish(disc, lo, hi, rtol, x0)
            calls.append((lo, hi, rtol, s))
            return s

        monkeypatch.setattr(spectral, "_polish", spy)
        got = eigenvalues_below(disc, 100.0) + eigenvalues(disc, 1, side=-1)
        assert [s for *_, s in calls] == pytest.approx([9.0763016418, 5.5710262135, -16.480661189])
        assert sorted(s for *_, s in calls) == sorted(got)
        for lo, hi, rtol, s in calls:
            assert s == reference_polish(disc, lo, hi, rtol)

    @pytest.mark.parametrize("rtol", [math.nan, math.inf, -math.inf, -1e-10, -1.0, 1.0, 2.0])
    def test_rtol_outside_unit_interval_rejected(self, rtol):
        disc = cantor_pencil()
        for ask in (eigenvalue, eigenvalues):
            with pytest.raises(InvalidParametersError, match="rtol"):
                ask(disc, 3, rtol=rtol)
        with pytest.raises(InvalidParametersError, match="rtol"):
            eigenvalues_below(disc, 100.0, rtol=rtol)

    @pytest.mark.parametrize("rtol", [0.0, 1e-3, 0.5, 0.9, 0.999])
    def test_values_lie_within_half_rtol(self, rtol):
        # an interval counted as done once h - l <= rtol h reported 36 for
        # both 9.87 and 39.48 at rtol 0.9, and 50 for 39.48 at rtol 0.5
        r = MonotonePrimitive.cantor()
        disc = assemble_iterated_pair(r, 6, r.params, NEUMANN, depth=9)
        exact = eigenvalues(disc, 6)
        for g, e in zip(eigenvalues(disc, 6, rtol=rtol), exact):
            assert abs(g - e) <= (0.5 * rtol + 1e-9) * e

    def test_one_node_pencil(self):
        disc = PencilDiscretization(np.array([0.0, 0.5, 1.0]), np.array([3.0]), np.zeros(0),
                                    np.array([2.0]), np.zeros(0), 1)
        assert assembly._tri_solve(disc.a_diag, disc.a_off, np.array([3.0])) == 1.0
        assert eigenvalue(disc, 1) == pytest.approx(1.5, rel=1e-12)

    def test_missing_eigenvalue_raises(self):
        disc = assemble(1.0, 0.0, CompositeMeasure.lebesgue(), DIRICHLET, depth=3)
        with pytest.raises(EigenvalueNotFoundError):
            eigenvalue(disc, disc.n_free + 1)

    def test_inertia_counts_negatives(self):
        disc = assemble(1.0, 0.0, CompositeMeasure.lebesgue(), DIRICHLET, depth=5)
        dense = pencil_eigenvalues(disc)
        lam = 500.0
        # every eigenvalue is positive, so N+(lam) is the number of
        # negative pivots of A - lam B
        assert count(disc, lam).n_plus == int(np.sum(dense < lam))


class TestSpectralDimension:
    def test_cantor_string_dimension(self):
        d = spectral_dimension((1 / 3,) * 3, (0.5, 0.0, 0.5))
        assert d == pytest.approx(math.log(2) / math.log(6), abs=1e-15)

    def test_lebesgue_dimension(self):
        assert spectral_dimension((0.5, 0.5), (0.5, 0.5)) == pytest.approx(0.5, abs=1e-12)

    def test_nonarithmetic_products(self):
        d = spectral_dimension((1.0, 1.0), (0.25, 1 / 6))
        assert 0.0 < d < 1.0
        assert abs(4.0**-d + 6.0**-d - 1.0) <= 1e-14

    def test_product_next_to_one_keeps_its_digits(self):
        # 0.9999999999999998^D is 1 - 1.6e-14 at the root; a 50-digit
        # bisection of sum p_i^D = 1 gives 73.23897726023927
        d = spectral_dimension((1.0, 1.0), (0.648228955276441, 0.9999999999999998))
        assert d == pytest.approx(73.23897726023927, rel=1e-14)

    def test_single_product_is_geometric_regime(self):
        with pytest.raises(GeometricRegimeError):
            spectral_dimension((0.5, 0.5), (0.5, 0.0))

    def test_no_products_rejected(self):
        with pytest.raises(InvalidParametersError):
            spectral_dimension((0.5, 0.5), (0.0, 0.0))

    def test_product_of_one_rejected(self):
        with pytest.raises(InvalidParametersError, match="must be < 1"):
            spectral_dimension((1.0, 0.5), (1.0, 0.5))

    def test_root_beyond_the_bound_rejected(self):
        # (1 - 1e-7)^D = 1/2 at D = ln 2 / 1e-7, about 6.9e6
        p = 1.0 - 1e-7
        with pytest.raises(InvalidParametersError, match="bracket exhausted"):
            spectral_dimension((1.0, 1.0), (p, p))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(1e-6, 0.99), min_size=2, max_size=6))
    def test_root_of_random_products(self, products):
        d = spectral_dimension([1.0] * len(products), products)
        assert d > 0.0
        assert abs(math.fsum(p**d for p in products) - 1.0) <= 1e-12
        logs = np.log(products)
        ref = brentq(lambda x: np.exp(x * logs).sum() - 1.0, 1e-16, 1e3, xtol=1e-15, rtol=8.9e-16)
        assert d == pytest.approx(ref, rel=1e-12)


class TestPeriodAndCase:
    def test_cantor_periodic_odd(self):
        period, tag = period_and_case((1 / 3,) * 3, (0.5, 0.0, 0.5))
        assert period == pytest.approx(math.log(6), abs=1e-12)
        assert tag == "periodic-odd"

    def test_antiperiodic(self):
        period, tag = period_and_case((0.5, 0.5), (0.5, -0.25))
        assert period == pytest.approx(math.log(2), abs=1e-12)
        assert tag == "antiperiodic"

    def test_nonarithmetic(self):
        period, tag = period_and_case((0.5, 0.5), (0.5, 1 / 3))
        assert period is None
        assert tag == "nonarithmetic-constant"


class TestGeometricLadders:
    def test_positive_product(self):
        jp = SelfSimilarParams(a=(0.5, 0.5), dprime=(0.5, 0.0), betaprime=(0.0, 1.0))
        assert ladder_counts(jp) == (1, 0)
        disc = assemble(1.0, 0.0, CompositeMeasure.from_selfsim(jp), BoundaryCondition(0.0, None), depth=20)
        rep = geometric_asymptotics(disc, 0.25, k_max=4, z_plus=1)
        assert rep.ratio_target == 4.0
        assert rep.interleave_target is None
        (ladder,) = rep.ladders
        assert ladder.side == 1
        assert ladder.ratios[-1] == pytest.approx(4.0, abs=1e-3)

    def test_negative_product_interleaves(self):
        jn = SelfSimilarParams(a=(0.5, 0.5), dprime=(-0.5, 0.0), betaprime=(0.0, 1.0))
        assert ladder_counts(jn) == (1, 1)
        disc = assemble(1.0, 0.0, CompositeMeasure.from_selfsim(jn), BoundaryCondition(0.0, None), depth=20)
        rep = geometric_asymptotics(disc, -0.25, k_max=4, z_plus=1, z_minus=1)
        assert rep.ratio_target == 16.0
        assert rep.interleave_target == 4.0
        sides = {lad.side: lad for lad in rep.ladders}
        assert set(sides) == {1, -1}
        for lad in rep.ladders:
            assert lad.ratios[-1] == pytest.approx(16.0, abs=0.01)
        inter = [abs(b) / a for a, b in zip(sides[1].eigenvalues, sides[-1].eigenvalues)]
        assert inter[-1] == pytest.approx(4.0, abs=1e-3)

    def test_product_validation(self):
        disc = assemble(1.0, 0.0, CompositeMeasure.lebesgue(), DIRICHLET, depth=4)
        with pytest.raises(InvalidParametersError):
            geometric_asymptotics(disc, 1.5, k_max=2, z_plus=1)


class TestSplittingInequality:
    def test_lebesgue_base_inequality_holds(self):
        chk = splitting_inequality(MonotonePrimitive.cantor(), cantor_ladder(), 0, 510.0, depth=9)
        assert chk.lhs == 8
        assert chk.rhs_terms == (4, 1, 4)
        assert chk.holds

    def test_terms_are_counts_at_scaled_arguments(self):
        # with k=0 the weights are the cell widths, so the outer terms at
        # lam are the count of the same string at lam/6
        r = MonotonePrimitive.cantor()
        cl = cantor_ladder()
        chk = splitting_inequality(r, cl, 0, 510.0, depth=9)
        inner = splitting_inequality(r, cl, 0, 85.0, depth=9)
        assert chk.rhs_terms[0] == inner.lhs
        assert chk.rhs == sum(chk.rhs_terms)

    @pytest.mark.parametrize("depth", [6, 9, 12, 14])
    def test_iterated_base_violates_splitting(self, depth):
        # the counts must not be an artefact of one mesh
        chk = splitting_inequality(MonotonePrimitive.cantor(), cantor_ladder(), 6, 510.0, depth=depth)
        assert chk.lhs == 8
        assert chk.rhs_terms == (3, 1, 3)
        assert not chk.holds

    def test_zero_lambda_trivially_holds(self):
        chk = splitting_inequality(MonotonePrimitive.cantor(), cantor_ladder(), 0, 0.0, depth=8)
        assert chk.lhs == 1
        assert chk.rhs_terms == (1, 1, 1)
        assert chk.holds

    def test_negative_lambda_rejected(self):
        with pytest.raises(InvalidParametersError):
            splitting_inequality(MonotonePrimitive.cantor(), cantor_ladder(), 0, -5.0, depth=6)

    @pytest.mark.parametrize("k", [0, 6])
    def test_checks_on_one_pencil_equal_one_pencil_per_lambda(self, k):
        r, cl = MonotonePrimitive.cantor(), cantor_ladder()
        lams = [510.0, 85.0, 0.0, 85.0 / 6.0]
        assert spectral._splitting_checks(r, cl, k, lams, 9) == [
            splitting_inequality(r, cl, k, lam, 9) for lam in lams
        ]


class TestNonFiniteLambda:
    """A NaN or infinite spectral parameter raises before any kernel runs."""

    @pytest.fixture(params=["pair", "general"])
    def disc(self, request):
        if request.param == "pair":
            return assemble_iterated_pair(MonotonePrimitive.cantor(), 6, cantor_ladder(), NEUMANN, 9)
        return sample_problems()[2]

    @pytest.fixture(autouse=True)
    def no_runtime_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            yield

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
    def test_counts_raise(self, disc, lam):
        with pytest.raises(InvalidParametersError, match="not finite"):
            count(disc, lam)
        with pytest.raises(InvalidParametersError, match="not finite"):
            counting_function(disc, [10.0, lam, 100.0])
        with pytest.raises(InvalidParametersError, match="not finite"):
            eigenvalues_below(disc, lam)
        # the finite queries still answer
        assert count(disc, 10.0).n_plus >= 1

    def test_reference_shift_raises(self, disc):
        with pytest.raises(InvalidParametersError, match="not finite"):
            resolve_shift(disc, reference_shift=math.nan)
        with pytest.raises(InvalidParametersError, match="not finite"):
            count(disc, 10.0, reference_shift=math.inf)

    @pytest.mark.parametrize("lam", [math.nan, math.inf])
    def test_splitting_inequality_raises(self, lam):
        with pytest.raises(InvalidParametersError, match="not finite"):
            splitting_inequality(MonotonePrimitive.cantor(), cantor_ladder(), 6, lam, depth=6)


class TestAsymptoticsReport:
    def test_cantor_string_report(self):
        cl = cantor_ladder()
        disc = assemble_iterated_pair(MonotonePrimitive.cantor(), 0, cl, NEUMANN, depth=9)
        lams = np.geomspace(1e2, 1e5, 10)
        rep = asymptotics_report(disc, cl.a, cl.dprime, lams)
        assert rep.dimension == pytest.approx(math.log(2) / math.log(6), abs=1e-12)
        assert rep.case_tag == "periodic-odd"
        assert rep.period == pytest.approx(math.log(6), abs=1e-12)
        assert len(rep.lambdas) == len(lams)
        assert all(np.diff(rep.n_plus) >= 0)
        lo, hi = rep.ratio_band
        assert 0 < lo <= hi
        assert np.all(rep.n_minus == 0)

    def test_report_json_round_trip_keys(self):
        cl = cantor_ladder()
        disc = assemble_iterated_pair(MonotonePrimitive.cantor(), 0, cl, NEUMANN, depth=7)
        rep = asymptotics_report(disc, cl.a, cl.dprime, np.geomspace(10, 1e4, 5))
        obj = rep.to_json()
        for key in ("dimension", "period", "case_tag", "ratio_band", "periodicity_defect"):
            assert key in obj


class TestCountingCsv:
    def test_format_and_determinism(self):
        disc = assemble(1.0, 0.0, CompositeMeasure.lebesgue(), DIRICHLET, depth=6)
        lams = [0.0, 100.0, 1000.0]
        results = counting_function(disc, lams)
        buf1, buf2 = io.StringIO(), io.StringIO()
        write_counting_csv(buf1, results, dimension=0.5)
        write_counting_csv(buf2, results, dimension=0.5)
        text = buf1.getvalue()
        assert text == buf2.getvalue()
        lines = text.strip().splitlines()
        assert lines[0] == "lambda,n_plus,n_minus,ratio_plus,ratio_minus,ln_lambda"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert first[3] == "nan"
        assert float(first[5]) == -math.inf
        row = lines[2].split(",")
        assert float(row[3]) == pytest.approx(int(row[1]) / 100.0**0.5)


class TestShiftResolution:
    def test_definite_problem_uses_zero(self):
        disc = assemble(1.0, 0.0, CompositeMeasure.lebesgue(), DIRICHLET, depth=5)
        assert resolve_shift(disc) == 0.0

    def test_zero_tolerance_scales_with_pencil(self):
        disc = assemble(1.0, 0.0, CompositeMeasure.lebesgue(), DIRICHLET, depth=5)
        zt1 = zero_tolerance(disc)
        arrays = (1000.0 * disc.a_diag, 1000.0 * disc.a_off, 1000.0 * disc.b_diag, 1000.0 * disc.b_off)
        zt2 = zero_tolerance(PencilDiscretization(disc.nodes, *arrays, disc.free_start))
        assert zt1 > 0
        assert zt2 == pytest.approx(zt1, rel=1e-9)


class TestZeroProbe:
    """positivity_scan skips the shift 0 on a pair pencil with Neumann ends, which A 1 = 0 fails."""

    @pytest.fixture
    def swept(self, monkeypatch):
        lams = []
        spy_entries(monkeypatch, lams.extend)
        return lams

    @pytest.fixture(params=["cantor", "iterate"])
    def build(self, request):
        if request.param == "cantor":
            return lambda bc: assemble_selfsimilar_pair(MonotonePrimitive.identity(3), cantor_ladder(), bc, 15)
        return lambda bc: assemble_iterated_pair(MonotonePrimitive.cantor(), 6, cantor_ladder(), bc, 9)

    def test_neumann_pair_pencil_sweeps_no_zero(self, build, swept):
        disc = build(NEUMANN)
        swept.clear()
        assert resolve_shift(disc) == -1e-6
        # -1e-6 is still validated by its own sweep
        assert swept == [-1e-6]
        assert scan_every_candidate(disc._levels) == -1e-6

    @pytest.mark.parametrize(
        "bc, xi",
        [(DIRICHLET, 0.0), (BoundaryCondition(0.7, 2.5), 0.0), (BoundaryCondition(None, 0.0), 0.0),
         (BoundaryCondition(-3.0, 0.0), -10.0)],
        ids=["dirichlet", "robin", "mixed", "negative-robin"],
    )
    def test_other_ends_probe_zero_first(self, build, swept, bc, xi):
        disc = build(bc)
        swept.clear()
        assert resolve_shift(disc) == xi == scan_every_candidate(disc._levels)
        assert swept[0] == 0.0

    def test_general_route_probes_zero_first(self, swept):
        # an arrays pencil with Neumann ends is swept at 0 as before
        disc = assemble(1.0, 0.0, CompositeMeasure.from_selfsim(cantor_ladder()), NEUMANN, depth=6)
        swept.clear()
        resolve_shift(disc)
        assert swept[0] == 0.0


def spy_entries(monkeypatch, record):
    """Call record(lams) with the spectral parameters of every call of an
    inertia entry: the sweeps of a pencil's arrays, and the level
    recursion that counts a pair-route pencil."""
    for name in ("sturm_pivots", "sturm_pivots_many", "level_pivots_many", "level_slopes_many"):
        entry = getattr(_kernels, name)

        def spy(*args, entry=entry):
            lams = args[-1]
            record(lams.tolist() if isinstance(lams, np.ndarray) else [lams])
            return entry(*args)

        monkeypatch.setattr(_kernels, name, spy)


class TestSweepCounts:
    @pytest.fixture
    def swept(self, monkeypatch):
        """Spectral parameters that reached an inertia entry, in call order."""
        lams = []
        spy_entries(monkeypatch, lams.extend)
        return lams

    def test_eigenvalues_share_batched_sweeps(self, swept, monkeypatch):
        r = MonotonePrimitive.cantor()
        disc = assemble_iterated_pair(r, 6, r.params, NEUMANN, depth=9)
        xi = resolve_shift(disc)
        batches = []
        spy_entries(monkeypatch, batches.append)
        swept.clear()
        eigenvalues(disc, 20, reference_shift=xi)
        # one bisection per index took 770 sweeps here
        assert 0 < len(swept) <= 140
        assert all(len(set(lams)) == len(lams) for lams in batches)

    @pytest.mark.parametrize("how_many, most_lams, most_calls", [(20, 70, 12), (60, 200, 16)])
    def test_failed_polishes_are_retried_not_bisected(self, monkeypatch, how_many, most_lams, most_calls):
        disc = counterexample_arrays()
        xi = resolve_shift(disc)
        batches = []
        spy_entries(monkeypatch, batches.append)
        eigenvalues(disc, how_many, reference_shift=xi)
        # bisecting each index whose first polish failed took 121 lams in
        # 40 calls for 20 eigenvalues, and 593 lams in 42 calls for 60
        assert 0 < sum(map(len, batches)) <= most_lams
        assert len(batches) <= most_calls

    def test_asymptotics_report_sweeps_each_endpoint_once(self, swept):
        cl = cantor_ladder()
        disc = assemble_iterated_pair(MonotonePrimitive.cantor(), 0, cl, NEUMANN, depth=7)
        xi = resolve_shift(disc)
        lams = np.geomspace(1e2, 1e5, 13)
        swept.clear()
        rep = asymptotics_report(disc, cl.a, cl.dprime, lams, xi)
        assert rep.periodicity_defect is not None
        assert len(swept) == len(set(swept))
        # the band edge, the grid, and the grid points shifted by one
        # period; xi was swept by resolve_shift and is not swept again
        assert len(lams) + 2 < len(swept) < 2 * len(lams) + 2

    def test_failed_certificate_falls_back_to_bisection(self, swept, monkeypatch):
        disc = counterexample_arrays()
        exact = eigenvalues(disc, 12)
        polish = spectral._polish
        polished = []

        def off_by_1e7(disc, lo, hi, rtol, x0):
            s = polish(disc, lo, hi, rtol, x0)
            polished.append(s)
            return None if s is None else s * (1 + 1e-7)

        monkeypatch.setattr(spectral, "_polish", off_by_1e7)
        swept.clear()
        got = eigenvalues(disc, 12)
        # at most one polish per index returns a value, and none of them is certified
        assert 0 < sum(s is not None for s in polished) <= 11
        # the x100 windows around the failed values cut bisection short:
        # 241 sweeps against 374 with plain bisection, 97 when certified
        assert 0 < len(swept) <= 260
        for g, e in zip(got, exact):
            assert abs(g - e) <= 2e-10 * abs(e)


def reference_polish(disc, lo, hi, rtol):
    """The Rayleigh-quotient inverse iteration of _polish on scipy's solve_banded.

    Works on (n, 1) columns and (1, 1) banded storage, from the same
    random start vector, and forms each quotient as _polish does:
    shift + y^T B x / y^T B y for (A - shift B) y = B x, with the dot
    products and |y| taken on the columns as BLAS dots.  It stops as
    _polish does: when B's eigenvalues (eigvalsh_tridiagonal) are all
    >= 0 and the Kato-Temple bound (x^T B x y^T B y - (y^T B x)^2) /
    (y^T B y)^2 / min(rho - lo, hi - rho) of a quotient rho in (lo, hi)
    is within rtol / 100 relative or eps |A| / |B|, or when two
    quotients in (lo, hi) differ by at most that.
    """

    def banded(diag, off):
        ab = np.zeros((3, diag.size))
        ab[0, 1:] = ab[2, :-1] = off
        ab[1] = diag
        return ab

    def apply(ab, x):
        y = ab[1, :, None] * x
        y[:-1] += ab[0, 1:, None] * x[1:]
        y[1:] += ab[2, :-1, None] * x[:-1]
        return y

    def dot(u, v):
        return float(u[:, 0] @ v[:, 0])

    band_a, band_b = banded(disc.a_diag, disc.a_off), banded(disc.b_diag, disc.b_off)
    x = np.random.default_rng(0).standard_normal((disc.n_free, 1))
    floor = np.finfo(float).eps * disc._norm_ratio
    kato_temple = eigvalsh_tridiagonal(disc.b_diag, disc.b_off).min() >= 0.0
    shift, rho = 0.5 * (lo + hi), None
    bx = apply(band_b, x)
    xbx = dot(x, bx)
    for _ in range(spectral._POLISH_SOLVES):
        try:
            y = solve_banded((1, 1), band_a - shift * band_b, bx)
        except np.linalg.LinAlgError:
            return shift
        by = apply(band_b, y)
        ybx, yby, norm = dot(y, bx), dot(y, by), math.sqrt(dot(y, y))
        new = shift + ybx / yby
        eps2 = (xbx * yby - ybx * ybx) / (yby * yby)
        bx, xbx = by / norm, yby / (norm * norm)
        if not lo < new < hi:
            rho = None
            continue
        tol = max(0.01 * rtol * abs(new), floor)
        if kato_temple and eps2 / min(new - lo, hi - new) <= tol:
            return new
        if rho is not None and abs(new - rho) <= tol:
            return new
        shift = rho = new
    return rho


def cantor_pencil():
    return assemble_iterated_pair(MonotonePrimitive.cantor(), 2, cantor_ladder(), NEUMANN, depth=6)



def signed_pencil():
    satoms = [(0.2, 1.0), (0.45, -0.4), (0.7, 0.8)]
    return assemble(1.0, 0.0, CompositeMeasure.from_atoms(satoms), DIRICHLET, depth=5)


def _ask(disc, query):
    """A query's answer, or the type of the library error it raised."""
    kind, args = query
    try:
        return QUERIES[kind](disc, *args)
    except FractalSturmError as exc:
        return type(exc)


QUERIES = {
    "count": count,
    "counting_function": counting_function,
    "eigenvalue": eigenvalue,
    "eigenvalues": eigenvalues,
    "eigenvalues_below": eigenvalues_below,
    "resolve_shift": resolve_shift,
    "positivity_scan": positivity_scan,
}

lams = st.sampled_from([0.0, 5.0, 85.0, 510.0, -30.0, 1e3]) | st.floats(-1e4, 1e4)
shifts = st.none() | st.sampled_from([-1.0, 0.0, 1e3])
sides = st.sampled_from([1, -1])
queries = st.one_of(
    st.tuples(st.just("count"), st.tuples(lams, shifts)),
    st.tuples(st.just("counting_function"), st.tuples(st.lists(lams, max_size=6), shifts)),
    st.tuples(st.just("eigenvalue"), st.tuples(st.integers(1, 4), sides)),
    st.tuples(st.just("eigenvalues"), st.tuples(st.integers(1, 4), sides)),
    st.tuples(st.just("eigenvalues_below"), st.tuples(st.floats(0.0, 3e3), sides)),
    st.tuples(st.just("resolve_shift"), st.tuples(shifts)),
    st.tuples(st.just("positivity_scan"), st.tuples(st.lists(lams, min_size=1, max_size=4))),
)


class TestPencilMemo:
    @pytest.fixture
    def sweeps(self, monkeypatch):
        """Spectral parameters that reached an inertia entry, in call order."""
        seen = []
        spy_entries(monkeypatch, seen.extend)
        return seen

    def test_repeated_grid_costs_no_sweep(self, sweeps):
        cl = cantor_ladder()
        disc = assemble_iterated_pair(MonotonePrimitive.cantor(), 0, cl, NEUMANN, depth=9)
        xi = resolve_shift(disc)
        grid = np.geomspace(1e2, 1e5, 13)
        asymptotics_report(disc, cl.a, cl.dprime, grid, xi)
        first = counting_function(disc, grid, xi)
        assert sweeps
        sweeps.clear()
        assert counting_function(disc, grid, xi) == first
        assert sweeps == []

    def test_counts_share_shift_check_and_band_edge(self, sweeps):
        disc = cantor_pencil()
        xi = resolve_shift(disc)
        sweeps.clear()
        for lam in (10.0, 100.0, 1000.0):
            count(disc, lam, xi)
        # three interval ends and the band edge -zt, once
        assert len(sweeps) == 4

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([cantor_pencil, signed_pencil]), st.lists(queries, min_size=1, max_size=8))
    def test_answers_do_not_depend_on_earlier_queries(self, build, sequence):
        disc = build()
        for query in sequence:
            assert _ask(disc, query) == _ask(build(), query)

    def test_full_memo_is_cleared(self, monkeypatch):
        grid = np.linspace(1.0, 3e3, 40)
        fresh = cantor_pencil()
        want = (counting_function(fresh, grid), eigenvalues(fresh, 6))
        assert len(fresh._memo) > 8
        monkeypatch.setattr(assembly, "_MEMO_SIZE", 8)
        disc = cantor_pencil()
        for _ in range(2):
            assert (counting_function(disc, grid), eigenvalues(disc, 6)) == want
            assert 0 < len(disc._memo) <= 8

    def test_threads_sharing_a_pencil_get_the_same_answers(self, monkeypatch):
        # a memo of 8 is cleared over and over while four threads use it
        grid = np.linspace(1.0, 3e3, 40)
        want = counting_function(cantor_pencil(), grid)
        monkeypatch.setattr(assembly, "_MEMO_SIZE", 8)
        disc = cantor_pencil()
        got = []

        def work():
            for _ in range(20):
                got.append(counting_function(disc, grid))

        threads = [threading.Thread(target=work) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(got) == 80 and all(g == want for g in got)
        # each thread checks the size before it stores, so at most one
        # entry per thread slips past the limit
        assert len(disc._memo) <= 8 + len(threads)
