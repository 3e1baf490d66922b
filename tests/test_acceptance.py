"""Acceptance gate: every advertised numerical claim at its stated tolerance.

Each test prints one "criterion N: PASS/FAIL - detail" line (repeated in
the terminal summary) and asserts the same condition.
"""

import math
import time

import numpy as np
import pytest

from conftest import record_criterion

from fractalsturm import (
    BoundaryCondition,
    CompositeMeasure,
    MonotonePrimitive,
    StepFunction,
    assemble,
    assemble_iterated_pair,
    assemble_selfsimilar_pair,
    cantor_ladder,
    count,
    counting_function,
    eigenvalues,
    moments,
    positivity_scan,
    resolvent_sandwich,
    spectral_dimension,
    splitting_inequality,
    transform_measure,
)
from fractalsturm.spectral import asymptotics_report

from _oracles import dense_count, integrate_against

DIRICHLET = BoundaryCondition(None, None)
NEUMANN = BoundaryCondition(0.0, 0.0)
TWO_ATOMS = CompositeMeasure.from_atoms([(0.4, 1.0), (0.6, 1.0)])


def test_criterion_1_counting_splitting_counterexample():
    r = MonotonePrimitive.cantor()
    p = cantor_ladder()
    t0 = time.time()
    checks = {lam: splitting_inequality(r, p, 6, lam, depth=9) for lam in (510.0, 85.0, 0.0)}
    disc = assemble_iterated_pair(r, 6, p, NEUMANN, depth=9)
    eigs = eigenvalues(disc, 9)
    elapsed = time.time() - t0

    eig_ok = abs(eigs[0]) <= 0.02 * math.pi**2 and all(
        e == pytest.approx(math.pi**2 * n**2, rel=0.02) for n, e in enumerate(eigs[1:], start=1)
    )
    counts_ok = (
        checks[510.0].lhs == 8
        and checks[85.0].lhs == 3
        and checks[0.0].lhs == 1
        and checks[510.0].rhs_terms == (3, 1, 3)
        and not checks[510.0].holds
    )
    ok = eig_ok and counts_ok and elapsed < 10.0
    record_criterion(
        1, ok,
        f"N(510)={checks[510.0].lhs} > {checks[510.0].rhs}=3+1+3, N(85)={checks[85.0].lhs}, "
        f"N(0)={checks[0.0].lhs}; 9 eigenvalues within 2% of pi^2(n-1)^2; {elapsed:.2f}s",
    )
    assert ok


def test_criterion_2_delta_weight_degeneracies():
    q_a = -25 * math.pi**2 / 4
    disc12 = assemble(1.0, q_a, TWO_ATOMS, DIRICHLET, depth=12)
    disc10 = assemble(1.0, q_a, TWO_ATOMS, DIRICHLET, depth=10)
    max12 = max(
        np.abs(resolvent_sandwich(disc12, [0.4, 0.6], lam)).max() for lam in (-1.0, 1.0, 10.0)
    )
    max10 = max(
        np.abs(resolvent_sandwich(disc10, [0.4, 0.6], lam)).max() for lam in (-1.0, 1.0, 10.0)
    )
    part_a = max12 < 1e-4 and max12 < max10

    disc_b = assemble(1.0, -7 * math.pi**2, TWO_ATOMS, DIRICHLET, depth=12)
    grid = np.r_[-np.geomspace(1e6, 1e-6, 100), np.geomspace(1e-6, 1e6, 100)]
    scan = positivity_scan(disc_b, grid)
    g = resolvent_sandwich(disc_b, [0.4, 0.6], 0.0)
    part_b = scan is None and np.all(np.isfinite(g)) and np.allclose(g, g.T)

    ok = part_a and part_b
    record_criterion(
        2, ok,
        f"sandwich max {max12:.3g} < 1e-4 (was {max10:.3g} two levels coarser); "
        f"no positive shift among 200, finite hermitian sandwich at 0",
    )
    assert ok


def test_criterion_3_multiplier_pushforward():
    window = CompositeMeasure(
        density=StepFunction(np.array([0.0, 0.4, 0.6, 1.0]), np.array([0.0, 1.0, 0.0]))
    )
    g = transform_measure(window, MonotonePrimitive.cantor(), depth=8)
    atoms = dict(g.atoms)
    weight = atoms.get(0.5, 0.0)
    ok = abs(weight - 0.2) <= 1e-6 and abs(g.total_mass() - 0.2) <= 1e-6
    record_criterion(3, ok, f"atom at 1/2 carries {weight:.9f} (target 0.2, tol 1e-6)")
    assert ok


def test_criterion_4_spectral_dimension():
    d_cantor = spectral_dimension((1 / 3, 1 / 3, 1 / 3), (0.5, 0.0, 0.5))
    d_leb = spectral_dimension((0.5, 0.5), (0.5, 0.5))
    err_c = abs(d_cantor - math.log(2) / math.log(6))
    err_l = abs(d_leb - 0.5)
    ok = err_c <= 1e-9 and err_l <= 1e-12
    record_criterion(4, ok, f"ln2/ln6 error {err_c:.2e} (tol 1e-9), 1/2 error {err_l:.2e} (tol 1e-12)")
    assert ok


def test_criterion_5_weyl_sanity():
    disc = assemble(1.0, 0.0, CompositeMeasure.lebesgue(), DIRICHLET, depth=15)
    assert len(disc.nodes) >= 3e4
    lams = np.geomspace(1e3, 1e5, 10)
    counts = counting_function(disc, lams)
    ratios = [res.n_plus * math.pi / math.sqrt(lam) for lam, res in zip(lams, counts)]
    ok = all(0.95 <= r <= 1.05 for r in ratios)
    record_criterion(
        5, ok, f"N(lambda) pi/sqrt(lambda) in [{min(ratios):.4f}, {max(ratios):.4f}] over [1e3, 1e5]"
    )
    assert ok


def test_criterion_6_log_periodic_band():
    cl = cantor_ladder()
    disc = assemble_iterated_pair(MonotonePrimitive.cantor(), 0, cl, NEUMANN, depth=15)
    lams = np.geomspace(1e3, 1e7, 25)
    rep = asymptotics_report(disc, cl.a, cl.dprime, lams)
    lo, hi = rep.ratio_band
    band_ok = lo > 0 and hi / lo < 3.0
    defect_ok = rep.periodicity_defect is not None and rep.periodicity_defect < 0.15 * (hi - lo)
    ok = band_ok and defect_ok
    record_criterion(
        6, ok,
        f"N/lambda^D in [{lo:.4f}, {hi:.4f}] (spread {hi / lo:.3f} < 3), "
        f"ln6-period defect {rep.periodicity_defect:.2e} < 15% of band width",
    )
    assert ok


def test_criterion_7_oracle_equivalence():
    rng = np.random.default_rng(2024)
    cl = cantor_ladder()
    mismatches = 0
    total = 0
    for trial in range(20):
        kind = trial % 4
        bc = DIRICHLET if trial % 2 else NEUMANN
        if kind == 0:
            n_at = int(rng.integers(2, 30))
            atoms = [
                (float(x), float(w))
                for x, w in zip(rng.uniform(0.02, 0.98, n_at), rng.uniform(0.05, 2.0, n_at))
            ]
            p = CompositeMeasure.from_atoms(atoms)
        elif kind == 1:
            atoms = [(0.25, 1.0), (float(rng.uniform(0.4, 0.6)), float(rng.uniform(-0.8, -0.1))), (0.8, 1.2)]
            p = CompositeMeasure.from_atoms(atoms)
        elif kind == 2:
            p = CompositeMeasure.from_selfsim(cl, float(rng.uniform(0.5, 2.0)))
        else:
            p = CompositeMeasure(density=StepFunction.constant(float(rng.uniform(0.5, 2.0))))
        depth = int(rng.integers(3, 6))
        disc = assemble(1.0, float(rng.uniform(-3.0, 3.0)), p, bc, depth=depth)
        assert disc.n_free <= 200
        for lam in rng.uniform(-2000.0, 8000.0, 50):
            res = count(disc, float(lam))
            oracle = dense_count(disc, float(lam), res.reference_shift)
            total += 1
            if (res.n_plus, res.n_minus) != oracle:
                mismatches += 1
    ok = mismatches == 0
    record_criterion(7, ok, f"{total} inertia counts vs dense oracle, {mismatches} mismatches")
    assert ok


def test_criterion_8_moment_exactness():
    mu = moments(cantor_ladder(), 2)
    err1 = abs(mu[1] - 0.5)
    err2 = abs(mu[2] - 3 / 8)
    measure = CompositeMeasure.from_selfsim(cantor_ladder())
    brute1 = integrate_against(measure, lambda x: x, depth=12)
    brute2 = integrate_against(measure, lambda x: x * x, depth=12)
    berr = max(abs(brute1 - mu[1]), abs(brute2 - mu[2]))
    ok = err1 <= 1e-12 and err2 <= 1e-12 and berr <= 1e-6
    record_criterion(
        8, ok,
        f"mu1 err {err1:.1e}, mu2 err {err2:.1e} (tol 1e-12); depth-12 sums within {berr:.1e} (tol 1e-6)",
    )
    assert ok


def test_criterion_9_isometry_spectrum_invariance():
    original = assemble_selfsimilar_pair(MonotonePrimitive.cantor(), cantor_ladder(), DIRICHLET, depth=9)
    transformed = assemble(1.0, 0.0, CompositeMeasure.lebesgue(), DIRICHLET, depth=11)
    ev_orig = eigenvalues(original, 6)
    ev_tran = eigenvalues(transformed, 6)
    rel = max(abs(a - b) / b for a, b in zip(ev_orig, ev_tran))
    ok = rel <= 0.01
    record_criterion(9, ok, f"eigenvalues 1-6 agree to {rel:.2e} relative (tol 1%)")
    assert ok
