"""Tests for self-similar primitives: evaluation, moments, cells, atoms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractalsturm import (
    DegenerateMomentsError,
    DomainError,
    InvalidParametersError,
    MonotonePrimitive,
    ParameterMismatchError,
    SelfSimilarParams,
    cantor_ladder,
    evaluate,
    identity_params,
    jump_atoms,
    junction_gaps,
    moments,
    pair_moments,
    support_cells,
    validate_contraction,
)
from fractalsturm import selfsim
from fractalsturm.selfsim import _evaluate_many

from _oracles import visit_jump_atoms, walk_support_cells

CANTOR = cantor_ladder()
JUMP = SelfSimilarParams(a=(0.5, 0.5), dprime=(0.5, 0.0), betaprime=(0.0, 1.0))


def test_cantor_dyadic_rational_points_exact():
    for x, want in ((0.0, 0.0), (1.0, 1.0), (1 / 3, 0.5), (1 / 9, 0.25), (2 / 9, 0.25), (0.5, 0.5)):
        val, err = evaluate(CANTOR, x)
        assert err == 0.0
        assert val == pytest.approx(want, abs=1e-15)


def test_cantor_quarter_with_honest_error_bound():
    # 1/4 has an infinite ternary expansion; the bound must cover the truth.
    val, err = evaluate(CANTOR, 0.25)
    assert err > 0.0
    assert abs(val - 1 / 3) <= err
    assert err < 1e-8


def test_evaluate_outside_domain_raises():
    with pytest.raises(DomainError):
        evaluate(CANTOR, -0.1)
    with pytest.raises(DomainError):
        evaluate(CANTOR, 1.1)


def test_one_sided_limits_at_jump():
    left, el = evaluate(JUMP, 0.5, side="left")
    right, er = evaluate(JUMP, 0.5, side="right")
    assert el == 0.0 and er == 0.0
    assert left == pytest.approx(0.5)
    assert right == pytest.approx(1.0)


def test_identity_params_evaluate_to_x():
    for x in (0.0, 0.125, 0.377, 0.92, 1.0):
        val, err = evaluate(identity_params(3), x)
        assert abs(val - x) <= max(err, 1e-12)


def test_corner_equations_enforced():
    # betaprime[0] must satisfy p0 = b0 + d0 p0.
    with pytest.raises(InvalidParametersError):
        SelfSimilarParams(a=(0.5, 0.5), dprime=(0.5, 0.0), betaprime=(0.3, 1.0))
    with pytest.raises(InvalidParametersError):
        SelfSimilarParams(a=(0.5, 0.5), dprime=(0.5, 0.5), betaprime=(0.0, 0.7))


def test_parameter_length_mismatch():
    with pytest.raises(InvalidParametersError):
        SelfSimilarParams(a=(0.5, 0.5), dprime=(0.5, 0.0, 0.5), betaprime=(0.0, 1.0))


def test_widths_must_partition():
    with pytest.raises(InvalidParametersError):
        SelfSimilarParams(a=(0.5, 0.4), dprime=(0.5, 0.5), betaprime=(0.0, 0.5))


def test_junction_gaps_continuous_and_jumpy():
    assert junction_gaps(CANTOR) == (0.0, 0.0)
    assert junction_gaps(JUMP) == (0.5,)


def test_jump_atoms_geometric_masses():
    atoms = jump_atoms(JUMP, 3)
    assert atoms.tolist() == [[0.125, 0.125], [0.25, 0.25], [0.5, 0.5]]
    assert jump_atoms(CANTOR, 6).shape == (0, 2)


def test_cantor_moments_closed_form():
    mu = moments(CANTOR, 2)
    assert mu[0] == pytest.approx(1.0, abs=1e-14)
    assert mu[1] == pytest.approx(0.5, abs=1e-14)
    assert mu[2] == pytest.approx(3 / 8, abs=1e-14)


def test_jump_measure_moments():
    # masses 2^-k at 2^-k for k >= 1: mu_1 = 1/3, mu_2 = 1/7.
    mu = moments(JUMP, 2)
    assert mu[0] == pytest.approx(1.0, abs=1e-14)
    assert mu[1] == pytest.approx(1 / 3, abs=1e-13)
    assert mu[2] == pytest.approx(1 / 7, abs=1e-13)
    brute = sum(w * p for p, w in jump_atoms(JUMP, 40))
    assert mu[1] == pytest.approx(brute, abs=1e-12)


def test_degenerate_moment_normalization():
    deg = SelfSimilarParams(a=(0.5, 0.5), dprime=(1.0, 1.0), betaprime=(0.0, 0.0))
    with pytest.raises(DegenerateMomentsError):
        moments(deg, 1)


def test_pair_moments_cantor_cantor():
    r = MonotonePrimitive.cantor()
    mixed = pair_moments(r, CANTOR, 2)
    assert mixed[0] == pytest.approx(1.0, abs=1e-13)
    assert mixed[1] == pytest.approx(0.5, abs=1e-13)
    assert mixed[2] == pytest.approx(1 / 3, abs=1e-13)


def test_pair_moments_width_mismatch():
    r = MonotonePrimitive.identity(2)
    with pytest.raises(ParameterMismatchError):
        pair_moments(r, CANTOR, 1)


def test_validate_contraction():
    assert validate_contraction(MonotonePrimitive.cantor(), CANTOR)
    with pytest.raises(ParameterMismatchError):
        validate_contraction(MonotonePrimitive.identity(2), CANTOR)


def test_support_cells_array_shape():
    sup = support_cells(CANTOR, 2)
    assert sup.shape == (4, 4)
    left, width, weight, offset = sup.T
    np.testing.assert_allclose(left, [0.0, 2 / 9, 2 / 3, 8 / 9])
    np.testing.assert_allclose(width, 1 / 9)
    np.testing.assert_allclose(weight, 0.25)
    np.testing.assert_allclose(offset, [0.0, 0.25, 0.5, 0.75])
    assert support_cells(CANTOR, 0).tolist() == [[0.0, 1.0, 1.0, 0.0]]


@st.composite
def substitution_params(draw):
    """Random (a, d', beta') with p0 = 0, p1 = 1: signed and zero letters,
    free interior offsets, hence nonzero junction gaps."""
    n = draw(st.integers(2, 4))
    a = np.asarray(draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)))
    d = draw(st.lists(st.sampled_from([0.0]) | st.floats(-0.9, 0.9), min_size=n, max_size=n))
    b = [0.0] + draw(st.lists(st.floats(-1.0, 1.0), min_size=n - 2, max_size=n - 2)) + [1.0 - d[-1]]
    return SelfSimilarParams(a=tuple(a / a.sum()), dprime=tuple(d), betaprime=tuple(b))


@settings(max_examples=40, deadline=None)
@given(substitution_params(), st.integers(0, 6))
def test_level_expansion_matches_depth_first_walk(params, depth):
    cells = support_cells(params, depth)
    want = walk_support_cells(params, depth)
    assert cells.dtype == np.float64 and cells.shape == want.shape
    assert np.array_equal(cells, want)
    if depth >= 1:
        assert jump_atoms(params, depth).tolist() == visit_jump_atoms(params, depth)


def test_support_cells_drop_underflowing_weights():
    # both letters live, but 1e-200 squared underflows to 0 at depth 2
    params = SelfSimilarParams(a=(0.5, 0.5), dprime=(1e-200, 1 - 1e-200), betaprime=(0.0, 1e-200))
    for depth in (2, 4):
        cells = support_cells(params, depth)
        assert cells.shape[0] < 2**depth
        assert np.array_equal(cells, walk_support_cells(params, depth))


def test_continuous_jump_atoms_expand_no_cell(monkeypatch):
    def expand(*args):
        raise AssertionError("jump_atoms expanded a cell of a P without junction gaps")

    monkeypatch.setattr(selfsim, "_children", expand)
    for params in (CANTOR, identity_params(3)):
        atoms = jump_atoms(params, 40)
        assert atoms.dtype == np.float64 and atoms.shape == (0, 2)
        assert not atoms.flags.writeable


def _bits(xs):
    return np.asarray(xs, dtype=np.float64).tobytes()


@settings(max_examples=40, deadline=None)
@given(
    substitution_params(),
    st.lists(st.floats(0.0, 1.0), max_size=20),
    st.sampled_from([0, 1, 5, 48, 60]),
)
def test_array_evaluation_matches_evaluate_bit_for_bit(params, xs, depth):
    for p in (params, CANTOR, JUMP, MonotonePrimitive.identity(3).params):
        # random points; the ends and junctions of the depth-3 cells, exact
        # hits down to level 4; the middle of every letter's cell, dead
        # letters included; the ends, and points clamped onto them
        cells = support_cells(p, 3)
        grid = cells[:, :1] + cells[:, 1:2] * p.alpha
        middles = p.alpha[:-1] + 0.5 * np.asarray(p.a)
        pts = np.concatenate((xs, grid.ravel(), middles, [0.0, 1.0, -1e-13, 1 + 1e-13]))
        want = [evaluate(p, x, depth)[0] for x in pts]
        assert _bits(_evaluate_many(p, pts, depth)) == _bits(want)


def test_negative_depth_raises():
    # as every assembly route does, rather than expanding to depth 0
    with pytest.raises(InvalidParametersError, match="depth"):
        evaluate(CANTOR, 0.3, -5)
    with pytest.raises(InvalidParametersError, match="depth"):
        _evaluate_many(CANTOR, np.array([0.3]), -1)
    assert evaluate(CANTOR, 0.3, 0)[0] == 0.5


def test_array_evaluation_outside_domain_raises():
    assert _evaluate_many(CANTOR, np.zeros(0)).shape == (0,)
    with pytest.raises(DomainError):
        _evaluate_many(CANTOR, np.array([0.5, 1.1]))


def test_monotone_primitive_validation():
    for d in ((1.0, 0.0), (0.6, 0.5), (0.5, -0.5)):
        with pytest.raises(InvalidParametersError):
            MonotonePrimitive(SelfSimilarParams(a=(0.5, 0.5), dprime=d, betaprime=(0.0, d[0])))


def test_monotone_primitive_json_round_trip():
    r = MonotonePrimitive(
        SelfSimilarParams(a=(0.25, 0.75), dprime=(0.3, 0.7), betaprime=(0.0, 0.3))
    )
    again = MonotonePrimitive.from_json(r.to_json())
    assert again.params == r.params


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.floats(0.1, 0.9), min_size=2, max_size=4),
    st.lists(st.floats(0.05, 0.9), min_size=2, max_size=4),
    st.data(),
)
def test_primitive_evaluation_is_monotone(a_raw, d_raw, data):
    n = min(len(a_raw), len(d_raw))
    a = np.asarray(a_raw[:n]) / np.sum(a_raw[:n])
    d = np.asarray(d_raw[:n]) / np.sum(d_raw[:n])
    if d.max() >= 0.95:
        d = 0.9 * d / d.max()
        d[-1] = 1.0 - d[:-1].sum()
        if d[-1] < 0 or d.max() >= 1.0:
            return
    r = MonotonePrimitive(SelfSimilarParams(a=a, dprime=d, betaprime=np.r_[0.0, np.cumsum(d[:-1])]))
    xs = sorted(data.draw(st.lists(st.floats(0.0, 1.0), min_size=3, max_size=8)))
    vals = [evaluate(r.params, x)[0] for x in xs]
    errs = [evaluate(r.params, x)[1] for x in xs]
    for i in range(len(xs) - 1):
        assert vals[i] <= vals[i + 1] + errs[i] + errs[i + 1] + 1e-12
    assert evaluate(r.params, 0.0) == (0.0, 0.0)
    v1, e1 = evaluate(r.params, 1.0)
    assert abs(v1 - 1.0) <= e1 + 1e-12


@settings(max_examples=20, deadline=None)
@given(st.floats(0.0, 1.0))
def test_cantor_self_similarity_residual(t):
    # P(alpha_i + a_i t) = beta'_i + d'_i P(t) per branch
    pt, et = evaluate(CANTOR, t)
    alphas = (0.0, 1 / 3, 2 / 3)
    for i in range(3):
        x = alphas[i] + t / 3
        px, ex = evaluate(CANTOR, min(x, 1.0))
        want = CANTOR.betaprime[i] + CANTOR.dprime[i] * pt
        assert abs(px - want) <= ex + abs(CANTOR.dprime[i]) * et + 1e-9
