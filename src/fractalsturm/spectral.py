"""Eigenvalue counting and spectral asymptotics for tridiagonal pencils.

Counting is inertia based: with a reference shift xi where A - xi B is
positive definite, the number of pencil eigenvalues between xi and lam
equals the number of negative LDL^T pivots of A - lam B, so each query
costs one tridiagonal sweep and no eigenvalue is ever missed or doubled.
That inertia depends only on the pencil and lam, so the pencil remembers
it: each query resolves its shift and the zero band's edge from that
memo, and a lam that any count, shift check or eigenvalue search has
already swept on a pencil costs no sweep again.
On top of that sit eigenvalues by multisection on the same counts, with
each isolated eigenvalue polished by Rayleigh-quotient inverse iteration
and certified by two counts, power-law counting reports (dimension,
log-period, case classification), the geometric-progression regime, and
the splitting-inequality check N(lam) <= sum_i N(d_i d'_i lam) together
with its refutation data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded
from scipy.optimize import brentq

from .assembly import (
    BoundaryCondition,
    PencilDiscretization,
    _tri_apply,
    assemble_iterated_pair,
    default_shift_grid,
    positivity_scan,
)
from .errors import (
    EigenvalueNotFoundError,
    GeometricRegimeError,
    IndefinitePencilError,
    InvalidParametersError,
)
from .selfsim import MonotonePrimitive, SelfSimilarParams, jump_atoms

_NUDGE_REL = 1e-9
# eigenvalue() gives up once its bracket grows past this bound
_MAX_LAMBDA = 1e30
# Rayleigh-quotient inverse iteration stops after this many solves
_POLISH_SOLVES = 8
# a failed certificate widens its window around the polished value by
# this factor per round until the window brackets the eigenvalue
_WIDEN = 100.0


@dataclass(frozen=True)
class CountingResult:
    """Counts N+(lam) = #{eigs in [0, lam]} / N-(lam) = #{eigs in [lam, 0)}.

    near_zero is the number of near-zero pivots seen at the two ends of
    the counted interval; a nonzero value flags an eigenvalue close
    enough to an end to make the count ambiguous.
    """

    lam: float
    n_plus: int
    n_minus: int
    reference_shift: float
    near_zero: int = 0


def zero_tolerance(disc: PencilDiscretization) -> float:
    """Width of the band around 0 identified with the zero eigenvalue.

    Floating-point assembly perturbs an exact zero eigenvalue (e.g. the
    Neumann constant mode) by roughly eps * |A| / |B| in pencil units;
    eigenvalues inside the band count as 0.  Heuristic; every count and
    eigenvalue search on the pencil uses it.
    """
    return 1e-12 * disc._norm_ratio


def _banded(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """A symmetric tridiagonal matrix in the (1, 1) banded storage of solve_banded."""
    ab = np.zeros((3, diag.size))
    ab[0, 1:] = ab[2, :-1] = off
    ab[1] = diag
    return ab


def _split(points, ks):
    """Cut an interval at points [(t, count at t), ...] given in increasing t.

    Returns the pieces (l, count at l, h, count at h, indices) that hold
    an index: each index k of ks (ascending) goes to the first piece whose
    upper count reaches k, as one bisection step per index would place it.
    """
    pieces = []
    i = 1
    for k in ks:
        while i < len(points) - 1 and points[i][1] < k:
            i += 1
        if pieces and pieces[-1][2] == points[i][0]:
            pieces[-1][4].append(k)
        else:
            pieces.append((*points[i - 1], *points[i], [k]))
    return pieces


def resolve_shift(disc: PencilDiscretization, reference_shift: float | None = None) -> float:
    """Validate or find a shift xi with A - xi B positive definite."""
    if reference_shift is not None:
        ((neg, _, min_rel),) = disc._sweeps([reference_shift])
        if neg > 0 or min_rel <= 1e-15:
            raise IndefinitePencilError(
                f"A - xi B not positive definite at xi = {reference_shift}"
            )
        return float(reference_shift)
    xi = positivity_scan(disc, default_shift_grid())
    if xi is None:
        raise IndefinitePencilError("no positive definite shift found on the default grid")
    return xi


def _endpoint(lam: float, zt: float) -> float:
    """The end of the interval counted at lam other than the band edge -zt.

    lam widened by the relative nudge, and never inside the zero band:
    N+ counts the whole band from lam = 0 on, N- none of it.
    """
    if lam >= 0.0:
        return max(lam + _NUDGE_REL * lam, zt)
    return min(lam + _NUDGE_REL * lam, -zt)


def _from_edge(disc: PencilDiscretization, xi: float, ends) -> list[tuple[int, int]]:
    """(eigenvalues between the band edge -zt and end, near-zero pivots) per end.

    Sweeps -zt and every end in one call.  The negatives at x count the
    eigenvalues between xi and x; taken + above xi and - below it, the
    negatives at two points differ by the eigenvalues between them.  The
    near-zero pivots are those at -zt and at the end together.
    """
    edge = -zero_tolerance(disc)
    (neg_edge, near_edge, _), *swept = disc._sweeps([edge, *ends])
    signed_edge = neg_edge if edge >= xi else -neg_edge
    out = []
    for end, (neg, near, _) in zip(ends, swept):
        n = (neg if end >= xi else -neg) - signed_edge
        out.append((n if end >= edge else -n, near_edge + near))
    return out


def counting_function(
    disc: PencilDiscretization, lams, reference_shift: float | None = None
) -> list[CountingResult]:
    """Counts over a grid, one sweep per interval end the pencil has not seen.

    N+(lam) counts the eigenvalues in (-zt, lam] and N-(lam) those in
    [lam, -zt), lam widened by a relative nudge; an end inside the zero
    band moves to its edge, so N+ counts the whole band from lam = 0 on
    and N- none of it.  Eigenvalue searches count the same intervals
    without the nudge, so the band decides only which eigenvalues are 0,
    and the counts agree with eigenvalue(s).
    """
    xi = resolve_shift(disc, reference_shift)
    zt = zero_tolerance(disc)
    lams = [float(x) for x in lams]
    counted = _from_edge(disc, xi, [_endpoint(lam, zt) for lam in lams])
    return [
        CountingResult(lam, n, 0, xi, near) if lam >= 0.0 else CountingResult(lam, 0, n, xi, near)
        for lam, (n, near) in zip(lams, counted)
    ]


def count(
    disc: PencilDiscretization, lam: float, reference_shift: float | None = None
) -> CountingResult:
    """Counting function at lam by Sylvester inertia.

    N+ includes an eigenvalue at 0 and one exactly at lam (resolved by
    a relative nudge); N- covers [lam, 0) for negative lam.
    """
    return counting_function(disc, [lam], reference_shift)[0]


def eigenvalue(
    disc: PencilDiscretization,
    n: int,
    side: int = 1,
    reference_shift: float | None = None,
    rtol: float = 1e-10,
) -> float:
    """n-th eigenvalue (n >= 1) on the given side of 0, within rtol."""
    return _eigenvalues(disc, resolve_shift(disc, reference_shift), [n], side, rtol)[0]


def eigenvalues(
    disc: PencilDiscretization,
    how_many: int,
    side: int = 1,
    reference_shift: float | None = None,
    rtol: float = 1e-10,
) -> list[float]:
    """The first how_many eigenvalues on the given side of 0, within rtol."""
    xi = resolve_shift(disc, reference_shift)
    return _eigenvalues(disc, xi, range(1, how_many + 1), side, rtol)


def eigenvalues_below(
    disc: PencilDiscretization,
    lam_max: float,
    side: int = 1,
    reference_shift: float | None = None,
    rtol: float = 1e-10,
) -> list[float]:
    """Every eigenvalue that count(side * |lam_max|) counts, in order.

    The count at that end also brackets them all, so no bracket search
    runs; the pencil shares its sweep with count() at the same bound.
    """
    xi = resolve_shift(disc, reference_shift)
    start = _endpoint(abs(lam_max), zero_tolerance(disc))
    return _eigenvalues(disc, xi, None, side, rtol, start=start)


def _eigenvalues(
    disc: PencilDiscretization, xi: float, indices, side: int, rtol: float, start: float = 1.0
) -> list[float]:
    """Eigenvalues of the given indices (every index counted at start if None).

    Works in t = side * lam on the raw count c(t): the eigenvalues
    strictly between the band edge -zt and side * t, with no widening.
    An index k with c(zt) >= k lies in the zero band and is 0.  The
    rest share one bracket, probed x8 upward from start until it holds
    the largest index, and every probe cuts it.  Then each round sweeps,
    in one batched call, the midpoints of every interval that still
    holds a wanted index and is wider than rtol * h + 1e-14; a narrower
    interval, or one with no float left inside, reports its midpoint.
    An interval (l, h) that holds exactly one eigenvalue, a wanted one,
    is polished once by Rayleigh-quotient inverse iteration to s,
    unless rtol * l is below the rounding floor eps * |A| / |B|, where
    no certificate can hold.  s is reported only if it lies in (l, h)
    and the counts at s (1 -+ rtol), swept in the round's call, put the
    index between them.  Otherwise the window around s widens x100 per
    round until it brackets the index, and bisection goes on inside it.
    """
    if side not in (1, -1):
        raise InvalidParametersError("side must be +1 or -1")
    wanted = None if indices is None else sorted(set(indices))
    if wanted is not None:
        if not wanted:
            return []
        if wanted[0] < 1:
            raise InvalidParametersError("eigenvalue index starts at 1")

    def counts(ts) -> dict[float, int]:
        counted = _from_edge(disc, xi, [side * t for t in ts])
        return {t: n for t, (n, _) in zip(ts, counted)}

    lo = zero_tolerance(disc)
    # nothing lies between -zt and the band edge: no sweep at zt on side -1
    first = counts([lo, start]) if side > 0 else {lo: 0, **counts([start])}
    if wanted is None:
        wanted = list(range(1, first[start] + 1))
    found = dict.fromkeys([k for k in wanted if k <= first[lo]], 0.0)
    rest = [k for k in wanted if k > first[lo]]
    points = [(lo, first[lo])]
    hi, c_hi = start, first[start]
    while rest and (hi <= lo or c_hi < rest[-1]):
        if hi > lo:
            points.append((hi, c_hi))
        hi *= 8.0
        if hi > _MAX_LAMBDA:
            raise EigenvalueNotFoundError(
                f"no eigenvalue #{rest[-1]} on side {side:+d} below {_MAX_LAMBDA}"
            )
        c_hi = counts([hi])[hi]
    points.append((hi, c_hi))

    # intervals (l, c(l), h, c(h), indices, probe); a probe (s, step)
    # cuts at s + step for an index whose certificate at s failed
    active = [(*piece, None) for piece in _split(points, rest)]
    floor = np.finfo(float).eps * disc._norm_ratio
    x0 = None
    polished = set()
    while active:
        plans = []
        for l, c_l, h, c_h, ks, probe in active:
            mid = 0.5 * (l + h)
            # done when narrow enough, or when no float lies between l and h
            if h - l <= rtol * h + 1e-14 or not l < mid < h:
                found.update(dict.fromkeys(ks, mid))
                continue
            s = None
            if len(ks) == 1 and c_h - c_l == 1 and ks[0] not in polished and rtol * l >= floor:
                polished.add(ks[0])
                if x0 is None:
                    x0 = np.random.default_rng(0).standard_normal((disc.n_free, 1))
                s = _polish(disc, *sorted((side * l, side * h)), rtol, x0)
                s = None if s is None else side * s
            if s is not None:
                cut = [t for t in (s * (1.0 - rtol), s * (1.0 + rtol)) if l < t < h]
            elif probe is not None and l < probe[0] + probe[1] < h:
                cut = [probe[0] + probe[1]]
            else:
                cut = [mid]
            plans.append((l, c_l, h, c_h, ks, probe, s, cut))
        swept = counts([t for plan in plans for t in plan[-1]])
        active = []
        for l, c_l, h, c_h, ks, probe, s, cut in plans:
            pts = [(l, c_l)] + [(t, swept[t]) for t in cut] + [(h, c_h)]
            for a, c_a, b, c_b, sub in _split(pts, ks):
                if s is not None:
                    if s * (1.0 - rtol) <= a and b <= s * (1.0 + rtol):
                        found[sub[0]] = s
                        continue
                    step = _WIDEN * rtol * s
                    probe = (s, step if a >= s else -step)
                elif probe is not None and cut[0] == probe[0] + probe[1]:
                    if (a >= cut[0]) if probe[1] > 0 else (b <= cut[0]):
                        # the window does not reach the eigenvalue yet
                        probe = (probe[0], _WIDEN * probe[1])
                active.append((a, c_a, b, c_b, sub, probe))
    return [side * found[k] for k in (wanted if indices is None else indices)]


def _polish(
    disc: PencilDiscretization, lo: float, hi: float, rtol: float, x0: np.ndarray
) -> float | None:
    """Rayleigh-quotient inverse iteration for the one eigenvalue in (lo, hi).

    Starts from x0 with the shift at the midpoint.  Returns the
    quotient once it moves by at most rtol / 100 relative, or after
    _POLISH_SOLVES solves; None when a quotient leaves (lo, hi).
    """
    band_a, band_b = _banded(disc.a_diag, disc.a_off), _banded(disc.b_diag, disc.b_off)
    x, shift, rho = x0, 0.5 * (lo + hi), None
    for _ in range(_POLISH_SOLVES):
        try:
            y = solve_banded((1, 1), band_a - shift * band_b, _tri_apply(band_b, x))
        except np.linalg.LinAlgError:
            return shift  # A - shift B is singular: shift is an eigenvalue
        x = y / np.linalg.norm(y)
        new = float((x * _tri_apply(band_a, x)).sum() / (x * _tri_apply(band_b, x)).sum())
        if not lo < new < hi:
            return None
        if rho is not None and abs(new - rho) <= 0.01 * rtol * abs(new):
            return new
        shift = rho = new
    return rho


def spectral_dimension(d, dprime) -> float:
    """Unique D > 0 with sum_i (d_i |d'_i|)^D = 1.

    Needs at least two nonzero products, all < 1; with exactly one the
    regime is geometric and GeometricRegimeError points the caller to
    geometric_asymptotics.
    """
    products = [di * abs(dpi) for di, dpi in zip(d, dprime)]
    nz = [p for p in products if p > 0.0]
    if any(p >= 1.0 for p in nz):
        raise InvalidParametersError("scaling products must be < 1")
    if len(nz) == 0:
        raise InvalidParametersError("all scaling products vanish")
    if len(nz) == 1:
        raise GeometricRegimeError(
            "single nonzero scaling product: spectrum is a geometric ladder, "
            "use geometric_asymptotics"
        )
    logs = np.log(nz)

    def f(dim: float) -> float:
        return np.exp(dim * logs).sum() - 1.0

    hi = 1.0
    while f(hi) > 0.0:
        hi *= 2.0
        if hi > 1e6:
            raise InvalidParametersError("dimension bracket exhausted")
    dim = brentq(f, 1e-16, hi, xtol=1e-15, rtol=8.9e-16)
    if abs(f(dim)) > 1e-12:
        raise InvalidParametersError("dimension solve failed its residual check")
    return float(dim)


def _real_gcd(values, tol: float) -> float | None:
    scale = max(values)
    thresh = tol * scale
    g = 0.0
    for v in values:
        a, b = g, v
        while b > thresh:
            a, b = b, math.fmod(a, b)
        g = a
    if g <= thresh:
        return None
    ks = [round(v / g) for v in values]
    if any(k > 1e6 or k < 1 for k in ks):
        return None
    if any(abs(v - k * g) > 10.0 * thresh for v, k in zip(values, ks)):
        return None
    # least-squares refinement of the common divisor
    g = sum(v * k for v, k in zip(values, ks)) / sum(k * k for k in ks)
    return g


def period_and_case(d, dprime, tol: float = 1e-9):
    """Log-period nu of the scaling lengths and the asymptotic case tag.

    Lengths are L_i = -ln(d_i |d'_i|) over nonzero products.  Returns
    (nu, tag) with nu = None and tag 'nonarithmetic-constant' when the
    lengths are incommensurable (the counting profile then tends to a
    constant).  Commensurable cases split by the parity pattern of
    k_i = L_i / nu against the signs of d'_i: 'periodic-odd' when some
    positive d'_i has odd k_i or some negative d'_i has even k_i,
    otherwise 'antiperiodic' (profiles shift by nu between the two
    spectral sides).
    """
    pairs = [(di * abs(dpi), dpi) for di, dpi in zip(d, dprime) if di * abs(dpi) > 0.0]
    if len(pairs) == 0:
        raise InvalidParametersError("all scaling products vanish")
    if len(pairs) == 1:
        raise GeometricRegimeError("single nonzero scaling product: geometric regime")
    if any(p >= 1.0 for p, _ in pairs):
        raise InvalidParametersError("scaling products must be < 1")
    lengths = [-math.log(p) for p, _ in pairs]
    nu = _real_gcd(lengths, tol)
    if nu is None:
        return None, "nonarithmetic-constant"
    ks = [round(length / nu) for length in lengths]
    for (_, sign), k in zip(pairs, ks):
        if (sign > 0 and k % 2 == 1) or (sign < 0 and k % 2 == 0):
            return nu, "periodic-odd"
    return nu, "antiperiodic"


@dataclass(frozen=True)
class AsymptoticsReport:
    """Power-law counting report N±(lam) / lam^D over a lambda grid."""

    dimension: float
    period: float | None
    case_tag: str
    lambdas: np.ndarray
    n_plus: np.ndarray
    n_minus: np.ndarray
    ratio_plus: np.ndarray
    ratio_minus: np.ndarray
    ratio_band: tuple[float, float]
    periodicity_defect: float | None

    def to_json(self) -> dict:
        return {
            "dimension": self.dimension,
            "period": self.period,
            "case_tag": self.case_tag,
            "lambdas": self.lambdas.tolist(),
            "n_plus": self.n_plus.tolist(),
            "n_minus": self.n_minus.tolist(),
            "ratio_plus": self.ratio_plus.tolist(),
            "ratio_minus": self.ratio_minus.tolist(),
            "ratio_band": list(self.ratio_band),
            "periodicity_defect": self.periodicity_defect,
        }


def asymptotics_report(
    disc: PencilDiscretization,
    d,
    dprime,
    lambdas,
    reference_shift: float | None = None,
) -> AsymptoticsReport:
    """Sample N±(lam)/lam^D on a (positive) lambda grid.

    The band (min, max) of the positive-side ratio is taken over the
    top decade of the grid.  When the lengths are commensurable the
    report also measures the log-periodicity defect: the largest
    change of the profile under one period shift (two periods in the
    antiperiodic case, where one shift maps N+ to N- instead).
    """
    xi = resolve_shift(disc, reference_shift)
    dim = spectral_dimension(d, dprime)
    nu, tag = period_and_case(d, dprime)
    lambdas = np.asarray(sorted(float(x) for x in lambdas))
    if np.any(lambdas <= 0.0):
        raise InvalidParametersError("lambda grid must be positive")
    n_plus = np.array([r.n_plus for r in counting_function(disc, lambdas, xi)], dtype=float)
    if any(dp < 0.0 for dp in dprime):
        res_minus = counting_function(disc, -lambdas, xi)
        n_minus = np.array([r.n_minus for r in res_minus], dtype=float)
    else:
        n_minus = np.zeros_like(n_plus)
    ratio_plus = n_plus / lambdas**dim
    ratio_minus = n_minus / lambdas**dim

    top = lambdas >= lambdas[-1] / 10.0
    band = (float(ratio_plus[top].min()), float(ratio_plus[top].max()))

    defect = None
    if nu is not None:
        shift = math.exp(nu) if tag != "antiperiodic" else math.exp(2.0 * nu)
        here = (lambdas >= lambdas[-1] / 100.0) & (
            lambdas * shift <= lambdas[-1] * (1.0 + 1e-12)
        )
        base = lambdas[here]
        if base.size:
            there = counting_function(disc, base * shift, xi)
            rho_here = n_plus[here] / base**dim
            rho_there = np.array([r.n_plus for r in there]) / (base * shift) ** dim
            defect = float(np.max(np.abs(rho_here - rho_there)))
    return AsymptoticsReport(
        dimension=dim,
        period=nu,
        case_tag=tag,
        lambdas=lambdas,
        n_plus=n_plus.astype(int),
        n_minus=n_minus.astype(int),
        ratio_plus=ratio_plus,
        ratio_minus=ratio_minus,
        ratio_band=band,
        periodicity_defect=defect,
    )


def ladder_counts(params: SelfSimilarParams) -> tuple[int, int]:
    """(positive, negative) jump counts of P over one substitution period.

    A negative scaling product maps the spectrum onto the other side and
    back, so its period covers two levels of junction atoms.
    """
    negative = any(a * dp < 0.0 for a, dp in zip(params.a, params.dprime))
    jumps = jump_atoms(params, depth=2 if negative else 1)
    z_plus = sum(1 for _, j in jumps if j > 0.0)
    z_minus = sum(1 for _, j in jumps if j < 0.0)
    return z_plus, z_minus


@dataclass(frozen=True)
class GeometricLadder:
    side: int
    offset: int
    eigenvalues: tuple[float, ...]
    ratios: tuple[float, ...]


@dataclass(frozen=True)
class GeometricReport:
    """Eigenvalue ladders in the single-product (geometric) regime."""

    product: float
    ratio_target: float
    interleave_target: float | None
    ladders: tuple[GeometricLadder, ...]

    def to_json(self) -> dict:
        return {
            "product": self.product,
            "ratio_target": self.ratio_target,
            "interleave_target": self.interleave_target,
            "ladders": [
                {
                    "side": l.side,
                    "offset": l.offset,
                    "eigenvalues": list(l.eigenvalues),
                    "ratios": list(l.ratios),
                }
                for l in self.ladders
            ],
        }


def geometric_asymptotics(
    disc: PencilDiscretization,
    product: float,
    k_max: int,
    z_plus: int,
    z_minus: int = 0,
    reference_shift: float | None = None,
) -> GeometricReport:
    """Successive-ratio diagnostics for the geometric regime.

    With one nonzero scaling product d_m d'_m, eigenvalues split into
    Z-periodic ladders.  A positive product keeps each side Z+- (resp.
    Z-)-periodic with ratio (d_m d'_m)^{-1}.  A negative product maps
    each side onto the other and back, so a side repeats only after
    two substitutions: every Z+-th positive (Z--th negative)
    eigenvalue grows by (d_m d'_m)^{-2}, and the two sides interleave
    with one factor |d_m d'_m|^{-1}.
    """
    xi = resolve_shift(disc, reference_shift)
    if product == 0.0 or abs(product) >= 1.0:
        raise InvalidParametersError("scaling product must satisfy 0 < |product| < 1")
    if k_max < 1:
        raise InvalidParametersError("k_max must be >= 1")
    if product > 0.0:
        target = 1.0 / product
        interleave = None
    else:
        target = 1.0 / product**2
        interleave = 1.0 / abs(product)

    ladders = []
    for side, period in ((1, z_plus), (-1, z_minus)):
        if period <= 0:
            continue
        needed = period * (k_max + 1)
        eigs = eigenvalues(disc, needed, side, xi)
        for offset in range(1, period + 1):
            rungs = [eigs[idx] for idx in range(offset - 1, needed, period)]
            ratios = tuple(
                rungs[j + 1] / rungs[j] for j in range(len(rungs) - 1) if rungs[j] != 0.0
            )
            ladders.append(GeometricLadder(side, offset, tuple(rungs), ratios))
    return GeometricReport(product, target, interleave, tuple(ladders))


@dataclass(frozen=True)
class SplittingCheck:
    """One evaluation of N(lam) against sum_i N(d_i d'_i lam)."""

    lam: float
    lhs: int
    rhs_terms: tuple[int, ...]
    holds: bool

    @property
    def rhs(self) -> int:
        return sum(self.rhs_terms)


def splitting_inequality(
    r_base: MonotonePrimitive,
    p: SelfSimilarParams,
    k: int,
    lam: float,
    depth: int,
    bc: BoundaryCondition | None = None,
    reference_shift: float | None = None,
) -> SplittingCheck:
    """Check N(lam) <= sum_i N(d_i d'_i lam) on a substitution-iterate string.

    The string has r = dR with R the k-th iterate of the monotone
    substitution (identity seed) and p = dP, under Neumann conditions.
    The almost-self-similar decomposition of R assigns d_i = a_i on
    cells where R keeps moving and d_i = 0 on its plateau cells (for
    k = 0, R is the identity and d_i = a_i everywhere).  The check
    evaluates both sides of the claimed inequality on the same string;
    a false result at some lam refutes the general claim.
    """
    if bc is None:
        bc = BoundaryCondition.neumann()
    if bc.left is None or bc.right is None or bc.left != 0.0 or bc.right != 0.0:
        raise InvalidParametersError("the splitting check is stated for Neumann conditions")
    if lam < 0.0:
        raise InvalidParametersError("lam must be nonnegative")
    if any(dp < 0.0 for dp in p.dprime):
        raise InvalidParametersError("the splitting check needs a nondecreasing P")
    disc = assemble_iterated_pair(r_base, k, p, bc, depth)
    rp = r_base.params
    if k == 0:
        d = list(rp.a)
    else:
        d = [a if dp != 0.0 else 0.0 for a, dp in zip(rp.a, rp.dprime)]
    args = [lam] + [d[i] * p.dprime[i] * lam for i in range(p.n)]
    lhs, *terms = (r.n_plus for r in counting_function(disc, args, reference_shift))
    return SplittingCheck(float(lam), lhs, tuple(terms), lhs <= sum(terms))


def write_counting_csv(fileobj, results, dimension: float) -> None:
    """CSV rows lambda,n_plus,n_minus,ratio_plus,ratio_minus,ln_lambda."""
    fileobj.write("lambda,n_plus,n_minus,ratio_plus,ratio_minus,ln_lambda\n")
    for r in results:
        mag = abs(r.lam)
        if mag == 0.0:
            rp = rm = float("nan")
            ln = float("-inf")
        else:
            rp = r.n_plus / mag**dimension
            rm = r.n_minus / mag**dimension
            ln = math.log(mag)
        fileobj.write(
            f"{r.lam:.12g},{r.n_plus},{r.n_minus},{rp:.12g},{rm:.12g},{ln:.12g}\n"
        )
