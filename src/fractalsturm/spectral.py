"""Eigenvalue counting and spectral asymptotics for tridiagonal pencils.

Counting is inertia based: with a reference shift xi where A - xi B is
positive definite, the number of pencil eigenvalues between xi and lam
equals the number of negative LDL^T pivots of A - lam B, so no
eigenvalue is ever missed or doubled.  Each query costs one tridiagonal
sweep, or on a pair-route pencil one pass of the level recursion over
its template (see _kernels).
That inertia depends only on the pencil and lam, so the pencil remembers
it: each query resolves its shift and the zero band's edge from that
memo, and a lam that any count, shift check or eigenvalue search has
already swept on a pencil costs no sweep again.
On top of that sit eigenvalues by multisection on the same counts, with
each isolated eigenvalue refined (by Newton steps on det(A - lam B)
through the level recursion on a pair-route pencil, by Rayleigh-quotient
inverse iteration on the stored arrays otherwise) and certified by two
counts, power-law counting reports (dimension,
log-period, case classification), the geometric-progression regime, and
the splitting-inequality check N(lam) <= sum_i N(d_i d'_i lam) together
with its refutation data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .assembly import (
    BoundaryCondition,
    PencilDiscretization,
    _tri_mul,
    _tri_solve,
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
# a template pencil's Newton iteration gives up on an index after this many steps
_NEWTON_STEPS = 12
_NAN = float("nan")
# the Newton state of an index not yet stepped: no point, no steps, no evaluations
_FRESH = (_NAN, 0.0, 0.0, 0)
# a failed certificate widens its window around the refined value by
# this factor per round until the window brackets the eigenvalue
_WIDEN = 100.0
# spectral_dimension refuses a root above this bound
_MAX_DIMENSION = 2.0**19


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

    Eigenvalues inside the band count as 0; every count and eigenvalue
    search on the pencil uses it.  On a pencil read from its arrays,
    floating-point assembly perturbs an exact zero eigenvalue (e.g. the
    Neumann constant mode 1) by roughly eps * |A| / |B|, and the band is
    the heuristic 1e-12 * |A| / |B| in the largest-entry norm or in the
    entrywise 1-norm, whichever is smaller.  The 1-norm ratio bounds how
    far rounding moves the constant mode, 1^T dA 1 / 1^T B 1; on a
    graded mesh the largest-entry ratio exceeds it by the grading and
    took resolved eigenvalues for 0.  A pair-route pencil is counted
    from its level template, which keeps an exact zero mode exact: its
    band is the tiny one in which the deepest cells' spectral parameter
    stays a normal float (LevelTemplate.zero_band), and reading it
    builds no arrays.
    """
    if disc._levels is not None:
        return disc._levels.zero_band
    return 1e-12 * min(disc._norm_ratio, disc._sum_ratio)


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
    between the band edge -zt, excluded, and side * t, included (the
    kernels count an exact zero pivot as negative), with no widening.
    An index k with c(zt) >= k lies in the zero band and is 0.  The
    rest share one bracket, probed x8 upward from start until it holds
    the largest index, and every probe cuts it.  Then each round sweeps,
    in one batched call, the midpoints of every interval that still
    holds a wanted index and is wider than rtol * l + 1e-14; a narrower
    interval, or one with no float left inside, reports its midpoint,
    which lies within rtol / 2 of the eigenvalue (plus 5e-15).  rtol must
    be finite with 0 <= rtol < 1; 0 bisects to the last float.

    An interval (l, h) that holds exactly one eigenvalue, a wanted one,
    is refined to a value s:
    - On a pencil with a level template, by Newton's method on det(A -
      lam B): each round evaluates, in one batched call before the
      counts, the recursion with its derivative (disc._slopes) at the
      index's last Newton point, or at the midpoint when it has none
      inside (l, h), and steps t <- t - 1 / (log |det|)'.  The record
      of that evaluation goes into the pencil's memo, so the point also
      cuts (l, h).  The next point is taken as s once its step is at
      most rtol / 2 relative, or once quadratic convergence, read off
      the last two steps (error ~ step^3 / last^2), puts its error below
      rtol / 100.  An index gives up Newton after _NEWTON_STEPS
      evaluations and is bisected.  No array is read: this path takes
      no rounding floor, and no start vector.
    - On a pencil of arrays alone, by Rayleigh-quotient inverse iteration
      (see _polish; every polish starts from the same seeded random
      vector), unless rtol * l is below the rounding floor eps * |A| /
      |B|, where no certificate can hold.  A polish that returns no
      value (its quotients ended outside (l, h), drawn to a neighbour
      that dominates the start vector) is tried again in the next round
      that finds the index alone, on an interval at most half as wide,
      since the round bisected it.
    s is reported only if counts at points within s (1 -+ rtol), swept
    in the round's call, put the index between them: those at s (1 -+
    rtol), of which the last Newton point, when it lies inside that
    window on its side of the eigenvalue, replaces one.  Otherwise the
    index is never refined again: the window around s widens x100 per
    round until it brackets the index, and bisection goes on inside it.
    """
    if side not in (1, -1):
        raise InvalidParametersError("side must be +1 or -1")
    if not 0.0 <= rtol < 1.0:
        raise InvalidParametersError(f"rtol must be finite, >= 0 and < 1, got {rtol}")
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
    template = disc._levels is not None
    x0 = None
    refined = set()
    # on a template pencil, per index: the next Newton point, the step
    # that gave it, the step before, and the Newton evaluations spent
    newton = {}
    while active:
        # the Newton points of the isolated indices, evaluated with their
        # slopes in one call before the round's counts, which read them
        points = {}
        for l, c_l, h, c_h, ks, probe in active if template else ():
            mid = 0.5 * (l + h)
            if (len(ks) == 1 and c_h - c_l == 1 and ks[0] not in refined
                    and newton.get(ks[0], _FRESH)[3] < _NEWTON_STEPS
                    and h - l > rtol * l + 1e-14 and l < mid < h):
                t = newton.get(ks[0], _FRESH)[0]
                points[ks[0]] = t if l < t < h else mid
        if points:
            for (k, t), slope in zip(points.items(), disc._slopes([side * t for t in points.values()])):
                nxt = t - side / slope if slope != 0.0 else _NAN
                _, last, _, tries = newton.get(k, _FRESH)
                newton[k] = (nxt, abs(nxt - t), last, tries + 1)
        plans = []
        for l, c_l, h, c_h, ks, probe in active:
            mid = 0.5 * (l + h)
            # done when narrow enough, or when no float lies between l and h
            if h - l <= rtol * l + 1e-14 or not l < mid < h:
                found.update(dict.fromkeys(ks, mid))
                continue
            s, cut = None, []
            if ks[0] in points:
                cut = [points[ks[0]]]
                nxt, step, last, _ = newton[ks[0]]
                # converged: the step, or the error that quadratic convergence
                # predicts for nxt from the last two steps, is well within rtol
                if l < nxt < h and (step <= 0.5 * rtol * nxt or (
                        step < 0.1 * last and step * (step / last) ** 2 <= 0.01 * rtol * nxt)):
                    refined.add(ks[0])
                    s = nxt
            elif (not template and len(ks) == 1 and c_h - c_l == 1 and ks[0] not in refined
                    and rtol * l >= np.finfo(float).eps * disc._norm_ratio):
                if x0 is None:
                    x0 = np.random.default_rng(0).standard_normal(disc.n_free)
                s = _polish(disc, *sorted((side * l, side * h)), rtol, x0)
                if s is not None:
                    refined.add(ks[0])
                    s = side * s
            if s is not None:
                bounds = [s * (1.0 - rtol), s * (1.0 + rtol)]
                if cut:
                    # the Newton point bounds the eigenvalue from its side
                    below = counts(cut)[cut[0]] < ks[0]
                    if (cut[0] >= bounds[0]) if below else (cut[0] <= bounds[1]):
                        bounds.pop(0 if below else 1)
                cut = sorted({*cut, *(t for t in bounds if l < t < h)})
            elif not cut:
                probed = probe is not None and l < probe[0] + probe[1] < h
                cut = [probe[0] + probe[1]] if probed else [mid]
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

    Starts from the 1-D vector x0 with the shift at the midpoint.  Each
    step is one LAPACK dgtsv solve (_tri_solve) of (A - shift B) y = B x
    on the pencil's arrays, x the last y scaled to unit length.  Since
    y^T (A - shift B) y = y^T B x, the Rayleigh quotient of y is
    shift + y^T B x / y^T B y, and B y / |y| is the next right hand
    side, so no step multiplies by A.  A quotient in (lo, hi) becomes
    the shift; one outside leaves the shift where it was, and inverse
    iteration goes on from y.  The tolerance is rtol / 100 relative or
    eps |A| / |B|, the rounding the stored arrays carry, below which
    successive quotients wander.  Returns a quotient rho in (lo, hi)
    once its Kato-Temple bound eps2 / min(rho - lo, hi - rho) is within
    it, where eps2 = (x^T B x y^T B y - (y^T B x)^2) / (y^T B y)^2 is
    |(A - rho B) y|^2 in the B^-1 norm over y^T B y, and (lo, hi) holds
    no other eigenvalue (T. Kato, J. Phys. Soc. Japan 4, 1949); the
    bound needs B >= 0, so a pencil with an indefinite B skips it.
    Otherwise returns a quotient once it and the one before it lie in
    (lo, hi) and differ by at most the tolerance; or the last quotient
    after _POLISH_SOLVES solves if it lies in (lo, hi), else None; the
    shift when A - shift B is exactly singular (an exact zero pivot,
    dgtsv's info > 0).
    """
    floor = np.finfo(float).eps * disc._norm_ratio
    kato_temple = disc._b_semidefinite
    shift, rho = 0.5 * (lo + hi), None
    bx = _tri_mul(disc.b_diag, disc.b_off, x0)
    xbx = float(x0 @ bx)
    for _ in range(_POLISH_SOLVES):
        y = _tri_solve(disc.a_diag - shift * disc.b_diag, disc.a_off - shift * disc.b_off, bx)
        if y is None:
            return shift  # A - shift B is singular: shift is an eigenvalue
        by = _tri_mul(disc.b_diag, disc.b_off, y)
        ybx, yby, norm = float(y @ bx), float(y @ by), math.sqrt(y @ y)
        new = shift + ybx / yby
        eps2 = (xbx * yby - ybx * ybx) / (yby * yby)
        bx, xbx = by / norm, yby / (norm * norm)
        if not lo < new < hi:
            rho = None  # the shift stays at its last value inside (lo, hi)
            continue
        tol = max(0.01 * rtol * abs(new), floor)
        if kato_temple and eps2 / min(new - lo, hi - new) <= tol:
            return new
        if rho is not None and abs(new - rho) <= tol:
            return new
        shift = rho = new
    return rho


def spectral_dimension(d, dprime) -> float:
    """Unique D > 0 with sum_i (d_i |d'_i|)^D = 1.

    Needs at least two nonzero products, all < 1; with exactly one the
    regime is geometric and GeometricRegimeError points the caller to
    geometric_asymptotics.  A root above 2^19 raises
    InvalidParametersError.

    The root is found by Newton's method on f(D) = sum_i exp(D ln p_i) - 1.
    Every ln p_i < 0, so f is strictly decreasing and convex with
    f(0) = m - 1 > 0: started at D = 0, each Newton step lands at or below
    the root, and the iterates climb to it without overshooting.  The
    iteration stops at the first iterate that no longer increases, which
    in floating point happens within a few ulps of the root, and the
    result must still pass a residual check |f(D)| <= 1e-12.  f is
    evaluated as sum_{i != k} p_i^D + expm1(D ln p_k), p_k the largest
    product: a product within ~1e-15 of 1 gives p_k^D close to 1, and
    subtracting 1 from it would keep only a few digits of f.
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
    logs = [math.log(p) for p in nz]
    top = logs.index(max(logs))
    dim = 0.0
    while True:
        terms = [math.exp(dim * lg) for lg in logs]
        residual = sum(terms[:top] + terms[top + 1:]) + math.expm1(dim * logs[top])
        nxt = dim + residual / -sum(lg * t for lg, t in zip(logs, terms))
        if not nxt > dim:
            break
        if nxt > _MAX_DIMENSION:
            # every iterate is a lower bound on the root
            raise InvalidParametersError("dimension bracket exhausted")
        dim = nxt
    if abs(residual) > 1e-12:
        raise InvalidParametersError("dimension solve failed its residual check")
    return dim


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
    jumps = jump_atoms(params, depth=2 if negative else 1)[:, 1]
    return int(np.count_nonzero(jumps > 0.0)), int(np.count_nonzero(jumps < 0.0))


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

    @property
    def rhs(self) -> int:
        return sum(self.rhs_terms)

    @property
    def holds(self) -> bool:
        return self.lhs <= self.rhs


def splitting_inequality(
    r_base: MonotonePrimitive,
    p: SelfSimilarParams,
    k: int,
    lam: float,
    depth: int,
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
    return _splitting_checks(r_base, p, k, [lam], depth, reference_shift)[0]


def _splitting_checks(
    r_base: MonotonePrimitive,
    p: SelfSimilarParams,
    k: int,
    lams,
    depth: int,
    reference_shift: float | None = None,
) -> list[SplittingCheck]:
    """splitting_inequality at each lam, on one pencil: one assembly, one shift
    and one counting_function call for every lam and every d_i d'_i lam."""
    lams = [float(lam) for lam in lams]
    if any(lam < 0.0 for lam in lams):
        raise InvalidParametersError("lam must be nonnegative")
    if any(dp < 0.0 for dp in p.dprime):
        raise InvalidParametersError("the splitting check needs a nondecreasing P")
    disc = assemble_iterated_pair(r_base, k, p, BoundaryCondition.neumann(), depth)
    rp = r_base.params
    if k == 0:
        d = list(rp.a)
    else:
        d = [a if dp != 0.0 else 0.0 for a, dp in zip(rp.a, rp.dprime)]
    args = [x for lam in lams for x in [lam] + [d[i] * p.dprime[i] * lam for i in range(p.n)]]
    counts = (r.n_plus for r in counting_function(disc, args, reference_shift))
    # each lam's counts: N(lam), then its p.n terms
    rows = zip(*[counts] * (p.n + 1))
    return [SplittingCheck(lam, lhs, tuple(terms)) for lam, (lhs, *terms) in zip(lams, rows)]


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
