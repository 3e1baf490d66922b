"""Eigenvalue counting and spectral asymptotics for tridiagonal pencils.

Counting is inertia based: with a reference shift xi where A - xi B is
positive definite, the number of pencil eigenvalues between xi and lam
equals the number of negative LDL^T pivots of A - lam B, so each query
costs one tridiagonal sweep and no eigenvalue is ever missed or doubled.
On top of that sit bisection for individual eigenvalues, power-law
counting reports (dimension, log-period, case classification), the
geometric-progression regime, and the splitting-inequality check
N(lam) <= sum_i N(d_i d'_i lam) together with its refutation data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from ._kernels import min_pivot_ratio, negative_pivot_count, negative_pivot_counts
from .assembly import (
    BoundaryCondition,
    PencilDiscretization,
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


def inertia(disc: PencilDiscretization, lam: float, near_tol: float = 1e-12) -> tuple[int, int]:
    """(negative, near-zero) pivot counts of A - lam B."""
    return negative_pivot_count(
        disc.a_diag, disc.a_off, disc.b_diag, disc.b_off, lam, near_tol
    )


def zero_tolerance(disc: PencilDiscretization) -> float:
    """Width of the band around 0 identified with the zero eigenvalue.

    Floating-point assembly perturbs an exact zero eigenvalue (e.g. the
    Neumann constant mode) by roughly eps * |A| / |B| in pencil units;
    eigenvalues inside the band count as 0.  Heuristic, overridable in
    count()/SpectralContext.
    """
    norm_a = max(np.max(np.abs(disc.a_diag), initial=0.0), np.max(np.abs(disc.a_off), initial=0.0))
    norm_b = max(np.max(np.abs(disc.b_diag), initial=0.0), np.max(np.abs(disc.b_off), initial=0.0))
    if norm_b == 0.0:
        raise InvalidParametersError("zero weight matrix")
    return 1e-12 * norm_a / norm_b


def resolve_shift(disc: PencilDiscretization, reference_shift: float | None = None) -> float:
    """Validate or find a shift xi with A - xi B positive definite."""
    if reference_shift is not None:
        neg, min_rel = min_pivot_ratio(
            disc.a_diag, disc.a_off, disc.b_diag, disc.b_off, float(reference_shift)
        )
        if neg > 0 or min_rel <= 1e-15:
            raise IndefinitePencilError(
                f"A - xi B not positive definite at xi = {reference_shift}"
            )
        return float(reference_shift)
    xi = positivity_scan(disc, default_shift_grid())
    if xi is None:
        raise IndefinitePencilError("no positive definite shift found on the default grid")
    return xi


class SpectralContext:
    """Counting and eigenvalue queries on one pencil.

    The reference shift xi and the zero band (-zt, zt) are resolved once,
    on construction.  N+(lam) counts the eigenvalues in the open interval
    (-zt, lam + zt) and N-(lam) those in (lam - zt, -zt), both ends of
    lam widened by a relative nudge, so every interval ends at the band
    edge -zt: its inertia is swept here once and shared by all queries.
    """

    def __init__(
        self,
        disc: PencilDiscretization,
        reference_shift: float | None = None,
        zero_tol: float | None = None,
    ):
        self.disc = disc
        self.xi = resolve_shift(disc, reference_shift)
        self.zt = zero_tolerance(disc) if zero_tol is None else float(zero_tol)
        self._edge = inertia(disc, -self.zt)

    def _endpoint(self, lam: float) -> float:
        """The end of the interval counted at lam other than -zt."""
        if lam >= 0.0:
            return lam + _NUDGE_REL * abs(lam) + self.zt
        return lam - _NUDGE_REL * abs(lam) - self.zt

    def _result(self, lam: float, end: float, neg_end: int, near_end: int) -> CountingResult:
        edge = -self.zt
        neg_edge, near_edge = self._edge
        if lam >= 0.0:
            lo, hi, neg_lo, neg_hi = edge, end, neg_edge, neg_end
        else:
            lo, hi, neg_lo, neg_hi = end, edge, neg_end, neg_edge
        # negatives at x count the eigenvalues between xi and x
        if hi <= lo:
            n = 0
        elif hi <= self.xi:
            n = neg_lo - neg_hi
        elif lo >= self.xi:
            n = neg_hi - neg_lo
        else:
            n = neg_lo + neg_hi
        if lam >= 0.0:
            return CountingResult(lam, n, 0, self.xi, near_edge + near_end)
        return CountingResult(lam, 0, n, self.xi, near_edge + near_end)

    def counting_function(self, lams) -> list[CountingResult]:
        """Counts over a grid, one sweep per distinct interval end."""
        lams = [float(x) for x in lams]
        ends = [self._endpoint(lam) for lam in lams]
        distinct = list(dict.fromkeys(ends))
        d = self.disc
        negs, nears = negative_pivot_counts(d.a_diag, d.a_off, d.b_diag, d.b_off, distinct)
        swept = dict(zip(distinct, zip(negs.tolist(), nears.tolist())))
        return [self._result(lam, end, *swept[end]) for lam, end in zip(lams, ends)]

    def count(self, lam: float) -> CountingResult:
        """Counting function at lam by Sylvester inertia.

        N+ includes an eigenvalue at 0 and one exactly at lam (resolved by
        a relative nudge); N- covers [lam, 0) for negative lam.
        """
        return self.counting_function([lam])[0]

    def eigenvalue(
        self, n: int, side: int = 1, rtol: float = 1e-10, max_lambda: float = 1e30
    ) -> float:
        """n-th eigenvalue (n >= 1) on the given side of 0 by count bisection."""
        if n < 1:
            raise InvalidParametersError("eigenvalue index starts at 1")
        if side not in (1, -1):
            raise InvalidParametersError("side must be +1 or -1")

        def counted(x: float) -> int:
            res = self.count(side * x)
            return res.n_plus if side == 1 else res.n_minus

        if counted(0.0) >= n:
            return 0.0
        lo, hi = 0.0, 1.0
        while counted(hi) < n:
            lo = hi
            hi *= 8.0
            if hi > max_lambda:
                raise EigenvalueNotFoundError(
                    f"no eigenvalue #{n} on side {side:+d} below {max_lambda}"
                )
        while hi - lo > rtol * hi + 1e-14:
            mid = 0.5 * (lo + hi)
            if counted(mid) >= n:
                hi = mid
            else:
                lo = mid
        val = 0.5 * (lo + hi)
        if val <= 2.0 * self.zt:
            val = 0.0
        return side * val

    def eigenvalues(self, how_many: int, side: int = 1, rtol: float = 1e-10) -> list[float]:
        return [self.eigenvalue(k, side, rtol=rtol) for k in range(1, how_many + 1)]

    def asymptotics_report(self, d, dprime, lambdas) -> AsymptoticsReport:
        """Sample N±(lam)/lam^D on a (positive) lambda grid.

        The band (min, max) of the positive-side ratio is taken over the
        top decade of the grid.  When the lengths are commensurable the
        report also measures the log-periodicity defect: the largest
        change of the profile under one period shift (two periods in the
        antiperiodic case, where one shift maps N+ to N- instead).
        """
        dim = spectral_dimension(d, dprime)
        nu, tag = period_and_case(d, dprime)
        lambdas = np.asarray(sorted(float(x) for x in lambdas))
        if np.any(lambdas <= 0.0):
            raise InvalidParametersError("lambda grid must be positive")
        n_plus = np.array([r.n_plus for r in self.counting_function(lambdas)], dtype=float)
        if any(dp < 0.0 for dp in dprime):
            res_minus = self.counting_function(-lambdas)
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
                there = self.counting_function(base * shift)
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

    def geometric_asymptotics(
        self, product: float, k_max: int, z_plus: int, z_minus: int = 0
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
            eigs = self.eigenvalues(needed, side)
            for offset in range(1, period + 1):
                rungs = [eigs[idx] for idx in range(offset - 1, needed, period)]
                ratios = tuple(
                    rungs[j + 1] / rungs[j] for j in range(len(rungs) - 1) if rungs[j] != 0.0
                )
                ladders.append(GeometricLadder(side, offset, tuple(rungs), ratios))
        return GeometricReport(product, target, interleave, tuple(ladders))


def count(
    disc: PencilDiscretization,
    lam: float,
    reference_shift: float | None = None,
    zero_tol: float | None = None,
) -> CountingResult:
    """Counting function at lam: SpectralContext.count on a fresh context."""
    return SpectralContext(disc, reference_shift, zero_tol).count(lam)


def counting_function(
    disc: PencilDiscretization,
    lams,
    reference_shift: float | None = None,
    zero_tol: float | None = None,
) -> list[CountingResult]:
    """Counts over a grid: SpectralContext.counting_function on a fresh context."""
    return SpectralContext(disc, reference_shift, zero_tol).counting_function(lams)


def eigenvalue(
    disc: PencilDiscretization,
    n: int,
    side: int = 1,
    reference_shift: float | None = None,
    rtol: float = 1e-10,
    max_lambda: float = 1e30,
) -> float:
    """n-th eigenvalue (n >= 1) on the given side of 0 by count bisection."""
    return SpectralContext(disc, reference_shift).eigenvalue(n, side, rtol, max_lambda)


def eigenvalues(
    disc: PencilDiscretization,
    how_many: int,
    side: int = 1,
    reference_shift: float | None = None,
    rtol: float = 1e-10,
) -> list[float]:
    return SpectralContext(disc, reference_shift).eigenvalues(how_many, side, rtol)


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
    """Power-law report: SpectralContext.asymptotics_report on a fresh context."""
    return SpectralContext(disc, reference_shift).asymptotics_report(d, dprime, lambdas)


def ladder_counts(params: SelfSimilarParams) -> tuple[int, int]:
    """(positive, negative) jump counts of P over one substitution period.

    A negative scaling product maps the spectrum onto the other side and
    back, so its period covers two levels of junction atoms.
    """
    negative = any(a * dp < 0.0 for a, dp in zip(params.a, params.dprime))
    jumps = jump_atoms(params, depth=2 if negative else 1, include_endpoints=False)
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
    """Ladder report: SpectralContext.geometric_asymptotics on a fresh context."""
    return SpectralContext(disc, reference_shift).geometric_asymptotics(
        product, k_max, z_plus, z_minus
    )


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
    ctx = SpectralContext(disc, reference_shift)
    lhs, *terms = (r.n_plus for r in ctx.counting_function(args))
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
