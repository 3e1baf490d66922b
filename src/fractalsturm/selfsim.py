"""Self-similar functions on [0, 1].

A function P is self-similar for the data (a_i, d'_i, beta'_i, p0, p1)
when on every cell [alpha_i, alpha_i + a_i] (alpha_i = a_1 + ... +
a_{i-1}) it reproduces a scaled copy of itself:

    P(alpha_i + a_i t) = beta'_i + d'_i P(t),   t in [0, 1],

with boundary values P(0) = p0, P(1) = p1.  When sum_i a_i |d'_i|^2 < 1
such a P exists and is unique in L2.  The classical Cantor ladder is the
case a = (1/3, 1/3, 1/3), d' = (1/2, 0, 1/2).

This module evaluates such functions with certified error bounds,
enumerates cell words and junction atoms, and computes power moments of
the induced Stieltjes measure dP, all of which feed the quadrature rules
of the assembly stage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateMomentsError,
    DomainError,
    InvalidParametersError,
    ParameterMismatchError,
)

_TOL = 1e-12


def _as_float_tuple(xs) -> tuple[float, ...]:
    return tuple(float(x) for x in xs)


@dataclass(frozen=True)
class SelfSimilarParams:
    """Substitution data (a, d', beta', p0, p1) for one function."""

    a: tuple[float, ...]
    dprime: tuple[float, ...]
    betaprime: tuple[float, ...]
    p0: float = 0.0
    p1: float = 1.0
    alpha: np.ndarray = field(init=False, repr=False, compare=False)
    """Left cell endpoints alpha_1 = 0, ..., alpha_n, plus 1 (read-only)."""

    def __post_init__(self):
        object.__setattr__(self, "a", _as_float_tuple(self.a))
        object.__setattr__(self, "dprime", _as_float_tuple(self.dprime))
        object.__setattr__(self, "betaprime", _as_float_tuple(self.betaprime))
        object.__setattr__(self, "p0", float(self.p0))
        object.__setattr__(self, "p1", float(self.p1))
        n = len(self.a)
        if n < 2:
            raise InvalidParametersError("need at least two cells")
        if len(self.dprime) != n or len(self.betaprime) != n:
            raise InvalidParametersError("a, dprime, betaprime must share length")
        if any(w <= 0.0 for w in self.a):
            raise InvalidParametersError("cell widths must be positive")
        if abs(sum(self.a) - 1.0) > 1e-9:
            raise InvalidParametersError("cell widths must sum to 1")
        # the functional equation evaluated at x = 0 and x = 1 pins the
        # boundary values; inconsistent ones admit no fixed point
        ref = 1e-9 * max(1.0, abs(self.p0), abs(self.p1), max(abs(b) for b in self.betaprime))
        if abs(self.betaprime[0] + self.dprime[0] * self.p0 - self.p0) > ref:
            raise InvalidParametersError("p0 does not solve the corner equation at 0")
        if abs(self.betaprime[-1] + self.dprime[-1] * self.p1 - self.p1) > ref:
            raise InvalidParametersError("p1 does not solve the corner equation at 1")
        alpha = np.concatenate(([0.0], np.cumsum(self.a)))
        alpha.setflags(write=False)
        object.__setattr__(self, "alpha", alpha)

    @property
    def n(self) -> int:
        return len(self.a)

    def sup_bound(self) -> float:
        """A bound M with sup |P| <= M, infinite if max |d'| >= 1."""
        dmax = max(abs(d) for d in self.dprime)
        if dmax >= 1.0:
            return math.inf
        bmax = max(abs(b) for b in self.betaprime)
        return max(abs(self.p0), abs(self.p1), bmax / (1.0 - dmax))

    def osc_bound(self) -> float:
        """Bound on the oscillation of P over any subinterval."""
        m = self.sup_bound()
        return 2.0 * m if math.isfinite(m) else math.inf

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "a": list(self.a),
            "dprime": list(self.dprime),
            "betaprime": list(self.betaprime),
            "p0": self.p0,
            "p1": self.p1,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "SelfSimilarParams":
        if not isinstance(obj, dict):
            raise InvalidParametersError("parameter JSON must be an object")
        try:
            params = cls(
                a=obj["a"],
                dprime=obj["dprime"],
                betaprime=obj["betaprime"],
                p0=obj.get("p0", 0.0),
                p1=obj.get("p1", 1.0),
            )
        except KeyError as exc:
            raise InvalidParametersError(f"missing parameter field {exc}") from exc
        if "n" in obj and int(obj["n"]) != params.n:
            raise InvalidParametersError("declared n does not match array lengths")
        return params


def cantor_ladder() -> SelfSimilarParams:
    """The Cantor function: constant 1/2 on the middle third."""
    return SelfSimilarParams(
        a=(1 / 3, 1 / 3, 1 / 3),
        dprime=(0.5, 0.0, 0.5),
        betaprime=(0.0, 0.5, 0.5),
        p0=0.0,
        p1=1.0,
    )


def identity_params(n: int = 2) -> SelfSimilarParams:
    """Parameters whose fixed point is the identity map on [0, 1]."""
    a = (1.0 / n,) * n
    return SelfSimilarParams(
        a=a,
        dprime=a,
        betaprime=tuple(i / n for i in range(n)),
        p0=0.0,
        p1=1.0,
    )


@dataclass(frozen=True)
class MonotonePrimitive:
    """Nondecreasing self-similar primitive R with R(0)=0, R(1)=1.

    The substitution y = u o R turns a Stieltjes derivative d/dR into a
    plain derivative; weights d_i >= 0 sum to one and the offsets are
    their running sums, which makes R a continuous distribution function.
    """

    params: SelfSimilarParams

    def __post_init__(self):
        p = self.params
        if any(d < 0.0 for d in p.dprime):
            raise InvalidParametersError("monotone primitive needs d_i >= 0")
        if max(p.dprime) >= 1.0:
            raise InvalidParametersError("monotone primitive needs max d_i < 1")
        if abs(sum(p.dprime) - 1.0) > 1e-9:
            raise InvalidParametersError("weights d_i must sum to 1")
        beta = 0.0
        for i in range(p.n):
            if abs(p.betaprime[i] - beta) > 1e-9:
                raise InvalidParametersError("offsets must be running sums of d_i")
            beta += p.dprime[i]
        if abs(p.p0) > _TOL or abs(p.p1 - 1.0) > _TOL:
            raise InvalidParametersError("primitive must run from 0 to 1")

    @classmethod
    def cantor(cls) -> "MonotonePrimitive":
        return cls(cantor_ladder())

    @classmethod
    def identity(cls, n: int = 2) -> "MonotonePrimitive":
        return cls(identity_params(n))

    @property
    def weights(self) -> tuple[float, ...]:
        return self.params.dprime

    def __call__(self, x: float, depth: int = 48) -> float:
        return evaluate(self.params, x, depth)[0]

    def to_json(self) -> dict:
        return self.params.to_json()

    @classmethod
    def from_json(cls, obj: dict) -> "MonotonePrimitive":
        return cls(SelfSimilarParams.from_json(obj))


def _require_same_cells(r: MonotonePrimitive, p: SelfSimilarParams) -> None:
    """ParameterMismatchError unless R and P have the same cell widths, within 1e-12."""
    rp = r.params
    if rp.n != p.n or max(abs(x - y) for x, y in zip(rp.a, p.a)) > _TOL:
        raise ParameterMismatchError("cell widths of R and P differ")


def validate_contraction(r: MonotonePrimitive, p: SelfSimilarParams) -> bool:
    """Existence test sum_i d_i |d'_i|^2 < 1 for the pair (R, P).

    Both parameter sets must share the horizontal cell structure.
    """
    _require_same_cells(r, p)
    s = sum(d * dp * dp for d, dp in zip(r.weights, p.dprime))
    return s < 1.0


def _locate(alpha: np.ndarray, t: float, side: str = "left") -> int:
    """Cell index for t in (0, 1); `side` picks the cell at exact junctions."""
    i = int(np.searchsorted(alpha, t, side=side)) - 1
    if i < 0:
        i = 0
    elif i > alpha.size - 2:
        i = alpha.size - 2
    return i


def evaluate(
    params: SelfSimilarParams, x: float, depth: int = 48, side: str = "left"
) -> tuple[float, float]:
    """Evaluate P(x) by digit expansion.

    Returns (value, error_bound).  The expansion walks at most `depth`
    cells; it terminates exactly when x hits a cell boundary or a dead
    (d' = 0) cell, otherwise the residual is bounded by the accumulated
    |d'| product times the oscillation bound of P.  Rescaling a digit
    amplifies float error in x by 1/a_i, so the walk also stops once the
    propagated drift could flip a digit, and boundary hits reached after
    noticeable drift are not reported as exact.  `side` selects the cell
    taken at exact junction hits, i.e. which one-sided limit a jump
    evaluates to.  A negative depth raises InvalidParametersError.
    """
    if depth < 0:
        raise InvalidParametersError("depth must be >= 0")
    x = float(x)
    if x < -_TOL or x > 1.0 + _TOL:
        raise DomainError(f"point {x} outside [0, 1]")
    x = min(max(x, 0.0), 1.0)
    alpha = params.alpha
    offset = 0.0
    scale = 1.0
    t = x
    drift = 4.0 * np.finfo(float).eps
    for _ in range(depth):
        if drift >= 0.25:
            break
        exact = 0.0 if drift <= 1e-12 else abs(scale) * params.osc_bound()
        if t <= 0.0:
            return offset + scale * params.p0, exact
        if t >= 1.0:
            return offset + scale * params.p1, exact
        i = _locate(alpha, t, side)
        offset += scale * params.betaprime[i]
        scale *= params.dprime[i]
        if scale == 0.0:
            return offset, exact
        t = (t - alpha[i]) / params.a[i]
        t = min(max(t, 0.0), 1.0)
        drift /= params.a[i]
    mid = 0.5 * (params.p0 + params.p1)
    return offset + scale * mid, abs(scale) * params.osc_bound()


def _evaluate_many(params: SelfSimilarParams, xs, depth: int = 48) -> np.ndarray:
    """evaluate(params, x, depth)[0] at every x of a 1-D array, bit for bit.

    The same digit expansion, run on all points at once: each step takes
    the points still expanding through the operations `evaluate` makes
    on one, in the same order, and finishes those it would return from.
    """
    if depth < 0:
        raise InvalidParametersError("depth must be >= 0")
    x = np.asarray(xs, dtype=float)
    outside = (x < -_TOL) | (x > 1.0 + _TOL)
    if outside.any():
        raise DomainError(f"point {x[outside][0]} outside [0, 1]")
    alpha, a = params.alpha, np.asarray(params.a)
    dprime, betaprime = np.asarray(params.dprime), np.asarray(params.betaprime)
    out = np.empty(x.size)
    at = np.arange(x.size)  # output slots of the points still expanding
    t = np.minimum(np.maximum(x, 0.0), 1.0)
    offset, scale = np.zeros(x.size), np.ones(x.size)
    drift = np.full(x.size, 4.0 * np.finfo(float).eps)
    mid = 0.5 * (params.p0 + params.p1)
    for _ in range(depth):
        if at.size == 0:
            break
        # points that evaluate returns from here, tested in its order
        stop = drift >= 0.25
        done = stop | (t <= 0.0) | (t >= 1.0)
        if done.any():
            end = np.where(stop, mid, np.where(t <= 0.0, params.p0, params.p1))
            out[at[done]] = offset[done] + scale[done] * end[done]
            at, t, offset, scale, drift = (v[~done] for v in (at, t, offset, scale, drift))
        i = np.clip(np.searchsorted(alpha, t) - 1, 0, alpha.size - 2)
        offset = offset + scale * betaprime[i]
        scale = scale * dprime[i]
        dead = scale == 0.0
        if dead.any():
            out[at[dead]] = offset[dead]
            at, t, offset, scale, drift, i = (v[~dead] for v in (at, t, offset, scale, drift, i))
        ai = a[i]
        t = np.minimum(np.maximum((t - alpha[i]) / ai, 0.0), 1.0)
        drift = drift / ai
    out[at] = offset + scale * mid
    return out


def _moments(p: SelfSimilarParams, scales, shifts, order: int) -> np.ndarray:
    """Moments m_k = int_0^1 f(t)^k dP(t), k = 0..order.

    On copy i of P's substitution, f is the affine map x -> scales[i] x
    + shifts[i]: (a_i, alpha_i) when f is the identity, (d_i, beta'_i)
    when f is a primitive R with P's cell widths.  m_0 is the total mass
    p1 - p0; higher moments follow from the substitution identity.  A
    normalization factor 1 - sum d'_i scales_i^k within 1e-12 of zero
    raises DegenerateMomentsError naming the order.
    """
    gaps = junction_gaps(p)
    m = [p.p1 - p.p0]
    for k in range(1, order + 1):
        denom = 1.0 - sum(dp * s**k for dp, s in zip(p.dprime, scales))
        if abs(denom) <= 1e-12:
            raise DegenerateMomentsError(f"moment normalization vanishes at order {k}")
        rhs = 0.0
        for i in range(p.n):
            inner = 0.0
            for j in range(k):
                inner += math.comb(k, j) * scales[i] ** j * shifts[i] ** (k - j) * m[j]
            rhs += p.dprime[i] * inner
        # junction atoms are not images of any copy; f maps the one
        # between copies i and i + 1 to shifts[i + 1]
        for i, gap in enumerate(gaps):
            rhs += gap * shifts[i + 1] ** k
        m.append(rhs / denom)
    return np.array(m)


def moments(params: SelfSimilarParams, order: int) -> np.ndarray:
    """Power moments mu_k = int_0^1 t^k dP(t), k = 0..order."""
    if order < 0:
        raise InvalidParametersError("order must be >= 0")
    return _moments(params, params.a, params.alpha, order)


def pair_moments(r: MonotonePrimitive, p: SelfSimilarParams, order: int = 2) -> np.ndarray:
    """Mixed moments m_l = int_0^1 R(t)^l dP(t), l = 0..order.

    R and P must share cell widths.  Needed to integrate hat functions
    composed with R against dP on the original axis.
    """
    _require_same_cells(r, p)
    if order < 0:
        raise InvalidParametersError("order must be >= 0")
    return _moments(p, r.weights, r.params.betaprime, order)


def _columns(x: np.ndarray, factors, base: np.ndarray | None = None, out: np.ndarray | None = None):
    """base + x * f for each f of factors, one column per factor, in an (x.size, k) array.

    Writes into out when given, else into a new array, and returns it;
    raveled it is parent-major, the same bits as (base[:, None] + x[:, None]
    * factors).ravel().  Each column is written by full-length ufunc
    calls, since numpy runs a broadcast over an (n, k <= 3) array a few
    elements at a time.
    """
    if out is None:
        out = np.empty((x.size, len(factors)))
    for col, f in zip(out.T, factors):
        np.multiply(x, f, out=col)
        if base is not None:
            col += base
    return out


def _children(params: SelfSimilarParams, left, width, weight, offset) -> np.ndarray:
    """Children with nonzero weight of the given cells, parent-major.

    Takes (left, width, weight, offset) arrays and returns the children
    as an (m, 4) table of support_cells rows.  Only the live letters
    (d' != 0) are expanded; a child whose weight product underflows to 0
    is masked out.  The order keeps cells left to right, and each value
    is the float expression a depth-first walk evaluates, so the results
    are bit-identical to it.
    """
    # layout rule of every numpy tree expansion (here, in jump_atoms, and
    # in the stamping of assembly): no (n, k <= 3)
    # broadcasts, one _columns column per letter instead; and only 1-D
    # indices for np.add.at, the one form numpy runs on its fast path
    live = [i for i, d in enumerate(params.dprime) if d != 0.0]
    alpha, a, dprime, betaprime = (
        [v[i] for i in live] for v in (params.alpha, params.a, params.dprime, params.betaprime)
    )
    # one contiguous row of children per quantity, read back as columns
    table = np.empty((4, left.size, len(live)))
    _columns(width, alpha, left, out=table[0])
    _columns(width, a, out=table[1])
    _columns(weight, dprime, out=table[2])
    _columns(weight, betaprime, offset, out=table[3])
    table = table.reshape(4, -1).T
    return table if table[:, 2].all() else table[table[:, 2] != 0.0]


def _levels(params: SelfSimilarParams, depth: int):
    """Live cells of every depth 0..depth, one (m, 4) support_cells table per depth."""
    cells = np.array([[0.0, 1.0, 1.0, 0.0]])
    yield cells
    for _ in range(depth):
        cells = _children(params, *cells.T)
        yield cells


def support_cells(params: SelfSimilarParams, depth: int) -> np.ndarray:
    """Depth-m cells with nonzero weight, pruning dead subtrees.

    Returns an (m, 4) array with columns left, width, weight, offset:
    P(left + width*t) = offset + weight*P(t) on [0, 1].  Cells whose word
    contains a d' = 0 letter carry no dP mass and are skipped.  The cells
    are expanded one level at a time, parent-major, so the rows run left
    to right and every entry is bit-identical to a depth-first walk.
    """
    if depth < 0:
        raise InvalidParametersError("depth must be >= 0")
    for deepest in _levels(params, depth):
        pass
    return deepest


def junction_gaps(params: SelfSimilarParams) -> tuple[float, ...]:
    """Copy-value mismatches at the n-1 interior junctions.

    Splitting P into its affinely scaled copies drops the Stieltjes atom
    between the right value of one copy and the left value of the next;
    entry i is that atom at the junction alpha_{i+1}.  All zero exactly
    when the copies tile the increment of P (e.g. cumulative beta').
    """
    bp, dp = params.betaprime, params.dprime
    return tuple(
        (bp[i + 1] + dp[i + 1] * params.p0) - (bp[i] + dp[i] * params.p1)
        for i in range(params.n - 1)
    )


def jump_atoms(params: SelfSimilarParams, depth: int) -> np.ndarray:
    """Exact jumps of P at cell junctions down to the given depth.

    Returns a read-only (m, 2) float64 array of (position, jump) rows
    sorted by position, the atom format of `measures`.  Junction values
    use the true one-sided limits, so each listed jump is exact; only
    junctions deeper than `depth` are omitted.  When every junction gap
    is 0 the table is empty and no cell is expanded.  Otherwise the
    junctions with a nonzero gap of all live cells of depth 0..depth-1
    are collected level by level; jumps that land on the same float
    position are summed in that level order, so with three or more of
    them the sum can differ from a depth-first walk's in the last bit.
    The corner equations pin P(0) = p0 and P(1) = p1, so the ends carry
    no atom.
    """
    if depth < 1:
        raise InvalidParametersError("depth must be >= 1")
    gaps = np.asarray(junction_gaps(params))
    jumpy = np.flatnonzero(gaps)
    if jumpy.size == 0:
        out = np.zeros((0, 2))
        out.flags.writeable = False
        return out
    inner, gaps = params.alpha[jumpy + 1], gaps[jumpy]
    pos, jump = [], []
    for cells in _levels(params, depth - 1):
        left, width, weight, _ = cells.T
        pos.append(_columns(width, inner, left).ravel())
        jump.append(_columns(weight, gaps).ravel())
    pos, jump = np.concatenate(pos), np.concatenate(jump)
    keep = jump != 0.0
    pos, jump = pos[keep], jump[keep]
    order = np.argsort(pos, kind="stable")
    pos, jump = pos[order], jump[order]
    first = np.flatnonzero(pos != np.concatenate(([np.nan], pos[:-1])))
    out = np.stack((pos[first], np.add.reduceat(jump, first)), axis=1)
    out.flags.writeable = False
    return out
