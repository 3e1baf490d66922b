"""Tridiagonal pencil assembly.

The quadratic forms

    a[u] = (1/r_mass) int u'(t)^2 dt + int u^2 dq~ + v0 u(0)^2 + v1 u(1)^2
    b[u] = int u^2 dp~

are restricted to hat functions on a mesh that contains every atom,
every density breakpoint and every self-similar cell endpoint of the
working depth, so all measure integrals below are exact per cell.  The
result is a symmetric tridiagonal pencil (A, B); Dirichlet ends are
eliminated.

Two direct entry points avoid the explicit change of variable when the
problem comes as a pair (R, P) on the original axis: one for exactly
self-similar R (hat pullbacks integrate against dP via mixed moments
int R^l dP) and one for R a finite substitution iterate (hat pullbacks
are affine on cells of depth >= k and integrate via plain moments).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg import solve_banded

from . import _kernels
from .errors import (
    InvalidParametersError,
    ResolventPoleError,
    UnsupportedConfigurationError,
)
from .measures import CompositeMeasure, _atom_arrays, _cluster_starts, _run_sums
from .selfsim import (
    MonotonePrimitive,
    SelfSimilarParams,
    _children,
    jump_atoms,
    junction_gaps,
    moments,
    pair_moments,
    support_cells,
)

_TOL = 1e-12
# A pencil remembers at most this many swept spectral parameters; a full
# memo is cleared and refills from the next sweeps.
_MEMO_SIZE = 4096


@dataclass(frozen=True)
class BoundaryCondition:
    """Separated conditions at the two ends.

    None marks a Dirichlet end; a float v is the Robin coefficient in
    the boundary form v * u(end)^2 (v = 0 is Neumann).
    """

    left: float | None
    right: float | None

    @classmethod
    def dirichlet(cls) -> "BoundaryCondition":
        return cls(None, None)

    @classmethod
    def neumann(cls) -> "BoundaryCondition":
        return cls(0.0, 0.0)


def boundary_data(u_matrix) -> BoundaryCondition:
    """Boundary condition encoded by a unitary 2x2 matrix U.

    The condition reads V (U - I) = -i (U + I) on the boundary trace
    vector; a diagonal entry 1 forces Dirichlet at that end, otherwise
    the Robin coefficient is v_j = -i (u + 1) / (u - 1), which is real
    for |u| = 1.  Non-diagonal U couples the two ends and is rejected.
    """
    u = np.asarray(u_matrix, dtype=complex)
    if u.shape != (2, 2):
        raise InvalidParametersError("boundary matrix must be 2x2")
    if np.linalg.norm(u.conj().T @ u - np.eye(2)) > 1e-10:
        raise InvalidParametersError("boundary matrix must be unitary")
    if abs(u[0, 1]) > 1e-10 or abs(u[1, 0]) > 1e-10:
        raise UnsupportedConfigurationError("coupled boundary conditions not supported")

    def side(uj: complex) -> float | None:
        if abs(uj - 1.0) <= 1e-10:
            return None
        v = -1j * (uj + 1.0) / (uj - 1.0)
        if abs(v.imag) > 1e-8:
            raise InvalidParametersError("boundary coefficient came out non-real")
        return float(v.real)

    return BoundaryCondition(side(u[0, 0]), side(u[1, 1]))


@dataclass(frozen=True)
class PencilDiscretization:
    """Symmetric tridiagonal pencil (A, B) over hat functions.

    nodes lists the full mesh; the arrays hold the reduced pencil after
    eliminating Dirichlet ends, and free_start tells how many leading
    nodes were dropped (0 or 1).  The pencil's arrays are read-only
    float64 arrays that nothing else can write to (copies where needed),
    so it never changes, and it remembers what the inertia kernel
    returned at each spectral parameter it was swept at.
    """

    nodes: np.ndarray
    a_diag: np.ndarray
    a_off: np.ndarray
    b_diag: np.ndarray
    b_off: np.ndarray
    free_start: int
    constrained: tuple[int, ...]
    # lam -> (negatives, near-zeros, min pivot ratio)
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("nodes", "a_diag", "a_off", "b_diag", "b_off"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))

    @property
    def n_free(self) -> int:
        return int(self.a_diag.size)

    @cached_property
    def _norm_ratio(self) -> float:
        """|A| / |B| in the largest-entry norm."""
        norm_a = max(float(np.max(np.abs(x), initial=0.0)) for x in (self.a_diag, self.a_off))
        norm_b = max(float(np.max(np.abs(x), initial=0.0)) for x in (self.b_diag, self.b_off))
        if norm_b == 0.0:
            raise InvalidParametersError("zero weight matrix")
        return norm_a / norm_b

    def _sweeps(self, lams) -> list[tuple]:
        """(negatives, near-zeros, smallest |pivot| / scale) at each lam.

        One sturm_pivots_many call sweeps the lams not yet swept; a lam
        already swept costs nothing.  Answers are read into a local dict
        before the memo may be cleared, so a query that races another
        thread's clear at worst sweeps again.
        """
        memo = self._memo
        lams = [float(x) for x in lams]
        got = {lam: memo.get(lam) for lam in lams}
        missing = [lam for lam, value in got.items() if value is None]
        if missing:
            records = _kernels.sturm_pivots_many(
                self.a_diag, self.a_off, self.b_diag, self.b_off, np.array(missing)
            )
            swept = [(neg, near, min_rel) for neg, near, _, min_rel in records]
            for lam, value in zip(missing, swept):
                if len(memo) >= _MEMO_SIZE:
                    memo.clear()
                got[lam] = memo[lam] = value
        return [got[lam] for lam in lams]

    def free_index(self, node_idx: int) -> int | None:
        """Reduced index of a mesh node, None if it was eliminated."""
        if node_idx in self.constrained:
            return None
        return node_idx - self.free_start

    def node_index(self, x: float, tol: float = 1e-9) -> int:
        j = int(np.searchsorted(self.nodes, x))
        for cand in (j - 1, j):
            if 0 <= cand < self.nodes.size and abs(self.nodes[cand] - x) <= tol:
                return cand
        raise InvalidParametersError(f"no mesh node at {x}")


def _frozen(arr) -> np.ndarray:
    """arr as a read-only C-contiguous float64 array that no array can write to.

    An array that already is one, and whose memory no writable array
    shares, is kept as it is: the assembly routes freeze their own
    arrays and hand them over, since a copy of a 65,536-node pencil
    costs about 1.4 ms (2-vCPU x86 host) and 2.6 MB.  Anything else is
    copied.
    """
    if (
        isinstance(arr, np.ndarray)
        and arr.dtype == np.float64
        and arr.flags.c_contiguous
        and not arr.flags.writeable
        and (arr.base is None or isinstance(arr.base, np.ndarray) and not arr.base.flags.writeable)
    ):
        return arr
    arr = np.array(arr, dtype=np.float64, order="C")
    arr.flags.writeable = False
    return arr


def _dedupe(xs: np.ndarray, tol: float = 1e-13) -> np.ndarray:
    xs = np.sort(xs)
    keep = xs[_cluster_starts(xs, tol)]
    keep[0] = 0.0
    keep[-1] = 1.0
    return keep


def _mesh_nodes(p: CompositeMeasure, q: CompositeMeasure, depth: int) -> np.ndarray:
    cand = [np.array([0.0, 1.0])]
    has_selfsim = False
    has_density = False
    for mu in (p, q):
        if mu.selfsim is not None:
            has_selfsim = True
            params = mu.selfsim[0]
            cells = support_cells(params, depth)
            cand.append(cells[:, 0])
            cand.append(cells[:, 0] + cells[:, 1])
            branching = sum(1 for dp in params.dprime if dp != 0.0)
            if branching <= 1:
                jump_depth = min(depth, 48)
            else:
                jump_depth = min(depth, int(np.log(4096.0) / np.log(branching)))
            jumps = jump_atoms(params, max(1, jump_depth))
            if len(jumps) > 4096:
                # cap the mesh size; dropped atoms still get lumped in-cell
                jumps.sort(key=lambda pw: -abs(pw[1]))
                jumps = jumps[:4096]
            if jumps:
                cand.append(np.array([pos for pos, _ in jumps]))
        if mu.atoms:
            cand.append(np.array([pos for pos, _ in mu.atoms]))
        if mu.density is not None and np.any(mu.density.values):
            has_density = True
            cand.append(mu.density.breaks)
    if has_density or not has_selfsim:
        # uniform background grid; kept moderate when self-similar cell
        # endpoints already populate the mesh
        m = min(depth, 10) if has_selfsim else depth
        cand.append(np.linspace(0.0, 1.0, 2**m + 1))
    return _dedupe(np.concatenate(cand))


class _Accumulator:
    def __init__(self, nodes: np.ndarray):
        self.nodes = nodes
        self.diag = np.zeros(nodes.size)
        self.off = np.zeros(nodes.size - 1)

    def add_atoms(self, pos: np.ndarray, weight: np.ndarray):
        """Stamp point masses one after the other, in the order given.

        A mass within 1e-12 of a node lands on that node (the left one
        when two qualify); one between nodes gets the exact hat-function
        products.
        """
        nodes = self.nodes
        j = np.searchsorted(nodes, pos)
        on_left = (j >= 1) & (np.abs(nodes[np.maximum(j - 1, 0)] - pos) <= 1e-12)
        on_right = (j < nodes.size) & (np.abs(nodes[np.minimum(j, nodes.size - 1)] - pos) <= 1e-12)
        hit = on_left | on_right
        jb = np.clip(j - 1, 0, nodes.size - 2)
        al = (nodes[jb + 1] - pos) / (nodes[jb + 1] - nodes[jb])
        # per mass one or two diagonal entries, flattened in input order
        # so shared entries add up in the order the masses come
        idx = np.stack((np.where(on_left, j - 1, np.where(hit, j, jb)), jb + 1), axis=1)
        val = np.stack((np.where(hit, weight, weight * al * al), weight * (1.0 - al) * (1.0 - al)), axis=1)
        used = np.stack((np.ones_like(hit), ~hit), axis=1)
        np.add.at(self.diag, idx[used], val[used])
        np.add.at(self.off, jb[~hit], (weight * al * (1.0 - al))[~hit])

    def add_density(self, density):
        mids = 0.5 * (self.nodes[:-1] + self.nodes[1:])
        vals = density(mids)
        h = np.diff(self.nodes)
        self.diag[:-1] += vals * h / 3.0
        self.diag[1:] += vals * h / 3.0
        self.off += vals * h / 6.0

    def add_selfsim(self, params: SelfSimilarParams, scale: float, depth: int, extra: int = 30):
        """Stamp scale * dP, exact per cell of the self-similar tree.

        The cells are expanded one level at a time, parent-major, from
        the root.  A cell that fits one mesh interval (1e-12 slack) is
        stamped through the copy moments; a straddling cell emits its
        junction atoms and splits into its live children.  What still
        straddles at level depth + extra is lumped at its midpoint.
        Each stamp is the value a depth-first walk computes, and within
        a level shared entries are summed left to right as that walk
        does; where cells of different levels or junction atoms share an
        entry the order differs, so a sum can move in its last bits
        (tests allow 1e-13 relative).
        """
        mu = moments(params, 2)
        nodes = self.nodes
        gaps = np.asarray(junction_gaps(params))
        jumpy = np.flatnonzero(gaps != 0.0) + 1
        left, width, weight, offset = (np.array([v]) for v in (0.0, 1.0, 1.0, 0.0))
        for level in range(depth + extra + 1):
            j = np.clip(np.searchsorted(nodes, left, side="right") - 1, 0, nodes.size - 2)
            xl, xr = nodes[j], nodes[j + 1]
            fits = (left >= xl - 1e-12) & (left + width <= xr + 1e-12)
            # a cell inside one mesh interval: the copy moments carry its
            # full Stieltjes content, interior jumps included
            xl, xr, jf, lf, wf = xl[fits], xr[fits], j[fits], left[fits], width[fits]
            h = xr - xl
            al = (xr - lf) / h
            bl = -wf / h
            ar = (lf - xl) / h
            br = wf / h
            w = scale * weight[fits]
            dl = w * (al * al * mu[0] + 2 * al * bl * mu[1] + bl * bl * mu[2])
            dr = w * (ar * ar * mu[0] + 2 * ar * br * mu[1] + br * br * mu[2])
            np.add.at(self.diag, np.stack((jf, jf + 1), axis=1), np.stack((dl, dr), axis=1))
            np.add.at(self.off, jf, w * (al * ar * mu[0] + (al * br + ar * bl) * mu[1] + bl * br * mu[2]))
            straddle = ~fits
            left, width, weight, offset, j = (x[straddle] for x in (left, width, weight, offset, j))
            if left.size == 0 or level == depth + extra:
                break
            # splitting into copies loses the junction atoms between
            # neighbouring copy values; emit them explicitly
            if jumpy.size:
                self.add_atoms(
                    (left[:, None] + width[:, None] * params.alpha[jumpy]).ravel(),
                    ((scale * weight)[:, None] * gaps[jumpy - 1]).ravel(),
                )
            left, width, weight, offset = _children(params, left, width, weight, offset)
        # unresolvable straddles at the maximum depth: lump the remaining
        # (vanishingly small) cell mass at its midpoint
        mid = left + 0.5 * width
        al = (nodes[j + 1] - mid) / (nodes[j + 1] - nodes[j])
        w = scale * weight * mu[0]
        np.add.at(self.diag, j, w * al * al)
        np.add.at(self.diag, j + 1, w * (1 - al) * (1 - al))
        np.add.at(self.off, j, w * al * (1 - al))

    def add_measure(self, mu: CompositeMeasure, depth: int):
        if mu.atoms:
            self.add_atoms(*_atom_arrays(mu.atoms))
        if mu.density is not None and np.any(mu.density.values):
            self.add_density(mu.density)
        if mu.selfsim is not None:
            self.add_selfsim(mu.selfsim[0], mu.selfsim[1], depth)


def _finalize(
    nodes: np.ndarray,
    a_diag: np.ndarray,
    a_off: np.ndarray,
    b_diag: np.ndarray,
    b_off: np.ndarray,
    bc: BoundaryCondition,
) -> PencilDiscretization:
    n = nodes.size
    constrained = []
    if bc.left is None:
        constrained.append(0)
    else:
        a_diag[0] += bc.left
    if bc.right is None:
        constrained.append(n - 1)
    else:
        a_diag[-1] += bc.right
    lo = 1 if bc.left is None else 0
    hi = n - 1 if bc.right is None else n
    if hi - lo < 1:
        raise InvalidParametersError("no free nodes left after constraints")
    for arr in (nodes, a_diag, a_off, b_diag, b_off):
        arr.flags.writeable = False
    return PencilDiscretization(
        nodes=nodes,
        a_diag=a_diag[lo:hi],
        a_off=a_off[lo : hi - 1],
        b_diag=b_diag[lo:hi],
        b_off=b_off[lo : hi - 1],
        free_start=lo,
        constrained=tuple(constrained),
    )


def assemble(
    r_mass: float,
    q: CompositeMeasure | float,
    p: CompositeMeasure,
    bc: BoundaryCondition,
    depth: int = 8,
) -> PencilDiscretization:
    """Assemble the pencil for -(1/r_mass) u'' + q u = lam p u on [0,1].

    q may be a plain number c, read as c * Lebesgue.  p must be nonzero.
    """
    if isinstance(q, (int, float)):
        q = CompositeMeasure.lebesgue(float(q)) if q else CompositeMeasure()
    if r_mass <= 0.0:
        raise InvalidParametersError("total r mass must be positive")
    if p.is_zero():
        raise InvalidParametersError("weight measure p is zero")

    nodes = _mesh_nodes(p, q, depth)
    h = np.diff(nodes)
    stiff = 1.0 / (r_mass * h)
    a_diag = np.zeros(nodes.size)
    a_diag[:-1] += stiff
    a_diag[1:] += stiff
    a_off = -stiff

    qa = _Accumulator(nodes)
    qa.add_measure(q, depth)
    a_diag += qa.diag
    a_off = a_off + qa.off

    pa = _Accumulator(nodes)
    pa.add_measure(p, depth)
    return _finalize(nodes, a_diag, a_off, pa.diag, pa.off, bc)


def _walk_segments(
    p: SelfSimilarParams,
    depth: int,
    t_factor,
) -> np.ndarray:
    """Leaves of the cell tree as (t_length, mass_weight) rows, left to right.

    t_factor(level, i) is the horizontal shrink of letter i at a given
    level (1-based).  Letters with zero shrink must carry no dP mass
    (otherwise an atom would appear on the image axis); massless
    subtrees with positive shrink collapse to single resistor segments.
    The tree is expanded one level at a time: each cell with mass is
    replaced, in place, by its children in letter order, so the rows keep
    the depth-first order, and each t_length is the product a depth-first
    walk forms.
    """
    if any(abs(g) > _TOL for g in junction_gaps(p)):
        raise UnsupportedConfigurationError(
            "dP carries atoms at cell junctions; assemble from the composite measure instead"
        )
    dprime = np.asarray(p.dprime)
    tprod = np.ones(1)
    mass = np.ones(1)
    for level in range(1, depth + 1):
        tf = np.array([t_factor(level, i) for i in range(p.n)])
        live = np.flatnonzero(mass != 0.0)
        m2 = mass[live, None] * dprime
        flat = (tf == 0.0) & np.any(m2 != 0.0, axis=0)
        if flat.any():
            raise UnsupportedConfigurationError(
                f"cell letter {int(np.argmax(flat))}: dP mass sits on a plateau of R"
            )
        letters = np.flatnonzero(tf != 0.0)
        # a cell with mass gives way to its children, a massless leaf stays
        count = np.ones(mass.size, dtype=np.int64)
        count[live] = letters.size
        at = np.cumsum(count) - count
        slots = (at[live, None] + np.arange(letters.size)).ravel()
        new_t = np.empty(int(count.sum()))
        new_m = np.zeros(new_t.size)
        leaf = np.ones(mass.size, dtype=bool)
        leaf[live] = False
        new_t[at[leaf]] = tprod[leaf]
        new_t[slots] = (tprod[live, None] * tf[letters]).ravel()
        new_m[slots] = m2[:, letters].ravel()
        tprod, mass = new_t, new_m
    mass[mass == 0.0] = 0.0  # no signed zeros
    return np.stack((tprod, mass), axis=1)


def _assemble_from_segments(
    segments: np.ndarray,
    quad: np.ndarray,
    r_mass: float,
    bc: BoundaryCondition,
    mass_scale: float = 1.0,
) -> PencilDiscretization:
    # merge runs of consecutive massless segments (exact series
    # condensation), summing each run left to right
    ln, mass = segments.T
    zero = mass == 0.0
    head = np.ones(ln.size, dtype=bool)
    head[1:] = ~(zero[1:] & zero[:-1])
    start = np.flatnonzero(head)
    ln, mass = _run_sums(ln, start), mass[start]
    nodes = np.concatenate(([0.0], np.cumsum(ln)))
    nodes[-1] = 1.0

    # each entry gets at most two terms, and two terms sum the same
    # in either order, so this matches stamping segment by segment
    s = 1.0 / (r_mass * ln)
    a_diag = np.zeros(nodes.size)
    a_diag[:-1] += s
    a_diag[1:] += s
    a_off = -s
    w = mass_scale * mass
    b_diag = np.zeros(nodes.size)
    b_diag[:-1] += w * quad[0]
    b_diag[1:] += w * quad[2]
    b_off = w * quad[1]
    return _finalize(nodes, a_diag, a_off, b_diag, b_off, bc)


def assemble_selfsimilar_pair(
    r: MonotonePrimitive,
    p: SelfSimilarParams,
    bc: BoundaryCondition,
    depth: int,
    r_mass: float = 1.0,
    p_scale: float = 1.0,
) -> PencilDiscretization:
    """Direct assembly for dr = dR, dp = p_scale * dP, q = 0.

    Works on the t = R(x) axis without forming the image measure: on
    every depth-m cell the pulled-back hats are (1 - R, R) in the local
    coordinate, so dP integrates them through the mixed moments
    int R^l dP.
    """
    rp = r.params
    m = pair_moments(r, p, 2)
    quad = np.array([m[0] - 2 * m[1] + m[2], m[1] - m[2], m[2]])
    segs = _walk_segments(p, depth, lambda level, i: rp.dprime[i])
    return _assemble_from_segments(segs, quad, r_mass, bc, p_scale)


def assemble_iterated_pair(
    r_base: MonotonePrimitive,
    k: int,
    p: SelfSimilarParams,
    bc: BoundaryCondition,
    depth: int,
    r_mass: float = 1.0,
    p_scale: float = 1.0,
) -> PencilDiscretization:
    """Direct assembly for R the k-th substitution iterate (identity seed).

    R is then affine on every cell of depth >= k, with slope products
    d'_i for the first k letters and a_i afterwards, so dP integrates
    the pulled-back hats through the plain moments of P.  Requires
    depth >= k.
    """
    if k < 0:
        raise InvalidParametersError("iteration count must be >= 0")
    if depth < k:
        raise InvalidParametersError("depth must be at least the iteration count")
    rp = r_base.params
    if rp.n != p.n or max(abs(x - y) for x, y in zip(rp.a, p.a)) > _TOL:
        raise InvalidParametersError("cell widths of R and P differ")
    mu = moments(p, 2)
    quad = np.array([mu[0] - 2 * mu[1] + mu[2], mu[1] - mu[2], mu[2]])
    segs = _walk_segments(
        p, depth, lambda level, i: rp.dprime[i] if level <= k else rp.a[i]
    )
    return _assemble_from_segments(segs, quad, r_mass, bc, p_scale)


def resolvent_sandwich(
    disc: PencilDiscretization, positions, lam: float, weights=None
) -> np.ndarray:
    """Matrix of the resolvent evaluated between atom sites.

    Entry (i, j) is e_i^T (A - lam B)^{-1} e_j over the hat coefficients
    at the given node positions; a position eliminated by a Dirichlet
    condition contributes a zero row and column.  Raises
    ResolventPoleError when lam is (numerically) in the spectrum.
    """
    positions = list(positions)
    k = len(positions)
    free = []
    for pos in positions:
        free.append(disc.free_index(disc.node_index(pos)))
    n = disc.n_free
    ab = np.zeros((3, n))
    ab[0, 1:] = disc.a_off - lam * disc.b_off
    ab[1, :] = disc.a_diag - lam * disc.b_diag
    ab[2, :-1] = disc.a_off - lam * disc.b_off
    rhs = np.zeros((n, k))
    for col, fi in enumerate(free):
        if fi is not None:
            rhs[fi, col] = 1.0
    scale = np.max(np.abs(ab))
    try:
        sol = solve_banded((1, 1), ab, rhs)
    except np.linalg.LinAlgError as exc:
        raise ResolventPoleError(f"spectral parameter {lam} is a pole") from exc
    if not np.all(np.isfinite(sol)):
        raise ResolventPoleError(f"spectral parameter {lam} is a pole")
    residual = np.max(np.abs(_tri_apply(ab, sol) - rhs))
    if residual > 1e-6 * max(scale, 1.0) * max(np.max(np.abs(sol)), 1.0):
        raise ResolventPoleError(f"solve at {lam} lost all accuracy (near pole)")
    # sandwich entries can vanish at a pole (green function zeros), so
    # probe the conditioning with an independent right hand side
    probe = np.random.default_rng(0).normal(size=n)
    probe /= np.linalg.norm(probe)
    cond_est = np.linalg.norm(solve_banded((1, 1), ab, probe)) * scale
    if cond_est > 1e11:
        raise ResolventPoleError(f"spectral parameter {lam} is numerically at an eigenvalue")
    out = np.zeros((k, k))
    for col, fi in enumerate(free):
        if fi is None:
            continue
        for row, fj in enumerate(free):
            if fj is not None:
                out[row, col] = sol[fj, col]
    out = 0.5 * (out + out.T)
    if weights is not None:
        w = np.asarray(weights, dtype=float)
        out = out * w[np.newaxis, :]
    return out


def _tri_apply(ab: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Apply the banded (1,1) matrix stored LAPACK-style to columns x."""
    n = ab.shape[1]
    y = ab[1, :, np.newaxis] * x
    y[:-1] += ab[0, 1:, np.newaxis] * x[1:]
    y[1:] += ab[2, :-1, np.newaxis] * x[:-1]
    return y


def positivity_scan(disc: PencilDiscretization, xi_grid) -> float | None:
    """First shift xi with A - xi B positive definite, else None.

    Positive definiteness is read off the LDL^T pivots: all positive
    with relative magnitude above 1e-13.
    """
    for xi in xi_grid:
        ((neg, _, min_rel),) = disc._sweeps([xi])
        if neg == 0 and min_rel > 1e-13:
            return float(xi)
    return None


def default_shift_grid() -> np.ndarray:
    """Shift candidates used when no reference shift is supplied."""
    mags = np.geomspace(1e-6, 1e8, 29)
    return np.concatenate(([0.0], -mags, mags))
