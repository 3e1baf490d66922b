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
Every cell of one level of such a pencil is a scaled copy of one
template, so these two routes build per-level letter tables (a
_kernels.LevelTemplate) in O(depth), and count and find eigenvalues
from them.  The cells above the tables come from a walk over runs of
equal cells in plain floats; the 2^depth arrays come from the same walk
over every level, only when a caller reads them explicitly.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np
from scipy.linalg.lapack import dgtsv

from . import _kernels
from .errors import (
    InvalidParametersError,
    ResolventPoleError,
    UnsupportedConfigurationError,
)
from .measures import CompositeMeasure, _cluster_starts, _frozen, _locate, _run_sums
from .selfsim import (
    MonotonePrimitive,
    SelfSimilarParams,
    _children,
    _columns,
    _require_same_cells,
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
# A pair-route pencil builds its arrays only if its walk has at most this
# many rows (2^25 - 1 at depth 24 of the Cantor pair).
_MAX_NODES = 2**25
# Mesh candidates within this distance of the first of their cluster merge.
_MESH_MERGE = 1e-13
# node_index finds a mesh node within this distance of the position asked for.
_NODE_SLACK = 1e-9
# The general stamping splits a straddling self-similar cell at most this
# many levels below the mesh depth before it lumps the cell.
_EXTRA_LEVELS = 30


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


# The arrays of a pencil; a pair-route pencil builds them on first read.
_ARRAYS = ("nodes", "a_diag", "a_off", "b_diag", "b_off")


@dataclass(frozen=True, eq=False)
class PencilDiscretization:
    """Symmetric tridiagonal pencil (A, B) over hat functions.

    nodes lists the full mesh; the arrays hold the reduced pencil after
    eliminating Dirichlet ends.  free_start is the one record of the
    eliminated ends: it tells how many leading nodes were dropped (0 or
    1), and the right end was dropped when the n_free free nodes from
    free_start on stop short of it.  The pencil's arrays are read-only
    float64 arrays that nothing else can write to (copies where needed),
    so it never changes, and it remembers what the inertia kernel
    returned at each spectral parameter it was swept at.  The arrays
    must be finite (InvalidParametersError on NaN or inf), since the
    LAPACK solves of the polish and resolvent_sandwich do not check.
    Pencils compare and hash by identity.

    A pencil from assemble_selfsimilar_pair or assemble_iterated_pair
    also holds its level template, and every count, shift check and
    eigenvalue search on it runs from that: the kernel counts it there,
    and _slopes gives the Newton steps of its eigenvalue searches, so no
    search reads its arrays.  Its arrays come from _pair_arrays, the run
    walk over every level, only when a caller reads them explicitly (the
    fields below, n_free, or resolvent_sandwich), through this
    constructor and its finiteness check; over the node cap that read
    raises UnsupportedConfigurationError before the walk.
    """

    nodes: np.ndarray
    a_diag: np.ndarray
    a_off: np.ndarray
    b_diag: np.ndarray
    b_off: np.ndarray
    free_start: int
    # lam -> (negatives, near-zeros, min pivot ratio)
    _memo: dict = field(default_factory=dict, init=False, repr=False)
    # the _kernels.LevelTemplate of a pair-route pencil, and the call
    # that builds its arrays
    _levels: _kernels.LevelTemplate | None = field(default=None, init=False, repr=False)
    _build: Callable[[], PencilDiscretization] | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        for name in _ARRAYS:
            arr = _frozen(getattr(self, name))
            if not np.isfinite(arr).all():
                raise InvalidParametersError(f"pencil array {name} holds NaN or inf")
            object.__setattr__(self, name, arr)

    @classmethod
    def _from_template(cls, levels, free_start: int, build) -> "PencilDiscretization":
        """A pencil counted by its level template; build() makes its arrays on first read."""
        disc = object.__new__(cls)
        for name, value in (
            ("free_start", free_start), ("_memo", {}), ("_levels", levels), ("_build", build)
        ):
            object.__setattr__(disc, name, value)
        return disc

    def __getattr__(self, name):
        # reached only for attributes the instance lacks: the arrays of a
        # pair-route pencil before their first read
        build = self.__dict__.get("_build")
        if build is None or name not in _ARRAYS:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        built = build()
        for key in _ARRAYS:
            object.__setattr__(self, key, getattr(built, key))
        return getattr(self, name)

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

    @cached_property
    def _sum_ratio(self) -> float:
        """|A| / |B| in the entrywise 1-norm; read after _norm_ratio, which rejects B = 0."""
        norm_a, norm_b = (np.abs(d).sum() + 2.0 * np.abs(o).sum() for d, o in (
            (self.a_diag, self.a_off), (self.b_diag, self.b_off)))
        return float(norm_a / norm_b)

    @cached_property
    def _b_semidefinite(self) -> bool:
        """B >= 0: the clamped LDL^T sweep of -B = 0 - 1 B counts every pivot as <= 0.

        A zero row of B makes an exact zero pivot, which the sweep counts
        as negative; so it is -B that is swept, not B.
        """
        zero_diag, zero_off = np.zeros_like(self.b_diag), np.zeros_like(self.b_off)
        return _kernels._sweep(zero_diag, zero_off, self.b_diag, self.b_off, 1.0)[0] == self.n_free

    def _sweeps(self, lams) -> list[tuple]:
        """(negatives, near-zeros, smallest |pivot| / scale) at each lam.

        The record is the kernel's, stored as it is: an exact zero pivot
        counts as negative.  One kernel call covers the lams not yet
        swept: level_pivots_many for a pencil with a level template,
        sturm_pivots_many over the arrays otherwise; a lam already swept
        costs nothing.  Answers are read into a local dict before the
        memo may be cleared, so a query that races another thread's clear
        at worst sweeps again.  Every count and shift check passes here,
        and a NaN or infinite lam raises InvalidParametersError before
        any kernel runs.
        """
        memo = self._memo
        lams = [float(x) for x in lams]
        got = {lam: memo.get(lam) for lam in lams}
        missing = [lam for lam, value in got.items() if value is None]
        if missing:
            bad = [lam for lam in missing if not math.isfinite(lam)]
            if bad:
                raise InvalidParametersError(f"spectral parameter {bad[0]} is not finite")
            if self._levels is not None:
                records = _kernels.level_pivots_many(self._levels, np.array(missing))
            else:
                records = _kernels.sturm_pivots_many(
                    self.a_diag, self.a_off, self.b_diag, self.b_off, np.array(missing)
                )
            for lam, value in zip(missing, records):
                if len(memo) >= _MEMO_SIZE:
                    memo.clear()
                got[lam] = memo[lam] = value
        return [got[lam] for lam in lams]

    def _slopes(self, lams) -> list[float]:
        """(log |det(A - lam B)|)' at each lam, from the level template.

        One level_slopes_many call; each lam's record goes into the memo,
        so that counts and shift checks read it as if _sweeps had swept
        it.  Only a pencil with a level template has this entry.
        """
        lams = [float(x) for x in lams]
        memo = self._memo
        slopes = []
        for lam, (record, slope) in zip(lams, _kernels.level_slopes_many(self._levels, np.array(lams))):
            if len(memo) >= _MEMO_SIZE:
                memo.clear()
            memo[lam] = record
            slopes.append(slope)
        return slopes

    def free_index(self, node_idx: int) -> int | None:
        """Reduced index of a mesh node, None if it was eliminated."""
        i = node_idx - self.free_start
        return i if 0 <= i < self.n_free else None

    def node_index(self, x: float) -> int:
        j = int(np.searchsorted(self.nodes, x))
        for cand in (j - 1, j):
            if 0 <= cand < self.nodes.size and abs(self.nodes[cand] - x) <= _NODE_SLACK:
                return cand
        raise InvalidParametersError(f"no mesh node at {x}")


def _dedupe(xs: np.ndarray) -> np.ndarray:
    # the candidates come mostly as sorted runs, which the stable sort (timsort) merges
    xs = np.sort(xs, kind="stable")
    keep = xs[_cluster_starts(xs, _MESH_MERGE)]
    keep[0] = 0.0
    keep[-1] = 1.0
    return keep


def _mesh_nodes(parts, depth: int) -> np.ndarray:
    """Mesh of the (measure, leaves) parts, leaves the support_cells of its self-similar part."""
    cand = [np.array([0.0, 1.0])]
    has_selfsim = False
    has_density = False
    for mu, leaves in parts:
        if mu.selfsim is not None:
            has_selfsim = True
            params = mu.selfsim[0]
            left = leaves[:, 0]
            right = left + leaves[:, 1]
            cand.append(left)
            # a right end equal to the next left end is dropped: an exact
            # duplicate never opens a cluster of its own, and the copy that
            # stays is the same float, so the mesh is unchanged
            apart = np.ones(right.size, dtype=bool)
            apart[:-1] = right[:-1] != left[1:]
            cand.append(right[apart])
            branching = sum(1 for dp in params.dprime if dp != 0.0)
            if branching <= 1:
                jump_depth = min(depth, 48)
            else:
                jump_depth = min(depth, int(np.log(4096.0) / np.log(branching)))
            pos, jump = jump_atoms(params, max(1, jump_depth)).T
            # cap the mesh size; dropped atoms still get lumped in-cell
            cand.append(pos[np.argsort(-np.abs(jump), kind="stable")[:4096]])
        cand.append(mu.atoms[:, 0])
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

        The positions need not be sorted.  A mass within 1e-12 of a node
        lands on that node (the left one when two qualify).  A mass w
        between nodes j and j + 1, at hat value
        al = (x_{j+1} - x) / (x_{j+1} - x_j), adds w al^2 to diagonal entry
        j, w (1 - al)^2 to entry j + 1 and w al (1 - al) to off-diagonal
        entry j; only these masses form the products.  The diagonal entries
        go to np.add.at as one sequence in input order, one entry per mass
        on a node and two per mass between nodes, so shared entries add up
        in the order the masses come.
        """
        nodes = self.nodes
        j = np.searchsorted(nodes, pos)
        on_left = (j >= 1) & (np.abs(nodes[np.maximum(j - 1, 0)] - pos) <= 1e-12)
        on_right = (j < nodes.size) & (np.abs(nodes[np.minimum(j, nodes.size - 1)] - pos) <= 1e-12)
        hit = on_left | on_right
        k = np.flatnonzero(~hit)
        if k.size == 0:
            np.add.at(self.diag, j - on_left, weight)
            return
        jb = np.clip(j[k] - 1, 0, nodes.size - 2)
        w = weight[k]
        al = (nodes[jb + 1] - pos[k]) / (nodes[jb + 1] - nodes[jb])
        flat_idx = np.stack((jb, jb + 1), axis=1).ravel()
        flat_val = np.stack((w * al * al, w * (1.0 - al) * (1.0 - al)), axis=1).ravel()
        h = np.flatnonzero(hit)
        if h.size:
            # the t-th mass on a node comes after the pairs of the h[t] - t
            # masses between nodes before it
            at = 2 * (h - np.arange(h.size))
            flat_idx = np.insert(flat_idx, at, j[h] - on_left[h])
            flat_val = np.insert(flat_val, at, weight[h])
        np.add.at(self.diag, flat_idx, flat_val)
        np.add.at(self.off, jb, w * al * (1.0 - al))

    def add_density(self, density):
        mids = 0.5 * (self.nodes[:-1] + self.nodes[1:])
        vals = density(mids)
        h = np.diff(self.nodes)
        self.diag[:-1] += vals * h / 3.0
        self.diag[1:] += vals * h / 3.0
        self.off += vals * h / 6.0

    def add_selfsim(self, params: SelfSimilarParams, scale: float, leaves: np.ndarray, depth: int):
        """Stamp scale * dP, exact per cell of the self-similar tree.

        leaves holds the live cells of level `depth` (support_cells rows),
        whose ends are mesh nodes; the walk starts there and goes down one
        level at a time, parent-major, and the junction atoms of the levels
        above come from one jump_atoms call.  A cell that fits one mesh
        interval (1e-12 slack) is stamped through the copy moments; a
        straddling cell emits its junction atoms and splits into its live
        children.  What still straddles at level depth + _EXTRA_LEVELS is
        lumped at its midpoint.  Each stamp is the value a depth-first walk
        from the root computes.  That walk stamps a cell above the leaves
        whole where it fits within the slack or has one live letter; stamping
        its leaves and junction atoms instead is exact per cell too.
        Within a level shared entries are summed left to right as that
        walk does; where cells of different levels or junction atoms share
        an entry the order differs, so a sum can move in its last bits
        (tests allow 1e-13 relative).
        """
        mu = moments(params, 2)
        nodes = self.nodes
        gaps = np.asarray(junction_gaps(params))
        jumpy = np.flatnonzero(gaps != 0.0) + 1
        if jumpy.size and depth > 0:
            pos, jump = jump_atoms(params, depth).T
            self.add_atoms(pos, scale * jump)

        def stamp(j, xl, xr, lf, wf, weight):
            # cells inside one mesh interval each: the copy moments carry
            # their full Stieltjes content, interior jumps included
            h = xr - xl
            al = (xr - lf) / h
            bl = -wf / h
            ar = (lf - xl) / h
            br = wf / h
            w = scale * weight
            dl = w * (al * al * mu[0] + 2 * al * bl * mu[1] + bl * bl * mu[2])
            dr = w * (ar * ar * mu[0] + 2 * ar * br * mu[1] + br * br * mu[2])
            np.add.at(self.diag, np.stack((j, j + 1), axis=1).ravel(), np.stack((dl, dr), axis=1).ravel())
            np.add.at(self.off, j, w * (al * ar * mu[0] + (al * br + ar * bl) * mu[1] + bl * br * mu[2]))

        left, width, weight, offset = leaves.T
        # the leaves run left to right, so one merge finds their intervals
        # (the few children of straddling cells below use np.searchsorted)
        j = np.clip(_locate(nodes, left, "right") - 1, 0, nodes.size - 2)
        for level in range(depth, depth + _EXTRA_LEVELS + 1):
            xl, xr = nodes[j], nodes[j + 1]
            fits = (left >= xl - 1e-12) & (left + width <= xr + 1e-12)
            if fits.all():
                stamp(j, xl, xr, left, width, weight)
                return
            stamp(*(x[fits] for x in (j, xl, xr, left, width, weight)))
            straddle = ~fits
            left, width, weight, offset, j = (x[straddle] for x in (left, width, weight, offset, j))
            if level == depth + _EXTRA_LEVELS:
                break
            # splitting into copies loses the junction atoms between
            # neighbouring copy values; emit them explicitly
            if jumpy.size:
                self.add_atoms(
                    _columns(width, params.alpha[jumpy], left).ravel(),
                    _columns(scale * weight, gaps[jumpy - 1]).ravel(),
                )
            left, width, weight, offset = _children(params, left, width, weight, offset).T
            j = np.clip(np.searchsorted(nodes, left, side="right") - 1, 0, nodes.size - 2)
        # unresolvable straddles at the maximum depth: lump the remaining
        # (vanishingly small) cell mass at its midpoint
        mid = left + 0.5 * width
        al = (nodes[j + 1] - mid) / (nodes[j + 1] - nodes[j])
        w = scale * weight * mu[0]
        np.add.at(self.diag, j, w * al * al)
        np.add.at(self.diag, j + 1, w * (1 - al) * (1 - al))
        np.add.at(self.off, j, w * al * (1 - al))

    def add_measure(self, mu: CompositeMeasure, leaves: np.ndarray | None, depth: int):
        self.add_atoms(mu.atoms[:, 0], mu.atoms[:, 1])
        if mu.density is not None and np.any(mu.density.values):
            self.add_density(mu.density)
        if mu.selfsim is not None:
            self.add_selfsim(mu.selfsim[0], mu.selfsim[1], leaves, depth)


def _finalize(
    nodes: np.ndarray,
    a_diag: np.ndarray,
    a_off: np.ndarray,
    b_diag: np.ndarray,
    b_off: np.ndarray,
    bc: BoundaryCondition,
) -> PencilDiscretization:
    lo, hi = 0, nodes.size
    if bc.left is None:
        lo = 1
    else:
        a_diag[0] += bc.left
    if bc.right is None:
        hi -= 1
    else:
        a_diag[-1] += bc.right
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
    )


def assemble(
    r_mass: float,
    q: CompositeMeasure | float,
    p: CompositeMeasure,
    bc: BoundaryCondition,
    depth: int = 8,
) -> PencilDiscretization:
    """Assemble the pencil for -(1/r_mass) u'' + q u = lam p u on [0,1].

    q may be a plain number c, read as c * Lebesgue.  p must be nonzero,
    and depth >= 0.
    """
    if depth < 0:
        raise InvalidParametersError("depth must be >= 0")
    if isinstance(q, (int, float)):
        q = CompositeMeasure.lebesgue(float(q)) if q else CompositeMeasure()
    if r_mass <= 0.0:
        raise InvalidParametersError("total r mass must be positive")
    if p.is_zero():
        raise InvalidParametersError("weight measure p is zero")

    # each self-similar tree is expanded once, to the depth-`depth` cells
    # that both the mesh and the stamping start from
    p_leaves, q_leaves = (
        None if mu.selfsim is None else support_cells(mu.selfsim[0], depth) for mu in (p, q)
    )
    nodes = _mesh_nodes(((p, p_leaves), (q, q_leaves)), depth)
    h = np.diff(nodes)
    stiff = 1.0 / (r_mass * h)
    a_diag = np.zeros(nodes.size)
    a_diag[:-1] += stiff
    a_diag[1:] += stiff
    a_off = -stiff

    qa = _Accumulator(nodes)
    qa.add_measure(q, q_leaves, depth)
    a_diag += qa.diag
    a_off = a_off + qa.off

    pa = _Accumulator(nodes)
    pa.add_measure(p, p_leaves, depth)
    return _finalize(nodes, a_diag, a_off, pa.diag, pa.off, bc)


def _merged(runs):
    """The runs (x, y, count) of a nonempty sequence, neighbours with equal (x, y) merged."""
    # NaN equals nothing, so the first run opens
    last_x = last_y = math.nan
    last_count = 0
    for x, y, count in runs:
        if x == last_x and y == last_y:
            last_count += count
        else:
            if last_count:
                yield last_x, last_y, last_count
            last_x, last_y, last_count = x, y, count
    yield last_x, last_y, last_count


def _walk_runs(p: SelfSimilarParams, factors) -> list[tuple[float, float, int]]:
    """Leaves of the cell tree from the root over `factors`, as runs of equal neighbours.

    factors holds one tuple per level, top level first: entry i is the
    horizontal shrink of letter i at that level.  Each run is (t_length,
    mass_weight, count), left to right, in Python floats.  Level by level
    a cell with mass gives way to its children in letter order, one per
    letter with nonzero shrink, whose t_length and mass_weight are the
    products a depth-first walk from the root forms; a massless cell
    stays, one resistor segment (its mass may be -0.0).  Equal children
    of a run make one run of count x letters (the Cantor iterate's 2^k
    chain cells are one run).  Raises UnsupportedConfigurationError for
    atoms of dP at cell junctions, which no pair route takes, and for dP
    mass under a letter with zero shrink (an atom on the image axis).
    """
    if any(abs(g) > _TOL for g in junction_gaps(p)):
        raise UnsupportedConfigurationError(
            "dP carries atoms at cell junctions; assemble from the composite measure instead"
        )
    dprime = p.dprime
    runs = [(1.0, 1.0, 1)]
    for tf in factors:
        for i, (t, d) in enumerate(zip(tf, dprime)):
            if t == 0.0 and d != 0.0 and any(m * d != 0.0 for _, m, _ in runs):
                raise UnsupportedConfigurationError(f"cell letter {i}: dP mass sits on a plateau of R")
        letters = [(t, d) for t, d in zip(tf, dprime) if t != 0.0]
        cells = []
        for t, m, count in runs:
            if m == 0.0:
                cells.append((t, m, count))
                continue
            kids = [(t * f, m * d, 1) for f, d in letters]
            if kids.count(kids[0]) == len(kids):
                cells.append((*kids[0][:2], count * len(kids)))
            else:
                cells += kids * count
        runs = list(_merged(cells))
    return runs


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


def _classes(values: list[float]) -> tuple[list[int], list[float]]:
    """The class of each value, and the classes: values within 1e-12 relative share one.

    A class opens at its smallest value, so no class spans more than
    1e-12 relative; rounding in the products of t_i m_i along different
    paths stays far below that.  Equal values share a class, so only the
    distinct ones are sorted, and when all of them are equal (every level
    of the Cantor pair) there is nothing to sort: one class, opened at the
    first value, which is the one the sort would keep.
    """
    if values and values.count(values[0]) == len(values):
        return [0] * len(values), values[:1]
    opened: dict[float, int] = {}
    classes: list[float] = []
    for v in sorted(set(values)):
        if not classes or v - classes[-1] > 1e-12 * abs(classes[-1]):
            classes.append(v)
        opened[v] = len(classes) - 1
    return [opened[v] for v in values], classes


def _pair_pencil(
    p: SelfSimilarParams,
    factors: tuple,
    chain_level: int,
    quad: np.ndarray,
    r_mass: float,
    bc: BoundaryCondition,
    p_scale: float,
) -> PencilDiscretization:
    """A pair-route pencil counted by its level template, arrays built on first read.

    factors holds the letter shrinks of each level, as _walk_runs
    reads them.  The ports of the template's chain are the cells of
    chain_level, the deepest level whose factors still depend on the
    level, and the massless segments above them: _walk_runs gives them
    as runs of equal cells, which raises for junction atoms and for dP
    mass on a plateau of R there, and neighbouring equal ports merge
    into one run of the chain.  Below it the letter tables give each
    level's classes and raise for mass on a plateau as the walk does.
    Its arrays come from _pair_arrays on first read.
    """
    n = p.n
    dprime = p.dprime
    runs = _walk_runs(p, factors[:chain_level])
    index, classes = _classes([t * m for t, m, _ in runs if m != 0.0])
    slot = iter(index)
    chain = tuple(_merged((next(slot) if m != 0.0 else -1, 1.0 / t, count) for t, m, count in runs))
    tables = []
    # per distinct factor tuple: a plateau letter with mass, the live
    # letters' products, each letter's port, and the level tables made
    # so far by the class index of each child, one tuple for every level
    # that repeats it
    letter_lists = {}
    for tf in factors[chain_level:]:
        letters = letter_lists.get(tf)
        if letters is None:
            letters = letter_lists[tf] = (
                [i for i in range(n) if tf[i] == 0.0 and dprime[i] != 0.0],
                [(tf[i], dprime[i]) for i in range(n) if tf[i] != 0.0 and dprime[i] != 0.0],
                [(dprime[i] != 0.0, 1.0 / tf[i]) for i in range(n) if tf[i] != 0.0],
                {},
            )
        flat, live, ports, shared = letters
        if classes and flat:
            raise UnsupportedConfigurationError(
                f"cell letter {flat[0]}: dP mass sits on a plateau of R"
            )
        index, below = _classes([scale * f * d for scale in classes for f, d in live])
        key = tuple(index)
        table = shared.get(key)
        if table is None:
            slot = iter(index)
            table = shared[key] = tuple(
                tuple((next(slot) if massive else -1, inv) for massive, inv in ports)
                for _ in classes
            )
        tables.append(table)
        classes = below
    if bc.left is None and bc.right is None and (
        not classes or (chain_level == len(factors) and sum(run[2] for run in chain) == 1)
    ):
        # a single segment, as _finalize would find
        raise InvalidParametersError("no free nodes left after constraints")
    levels = _kernels.LevelTemplate(
        s_unit=r_mass * p_scale,
        quad=tuple(float(x) for x in quad),
        leaves=tuple(classes),
        levels=tuple(reversed(tables)),
        chain=chain,
        left=None if bc.left is None else bc.left * r_mass,
        right=None if bc.right is None else bc.right * r_mass,
    )
    return PencilDiscretization._from_template(
        levels, 0 if bc.left is not None else 1, partial(_pair_arrays, p, factors, quad, r_mass, bc, p_scale)
    )


def _pair_arrays(
    p: SelfSimilarParams, factors: tuple, quad: np.ndarray, r_mass: float, bc: BoundaryCondition, p_scale: float
) -> PencilDiscretization:
    """The arrays of a _pair_pencil: _assemble_from_segments over the rows of _walk_runs.

    Before the walk the rows are counted from the root (a live cell gives
    way to its letters with shrink and stays live under those with d' !=
    0; an upper bound where a mass underflows to 0), and more than
    _MAX_NODES raise UnsupportedConfigurationError.  The runs expand to
    rows by np.repeat, a -0.0 mass becoming +0.0, so that no massless row
    stamps a signed zero.
    """
    rows = live = 1
    for tf in factors:
        rows += live * (sum(t != 0.0 for t in tf) - 1)
        live *= sum(t != 0.0 and d != 0.0 for t, d in zip(tf, p.dprime))
    if rows > _MAX_NODES:
        raise UnsupportedConfigurationError(
            f"depth {len(factors)}: the walk for the pencil's arrays would make {rows} "
            f"rows, over the cap of {_MAX_NODES}; counts and eigenvalues need no arrays"
        )
    lengths, masses, counts = zip(*_walk_runs(p, factors))
    mass = np.repeat(masses, counts)
    mass[mass == 0.0] = 0.0  # no signed zeros
    segments = np.stack((np.repeat(lengths, counts), mass), axis=1)
    return _assemble_from_segments(segments, quad, r_mass, bc, p_scale)


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
    int R^l dP.  Requires depth >= 0.
    """
    if depth < 0:
        raise InvalidParametersError("depth must be >= 0")
    m = pair_moments(r, p, 2)
    quad = np.array([m[0] - 2 * m[1] + m[2], m[1] - m[2], m[2]])
    return _pair_pencil(p, (r.params.dprime,) * depth, 0, quad, r_mass, bc, p_scale)


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
    _require_same_cells(r_base, p)
    rp = r_base.params
    mu = moments(p, 2)
    quad = np.array([mu[0] - 2 * mu[1] + mu[2], mu[1] - mu[2], mu[2]])
    factors = (rp.dprime,) * k + (rp.a,) * (depth - k)
    return _pair_pencil(p, factors, k, quad, r_mass, bc, p_scale)


def resolvent_sandwich(disc: PencilDiscretization, positions, lam: float) -> np.ndarray:
    """Matrix of the resolvent evaluated between atom sites.

    Entry (i, j) is e_i^T (A - lam B)^{-1} e_j over the hat coefficients
    at the given node positions; a position eliminated by a Dirichlet
    condition contributes a zero row and column.  The unit columns and a
    random probe of the conditioning are solved together by _tri_solve,
    one LAPACK dgtsv call, and the residual is checked by _tri_mul.
    Raises ResolventPoleError when lam is (numerically) in the spectrum.
    """
    positions = list(positions)
    k = len(positions)
    free = []
    for pos in positions:
        free.append(disc.free_index(disc.node_index(pos)))
    n = disc.n_free
    diag, off = disc.a_diag - lam * disc.b_diag, disc.a_off - lam * disc.b_off
    # right hand sides as rows: the unit columns, then the probe
    rhs = np.zeros((k + 1, n))
    for col, fi in enumerate(free):
        if fi is not None:
            rhs[col, fi] = 1.0
    # sandwich entries can vanish at a pole (green function zeros), so
    # probe the conditioning with an independent right hand side
    probe = np.random.default_rng(0).normal(size=n)
    rhs[k] = probe / np.linalg.norm(probe)
    scale = np.max(np.abs(np.concatenate((diag, off))))
    sol = _tri_solve(diag, off, rhs.T)
    if sol is None or not np.all(np.isfinite(sol)):
        raise ResolventPoleError(f"spectral parameter {lam} is a pole")
    sol = sol.T
    residual = np.max(np.abs(_tri_mul(diag, off, sol[:k]) - rhs[:k]), initial=0.0)
    if residual > 1e-6 * max(scale, 1.0) * max(np.max(np.abs(sol[:k]), initial=0.0), 1.0):
        raise ResolventPoleError(f"solve at {lam} lost all accuracy (near pole)")
    cond_est = np.linalg.norm(sol[k]) * scale
    if cond_est > 1e11:
        raise ResolventPoleError(f"spectral parameter {lam} is numerically at an eigenvalue")
    out = np.zeros((k, k))
    for col, fi in enumerate(free):
        if fi is None:
            continue
        for row, fj in enumerate(free):
            if fj is not None:
                out[row, col] = sol[col, fj]
    return 0.5 * (out + out.T)


def _tri_mul(diag: np.ndarray, off: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The symmetric tridiagonal matrix (diag, off) times x along x's last axis."""
    y = diag * x
    y[..., :-1] += off * x[..., 1:]
    y[..., 1:] += off * x[..., :-1]
    return y


def _tri_solve(diag: np.ndarray, off: np.ndarray, rhs: np.ndarray) -> np.ndarray | None:
    """x with T x = rhs for the symmetric tridiagonal T = (diag, off), None if T is singular.

    One LAPACK dgtsv call on copies of the arrays (dgtsv overwrites
    both off-diagonals, so each gets its own), rhs one column or an
    (n, m) block; dgtsv reports an exact zero pivot of its partial
    pivoting LU as info > 0.  scipy's wrapper wants off-diagonals of
    length 1 at n = 1, where dgtsv never reads them.
    """
    off = off if off.size else np.zeros(1)
    _, _, _, x, info = dgtsv(off, diag, off, rhs)
    return None if info > 0 else x


def positivity_scan(disc: PencilDiscretization, xi_grid) -> float | None:
    """First shift xi with A - xi B positive definite, else None.

    Positive definiteness is read off the LDL^T pivots: all positive
    with relative magnitude above 1e-13.  The candidate 0 is skipped on
    a pencil whose level template has Neumann ends on both sides
    (left == right == 0.0; the pair routes have q = 0), where A 1 = 0:
    at lam = 0 every rho of such a template is +-0 exactly, so the last
    pivot of its chain is +-0, which the kernel counts as negative with
    ratio 0, and the sweep would reject 0 anyway.
    """
    levels = disc._levels
    zero_mode = levels is not None and levels.left == levels.right == 0.0
    for xi in xi_grid:
        if zero_mode and xi == 0.0:
            continue
        ((neg, _, min_rel),) = disc._sweeps([xi])
        if neg == 0 and min_rel > 1e-13:
            return float(xi)
    return None


_SHIFT_GRID = np.concatenate(
    ([0.0], -np.geomspace(1e-6, 1e8, 29), np.geomspace(1e-6, 1e8, 29))
)
_SHIFT_GRID.flags.writeable = False


def default_shift_grid() -> np.ndarray:
    """Shift candidates used when no reference shift is supplied.

    The same read-only array on every call: 0, then -1e-6 down to -1e8
    and 1e-6 up to 1e8, two points per decade.
    """
    return _SHIFT_GRID
