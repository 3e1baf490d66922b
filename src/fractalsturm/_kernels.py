"""Inertia kernels: a tridiagonal sweep and a level recursion.

The package calls two entries, and only PencilDiscretization._sweeps
chooses between them.  Both take a float64 array of lams and return for
each lam the record (negatives, near-zeros, smallest |pivot| / scale) of
A - lam B: counts read the negatives and near-zeros, shift checks the
negatives and the pivot ratio.

Both follow one rule for a pivot below the clamp: it is carried on as
sign * clamp, and an exact zero, as in LAPACK's bisection (dstebz and
dlaebz take any pivot below pivmin to -pivmin), is carried as -clamp
and counted as negative; nothing retries.  Clamping a pivot, in any elimination order, is the same as
moving that node's diagonal entry by at most the clamp, and a zero
carried as -clamp moves it down.  By Weyl the count then lies between
the number of eigenvalues of A - lam B below 0 and the number at or
below 0: an eigenvalue exactly at lam counts as lying between the shift
and lam, on either side of the shift.  A zero with a pivot after it
flips that pivot's sign with it, so there either sign of the clamp gives
the same count.

sturm_pivots_many(a_diag, a_off, b_diag, b_off, lams) sweeps the stored
tridiagonal pencil.  sturm_pivots(..., lam) is the same record at one
lam.  It is a function object of its own, not a name for _sweep, so
that a tracer that wraps every binding of both entries
(perfbench/tracer.py) counts each sweep of a batch once.

level_pivots_many(template, lams) counts a pair-route pencil, in which
every cell of one level is a scaled copy of one template, without its
arrays (see LevelTemplate).  By Haynsworth inertia additivity, In(M) =
In(M11) + In(M / M11), the interior of each cell is eliminated once per
level and distinct scaling, so a count costs O(depth) rather than a
sweep over 2^depth nodes, and no a_i - lam b_i is ever formed.  The
cells of the deepest level whose t-factors depend on the level (the
root on the self-similar route, level k on the k-th iterate) are swept
as one chain, left to right, which keeps the counts monotone in lam.
The chain is stored as runs of equal neighbouring ports (the k-th
iterate of the Cantor string is one run of 2^k), so each run's port is
scaled once per lam and each port costs one junction of the sweep.
There a pivot's ratio is its magnitude over the sum of the magnitudes
of the terms that formed it, and a pivot below _CLAMP of them (an exact
zero included) is clamped by the rule above and counted as a near-zero.
One loop, with no Python call per class or port, evaluates each pivot
in one fixed order (children left to right, levels bottom up, then the
chain port by port); that order keeps every record bit-identical to a
per-cell one.

Through the stored arrays, counting eigenvalues of the pencil (A, B)
reduces to one LDL^T sweep over the tridiagonal matrix A - lam*B per
query, and every bisection step and every counting-function sample
pays for one sweep.  The O(n) parts that vectorise (diagonal and
off-diagonal of A - lam*B, the pencil scale, the counts over the stored
pivots) run in numpy.  The pivot recurrence

    d_i = c_i - (e_{i-1} / d_{i-1}) * e_{i-1}

is sequential.  It runs in runs of LAPACK dpttrf, the LDL^T factorisation
of a positive definite tridiagonal matrix, which writes the pivots in
place and stops at the first pivot <= 0.  The kernel applies the clamp
rule to that pivot, computes the next pivot by hand and calls dpttrf
again on the tail.  A run that starts on a negative pivot goes to dpttrf
negated: negation is exact, so the pivots of -(A - lam B) are exactly
-d_i, and the run stops at the first pivot >= 0.  A plain loop over
Python floats carries the recurrence on instead in two cases: when the
runs get short (at least _MIN_RUNS runs averaging at most _RUN_NODES
nodes, as happens mid-spectrum where the pivot signs alternate), and
from the first nonzero pivot below the clamp that dpttrf carried on
unclamped.  Both paths evaluate the recurrence in the one operation
order above, so they give the same bits.

A LAPACK build that fuses d - (e/d)*e into one FMA (some aarch64
builds do) can differ from the Python continuation in the last bit; a
count can then move only where a pivot sits exactly on a tie.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from scipy.linalg.lapack import dpttrf

from .errors import InvalidParametersError

# The kernel is plain Python, numpy and LAPACK; perfbench records this flag.
NUMBA_ENABLED = False

# Pivots below _CLAMP * scale are clamped (sign preserved, an exact zero
# to -clamp and counted as negative) so that the recurrence never overflows;
# the clamp stays at least _TINY, the smallest normal float, so that it
# does not underflow to 0 on a pencil of tiny scale.
_CLAMP = 5e-32
_TINY = float(np.finfo(float).tiny)
# A pivot below _NEAR * scale in magnitude counts as a near-zero.
_NEAR = 1e-12
# Hand over to the Python loop once at least _MIN_RUNS dpttrf runs have
# covered at most _RUN_NODES nodes each on average.
_MIN_RUNS = 8
_RUN_NODES = 32
# The Python loop converts _BLOCK nodes to floats at a time; float lists
# over a whole 65,536-node tail ran about 20% slower per node (Python
# 3.11, 2-vCPU x86 host).
_BLOCK = 4096


def _carry(piv, clamp):
    """The value that carries a pivot on: piv, or sign * clamp when smaller (-clamp for 0)."""
    if -clamp < piv < clamp:
        return clamp if piv > 0.0 else -clamp
    return piv


def _runs(d, c, e, clamp):
    """Pivot recurrence over d (a copy of c) in dpttrf runs, in place.

    Returns i such that d[:i + 1] hold pivots: all of them when i is the
    last node, otherwise the runs got short and the recurrence is still
    to be carried on from d[i].
    """
    n = d.shape[0]
    mult = e.copy()  # dpttrf overwrites e_k with the multiplier e_k / d_k
    flip = None  # -c, made at the first run of negative pivots
    i = runs = 0
    while i < n - 1 and (runs < _MIN_RUNS or i > _RUN_NODES * runs):
        runs += 1
        if d[i] < 0.0:
            # a run of negative pivots is a positive run of the negation
            if flip is None:
                flip = -c
            flip[i] = -d[i]
            info = dpttrf(flip[i:], mult[i:], overwrite_d=1, overwrite_e=1)[2]
            stop = i + info if info else n
            np.negative(flip[i:stop], out=d[i:stop])
        else:
            info = dpttrf(d[i:], mult[i:], overwrite_d=1, overwrite_e=1)[2]
        if not info:
            return n - 1
        i += info - 1  # the pivot d[i] stopped the run: <= 0, or >= 0 after a flip
        if i < n - 1:
            ei = e[i]
            d[i + 1] = c[i + 1] - (ei / _carry(d[i], clamp)) * ei
            i += 1
    return i


def _loop(d, c, e, i, clamp):
    """Carry the recurrence on from the pivot d[i] to the end, in Python floats."""
    n = d.shape[0]
    prev = _carry(d[i].item(), clamp)
    for start in range(i + 1, n, _BLOCK):
        stop = min(start + _BLOCK, n)
        out = []
        append = out.append
        for ci, ei in zip(c[start:stop].tolist(), e[start - 1:stop - 1].tolist()):
            prev = ci - (ei / prev) * ei
            append(prev)
            if -clamp < prev < clamp:
                prev = clamp if prev > 0.0 else -clamp
        d[start:stop] = out


def _sweep(a_diag, a_off, b_diag, b_off, lam):
    """One clamped LDL^T sweep of A - lam B.

    Returns (negatives, near-zeros, smallest |pivot| / scale), where
    scale is the largest entry of A - lam B in magnitude, a near-zero is
    a pivot below _NEAR * scale and an exact zero counts as negative.
    """
    n = a_diag.shape[0]
    m = max(n - 1, 0)
    c = a_diag - lam * b_diag
    e = a_off[:m] - lam * b_off[:m]
    scale = max(float(np.max(np.abs(c), initial=0.0)), float(np.max(np.abs(e), initial=0.0)))
    if scale == 0.0:
        return n, n, 0.0
    clamp = max(_CLAMP * scale, _TINY)
    pivots = c.copy()
    i = _runs(pivots, c, e, clamp)
    mag = np.abs(pivots)
    if mag[:i].min(initial=np.inf) < clamp:
        # dpttrf carries a nonzero pivot below the clamp on unclamped; the
        # first such pivot is still exact, so redo the rest from there
        tiny = np.flatnonzero((pivots[:i] != 0.0) & (mag[:i] < clamp))
        if tiny.size:
            i = int(tiny[0])
    if i < n - 1:
        _loop(pivots, c, e, i, clamp)
        np.abs(pivots, out=mag)
    return (
        int(np.count_nonzero(pivots <= 0.0)),
        int(np.count_nonzero(mag < _NEAR * scale)),
        min(float(mag.min()) / scale, 1e308),
    )


def sturm_pivots(a_diag, a_off, b_diag, b_off, lam):
    """The _sweep record of A - lam B at one lam."""
    return _sweep(a_diag, a_off, b_diag, b_off, lam)


def sturm_pivots_many(a_diag, a_off, b_diag, b_off, lams):
    """The _sweep record of A - lam B at each lam of the float64 array lams."""
    return [_sweep(a_diag, a_off, b_diag, b_off, lam) for lam in lams.tolist()]


# A level template's band keeps s of its deepest cells at or above this
# normal float, 2^62 above the smallest one.
_S_FLOOR = 2.0**-960
_INF = float("inf")


class LevelTemplate(NamedTuple):
    """A pair-route pencil as level_pivots_many counts it.

    A cell's template at spectral parameter s is (nu, c, rho_l, rho_r):
    nu counts the negative pivots of its interior (its Dirichlet
    problem), and [[c + rho_l, -c], [-c, c + rho_r]] is the Schur
    complement on its two end nodes, in units of 1 / (r_mass * length)
    of the cell.  A deepest-level cell is one hat element, c = 1 + s M01,
    rho_l = -s (M00 + M01), rho_r = -s (M11 + M01), and s of a cell is
    lam * s_unit * its scale, the product of t_i m_i (t-length factor
    times P's d'_i) on its path from the root.  Cells whose scales agree
    to 1e-12 relative share one class and one evaluation per level, and
    every class is a child of one on the level above or a chain port.
    """

    s_unit: float
    """r_mass * p_scale."""
    quad: tuple[float, float, float]
    """(M00, M01, M11): the hat products of the route against dP."""
    leaves: tuple[float, ...]
    """The scale of each class of deepest-level cells."""
    levels: tuple[tuple[tuple[tuple[int, float], ...], ...], ...]
    """One table per level, from just above the leaves up to the chain
    level: per class its children left to right as (index of the child's
    class on the level below, 1 / t_i), index -1 for a massless letter,
    a wire of conductance 1 / t_i."""
    chain: tuple[tuple[int, float, int], ...]
    """The chain level's cells and the wires between them, left to right,
    as runs of equal neighbouring ports: (index into the chain level's
    classes or -1 for a wire, 1 / t the inverse t-length of each port,
    the number of ports in the run)."""
    left: float | None
    """Robin coefficient of the left end times r_mass; None for Dirichlet."""
    right: float | None

    @property
    def zero_band(self) -> float:
        """Half-width of the band around 0 taken as the zero eigenvalue.

        The smallest band in which s of every deepest-level cell stays a
        normal float, so that an exact zero mode (Neumann ends) counts as
        0 at -band and as 1 at +band at any depth.
        """
        smallest = abs(self.s_unit) * min((abs(x) for x in self.leaves), default=0.0)
        if smallest == 0.0:
            raise InvalidParametersError("zero weight matrix")
        return _S_FLOOR / smallest


def _level_inertia(template, lam):
    """The sturm_pivots record of a level template's pencil at lam.

    Each class gets the record (negatives, near-zeros, c, rho_l, rho_r)
    of its cell, its children joined left to right as ports: a class's
    template times 1 / t, or c = 1 / t, rho = 0 for a wire.  Joining
    port 1 to port 2 eliminates their shared node: with sigma = rho_1r +
    rho_2l the pivot is d = c1 + c2 + sigma, and the joined port has
    c = c1 c2 / d, rho_l = rho_1l + c1 sigma / d and rho_r = rho_2r +
    c2 sigma / d.  The pivot ratio is |d| / (|c1| + |c2| + |sigma|), as
    a joined c can be negative; below _NEAR it is a near-zero, below
    _CLAMP (an exact zero: ratio 0) it is clamped as _carry does.
    """
    s = lam * template.s_unit
    m00, m01, m11 = template.quad
    m0, m1 = m00 + m01, m11 + m01
    below = []
    for scale in template.leaves:
        x = s * scale
        below.append((0, 0, 1.0 + x * m01, -x * m0, -x * m1))
    low = _INF  # every class is a child of one above, so one minimum serves
    for table in template.levels:
        cells = []
        for children in table:
            neg = near = 0
            c = None
            for index, inv_t in children:
                if index < 0:
                    c2, l2, r2 = inv_t, 0.0, 0.0
                else:
                    n, z, c2, l2, r2 = below[index]
                    neg, near = neg + n, near + z
                    c2, l2, r2 = c2 * inv_t, l2 * inv_t, r2 * inv_t
                if c is None:
                    c, l, r = c2, l2, r2
                    continue
                sigma = r + l2
                d = c + c2 + sigma
                size = abs(c) + abs(c2) + abs(sigma)
                ratio = abs(d) / size if size > 0.0 else 0.0
                if ratio < low:
                    low = ratio
                if ratio < _NEAR:
                    near += 1
                    d = _carry(d, max(_CLAMP * size, _TINY))
                neg += d < 0.0
                c, l, r = c * c2 / d, l + c * sigma / d, r2 + c2 * sigma / d
            cells.append((neg, near, c, l, r))
        below = cells
    return _chain(template, below, low)


def _chain(template, cells, low):
    """The record of the top cell: template.chain's ports swept left to right.

    The sweep runs in row-sum form, in which counts stay monotone in lam
    (Demmel, Dhillon & Ren, ETNA 3, 1995).  At the node between ports
    c_in and c_out the shunt is sigma = rho_r of c_in + rho_l of c_out,
    the row sum row = sigma + c_in row' / pivot' carries on from the
    node before, and the pivot is row + c_out, with the ratio and clamp
    of a junction.  A Robin end is a node next to a port with c = 0 and
    the Robin coefficient as its rho; past an eliminated Dirichlet end
    node c_in row' / pivot' is c_in.  Each run of equal ports is scaled
    once and adds its ports' interior counts times its length; past the
    run's first junction c_in is c_out and sigma is rho_r + rho_l of the
    run's port, so |sigma| and |c_out| are taken once per run.
    """
    neg = near = 0
    c_in, r_in = (None, None) if template.left is None else (0.0, template.left)
    row = pivot = 1.0  # c_in * row / pivot is c_in at the first node
    for index, inv_t, count in template.chain:
        if index < 0:
            c2, l2, r2 = inv_t, 0.0, 0.0
        else:
            n, z, c2, l2, r2 = cells[index]
            neg, near = neg + n * count, near + z * count
            c2, l2, r2 = c2 * inv_t, l2 * inv_t, r2 * inv_t
        if c_in is None:  # the first port after a Dirichlet end: no node before it
            c_in, r_in, count = c2, r2, count - 1
        sigma, inner, size_c = r_in + l2, r2 + l2, abs(c2)
        size_sigma, size_inner = abs(sigma), abs(inner)
        for _ in range(count):
            through = c_in * row / pivot
            row = sigma + through
            pivot = row + c2
            size = size_sigma + abs(through) + size_c
            ratio = abs(pivot) / size if size > 0.0 else 0.0
            if ratio < low:
                low = ratio
            if ratio < _NEAR:
                near += 1
                pivot = _carry(pivot, max(_CLAMP * size, _TINY))
            neg += pivot < 0.0
            c_in, sigma, size_sigma = c2, inner, size_inner
        c_in, r_in = c2, r2
    if template.right is not None:  # the last node: c_out = 0, no pivot after it
        sigma, through = r_in + template.right, c_in * row / pivot
        pivot, size = sigma + through, abs(sigma) + abs(through)
        ratio = abs(pivot) / size if size > 0.0 else 0.0
        low = min(low, ratio)
        near, neg = near + (ratio < _NEAR), neg + (pivot <= 0.0)
    return neg, near, min(low, 1e308)


def level_pivots_many(template, lams):
    """The sturm_pivots_many record at each lam of the float64 array lams, from a LevelTemplate."""
    return [_level_inertia(template, lam) for lam in lams.tolist()]
