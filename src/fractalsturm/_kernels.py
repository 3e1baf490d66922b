"""Inertia kernels: a tridiagonal sweep and a level recursion.

The package counts through two entries, and only
PencilDiscretization._sweeps chooses between them.  Both take a float64
array of lams and return for each lam the record (negatives, near-zeros,
smallest |pivot| / scale) of A - lam B: counts read the negatives and
near-zeros, shift checks the negatives and the pivot ratio.  A third,
level_slopes_many, adds a derivative for the Newton steps of eigenvalue
searches (PencilDiscretization._slopes).

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
scaled once per lam.  A run's first two junctions and its last are
swept; the junctions between them obey a constant three-term
recurrence, whose sign changes _run counts in closed form (see there),
so a count costs O(levels + runs) rather than O(2^k).  There a pivot's
ratio is its magnitude over the sum of the magnitudes of the terms that
formed it, and a pivot below _CLAMP of them (an exact zero included) is
clamped by the rule above and counted as a near-zero.  One loop, with
no Python call per class or port, evaluates each pivot in one fixed
order (children left to right, levels bottom up, then the chain);
that order keeps every record bit-identical to a per-cell one wherever
no run is long enough for the closed form, a run of at most three
ports.  In a longer run the closed form changes the rounding: on the
templates the tests check, its counts differ from a port-by-port sweep
only within 1e-13 relative of an eigenvalue; its pivot ratio comes from
the run's swept pivots and its last closed-form one, and a near-zero
pivot inside the run is not flagged (its crossing is counted once
either way).

level_slopes_many(template, lams) is the same recursion carrying the
lam-derivative of every template quantity by the quotient rule, for the
Newton steps of eigenvalue searches: it returns each lam's record, the
same bits as level_pivots_many's, and (log |det(A - lam B)|)', the sum
of d' / d over every pivot, taken once per class and times its
multiplicity as the negatives are.  Plain counts carry no derivative.

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

import math
from itertools import repeat
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
_NAN = float("nan")
_PI = math.pi


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
    a wire of conductance 1 / t_i.  Levels with equal tables may share
    one tuple (the Cantor pair's levels are all one), which the
    recursion only reads."""
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


def _level_slope(template, lam):
    """_level_inertia's record at lam and (log |det(A - lam B)|)' there.

    The same loop in the same operation order, so the record is the same
    bits, with the lam-derivative of every template quantity carried
    beside it by the quotient rule: at a join d' = c1' + c2' + sigma',
    c' = (c1' c2 + c1 c2' - c d') / d, and rho_l' and rho_r' alike.  det
    is the product of the pivots, so its log-derivative is the sum of
    d' / d over them, taken once per class and times its multiplicity as
    the negatives are; a clamped pivot enters as carried.  A class's
    record is _level_inertia's followed by the log-derivative of its
    interior and c', rho_l', rho_r'.
    """
    s, ds = lam * template.s_unit, template.s_unit
    m00, m01, m11 = template.quad
    m0, m1 = m00 + m01, m11 + m01
    below = []
    for scale in template.leaves:
        x, dx = s * scale, ds * scale
        below.append((0, 0, 1.0 + x * m01, -x * m0, -x * m1, 0.0, dx * m01, -dx * m0, -dx * m1))
    low = _INF
    for table in template.levels:
        cells = []
        for children in table:
            neg = near = 0
            slope = 0.0
            c = None
            for index, inv_t in children:
                if index < 0:
                    c2, l2, r2, dc2, dl2, dr2 = inv_t, 0.0, 0.0, 0.0, 0.0, 0.0
                else:
                    n, z, c2, l2, r2, g, dc2, dl2, dr2 = below[index]
                    neg, near, slope = neg + n, near + z, slope + g
                    c2, l2, r2 = c2 * inv_t, l2 * inv_t, r2 * inv_t
                    dc2, dl2, dr2 = dc2 * inv_t, dl2 * inv_t, dr2 * inv_t
                if c is None:
                    c, l, r, dc, dl, dr = c2, l2, r2, dc2, dl2, dr2
                    continue
                sigma, dsigma = r + l2, dr + dl2
                d, dd = c + c2 + sigma, dc + dc2 + dsigma
                size = abs(c) + abs(c2) + abs(sigma)
                ratio = abs(d) / size if size > 0.0 else 0.0
                if ratio < low:
                    low = ratio
                if ratio < _NEAR:
                    near += 1
                    d = _carry(d, max(_CLAMP * size, _TINY))
                neg += d < 0.0
                slope += dd / d
                joined, step_l, step_r = c * c2 / d, c * sigma / d, c2 * sigma / d
                dc, dl, dr = (
                    (dc * c2 + c * dc2 - joined * dd) / d,
                    dl + (dc * sigma + c * dsigma - step_l * dd) / d,
                    dr2 + (dc2 * sigma + c2 * dsigma - step_r * dd) / d,
                )
                c, l, r = joined, l + step_l, r2 + step_r
            cells.append((neg, near, c, l, r, slope, dc, dl, dr))
        below = cells
    return _chain(template, below, low, slopes=True)


def _chain(template, cells, low, slopes=False):
    """The record of the top cell: template.chain's ports swept left to right.

    The sweep runs in row-sum form, in which counts stay monotone in lam
    (Demmel, Dhillon & Ren, ETNA 3, 1995).  At the node between ports
    c_in and c_out the shunt is sigma = rho_r of c_in + rho_l of c_out,
    the row sum row = sigma + c_in row' / pivot' carries on from the
    node before, and the pivot is row + c_out, with the ratio and clamp
    of a junction.  A Robin end is a node next to a port with c = 0 and
    the Robin coefficient as its rho; past an eliminated Dirichlet end
    node c_in row' / pivot' is c_in.  Each run of equal ports is scaled
    once and adds its ports' interior counts times its length.  Its
    first two junctions are swept, and more while the last one swept
    was a near-zero, so that _run starts from a pivot formed inside the
    run and away from 0.  _run counts all but the last of the rest in
    closed form, and the last is swept, so that the pivot the next port
    reads comes from the recurrence (an exact zero there stays exact).

    With slopes, each class's record goes on with the log-derivative of
    its interior and c', rho_l' and rho_r' (from _level_slope); the
    lam-derivatives of row and pivot are carried too, and the record
    gets a fourth field, (log |det(A - lam B)|)'.
    """
    neg = near = 0
    total = dc2 = dl2 = dr2 = dc_in = dr_in = drow = dpivot = 0.0
    c_in, r_in = (None, None) if template.left is None else (0.0, template.left)
    row = pivot = 1.0  # c_in * row / pivot is c_in at the first node
    for index, inv_t, count in template.chain:
        if index < 0:
            c2, l2, r2 = inv_t, 0.0, 0.0
            dc2 = dl2 = dr2 = 0.0
        else:
            if slopes:
                n, z, c2, l2, r2, g, dc2, dl2, dr2 = cells[index]
                total += g * count
                dc2, dl2, dr2 = dc2 * inv_t, dl2 * inv_t, dr2 * inv_t
            else:
                n, z, c2, l2, r2 = cells[index]
            neg, near = neg + n * count, near + z * count
            c2, l2, r2 = c2 * inv_t, l2 * inv_t, r2 * inv_t
        if c_in is None:  # the first port after a Dirichlet end: no node before it
            c_in, r_in, dc_in, dr_in, count = c2, r2, dc2, dr2, count - 1
        sigma, inner = r_in + l2, r2 + l2
        if slopes:
            dsigma, dinner = dr_in + dl2, dr2 + dl2
        swept = 0
        while swept < count:
            if swept >= 2 and count - swept > 1 and ratio >= _NEAR:
                # all but the run's last junction in closed form
                if not slopes:
                    n, z, ratio, row, pivot = _run(c2, inner, row, pivot, count - swept - 1)
                else:
                    n, z, ratio, row, pivot, g, drow, dpivot = _run(
                        c2, inner, row, pivot, count - swept - 1, (dc2, dinner, drow, dpivot)
                    )
                    total += g
                neg, near, low = neg + n, near + z, min(low, ratio)
                swept = count - 1
            through = c_in * row / pivot
            if slopes:
                dthrough = (dc_in * row + c_in * drow - through * dpivot) / pivot
            row = sigma + through
            pivot = row + c2
            size = abs(sigma) + abs(through) + abs(c2)
            ratio = abs(pivot) / size if size > 0.0 else 0.0
            if ratio < low:
                low = ratio
            if ratio < _NEAR:
                near += 1
                pivot = _carry(pivot, max(_CLAMP * size, _TINY))
            neg += pivot < 0.0
            if slopes:
                drow = dsigma + dthrough
                dpivot = drow + dc2
                total += dpivot / pivot
                dc_in, dsigma = dc2, dinner
            c_in, sigma = c2, inner
            swept += 1
        c_in, r_in, dc_in, dr_in = c2, r2, dc2, dr2
    if template.right is not None:  # the last node: c_out = 0, no pivot after it
        sigma, through = r_in + template.right, c_in * row / pivot
        if slopes:
            dthrough = (dc_in * row + c_in * drow - through * dpivot) / pivot
        pivot, size = sigma + through, abs(sigma) + abs(through)
        ratio = abs(pivot) / size if size > 0.0 else 0.0
        low = min(low, ratio)
        near, neg = near + (ratio < _NEAR), neg + (pivot <= 0.0)
        if slopes:
            total += (dr_in + dthrough) / pivot if pivot != 0.0 else _NAN
    if not slopes:
        return neg, near, min(low, 1e308)
    return neg, near, min(low, 1e308), total


def _cot(x):
    """cot x, NaN where sin x is 0."""
    s = math.sin(x)
    return math.cos(x) / s if s != 0.0 else _NAN


def _scaled(j, theta, sinh_t, k):
    """2 e^(-j theta) w_j, w_j = cosh(j theta) + k sinh(j theta) / sinh theta (1 + j k at theta = 0)."""
    if sinh_t == 0.0:
        return 2.0 + 2.0 * j * k
    return 1.0 + math.exp(-2.0 * j * theta) - k * math.expm1(-2.0 * j * theta) / sinh_t


def _scaled_slope(j, theta, sinh_t, cosh_t, k, dtheta, dk):
    """The lam-derivative of _scaled(j, theta, sinh_t, k), for theta > 0."""
    e = math.exp(-2.0 * j * theta)
    q = -math.expm1(-2.0 * j * theta) / sinh_t
    return dk * q + dtheta * (k * (2.0 * j * e - q * cosh_t) / sinh_t - 2.0 * j * e)


def _parabolic_slope(j, w_1, dw_1, db):
    """The lam-derivative of w_j = U_(j-1)(b/2) w_1 - U_(j-2)(b/2) at b = 2, given w_1' and b'.

    U_n(1) = n + 1 and U_n'(1) = n (n + 1) (n + 2) / 3.
    """
    return j * dw_1 + db * (j - 1) * j * ((j + 1) * w_1 - (j - 2)) / 6.0


def _run(c, inner, row, pivot, m, slope=None):
    """m junctions inside a run of equal ports, in closed form.

    The port has coupling c and shunt inner = rho_r + rho_l between two
    of its copies; row and pivot are those of the junction before, with
    pivot = row + c.  Returns (negatives, near-zeros, ratio of the last
    pivot, its row sum, the last pivot) of the m junctions, and with
    slope = (c', inner', row', pivot') also the sum of their pivots'
    d' / d and the row' and pivot' of the last.

    Past that junction the pivots obey x' = alpha - c^2 / x, alpha =
    inner + 2c.  Put x_j = |c| v_(j+1) / v_j with v_0 = 1: then
    v_(j+1) = (alpha / |c|) v_j - v_(j-1), and the negative pivots are
    the sign changes of v_1, ..., v_(m+1).  With g = -inner / (4c):
    - 0 < g < 1, the elliptic band: alpha = 2|c| cos theta, sin^2(theta/2)
      = g for c > 0 and cos^2(theta/2) = g for c < 0, and v_j =
      sin(j theta + psi) / sin psi, with psi = atan2(|c| sin theta, row -
      inner/2) taken in (-pi/2, pi/2) (which flips every v_j alike).
      The negatives are the multiples of pi in (theta + psi, (m+1) theta
      + psi], by floors; the last row sum comes from the sum-to-product
      formula (2 |c| sin(theta/2) cos or 2 |c| cos(theta/2) sin of
      (m + 1/2) theta + psi, over sin(m theta + psi)), which keeps the
      row exact near parabolic, where x - c cancels.
    - g <= 0 or g >= 1: |alpha| = 2|c| cosh theta (sinh^2(theta/2) = -g
      or cosh^2(theta/2) = g), v_j = e^j w_j with e the sign of alpha and
      w_j = cosh(j theta) + k sinh(j theta) / sinh theta, k = e (row -
      inner/2) / |c|, which changes sign at most once; w_j is taken as
      _scaled(j) = 2 e^(-j theta) w_j, which cannot overflow.  theta = 0
      (g = 0 or 1) is the parabolic case w_j = 1 + j k.
    - A coupling so small that |g| >= 1e300 (c = 0 included) decouples
      the ports: every pivot is inner.
    Only the last pivot is checked against the near tolerance: when it
    lies within _NEAR of its terms, the phase is within that tolerance of
    a multiple of pi, and the run adds one near-zero and counts that
    pivot as negative, carrying it as -|x|, the rule that counts an
    exact zero pivot as negative; the next junction then keeps the
    count.  A pivot inside the run near 0 is not flagged: its crossing
    is counted once whichever side of 0 it rounds to.  In the slopes,
    the log of the product of the m pivots is m log|c| + log|sin((m+1)
    theta + psi)| - log|sin(theta + psi)|, or m log|c| + log|w_(m+1)| -
    log|w_1|; in the parabolic case, where theta' is infinite, w_j is
    differentiated through b = |alpha| / |c| instead.
    """
    if c == 0.0 or not -1e300 < -inner / (4.0 * c) < 1e300:
        ratio = 1.0 if inner != 0.0 else 0.0
        x = inner if ratio >= _NEAR else _carry(inner, _TINY)
        record = (m if x < 0.0 else 0, m if ratio < _NEAR else 0, ratio, inner, x)
        if slope is None:
            return record
        return (*record, m * slope[1] / x, slope[1], slope[1])
    a_c, sign = abs(c), (1.0 if c > 0.0 else -1.0)
    g = -inner / (4.0 * c)
    x_half = row - 0.5 * inner
    if 0.0 < g < 1.0:
        sg, cg = math.sqrt(g), math.sqrt((inner + 4.0 * c) / (4.0 * c))
        theta = 2.0 * (math.atan2(sg, cg) if c > 0.0 else math.atan2(cg, sg))
        y = 2.0 * a_c * sg * cg
        psi = math.atan2(y, x_half) if x_half >= 0.0 else -math.atan2(y, -x_half)
        at_m = m * theta + psi
        end = at_m + theta
        turns = math.floor(at_m / _PI)
        before = turns - math.floor((theta + psi) / _PI)
        last = math.floor(end / _PI) > turns
        # its sign by the floors, so that the row sum agrees with the count
        den = max(abs(math.sin(at_m)), 1e-300) * (-1.0 if turns % 2 else 1.0)
        mag = a_c * abs(math.sin(end) / den)
        half = at_m + 0.5 * theta
        row = 2.0 * a_c * sg * (math.cos(half) if c > 0.0 else math.sin(half)) / den
    else:
        if g <= 0.0:
            sh, ch, e = math.sqrt(-g), math.sqrt((inner + 4.0 * c) / (4.0 * c)), sign
        else:
            ch, sh, e = math.sqrt(g), math.sqrt(-(inner + 4.0 * c) / (4.0 * c)), -sign
        theta = 2.0 * math.asinh(sh)
        sinh_t = 2.0 * sh * ch
        k = e * x_half / a_c
        w_end = _scaled(m + 1, theta, sinh_t, k)
        w_m = _scaled(m, theta, sinh_t, k) if m > 1 else 2.0 * math.exp(-theta) * e * pivot / a_c
        if w_m == 0.0:
            w_m = -_TINY
        crossed = e * pivot > 0.0 and w_m < 0.0
        before = crossed if e > 0.0 else m - 1 - crossed
        last = e * w_end * w_m < 0.0
        grow = ch + sh  # e^(theta/2)
        mag = a_c * grow * grow * abs(w_end / w_m)
        if g <= 0.0:
            u = -2.0 * (m + 0.5) * theta
            num = -2.0 * sh * math.expm1(u) + k * (1.0 + math.exp(u)) / ch
        else:
            num = 2.0 * ch * _scaled(m + 0.5, theta, sinh_t, k)
        row = a_c * e * grow * num / w_m
    size = abs(inner) + abs(row - inner) + a_c
    ratio = mag / size
    near = ratio < _NEAR
    x = -max(mag, _CLAMP * size, _TINY) if near or last else mag
    record = (before + (near or last), int(near), ratio, row, x)
    if slope is None:
        return record
    dc, dinner, drow, dpivot = slope
    # 4c^2 underflows once |c| < 1e-154: divide by c first there
    cc = 4.0 * c * c
    dg = -(dinner * c - inner * dc) / cc if cc >= _TINY else -(dinner - inner * (dc / c)) / (4.0 * c)
    dx_half = drow - 0.5 * dinner
    if 0.0 < g < 1.0:
        sin_t, cos_t = 2.0 * sg * cg, sign * (cg * cg - sg * sg)
        dtheta = 2.0 * sign * dg / sin_t
        dy = sign * dc * sin_t + a_c * cos_t * dtheta
        dpsi = (x_half * dy - y * dx_half) / (x_half * x_half + y * y)
        d_end = (m + 1) * dtheta + dpsi
        total = m * dc / c + _cot(end) * d_end - _cot(theta + psi) * (dtheta + dpsi)
        log_x = dc / c + _cot(end) * d_end - _cot(at_m) * (m * dtheta + dpsi)
    elif sinh_t > 0.0:
        cosh_t = ch * ch + sh * sh
        dtheta = (-2.0 if g <= 0.0 else 2.0) * dg / sinh_t
        dk = e * (dx_half - x_half * dc / c) / a_c
        grow_end = _scaled_slope(m + 1, theta, sinh_t, cosh_t, k, dtheta, dk) / w_end if w_end else _NAN
        total = (m + 1) * (dc / c + dtheta) + grow_end - dpivot / pivot
        if m > 1:
            grow_m = _scaled_slope(m, theta, sinh_t, cosh_t, k, dtheta, dk) / w_m
        else:
            grow_m = dpivot / pivot - dc / c - dtheta
        log_x = dc / c + dtheta + grow_end - grow_m
    else:
        w_1 = 1.0 + k  # e pivot / |c|
        dw_1 = w_1 * (dpivot / pivot - dc / c)
        db = (-4.0 if g <= 0.0 else 4.0) * dg
        w_end = 1.0 + (m + 1) * k
        grow_end = _parabolic_slope(m + 1, w_1, dw_1, db) / w_end if w_end else _NAN
        total = (m + 1) * dc / c + grow_end - dpivot / pivot
        log_x = dc / c + grow_end - _parabolic_slope(m, w_1, dw_1, db) / (0.5 * w_m)
    return (*record, total, x * log_x - dc, x * log_x)


def level_pivots_many(template, lams):
    """The sturm_pivots_many record at each lam of the float64 array lams, from a LevelTemplate."""
    return [_level_inertia(template, lam) for lam in lams.tolist()]


def level_slopes_many(template, lams):
    """(record, (log |det(A - lam B)|)') at each lam of the float64 array lams, from a LevelTemplate.

    The record is level_pivots_many's, bit for bit.
    """
    records = map(_level_slope, repeat(template), lams.tolist())
    return [((neg, near, low), slope) for neg, near, low, slope in records]
