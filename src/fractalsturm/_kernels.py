"""Tridiagonal inertia kernel.

Counting eigenvalues of the pencil (A, B) reduces to one LDL^T sweep over
the tridiagonal matrix A - lam*B per query, and every bisection step and
every counting-function sample pays for one sweep.  The O(n) parts that
vectorise (diagonal and off-diagonal of A - lam*B, the pencil scale, the
counts over the stored pivots) run in numpy.  The pivot recurrence

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

import numpy as np
from scipy.linalg.lapack import dpttrf

# The kernel is plain Python, numpy and LAPACK; perfbench records this flag.
NUMBA_ENABLED = False

# Pivots below _CLAMP * scale are clamped (sign preserved) so that the
# recurrence never overflows; a pivot that is exactly zero is reported as
# a breakdown and the sweep is retried with a relative micro-shift of lam.
_CLAMP = 5e-32
# Hand over to the Python loop once at least _MIN_RUNS dpttrf runs have
# covered at most _RUN_NODES nodes each on average.
_MIN_RUNS = 8
_RUN_NODES = 32
# The Python loop converts _BLOCK nodes to floats at a time; float lists
# over a whole 65,536-node tail ran about 20% slower per node (Python
# 3.11, 2-vCPU x86 host).
_BLOCK = 4096


def _carry(piv, clamp):
    """The value that carries a pivot on: piv, or sign * clamp when smaller."""
    if -clamp < piv < clamp:
        return -clamp if piv < 0.0 else clamp
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
                prev = -clamp if prev < 0.0 else clamp
        d[start:stop] = out


def _sweep(a_diag, a_off, b_diag, b_off, lam, near_tol):
    """One clamped LDL^T sweep of A - lam B.

    Returns (negatives, near-zeros, breakdowns, smallest |pivot| / scale),
    where scale is the largest entry of A - lam B in magnitude.
    """
    n = a_diag.shape[0]
    m = max(n - 1, 0)
    c = a_diag - lam * b_diag
    e = a_off[:m] - lam * b_off[:m]
    scale = max(float(np.max(np.abs(c), initial=0.0)), float(np.max(np.abs(e), initial=0.0)))
    if scale == 0.0:
        return 0, n, 0, 0.0
    clamp = _CLAMP * scale
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
        int(np.count_nonzero(pivots < 0.0)),
        int(np.count_nonzero(mag < near_tol * scale)),
        int(np.count_nonzero(pivots == 0.0)),
        min(float(mag.min()) / scale, 1e308),
    )


def _inertia(a_diag, a_off, b_diag, b_off, lam, near_tol):
    """_sweep at lam with breakdown recovery.

    A pivot landing exactly on zero makes the count ambiguous; lam is
    then nudged by a relative micro-shift (1e-14 of the pencil scale at
    lam) and the sweep repeated, growing the shift up to three times
    before accepting the clamped result.  Negatives and near-zeros come
    from the last sweep; breakdowns and the pivot ratio describe lam
    itself.
    """
    neg, near, breakdown, min_rel = _sweep(a_diag, a_off, b_diag, b_off, lam, near_tol)
    if breakdown:
        norm_a = max(np.max(np.abs(a_diag), initial=0.0), np.max(np.abs(a_off), initial=0.0))
        norm_b = max(np.max(np.abs(b_diag), initial=0.0), np.max(np.abs(b_off), initial=0.0))
        unit = (norm_a + abs(lam) * norm_b) / max(norm_b, 1e-300)
        shift = 1e-14 * max(unit, abs(lam), 1.0)
        for attempt in range(1, 4):
            neg, near, retry, _ = _sweep(
                a_diag, a_off, b_diag, b_off, lam + attempt * shift, near_tol
            )
            if not retry:
                break
    return neg, near, breakdown, min_rel


def sturm_pivots(a_diag, a_off, b_diag, b_off, lam, near_tol):
    """(negatives, near-zeros, breakdowns, min pivot ratio) of A - lam B."""
    # A function object of its own, apart from the _inertia that
    # sturm_pivots_many calls: a tracer that wraps every binding of this
    # one (perfbench/tracer.py) then counts each batch sweep once.
    return _inertia(a_diag, a_off, b_diag, b_off, lam, near_tol)


def sturm_pivots_many(a_diag, a_off, b_diag, b_off, lams, near_tol, negs, nears):
    """Fill negs[k], nears[k] with the inertia of A - lams[k] B."""
    for k, lam in enumerate(lams.tolist()):
        negs[k], nears[k], _, _ = _inertia(a_diag, a_off, b_diag, b_off, lam, near_tol)


def _as_arrays(a_diag, a_off, b_diag, b_off):
    return (
        np.ascontiguousarray(a_diag, dtype=np.float64),
        np.ascontiguousarray(a_off, dtype=np.float64),
        np.ascontiguousarray(b_diag, dtype=np.float64),
        np.ascontiguousarray(b_off, dtype=np.float64),
    )


def negative_pivot_count(a_diag, a_off, b_diag, b_off, lam, near_tol=1e-12):
    """(negatives, near-zeros) of A - lam B, with breakdown recovery."""
    ad, ao, bd, bo = _as_arrays(a_diag, a_off, b_diag, b_off)
    neg, near, _, _ = sturm_pivots(ad, ao, bd, bo, float(lam), near_tol)
    return neg, near


def negative_pivot_counts(a_diag, a_off, b_diag, b_off, lams, near_tol=1e-12):
    """negative_pivot_count over a grid of spectral parameters."""
    ad, ao, bd, bo = _as_arrays(a_diag, a_off, b_diag, b_off)
    lams = np.ascontiguousarray(lams, dtype=np.float64)
    negs = np.empty(lams.shape[0], dtype=np.int64)
    nears = np.empty(lams.shape[0], dtype=np.int64)
    sturm_pivots_many(ad, ao, bd, bo, lams, near_tol, negs, nears)
    return negs, nears


def min_pivot_ratio(a_diag, a_off, b_diag, b_off, lam):
    """(negatives, smallest |pivot| / pencil scale) at lam.

    Used by the positivity scan: a shift is accepted only when every
    pivot is positive with a safe relative margin.  The ratio is 0.0
    when lam is an exact breakdown.
    """
    ad, ao, bd, bo = _as_arrays(a_diag, a_off, b_diag, b_off)
    neg, _, _, min_rel = sturm_pivots(ad, ao, bd, bo, float(lam), 0.0)
    return neg, min_rel
