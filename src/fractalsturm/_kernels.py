"""Tridiagonal inertia kernel.

Counting eigenvalues of the pencil (A, B) reduces to one LDL^T sweep over
the tridiagonal matrix A - lam*B per query, and every bisection step and
every counting-function sample pays for one sweep.  The O(n) parts that
vectorise (diagonal and squared off-diagonal of A - lam*B, the pencil
scale, the counts over the stored pivots) run in numpy.  Only the pivot
recurrence d_i = c_i - e_{i-1}^2 / d_{i-1} is sequential; it runs as a
plain loop over Python floats, _CHUNK nodes at a time, so the float lists
it needs stay small.
"""

from __future__ import annotations

import numpy as np

# The kernel is plain Python and numpy; perfbench records this flag.
NUMBA_ENABLED = False

# Pivots below _CLAMP * scale are clamped (sign preserved) so that the
# recurrence never overflows; a pivot that is exactly zero is reported as
# a breakdown and the sweep is retried with a relative micro-shift of lam.
_CLAMP = 5e-32
_CHUNK = 4096


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
    e2 = e * e
    clamp = _CLAMP * scale
    pivots = np.empty(n)
    d_prev = 1.0  # the first pivot is c_0 - 0.0 / 1.0 == c_0
    for start in range(0, n, _CHUNK):
        stop = min(start + _CHUNK, n)
        es = e2[start - 1:stop - 1].tolist() if start else [0.0] + e2[:stop - 1].tolist()
        out = []
        append = out.append
        for ci, ei in zip(c[start:stop].tolist(), es):
            d = ci - ei / d_prev
            append(d)
            if -clamp < d < clamp:
                d = -clamp if d < 0.0 else clamp
            d_prev = d
        pivots[start:stop] = out
    mag = np.abs(pivots)
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
