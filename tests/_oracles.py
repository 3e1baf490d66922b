"""Dense reference solutions for the tridiagonal pencil tests.

Everything here goes through generic LAPACK paths (dense symmetric
eigensolvers) so that the banded inertia code is checked against an
independent formulation.
"""

import numpy as np

from fractalsturm.spectral import resolve_shift, zero_tolerance


def pencil_eigenvalues(disc, reference_shift=None):
    """All finite eigenvalues of A x = mu B x, sorted.

    Uses the congruence C = A - xi B > 0: the pencil eigenvalues are
    xi + 1/theta over nonzero eigenvalues theta of C^{-1/2} B C^{-1/2}.
    """
    xi = resolve_shift(disc, reference_shift)
    a, b = disc.dense()
    c = a - xi * b
    w, v = np.linalg.eigh(c)
    if w.min() <= 0.0:
        raise AssertionError("reference shift did not make A - xi B positive definite")
    c_inv_half = (v / np.sqrt(w)) @ v.T
    m = c_inv_half @ b @ c_inv_half
    m = 0.5 * (m + m.T)
    theta = np.linalg.eigh(m)[0]
    cutoff = 1e-13 * max(1.0, np.abs(theta).max())
    return np.sort([xi + 1.0 / t for t in theta if abs(t) > cutoff])


def dense_count(disc, lam, reference_shift=None):
    """(n_plus, n_minus) at lam with the library's own zero tolerance."""
    mus = pencil_eigenvalues(disc, reference_shift)
    zt = zero_tolerance(disc)
    lam = float(lam)
    if lam >= 0.0:
        hi = lam + 1e-9 * abs(lam) + zt
        return int(np.sum((mus > -zt) & (mus < hi))), 0
    lo = lam - 1e-9 * abs(lam) - zt
    return 0, int(np.sum((mus > lo) & (mus < -zt)))


_CLAMP = 5e-32


def clamped_sweep(a_diag, a_off, b_diag, b_off, lam, near_tol):
    """Reference LDL^T sweep of A - lam B, one node at a time.

    (negatives, near-zeros, breakdowns, smallest |pivot| / scale) with the
    package's clamp rule: a pivot that is exactly zero is a breakdown and
    continues as +clamp, a nonzero pivot below clamp = 5e-32 * scale in
    magnitude continues as sign * clamp.
    """
    n = a_diag.shape[0]
    scale = 0.0
    for i in range(n):
        m = abs(a_diag[i] - lam * b_diag[i])
        if m > scale:
            scale = m
    for i in range(n - 1):
        e = abs(a_off[i] - lam * b_off[i])
        if e > scale:
            scale = e
    if scale == 0.0:
        return 0, n, 0, 0.0

    clamp = _CLAMP * scale
    neg = 0
    near = 0
    breakdown = 0
    min_rel = 1e308
    d_prev = 0.0
    for i in range(n):
        d = a_diag[i] - lam * b_diag[i]
        if i > 0:
            e = a_off[i - 1] - lam * b_off[i - 1]
            d -= e * e / d_prev
        if d < 0.0:
            neg += 1
        mag = abs(d)
        if mag < near_tol * scale:
            near += 1
        if mag / scale < min_rel:
            min_rel = mag / scale
        if d == 0.0:
            breakdown += 1
            d = clamp
        elif mag < clamp:
            d = clamp if d > 0.0 else -clamp
        d_prev = d
    return neg, near, breakdown, min_rel
