"""Independent oracles for the benchmark's outputs.

The main oracle is shift-invert ARPACK on the same pencil:
`scipy.sparse.linalg.eigsh(A, M=B, sigma=-1)` with a fixed start vector.
It shares no code with the library's inertia sweeps.  Every answer the
library gives is turned into an implied relative eigenvalue error: zero
for a count the oracle reproduces exactly, otherwise the relative
distance by which the nearest oracle eigenvalue would have to move.  A
query fails when that error exceeds `TOL`.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import eigsh

TOL = 1e-6
# Relative errors are taken against max(|lambda|, FLOOR), so that a zero
# eigenvalue or a count at lambda = 0 is judged in absolute terms; the
# pencils here live on [0, 1] with O(1) coefficients.
FLOOR = 1.0


def lowest_eigenvalues(disc, k: int) -> np.ndarray:
    """The k lowest pencil eigenvalues, ascending."""
    n = disc.n_free
    k = min(k, n - 1)
    a = sp.diags([disc.a_off, disc.a_diag, disc.a_off], [-1, 0, 1], format="csc")
    b = sp.diags([disc.b_off, disc.b_diag, disc.b_off], [-1, 0, 1], format="csc")
    v0 = np.random.default_rng(0).standard_normal(n)
    vals = eigsh(a, k=k, M=b, sigma=-1.0, v0=v0, return_eigenvectors=False)
    return np.sort(vals)


def eigenvalues_beyond(disc, lam: float, k: int) -> np.ndarray:
    """Lowest eigenvalues, enough of them to pass lam by more than TOL."""
    while True:
        mus = lowest_eigenvalues(disc, k)
        if mus[-1] > lam + TOL * max(abs(lam), FLOOR) or mus.size >= disc.n_free - 1:
            return mus
        k *= 2


def count_error(lam: float, n: int, mus: np.ndarray) -> float:
    """Implied relative error of the count N(lam) = n against oracle mus.

    mus must reach past lam (or past the n-th eigenvalue) for the answer
    to be decided; an undecidable count returns inf.
    """
    scale = max(abs(lam), FLOOR)
    below = int(np.searchsorted(mus, lam, side="right"))
    if below == n:
        return 0.0 if below < mus.size else float("inf")
    if n > below:
        return float((mus[n - 1] - lam) / scale) if n <= mus.size else float("inf")
    return float((lam - mus[n]) / scale)


def eigenvalue_error(value: float, oracle: float) -> float:
    return abs(value - oracle) / max(abs(oracle), FLOOR)
