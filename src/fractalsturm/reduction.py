"""Reduction of measure coefficients to the image axis of a monotone
self-similar primitive R.

The substitution y = u o R maps the singular problem on the x axis to an
equivalent one on the t = R(x) axis whose leading coefficient is
Lebesgue.  Pushing the remaining coefficients through R is exact for
compatible self-similar parts and cellwise exact for step densities:
density mass over a plateau of R collapses to an atom at the plateau
value, mass over a support cell spreads over the image interval.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterMismatchError, UnsupportedConfigurationError
from .measures import CompositeMeasure, StepFunction, _atom_order, _cluster_starts, _run_sums
from .selfsim import (
    MonotonePrimitive,
    SelfSimilarParams,
    _evaluate_many,
    _require_same_cells,
    support_cells,
)


def pushforward_params(r: MonotonePrimitive, p: SelfSimilarParams) -> SelfSimilarParams:
    """Parameters of the image function P~ = P o R^{-1}.

    R and P must share cell widths.  Cells where R is flat (d_i = 0)
    vanish from the image axis, so any dP mass there would pile into an
    atom; that case is rejected here and must be handled by the caller
    via explicit atoms.  The surviving cells keep their vertical data
    and acquire widths d_i.
    """
    _require_same_cells(r, p)
    d = r.weights
    for i in range(p.n):
        if d[i] == 0.0 and p.dprime[i] != 0.0:
            raise UnsupportedConfigurationError(
                f"cell {i}: dP mass sits on a plateau of R (d_i = 0, d'_i != 0)"
            )
    keep = [i for i in range(p.n) if d[i] != 0.0]
    if len(keep) < 2:
        raise UnsupportedConfigurationError("image function needs at least two active cells")
    return SelfSimilarParams(
        a=tuple(d[i] for i in keep),
        dprime=tuple(p.dprime[i] for i in keep),
        betaprime=tuple(p.betaprime[i] for i in keep),
        p0=p.p0,
        p1=p.p1,
    )


def _density_through(r: MonotonePrimitive, density: StepFunction, depth: int):
    """Push a step density through R at the given cell depth.

    Returns (atom positions, atom weights, image_step).  Support cells
    of R map onto abutting image intervals of length = cell weight; gaps
    (plateaus) map to single points.  Cell masses are exact; within a cell the image mass
    is spread uniformly, which is the only approximation.
    """
    left, width, weight, offset = support_cells(r.params, depth).T
    right = left + width
    mass = density.integral(left, right)
    # plateau k runs from the end of cell k-1 to the start of cell k and
    # collapses to the value P takes there; the last one ends at 1
    lo = np.concatenate(([0.0], right))
    hi = np.concatenate((left, [1.0]))
    value_t = np.concatenate((offset, [1.0]))
    plateau = density.integral(lo, hi)
    atom = (hi - lo > 0.0) & (plateau != 0.0)
    img_breaks = np.concatenate(([0.0], np.cumsum(weight)))
    img_breaks[-1] = 1.0  # guard cumulative rounding
    return value_t[atom], plateau[atom], StepFunction(img_breaks, mass / weight)


def transform_measure(f: CompositeMeasure, r: MonotonePrimitive, depth: int = 8) -> CompositeMeasure:
    """Image measure of f under t = R(x).

    Atoms move to R(x0) keeping their weight.  A self-similar part with
    R's cell widths maps exactly to the pushforward parameter set (mass
    on a plateau of R raises UnsupportedConfigurationError); one with
    other widths is scattered cellwise at the given depth.  Step
    densities map via plateau collapse (exact atoms) and per-cell
    spreading (exact cell masses).
    """
    x0, w = f.atoms[:, 0], f.atoms[:, 1]
    ends = np.zeros(0)
    plateau_pos = plateau_w = np.zeros(0)
    density_out: StepFunction | None = None
    selfsim_out = None

    if f.density is not None and np.any(f.density.values):
        plateau_pos, plateau_w, density_out = _density_through(r, f.density, depth)

    if f.selfsim is not None:
        params, scale = f.selfsim
        try:
            selfsim_out = (pushforward_params(r, params), scale)
        except ParameterMismatchError:
            # incompatible cell structure: scatter cell masses through R,
            # each to the midpoint of its cell's image
            left, width, weight, _ = support_cells(params, depth).T
            mass = scale * weight * (params.p1 - params.p0)
            live = mass != 0.0
            ends = np.concatenate((left[live], (left + width)[live]))
            w = np.concatenate((w, mass[live]))

    # one digit expansion maps the atoms and the cell ends through R
    t = _evaluate_many(r.params, np.concatenate((x0, ends)), 60)
    lo, hi = np.split(t[x0.size:], 2)
    # atoms within 1e-12 of the first of their cluster merge into it,
    # weights summed in (position, weight) order
    pos = np.concatenate((t[: x0.size], 0.5 * (lo + hi), plateau_pos))
    w = np.concatenate((w, plateau_w))
    order = _atom_order(pos, w)
    if order is not None:
        pos, w = pos[order], w[order]
    starts = _cluster_starts(pos, 1e-12)
    pos, w = pos[starts], _run_sums(w, starts)
    # the table filled column by column: a row mask on an (m, 2) array
    # is a slow path of numpy
    keep = w != 0.0
    atoms = np.empty((np.count_nonzero(keep), 2))
    atoms[:, 0] = pos[keep]
    atoms[:, 1] = w[keep]
    return CompositeMeasure(atoms=atoms, density=density_out, selfsim=selfsim_out)
