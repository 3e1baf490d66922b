"""Signed measures on [0, 1] built from atoms, step densities and
self-similar parts.

Atoms have one format in every layer: a read-only C-contiguous float64
array of shape (m, 2) with (position, weight) rows.  Only user and JSON
input arrive as pairs, and JSON output writes the pairs back.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParametersError
from .selfsim import SelfSimilarParams

_TOL = 1e-12


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


def _atom_table(atoms) -> np.ndarray:
    """Checked (m, 2) float64 copy of (position, weight) pairs, or of such an array."""
    try:
        table = np.array(atoms if isinstance(atoms, np.ndarray) else list(atoms), dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidParametersError("atoms must be (position, weight) pairs") from exc
    if table.shape == (0,):
        table = table.reshape(0, 2)
    if table.ndim != 2 or table.shape[1] != 2:
        raise InvalidParametersError("atoms must be (position, weight) pairs")
    if not np.all(np.isfinite(table)):
        # None reads as nan
        raise InvalidParametersError("atom positions and weights must be finite numbers")
    outside = np.flatnonzero((table[:, 0] < -_TOL) | (table[:, 0] > 1.0 + _TOL))
    if outside.size:
        raise InvalidParametersError(f"atom at {float(table[outside[0], 0])} outside [0, 1]")
    return table


def _cluster_starts(xs: np.ndarray, tol: float) -> np.ndarray:
    """Indices that open a cluster of the sorted array xs.

    Read left to right, a cluster takes every x with x - (its first
    element) <= tol.  A step above tol always opens a cluster; only
    stretches of small steps spanning more than tol are walked one
    element at a time, since there a chain of small steps can still open
    one.
    """
    if xs.size == 0:
        return np.zeros(0, dtype=np.int64)
    bounds = np.concatenate(([0], np.flatnonzero(np.diff(xs) > tol) + 1, [xs.size]))
    chained = []
    wide = np.flatnonzero(xs[bounds[1:] - 1] - xs[bounds[:-1]] > tol)
    for lo, hi in zip(bounds[wide].tolist(), bounds[wide + 1].tolist()):
        first = xs[lo]
        for j, x in enumerate(xs[lo + 1:hi].tolist(), start=lo + 1):
            if x - first > tol:
                chained.append(j)
                first = x
    # two sorted runs of indices, which the stable sort (timsort) merges
    return np.sort(np.concatenate((bounds[:-1], np.array(chained, dtype=np.int64))), kind="stable")


def _locate(nodes: np.ndarray, keys: np.ndarray, side: str) -> np.ndarray:
    """np.searchsorted(nodes, keys, side) for sorted nodes and keys, by one stable merge.

    A stable argsort of both arrays, equal keys placed after the equal
    nodes for side "right" and before them for side "left", puts the
    k-th key after exactly searchsorted's count of nodes.  Keys that are
    not sorted go to np.searchsorted.
    """
    if not np.all(keys[1:] >= keys[:-1]):
        return np.searchsorted(nodes, keys, side=side)
    if side == "right":
        is_key = np.argsort(np.concatenate((nodes, keys)), kind="stable") >= nodes.size
    else:
        is_key = np.argsort(np.concatenate((keys, nodes)), kind="stable") < keys.size
    return np.flatnonzero(is_key) - np.arange(keys.size)


def _atom_order(pos: np.ndarray, w: np.ndarray) -> np.ndarray | None:
    """np.lexsort((w, pos)) for atom rows, or None when they are in that order.

    The rows are in order when the position never falls and the weight
    never falls between equal positions; that takes one O(m) pass.  Else
    a stable argsort by position, after which only the runs of exactly
    equal positions are lexsorted by weight too, which gives the same
    permutation as a lexsort of the whole table.
    """
    if np.all((pos[1:] > pos[:-1]) | ((pos[1:] == pos[:-1]) & (w[1:] >= w[:-1]))):
        return None
    order = np.argsort(pos, kind="stable")
    tie = pos[order[1:]] == pos[order[:-1]]
    if tie.any():
        run = np.flatnonzero(np.concatenate(([False], tie)) | np.concatenate((tie, [False])))
        sub = order[run]
        order[run] = sub[np.lexsort((w[sub], pos[sub]))]
    return order


def _run_sums(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Sum of each run values[starts[k]:starts[k + 1]], added left to right."""
    size = np.diff(np.append(starts, values.size))
    total = values[starts]
    for k in range(1, int(size.max(initial=1))):
        run = np.flatnonzero(size > k)
        total[run] += values[starts[run] + k]
    return total


@dataclass(frozen=True, eq=False)
class StepFunction:
    """Piecewise constant function: values[i] on [breaks[i], breaks[i+1]).

    Step functions compare and hash by identity.
    """

    breaks: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        b, v = _frozen(self.breaks), _frozen(self.values)
        if b.ndim != 1 or v.ndim != 1 or b.size != v.size + 1:
            raise InvalidParametersError("need len(breaks) == len(values) + 1")
        if np.any(np.diff(b) <= 0):
            raise InvalidParametersError("breaks must be strictly increasing")
        if abs(b[0]) > _TOL or abs(b[-1] - 1.0) > _TOL:
            raise InvalidParametersError("breaks must span [0, 1]")
        object.__setattr__(self, "breaks", b)
        object.__setattr__(self, "values", v)

    @classmethod
    def constant(cls, c: float) -> "StepFunction":
        return cls(np.array([0.0, 1.0]), np.array([float(c)]))

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        piece = _locate(self.breaks, x.ravel(), "right").reshape(x.shape)
        return self.values[np.clip(piece - 1, 0, self.values.size - 1)]

    def integral(self, lo=0.0, hi=1.0):
        """Exact integral of the step function over [lo, hi].

        Scalar bounds give a float.  Array bounds give an array with one
        integral per pair, equal to the scalar call on each pair: an
        interval inside one piece gets value * (hi - lo), one that spans
        several pieces sums its clipped pieces as the scalar call does.
        No difference of an antiderivative is taken, so narrow intervals
        keep their relative accuracy.
        """
        if np.ndim(lo) == 0 and np.ndim(hi) == 0:
            if hi < lo:
                return -self.integral(hi, lo)
            cuts = np.clip(self.breaks, lo, hi)
            return float(np.sum(self.values * np.diff(cuts)))
        lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
        flip = hi < lo
        # raveled, so that the flat indices of the spans loop address them
        a = np.clip(np.where(flip, hi, lo), self.breaks[0], self.breaks[-1]).ravel()
        b = np.clip(np.where(flip, lo, hi), self.breaks[0], self.breaks[-1]).ravel()
        last = self.values.size - 1
        ia = np.clip(_locate(self.breaks, a, "right") - 1, 0, last)
        ib = np.clip(_locate(self.breaks, b, "left") - 1, 0, last)
        out = self.values[ia] * (b - a)
        spans = np.flatnonzero(ib > ia)
        step = max(1, 2**20 // self.breaks.size)
        for k in range(0, spans.size, step):
            chunk = spans[k : k + step]
            cuts = np.clip(self.breaks, a[chunk, None], b[chunk, None])
            out[chunk] = np.sum(self.values * np.diff(cuts, axis=1), axis=1)
        out = out.reshape(flip.shape)
        return np.where(flip, -out, out)

    def to_json(self) -> dict:
        return {"breaks": self.breaks.tolist(), "values": self.values.tolist()}

    @classmethod
    def from_json(cls, obj: dict) -> "StepFunction":
        if not isinstance(obj, dict) or not {"breaks", "values"} <= set(obj):
            raise InvalidParametersError("step function JSON needs breaks and values arrays")
        return cls(obj["breaks"], obj["values"])


@dataclass(frozen=True, eq=False)
class CompositeMeasure:
    """Atoms + step density + scaled self-similar Stieltjes part.

    The self-similar part is the measure scale * dP for a parameter set
    P; it is treated as atomless (its own jumps, if any, are recovered
    explicitly via jump enumeration when needed).  All three parts may
    be present at once and add up.  The atom rows are clipped to [0, 1]
    and sorted by position, then weight; a table already in that order
    is kept without a sort.  Measures compare and hash by identity.
    """

    atoms: np.ndarray = ()
    density: StepFunction | None = None
    selfsim: tuple[SelfSimilarParams, float] | None = None

    def __post_init__(self):
        table = _atom_table(self.atoms)
        order = _atom_order(np.clip(table[:, 0], 0.0, 1.0, out=table[:, 0]), table[:, 1])
        if order is not None:
            table = table[order]
        table.flags.writeable = False  # a fresh table, which _frozen keeps uncopied
        object.__setattr__(self, "atoms", _frozen(table))
        if self.selfsim is not None:
            params, scale = self.selfsim
            object.__setattr__(self, "selfsim", (params, float(scale)))

    @classmethod
    def lebesgue(cls, c: float = 1.0) -> "CompositeMeasure":
        return cls(density=StepFunction.constant(c))

    @classmethod
    def from_atoms(cls, atoms) -> "CompositeMeasure":
        return cls(atoms=atoms)

    @classmethod
    def from_selfsim(cls, params: SelfSimilarParams, scale: float = 1.0) -> "CompositeMeasure":
        return cls(selfsim=(params, scale))

    def is_zero(self) -> bool:
        return (
            len(self.atoms) == 0
            and (self.density is None or not np.any(self.density.values))
            and self.selfsim is None
        )

    def total_mass(self) -> float:
        m = sum(self.atoms[:, 1].tolist())
        if self.density is not None:
            m += self.density.integral()
        if self.selfsim is not None:
            params, scale = self.selfsim
            m += scale * (params.p1 - params.p0)
        return float(m)

    def to_json(self):
        if len(self.atoms) == 0 and self.selfsim is None and self.density is not None:
            if self.density.values.size == 1:
                return float(self.density.values[0])
        obj: dict = {}
        if len(self.atoms):
            obj["atoms"] = self.atoms.tolist()
        if self.density is not None:
            obj["density"] = self.density.to_json()
        if self.selfsim is not None:
            params, scale = self.selfsim
            obj["selfsim"] = dict(params.to_json(), scale=scale)
        return obj

    @classmethod
    def from_json(cls, obj) -> "CompositeMeasure":
        if isinstance(obj, (int, float)) and not isinstance(obj, bool):
            return cls.lebesgue(float(obj))
        if not isinstance(obj, dict):
            raise InvalidParametersError("measure JSON must be a number or an object")
        density = StepFunction.from_json(obj["density"]) if "density" in obj else None
        selfsim = None
        if "selfsim" in obj:
            sub = dict(obj["selfsim"])
            scale = float(sub.pop("scale", 1.0))
            selfsim = (SelfSimilarParams.from_json(sub), scale)
        return cls(atoms=obj.get("atoms", ()), density=density, selfsim=selfsim)
