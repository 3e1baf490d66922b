"""Signed measures on [0, 1] built from atoms, step densities and
self-similar parts.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParametersError
from .selfsim import SelfSimilarParams

_TOL = 1e-12


def _atom_arrays(atoms) -> tuple[np.ndarray, np.ndarray]:
    """Positions and weights of a sequence of (position, weight) pairs."""
    atoms = tuple(atoms)
    if set(map(len, atoms)) - {2}:
        raise InvalidParametersError("atoms must be (position, weight) pairs")
    flat = np.fromiter(itertools.chain.from_iterable(atoms), dtype=float, count=2 * len(atoms))
    if not np.all(np.isfinite(flat)):
        # fromiter reads None as nan
        raise InvalidParametersError("atom positions and weights must be finite numbers")
    return flat[0::2], flat[1::2]


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
    return np.sort(np.concatenate((bounds[:-1], np.array(chained, dtype=np.int64))))


def _run_sums(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Sum of each run values[starts[k]:starts[k + 1]], added left to right."""
    size = np.diff(np.append(starts, values.size))
    total = values[starts]
    for k in range(1, int(size.max(initial=1))):
        run = np.flatnonzero(size > k)
        total[run] += values[starts[run] + k]
    return total


@dataclass(frozen=True)
class StepFunction:
    """Piecewise constant function: values[i] on [breaks[i], breaks[i+1])."""

    breaks: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.breaks, dtype=float)
        v = np.asarray(self.values, dtype=float)
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
        idx = np.clip(np.searchsorted(self.breaks, x, side="right") - 1, 0, self.values.size - 1)
        return self.values[idx]

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
        a = np.clip(np.where(flip, hi, lo), self.breaks[0], self.breaks[-1])
        b = np.clip(np.where(flip, lo, hi), self.breaks[0], self.breaks[-1])
        last = self.values.size - 1
        ia = np.clip(np.searchsorted(self.breaks, a, side="right") - 1, 0, last)
        ib = np.clip(np.searchsorted(self.breaks, b, side="left") - 1, 0, last)
        out = self.values[ia] * (b - a)
        spans = np.flatnonzero(ib > ia)
        step = max(1, 2**20 // self.breaks.size)
        for k in range(0, spans.size, step):
            chunk = spans[k : k + step]
            cuts = np.clip(self.breaks, a[chunk, None], b[chunk, None])
            out[chunk] = np.sum(self.values * np.diff(cuts, axis=1), axis=1)
        return np.where(flip, -out, out)

    def to_json(self) -> dict:
        return {"breaks": self.breaks.tolist(), "values": self.values.tolist()}

    @classmethod
    def from_json(cls, obj: dict) -> "StepFunction":
        if not isinstance(obj, dict) or not {"breaks", "values"} <= set(obj):
            raise InvalidParametersError("step function JSON needs breaks and values arrays")
        return cls(np.asarray(obj["breaks"], dtype=float), np.asarray(obj["values"], dtype=float))


@dataclass(frozen=True)
class CompositeMeasure:
    """Atoms + step density + scaled self-similar Stieltjes part.

    The self-similar part is the measure scale * dP for a parameter set
    P; it is treated as atomless (its own jumps, if any, are recovered
    explicitly via jump enumeration when needed).  All three parts may
    be present at once and add up.
    """

    atoms: tuple[tuple[float, float], ...] = ()
    density: StepFunction | None = None
    selfsim: tuple[SelfSimilarParams, float] | None = None

    def __post_init__(self):
        pos, w = _atom_arrays(self.atoms)
        outside = np.flatnonzero((pos < -_TOL) | (pos > 1.0 + _TOL))
        if outside.size:
            raise InvalidParametersError(f"atom at {float(pos[outside[0]])} outside [0, 1]")
        pos = np.clip(pos, 0.0, 1.0)
        order = np.lexsort((w, pos))
        object.__setattr__(self, "atoms", tuple(zip(pos[order].tolist(), w[order].tolist())))
        if self.selfsim is not None:
            params, scale = self.selfsim
            object.__setattr__(self, "selfsim", (params, float(scale)))

    @classmethod
    def lebesgue(cls, c: float = 1.0) -> "CompositeMeasure":
        return cls(density=StepFunction.constant(c))

    @classmethod
    def from_atoms(cls, atoms) -> "CompositeMeasure":
        return cls(atoms=tuple(atoms))

    @classmethod
    def from_selfsim(cls, params: SelfSimilarParams, scale: float = 1.0) -> "CompositeMeasure":
        return cls(selfsim=(params, scale))

    def is_zero(self) -> bool:
        return (
            not self.atoms
            and (self.density is None or not np.any(self.density.values))
            and self.selfsim is None
        )

    def total_mass(self) -> float:
        m = sum(w for _, w in self.atoms)
        if self.density is not None:
            m += self.density.integral()
        if self.selfsim is not None:
            params, scale = self.selfsim
            m += scale * (params.p1 - params.p0)
        return float(m)

    def to_json(self):
        if not self.atoms and self.selfsim is None and self.density is not None:
            if self.density.values.size == 1:
                return float(self.density.values[0])
        obj: dict = {}
        if self.atoms:
            obj["atoms"] = [[p, w] for p, w in self.atoms]
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
        atoms = tuple((float(p), float(w)) for p, w in obj.get("atoms", []))
        density = StepFunction.from_json(obj["density"]) if "density" in obj else None
        selfsim = None
        if "selfsim" in obj:
            sub = dict(obj["selfsim"])
            scale = float(sub.pop("scale", 1.0))
            selfsim = (SelfSimilarParams.from_json(sub), scale)
        return cls(atoms=atoms, density=density, selfsim=selfsim)
