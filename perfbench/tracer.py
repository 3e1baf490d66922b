"""Span tracer for the traced benchmark run.

The tracer replaces the public functions of each library module with
thin wrappers that record one span per call: name, start, end, parent
span and the workload iteration ("run") it belongs to.  Every binding a
caller looks up is replaced, not only the defining module's own, because
`spectral`, `assembly` and `cli` each hold their own `from ... import`
references.  Nothing inside `src/` changes; `uninstall()` restores every
binding.

Spans live in flat arrays while the run is going and are written out
once at the end.  Per-layer metrics are derived from the spans of one
iteration at a time, so counters can be compared between iterations.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import statistics
import sys
from array import array
from time import perf_counter

PACKAGE = "fractalsturm"
LAYERS = ("_kernels", "spectral", "assembly", "selfsim", "reduction", "measures")

# Kernel entry points wrapped even when numba turns them into dispatchers
# (inspect.isfunction is false then); wrapping them directly makes every
# breakdown retry inside negative_pivot_count count as a sweep.
_KERNELS = ("sturm_pivots", "sturm_pivots_many")


def _layer_functions(module) -> dict[str, object]:
    """Public functions defined in a module, kernel entry points first."""
    found = {}
    if module.__name__.endswith("._kernels"):
        found = {name: getattr(module, name) for name in _KERNELS}
    for name, value in vars(module).items():
        if name.startswith("_") or any(value is fn for fn in found.values()):
            continue
        if inspect.isfunction(value) and value.__module__ == module.__name__:
            found[name] = value
    return found


def _sweep(args, result):
    return 1, int(args[0].shape[0])


def _sweep_many(args, result):
    return int(args[4].shape[0]), int(args[0].shape[0])


def _mesh(args, result):
    return int(result.nodes.size), 0


# Work recorded per span: (lambdas, nodes) swept by a kernel call, or the
# size of the result for the other counted calls.
_WORK = {
    "_kernels.sturm_pivots": _sweep,
    "_kernels.sturm_pivots_many": _sweep_many,
    "assembly.assemble": _mesh,
    "assembly.assemble_selfsimilar_pair": _mesh,
    "assembly.assemble_iterated_pair": _mesh,
    "selfsim.support_cells": lambda args, result: (len(result), 0),
    "reduction.transform_measure": lambda args, result: (len(result.atoms), 0),
}


class Tracer:
    """Records spans of wrapped library calls made while `run` is set."""

    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("H")
        self.parent = array("q")
        self.run_of = array("q")
        self.start = array("d")
        self.end = array("d")
        self.work = array("q")
        self.nodes = array("q")
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self.run: int | None = None

    # -- installation -------------------------------------------------
    def _wrapper(self, name: str, fn):
        tracer = self
        name_id = len(self.names)
        self.names.append(name)
        work = _WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            run = tracer.run
            if run is None:
                return fn(*args, **kwargs)
            sid = len(tracer.start)
            stack = tracer._stack
            tracer.name_of.append(name_id)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.run_of.append(run)
            tracer.end.append(0.0)
            tracer.work.append(0)
            tracer.nodes.append(0)
            stack.append(sid)
            tracer.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[sid] = perf_counter()
                stack.pop()
            if work is not None:
                tracer.work[sid], tracer.nodes[sid] = work(args, result)
            return result

        return traced

    def install(self) -> None:
        modules = [importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS]
        importlib.import_module(f"{PACKAGE}.cli")
        wrappers: dict[int, object] = {}
        for layer, module in zip(LAYERS, modules):
            for fname, fn in _layer_functions(module).items():
                wrappers[id(fn)] = self._wrapper(f"{layer}.{fname}", fn)
        measures = modules[LAYERS.index("measures")]
        integral = measures.StepFunction.integral
        self._set(measures.StepFunction, "integral",
                  self._wrapper("measures.StepFunction.integral", integral))
        bindings = [
            m for key, m in sorted(sys.modules.items())
            if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        for module in bindings:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._set(module, attr, wrapper)

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- output -------------------------------------------------------
    def write(self, path) -> int:
        with gzip.open(path, "wt") as fh:
            for sid in range(len(self.start)):
                fh.write(json.dumps({
                    "id": sid,
                    "parent": self.parent[sid],
                    "run": self.run_of[sid],
                    "name": self.names[self.name_of[sid]],
                    "start": self.start[sid],
                    "end": self.end[sid],
                }) + "\n")
        return len(self.start)

    # -- per-layer metrics ----------------------------------------------
    def run_metrics(self, run: int) -> dict[str, float]:
        """Per-layer metrics from the spans of one iteration."""
        sids = [s for s in range(len(self.start)) if self.run_of[s] == run]
        by_name: dict[str, list[int]] = {}
        for s in sids:
            by_name.setdefault(self.names[self.name_of[s]], []).append(s)
        name = {s: n for n, group in by_name.items() for s in group}
        dur = {s: self.end[s] - self.start[s] for s in sids}
        child_time = dict.fromkeys(sids, 0.0)
        for s in sids:
            if self.parent[s] >= 0:
                child_time[self.parent[s]] += dur[s]

        def ancestors(s):
            p = self.parent[s]
            while p >= 0:
                yield p
                p = self.parent[p]

        def calls(*names: str) -> list[int]:
            return [s for n in names for s in by_name.get(n, ())]

        def under(s, n: str) -> bool:
            return any(name[a] == n for a in ancestors(s))

        def outer_time(*names: str) -> float:
            """Time covered by the named spans, not counting nested repeats."""
            return sum(
                dur[s] for s in calls(*names)
                if not any(name[a] in names for a in ancestors(s))
            )

        def self_time(layer: str) -> float:
            return sum(
                dur[s] - child_time[s] for n, group in by_name.items()
                if n.startswith(layer + ".") for s in group
            )

        kernel_names = [n for n in by_name if n.startswith("_kernels.")]
        sweep_spans = calls("_kernels.sturm_pivots", "_kernels.sturm_pivots_many")
        sweeps = sum(self.work[s] for s in sweep_spans)
        pairs = sum(self.work[s] * self.nodes[s] for s in sweep_spans)
        sweep_s = sum(dur[s] for s in sweep_spans)
        # a negative_pivot_count span holding k > 1 sweeps retried k - 1 times
        per_count: dict[int, int] = {}
        for s in calls("_kernels.sturm_pivots"):
            p = self.parent[s]
            if p >= 0 and name[p] == "_kernels.negative_pivot_count":
                per_count[p] = per_count.get(p, 0) + 1
        eig_spans = calls("spectral.eigenvalue")
        eig_sweeps = sum(self.work[s] for s in sweep_spans if under(s, "spectral.eigenvalue"))
        assemble_names = [n for n in by_name if n.startswith("assembly.assemble")]
        nodes = sum(self.work[s] for s in calls(*assemble_names))
        pair_s = outer_time("assembly.assemble_selfsimilar_pair", "assembly.assemble_iterated_pair")
        general_s = outer_time("assembly.assemble")
        return {
            "kernels.sweeps": sweeps,
            "kernels.node_lambda_pairs": pairs,
            "kernels.busy_s": outer_time(*kernel_names),
            "kernels.ns_per_node_lambda": 1e9 * sweep_s / pairs if pairs else 0.0,
            "kernels.lambdas_per_call": sweeps / len(sweep_spans) if sweep_spans else 0.0,
            "kernels.retries": sum(k - 1 for k in per_count.values()),
            "spectral.resolve_shift_calls": len(calls("spectral.resolve_shift")),
            "spectral.shift_candidates": sum(
                1 for s in calls("_kernels.min_pivot_ratio") if under(s, "spectral.resolve_shift")
            ),
            "spectral.resolve_shift_s": outer_time("spectral.resolve_shift"),
            "spectral.sweeps_per_eigenvalue": eig_sweeps / len(eig_spans) if eig_spans else 0.0,
            "spectral.eigenvalue_s": outer_time("spectral.eigenvalue"),
            "spectral.counting_s": outer_time("spectral.count", "spectral.counting_function"),
            "spectral.self_s": self_time("spectral"),
            "assembly.pair_s": pair_s,
            "assembly.general_s": general_s,
            "assembly.nodes": nodes,
            "assembly.us_per_node": 1e6 * (pair_s + general_s) / nodes if nodes else 0.0,
            "assembly.self_s": self_time("assembly"),
            "selfsim.support_cells_s": outer_time("selfsim.support_cells"),
            "selfsim.cells": sum(self.work[s] for s in calls("selfsim.support_cells")),
            "selfsim.jump_atoms_s": outer_time("selfsim.jump_atoms"),
            "selfsim.evaluate_calls": len(calls("selfsim.evaluate")),
            "selfsim.evaluate_s": outer_time("selfsim.evaluate"),
            "reduction.transform_s": outer_time("reduction.transform_measure"),
            "reduction.atoms_out": sum(self.work[s] for s in calls("reduction.transform_measure")),
            "measures.integral_calls": len(calls("measures.StepFunction.integral")),
            "measures.integral_s": outer_time("measures.StepFunction.integral"),
        }


COUNTERS = (
    "kernels.sweeps",
    "kernels.node_lambda_pairs",
    "kernels.retries",
    "spectral.resolve_shift_calls",
    "spectral.shift_candidates",
    "spectral.sweeps_per_eigenvalue",
    "assembly.nodes",
    "selfsim.cells",
    "selfsim.evaluate_calls",
    "reduction.atoms_out",
    "measures.integral_calls",
)


def combine(per_run: list[dict[str, float]]) -> tuple[dict[str, float], list[str]]:
    """Median of each timing over iterations; counters must repeat exactly.

    Returns (metrics, names of counters that differed between iterations).
    """
    out = {}
    unsteady = []
    for key in per_run[0]:
        values = [m[key] for m in per_run]
        if key in COUNTERS:
            if any(v != values[0] for v in values):
                unsteady.append(key)
            out[key] = values[0]
        else:
            out[key] = statistics.median(values)
    return out, unsteady
