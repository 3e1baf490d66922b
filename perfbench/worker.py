"""One measured process: run a workload for a time budget, then check it.

Started by `run.py` with the thread pools pinned and `src` on the path;
prints one JSON object on its last stdout line.  The loop runs whole
iterations (setup + solve) while the next one is expected to fit into
the budget.  Peak RSS is read before the oracles run, so their memory is
not counted.  With `--trace 1` the span tracer is installed first and
per-layer metrics come from the spans of each iteration.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import oracles
from tracer import Tracer, combine

# Besides the setup inside each iteration, standalone setups run after
# each iteration while they stay within SETUP_SHARE of the elapsed time,
# so cheap setups (a few ms) are sampled all through the run; at the end
# they top up to MIN_SETUPS samples while time allows.
SETUP_SHARE = 0.05
MIN_SETUPS = 5


def measure(workload, seconds: float, min_iterations: int, tracer: Tracer | None):
    """Time whole iterations and standalone setups while the next one fits."""
    walls, setups, solves, outputs, per_run, raised = [], [], [], [], [], []
    first_state = None
    start = time.perf_counter()
    standalone = 0.0

    def fits(samples) -> bool:
        return time.perf_counter() - start + statistics.median(samples) <= seconds

    def setup_alone() -> None:
        nonlocal standalone
        t0 = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - t0)
        standalone += setups[-1]

    while len(walls) < min_iterations or fits(walls):
        if tracer is not None:
            tracer.run = len(walls)
        t0 = time.perf_counter()
        try:
            state = workload.setup()
            t1 = time.perf_counter()
            out = workload.solve(state)
        except Exception:
            # every query of the iteration counts as failed; the inputs
            # repeat, so a further iteration would raise again
            traceback.print_exc()
            raised.append(traceback.format_exc(limit=1).strip().splitlines()[-1])
            break
        finally:
            if tracer is not None:
                tracer.run = None
        t2 = time.perf_counter()
        if tracer is not None:
            per_run.append(tracer.run_metrics(len(walls)))
        walls.append(t2 - t0)
        setups.append(t1 - t0)
        solves.append(t2 - t1)
        outputs.append(out)
        if first_state is None:
            first_state = state
        while tracer is None and (
            standalone + statistics.median(setups) <= SETUP_SHARE * (time.perf_counter() - start)
        ):
            setup_alone()
    while not raised and tracer is None and len(setups) < MIN_SETUPS and fits(setups):
        setup_alone()
    return walls, setups, solves, outputs, first_state, per_run, raised


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out-dir", required=True)
    args = ap.parse_args(argv)

    import numpy
    import scipy
    import fractalsturm
    from fractalsturm import _kernels
    from workloads import WORKLOADS

    out_dir = Path(args.out_dir)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    workload = WORKLOADS[args.workload](args.seed, out_dir)
    walls, setups, solves, outputs, state, per_run, raised = measure(
        workload, args.seconds, 2 if tracer else 1, tracer
    )
    if not walls:
        print(f"perfbench: {args.workload} raised before finishing an iteration", file=sys.stderr)
        return 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": bool(args.trace),
        "iterations": len(walls),
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        # throughput over the whole run: a median of the short solve phases
        # flips between the host's fast and slow periods
        "queries_per_s": workload.queries * len(solves) / sum(solves),
        "wall_samples": walls,
        "setup_samples": setups,
        "queries_per_iteration": workload.queries,
        "peak_rss_mb": peak_rss_mb,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "numba": bool(_kernels.NUMBA_ENABLED),
            "fractalsturm": fractalsturm.__file__,
        },
    }
    if tracer is not None:
        tracer.uninstall()
        layers, unsteady = combine(per_run)
        result["layers"] = layers
        result["unsteady_counters"] = unsteady
        spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
        result["spans"] = tracer.write(spans_path)
        result["spans_file"] = str(spans_path)

    # Checks run outside the timed region.  Every iteration must repeat
    # the first one's outputs exactly; the first is checked by the oracles.
    errors, checks = workload.check(state, outputs[0])
    bad = [e is not None and not e <= oracles.TOL for e in errors]
    failed = sum(bad) * len(outputs) + workload.queries * len(raised)
    if raised:
        checks["no query raised"] = False
    for out in outputs[1:]:
        if out != outputs[0]:
            failed += workload.queries
            checks["outputs repeat across iterations"] = False
    checked = [e for e in errors if e is not None]
    result.update({
        "attempted": workload.queries * (len(outputs) + len(raised)),
        "raised": raised,
        "failed": failed,
        "checked_per_iteration": len(checked),
        "max_rel_err": max(checked) if checked else 0.0,
        "checks": checks,
        "output": outputs[0],
    })
    result["correct"] = failed == 0 and all(checks.values()) and not result.get("unsteady_counters")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
