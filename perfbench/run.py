"""fractalsturm benchmark: end-to-end and per-layer metrics with oracle checks.

Run from the root of a checkout:

    python3 perfbench/run.py --workload {asymptotics,counterexample,general} \
        --seed N --seconds S --trace {0,1}

Every measured run is a fresh worker process (`worker.py`) with the BLAS
and OpenMP thread pools pinned to one thread and the checkout's `src` on
the import path.  With `--trace 0` one worker measures the end-to-end
metrics with tracing off.  With `--trace 1` an untraced worker and then a
traced worker each get half the time; the traced one reports the
per-layer metrics, and the difference of their wall times is the tracing
overhead.  Results and spans go to `perfbench/out/`; the last stdout line
is the JSON result.  The exit code is 0 only when every oracle check
passed; a checkout without the package is an error (exit 2).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("asymptotics", "counterexample", "general")
DEADLINE_S = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
END_TO_END = ("wall_s", "setup_s", "queries_per_s", "peak_rss_mb")


def machine() -> dict:
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model, "platform": platform.platform()}


def run_worker(root: Path, args, seconds: float, trace: int, deadline: float) -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["PYTHONHASHSEED"] = "0"
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(seconds), "--trace", str(trace),
        "--out-dir", str(HERE / "out"),
    ]
    with subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True) as proc:
        try:
            stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise RuntimeError(f"{args.workload} worker ran past the {DEADLINE_S:.0f} s deadline")
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{args.workload} worker failed with exit code {proc.returncode}")
    result = json.loads(lines[-1])
    package = Path(result["versions"]["fractalsturm"]).resolve()
    if root.resolve() not in package.parents:
        raise RuntimeError(f"imported fractalsturm from {package}, not from this checkout")
    return result


def main(argv=None) -> int:
    started = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "fractalsturm" / "__init__.py").is_file():
        print(f"perfbench: no src/fractalsturm under {root}; run from a checkout root",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    (HERE / "out").mkdir(exist_ok=True)
    deadline = started + DEADLINE_S

    try:
        if args.trace:
            plain = run_worker(root, args, args.seconds / 2.0, 0, deadline)
            traced = run_worker(root, args, args.seconds / 2.0, 1, deadline)
            runs = [plain, traced]
            measured = dict(traced["layers"])
            measured["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
        else:
            plain = run_worker(root, args, float(args.seconds), 0, deadline)
            runs = [plain]
            measured = {key: plain[key] for key in END_TO_END}
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    # BENCHMARK.json names the metrics and their units; report exactly those.
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    missing = sorted(set(units) - set(measured))
    if missing:
        print(f"perfbench: no measurement for {', '.join(missing)}", file=sys.stderr)
        return 1
    metrics = {name: measured[name] for name in units}

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    correct = all(r["correct"] for r in runs)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
        "versions": plain["versions"],
        "failed_frac": failed / attempted,
        "max_rel_err": max(r["max_rel_err"] for r in runs),
        "runs": runs,
    }
    out_file = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(report, indent=1) + "\n")

    for r in runs:
        mode = "traced" if r["traced"] else "untraced"
        print(f"# {args.workload} {mode}: {r['iterations']} iterations, "
              f"{r['checked_per_iteration']}/{r['queries_per_iteration']} queries "
              f"oracle-checked per iteration")
        for name, ok in r["checks"].items():
            print(f"#   check {'PASS' if ok else 'FAIL'}: {name}")
    print(f"# failed_frac {report['failed_frac']:.6g}  max_rel_err {report['max_rel_err']:.6g}")
    for name, value in metrics.items():
        print(f"{name} {value!r} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
