"""The benchmark's contract: `perfbench/run.py` exits 0 with every check passed.

Each workload runs for one second from the repository root, in a fresh
interpreter, as the benchmark runs it.  That covers what no other test
runs: the worker's imports and the fields it reads of the package, the
oracles' reads of the pencils' arrays and, with `--trace 1` on
`counterexample`, the tracer on a pair pencil.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload, trace", [("asymptotics", 0), ("counterexample", 1), ("general", 0)])
def test_perfbench_run_passes_every_check(workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1", "--seconds", "1",
           "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, result
