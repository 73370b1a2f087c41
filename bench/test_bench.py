"""The benchmark's own test: two traced runs with the same seed do exactly
the same work (every span's call count and every counter: evaluations,
solves, iterations, parameter objects built, cells evaluated).

Run by hand, not in the tier-1 suite (about a minute per workload):

    python3 -m pytest bench/test_bench.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SEED = 7


def _traced_record(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"], proc.stdout
    return json.loads((ROOT / ".bench_out" / f"{workload}-seed{SEED}-trace1.json").read_text())


@pytest.mark.parametrize("workload", ["paper-compare", "large-field-greedy", "long-horizon-mpc"])
def test_traced_work_counts_repeat(workload):
    first = _traced_record(workload)["work_counts"]
    second = _traced_record(workload)["work_counts"]
    assert first == second
    for key in ("controllers.solve.calls", "controllers.cost_eval.calls",
                "controllers.jac_eval.calls", "iterations", "params_built",
                "cells_evaluated"):
        assert first[key] > 0, key
