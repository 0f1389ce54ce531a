"""Sensitivity canaries: the benchmark notices what it is meant to notice.

Run with ``python3 -m pytest perfbench/canaries.py -q`` from the root of a
checkout (about four minutes on 2 cores).  The file name keeps the suite
out of the repository's default test run.

* A fixed sleep added to every kernel-seam call (a benchmark-side wrapper,
  nothing under ``src`` changes) pushes the count-space rate of
  ``engine-cells`` past the bound, while the warm sweeps of
  ``paper-sweeps``, which never draw, stay inside it.
* A ``FaultPlan`` that raises at seam ``worker.compute`` on one cell makes
  the run report a failure: it neither crashes nor passes silently.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BOUND = {m["name"]: m["bound"] for m in json.loads(
    (ROOT / "BENCHMARK.json").read_text())["end_to_end"]}["wall_s"]
#: Seconds added to each kernel-seam call: ~1000 calls in the count group
#: (~3.5 s) make this a ~35% slowdown of that group.
KERNEL_DELAY_S = 0.002


def bench(workload: str, **env: str):
    """One single-pass run; returns (exit code, result, stage values)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, env=dict(os.environ, **env), capture_output=True,
        text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    stages = json.loads(next(line for line in lines
                             if line.startswith("# stages")).split(" ", 4)[4])
    return proc.returncode, json.loads(lines[-1]), stages


def test_kernel_delay_moves_count_rate_not_warm_sweeps():
    delay = {"PERFBENCH_KERNEL_DELAY_S": str(KERNEL_DELAY_S)}
    _, _, engine = bench("engine-cells")
    _, _, engine_slow = bench("engine-cells", **delay)
    _, _, sweeps = bench("paper-sweeps")
    _, _, sweeps_slow = bench("paper-sweeps", **delay)
    # "worse by more than the bound", as a share of the baseline
    slowdown = 1.0 - (engine_slow["count_rounds_per_s"]
                      / engine["count_rounds_per_s"])
    assert slowdown > BOUND, f"count rate fell only {slowdown:.1%}"
    warm = sweeps_slow["warm_total_s"] / sweeps["warm_total_s"] - 1.0
    assert abs(warm) < BOUND, f"warm sweeps moved {warm:.1%}"


def test_injected_cell_failure_is_reported():
    plan = {"schema": 1, "seed": 0, "journal": None,
            "specs": [{"seam": "worker.compute", "shape": "raise",
                       "times": 1}]}
    code, result, _ = bench("engine-cells",
                            REPRO_FAULT_PLAN=json.dumps(plan))
    assert code == 0
    assert result["failed"] > 0 and result["correct"] is False
    assert result["attempted"] > result["failed"]
