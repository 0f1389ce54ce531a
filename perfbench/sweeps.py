"""paper-sweeps: the nine ``FIGURE_REGISTRY`` sweeps, each in a fresh
interpreter, cold on an empty store and then warm on the same store.

This is what a user of the reproduction does to regenerate the paper's
tables.  Interpreter start, imports and store I/O are most of the wall
clock, so this workload shows start-up and store changes and bypasses
engine changes.  Cold runs write every cell to the store and warm runs read
every cell back, so the store is used both ways.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List

from common import (HERE, Stopwatch, Tally, child_env, derive_seed,
                    fresh_dir, require_same_kernel)

SWEEPS = ("theorem1", "theorem2", "theorem3", "theorem4", "theorem10",
          "figure1", "minrule", "adversary-threshold", "rule-comparison")
LAUNCHER = HERE / "launch.py"
TIMEOUT_S = 60


@dataclass
class Fixture:
    seeds: List[int]
    kernel: str


def setup(seed: int, kernel: str) -> Fixture:
    return Fixture(seeds=[derive_seed(seed, i) for i in range(len(SWEEPS))],
                   kernel=kernel)


def _launch(name: str, seed: int, store: Path, tag: str):
    """One fresh-interpreter sweep; returns its summary, or None if it
    failed."""
    out = store.parent / f"{store.name}.{tag}.json"
    env = child_env({"PERFBENCH_ROLE": "launcher",
                     "PERFBENCH_SPAWNED": repr(time.perf_counter())})
    proc = subprocess.run(
        [sys.executable, str(LAUNCHER), name, str(seed), str(store), str(out)],
        env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    if proc.returncode != 0 or not out.exists():
        sys.stderr.write(proc.stderr[-2000:])
        return None
    return json.loads(out.read_text())


def run_pass(fx: Fixture, tally: Tally, tracer) -> Dict[str, float]:
    """Every sweep cold then warm; returns the two totals and the pass wall."""
    from repro.store import ResultStore

    watch = Stopwatch()
    totals = {"cold": 0.0, "warm": 0.0}
    raw_total = 0.0
    for name, seed in zip(SWEEPS, fx.seeds):
        store = fresh_dir(f"sweep-{name}")
        summary = {}
        for tag in ("cold", "warm"):
            summary[tag], raw, scaled = watch.time(
                lambda: _launch(name, seed, store, tag), tracer.phase(tag))
            totals[tag] += scaled
            raw_total += raw
        cold, warm = summary["cold"], summary["warm"]
        cold_ok = tally.count(cold is not None, f"{name}: cold sweep failed")
        warm_ok = tally.count(warm is not None, f"{name}: warm sweep failed")
        if not (cold_ok and warm_ok):
            continue
        tally.count(cold["failures"] == 0 and cold["hits"] == 0
                    and cold["executed"] == cold["misses"] > 0,
                    f"{name}: cold run is not all computed: {_counts(cold)}")
        tally.count(warm["hits"] == cold["misses"] and warm["misses"] == 0
                    and warm["executed"] == 0,
                    f"{name}: warm run is not all hits: {_counts(warm)}")
        tally.count(_canon(warm) == _canon(cold),
                    f"{name}: warm report differs from the cold report")
        records = ResultStore(store)
        require_same_kernel(
            fx.kernel, (records.get(key).provenance.get("multinomial_kernel")
                        for key in records.keys()), name)
    return {"cold_total_s": totals["cold"], "warm_total_s": totals["warm"],
            "wall_s": totals["cold"] + totals["warm"], "raw_wall_s": raw_total}


def _counts(summary: dict) -> str:
    return ", ".join(f"{k}={summary[k]}"
                     for k in ("hits", "misses", "executed", "failures"))


def _canon(summary: dict) -> str:
    return json.dumps([summary["report"], summary["table"]], sort_keys=True)
