"""Run one paper sweep in a fresh interpreter, as ``repro sweep`` would.

Usage::

    PYTHONPATH=src python3 perfbench/launch.py NAME SEED STORE OUT

``repro sweep`` has no ``--seed`` flag, so this launcher makes the calls
``cli._sweep_body`` makes with a seed chosen by the benchmark: it imports
``repro.cli`` (so start-up costs what a CLI user pays), runs the registry's
reproduce function through a serial ``CachedSweepRunner`` on the store at
STORE, prints the table, fits and cache line like the CLI, and writes a JSON
summary (cache counts, report, table) to OUT for the benchmark's checks.
"""

from __future__ import annotations

import json
import os
import sys
import time
from contextlib import nullcontext

SCALE = 0.5
NUM_RUNS = 5


def main(argv) -> int:
    name, seed, store_dir, out = argv[1], int(argv[2]), argv[3], argv[4]
    tracer = None
    if os.environ.get("PERFBENCH_TRACE"):
        import probe   # installed by the traced run's sitecustomize

        tracer = probe.TRACER
        spawned = float(os.environ["PERFBENCH_SPAWNED"])
        tracer.record("cli.interpreter", spawned, time.perf_counter())
    with tracer.span("cli.import") if tracer else nullcontext():
        import repro.cli  # noqa: F401  (the import a CLI user pays)
    from repro.experiments.figures import FIGURE_REGISTRY
    from repro.store import CachedSweepRunner, ResultStore

    runner = CachedSweepRunner(ResultStore(store_dir), backend=None,
                               max_workers=0)
    figure = FIGURE_REGISTRY[name](scale=SCALE, num_runs=NUM_RUNS, seed=seed,
                                   runner=runner)
    print(figure.table)
    for fit in figure.fits:
        print(f"  {fit.predictor_name}: slope={fit.slope:.3f}, "
              f"intercept={fit.intercept:.3f}, R^2={fit.r_squared:.4f}")
    stats = runner.last_stats
    print(f"\ncache: {stats.summary()} (store: {store_dir})")
    with open(out, "w") as fh:
        json.dump({"hits": stats.hits, "misses": stats.misses,
                   "failures": stats.failures,
                   "executed": len(stats.executed),
                   "report": figure.report.to_dict(),
                   "table": figure.table}, fh, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
