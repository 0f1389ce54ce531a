"""The repository's benchmark: one command, three workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload W --seed N --seconds S --trace {0,1}

    W: paper-sweeps | engine-cells | backend-fleet

With ``--trace 0`` it sets the workload up (five times, in fresh
interpreters, for ``setup_s``), then repeats closed-loop passes over the
workload's inputs until ``--seconds`` have passed (at least one pass),
checks every output, and prints the end-to-end metrics.  With ``--trace 1``
it runs one untraced pass as the reference, then one pass with spans around
the program's public calls, and prints the per-layer metrics.  The last
line of standard output is the JSON result; lines before it starting with
``#`` carry the attribution stamp, the stage values and the layer ranking.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper-sweeps", "engine-cells", "backend-fleet")
SETUP_SAMPLES = 5


def parse(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _module(workload: str):
    if workload == "paper-sweeps":
        import sweeps
        return sweeps
    if workload == "engine-cells":
        import cells
        return cells
    import fleet
    return fleet


def _setup(args):
    """Everything before the first timed call: imports, kernel, fixtures."""
    from common import kernel_guard

    kernel = kernel_guard()
    return kernel, _module(args.workload).setup(args.seed, kernel)


def _setup_seconds(args) -> float:
    """Median of SETUP_SAMPLES set-ups, each in a fresh interpreter, in
    seconds scaled to the reference speed."""
    from common import Stopwatch, median

    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PERFBENCH_")}
    command = [sys.executable, str(HERE / "run.py"), "--workload",
               args.workload, "--seed", str(args.seed), "--seconds", "0",
               "--setup-only"]
    watch = Stopwatch()
    return median([watch.time(lambda: subprocess.run(
        command, env=env, check=True, timeout=120))[2]
        for _ in range(SETUP_SAMPLES)])


def _passes(module, fx, tally, tracer, seconds: float):
    """Closed-loop passes until ``seconds`` have passed (at least one)."""
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(module.run_pass(fx, tally, tracer))
    return passes


def _run(args) -> int:
    import probe
    from common import (Tally, child_env, fresh_dir, median, peak_rss_mb,
                        result_line, stamp)

    setup_s = _setup_seconds(args)
    kernel, fx = _setup(args)
    print("# stamp " + json.dumps(stamp(kernel), sort_keys=True))
    module = _module(args.workload)
    tally = Tally()
    delay = float(os.environ.get(probe.KERNEL_DELAY_ENV) or 0)
    if not args.trace:
        if delay:
            probe.install(None, delay, "root")
        passes = _passes(module, fx, tally, probe.TRACER, args.seconds)
        stages = {key: median([p[key] for p in passes]) for key in passes[0]}
        print(f"# stages ({len(passes)} passes) "
              + json.dumps(stages, sort_keys=True))
        metrics = {"setup_s": (setup_s, "s"),
                   "wall_s": (stages["wall_s"], "s"),
                   "peak_rss_mb": (peak_rss_mb(), "MB")}
    else:
        import layers
        from fleet import WORKERS

        untraced = module.run_pass(fx, tally, probe.NullTracer())["wall_s"]
        trace_dir = fresh_dir("trace")
        os.environ[probe.TRACE_ENV] = str(trace_dir)
        # spawned workers find the site hook through the inherited env
        os.environ["PYTHONPATH"] = child_env()["PYTHONPATH"]
        tracer = probe.install(str(trace_dir), delay, "root")
        stages = module.run_pass(fx, tally, tracer)
        tracer.flush()
        values, ranking = layers.analyse(trace_dir, stages, stages["wall_s"],
                                         untraced, WORKERS)
        values.update(layers.import_profile())
        for phase, ranked in sorted(ranking.items()):
            print(f"# layers {phase}: " + ", ".join(
                f"{name}={seconds:.3f}s" for name, seconds in ranked[:8]))
        metrics = {name: (value, layers.unit_of(name))
                   for name, value in sorted(values.items())}
    for problem in tally.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(result_line(tally, metrics), flush=True)
    return 0


def main(argv=None) -> int:
    args = parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}; run "
              f"from the root of a full checkout", file=sys.stderr)
        return 2
    from common import BenchError, clean_work, stop_children

    try:
        if args.setup_only:
            _setup(args)
            return 0
        return _run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        stop_children()
        clean_work()


if __name__ == "__main__":
    sys.exit(main())
