"""Seed studies of the benchmark's end-to-end metrics.

Usage (from the root of a checkout)::

    python3 perfbench/seeds.py spread [--runs 10] [--workload W ...]
    python3 perfbench/seeds.py second-seed [--seed 0] [--second-seed 1]
                                           [--runs 3] [--workload W ...]

``spread`` runs each workload once per seed (seeds 1..runs) and reports,
per end-to-end metric, the distance between the first and third quartile
of its values as a share of their median, against the metric's bound.

``second-seed`` runs each workload ``--runs`` times on a first and a second
seed and records, per metric, whether the second seed's median stays within
the metric's bound of the first seed's median (direction-aware: only a
change for the worse counts).  A metric that stays within its bound can be
checked on a held-out seed by a later change.

Both print a table and write their values as JSON (``--out``) with the
first run's attribution stamp.  Every run must pass its correctness checks
and draw with the same multinomial kernel, or the study stops with a
non-zero exit code.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
METRICS = {m["name"]: m for m in SPEC["end_to_end"]}
#: Attribution stamps of every run of the study.
STAMPS: list = []


def run_once(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
         "--trace", "0"], cwd=ROOT, capture_output=True, text=True,
        timeout=300)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: run failed")
    stamp = json.loads(next(line for line in proc.stdout.splitlines()
                            if line.startswith("# stamp "))[len("# stamp "):])
    STAMPS.append(stamp)
    kernels = {s["multinomial_kernel"] for s in STAMPS}
    if len(kernels) > 1:
        raise SystemExit(f"runs drew with different kernels {kernels}; "
                         f"their figures cannot be compared")
    values = {name: m["value"] for name, m in result["metrics"].items()}
    print(f"  {workload} seed {seed}: " + ", ".join(
        f"{k}={v:.4g}" for k, v in values.items()), flush=True)
    return values


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(name: str, first: float, second: float) -> float:
    """How much worse ``second`` is than ``first``, as a share of first."""
    if METRICS[name]["better"] == "lower":
        return second / first - 1.0
    return 1.0 - second / first


def study_spread(args) -> dict:
    out = {}
    for workload in args.workload:
        runs = [run_once(workload, seed) for seed in range(1, args.runs + 1)]
        out[workload] = {}
        for name, metric in METRICS.items():
            values = [r[name] for r in runs]
            out[workload][name] = {
                "values": values, "median": statistics.median(values),
                "spread": spread(values), "bound": metric["bound"]}
            print(f"{workload:14s} {name:12s} median "
                  f"{statistics.median(values):10.4g} spread "
                  f"{spread(values):.3f} (bound {metric['bound']})")
    return out


def study_second_seed(args) -> dict:
    out = {}
    for workload in args.workload:
        first = [run_once(workload, args.seed) for _ in range(args.runs)]
        second = [run_once(workload, args.second_seed)
                  for _ in range(args.runs)]
        out[workload] = {}
        for name, metric in METRICS.items():
            a = statistics.median(r[name] for r in first)
            b = statistics.median(r[name] for r in second)
            change = worse_by(name, a, b)
            out[workload][name] = {
                "first_median": a, "second_median": b, "worse_by": change,
                "bound": metric["bound"],
                "within_bound": change <= metric["bound"]}
            print(f"{workload:14s} {name:12s} {a:10.4g} -> {b:10.4g} "
                  f"worse by {change:+.3f} (bound {metric['bound']}): "
                  f"{'within' if change <= metric['bound'] else 'OUTSIDE'}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/seeds.py")
    parser.add_argument("study", choices=("spread", "second-seed"))
    parser.add_argument("--workload", nargs="+", default=WORKLOADS,
                        choices=WORKLOADS)
    parser.add_argument("--runs", type=int)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--second-seed", type=int, default=1)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if args.study == "spread":
        args.runs = args.runs or 10
        out = study_spread(args)
    else:
        args.runs = args.runs or 3
        out = study_second_seed(args)
    if args.out:
        args.out.write_text(json.dumps(
            {"study": args.study, "runs": args.runs,
             "run_seconds": SPEC["run_seconds"], "stamp": STAMPS[0],
             "workloads": out},
            indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
