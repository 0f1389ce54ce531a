"""engine-cells: three groups of cells through ``runner.run_cell`` in this
process, one cell after the other (a closed loop).

(a) ``count``: kernel-bound count space (``occupancy-fused``, blocks, n=10⁹)
    — the paper's two-choices comparison at sizes only count space reaches;
    most of the time is the compiled multinomial kernel.
(b) ``adversary``: adversary-bound count space (median, n=10⁸, √n-bounded
    adversaries at T = 0.25·√n) — the same engine with the kernel almost
    idle; most of the time is ``Adversary.corrupt_counts``.
(c) ``value``: value space (``vectorized``, n=10⁵) — the ``core`` rules and
    ``Adversary.propose`` that count space never touches.

Each group reports run-rounds per second: the converged rounds of every run
summed, over the group's wall time, so the rates stay comparable across
seeds.
"""

from __future__ import annotations

import math
from typing import Dict

from common import Stopwatch, Tally, derive_seed, guarded

#: Group → metric name of its run-rounds rate.
RATES = {"count": "count_rounds_per_s",
         "adversary": "adversary_rounds_per_s",
         "value": "value_rounds_per_s"}

#: Accepted band for a cell's mean rounds, as factors of a rule's scale.
#: The median rule's scale is log2 n: Theorem 1 bounds it at O(log n) from
#: the worst case, and the √n adversary keeps it at O(log m · log log n +
#: log n), which is O(log n) at these sizes.  The majority rules' scale is
#: m · log2 n: from m equal blocks they need O(m log n) rounds.  A cell
#: outside its band signals a wrong result, not a slow one.
ROUNDS_BAND = {"median": (0.25, 4.0),
               "three-majority": (0.05, 2.0),
               "two-choices-majority": (0.05, 2.0)}


def build_cells(seed: int) -> Dict[str, list]:
    """The three groups of cells, seeded from the benchmark seed."""
    from repro.experiments.config import ExperimentConfig

    specs = {
        "count": [
            dict(rule="three-majority", n=10 ** 9, m=64, runs=256),
            dict(rule="two-choices-majority", n=10 ** 9, m=64, runs=128),
            dict(rule="median", n=10 ** 9, m=256, runs=512),
        ],
        "adversary": [
            dict(rule="median", n=10 ** 8, m=64, runs=256,
                 adversary="balancing", budget=2500),
            dict(rule="median", n=10 ** 8, m=64, runs=256,
                 adversary="sticky", budget=2500),
        ],
        "value": [
            dict(rule="median", n=10 ** 5, m=16, runs=16,
                 adversary="balancing", budget=79, engine="vectorized"),
            dict(rule="three-majority", n=10 ** 5, m=16, runs=4,
                 engine="vectorized"),
        ],
    }
    groups: Dict[str, list] = {}
    index = 0
    for group, cells in specs.items():
        groups[group] = []
        for spec in cells:
            engine = spec.get("engine", "occupancy-fused")
            workload = "blocks" if engine == "occupancy-fused" else \
                "uniform-random"
            groups[group].append(ExperimentConfig(
                name=f"{group}:{spec['rule']}:{spec.get('adversary', 'null')}"
                     f":n={spec['n']},m={spec['m']}",
                workload=workload,
                workload_params={"n": spec["n"], "m": spec["m"]},
                rule=spec["rule"],
                adversary=spec.get("adversary", "null"),
                adversary_budget=spec.get("budget", 0),
                num_runs=spec["runs"],
                seed=derive_seed(seed, index),
                engine=engine))
            index += 1
    return groups


def setup(seed: int, kernel: str) -> Dict[str, list]:
    import repro.experiments.runner  # noqa: F401  (imported before timing)

    return build_cells(seed)


def run_pass(groups: Dict[str, list], tally: Tally,
             tracer) -> Dict[str, float]:
    """Every cell once; returns the three rates and the pass wall."""
    from repro.experiments.runner import run_cell

    watch = Stopwatch()
    phases: Dict[str, float] = {"wall_s": 0.0, "raw_wall_s": 0.0}
    for group, cells in groups.items():
        rounds = scaled = 0.0
        for cell in cells:
            result, raw, seconds = watch.time(
                lambda: guarded(run_cell, cell), tracer.phase(group))
            scaled += seconds
            phases["raw_wall_s"] += raw
            if not tally.count(not isinstance(result, Exception),
                               f"{cell.name}: {result!r}"):
                continue
            check_cell(tally, cell, result)
            rounds += sum(r for r in result.rounds if math.isfinite(r))
        phases[RATES[group]] = rounds / scaled
        phases["wall_s"] += scaled
    return phases


def check_cell(tally: Tally, cell, result) -> None:
    """Every run converged, and the mean rounds sit in the log-n band."""
    tally.count(result.convergence_fraction == 1.0,
                f"{cell.name}: convergence_fraction "
                f"{result.convergence_fraction} != 1.0")
    scale = math.log2(cell.n) * (1 if cell.rule == "median" else cell.m)
    lo, hi = (f * scale for f in ROUNDS_BAND[cell.rule])
    tally.count(lo <= result.mean_rounds <= hi,
                f"{cell.name}: mean rounds {result.mean_rounds:.2f} outside "
                f"[{lo:.1f}, {hi:.1f}]")
