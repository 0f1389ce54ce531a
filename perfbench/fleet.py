"""backend-fleet: one 9-cell sweep, cold on a fresh store, once per backend.

The backends are ``serial`` (the single-node baseline), ``pool`` (2 worker
processes), ``shard`` (2 forked workers leasing cells through lease files)
and ``http`` (a ``CoordinatorServer`` on a local store plus ``HttpBackend``
with 2 spawned, store-less workers that lease over HTTP).  Process start,
the lease protocol, the HTTP transport and store writes all sit on the
timed path, so a transport or start-up change shows on ``http`` and must
not cost ``shard`` or ``pool``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict

from common import (Stopwatch, Tally, derive_seed, fresh_dir, guarded,
                    require_same_kernel)

BACKENDS = ("serial", "pool", "shard", "http")
#: Worker processes of the pool, shard and http backends (2 cores).
WORKERS = 2


@dataclass
class Fixture:
    sweep: object
    kernel: str


def build_sweep(seed: int):
    """Six value-space cells and three count-space cells with an adversary."""
    from repro.experiments.config import ExperimentConfig, SweepConfig

    sweep = SweepConfig(name="backend-fleet", description="fleet sweep")
    for i, n in enumerate(range(16384, 98305, 16384)):
        sweep.add(ExperimentConfig(
            name=f"value:n={n}", workload="uniform-random",
            workload_params={"n": n, "m": 8}, rule="median", num_runs=16,
            seed=derive_seed(seed, i), engine="vectorized"))
    for j, m in enumerate((16, 32, 64)):
        sweep.add(ExperimentConfig(
            name=f"count:m={m}", workload="blocks",
            workload_params={"n": 10 ** 7, "m": m}, rule="median",
            adversary="balancing", adversary_budget=790, num_runs=64,
            seed=derive_seed(seed, 6 + j), engine="occupancy-fused"))
    return sweep


def setup(seed: int, kernel: str) -> Fixture:
    import repro.store.coordinator  # noqa: F401  (imported before timing)

    return Fixture(sweep=build_sweep(seed), kernel=kernel)


def _runner(backend: str, root):
    """A cached runner on a fresh store for ``backend``, and its server."""
    from repro.store import (CachedSweepRunner, CoordinatorServer,
                             CoordinatorStore, HttpBackend, ResultStore)

    store = ResultStore(root)
    if backend == "http":
        server = CoordinatorServer(store).start()
        return CachedSweepRunner(
            CoordinatorStore(server.url),
            backend=HttpBackend(server.url, workers=WORKERS)), server
    return CachedSweepRunner(store, backend=backend,
                             max_workers=WORKERS), None


def run_pass(fx: Fixture, tally: Tally, tracer) -> Dict[str, float]:
    """The sweep once per backend; returns each backend's cold wall."""
    from repro.store import ResultStore, read_execution_log

    watch = Stopwatch()
    phases: Dict[str, float] = {"raw_wall_s": 0.0}
    reports = {}
    for backend in BACKENDS:
        root = fresh_dir(f"fleet-{backend}")
        runner, server = _runner(backend, root)
        try:
            report, raw, phases[f"{backend}_cold_s"] = watch.time(
                lambda: guarded(runner.run, fx.sweep),
                tracer.phase(backend))
        finally:
            if server is not None:
                server.stop()
        phases["raw_wall_s"] += raw
        failed = report if isinstance(report, Exception) else \
            report.meta.get("failures")
        if not tally.count(not failed, f"{backend}: {failed!r}"):
            continue
        reports[backend] = json.dumps(report.to_dict(), sort_keys=True)
        store = ResultStore(root)
        keys = [store.key_for(cell) for cell in fx.sweep]
        records = [store.get(key) for key in keys]
        tally.count(all(r is not None for r in records),
                    f"{backend}: cells missing from the store")
        require_same_kernel(
            fx.kernel, (r.provenance.get("multinomial_kernel")
                        for r in records if r is not None), backend)
        if backend in ("shard", "http"):
            logged = sorted(r["key"] for r in read_execution_log(root))
            tally.count(logged == sorted(keys),
                        f"{backend}: execution log is not each cell once")
    for backend in BACKENDS[1:]:
        tally.count(backend in reports
                    and reports[backend] == reports.get("serial"),
                    f"{backend} report differs from serial")
    phases["wall_s"] = sum(phases[f"{b}_cold_s"] for b in BACKENDS)
    return phases
