"""Pluggable execution backends for store-routed sweeps.

:class:`~repro.store.runner.CachedSweepRunner` partitions a sweep into cache
hits and misses; *how* the misses execute is delegated to an
:class:`ExecutionBackend`:

``serial`` (:class:`SerialBackend`)
    In-process, one cell at a time.  Deterministic and test-friendly; each
    cell is persisted the moment it completes.

``pool`` (:class:`PoolBackend`)
    A ``ProcessPoolExecutor``: each miss is submitted as its picklable
    config plus store key, results are consumed (and persisted) in
    completion order.

``shard`` (:class:`~repro.store.shard.ShardBackend`)
    Multi-worker *sharded* execution: independent worker processes lease
    pending cells straight from the store (atomic lease files keyed by the
    canonical cell hash), so concurrent workers — even ones launched from
    different terminals with overlapping sweeps — compute every cell exactly
    once and any worker can die and be replaced mid-sweep.  See
    :mod:`repro.store.shard`.

``http`` (:class:`~repro.store.coordinator.HttpBackend`)
    The shard protocol served over the wire: workers on *disjoint
    filesystems* lease cells from (and push results back to) a
    :class:`~repro.store.coordinator.CoordinatorServer` holding the one
    real store.  Requires a coordinator URL, so the CLI/runner construct
    the backend instance directly (``HttpBackend(url, workers)``) rather
    than going through the by-name table.  See
    :mod:`repro.store.coordinator`.

Every backend runs the same task function,
:func:`~repro.experiments.runner.compute_cell` (``run_cell`` under the
sweep's retry policy, in the ``cell.compute`` span keyed by the cell hash);
a backend decides only *where* it runs.  The contract: execute the missing
cells of a sweep, persist each one through the runner as it completes, and
return the fresh results by sweep position.  A cell that raises is returned
as the canonical :func:`~repro.experiments.runner.failed_cell_result` (and
is *not* persisted), so a poisoned cell surfaces per-cell in the report
instead of aborting the sweep or silently vanishing — identically on every
backend.
"""

from __future__ import annotations

import time
import warnings
from functools import partial
from typing import (TYPE_CHECKING, Dict, Iterator, List, Optional, Protocol,
                    Tuple, Union)

from repro.engine.batch import usable_cpus
from repro.experiments.config import ExperimentConfig, SweepConfig
from repro.experiments.results import CellResult
from repro.experiments.runner import compute_cell, run_cell
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.robustness import DegradedExecutionWarning
from repro.robustness.faults import fault_point, mark_worker_process
from repro.robustness.retry import DEFAULT_RETRY_POLICY

if TYPE_CHECKING:   # pragma: no cover — typing only, avoids an import cycle
    from repro.store.runner import CachedSweepRunner

__all__ = ["ExecutionBackend", "SerialBackend", "PoolBackend",
           "resolve_backend", "recommended_workers", "BACKEND_NAMES"]


def recommended_workers() -> int:
    """Default worker-process count: usable CPUs minus one, at least 1."""
    return max(1, usable_cpus() - 1)


def _run_and_persist(cell: ExperimentConfig,
                     runner: "CachedSweepRunner") -> CellResult:
    """Compute and persist one cell: the serial backend's retried step.

    A failed write (beyond the unwritable-store degradation
    ``persist_fresh`` already absorbs) re-runs the whole cell, like the shard
    protocol's payload-exists-means-done recovery.  ``run_cell`` is called by
    this module's name, so wrapping ``repro.store.backends.run_cell`` reaches
    every cell computed in the coordinating process.
    """
    t0 = time.perf_counter()
    result = run_cell(cell)
    runner.persist_fresh(cell, result, elapsed=time.perf_counter() - t0)
    return result


def _count_outcome(result: CellResult) -> None:
    obs_metrics.count("cells.failed" if result.extra.get("failed")
                      else "cells.computed")


class ExecutionBackend(Protocol):
    """The contract every miss-execution strategy implements.

    ``execute`` runs the cells of ``sweep`` at positions ``misses``,
    persists each successful cell through ``runner.persist_fresh`` as it
    completes (so interrupted sweeps resume), and returns ``{position:
    CellResult}`` covering every miss — failed cells as
    :func:`~repro.experiments.runner.failed_cell_result`, never persisted.
    """

    name: str

    def execute(self, sweep: SweepConfig, misses: List[int],
                runner: "CachedSweepRunner") -> Dict[int, CellResult]: ...


class SerialBackend:
    """Execute misses in-process, one cell at a time.

    Each cell (compute *and* persist) runs under the runner's
    :class:`~repro.robustness.RetryPolicy`: transient errors are retried
    with jittered backoff until the attempt budget or the sweep deadline
    runs out, permanent errors fail on the first attempt — identically to
    the other backends.
    """

    name = "serial"

    def execute(self, sweep: SweepConfig, misses: List[int],
                runner: "CachedSweepRunner") -> Dict[int, CellResult]:
        retry = getattr(runner, "retry", DEFAULT_RETRY_POLICY)
        deadline = getattr(runner, "_deadline", None)
        run = partial(_run_and_persist, runner=runner)
        fresh: Dict[int, CellResult] = {}
        for i in misses:
            cell = sweep.cells[i]
            t_cell = time.perf_counter()
            fresh[i], _ = compute_cell(cell, runner.store.key_for(cell),
                                       retry, deadline, run=run,
                                       backend=self.name)
            _count_outcome(fresh[i])
            if not fresh[i].extra.get("failed"):
                obs_metrics.observe("cell.elapsed_s",
                                    time.perf_counter() - t_cell)
        return fresh


class PoolBackend:
    """Execute misses on a process pool.

    Every miss is submitted as :func:`~repro.experiments.runner.compute_cell`
    with the picklable cell config, its store key, the retry policy and the
    sweep deadline, so workers retry exactly like the serial backend.
    Results are consumed in completion order, so each cell is persisted the
    moment its worker finishes — the interrupt-resume property.  A pool that
    cannot start or breaks mid-sweep degrades to serial execution of the
    cells not yet consumed.
    """

    name = "pool"

    def __init__(self, max_workers: Optional[int] = None) -> None:
        self.max_workers = max_workers

    def execute(self, sweep: SweepConfig, misses: List[int],
                runner: "CachedSweepRunner") -> Dict[int, CellResult]:
        fresh: Dict[int, CellResult] = {}
        for i, result in self._completed(sweep, misses, runner):
            # the coordinating process does the counting for the pool:
            # a result lost with a broken worker is recomputed, not
            # double-booked
            if not result.extra.get("failed"):
                runner.persist_fresh(sweep.cells[i], result, elapsed=None)
            _count_outcome(result)
            fresh[i] = result
        return fresh

    def _completed(self, sweep: SweepConfig, misses: List[int],
                   runner: "CachedSweepRunner"
                   ) -> Iterator[Tuple[int, CellResult]]:
        """Yield ``(position, result)`` for every miss in completion order."""
        retry = getattr(runner, "retry", DEFAULT_RETRY_POLICY)
        deadline = getattr(runner, "_deadline", None)
        keys = {i: runner.store.key_for(sweep.cells[i]) for i in misses}
        workers = recommended_workers() if self.max_workers is None \
            else int(self.max_workers)
        done: set = set()
        if workers > 1 and len(misses) > 1:
            # imported here: the CLI never pays for the process-pool
            # machinery unless a pool actually runs
            from concurrent.futures import ProcessPoolExecutor, as_completed

            try:
                fault_point("subprocess.spawn", backend=self.name)
                with ProcessPoolExecutor(max_workers=workers,
                                         initializer=mark_worker_process
                                         ) as pool:
                    # workers run repro.experiments.runner.run_cell; the
                    # Deadline pickles with its monotonic expiry, a
                    # system-wide clock, so queued cells see the true end
                    futures = {pool.submit(compute_cell, sweep.cells[i],
                                           keys[i], retry, deadline,
                                           backend=self.name): i
                               for i in misses}
                    for future in as_completed(futures):
                        i = futures[future]
                        # result first: a future poisoned by a dead worker
                        # raises here, and its cell must stay not-done so
                        # the serial rung still computes it
                        result, _ = future.result()
                        done.add(i)
                        yield i, result
                return
            except (OSError, ValueError, RuntimeError) as exc:
                # degradation ladder: a pool that cannot start (sandbox) or
                # that broke mid-sweep (a SIGKILLed worker →
                # BrokenProcessPool, a RuntimeError subclass) falls back to
                # serial execution of whatever was not already yielded — no
                # cell is lost or re-run
                message = (f"process pool unavailable "
                           f"({type(exc).__name__}: {exc}); "
                           f"completing the sweep serially in-process")
                warnings.warn(message, DegradedExecutionWarning, stacklevel=2)
                obs_trace.warning_event("DegradedExecutionWarning", message,
                                        rung="pool-to-serial")
                obs_metrics.count("degraded", rung="pool-to-serial")
        for i in misses:
            if i not in done:
                # the serial rung runs this module's run_cell, like
                # SerialBackend (persisting stays with execute)
                yield i, compute_cell(sweep.cells[i], keys[i], retry,
                                      deadline, run=run_cell,
                                      backend=self.name)[0]


#: CLI-facing backend names (see :func:`resolve_backend`).
BACKEND_NAMES = ("serial", "pool", "shard", "http")


def resolve_backend(backend: Union[str, ExecutionBackend, None],
                    max_workers: Optional[int] = 0,
                    coordinator: Optional[str] = None) -> ExecutionBackend:
    """Turn a backend spec (name, instance or ``None``) into a backend.

    ``None`` keeps the historical ``max_workers`` convention of
    :func:`~repro.experiments.runner.run_sweep`: ``0``/``1`` → serial,
    ``None``/>1 → pool.  For ``"shard"``, ``max_workers`` is the number of
    worker processes (``None`` → :func:`recommended_workers`,
    ``0`` → run the worker loop in the calling process — the ``--worker``
    attach mode).  ``"http"`` additionally needs ``coordinator`` (the
    coordinator URL); ``max_workers`` follows the shard convention.
    """
    if backend is None:
        return SerialBackend() if max_workers in (0, 1) \
            else PoolBackend(max_workers)
    if not isinstance(backend, str):
        return backend
    if backend == "serial":
        return SerialBackend()
    if backend == "pool":
        return PoolBackend(max_workers)
    if backend == "shard":
        from repro.store.shard import ShardBackend

        return ShardBackend(workers=max_workers)
    if backend == "http":
        if coordinator is None:
            raise ValueError(
                "backend 'http' needs a coordinator URL: pass "
                "coordinator=... (CLI: --coordinator URL) or construct "
                "repro.store.coordinator.HttpBackend directly")
        from repro.store.coordinator import HttpBackend

        return HttpBackend(coordinator, workers=max_workers)
    raise ValueError(f"unknown execution backend {backend!r}; "
                     f"available: {BACKEND_NAMES}")
