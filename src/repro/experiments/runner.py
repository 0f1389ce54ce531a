"""Experiment execution: run a cell or a sweep and collect results.

:func:`run_cell` executes one :class:`~repro.experiments.config.ExperimentConfig`
(``num_runs`` independent simulations) and returns a
:class:`~repro.experiments.results.CellResult`.  :func:`compute_cell` is the
one cell-execution path every backend maps: it runs :func:`run_cell` under
the sweep's :class:`~repro.robustness.RetryPolicy` inside the ``cell.compute``
span keyed by the canonical cell hash, and turns a failure into
:func:`failed_cell_result`.  A backend decides *where* a cell runs (this
process, a pool worker, a shard worker), never *what* runs.
:func:`run_sweep` is :class:`repro.store.CachedSweepRunner` over a store that
holds nothing.

Engine routing is delegated to :func:`repro.engine.batch.run_batch`: cells
with ``engine="occupancy-fused"`` advance all their runs as one (R, m) count
tensor (no per-run Python loop) when the rule/adversary pair supports it and
fall back to the looped occupancy path otherwise; the workload is built in
the matching representation by
:func:`~repro.experiments.workloads.make_workload_for_engine`.

Caching
-------
:func:`run_sweep` always recomputes.  For cached, resumable execution run a
sweep through :class:`repro.store.CachedSweepRunner` over a real store, which
keys each cell by the canonical hash of its config
(:func:`repro.store.hashing.cell_key`).  The key
covers everything that determines the sampled distribution — workload +
params, rule + params, adversary + budget + params, ``num_runs``,
``max_rounds``, ``seed`` — and deliberately excludes ``name`` and ``engine``:
the three engines are equal in distribution (pinned by the differential
tests), so a sweep retargeted via ``SweepConfig.with_engine`` keeps its cache
hits, with the engine that actually produced a stored result recorded as
provenance.  The CLI exposes this as ``sweep --store DIR`` with ``--no-cache``
(bypass the store entirely) and ``--rerun`` (recompute and overwrite) as the
escape hatches.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.adversary.strategies import make_adversary
from repro.core.rules import get_rule
from repro.core.state import Configuration
from repro.engine.batch import fused_occupancy_cell_supported, run_batch
from repro.experiments.config import ExperimentConfig, SweepConfig
from repro.experiments.results import CellResult, ExperimentReport
from repro.experiments.workloads import (
    implied_support_width,
    make_workload_for_engine,
)
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.robustness.faults import fault_point
from repro.robustness.retry import (
    DEFAULT_RETRY_POLICY,
    Deadline,
    RetryExhausted,
    RetryPolicy,
    call_with_retry,
    classify_error,
    format_cell_error,
)

__all__ = [
    "EXECUTION_STATS",
    "emit_engine_metrics",
    "resolve_cell_engine",
    "run_cell",
    "compute_cell",
    "run_sweep",
    "failed_cell_result",
    "attach_failures",
]

#: Per-process count of in-process cell executions (``run_cell`` calls).
#: The zero-recompute assertions (warm figure regeneration, offline store
#: replay) read this to prove no simulation happened; pool/shard worker
#: processes keep their own counters, which is exactly the right scope for
#: "this process computed nothing".
EXECUTION_STATS = {"run_cell_calls": 0}


def resolve_cell_engine(rule: str, adversary: str, engine: str,
                        workload: Optional[str] = None,
                        workload_params: Optional[dict] = None) -> str:
    """The engine a cell actually executes on.

    ``"occupancy-fused"`` cells whose rule/adversary pair has no count-space
    form — or whose support is too wide for count space to win (m² ≫ n,
    e.g. the all-distinct workload where m = n) — fall back to
    ``"vectorized"``, so every backend degrades identically *before* a
    workload is built in the wrong representation.
    """
    if engine != "occupancy-fused":
        return engine
    n = m = None
    if workload_params:
        n = int(workload_params.get("n", 0)) or None
        m = implied_support_width(workload or "", workload_params) or None
    if not fused_occupancy_cell_supported(rule, adversary, n=n, m=m):
        return "vectorized"
    return engine


def emit_engine_metrics(batch, draws_before: Optional[Dict[str, int]] = None
                        ) -> None:
    """Trace one batch's engine-level work (no-op when tracing is disarmed).

    ``draws_before`` is a snapshot of
    :data:`repro.engine._multinomial.DRAW_STATS` taken before the batch ran;
    the deltas attribute multinomial traffic to this cell.  ``engine.rounds``
    sums the finite (converged) per-run round counts.
    """
    if not obs_trace.enabled():
        return
    obs_metrics.count("engine.runs", batch.num_runs)
    rounds = int(sum(r for r in batch.rounds if np.isfinite(r)))
    if rounds:
        obs_metrics.count("engine.rounds", rounds)
    if draws_before is not None:
        from repro.engine._multinomial import DRAW_STATS

        calls = DRAW_STATS["calls"] - draws_before["calls"]
        rows = DRAW_STATS["rows"] - draws_before["rows"]
        if calls:
            obs_metrics.count("engine.multinomial_calls", calls)
        if rows:
            obs_metrics.count("engine.multinomial_rows", rows)


def run_cell(config: ExperimentConfig) -> CellResult:
    """Execute one experiment cell in-process and summarize it."""
    EXECUTION_STATS["run_cell_calls"] += 1
    fault_point("worker.compute", cell=config.name)
    if obs_trace.enabled():
        from repro.engine._multinomial import DRAW_STATS

        draws_before = dict(DRAW_STATS)
    else:
        draws_before = None
    rule = get_rule(config.rule, **config.rule_params)
    engine = resolve_cell_engine(config.rule, config.adversary, config.engine,
                                 config.workload, config.workload_params)
    workload = make_workload_for_engine(config.workload, engine,
                                        **config.workload_params)

    adversary_factory = None
    if config.adversary_budget > 0 and config.adversary != "null":
        def adversary_factory():
            return make_adversary(config.adversary, budget=config.adversary_budget,
                                  **config.adversary_params)

    batch = run_batch(
        workload,
        num_runs=config.num_runs,
        rule=rule,
        adversary_factory=adversary_factory,
        seed=config.seed,
        max_rounds=config.max_rounds,
        engine=engine,
    )
    emit_engine_metrics(batch, draws_before)
    return CellResult(
        config=config,
        num_runs=batch.num_runs,
        convergence_fraction=batch.convergence_fraction,
        mean_rounds=batch.mean_rounds,
        median_rounds=batch.median_rounds,
        p90_rounds=batch.quantile(0.9),
        max_rounds=batch.max_rounds,
        rounds=[float(r) for r in batch.rounds],
        extra={"rule": config.rule, "adversary": config.adversary,
               "engine": engine},
    )


def compute_cell(cell: ExperimentConfig, key: str,
                 retry: RetryPolicy = DEFAULT_RETRY_POLICY,
                 deadline: Optional[Deadline] = None, *,
                 run: Optional[Callable[[ExperimentConfig], CellResult]] = None,
                 prior_attempts: int = 0,
                 **span_attrs: Any) -> Tuple[CellResult, int]:
    """Compute one cell under ``retry``: the cell-execution path of every backend.

    Runs ``run`` (default :func:`run_cell`) through
    :func:`~repro.robustness.retry.call_with_retry` inside the
    ``cell.compute`` span keyed by ``key``, the canonical cell hash, so the
    same cell shares one span id in every process, on every backend and
    across reruns (``span_attrs``, e.g. ``backend`` or ``worker``, are
    recorded on the span but never enter its id).  ``prior_attempts`` are
    attempts an earlier run already spent on the cell.  Everything ``run``
    does is retried together, so a backend that persists inside ``run``
    re-runs the cell when the write fails.

    Returns ``(result, attempts)``.  A cell that raised comes back as
    :func:`failed_cell_result` carrying ``attempts`` and ``kind``; this
    function never raises for a per-cell failure.
    """
    attempts = prior_attempts

    def attempt() -> CellResult:
        nonlocal attempts
        attempts += 1
        return (run or run_cell)(cell)

    with obs_trace.span("cell.compute", key=key, cell=key,
                        cell_label=cell.name, **span_attrs) as cell_span:
        try:
            result = call_with_retry(attempt, retry, label=cell.name,
                                     deadline=deadline,
                                     prior_attempts=prior_attempts, key=key)
        except Exception as exc:   # noqa: BLE001 — per-cell isolation
            # RetryExhausted carries the last attempt's error; the kind
            # follows from the error's type (SweepDeadlineError is transient)
            error = (exc.error if isinstance(exc, RetryExhausted)
                     else format_cell_error(exc))
            result = failed_cell_result(cell, error, attempts=attempts)
        if result.extra.get("failed"):
            cell_span.set(outcome="failed", attempts=attempts,
                          kind=result.extra["kind"])
        else:
            cell_span.set(outcome="computed", attempts=attempts)
    return result, attempts


def failed_cell_result(cell: ExperimentConfig, error: str,
                       attempts: int = 1,
                       kind: Optional[str] = None) -> CellResult:
    """The canonical record of a cell whose execution raised.

    The metrics use ``inf`` (the existing "did not converge" value — and,
    unlike NaN, equal to itself) so failure-carrying reports compare equal
    across backends; the error string (exception type + message, see
    :func:`repro.robustness.retry.format_cell_error`) rides in ``extra``
    together with the attempt count and the failure *kind* —
    ``"permanent"`` (a deterministic error, never retried) or
    ``"transient-exhausted"`` (a transient error that survived every
    attempt the :class:`~repro.robustness.RetryPolicy` budget allowed).
    Every backend derives these identically from the error string, so
    failure-carrying reports stay equal across backends.
    """
    if kind is None:
        kind = ("permanent" if classify_error(error) == "permanent"
                else "transient-exhausted")
    return CellResult(
        config=cell,
        num_runs=0,
        convergence_fraction=0.0,
        mean_rounds=float("inf"),
        median_rounds=float("inf"),
        p90_rounds=float("inf"),
        max_rounds=float("inf"),
        rounds=[],
        extra={"failed": True, "error": error, "attempts": int(attempts),
               "kind": kind},
    )


def attach_failures(report: ExperimentReport) -> List[Dict[str, Any]]:
    """Collect failed cells into ``report.meta["failures"]`` (and return them).

    The meta entry is only written when at least one cell failed, so clean
    reports keep their historical shape (and their equality with stored
    ones).  Entry order follows cell order, which every backend preserves.
    Each entry carries the attempt count and the permanent /
    transient-exhausted classification from :func:`failed_cell_result`.
    """
    failures = [{"cell": c.config.name, "error": str(c.extra.get("error", "")),
                 "attempts": int(c.extra.get("attempts", 1)),
                 "kind": str(c.extra.get("kind", ""))}
                for c in report.cells if c.extra.get("failed")]
    if failures:
        report.meta["failures"] = failures
    return failures


def run_sweep(sweep: SweepConfig, max_workers: Optional[int] = 0) -> ExperimentReport:
    """Execute every cell of a sweep, recomputing all of them.

    This is :class:`repro.store.CachedSweepRunner` over a store that holds
    nothing (every cell is a miss, nothing is written), so it shares the
    backends' per-cell failure handling; the report carries no ``store``
    meta entry.

    Parameters
    ----------
    sweep:
        The sweep definition.
    max_workers:
        ``0``/``1`` → serial in-process execution (default; deterministic and
        test-friendly); ``None`` or >1 → a process pool over cells.

    Returns
    -------
    ExperimentReport
        A cell that raises during execution is *not* fatal: it becomes a
        :func:`failed_cell_result` in its sweep position and is listed in
        ``report.meta["failures"]``, so a poisoned cell can never abort a
        sweep or silently vanish from its report.
    """
    # imported here: repro.store builds on this module
    from repro.store.runner import CachedSweepRunner
    from repro.store.store import NullStore

    report = CachedSweepRunner(NullStore(), max_workers=max_workers).run(sweep)
    del report.meta["store"]
    return report
