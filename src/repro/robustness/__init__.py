"""Fault injection, retry policy, and degradation warnings.

The robustness substrate for the execution stack, in three parts:

1. :mod:`repro.robustness.faults` — a deterministic, seed-driven
   :class:`FaultPlan`/:class:`FaultInjector` arming named seams across the
   store, lease, worker, and kernel layers (``REPRO_FAULT_PLAN`` env or
   in-process :func:`activate`; zero overhead unarmed).
2. :mod:`repro.robustness.retry` — one :class:`RetryPolicy` (attempt
   budget, jittered exponential backoff, per-sweep deadline) threaded
   through every execution backend, with permanent/transient error
   classification shared by the serial, pool, and shard paths.
3. Degradation warnings — each rung of the degradation ladder (corrupt
   entry quarantined on read, shard→pool→serial backend downgrade,
   unwritable store) announces itself exactly once per incident through a
   typed warning below, so degraded runs are visible without being fatal.

See the README "Robustness" section for the seam catalog and the policy
knobs, and ``tests/chaos.py`` for the harness that certifies the
invariants under randomized fault schedules.
"""

from __future__ import annotations

from .faults import (
    ENV_VAR,
    SEAMS,
    SHAPES,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    activate,
    active_plan,
    deactivate,
    fault_point,
    in_worker_process,
    mark_worker_process,
    maybe_torn,
    read_fault_journal,
)
from .retry import (
    DEFAULT_RETRY_POLICY,
    PERMANENT_ERROR_TYPES,
    Deadline,
    RetryExhausted,
    RetryPolicy,
    SweepDeadlineError,
    call_with_retry,
    classify_error,
    format_cell_error,
)

__all__ = [
    # faults
    "ENV_VAR", "SEAMS", "SHAPES", "FaultInjector", "FaultPlan", "FaultSpec",
    "InjectedFault", "activate", "active_plan", "deactivate", "fault_point",
    "in_worker_process", "mark_worker_process", "maybe_torn",
    "read_fault_journal",
    # retry
    "DEFAULT_RETRY_POLICY", "PERMANENT_ERROR_TYPES", "Deadline",
    "RetryExhausted", "RetryPolicy", "SweepDeadlineError", "call_with_retry",
    "classify_error", "format_cell_error",
    # degradation warnings
    "DegradedExecutionWarning", "StoreIntegrityWarning", "TornLogWarning",
]


class DegradedExecutionWarning(UserWarning):
    """Execution continued on a lower rung of the degradation ladder.

    Emitted once per incident when the shard backend falls back to pool
    (lease infrastructure unavailable), the pool falls back to serial
    (worker processes unusable), or results cannot be persisted (store
    directory not writable).
    """


class StoreIntegrityWarning(UserWarning):
    """A stored entry failed sha256/parse verification on read.

    The damaged payload (and sidecar, if any) was quarantined and the cell
    will be recomputed transparently on the next coordinated run.
    """


class TornLogWarning(UserWarning):
    """An append-only JSONL log contained undecodable lines (torn append).

    The damaged lines were skipped; the surviving records are returned.
    """
