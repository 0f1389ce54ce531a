"""Retry, backoff, and failure-classification policy for sweep execution.

One :class:`RetryPolicy` is threaded through :class:`CachedSweepRunner` and
all three execution backends, so every path from "cell raised" to "cell
failed" obeys the same three knobs:

* **per-cell attempt budget** (``max_attempts``) — a cell is computed at
  most this many times across the whole coordinated run, including
  attempts recorded in an earlier run's ``state:"failed"`` marker (the
  shard backend persists attempt counts in the marker, so budgets survive
  worker restarts);
* **jittered exponential backoff** (``base_delay_s``/``max_delay_s``/
  ``jitter``) — deterministic per ``(cell key, attempt)``, so two workers
  retrying the same cell do not thunder in lockstep yet a chaos run
  reproduces exactly from its seed;
* **per-sweep deadline** (``deadline_s``) — a wall-clock budget for the
  entire sweep, checked before every attempt; when it expires, no further
  attempt starts and the affected cells surface as ordinary failures
  rather than hanging a fleet.

Errors are classified by *type name* (:func:`classify_error`): programming
and configuration errors (``KeyError: no-such-rule`` …) are **permanent**
and never retried — retrying a deterministic bug burns the budget and
delays the report without changing the outcome.  Everything else
(``OSError``, :class:`InjectedFault`, crashes, …) is **transient** and
retried until the budget is exhausted, at which point the failure
escalates with ``kind="transient-exhausted"`` so ``report.meta["failures"]``
distinguishes "this cell is wrong" from "this cell was unlucky".
Classification operates on the ``"ExcType: message"`` strings produced by
:func:`format_cell_error`, so the pool and shard paths — which only see the
serialized error — classify identically to the in-process serial path.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

__all__ = [
    "PERMANENT_ERROR_TYPES",
    "classify_error",
    "RetryPolicy",
    "DEFAULT_RETRY_POLICY",
    "RetryExhausted",
    "SweepDeadlineError",
    "Deadline",
    "call_with_retry",
    "format_cell_error",
    "emit_retry_telemetry",
]

#: Exception type names treated as permanent (deterministic) failures.
#: Matched against the leading ``ExcType`` of a formatted cell error.
PERMANENT_ERROR_TYPES: Tuple[str, ...] = (
    "KeyError",
    "ValueError",
    "TypeError",
    "AttributeError",
    "NotImplementedError",
    "AssertionError",
)


def format_cell_error(exc: BaseException) -> str:
    """The canonical per-cell failure string: exception type + message.

    Deliberately excludes the traceback, which differs between in-process and
    worker-process execution — the same poisoned cell must produce the same
    string on every backend so failure-carrying reports stay backend-equal.
    """
    return f"{type(exc).__name__}: {exc}"


def classify_error(error: "str | BaseException") -> str:
    """``"permanent"`` or ``"transient"`` for an error (string or exception).

    Strings are the ``"ExcType: message"`` form of ``format_cell_error``;
    only the leading type name is consulted, so a transient error whose
    *message* mentions ``ValueError`` is still transient.
    """
    if isinstance(error, BaseException):
        name = type(error).__name__
    else:
        name = str(error).split(":", 1)[0].strip()
    return "permanent" if name in PERMANENT_ERROR_TYPES else "transient"


@dataclass(frozen=True)
class RetryPolicy:
    """Attempt budget + backoff schedule for one sweep.

    The default (``max_attempts=1``) is *no retry* — exactly the behavior
    the stack had before this policy existed, so nothing changes unless a
    caller opts in (``CachedSweepRunner(..., retry=RetryPolicy(3))`` or
    ``python -m repro sweep ... --retries 3``).
    """

    max_attempts: int = 1
    base_delay_s: float = 0.05
    max_delay_s: float = 2.0
    jitter: float = 0.5
    deadline_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError("deadline_s must be positive")

    def backoff_s(self, attempt: int, token: str = "") -> float:
        """Deterministic jittered delay before retry number ``attempt``.

        ``attempt`` counts completed attempts (1 → delay before the 2nd
        try).  Exponential in ``attempt`` and capped at ``max_delay_s``;
        the jitter fraction is drawn from a ``Random`` seeded on
        ``token#attempt`` so the schedule is reproducible per cell, not
        synchronized across cells.
        """
        base = min(self.max_delay_s, self.base_delay_s * (2.0 ** (attempt - 1)))
        if self.jitter <= 0:
            return base
        frac = random.Random(f"{token}#{attempt}").uniform(
            -self.jitter, self.jitter)
        return max(0.0, base * (1.0 + frac))

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form for handing the policy to spawned shard workers."""
        return {"max_attempts": self.max_attempts,
                "base_delay_s": self.base_delay_s,
                "max_delay_s": self.max_delay_s,
                "jitter": self.jitter,
                "deadline_s": self.deadline_s}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RetryPolicy":
        return cls(**data)


DEFAULT_RETRY_POLICY = RetryPolicy()


class RetryExhausted(RuntimeError):
    """A transient error survived every attempt the budget allowed."""

    def __init__(self, label: str, error: str, attempts: int) -> None:
        self.label = label
        self.error = error
        self.attempts = attempts
        super().__init__(
            f"{label}: transient error persisted through {attempts} "
            f"attempt(s): {error}")


class SweepDeadlineError(RuntimeError):
    """The per-sweep wall-clock deadline expired while retries remained."""


class Deadline:
    """A monotonic-clock deadline shared by every retry loop of one sweep."""

    def __init__(self, seconds: Optional[float]) -> None:
        self.seconds = seconds
        self._expires: Optional[float] = (
            None if seconds is None else time.monotonic() + seconds)

    def expired(self) -> bool:
        return self._expires is not None and time.monotonic() >= self._expires

    def remaining(self) -> Optional[float]:
        if self._expires is None:
            return None
        return max(0.0, self._expires - time.monotonic())

    def check(self, label: str = "sweep") -> None:
        if self.expired():
            raise SweepDeadlineError(
                f"{label}: sweep deadline of {self.seconds}s expired")


def emit_retry_telemetry(label: str, key: Optional[str], attempt: int,
                         delay: float, error: str) -> None:
    """Trace one retry decision (cold path — only reached on a transient
    failure with budget left).

    Imported lazily so :mod:`repro.robustness` never depends on
    :mod:`repro.obs` at module level; with tracing disarmed this is one
    function call per *retry*, not per cell.  ``key`` is the canonical cell
    hash when the caller has one — the acceptance contract is that every
    retry event carries it.
    """
    try:
        from repro.obs import metrics as obs_metrics
        from repro.obs import trace as obs_trace
    except ImportError:   # pragma: no cover — partial install
        return
    if not obs_trace.enabled():
        return
    obs_trace.event("retry", cell=key or label, label=label,
                    attempt=attempt, backoff_s=round(delay, 6), error=error)
    obs_metrics.count("retry.attempts")
    obs_metrics.observe("retry.backoff_s", delay)


def call_with_retry(fn: Callable[[], Any], policy: RetryPolicy,
                    label: str = "", deadline: Optional[Deadline] = None,
                    prior_attempts: int = 0,
                    key: Optional[str] = None) -> Any:
    """Run ``fn`` under ``policy``, retrying transient errors.

    ``prior_attempts`` charges attempts already spent on this cell (e.g.
    recorded in a ``state:"failed"`` marker by an earlier run) against the
    budget.  Permanent errors re-raise immediately; a transient error on
    the final allowed attempt raises :class:`RetryExhausted` carrying the
    formatted error and the total attempt count.  The deadline is checked
    before every attempt: expired before the first one, it raises
    :class:`SweepDeadlineError`; expired after a failed attempt, the last
    error stands as :class:`RetryExhausted`.  ``key`` is the cell's
    canonical store hash: it seeds the backoff jitter (so a cell backs off
    identically on every backend) and tags the retry trace events.
    """
    attempt = prior_attempts
    error: Optional[str] = None
    while True:
        if deadline is not None and deadline.expired():
            if error is None:
                deadline.check(label or "cell")
            raise RetryExhausted(label or "cell", error, attempt)
        attempt += 1
        try:
            return fn()
        except SweepDeadlineError:
            raise
        except Exception as exc:   # noqa: BLE001 — classification decides
            error = format_cell_error(exc)
            if classify_error(exc) == "permanent":
                raise
            if attempt >= policy.max_attempts:
                raise RetryExhausted(label or "cell", error, attempt) from exc
            delay = policy.backoff_s(attempt, token=key or label)
            if deadline is not None:
                rem = deadline.remaining()
                if rem is not None:
                    if rem <= 0:
                        raise RetryExhausted(label or "cell", error,
                                             attempt) from exc
                    delay = min(delay, rem)
            emit_retry_telemetry(label, key, attempt, delay, error)
            if delay > 0:
                time.sleep(delay)
