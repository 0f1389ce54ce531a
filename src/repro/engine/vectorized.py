"""Vectorized single-run simulation engine.

This is the hot path of the library: one synchronous round of the protocol is
executed as a handful of NumPy array operations (draw an ``(n, k)`` contact
matrix, gather values, apply the rule's ufunc kernel, optionally apply the
adversary's writes).  No Python-level loop over processes exists anywhere in
this module — following the performance guides, the only loop is over rounds.

The entry point is :func:`simulate`, which produces a
:class:`~repro.engine.run.SimulationResult` with configurable stopping rules:

* stop at exact consensus (useful without an adversary — consensus is a
  fixed point of every value-preserving rule);
* stop once the almost-stable criterion has held for a trailing window of
  rounds (useful with an adversary, where exact consensus may never happen);
* or always run the full ``max_rounds`` horizon (``run_to_horizon=True``),
  which experiments use when they need complete trajectories.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.adversary.base import Adversary, AdversaryTiming, NullAdversary
from repro.core.consensus import (
    AlmostStableCriterion,
    ConsensusStatus,
    consensus_value,
    is_consensus,
)
from repro.core.median_rule import MedianRule
from repro.core.metrics import minority_count
from repro.core.rules import Rule
from repro.core.state import Configuration
from repro.engine.rng import make_rng
from repro.engine.run import SimulationResult
from repro.engine.trajectory import RecordLevel, TrajectoryRecorder

__all__ = ["simulate", "default_max_rounds", "EngineConfig"]


def default_max_rounds(n: int, factor: float = 40.0, floor: int = 200) -> int:
    """A generous default horizon of ``max(floor, factor · log2 n)`` rounds.

    The paper's bounds are O(log n)–O(log m log log n + log n); a horizon of
    ~40·log2(n) rounds leaves ample slack while keeping worst-case sweeps
    bounded.
    """
    if n <= 1:
        return floor
    return max(floor, int(np.ceil(factor * np.log2(n))))


@dataclass
class EngineConfig:
    """Knobs of the vectorized engine (all optional).

    Attributes
    ----------
    max_rounds:
        Horizon; ``None`` selects :func:`default_max_rounds`.
    record:
        Trajectory record level.
    stop_at_consensus:
        Stop as soon as all values are equal.
    stop_when_stable:
        Stop once the almost-stable criterion has held for ``criterion.window``
        consecutive rounds (only meaningful when a criterion is supplied).
    run_to_horizon:
        Ignore both stop rules and always execute ``max_rounds`` rounds.
    """

    max_rounds: Optional[int] = None
    record: RecordLevel = RecordLevel.METRICS
    stop_at_consensus: bool = True
    stop_when_stable: bool = True
    run_to_horizon: bool = False


def _almost_stable_status(final_values: np.ndarray,
                          first_stable_round: Optional[int]) -> ConsensusStatus:
    """Build the almost-stable ConsensusStatus from run bookkeeping.

    ``first_stable_round`` is the start of the trailing streak of rounds
    satisfying the tolerance (``None`` if the streak is broken); the winning
    value is the plurality value of the final configuration.
    """
    if first_stable_round is None:
        return ConsensusStatus(reached=False, round=None, value=None)
    uniq, counts = np.unique(final_values, return_counts=True)
    value = int(uniq[int(np.argmax(counts))])
    return ConsensusStatus(reached=True, round=first_stable_round, value=value)


def simulate(
    initial: Configuration | np.ndarray,
    rule: Rule | None = None,
    adversary: Adversary | None = None,
    *,
    seed: Optional[int | np.random.Generator] = None,
    max_rounds: Optional[int] = None,
    criterion: Optional[AlmostStableCriterion] = None,
    record: RecordLevel = RecordLevel.METRICS,
    stop_at_consensus: bool = True,
    stop_when_stable: bool = True,
    run_to_horizon: bool = False,
    admissible_values: Optional[np.ndarray] = None,
) -> SimulationResult:
    """Simulate one run of a consensus rule, optionally under an adversary.

    Parameters
    ----------
    initial:
        Initial configuration (or raw value vector).
    rule:
        Update rule; defaults to the paper's :class:`MedianRule`.
    adversary:
        T-bounded adversary; defaults to :class:`NullAdversary`.
    seed:
        Integer seed or an existing ``numpy.random.Generator``.
    max_rounds:
        Round horizon; ``None`` selects :func:`default_max_rounds`.
    criterion:
        Almost-stable criterion.  If ``None`` one is derived from the
        adversary: tolerance ``4·T`` (a concrete stand-in for the paper's
        ``O(T)``) and a stability window of 10 rounds; for a null adversary
        the criterion degenerates to exact consensus.
    record, stop_at_consensus, stop_when_stable, run_to_horizon:
        See :class:`EngineConfig`.
    admissible_values:
        The set of initial values the adversary may write.  Defaults to the
        support of ``initial`` (the paper's ``{v_1, ..., v_n}``).

    Returns
    -------
    SimulationResult
    """
    cfg = initial if isinstance(initial, Configuration) else Configuration.from_values(initial)
    rule = rule or MedianRule()
    adversary = adversary or NullAdversary()
    rng = make_rng(seed)
    horizon = max_rounds if max_rounds is not None else default_max_rounds(cfg.n)
    if horizon < 0:
        raise ValueError("max_rounds must be non-negative")

    if criterion is None:
        tolerance = 4 * adversary.budget
        window = 10 if adversary.budget > 0 else 1
        criterion = AlmostStableCriterion(tolerance=tolerance, window=window)

    admissible = np.asarray(
        cfg.support if admissible_values is None else admissible_values, dtype=np.int64
    )

    adversary.reset()
    values = cfg.copy_values()
    n = values.shape[0]

    recorder = TrajectoryRecorder(level=record)
    recorder.record(values, 0)

    def within_tolerance(values: np.ndarray, at_consensus: bool) -> bool:
        # at tolerance 0 the criterion *is* consensus: skip minority_count's sort
        if criterion.tolerance == 0:
            return at_consensus
        return minority_count(values) <= criterion.tolerance

    consensus_status = ConsensusStatus(reached=False, round=None, value=None)
    at_consensus = is_consensus(values)
    if at_consensus:
        consensus_status = ConsensusStatus(reached=True, round=0, value=int(values[0]))

    # bookkeeping for almost-stable detection: length of the current trailing
    # streak of rounds satisfying the tolerance, and the first round of the
    # streak that eventually persists to the end of the run.
    streak = 1 if within_tolerance(values, at_consensus) else 0
    first_stable_round: Optional[int] = 0 if streak else None

    rounds_executed = 0
    for t in range(1, horizon + 1):
        # --- adversary acting at the beginning of the round ---------------
        if adversary.budget > 0 and adversary.timing is AdversaryTiming.BEFORE_SAMPLING:
            values = adversary.corrupt(values, t, admissible, rng)

        # --- the protocol round -------------------------------------------
        # the contacts are passed as a temporary, so a rule may free them
        # as soon as it has gathered the sampled values
        new_values = rule.apply_vectorized(values, rule.sample_contacts(n, rng), rng)

        # --- adversary acting after the random choices (Section 3 variant) -
        if adversary.budget > 0 and adversary.timing is AdversaryTiming.AFTER_SAMPLING:
            new_values = adversary.corrupt(new_values, t, admissible, rng)

        values = new_values
        rounds_executed = t
        recorder.record(values, t)

        # --- consensus bookkeeping -----------------------------------------
        at_consensus = is_consensus(values)
        if not consensus_status.reached and at_consensus:
            consensus_status = ConsensusStatus(reached=True, round=t, value=int(values[0]))

        if within_tolerance(values, at_consensus):
            if streak == 0:
                first_stable_round = t
            streak += 1
        else:
            streak = 0
            first_stable_round = None

        # --- stop rules ------------------------------------------------------
        if run_to_horizon:
            continue
        if stop_at_consensus and consensus_status.reached and adversary.budget == 0:
            break
        if (stop_when_stable and adversary.budget > 0 and streak >= criterion.window):
            break

    almost_status = _almost_stable_status(values, first_stable_round)
    if almost_status.reached and streak < criterion.window:
        # The trailing streak is too short to certify stability.
        almost_status = ConsensusStatus(reached=False, round=None, value=None)

    final = Configuration.from_values(values)
    return SimulationResult(
        initial=cfg,
        final=final,
        rounds_executed=rounds_executed,
        consensus=consensus_status,
        almost_stable=almost_status,
        trajectory=recorder.finish(),
        rule_name=rule.name,
        adversary_name=type(adversary).__name__,
        criterion=criterion,
        meta={
            "adversary_budget": adversary.budget,
            "horizon": horizon,
            "budget_ledger_total": adversary.ledger.total,
            "budget_ledger_ok": adversary.ledger.verify(),
        },
    )
