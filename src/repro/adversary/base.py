"""T-bounded adversary interface.

The paper's adversarial model (Section 1.1):

    A T-bounded adversary is allowed to know the entire history of the
    protocol.  At the beginning of each round, it may decide to change the
    state of up to T many of the processes in an arbitrary way subject to the
    constraint that it can only change the value of a process to one out of
    the initial set of values {v_1, ..., v_n}.

Adversaries in this library receive the full current value vector (they are
adaptive and omniscient about the state and history), the round number, the
set of admissible values, and a per-round budget ``T``; they return a set of
(process index, new value) writes.  :class:`Adversary.corrupt` enforces the
budget and the value-set constraint regardless of what the strategy proposes,
so no strategy can exceed the model even by accident; every application is
also recorded in a :class:`~repro.adversary.budget.BudgetLedger` for auditing
by tests and experiments.

Section 3 additionally considers an adversary that acts *after* the random
choices of the round (it "is allowed to change the choices of at most sqrt(n)
balls").  Both placements are supported through the ``timing`` attribute and
the simulators honour it; the ablation benchmark compares them.
"""

from __future__ import annotations

import abc
import copy
import enum
from dataclasses import dataclass
from typing import Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.adversary.budget import BudgetLedger
from repro.core.state import Configuration

__all__ = [
    "AdversaryTiming",
    "Corruption",
    "CountCorruption",
    "Adversary",
    "NullAdversary",
    "admissible_mask",
    "apply_count_edits",
    "stack_adversaries",
]


class AdversaryTiming(enum.Enum):
    """When in the round the adversary rewrites states.

    ``BEFORE_SAMPLING`` is the model of Section 1.1 (state changed at the
    beginning of the round, before processes draw their contacts);
    ``AFTER_SAMPLING`` is the Section 3 variant (the adversary reacts to the
    drawn choices).  Against an omniscient adversary the two are equally
    strong for the strategies shipped here, which is verified empirically by
    the ablation benchmark.
    """

    BEFORE_SAMPLING = "before-sampling"
    AFTER_SAMPLING = "after-sampling"


@dataclass(frozen=True)
class Corruption:
    """A batch of adversarial writes for one round."""

    indices: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        idx = np.asarray(self.indices, dtype=np.int64).ravel()
        val = np.asarray(self.values, dtype=np.int64).ravel()
        if idx.shape[0] != val.shape[0]:
            raise ValueError("indices and values must have equal length")
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "values", val)

    @property
    def count(self) -> int:
        return int(self.indices.shape[0])

    @classmethod
    def empty(cls) -> "Corruption":
        return cls(indices=np.empty(0, dtype=np.int64), values=np.empty(0, dtype=np.int64))


@dataclass(frozen=True)
class CountCorruption:
    """A batch of adversarial *count edits* for one round of the occupancy engine.

    Each entry moves ``amounts[i]`` processes from value ``src_values[i]`` to
    value ``dst_values[i]``.  This is the occupancy-space equivalent of a
    :class:`Corruption`: rewriting a process's value is exactly a unit of mass
    moved between two bins, so a T-bounded adversary is one whose amounts sum
    to at most T per round.

    The arrays are 1-D for one run, or 2-D ``(k, e)`` for k runs at once
    (row ``i`` holds run ``i``'s moves in order; rows with fewer moves are
    padded with zero amounts, which enforcement skips).
    """

    src_values: np.ndarray
    dst_values: np.ndarray
    amounts: np.ndarray

    def __post_init__(self) -> None:
        arrays = [np.asarray(a, dtype=np.int64)
                  for a in (self.src_values, self.dst_values, self.amounts)]
        arrays = [a if a.ndim == 2 else a.ravel() for a in arrays]
        if not (arrays[0].shape == arrays[1].shape == arrays[2].shape):
            raise ValueError("src_values, dst_values and amounts must have equal shape")
        for name, arr in zip(("src_values", "dst_values", "amounts"), arrays):
            object.__setattr__(self, name, arr)

    @property
    def total(self) -> int:
        return int(self.amounts.sum()) if self.amounts.size else 0

    @classmethod
    def empty(cls) -> "CountCorruption":
        z = np.empty(0, dtype=np.int64)
        return cls(src_values=z, dst_values=z, amounts=z)

    @classmethod
    def stack(cls, rows: Sequence["CountCorruption"]) -> "CountCorruption":
        """The ``(k, e)`` form of k one-run proposals (zero-amount padding)."""
        width = max((r.amounts.shape[0] for r in rows), default=0)
        out = np.zeros((3, len(rows), width), dtype=np.int64)
        for i, r in enumerate(rows):
            e = r.amounts.shape[0]
            out[:, i, :e] = (r.src_values, r.dst_values, r.amounts)
        return cls(src_values=out[0], dst_values=out[1], amounts=out[2])


def admissible_mask(support: np.ndarray, admissible_values: np.ndarray,
                    k: int) -> np.ndarray:
    """The ``(k, m)`` boolean palette of k runs over ``support``.

    ``admissible_values`` is either a boolean mask over the support (shape
    ``(m,)`` shared by every run, or ``(k, m)``) or an array of admissible
    values shared by every run; values outside the support cannot be
    written in count space and drop out.
    """
    admissible_values = np.asarray(admissible_values)
    if admissible_values.dtype != np.bool_:
        admissible_values = np.isin(support, admissible_values.astype(np.int64))
    return np.broadcast_to(admissible_values, (k, support.shape[0]))


def palette_min(support: np.ndarray, admissible: np.ndarray) -> np.ndarray:
    """Smallest admissible value of each row (rows must be non-empty)."""
    return support[admissible.argmax(axis=1)]


def palette_max(support: np.ndarray, admissible: np.ndarray) -> np.ndarray:
    """Largest admissible value of each row (rows must be non-empty)."""
    return support[support.shape[0] - 1 - admissible[:, ::-1].argmax(axis=1)]


def support_columns(support: np.ndarray, values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Support column of each value (clipped) and whether the value is there."""
    cols = np.minimum(np.searchsorted(support, values), support.shape[0] - 1)
    return cols, support[cols] == values


def apply_count_edits(support: np.ndarray, counts: np.ndarray,
                      budgets: np.ndarray, admissible: np.ndarray,
                      proposal: CountCorruption) -> Tuple[np.ndarray, np.ndarray]:
    """Enforce the T-bounded model on k runs' proposed count edits at once.

    Row by row, the moves are applied in order under the rules of the
    model: a move with a non-positive amount, a source or destination
    outside ``support``, or a destination outside the row's ``admissible``
    palette is dropped; the rest is clipped to the budget left in the row
    and to the current load of its source bin, so no bin goes negative and
    a row spends at most ``budgets[i]``.  The moves are replayed one
    column of the ``(k, e)`` proposal at a time, each step vectorised over
    the rows.  Returns the new ``(k, m)`` counts and the ``(k,)`` number of
    processes each row rewrote.
    """
    k, m = counts.shape
    width = proposal.amounts.size // k if k else 0
    out = counts.copy()
    left = np.array(budgets, dtype=np.int64)
    if m == 0 or width == 0:
        return out, budgets - left
    src, src_ok = support_columns(support, proposal.src_values.reshape(k, width))
    dst, dst_ok = support_columns(support, proposal.dst_values.reshape(k, width))
    amounts = proposal.amounts.reshape(k, width)
    r = np.arange(k)
    valid = (amounts > 0) & src_ok & dst_ok & admissible[r[:, None], dst]
    want = np.where(valid, amounts, 0)
    for j in range(width):
        s, d = src[:, j], dst[:, j]
        move = np.minimum(np.minimum(want[:, j], left), out[r, s])
        out[r, s] -= move
        out[r, d] += move
        left -= move
    return out, budgets - left


def stack_adversaries(runs: Sequence["Adversary"]) -> "Adversary":
    """One adversary that corrupts every run of ``runs`` in a single call.

    The runs must share a :meth:`Adversary.stack_key` (same strategy, timing
    and parameters; budgets may differ).  The group carries the count-space
    strategy state of all runs as arrays with one row per run and records
    each run's spending in that run's own ledger; address runs by their
    position in ``runs`` (the ``rows`` argument of the count-space methods).
    """
    group = copy.copy(runs[0])
    group._runs = list(runs)
    group._reset_state(len(runs))
    return group


class Adversary(abc.ABC):
    """Base class for T-bounded adversaries.

    Parameters
    ----------
    budget:
        Maximum number of processes the adversary may rewrite per round
        (the paper's ``T``).  ``0`` disables the adversary.
    timing:
        Whether the corruption happens before or after the round's sampling
        step (see :class:`AdversaryTiming`).
    """

    def __init__(self, budget: int,
                 timing: AdversaryTiming = AdversaryTiming.BEFORE_SAMPLING) -> None:
        if budget < 0:
            raise ValueError("adversary budget must be non-negative")
        self.budget = int(budget)
        self.timing = timing
        self.ledger = BudgetLedger(budget=self.budget)
        self._runs: Optional[List[Adversary]] = None
        self._reset_state(1)

    # ------------------------------------------------------------------ #
    # strategy interface
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def propose(
        self,
        values: np.ndarray,
        round_index: int,
        admissible_values: np.ndarray,
        rng: np.random.Generator,
    ) -> Corruption:
        """Propose this round's writes.

        Implementations may return more writes than the budget allows or
        values outside the admissible set; :meth:`corrupt` clips and filters
        the proposal so the T-bounded model is never violated.
        """

    # ------------------------------------------------------------------ #
    # enforcement wrapper — the only entry point simulators call
    # ------------------------------------------------------------------ #
    def corrupt(
        self,
        values: np.ndarray,
        round_index: int,
        admissible_values: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Apply the (budget- and value-constrained) corruption for one round.

        Returns a **new** value vector; the input is never mutated.
        """
        values = np.asarray(values, dtype=np.int64)
        admissible = np.unique(np.asarray(admissible_values, dtype=np.int64))
        if self.budget == 0 or admissible.shape[0] == 0:
            self.ledger.record(round_index, 0)
            return np.array(values)

        proposal = self.propose(values, round_index, admissible, rng)
        idx = proposal.indices
        val = proposal.values

        if idx.shape[0]:
            # Drop out-of-range indices and inadmissible values, then clip to
            # the per-round budget (keeping the strategy's preferred order).
            in_range = (idx >= 0) & (idx < values.shape[0])
            admissible_mask = np.isin(val, admissible)
            keep = in_range & admissible_mask
            idx, val = idx[keep], val[keep]
            # de-duplicate process indices, keeping the first write for each
            _, first = np.unique(idx, return_index=True)
            first.sort()
            idx, val = idx[first], val[first]
            if idx.shape[0] > self.budget:
                idx, val = idx[: self.budget], val[: self.budget]

        out = np.array(values)
        if idx.shape[0]:
            out[idx] = val
        self.ledger.record(round_index, int(idx.shape[0]))
        return out

    # ------------------------------------------------------------------ #
    # occupancy-space (count-edit) interface
    # ------------------------------------------------------------------ #
    # An adversary corrupts one run, or — stacked by stack_adversaries —
    # a group of runs at once.  The count-space methods take a (k, m) block
    # of counts and `rows`, the positions in `runs` of the block's k runs
    # (default: all of them, in order); strategy state is kept as arrays
    # with one row per run.
    @property
    def runs(self) -> List["Adversary"]:
        """The runs this adversary corrupts: itself, or its stacked group."""
        return self._runs if self._runs is not None else [self]

    @property
    def budgets(self) -> np.ndarray:
        """Per-run budgets, one per entry of :attr:`runs`."""
        return np.array([adv.budget for adv in self.runs], dtype=np.int64)

    def stack_key(self) -> Hashable:
        """Adversaries with equal keys can be stacked into one group.

        Strategies with parameters beyond budget and timing add them.
        """
        return (type(self), self.timing)

    def _reset_state(self, num_runs: int) -> None:
        """(Re)initialise per-run strategy state for ``num_runs`` runs."""

    @classmethod
    def has_count_form(cls) -> bool:
        """True iff the class defines a count-space proposal."""
        return (cls.propose_counts is not Adversary.propose_counts
                or cls.propose_counts_batch is not Adversary.propose_counts_batch)

    def propose_counts(
        self,
        support: np.ndarray,
        counts: np.ndarray,
        round_index: int,
        admissible_values: np.ndarray,
        rng: np.random.Generator,
    ) -> Optional[CountCorruption]:
        """Propose one run's writes as count edits over the value support.

        The per-run extension point for custom strategies (the shipped ones
        define :meth:`propose_counts_batch` instead).  Strategies whose
        behaviour depends on the configuration only through its occupancy
        vector can override it; the override must be *distributionally
        equivalent* to :meth:`propose` applied to any expansion of the
        counts.  The default returns ``None`` — no count-space form — so the
        occupancy engines can fail fast with a clear error.
        """
        return None

    def propose_counts_batch(
        self,
        support: np.ndarray,
        counts: np.ndarray,
        round_index: int,
        admissible: np.ndarray,
        rng: np.random.Generator,
        rows: np.ndarray,
    ) -> Optional[CountCorruption]:
        """Propose this round's count edits for k runs at once.

        ``counts`` is ``(k, m)``, ``admissible`` the ``(k, m)`` boolean
        palette of each run (every row non-empty), ``rows`` the runs'
        positions in :attr:`runs`; returns a ``(k, e)``
        :class:`CountCorruption` (or ``None`` if there is no count-space
        form).  Random draws must be made run by run in row order.  The
        shipped strategies override this with whole-row array programs; the
        default asks each run's :meth:`propose_counts` in turn.
        """
        runs = self.runs
        proposals = []
        for i, r in enumerate(rows):
            proposal = runs[r].propose_counts(support, counts[i], round_index,
                                              support[admissible[i]], rng)
            if proposal is None:
                return None
            proposals.append(proposal)
        return CountCorruption.stack(proposals)

    # ------------------------------------------------------------------ #
    # victim-occupancy tracking (identity-tracking strategies in count space)
    # ------------------------------------------------------------------ #
    def victim_counts(self, support: np.ndarray,
                      rows: Optional[np.ndarray] = None) -> Optional[np.ndarray]:
        """Current ``(k, m)`` occupancy of the victim sets of runs ``rows``.

        ``None`` (the default) means the adversary does not track a victim
        subpopulation and the engines run their plain fused scatter.  An
        adversary returning an array here asks the occupancy engines to
        scatter its victims *separately* each round
        (:func:`repro.engine.occupancy.occupancy_round_split`) and to report
        the victims' post-round occupancy back through
        :meth:`observe_victim_scatter` — conditionally on the pre-round
        occupancy all per-process updates are independent, so the two-part
        scatter is distributionally identical to the combined one and the
        victim occupancy stays exactly the law of the vectorized engine's
        victim values.
        """
        return None

    def observe_victim_scatter(self, support: np.ndarray, victim_counts: np.ndarray,
                               rows: Optional[np.ndarray] = None) -> None:
        """Receive the victims' ``(k, m)`` occupancy after a round's scatter
        (no-op here)."""

    @property
    def supports_counts(self) -> bool:
        """True iff this adversary can drive the occupancy-space engine."""
        if self.budget == 0:
            return True
        return self.has_count_form()

    def corrupt_counts(
        self,
        support: np.ndarray,
        counts: np.ndarray,
        round_index: int,
        admissible_values: np.ndarray,
        rng: np.random.Generator,
        rows: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Apply the budget- and value-constrained count edits for one round.

        The occupancy-space twin of :meth:`corrupt`, for one run (``counts``
        of shape ``(m,)``) or a block of runs (``(k, m)``, with ``rows``
        their positions in :attr:`runs`).  ``admissible_values`` is the
        palette: admissible values, or a boolean mask over the support
        (see :func:`admissible_mask`).  The proposal is enforced by
        :func:`apply_count_edits` — clipped to each run's budget, moves from
        absent bins or to inadmissible values dropped, no bin driven
        negative — and each run's ledger records how many processes it
        rewrote.  Returns **new** counts of the input's shape; the input is
        never mutated.
        """
        support = np.asarray(support, dtype=np.int64)
        counts = np.asarray(counts, dtype=np.int64)
        block = counts.reshape(-1, support.shape[0])
        k = block.shape[0]
        rows = np.arange(k) if rows is None else np.asarray(rows, dtype=np.intp)
        admissible = admissible_mask(support, admissible_values, k)
        budgets = self.budgets[rows]
        out = block.copy()
        spent = np.zeros(k, dtype=np.int64)

        live = np.flatnonzero((budgets > 0) & admissible.any(axis=1))
        if live.size:
            proposal = self.propose_counts_batch(support, block[live], round_index,
                                                 admissible[live], rng, rows[live])
            if proposal is None:
                raise NotImplementedError(
                    f"{type(self).__name__} tracks process identities and has no "
                    "occupancy-space (count-edit) form; use the vectorized engine"
                )
            out[live], spent[live] = apply_count_edits(
                support, block[live], budgets[live], admissible[live], proposal)
        runs = self.runs
        for r, count in zip(rows.tolist(), spent.tolist()):
            runs[r].ledger.record(round_index, count)
        return out.reshape(counts.shape)

    def reset(self) -> None:
        """Clear per-run internal state (ledgers and any strategy memory)."""
        for adv in self.runs:
            adv.ledger = BudgetLedger(budget=adv.budget)
        self._reset_state(len(self.runs))

    def __repr__(self) -> str:  # pragma: no cover
        return f"{type(self).__name__}(budget={self.budget}, timing={self.timing.value})"


class NullAdversary(Adversary):
    """An adversary that never corrupts anything (the no-adversary baseline)."""

    def __init__(self) -> None:
        super().__init__(budget=0)

    def propose(self, values: np.ndarray, round_index: int,
                admissible_values: np.ndarray, rng: np.random.Generator) -> Corruption:
        return Corruption.empty()
