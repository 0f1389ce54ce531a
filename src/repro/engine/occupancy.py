"""Exact occupancy-space simulation engine: O(m²) per round, independent of n.

The vectorized engine (:mod:`repro.engine.vectorized`) stores one value per
process and pays O(n) work per round.  But every anonymous symmetric rule —
in particular the paper's median rule — is a function of the configuration
only through its *occupancy vector* (how many processes hold each of the m
distinct values), and conditionally on the current occupancy the n per-process
updates are independent draws from a per-value-class outcome distribution.
One synchronous round therefore collapses to m multinomial draws:

    for each value class a with c_a holders,
        N_a ~ Multinomial(c_a, q^(a))          # q^(a) over the m classes
    c'_b = Σ_a N_a[b]

where ``q^(a)_b`` is the probability that a holder of the a-th smallest value
ends the round holding the b-th smallest value.  For the median-of-(k+1)
family this distribution has a closed form in the cumulative load fractions
``F_b`` (the same CDF the mean-field model iterates — see
:mod:`repro.analysis.meanfield`): the new value is ≤ the b-th value iff at
least ``⌊k/2⌋`` (own value already below) or ``⌊k/2⌋+1`` (own value above) of
the k uniform samples land at or below it, i.e. a binomial tail in ``F_b``.

This makes the engine **exact**: the occupancy vector it produces after each
round has *identically the same distribution* as counting the vectorized
engine's value array — verified by ``tests/test_engine_differential.py``.
It is not sample-path identical for a shared seed (the two engines consume
randomness differently), only equal in law.

Cost per round is O(m²) for the transition matrix and draws, with **no
dependence on n**, so n = 10⁸–10⁹ runs cost the same as n = 10⁴ for fixed m
(``benchmarks/bench_engine_occupancy.py``).

Supported rules: :class:`~repro.core.median_rule.MedianRule`,
:class:`~repro.core.median_rule.BestOfKMedianRule` (any k),
:class:`~repro.core.median_rule.MedianRuleWithoutReplacement` (exact finite-n
pair-without-replacement kernel), the single-choice baselines
(voter, minimum, maximum), and the majority family
(:class:`~repro.core.baseline_rules.TwoChoicesMajorityRule` — classic
3-majority — and :class:`~repro.core.baseline_rules.TwoChoicesRule` — classic
2-Choices), whose majority-of-k-samples outcome distributions also close over
the load pmf.  Rules may also provide their own kernel by defining
``occupancy_kernel(support, counts) -> (m, m) matrix``.

Adversaries act through budgeted *count edits*
(:meth:`repro.adversary.base.Adversary.corrupt_counts`), reusing the same
budget ledger as the vectorized engine.  Identity-tracking strategies
(sticky, hiding) are expressed exactly by tracking their victims' *occupancy*
instead of their identities: the engine splits each round's scatter into an
independent civilian draw and victim draw (:func:`occupancy_round_split`) and
reports the victims' new occupancy back to the adversary
(:meth:`~repro.adversary.base.Adversary.observe_victim_scatter`) — scattering
two disjoint subpopulations separately is distributionally identical to
scattering their union, so the split is exact, not an approximation.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Union

import numpy as np

from repro.adversary.base import Adversary, AdversaryTiming, NullAdversary
from repro.core.baseline_rules import (
    MaximumRule,
    MinimumRule,
    TwoChoicesMajorityRule,
    TwoChoicesRule,
    VoterRule,
)
from repro.core.consensus import AlmostStableCriterion, ConsensusStatus
from repro.core.median_rule import (
    BestOfKMedianRule,
    MedianRule,
    MedianRuleWithoutReplacement,
)
from repro.core.occupancy_state import (
    MATERIALIZE_LIMIT_DEFAULT,
    OccupancyState,
    occupancy_metrics,
)
from repro.core.rules import Rule
from repro.core.state import Configuration
from repro.engine import _multinomial as _mnk
from repro.engine.rng import make_rng
from repro.engine.run import SimulationResult
from repro.engine.trajectory import RecordLevel, Trajectory
from repro.engine.vectorized import default_max_rounds

__all__ = [
    "OCCUPANCY_RULES",
    "OCCUPANCY_KERNEL_RULE_TYPES",
    "binomial_sf",
    "median_outcome_matrix",
    "median_noreplace_outcome_matrix",
    "single_choice_outcome_matrix",
    "three_majority_outcome_matrix",
    "two_choices_outcome_matrix",
    "occupancy_outcome_profiles",
    "occupancy_transition_matrix",
    "occupancy_transition_matrix_batch",
    "occupancy_round",
    "occupancy_round_batch",
    "occupancy_round_split",
    "occupancy_round_batch_split",
    "simulate_occupancy",
]

#: Full-configuration trajectory recording is refused above this n.
_FULL_RECORD_LIMIT = 100_000

#: Registry names of the built-in rules with an occupancy-space kernel
#: (rules defining their own ``occupancy_kernel`` also work; this set exists
#: so sweeps can be filtered *before* work is spent).  Must track
#: :data:`OCCUPANCY_KERNEL_RULE_TYPES` below — the object-level source of
#: truth used by the engine dispatch.
OCCUPANCY_RULES = frozenset(
    {"median", "median-noreplace", "median-k", "voter", "minimum", "maximum",
     "three-majority", "two-choices-majority"}
)

#: The transition matrix has m² float64 entries; beyond this support width a
#: single round would allocate gigabytes, and the vectorized engine is the
#: better substrate anyway (occupancy wins only when m ≪ n).
MAX_SUPPORT_DEFAULT = 10_000

#: Rule classes :func:`occupancy_transition_matrix` can dispatch on (plus any
#: rule providing its own ``occupancy_kernel``).  Shared with the batch
#: layer's support checks so the two cannot drift.
OCCUPANCY_KERNEL_RULE_TYPES = (MedianRule, BestOfKMedianRule, VoterRule,
                               MinimumRule, MaximumRule,
                               TwoChoicesMajorityRule, TwoChoicesRule)


# ---------------------------------------------------------------------- #
# transition-matrix kernels
# ---------------------------------------------------------------------- #
def binomial_sf(k: int, r: int, x: np.ndarray) -> np.ndarray:
    """``P(Binomial(k, x) >= r)`` element-wise over success probabilities ``x``.

    Exact finite sum (k is the rule's small sample count, so no special
    functions are needed).
    """
    x = np.asarray(x, dtype=np.float64)
    if r <= 0:
        return np.ones_like(x)
    if r > k:
        return np.zeros_like(x)
    out = np.zeros_like(x)
    for j in range(r, k + 1):
        out += math.comb(k, j) * np.power(x, j) * np.power(1.0 - x, k - j)
    return np.clip(out, 0.0, 1.0)


def median_outcome_matrix(cdf: np.ndarray, k: int = 2) -> np.ndarray:
    """Outcome matrix of the median-of-(k+1) rule from the load CDF.

    ``cdf[b] = F_b`` is the fraction of processes holding a value ≤ the b-th
    smallest value.  Row ``a`` of the result is the outcome distribution
    ``q^(a)`` for a holder of the a-th value: with ``r = ⌊k/2⌋`` (the lower
    median's 0-based order statistic among the k+1 pooled values),

    * ``P(new ≤ b) = P(Bin(k, F_b) ≥ r)``     when ``b ≥ a`` (own value helps),
    * ``P(new ≤ b) = P(Bin(k, F_b) ≥ r + 1)`` when ``b < a``.

    For k = 2 this reduces to the classic median-of-three transition
    ``q_b = F_b² − F_{b−1}²`` below, ``(1−F_{b−1})² − (1−F_b)²`` above, and
    ``1 − F_{a−1}² − (1−F_a)²`` on the diagonal.

    ``cdf`` may carry leading batch dimensions ``(..., m)``; the result is the
    stacked ``(..., m, m)`` outcome tensor (one matrix per run — the kernel of
    the fused multi-run batch engine).
    """
    F = np.asarray(cdf, dtype=np.float64)
    m = F.shape[-1]
    if m == 0:
        return np.zeros(F.shape + (0,))
    r = k // 2
    s_hi = binomial_sf(k, r, F)       # P(new ≤ b) for b ≥ a
    s_lo = binomial_sf(k, r + 1, F)   # P(new ≤ b) for b < a

    # row-independent increments of the two CDF branches
    d_lo = np.diff(s_lo, prepend=0.0, axis=-1)    # used where b < a
    d_hi = np.diff(s_hi, prepend=0.0, axis=-1)    # used where b > a (b ≥ 1)
    s_lo_prev = np.concatenate(
        [np.zeros_like(s_lo[..., :1]), s_lo[..., :-1]], axis=-1)
    diag = s_hi - s_lo_prev                       # P(new = a) for a holder of a

    a_idx = np.arange(m)[:, None]
    b_idx = np.arange(m)[None, :]
    Q = np.where(b_idx < a_idx, d_lo[..., None, :],
                 np.where(b_idx > a_idx, d_hi[..., None, :], diag[..., None, :]))
    return _normalize_rows(Q)


def median_noreplace_outcome_matrix(counts: np.ndarray) -> np.ndarray:
    """Exact outcome matrix for the median rule sampling two *distinct others*.

    The ordered pair of contacts is uniform over distinct non-self process
    pairs, so for a holder of value class ``a`` (with cumulative counts
    ``C_b`` over all processes):

    * both contacts ≤ b (for b < a)  has probability ``C_b (C_b − 1) / D``
      (self holds a value above b, so all ``C_b`` such processes are others),
    * both contacts ≥ b (for b > a)  has probability ``U_b (U_b − 1) / D``
      with ``U_b = n − C_{b−1}`` (self holds a value below b),
    * where ``D = (n − 1)(n − 2)``.

    Differencing the two branches gives the off-diagonal masses and the
    diagonal takes the remainder.  Requires n ≥ 3 (the rule itself falls back
    to with-replacement sampling below that, and so does
    :func:`occupancy_transition_matrix`).

    ``counts`` may carry leading batch dimensions ``(..., m)``; every row of
    the batch must describe the same population size ``n``.
    """
    counts = np.asarray(counts, dtype=np.int64)
    m = counts.shape[-1]
    n = int(counts.sum(axis=-1).ravel()[0]) if counts.size else 0
    if counts.ndim > 1 and np.any(counts.sum(axis=-1) != n):
        raise ValueError("batched without-replacement kernel needs a uniform n")
    if n < 3:
        raise ValueError("without-replacement kernel needs n >= 3")
    C = np.cumsum(counts, axis=-1).astype(np.float64)
    zeros = np.zeros_like(C[..., :1])
    C_prev = np.concatenate([zeros, C[..., :-1]], axis=-1)
    D = float(n - 1) * float(n - 2)

    below = C * (C - 1.0) / D                    # P(both others ≤ b), b < a
    above = (n - C_prev) * (n - C_prev - 1.0) / D  # P(both others ≥ b), b > a

    d_lo = np.diff(below, prepend=0.0, axis=-1)
    d_hi = -np.diff(above, append=0.0, axis=-1)
    below_prev = np.concatenate([zeros, below[..., :-1]], axis=-1)
    above_next = np.concatenate([above[..., 1:], zeros], axis=-1)
    diag = 1.0 - below_prev - above_next

    a_idx = np.arange(m)[:, None]
    b_idx = np.arange(m)[None, :]
    Q = np.where(b_idx < a_idx, d_lo[..., None, :],
                 np.where(b_idx > a_idx, d_hi[..., None, :], diag[..., None, :]))
    return _normalize_rows(Q)


def single_choice_outcome_matrix(cdf: np.ndarray, kind: str) -> np.ndarray:
    """Outcome matrices of the one-contact baselines (voter / minimum / maximum).

    ``cdf`` may carry leading batch dimensions ``(..., m)`` → ``(..., m, m)``.
    """
    F = np.asarray(cdf, dtype=np.float64)
    m = F.shape[-1]
    p = np.diff(F, prepend=0.0, axis=-1)
    a_idx = np.arange(m)[:, None]
    b_idx = np.arange(m)[None, :]
    if kind == "voter":
        Q = np.broadcast_to(p[..., None, :], F.shape[:-1] + (m, m)).copy()
    elif kind == "minimum":
        # adopt the sample iff it is smaller, keep own value otherwise
        F_prev = np.concatenate([np.zeros_like(F[..., :1]), F[..., :-1]], axis=-1)
        stay = 1.0 - F_prev                       # P(sample ≥ own value a)
        Q = np.where(b_idx < a_idx, p[..., None, :],
                     np.where(b_idx == a_idx, stay[..., None, :], 0.0))
    elif kind == "maximum":
        stay = F.copy()                           # P(sample ≤ own value a)
        Q = np.where(b_idx > a_idx, p[..., None, :],
                     np.where(b_idx == a_idx, stay[..., None, :], 0.0))
    else:
        raise ValueError(f"unknown single-choice kind {kind!r}")
    return _normalize_rows(Q)


def three_majority_outcome_matrix(cdf: np.ndarray) -> np.ndarray:
    """Outcome matrix of classic 3-majority (poll three, adopt their majority).

    The own value does not participate, so every row is the same distribution
    over the outcome of three i.i.d. samples from the load pmf ``p``: value
    ``b`` wins iff at least two samples equal it, or all three samples are
    distinct, include it, and the uniform tie-break picks it.  Summing the
    two cases collapses to the closed form

        ``q_b = p_b · (1 + p_b − Σ_c p_c²)``

    (the ``3·p_b²(1−p_b) + p_b³`` at-least-two-of-three mass plus
    ``p_b·((1−p_b)² − Σ_{c≠b} p_c²)`` from the tie-break), which sums to 1
    since ``Σ_b p_b² · 1 − Σ_b p_b · Σ_c p_c²`` cancels.

    ``cdf`` may carry leading batch dimensions ``(..., m)`` → ``(..., m, m)``.
    """
    F = np.asarray(cdf, dtype=np.float64)
    m = F.shape[-1]
    if m == 0:
        return np.zeros(F.shape + (0,))
    p = np.diff(F, prepend=0.0, axis=-1)
    s2 = np.sum(p * p, axis=-1, keepdims=True)
    q = p * (1.0 + p - s2)
    Q = np.broadcast_to(q[..., None, :], F.shape[:-1] + (m, m)).copy()
    return _normalize_rows(Q)


def two_choices_outcome_matrix(cdf: np.ndarray) -> np.ndarray:
    """Outcome matrix of classic 2-Choices (adopt iff both samples agree).

    A holder of value class ``a`` switches to ``b ≠ a`` iff both samples land
    on ``b`` (probability ``p_b²``) and keeps ``a`` otherwise:

    * ``Q[a, b] = p_b²``                      for ``b ≠ a``,
    * ``Q[a, a] = 1 − Σ_{b≠a} p_b² = 1 − Σ_c p_c² + p_a²``.

    ``cdf`` may carry leading batch dimensions ``(..., m)`` → ``(..., m, m)``.
    """
    F = np.asarray(cdf, dtype=np.float64)
    m = F.shape[-1]
    if m == 0:
        return np.zeros(F.shape + (0,))
    p = np.diff(F, prepend=0.0, axis=-1)
    p2 = p * p
    s2 = np.sum(p2, axis=-1, keepdims=True)
    diag = 1.0 - s2 + p2
    a_idx = np.arange(m)[:, None]
    b_idx = np.arange(m)[None, :]
    Q = np.where(b_idx == a_idx, diag[..., None, :], p2[..., None, :])
    return _normalize_rows(Q)


def _normalize_rows(Q: np.ndarray) -> np.ndarray:
    """Clip floating-point negatives and renormalize each row to sum to 1."""
    Q = np.clip(Q, 0.0, None)
    sums = Q.sum(axis=-1, keepdims=True)
    np.divide(Q, sums, out=Q, where=sums > 0)
    return Q


def _check_support_width(m: int) -> None:
    if m > MAX_SUPPORT_DEFAULT:
        raise ValueError(
            f"support width m={m} needs an m²={m * m:,}-entry transition matrix "
            f"({m * m * 8 / 1e9:.1f} GB); the occupancy engine targets m ≪ n — "
            "use the vectorized engine for wide supports"
        )


def occupancy_outcome_profiles(
        rule: Rule, counts: np.ndarray
) -> Optional[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Band profiles ``(lo, hi, diag)`` of a built-in rule's outcome matrix.

    Every built-in occupancy kernel produces a matrix of the form
    ``Q[a, b] = lo[b]`` for ``b < a``, ``hi[b]`` for ``b > a`` and
    ``diag[a]`` for ``b = a`` (up to the per-row clip/renormalization of
    :func:`_normalize_rows`, which cancels out of every conditional ratio a
    sampler draws from).  This banded structure is what lets the compiled
    backend scatter a whole run with O(m) binomial draws instead of O(m²)
    (:func:`repro.engine._multinomial.sample_scatter_banded`).

    ``counts`` may carry leading batch dimensions ``(..., m)``; the profiles
    come back with the same leading shape.  Returns ``None`` for rules
    outside the built-in families (including any rule providing its own
    ``occupancy_kernel`` hook — those go through the dense path).  Raises
    the same errors as :func:`occupancy_transition_matrix` for invalid
    inputs so routing through profiles never changes the error surface.
    """
    counts = np.asarray(counts, dtype=np.int64)
    _check_support_width(counts.shape[-1])
    n_per_row = counts.sum(axis=-1)
    if np.any(n_per_row == 0):
        raise ValueError("cannot build a transition for an empty population")
    if callable(getattr(rule, "occupancy_kernel", None)):
        return None
    if not isinstance(rule, OCCUPANCY_KERNEL_RULE_TYPES):
        return None
    cdf = np.cumsum(counts, axis=-1).astype(np.float64) / n_per_row[..., None]
    zeros = np.zeros_like(cdf[..., :1])

    if isinstance(rule, MedianRuleWithoutReplacement) and np.all(n_per_row >= 3):
        n = int(n_per_row.ravel()[0])
        if counts.ndim > 1 and np.any(n_per_row != n):
            raise ValueError(
                "batched without-replacement kernel needs a uniform n")
        C = np.cumsum(counts, axis=-1).astype(np.float64)
        C_prev = np.concatenate([zeros, C[..., :-1]], axis=-1)
        D = float(n - 1) * float(n - 2)
        below = C * (C - 1.0) / D
        above = (n - C_prev) * (n - C_prev - 1.0) / D
        lo = np.diff(below, prepend=0.0, axis=-1)
        hi = -np.diff(above, append=0.0, axis=-1)
        below_prev = np.concatenate([zeros, below[..., :-1]], axis=-1)
        above_next = np.concatenate([above[..., 1:], zeros], axis=-1)
        diag = 1.0 - below_prev - above_next
        return lo, hi, diag
    if isinstance(rule, (MedianRule, BestOfKMedianRule)):
        # MedianRuleWithoutReplacement with some n < 3 lands here too: the
        # rule itself falls back to with-replacement sampling below n = 3
        k = rule.k if isinstance(rule, BestOfKMedianRule) else 2
        r = k // 2
        s_hi = binomial_sf(k, r, cdf)
        s_lo = binomial_sf(k, r + 1, cdf)
        lo = np.diff(s_lo, prepend=0.0, axis=-1)
        hi = np.diff(s_hi, prepend=0.0, axis=-1)
        s_lo_prev = np.concatenate([zeros, s_lo[..., :-1]], axis=-1)
        diag = s_hi - s_lo_prev
        return lo, hi, diag

    p = np.diff(cdf, prepend=0.0, axis=-1)
    if isinstance(rule, VoterRule):
        return p, p, p
    if isinstance(rule, MinimumRule):
        F_prev = np.concatenate([zeros, cdf[..., :-1]], axis=-1)
        return p, np.zeros_like(p), 1.0 - F_prev
    if isinstance(rule, MaximumRule):
        return np.zeros_like(p), p, cdf
    if isinstance(rule, TwoChoicesMajorityRule):
        s2 = np.sum(p * p, axis=-1, keepdims=True)
        q = p * (1.0 + p - s2)
        return q, q, q
    if isinstance(rule, TwoChoicesRule):
        p2 = p * p
        s2 = np.sum(p2, axis=-1, keepdims=True)
        return p2, p2, 1.0 - s2 + p2
    return None


def _builtin_transition(rule: Rule, counts: np.ndarray) -> np.ndarray:
    """Shared rule-type dispatch; ``counts`` may be ``(m,)`` or batched ``(..., m)``."""
    n_per_row = counts.sum(axis=-1)
    if np.any(n_per_row == 0):
        raise ValueError("cannot build a transition for an empty population")
    cdf = np.cumsum(counts, axis=-1).astype(np.float64) / n_per_row[..., None]
    if isinstance(rule, MedianRuleWithoutReplacement):
        if np.all(n_per_row >= 3):
            return median_noreplace_outcome_matrix(counts)
        return median_outcome_matrix(cdf, k=2)  # the rule's own n<3 fallback
    if isinstance(rule, MedianRule):
        return median_outcome_matrix(cdf, k=2)
    if isinstance(rule, BestOfKMedianRule):
        return median_outcome_matrix(cdf, k=rule.k)
    if isinstance(rule, VoterRule):
        return single_choice_outcome_matrix(cdf, "voter")
    if isinstance(rule, MinimumRule):
        return single_choice_outcome_matrix(cdf, "minimum")
    if isinstance(rule, MaximumRule):
        return single_choice_outcome_matrix(cdf, "maximum")
    if isinstance(rule, TwoChoicesMajorityRule):
        return three_majority_outcome_matrix(cdf)
    if isinstance(rule, TwoChoicesRule):
        return two_choices_outcome_matrix(cdf)
    raise TypeError(
        f"rule {rule.name!r} has no occupancy-space kernel; supported rules are "
        "median, median-noreplace, median-k, voter, minimum, maximum, "
        "three-majority, two-choices-majority, or any rule defining "
        "occupancy_kernel(support, counts)"
    )


def occupancy_transition_matrix(rule: Rule, counts: np.ndarray,
                                support: Optional[np.ndarray] = None
                                ) -> np.ndarray:
    """Build the per-class outcome matrix ``Q`` of one round of ``rule``.

    Dispatches on the rule type; rules outside the built-in families may
    provide an ``occupancy_kernel(support, counts)`` method.  ``support`` is
    the bin-value array matching ``counts`` (the built-in kernels are
    label-free and ignore it; value-aware hooks receive whatever the caller
    tracked, or ``None`` when no labels exist at the call site).
    """
    counts = np.asarray(counts, dtype=np.int64)
    _check_support_width(counts.shape[0])
    if counts.sum() == 0:
        raise ValueError("cannot build a transition for an empty population")
    hook = getattr(rule, "occupancy_kernel", None)
    if callable(hook):
        return _normalize_rows(np.asarray(hook(support, counts),
                                          dtype=np.float64))
    return _builtin_transition(rule, counts)


def occupancy_transition_matrix_batch(rule: Rule, counts: np.ndarray,
                                      support: Optional[np.ndarray] = None
                                      ) -> np.ndarray:
    """Stacked ``(R, m, m)`` outcome tensor: one transition matrix per run.

    The built-in kernels are genuinely vectorized over the run axis (one pass
    of batched CDFs / binomial tails for the whole batch); rules providing a
    custom ``occupancy_kernel`` hook are offered the whole ``(R, m)`` batch
    first (hooks broadcasting over leading batch dims run vectorized), and
    only drop to a per-run loop when the batched call fails or returns the
    wrong shape.  ``support`` is forwarded to the hook exactly as in
    :func:`occupancy_transition_matrix`.
    """
    counts = np.asarray(counts, dtype=np.int64)
    if counts.ndim != 2:
        raise ValueError(f"batched counts must be (R, m), got shape {counts.shape}")
    _check_support_width(counts.shape[1])
    if np.any(counts.sum(axis=1) == 0):
        raise ValueError("cannot build a transition for an empty population")
    hook = getattr(rule, "occupancy_kernel", None)
    if callable(hook):
        R, m = counts.shape
        try:
            batched = np.asarray(hook(support, counts), dtype=np.float64)
        except Exception:
            batched = None
        if batched is not None and batched.shape == (R, m, m):
            return _normalize_rows(batched)
        return np.stack([
            _normalize_rows(np.asarray(hook(support, row), dtype=np.float64))
            for row in counts
        ])
    return _builtin_transition(rule, counts)


# ---------------------------------------------------------------------- #
# the round and the run
# ---------------------------------------------------------------------- #
def _scatter_counts(counts: np.ndarray, Q: np.ndarray,
                    rng: np.random.Generator) -> np.ndarray:
    """Scatter ``counts`` through outcome matrix ``Q``: column sums of the flows.

    Routed through the exact-multinomial seam: the numpy backend draws
    ``rng.multinomial(counts, Q)`` bit-for-bit as before, the compiled
    backend runs the conditional-binomial cascade in native code.
    """
    return _mnk.scatter_column_sums(counts, Q, rng)


def _scatter_counts_batch(counts: np.ndarray, Q: np.ndarray,
                          rng: np.random.Generator) -> np.ndarray:
    """Batched scatter: ``(R, m)`` counts through the ``(R, m, m)`` tensor.

    Seam-routed like :func:`_scatter_counts`; the numpy backend keeps the
    historical draw-only-occupied-pairs filtering (and bit stream), the
    compiled backend skips empty bins inline.
    """
    return _mnk.scatter_column_sums_batch(counts, Q, rng)


def _banded_profiles_if_fast(rule: Rule, counts: np.ndarray
                             ) -> Optional[tuple[np.ndarray, np.ndarray,
                                                 np.ndarray]]:
    """Profiles for the O(m)-draw banded scatter, when it is the right path.

    Only the compiled backend implements the pooled hazard walk natively;
    the numpy backend keeps the historical dense ``Generator.multinomial``
    bit stream, so banded routing is gated on the resolved backend (not
    just rule structure).
    """
    if not _mnk.use_compiled():
        return None
    return occupancy_outcome_profiles(rule, counts)


def occupancy_round(counts: np.ndarray, rule: Rule,
                    rng: np.random.Generator, *,
                    support: Optional[np.ndarray] = None) -> np.ndarray:
    """Advance one synchronous round in count space (exact, O(m²)).

    Each value class scatters its holders over the classes with one
    multinomial draw from its outcome distribution; the new occupancy is the
    column sum.  Population size is conserved exactly.  On the compiled
    backend, built-in rules take the banded O(m)-draw path and never build
    the m×m matrix at all.
    """
    counts = np.asarray(counts, dtype=np.int64)
    prof = _banded_profiles_if_fast(rule, counts)
    if prof is not None:
        lo, hi, diag = prof
        return _mnk.sample_scatter_banded(counts[None, :], lo, hi, diag,
                                          rng)[0]
    Q = occupancy_transition_matrix(rule, counts, support)
    return _scatter_counts(counts, Q, rng)


def occupancy_round_split(counts: np.ndarray, victim_counts: np.ndarray,
                          rule: Rule, rng: np.random.Generator, *,
                          support: Optional[np.ndarray] = None
                          ) -> tuple[np.ndarray, np.ndarray]:
    """One round with the victim subpopulation scattered separately (exact).

    ``victim_counts`` is the occupancy of a distinguished subpopulation
    (an identity-tracking adversary's victims) with ``victim_counts ≤ counts``
    bin-wise.  Conditionally on the pre-round occupancy all n per-process
    updates are independent draws from the per-class outcome distribution, so
    scattering civilians (``counts − victim_counts``) and victims as two
    independent multinomial programs — both through the transition matrix of
    the *total* counts — has exactly the same joint law as one combined
    scatter plus tracking which holders were victims.

    Returns ``(new_counts, new_victim_counts)``.
    """
    counts = np.asarray(counts, dtype=np.int64)
    victim_counts = np.asarray(victim_counts, dtype=np.int64)
    civilians = counts - victim_counts
    if np.any(victim_counts < 0) or np.any(civilians < 0):
        raise ValueError(
            "victim occupancy out of sync with the population counts "
            "(victim_counts must satisfy 0 <= victim_counts <= counts)"
        )
    prof = _banded_profiles_if_fast(rule, counts)
    if prof is not None:
        # both subpopulations scatter through the *total* occupancy's
        # profiles, exactly as the dense path shares one Q
        lo, hi, diag = prof
        new_civilians = _mnk.sample_scatter_banded(civilians[None, :], lo, hi,
                                                   diag, rng)[0]
        new_victims = _mnk.sample_scatter_banded(victim_counts[None, :], lo,
                                                 hi, diag, rng)[0]
        return new_civilians + new_victims, new_victims
    Q = occupancy_transition_matrix(rule, counts, support)
    new_civilians = _scatter_counts(civilians, Q, rng)
    new_victims = _scatter_counts(victim_counts, Q, rng)
    return new_civilians + new_victims, new_victims


def occupancy_round_batch(counts: np.ndarray, rule: Rule,
                          rng: np.random.Generator, *,
                          support: Optional[np.ndarray] = None) -> np.ndarray:
    """Advance ``R`` independent runs one synchronous round (exact, O(R·m²)).

    ``counts`` has shape ``(R, m)``: run ``r`` scatters each of its value
    classes with one multinomial draw from that run's outcome distribution —
    all ``R·m`` multinomials are drawn in a single reshaped call, so the whole
    round is a handful of NumPy passes regardless of R.  Each run's population
    size is conserved exactly, and each row of the result is distributed
    identically to :func:`occupancy_round` applied to that row alone.
    """
    counts = np.asarray(counts, dtype=np.int64)
    prof = _banded_profiles_if_fast(rule, counts)
    if prof is not None:
        lo, hi, diag = prof
        return _mnk.sample_scatter_banded(counts, lo, hi, diag, rng)
    Q = occupancy_transition_matrix_batch(rule, counts, support)
    return _scatter_counts_batch(counts, Q, rng)


def occupancy_round_batch_split(counts: np.ndarray, victim_counts: np.ndarray,
                                rule: Rule, rng: np.random.Generator, *,
                                support: Optional[np.ndarray] = None
                                ) -> tuple[np.ndarray, np.ndarray]:
    """Batched :func:`occupancy_round_split`: ``(R, m)`` counts and victims.

    Rows whose run has no victim tracking simply carry a zero victim row —
    scattering zero victims is a no-op, so mixed batches (some runs with an
    identity-tracking adversary, some without) stay one fused program.
    """
    counts = np.asarray(counts, dtype=np.int64)
    victim_counts = np.asarray(victim_counts, dtype=np.int64)
    civilians = counts - victim_counts
    if np.any(victim_counts < 0) or np.any(civilians < 0):
        raise ValueError(
            "victim occupancy out of sync with the population counts "
            "(victim_counts must satisfy 0 <= victim_counts <= counts)"
        )
    prof = _banded_profiles_if_fast(rule, counts)
    if prof is not None:
        lo, hi, diag = prof
        new_civilians = _mnk.sample_scatter_banded(civilians, lo, hi, diag, rng)
        new_victims = _mnk.sample_scatter_banded(victim_counts, lo, hi, diag,
                                                 rng)
        return new_civilians + new_victims, new_victims
    Q = occupancy_transition_matrix_batch(rule, counts, support)
    new_civilians = _scatter_counts_batch(civilians, Q, rng)
    new_victims = _scatter_counts_batch(victim_counts, Q, rng)
    return new_civilians + new_victims, new_victims


def _as_occupancy(initial: Union[Configuration, OccupancyState, np.ndarray, Sequence[int]]
                  ) -> OccupancyState:
    if isinstance(initial, OccupancyState):
        return initial
    if isinstance(initial, Configuration):
        return OccupancyState.from_configuration(initial)
    return OccupancyState.from_values(np.asarray(initial))


def simulate_occupancy(
    initial: Union[Configuration, OccupancyState, np.ndarray, Sequence[int]],
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
    materialize: Optional[bool] = None,
) -> SimulationResult:
    """Simulate one run entirely in occupancy space.

    Drop-in companion to :func:`repro.engine.vectorized.simulate`: same
    parameters, same stop rules, same :class:`SimulationResult` shape, but
    per-round cost O(m²) independent of n.  The produced run is *equal in
    distribution* to a vectorized run (not sample-path identical for a shared
    seed).

    Parameters beyond the vectorized engine's
    ----------------------------------------
    materialize:
        Whether ``result.initial`` / ``result.final`` are expanded to real
        :class:`Configuration` objects.  ``None`` (default) expands only when
        ``n <= 1_000_000``; otherwise the result carries
        :class:`OccupancyState` objects, which duck-type every query the
        analysis layer uses (``n``, ``num_values``, ``support``, ``loads``,
        ``agreement_fraction()``, ...).

    Notes
    -----
    * ``record=RecordLevel.FULL`` stores expanded configurations and is
      refused for n > 100_000.
    * The adversary must support count edits
      (:attr:`~repro.adversary.base.Adversary.supports_counts`).  Every
      shipped strategy does — the identity-tracking ones (sticky, hiding)
      through an exact victim-*occupancy* form: the engine splits each
      round's scatter into independent civilian and victim draws
      (:func:`occupancy_round_split`) and reports the victims' new occupancy
      back via
      :meth:`~repro.adversary.base.Adversary.observe_victim_scatter`.
      Only custom adversaries without a count-space form are rejected.
    """
    state = _as_occupancy(initial)
    rule = rule or MedianRule()
    adversary = adversary or NullAdversary()
    rng = make_rng(seed)
    n = state.n
    horizon = max_rounds if max_rounds is not None else default_max_rounds(n)
    if horizon < 0:
        raise ValueError("max_rounds must be non-negative")
    if adversary.budget > 0 and not adversary.supports_counts:
        raise NotImplementedError(
            f"{type(adversary).__name__} tracks process identities and cannot "
            "drive the occupancy engine; use the vectorized engine instead"
        )

    if criterion is None:
        tolerance = 4 * adversary.budget
        window = 10 if adversary.budget > 0 else 1
        criterion = AlmostStableCriterion(tolerance=tolerance, window=window)

    nonzero_support = state.support[state.counts > 0]
    admissible = np.unique(np.asarray(
        nonzero_support if admissible_values is None else admissible_values,
        dtype=np.int64))
    # fixed support for the whole run: current values ∪ adversary's palette,
    # so count edits can re-introduce extinct admissible values
    state = state.with_support(np.union1d(state.support, admissible))
    support = state.support
    counts = np.array(state.counts)
    palette = np.isin(support, admissible)

    if record is RecordLevel.FULL and n > _FULL_RECORD_LIMIT:
        raise ValueError(
            f"RecordLevel.FULL would materialize {n} values per round; "
            f"use METRICS (O(1) per round) above n={_FULL_RECORD_LIMIT}"
        )

    adversary.reset()
    trajectory = Trajectory()

    def _record(cnts: np.ndarray, t: int) -> None:
        if record is RecordLevel.NONE:
            return
        snap = OccupancyState(support=support, counts=cnts)
        trajectory.metrics.append(occupancy_metrics(snap, t))
        if record is RecordLevel.FULL:
            trajectory.configurations.append(snap.to_configuration())

    def _minority(cnts: np.ndarray) -> int:
        return n - int(cnts.max())

    def _consensus_value(cnts: np.ndarray) -> Optional[int]:
        nz = np.flatnonzero(cnts)
        if nz.shape[0] == 1:
            return int(support[nz[0]])
        return None

    _record(counts, 0)

    consensus_status = ConsensusStatus(reached=False, round=None, value=None)
    v0 = _consensus_value(counts)
    if v0 is not None:
        consensus_status = ConsensusStatus(reached=True, round=0, value=v0)

    streak = 1 if _minority(counts) <= criterion.tolerance else 0
    first_stable_round: Optional[int] = 0 if streak else None

    rounds_executed = 0
    for t in range(1, horizon + 1):
        if adversary.budget > 0 and adversary.timing is AdversaryTiming.BEFORE_SAMPLING:
            counts = adversary.corrupt_counts(support, counts, t, palette, rng)

        victims = adversary.victim_counts(support) if adversary.budget > 0 else None
        if victims is not None:
            counts, new_victims = occupancy_round_split(counts, victims[0], rule,
                                                        rng, support=support)
            adversary.observe_victim_scatter(support, new_victims[None])
        else:
            counts = occupancy_round(counts, rule, rng, support=support)

        if adversary.budget > 0 and adversary.timing is AdversaryTiming.AFTER_SAMPLING:
            counts = adversary.corrupt_counts(support, counts, t, palette, rng)

        rounds_executed = t
        _record(counts, t)

        if not consensus_status.reached:
            v = _consensus_value(counts)
            if v is not None:
                consensus_status = ConsensusStatus(reached=True, round=t, value=v)

        if _minority(counts) <= criterion.tolerance:
            if streak == 0:
                first_stable_round = t
            streak += 1
        else:
            streak = 0
            first_stable_round = None

        if run_to_horizon:
            continue
        if stop_at_consensus and consensus_status.reached and adversary.budget == 0:
            break
        if stop_when_stable and adversary.budget > 0 and streak >= criterion.window:
            break

    final_state = OccupancyState(support=support, counts=counts)
    if first_stable_round is not None and streak >= criterion.window:
        almost_status = ConsensusStatus(reached=True, round=first_stable_round,
                                        value=final_state.majority_value())
    else:
        almost_status = ConsensusStatus(reached=False, round=None, value=None)

    expand = (n <= MATERIALIZE_LIMIT_DEFAULT) if materialize is None else materialize
    if expand:
        if isinstance(initial, Configuration):
            result_initial = initial  # keep the caller's ball order
        else:
            result_initial = _as_occupancy(initial).to_configuration(limit=max(n, 1))
        result_final = final_state.to_configuration(limit=max(n, 1))
    else:
        result_initial = _as_occupancy(initial)
        result_final = final_state.compacted()

    return SimulationResult(
        initial=result_initial,
        final=result_final,
        rounds_executed=rounds_executed,
        consensus=consensus_status,
        almost_stable=almost_status,
        trajectory=trajectory,
        rule_name=rule.name,
        adversary_name=type(adversary).__name__,
        criterion=criterion,
        meta={
            "engine": "occupancy",
            "num_bins": int(support.shape[0]),
            "adversary_budget": adversary.budget,
            "horizon": horizon,
            "budget_ledger_total": adversary.ledger.total,
            "budget_ledger_ok": adversary.ledger.verify(),
        },
    )
