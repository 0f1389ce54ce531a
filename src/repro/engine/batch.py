"""Batched Monte-Carlo simulation.

Experiments need distributions of convergence times, not single runs.  Three
batching strategies are provided:

* :func:`run_batch` — repeat a single-run engine
  (:func:`repro.engine.vectorized.simulate` or
  :func:`repro.engine.occupancy.simulate_occupancy`) over independent seeds.
  Flexible (any rule, any adversary, full result records) but pays the
  per-run Python overhead — which *dominates* for the occupancy engine, whose
  O(m²) kernel is far cheaper than one interpreter round trip.  Vectorized
  runs from n ≥ :data:`THREADED_MIN_N` are shared among one thread per
  available CPU, with results identical to one thread.

* :func:`run_batch_fused` — simulate ``R`` independent *median-rule* runs in
  one array program of shape ``(R, n)``: each round draws an ``(R, n, 2)``
  sample tensor and applies the median kernel to all runs simultaneously.
  This amortizes the per-round Python overhead across runs and is the engine
  behind the large sweeps in the Figure-1 benchmark.  It supports the
  balancing adversary and the null adversary (the two needed for the paper's
  tables); other adversaries automatically fall back to :func:`run_batch`.

* :func:`run_batch_fused_occupancy` — the multi-run analogue of the occupancy
  engine: state is one ``(R, m)`` count tensor, each round builds the stacked
  ``(R, m, m)`` outcome tensor and draws all ``R·m`` multinomials in a single
  reshaped call; count-space adversaries corrupt each strategy's runs in
  one call per round.  O(R·m²) per round with **no dependence on n** and no
  per-run Python loop, so convergence-round distributions at n = 10⁶–10⁹ cost
  the same as at n = 10⁴.  Selected as ``run_batch(engine="occupancy-fused")``.

All three return a :class:`BatchResult` with convergence-round statistics.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from functools import reduce
from typing import Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.adversary.base import (
    Adversary,
    AdversaryTiming,
    NullAdversary,
    stack_adversaries,
)
from repro.adversary.strategies import ADVERSARY_REGISTRY, BalancingAdversary
from repro.core.consensus import AlmostStableCriterion
from repro.core.median_rule import MedianRule, median_of_three
from repro.core.occupancy_state import OccupancyState
from repro.core.rules import Rule
from repro.core.state import Configuration
from repro.engine.occupancy import (
    MAX_SUPPORT_DEFAULT,
    OCCUPANCY_KERNEL_RULE_TYPES,
    OCCUPANCY_RULES,
    _as_occupancy,
    occupancy_round_batch,
    occupancy_round_batch_split,
    simulate_occupancy,
)
from repro.engine.rng import spawn_rngs
from repro.engine.run import SimulationResult
from repro.engine.trajectory import RecordLevel
from repro.engine.vectorized import default_max_rounds, simulate

__all__ = [
    "BatchResult",
    "run_batch",
    "run_batch_fused",
    "run_batch_fused_occupancy",
    "fused_occupancy_cell_supported",
    "ENGINES",
    "BATCH_ENGINES",
    "COUNT_ADVERSARIES",
    "usable_cpus",
]

#: Single-run engines selectable by name (``run_batch(engine=...)``,
#: ``ExperimentConfig.engine``, ``repro-consensus simulate --engine``).
ENGINES = {
    "vectorized": simulate,
    "occupancy": simulate_occupancy,
}

#: Engine names accepted by the *batch* layer (``run_batch`` /
#: ``ExperimentConfig`` / ``repro-consensus sweep --engine``): the single-run
#: engines plus the fused multi-run occupancy engine, which has no single-run
#: form.
BATCH_ENGINES = tuple(ENGINES) + ("occupancy-fused",)

#: Adversary registry names with an exact count-space (``corrupt_counts``)
#: form — the ones able to drive the occupancy engines.  Classified by the
#: same override check :attr:`~repro.adversary.base.Adversary.supports_counts`
#: uses (no instantiation, so constructors with extra required arguments stay
#: importable).  Every shipped strategy qualifies: the identity-tracking ones
#: (sticky, hiding) through their exact victim-*occupancy* form (the engines
#: scatter the victim subpopulation separately each round); only custom
#: adversaries without a ``propose_counts`` override fall out.
COUNT_ADVERSARIES = frozenset(
    name for name, cls in ADVERSARY_REGISTRY.items()
    if cls is None or cls.has_count_form()
)


def fused_occupancy_cell_supported(rule_name: str, adversary_name: str = "null",
                                   n: Optional[int] = None,
                                   m: Optional[int] = None) -> bool:
    """Name-level support check for the fused occupancy batch engine.

    True iff a cell with this rule/adversary registry pair can run on
    ``engine="occupancy-fused"`` — used by the sweep builders and the runner
    to fall back to the looped :func:`run_batch` path *before* any work is
    spent.  When the cell's geometry is known, pass ``n`` and ``m``: the
    occupancy substrate costs O(m²) per round versus the vectorized engine's
    O(n), so wide supports (``m² ≫ n``, e.g. the all-distinct workload where
    m = n) are reported unsupported even though the kernels exist — and
    ``m > MAX_SUPPORT_DEFAULT`` would refuse to allocate its transition
    tensor outright.
    """
    if rule_name not in OCCUPANCY_RULES or adversary_name not in COUNT_ADVERSARIES:
        return False
    if m is not None and m > 0:
        if m > MAX_SUPPORT_DEFAULT:
            return False
        if n is not None and m * m > 4 * n:
            return False
    return True


@dataclass
class BatchResult:
    """Aggregate of a batch of independent runs.

    ``rounds`` holds one entry per run: the convergence round (exact consensus
    round without an adversary, almost-stable round with one), or ``NaN`` if
    the run did not converge within its horizon.
    """

    n: int
    num_runs: int
    rounds: np.ndarray
    converged: np.ndarray
    results: List[SimulationResult] = field(default_factory=list)
    meta: Dict[str, object] = field(default_factory=dict)

    @property
    def convergence_fraction(self) -> float:
        """Fraction of runs that converged within the horizon."""
        return float(np.mean(self.converged)) if self.num_runs else 0.0

    @property
    def mean_rounds(self) -> float:
        """Mean convergence round over converged runs (NaN if none)."""
        vals = self.rounds[self.converged]
        return float(np.mean(vals)) if vals.size else float("nan")

    @property
    def median_rounds(self) -> float:
        vals = self.rounds[self.converged]
        return float(np.median(vals)) if vals.size else float("nan")

    @property
    def max_rounds(self) -> float:
        vals = self.rounds[self.converged]
        return float(np.max(vals)) if vals.size else float("nan")

    def quantile(self, q: float) -> float:
        """Convergence-round quantile over converged runs."""
        vals = self.rounds[self.converged]
        return float(np.quantile(vals, q)) if vals.size else float("nan")

    def summary(self) -> Dict[str, object]:
        return {
            "n": self.n,
            "num_runs": self.num_runs,
            "convergence_fraction": self.convergence_fraction,
            "mean_rounds": self.mean_rounds,
            "median_rounds": self.median_rounds,
            "p90_rounds": self.quantile(0.90),
            "max_rounds": self.max_rounds,
            **self.meta,
        }


#: Smallest population at which looped ``vectorized`` runs spread over
#: threads.  From here on a round spends most of its time in NumPy calls that
#: release the GIL; below it the threads mostly wait on each other for the
#: GIL.  Measured on a 2-core machine, median rule, m=8, R=16, balancing
#: budget ⌊√n/4⌋, one batch (ms, median of 7–11 runs, one thread → two):
#:
#:   adversary   n=2048     n=8192     n=16384    n=24576    n=32768
#:   null        14 → 33    40 → 43    75 → 59    202 → 95   246 → 139
#:   balancing   97 → 234   212 → 298  281 → 330  414 → 371  620 → 432
#:
#: (sticky and random at n=32768: 305 → 238 and 300 → 245).  2¹⁴ would win
#: without an adversary but lose ~17% with one, so the gate is 2¹⁵.
THREADED_MIN_N = 2 ** 15


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set, at least 1."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:   # platforms without CPU affinity
        return os.cpu_count() or 1


def _run_workers(num_runs: int) -> int:
    """Threads for a looped batch: the usable CPUs, at most ``num_runs``."""
    return max(1, min(usable_cpus(), num_runs))


def run_batch(
    initial_factory: Callable[[np.random.Generator], Configuration] | Configuration,
    num_runs: int,
    *,
    rule: Rule | None = None,
    adversary_factory: Callable[[], Adversary] | None = None,
    seed: Optional[int] = None,
    max_rounds: Optional[int] = None,
    criterion: Optional[AlmostStableCriterion] = None,
    record: RecordLevel = RecordLevel.NONE,
    keep_results: bool = False,
    engine: str = "vectorized",
) -> BatchResult:
    """Run ``num_runs`` independent simulations and aggregate their outcomes.

    Parameters
    ----------
    initial_factory:
        Either a fixed :class:`Configuration` used for every run, or a
        callable ``rng -> Configuration`` drawing a fresh initial state per
        run (used for average-case experiments).
    adversary_factory:
        Zero-argument callable building a fresh adversary per run (adversaries
        carry per-run state such as victim sets); ``None`` means no adversary.
    keep_results:
        Keep the individual :class:`SimulationResult` objects (memory-heavy
        for large batches; off by default).
    engine:
        Which engine executes the batch: ``"vectorized"`` (O(n) per round per
        run) or ``"occupancy"`` (O(m²) per round, independent of n) loop the
        runs in Python; ``"occupancy-fused"`` routes the whole batch through
        :func:`run_batch_fused_occupancy` (one (R, m) count tensor, no
        per-run loop) whenever the rule/adversary pair supports it.  When it
        does not, the batch falls back to the looped occupancy path if only
        per-run records (``keep_results`` / ``record``) forced the loop, and
        to the vectorized path when the rule/adversary pair has no
        count-space form at all (a value-form initial is then required —
        occupancy states cannot be expanded implicitly).
        All are statistically equivalent.

    Looped ``vectorized`` runs of n ≥ :data:`THREADED_MIN_N` run on one
    thread per CPU in the process's affinity set (at most ``num_runs``).
    The threads take runs in turn; each run's ``initial_factory`` and
    ``adversary_factory`` calls still happen once per run, in run order,
    and results are bit-identical to one thread.  If a run or factory
    raises, no further run starts and, once every thread has stopped, the
    exception of the lowest failing run is re-raised.
    """
    if num_runs <= 0:
        raise ValueError("num_runs must be positive")
    if engine not in BATCH_ENGINES:
        raise KeyError(f"unknown engine {engine!r}; available: {sorted(BATCH_ENGINES)}")
    rule = rule or MedianRule()
    if engine == "occupancy-fused":
        probe = adversary_factory() if adversary_factory is not None else None
        if probe is not None:
            # hand the probe to run 0 so a stateful factory sees exactly one
            # call per run, whichever path executes the batch
            pending, original_factory = [probe], adversary_factory

            def adversary_factory() -> Adversary:
                return pending.pop() if pending else original_factory()

        if not _fused_occupancy_supported(rule, probe):
            # neither occupancy substrate can run this pair — only the
            # vectorized loop can
            engine = "vectorized"
        elif record is RecordLevel.NONE and not keep_results:
            return run_batch_fused_occupancy(
                initial_factory,
                num_runs,
                rule=rule,
                adversary_factory=adversary_factory,
                seed=seed,
                max_rounds=max_rounds,
                criterion=criterion,
            )
        else:
            engine = "occupancy"  # exact looped fallback, same workload form
    simulate_fn = ENGINES[engine]
    rngs = spawn_rngs(seed, num_runs)

    rounds = np.full(num_runs, np.nan)
    converged = np.zeros(num_runs, dtype=bool)
    kept: List[Optional[SimulationResult]] = [None] * num_runs
    failures: Dict[int, BaseException] = {}
    lock = threading.Lock()
    next_run = 0
    ready: list = []   # a claimed job not yet running

    def claim():
        """The next run's ``(index, initial, adversary)``, or None when done.

        Factories are called under the lock, so every run gets its initial
        state and adversary exactly once and in run order, whichever
        thread claims it.  A failure stops all further dispatch.
        """
        nonlocal next_run
        with lock:
            if ready:
                return ready.pop()
            if failures or next_run == num_runs:
                return None
            i = next_run
            next_run += 1
            try:
                if isinstance(initial_factory, (Configuration, OccupancyState)):
                    init = initial_factory
                else:
                    init = initial_factory(rngs[i])
                if isinstance(init, OccupancyState) and engine == "vectorized":
                    raise ValueError(
                        f"an OccupancyState initial requires an occupancy engine, "
                        f"not {engine!r} (occupancy states cannot be expanded implicitly)"
                    )
                adversary = (adversary_factory() if adversary_factory is not None
                             else NullAdversary())
            except BaseException as exc:
                failures[i] = exc
                return None
            return i, init, adversary

    def work() -> None:
        """Run claimed jobs until none is left; record a failure and stop."""
        while (job := claim()) is not None:
            i, init, adversary = job
            try:
                res = simulate_fn(
                    init,
                    rule=rule,
                    adversary=adversary,
                    seed=rngs[i],
                    max_rounds=max_rounds,
                    criterion=criterion,
                    record=record,
                )
            except BaseException as exc:
                with lock:
                    failures[i] = exc
                return
            r = res.convergence_round()
            if r is not None:
                rounds[i] = r
                converged[i] = True
            if keep_results:
                kept[i] = res
            # drop this run's state before the next run's is built
            del job, init, adversary, res

    # run 0's population decides the thread count: helpers join in only
    # where a round is long enough for NumPy to keep the GIL released
    first = claim()
    n_ref = 0
    if first is not None:
        n_ref = first[1].n
        ready.append(first)
        del first
    helpers = []
    if engine == "vectorized" and n_ref >= THREADED_MIN_N:
        helpers = [threading.Thread(target=work, name=f"run_batch-{k}",
                                    daemon=True)
                   for k in range(1, _run_workers(num_runs))]
    for thread in helpers:
        thread.start()
    try:
        work()
    finally:
        for thread in helpers:
            thread.join()
    if failures:
        raise failures[min(failures)]
    results = [res for res in kept if res is not None]

    return BatchResult(
        n=int(n_ref),
        num_runs=num_runs,
        rounds=rounds,
        converged=converged,
        results=results,
        meta={"rule": rule.name, "engine": engine},
    )


# ---------------------------------------------------------------------- #
# fused multi-run engine for the median rule
# ---------------------------------------------------------------------- #
def _fused_median_round(values: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One median-rule round applied to all runs at once.

    ``values`` has shape ``(R, n)``; each run samples its own ``(n, 2)``
    contacts.  Gathers use ``take_along_axis`` so the whole round is a few
    vectorized passes over an ``(R, n)`` array.
    """
    R, n = values.shape
    samples = rng.integers(0, n, size=(R, n, 2))
    vj = np.take_along_axis(values, samples[:, :, 0], axis=1)
    vk = np.take_along_axis(values, samples[:, :, 1], axis=1)
    return median_of_three(values, vj, vk)


def _dense_batch_counts(values: np.ndarray) -> tuple:
    """Per-run value counts over the batch's joint support, without a run loop.

    Returns ``(uniq, counts)`` where ``uniq`` is the sorted union of values
    present anywhere in the ``(R, n)`` batch and ``counts`` is the ``(R, K)``
    matrix of per-run loads (zero where a run lacks the value).  One
    ``np.unique`` over the whole block plus one flat ``bincount`` replaces the
    former row-by-row ``np.unique`` passes.
    """
    R, n = values.shape
    uniq, inv = np.unique(values, return_inverse=True)
    K = uniq.shape[0]
    inv = inv.reshape(R, n)  # no-op on NumPy ≥ 2.0, flattens-back on 1.x
    flat = inv + (np.arange(R, dtype=np.intp)[:, None] * K)
    counts = np.bincount(flat.ravel(), minlength=R * K).reshape(R, K)
    return uniq, counts


def _fused_balancing_corruption(values: np.ndarray, budget: int,
                                rng: np.random.Generator) -> np.ndarray:
    """Apply a balancing adversary to every run of a fused batch.

    For each run the two most loaded values are found and up to ``budget``
    holders of the leader are rewritten to the runner-up; runs at exact
    consensus (fewer than two values present) are left untouched.  All runs
    are handled in one batched pass: per-run loads come from
    :func:`_dense_batch_counts` and the uniform-without-replacement victim
    choice is realized by ranking i.i.d. random keys over the leader's
    holders (the ``want`` smallest keys form exactly a uniform ``want``-subset),
    so no Python loop over runs remains.

    This helper works on the *current* values only and is therefore slightly
    weaker than :class:`BalancingAdversary` at exact consensus; the Figure-1
    benchmark uses two-value workloads where the difference does not matter
    (and cross-checks against the unfused engine).
    """
    R, n = values.shape
    out = values.copy()
    uniq, counts = _dense_batch_counts(out)
    if uniq.shape[0] < 2:
        return out

    run_rows = np.arange(R)
    lead_idx = counts.argmax(axis=1)          # smallest value among tied maxima
    lead_count = counts[run_rows, lead_idx]
    rest = counts.copy()
    rest[run_rows, lead_idx] = -1
    runner_idx = rest.argmax(axis=1)
    runner_count = rest[run_rows, runner_idx]

    gap = lead_count - runner_count
    want = np.minimum(budget, np.maximum((gap + 1) // 2, 0))
    want = np.where(runner_count > 0, want, 0)   # consensus rows: skip
    want = np.minimum(want, lead_count)
    kmax = int(want.max()) if want.size else 0
    if kmax <= 0:
        return out

    # rank i.i.d. keys over each run's leader holders; the want[r] smallest
    # keys are a uniform random want[r]-subset of the holders
    keys = rng.random((R, n))
    keys[out != uniq[lead_idx][:, None]] = np.inf
    cand = np.argpartition(keys, kmax - 1, axis=1)[:, :kmax]
    cand_keys = np.take_along_axis(keys, cand, axis=1)
    order = np.argsort(cand_keys, axis=1)
    cand = np.take_along_axis(cand, order, axis=1)

    sel = np.arange(kmax)[None, :] < want[:, None]
    rr, cc = np.nonzero(sel)
    out[rr, cand[rr, cc]] = uniq[runner_idx][rr]
    return out


def run_batch_fused(
    initial: Configuration,
    num_runs: int,
    *,
    seed: Optional[int] = None,
    max_rounds: Optional[int] = None,
    adversary_budget: int = 0,
    tolerance: Optional[int] = None,
    stability_window: int = 10,
) -> BatchResult:
    """Simulate ``num_runs`` median-rule runs from the same initial state, fused.

    All runs share the initial configuration but use independent randomness.
    Without an adversary a run's convergence round is its first
    exact-consensus round; with ``adversary_budget > 0`` a fused balancing
    adversary is applied each round and the convergence round is the first
    round of the trailing window in which at most ``tolerance`` processes
    disagree with the plurality (defaults to ``4 · budget``).

    Falls back to :func:`run_batch` semantics in accuracy but is typically an
    order of magnitude faster for medium ``n`` and many runs.
    """
    if num_runs <= 0:
        raise ValueError("num_runs must be positive")
    n = initial.n
    horizon = max_rounds if max_rounds is not None else default_max_rounds(n)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    tol = (4 * adversary_budget) if tolerance is None else int(tolerance)

    values = np.tile(initial.copy_values(), (num_runs, 1))
    rounds = np.full(num_runs, np.nan)
    converged = np.zeros(num_runs, dtype=bool)
    # streak bookkeeping for the adversarial (almost-stable) case
    streak = np.zeros(num_runs, dtype=np.int64)
    streak_start = np.full(num_runs, -1, dtype=np.int64)

    def _minorities(vals: np.ndarray) -> np.ndarray:
        # number of processes outside the plurality value, per run — one
        # batched bincount pass instead of a per-run np.unique loop
        _, counts = _dense_batch_counts(vals)
        return (vals.shape[1] - counts.max(axis=1)).astype(np.int64)

    active = np.ones(num_runs, dtype=bool)
    for t in range(1, horizon + 1):
        if not np.any(active):
            break
        if adversary_budget > 0:
            values[active] = _fused_balancing_corruption(values[active], adversary_budget, rng)
        values[active] = _fused_median_round(values[active], rng)

        if adversary_budget == 0:
            # exact consensus check per active run
            act_idx = np.flatnonzero(active)
            same = np.all(values[act_idx] == values[act_idx, :1], axis=1)
            done = act_idx[same]
            rounds[done] = t
            converged[done] = True
            active[done] = False
        else:
            act_idx = np.flatnonzero(active)
            mins = _minorities(values[act_idx])
            ok = mins <= tol
            # update streaks
            started = ok & (streak[act_idx] == 0)
            streak_start[act_idx[started]] = t
            streak[act_idx[ok]] += 1
            streak[act_idx[~ok]] = 0
            streak_start[act_idx[~ok]] = -1
            finished = act_idx[streak[act_idx] >= stability_window]
            rounds[finished] = streak_start[finished]
            converged[finished] = True
            active[finished] = False

    return BatchResult(
        n=n,
        num_runs=num_runs,
        rounds=rounds,
        converged=converged,
        results=[],
        meta={
            "rule": "median",
            "fused": True,
            "adversary_budget": adversary_budget,
            "tolerance": tol,
            "horizon": horizon,
        },
    )


# ---------------------------------------------------------------------- #
# fused multi-run engine in occupancy (count) space
# ---------------------------------------------------------------------- #
#: Per-round working-set cap for the fused occupancy engine, in float64
#: elements of the (block, m, m) outcome tensor (2**24 ≈ 134 MB).  Rounds over
#: batches wider than this are processed in run blocks of that size.
FUSED_OCCUPANCY_BLOCK_ELEMS = 2 ** 24


def _fused_occupancy_supported(rule: Rule, adversary: Optional[Adversary]) -> bool:
    """Object-level twin of :func:`fused_occupancy_cell_supported`."""
    if adversary is not None and adversary.budget > 0 and not adversary.supports_counts:
        return False
    if callable(getattr(rule, "occupancy_kernel", None)):
        return True
    return isinstance(rule, OCCUPANCY_KERNEL_RULE_TYPES)


def _occupancy_round_blocked(counts: np.ndarray, rule: Rule,
                             rng: np.random.Generator,
                             max_block_elems: int,
                             support=None) -> np.ndarray:
    """One fused round, chunked over runs so peak memory stays bounded."""
    R, m = counts.shape
    block = max(1, int(max_block_elems) // max(m * m, 1))
    if R <= block:
        return occupancy_round_batch(counts, rule, rng, support=support)
    out = np.empty_like(counts)
    for start in range(0, R, block):
        out[start:start + block] = occupancy_round_batch(
            counts[start:start + block], rule, rng, support=support)
    return out


def _occupancy_round_blocked_split(counts: np.ndarray, victim_counts: np.ndarray,
                                   rule: Rule, rng: np.random.Generator,
                                   max_block_elems: int,
                                   support=None) -> tuple:
    """Blocked twin of :func:`~repro.engine.occupancy.occupancy_round_batch_split`.

    Used on rounds where at least one run's adversary tracks a victim
    occupancy; runs without one carry a zero victim row (a no-op scatter).
    """
    R, m = counts.shape
    block = max(1, int(max_block_elems) // max(m * m, 1))
    if R <= block:
        return occupancy_round_batch_split(counts, victim_counts, rule, rng,
                                           support=support)
    out = np.empty_like(counts)
    out_vic = np.empty_like(victim_counts)
    for start in range(0, R, block):
        out[start:start + block], out_vic[start:start + block] = \
            occupancy_round_batch_split(counts[start:start + block],
                                        victim_counts[start:start + block],
                                        rule, rng, support=support)
    return out, out_vic


def run_batch_fused_occupancy(
    initial_factory: Union[Configuration, OccupancyState,
                           Callable[[np.random.Generator], Configuration],
                           Callable[[np.random.Generator], OccupancyState]],
    num_runs: int,
    *,
    rule: Rule | None = None,
    adversary_factory: Callable[[], Adversary] | None = None,
    seed: Optional[int] = None,
    max_rounds: Optional[int] = None,
    criterion: Optional[AlmostStableCriterion] = None,
    max_block_elems: int = FUSED_OCCUPANCY_BLOCK_ELEMS,
) -> BatchResult:
    """Simulate ``num_runs`` independent runs as one count-tensor program.

    The multi-run analogue of :func:`repro.engine.occupancy.simulate_occupancy`
    (and the occupancy twin of :func:`run_batch_fused`): the batch state is an
    ``(R, m)`` int64 tensor of bin counts over a shared value support.  Each
    round builds the stacked per-run outcome tensor ``(R, m, m)`` with the
    batched CDF kernels, draws all ``R·m`` multinomial scatters in one
    reshaped call, and detects convergence in count space
    (``n − counts.max(axis=1)``, O(m) per run).  Per-round cost is O(R·m²)
    independent of n, with no Python loop over runs (apart from adversaries'
    run-ordered random draws and ledger entries).

    Semantics match ``run_batch(engine="occupancy")`` run for run, in
    distribution: per-run initial draws use the same spawned seed streams,
    adversaries act through their exact count-edit form
    (:meth:`~repro.adversary.base.Adversary.corrupt_counts`; one fresh
    adversary per run with its own budget ledger, the runs of one strategy
    stacked by :func:`~repro.adversary.base.stack_adversaries` and corrupted
    in one call per round), convergence is the exact
    consensus round without an adversary and the first round of the trailing
    ``criterion.window`` with minority ≤ ``criterion.tolerance`` with one
    (exact consensus, if a run ever latches it, takes precedence — exactly
    like :meth:`~repro.engine.run.SimulationResult.convergence_round`).

    Parameters
    ----------
    initial_factory:
        Fixed :class:`Configuration`/:class:`OccupancyState` used by every
        run, or a per-run factory ``rng -> Configuration | OccupancyState``.
        All runs must share the same population size n; the batch support is
        the union of the runs' initial values, while each run's adversary
        palette remains that run's *own* initial values (as in the looped
        engine — a sibling run's values are never admissible).
    adversary_factory:
        Zero-argument callable building a fresh count-capable adversary per
        run; ``None`` disables corruption.  Runs whose adversaries share a
        :meth:`~repro.adversary.base.Adversary.stack_key` form a group,
        corrupted one group after another each round; within a group the
        random draws are made run by run, so a batch of one strategy draws
        what its runs would draw one after another.  The identity-tracking
        strategies (sticky, hiding) run through their exact victim-occupancy
        form: their runs' victim subpopulations are scattered as a separate
        multinomial program each round (still one fused pass over the
        batch).  Custom adversaries without a count-space form are rejected,
        matching the single-run engine.
    criterion:
        Almost-stable criterion; defaults to tolerance ``4·T`` with a
        10-round window (1-round window without an adversary), matching
        ``simulate_occupancy``.  Without an adversary runs still stop only at
        exact consensus, but a caller-supplied criterion is honored at the
        horizon: runs whose trailing streak satisfies it report the streak's
        first round, like the looped engine.
    max_block_elems:
        Cap on the per-round outcome-tensor working set (float64 elements);
        wide batches are processed in run blocks of at most this size.

    Returns
    -------
    BatchResult
        With ``results=[]`` (no per-run records — use :func:`run_batch` with
        ``keep_results=True`` when individual runs are needed).
    """
    if num_runs <= 0:
        raise ValueError("num_runs must be positive")
    rule = rule or MedianRule()

    # one child stream per run for the initial draw (aligning run_batch's
    # spawning discipline) plus one batch-wide stream for the dynamics
    streams = spawn_rngs(seed, num_runs + 1)
    rng = streams[-1]

    if isinstance(initial_factory, (Configuration, OccupancyState)):
        # fixed initial: convert/count once, share across the batch
        states: List[OccupancyState] = [_as_occupancy(initial_factory)] * num_runs
    else:
        states = [_as_occupancy(initial_factory(streams[i])) for i in range(num_runs)]

    n = states[0].n
    if any(s.n != n for s in states):
        raise ValueError("fused occupancy batch requires a uniform population size n")
    if n == 0:
        raise ValueError("cannot simulate an empty population")

    adversaries: List[Adversary] = [
        adversary_factory() if adversary_factory is not None else NullAdversary()
        for _ in range(num_runs)
    ]
    budgets = np.array([adv.budget for adv in adversaries], dtype=np.int64)
    any_adversary = bool(budgets.max() > 0)
    for adv in adversaries:
        adv.reset()
        if adv.budget > 0 and not adv.supports_counts:
            raise NotImplementedError(
                f"{type(adv).__name__} tracks process identities and cannot "
                "drive the occupancy engine; use the vectorized engine instead"
            )

    # per-run criterion, exactly as run_batch's looped engines derive it: a
    # caller-supplied criterion applies to every run, the default depends on
    # each run's own adversary budget (so mixed-budget factories keep the
    # looped semantics run for run)
    if criterion is None:
        tol = np.where(budgets > 0, 4 * budgets, 0)
        window = np.where(budgets > 0, 10, 1)
    else:
        tol = np.full(num_runs, int(criterion.tolerance), dtype=np.int64)
        window = np.full(num_runs, int(criterion.window), dtype=np.int64)

    horizon = max_rounds if max_rounds is not None else default_max_rounds(n)
    if horizon < 0:
        raise ValueError("max_rounds must be non-negative")

    # shared fixed support: union of every run's initial values.  Each run's
    # adversary palette stays that run's *own* initial values (count edits may
    # revive extinct values, but never values from a sibling run), matching
    # the looped engine.
    if states[0] is states[-1]:  # fixed initial: one alignment, tiled
        support = states[0].support[states[0].counts > 0].copy()
        counts = np.tile(states[0].with_support(support).counts, (num_runs, 1))
    else:
        support = reduce(np.union1d, [s.support[s.counts > 0] for s in states])
        counts = np.stack([s.with_support(support).counts for s in states])
    palettes = counts > 0
    num_bins = int(support.shape[0])

    # one stacked adversary per strategy group, its runs in run order: each
    # round corrupts a group's active runs in one call, so a homogeneous
    # batch draws exactly what its runs would draw one after another
    keyed: Dict[object, List[int]] = {}
    for i, adv in enumerate(adversaries):
        if adv.budget > 0:
            keyed.setdefault(adv.stack_key(), []).append(i)
    groups = [(stack_adversaries([adversaries[i] for i in idx]), np.array(idx))
              for idx in keyed.values()]

    rounds = np.full(num_runs, np.nan)
    converged = np.zeros(num_runs, dtype=bool)
    consensus_round = np.full(num_runs, -1, dtype=np.int64)
    streak = np.zeros(num_runs, dtype=np.int64)
    streak_start = np.full(num_runs, -1, dtype=np.int64)
    active = np.ones(num_runs, dtype=bool)

    minority0 = n - counts.max(axis=1)
    at_consensus0 = np.count_nonzero(counts, axis=1) <= 1
    consensus_round[at_consensus0] = 0
    ok0 = minority0 <= tol
    streak[ok0] = 1
    streak_start[ok0] = 0
    init_done = at_consensus0 & (budgets == 0)
    rounds[init_done] = 0
    converged[init_done] = True
    active[init_done] = False

    rounds_executed = 0
    for t in range(1, horizon + 1):
        act = np.flatnonzero(active)
        if act.size == 0:
            break
        rounds_executed = t
        sub = counts[act]

        # each group's active runs: their positions in the group (`rows`)
        # and in `sub` (`pos`)
        placed = []
        for group, idx in groups:
            rows = np.flatnonzero(active[idx])
            if rows.size:
                placed.append((group, rows, np.searchsorted(act, idx[rows]),
                               palettes[idx[rows]]))

        for group, rows, pos, palette in placed:
            if group.timing is AdversaryTiming.BEFORE_SAMPLING:
                sub[pos] = group.corrupt_counts(support, sub[pos], t, palette,
                                                rng, rows=rows)

        # runs whose adversary tracks a victim occupancy (sticky, hiding) get
        # their victims scattered as a separate — exactly equivalent —
        # multinomial program, and learn the victims' new occupancy
        victims = None
        tracked = []
        for group, rows, pos, _ in placed:
            vc = group.victim_counts(support, rows)
            if vc is not None:
                if victims is None:
                    victims = np.zeros_like(sub)
                victims[pos] = vc
                tracked.append((group, rows, pos))
        if victims is not None:
            sub, new_victims = _occupancy_round_blocked_split(
                sub, victims, rule, rng, max_block_elems, support=support)
            for group, rows, pos in tracked:
                group.observe_victim_scatter(support, new_victims[pos], rows)
        else:
            sub = _occupancy_round_blocked(sub, rule, rng, max_block_elems,
                                           support=support)

        for group, rows, pos, palette in placed:
            if group.timing is AdversaryTiming.AFTER_SAMPLING:
                sub[pos] = group.corrupt_counts(support, sub[pos], t, palette,
                                                rng, rows=rows)

        counts[act] = sub
        minority = n - sub.max(axis=1)
        at_consensus = np.count_nonzero(sub, axis=1) <= 1
        newly = act[at_consensus & (consensus_round[act] < 0)]
        consensus_round[newly] = t

        ok = minority <= tol[act]
        started = ok & (streak[act] == 0)
        streak_start[act[started]] = t
        streak[act[ok]] += 1
        streak[act[~ok]] = 0
        streak_start[act[~ok]] = -1
        no_adv = budgets[act] == 0
        # adversary-free runs stop only at exact consensus (streaks are still
        # tracked so a caller-supplied almost-stable criterion is honored at
        # the horizon, like the looped engine); adversarial runs stop once
        # their trailing window satisfies their tolerance
        done = act[no_adv & (minority == 0)]
        rounds[done] = t
        converged[done] = True
        active[done] = False
        fin = act[~no_adv & (streak[act] >= window[act])]
        rounds[fin] = np.where(consensus_round[fin] >= 0,
                               consensus_round[fin], streak_start[fin])
        converged[fin] = True
        active[fin] = False

        # compact bins that are empty in every run: the rules only ever output
        # present values, so without an adversary such bins can never refill
        # (with one, the admissible palettes must stay addressable)
        if not any_adversary and active.any():
            occupied = counts.any(axis=0)
            if not occupied.all():
                support = support[occupied]
                counts = np.ascontiguousarray(counts[:, occupied])

    # horizon exhausted: runs that latched exact consensus still report it,
    # and runs whose trailing streak satisfies the criterion report its first
    # round — mirroring SimulationResult.convergence_round()
    leftovers = np.flatnonzero(active)
    latched = leftovers[consensus_round[leftovers] >= 0]
    rounds[latched] = consensus_round[latched]
    converged[latched] = True
    stable = leftovers[(consensus_round[leftovers] < 0)
                       & (streak[leftovers] >= window[leftovers])]
    rounds[stable] = streak_start[stable]
    converged[stable] = True

    return BatchResult(
        n=n,
        num_runs=num_runs,
        rounds=rounds,
        converged=converged,
        results=[],
        meta={
            "rule": rule.name,
            "engine": "occupancy-fused",
            "fused": True,
            "adversary_budget": int(budgets.max()),
            "tolerance": int(tol.max()),
            "window": int(window.max()),
            "horizon": horizon,
            "num_bins": num_bins,
            "rounds_executed": rounds_executed,
            "budget_ledger_ok": all(adv.ledger.verify() for adv in adversaries),
        },
    )
