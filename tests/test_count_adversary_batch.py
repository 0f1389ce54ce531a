"""Golden bit-identity pins for the count-space adversaries.

The count-space adversaries run as one batched step per strategy group and
round (``Adversary.corrupt_counts`` over a ``(k, m)`` block of runs).  For a
fixed seed the batched step must reproduce the per-run semantics exactly:
the same convergence rounds, the same ``BatchResult.meta`` and the same
per-round budget ledger of every run.  Each case below is pinned by a
SHA-256 digest of those outputs, for

* the fused engine (``run_batch_fused_occupancy``): all seven shipped
  strategies × both :class:`AdversaryTiming` values × a fixed initial state
  and a per-run initial factory (per-run palettes), plus two n ≥ 10⁹ cases
  that take the distinct-position victim draw;
* the looped engine (``simulate_occupancy``): the same strategies and
  timings, plus a balancing run that reaches exact consensus on a wider
  palette (the runner-up memory branch).

The digests are taken with the NumPy multinomial backend, whose stream
does not depend on the host's compiler.

Also here: a hypothesis property test of the batched enforcement
(:func:`repro.adversary.base.apply_count_edits`) against the per-move
rules applied row by row, and a check that a stacked group of adversaries
corrupts, draws and records exactly what its runs would one after another.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Dict, List

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversary.base import (
    Adversary,
    AdversaryTiming,
    Corruption,
    CountCorruption,
    apply_count_edits,
    stack_adversaries,
)
from repro.adversary.strategies import make_adversary
from repro.core.occupancy_state import OccupancyState
from repro.engine._multinomial import set_multinomial_backend
from repro.engine.batch import run_batch_fused_occupancy
from repro.engine.occupancy import simulate_occupancy
from repro.engine.trajectory import RecordLevel

STRATEGIES = ("balancing", "reviving", "hiding", "switching", "random",
              "targeted-median", "sticky")
TIMINGS = {"before": AdversaryTiming.BEFORE_SAMPLING,
           "after": AdversaryTiming.AFTER_SAMPLING}

#: Fixed initial: five uneven blocks of n = 2000.
FIXED = OccupancyState(support=np.array([0, 1, 2, 3, 4]),
                       counts=np.array([520, 430, 400, 350, 300]))


def _random_state(rng: np.random.Generator) -> OccupancyState:
    """n = 2000 spread over a random 3–6 value subset of 0..9 (per-run
    palettes differ, so the batch support is their union)."""
    support = np.sort(rng.choice(10, size=int(rng.integers(3, 7)),
                                 replace=False))
    counts = rng.multinomial(2000 - support.shape[0],
                             np.full(support.shape[0], 1 / support.shape[0]))
    return OccupancyState(support=support, counts=counts + 1)


def _blob(obj) -> str:
    text = json.dumps(obj, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()


def _nan_list(values) -> list:
    return ["nan" if math.isnan(v) else float(v) for v in values]


def _fused_digest(strategy: str, timing: AdversaryTiming, initial,
                  budget: int, runs: int, seed: int, max_rounds: int) -> str:
    made: List = []

    def factory():
        adv = make_adversary(strategy, budget=budget, timing=timing)
        made.append(adv)
        return adv

    batch = run_batch_fused_occupancy(initial, runs, adversary_factory=factory,
                                      seed=seed, max_rounds=max_rounds)
    return _blob({
        "rounds": _nan_list(batch.rounds),
        "converged": batch.converged.tolist(),
        "meta": batch.meta,
        "ledgers": [sorted(adv.ledger.per_round.items()) for adv in made],
    })


def _looped_digest(strategy: str, timing: AdversaryTiming, initial,
                   budget: int, seed: int, max_rounds: int,
                   admissible_values=None) -> str:
    adv = make_adversary(strategy, budget=budget, timing=timing)
    res = simulate_occupancy(initial, adversary=adv, seed=seed,
                             max_rounds=max_rounds, record=RecordLevel.METRICS,
                             admissible_values=admissible_values,
                             materialize=False)
    return _blob({
        "rounds_executed": res.rounds_executed,
        "convergence_round": res.convergence_round(),
        "final": [res.final.support.tolist(), res.final.counts.tolist()],
        "minority": res.trajectory.minority_series().tolist(),
        "meta": res.meta,
        "ledger": sorted(adv.ledger.per_round.items()),
    })


def compute_digests() -> Dict[str, str]:
    """Every pinned case, by name."""
    out: Dict[str, str] = {}
    for strategy in STRATEGIES:
        for label, timing in TIMINGS.items():
            out[f"fused:{strategy}:{label}:fixed"] = _fused_digest(
                strategy, timing, FIXED, budget=22, runs=5, seed=101,
                max_rounds=30)
            out[f"fused:{strategy}:{label}:factory"] = _fused_digest(
                strategy, timing, _random_state, budget=22, runs=5, seed=202,
                max_rounds=30)
            out[f"looped:{strategy}:{label}"] = _looped_digest(
                strategy, timing, FIXED, budget=22, seed=303, max_rounds=30)
    big = OccupancyState(support=np.arange(4),
                         counts=np.array([6, 5, 5, 4]) * 10 ** 8)
    for strategy in ("sticky", "switching"):
        out[f"fused:{strategy}:before:n=2e9"] = _fused_digest(
            strategy, AdversaryTiming.BEFORE_SAMPLING, big, budget=11_000,
            runs=3, seed=404, max_rounds=12)
    # the runner-up (7) dies out and the adversary re-seeds it, not the
    # smallest other admissible value (1)
    settled = OccupancyState(support=np.array([3, 7]), counts=np.array([599, 1]))
    out["looped:balancing:before:consensus"] = _looped_digest(
        "balancing", AdversaryTiming.BEFORE_SAMPLING, settled, budget=9,
        seed=505, max_rounds=25, admissible_values=np.array([1, 3, 7]))
    return out


#: Digests of the per-run implementation (one adversary call per run and
#: round) that the batched step replaced.
GOLDEN = {
    "fused:balancing:after:factory":
        "dde74ecd021667a125cd098e7eaefebf2314af7c508eeb894264200684f0977e",
    "fused:balancing:after:fixed":
        "012f1c52140b0225bad442b1e27ced656e11590d54d6d6f68b96144755d48a93",
    "fused:balancing:before:factory":
        "73af1b9697df25555724f188d0c50ad671609a634313fa8a1eff8bb7b60cf779",
    "fused:balancing:before:fixed":
        "4c28cb629a05e03ee4befaebe33b9ddb262100944dbf83732f2ac3ecfc56a538",
    "fused:hiding:after:factory":
        "9fbe544c06fa839d56b94dace9098621d8f9152783e7185e9490cf9a8c8aab1b",
    "fused:hiding:after:fixed":
        "ef56847601c0a8fc2df240ac2f117cfd29bbcbf6c5166837119a820881620ddf",
    "fused:hiding:before:factory":
        "cc4cbe0c23fb01f7879c6bf700e424f1f31dbe80243b0253cf977541e1dd5cb6",
    "fused:hiding:before:fixed":
        "3e2a13d0153fa04f26a84f0bd33320dbc1f1bed535d5f2c83f72dd4533ca7a8a",
    "fused:random:after:factory":
        "b1536c17a98740444c2028f2ac6c1b9b349d8ae8c1a5888768db334b8ba06b59",
    "fused:random:after:fixed":
        "1fbbb3deaaedb57537d5398d370c2e115cfe16b89cd7effa2ec8b8ddca726f4d",
    "fused:random:before:factory":
        "351fedab9cfe48a8a728a9cf8e09183e818b7ae4eb5f49c147dbf4951b802034",
    "fused:random:before:fixed":
        "261d7cbaca1388f419dab8daff701d4e11228d2152456afdca6fea19716c3cc3",
    "fused:reviving:after:factory":
        "a96f4e807529fa6db915bce05bd997ec1391dd5dc775ffc944ca2afae472565c",
    "fused:reviving:after:fixed":
        "b8ffe1df8f28fd1774ad4e0b2eeb5e995b4004c652704c06ef7b44841f66702a",
    "fused:reviving:before:factory":
        "9d39f641d66c6f57e520c65154436f89550e7a375624c6e79a826a60e559e2a3",
    "fused:reviving:before:fixed":
        "fdcfd905f3335827efd5c7df31695fd9730fcb7d7e4a24f1267d261c19b0054d",
    "fused:sticky:after:factory":
        "9fbe544c06fa839d56b94dace9098621d8f9152783e7185e9490cf9a8c8aab1b",
    "fused:sticky:after:fixed":
        "ef56847601c0a8fc2df240ac2f117cfd29bbcbf6c5166837119a820881620ddf",
    "fused:sticky:before:factory":
        "cc4cbe0c23fb01f7879c6bf700e424f1f31dbe80243b0253cf977541e1dd5cb6",
    "fused:sticky:before:fixed":
        "3e2a13d0153fa04f26a84f0bd33320dbc1f1bed535d5f2c83f72dd4533ca7a8a",
    "fused:sticky:before:n=2e9":
        "9595284dcecaa3ef8de8546434e4db3b65ec43712796a8d14197214597d8c0e0",
    "fused:switching:after:factory":
        "133db4839f9e3af00912b416efe1a2e02a23e6fe10f51d801ff2fd7b9e2c8eff",
    "fused:switching:after:fixed":
        "dbdb34d472e4952dcd64161f76e4fa22732492dcc3292aceae204584637a3212",
    "fused:switching:before:factory":
        "45c300ab652b80ba49123d8c99c1888d04cc5968f3efb14d1051ea7b08f8f355",
    "fused:switching:before:fixed":
        "6477ab2391da98f6d8a0e9d554068d47163c8f5ee6cb4932fe860f6cb4ad5dd3",
    "fused:switching:before:n=2e9":
        "9595284dcecaa3ef8de8546434e4db3b65ec43712796a8d14197214597d8c0e0",
    "fused:targeted-median:after:factory":
        "e9a8c1705060319bd5c34ab794b6d09b6e4284e5d6ac53114a07ae430bb2f64a",
    "fused:targeted-median:after:fixed":
        "eef30d60db9841004c7b640f995239b36d886c92c1c9cb0e80bbda2cedece9fb",
    "fused:targeted-median:before:factory":
        "033819f1166f0249d700544e11c4bb480603d47f1860e4fa221a6bc0e1e4f10c",
    "fused:targeted-median:before:fixed":
        "76882df3f09290c4e37e6c44629d8297bb87c62207a2028cb81c0fc43a6c37ae",
    "looped:balancing:after":
        "cdbc21ceb24f38fa9e96dc04ee4d59fd1ee6bfa2d885e600e605a7139ee9cf0b",
    "looped:balancing:before":
        "df676e954bda24e123596227652977b711f3fbf51e06071e8670cd7b0de291ed",
    "looped:balancing:before:consensus":
        "d3daa94989dc95badd9d15b256d019a951fce12989c9f380765a9b5d10344d68",
    "looped:hiding:after":
        "3bb70be9086c2e6bc318af4844522879436982c7eaa9a4c4c5c2462d595c0a8b",
    "looped:hiding:before":
        "7e6053e3c8d18d5e99a23c8f9a44b9bfeed1603adfba7ae65a14e2176c721c8c",
    "looped:random:after":
        "ab7f4419c44be72c3fcd16803903306cc6c3c600f3d94bccb008398d48120bc9",
    "looped:random:before":
        "a2428d4eafe2b1694f39bbaed9e7ea0483d9db144b096c68f2e762ad11b36013",
    "looped:reviving:after":
        "09e1dac960021e8665720850709f9d37721be4bb6f6a76ce770e8a62d9d2efc3",
    "looped:reviving:before":
        "8a0e569b9632748ecc0b1857f7b5253a72f2a9776738056e6dd2322aff41de93",
    "looped:sticky:after":
        "3bb70be9086c2e6bc318af4844522879436982c7eaa9a4c4c5c2462d595c0a8b",
    "looped:sticky:before":
        "7e6053e3c8d18d5e99a23c8f9a44b9bfeed1603adfba7ae65a14e2176c721c8c",
    "looped:switching:after":
        "bfa3c517632d418ece9f2d4703818ccac699eaa8a389c92e6c2154416c907c4b",
    "looped:switching:before":
        "401af6a39fcb60b43b401d331b710e9b444ebb929d51818051702477a3c5a36b",
    "looped:targeted-median:after":
        "8b45068e96e040ebdb2e737d8cf856e8f147b3b8e8f2f4bf4c42a6a25ecc2195",
    "looped:targeted-median:before":
        "8b1e4a2d99cab47c1db8056a9fb156df7a817a84d17844d3d00c021211b48337",
}


@pytest.fixture(scope="module")
def digests():
    set_multinomial_backend("numpy")
    try:
        yield compute_digests()
    finally:
        set_multinomial_backend(None)


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_count_adversary_digest_pinned(digests, case):
    assert digests[case] == GOLDEN[case]


def test_every_case_is_pinned(digests):
    assert sorted(digests) == sorted(GOLDEN)


# ---------------------------------------------------------------------- #
# batched enforcement == the per-move rules, row by row
# ---------------------------------------------------------------------- #
def _scalar_rules(support, counts, budget, palette, src, dst, amounts):
    """The T-bounded rules applied move by move to one run."""
    out = counts.copy()
    spent = 0
    index = {int(v): i for i, v in enumerate(support)}
    for s_val, d_val, amount in zip(src, dst, amounts):
        if spent >= budget or amount <= 0:
            continue
        if d_val not in palette or s_val not in index or d_val not in index:
            continue
        si, di = index[s_val], index[d_val]
        move = min(amount, budget - spent, out[si])
        if move <= 0:
            continue
        out[si] -= move
        out[di] += move
        spent += move
    return out, spent


class _FixedProposal(Adversary):
    """Proposes the same count edits every round (one run)."""

    def __init__(self, budget, src, dst, amounts) -> None:
        super().__init__(budget=budget)
        self._proposal = CountCorruption(src_values=src, dst_values=dst,
                                         amounts=amounts)

    def propose(self, values, round_index, admissible_values, rng):
        return Corruption.empty()

    def propose_counts(self, support, counts, round_index, admissible_values, rng):
        return self._proposal


@st.composite
def _edit_blocks(draw):
    m = draw(st.integers(1, 6))
    support = np.array(sorted(draw(st.sets(st.integers(-3, 9), min_size=m,
                                           max_size=m))), dtype=np.int64)
    k = draw(st.integers(1, 5))
    e = draw(st.integers(0, 8))
    ints = lambda lo, hi, n: np.array(  # noqa: E731
        draw(st.lists(st.integers(lo, hi), min_size=n, max_size=n)), dtype=np.int64)
    counts = ints(0, 12, k * m).reshape(k, m)
    budgets = ints(0, 15, k)
    palette = np.array(draw(st.lists(st.booleans(), min_size=k * m,
                                     max_size=k * m))).reshape(k, m)
    # values off the support (-5, 12) must be dropped, like bad amounts
    src = ints(-5, 12, k * e).reshape(k, e)
    dst = ints(-5, 12, k * e).reshape(k, e)
    amounts = ints(-3, 14, k * e).reshape(k, e)
    return support, counts, budgets, palette, src, dst, amounts


class TestBatchedEnforcementProperties:
    @given(_edit_blocks())
    @settings(max_examples=300, deadline=None)
    def test_matches_scalar_rules_row_by_row(self, block):
        support, counts, budgets, palette, src, dst, amounts = block
        proposal = CountCorruption(src_values=src, dst_values=dst, amounts=amounts)
        out, spent = apply_count_edits(support, counts, budgets, palette, proposal)
        for i in range(counts.shape[0]):
            ref_out, ref_spent = _scalar_rules(
                support, counts[i], int(budgets[i]), set(support[palette[i]].tolist()),
                src[i].tolist(), dst[i].tolist(), amounts[i].tolist())
            assert out[i].tolist() == ref_out.tolist()
            assert int(spent[i]) == ref_spent
        assert np.array_equal(out.sum(axis=1), counts.sum(axis=1))   # conserved
        assert np.all(out >= 0)                                      # never negative
        assert np.all(spent <= budgets)                              # T-bound

    @given(_edit_blocks())
    @settings(max_examples=150, deadline=None)
    def test_stacked_ledgers_record_what_was_spent(self, block):
        support, counts, budgets, palette, src, dst, amounts = block
        runs = [_FixedProposal(int(budgets[i]), src[i], dst[i], amounts[i])
                for i in range(counts.shape[0])]
        group = stack_adversaries(runs)
        out = group.corrupt_counts(support, counts, 3, palette,
                                   np.random.default_rng(0))
        for i, adv in enumerate(runs):
            ref_out, ref_spent = _scalar_rules(
                support, counts[i], int(budgets[i]), set(support[palette[i]].tolist()),
                src[i].tolist(), dst[i].tolist(), amounts[i].tolist())
            assert out[i].tolist() == ref_out.tolist()
            assert adv.ledger.per_round == {3: ref_spent}
            assert adv.ledger.verify()


# ---------------------------------------------------------------------- #
# a stacked group == its runs one after another
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_stacked_group_matches_runs_one_by_one(strategy):
    """Corrupting k runs as one stacked group gives the same counts, the
    same ledgers, the same victim occupancy and leaves the generator in the
    same state as corrupting them one by one — with a palette per run and
    a different subset of runs active each round."""
    rng = np.random.default_rng(17)
    k, support = 6, np.arange(7, dtype=np.int64)
    palettes = rng.random((k, 7)) < 0.6
    palettes[:, 2] = True
    counts = np.where(palettes, rng.integers(1, 400, size=(k, 7)), 0)
    budgets = [15, 40, 0, 7, 40, 22]
    solo = [make_adversary(strategy, budget=b) for b in budgets]
    stacked_runs = [make_adversary(strategy, budget=b) for b in budgets]
    group = stack_adversaries(stacked_runs)
    solo_counts, group_counts = counts.copy(), counts.copy()
    rng_solo, rng_group = np.random.default_rng(5), np.random.default_rng(5)

    for t, rows in enumerate([np.arange(k), np.array([0, 1, 3, 4, 5]),
                              np.array([1, 4]), np.array([0, 3, 5])], start=1):
        for i in rows:
            solo_counts[i] = solo[i].corrupt_counts(support, solo_counts[i], t,
                                                    palettes[i], rng_solo)
        group_counts[rows] = group.corrupt_counts(support, group_counts[rows], t,
                                                  palettes[rows], rng_group,
                                                  rows=rows)
        assert np.array_equal(solo_counts, group_counts)
        # stand-in for a scatter: the victims move one bin up (cyclically)
        victims = group.victim_counts(support, rows)
        for j, i in enumerate(rows):
            mine = solo[i].victim_counts(support)
            if mine is None:   # untracked runs carry a zero victim row
                assert victims is None or not victims[j].any()
            else:
                assert np.array_equal(mine[0], victims[j])
                solo[i].observe_victim_scatter(support, np.roll(mine, 1, axis=1))
        if victims is not None:
            group.observe_victim_scatter(support, np.roll(victims, 1, axis=1), rows)

    assert rng_solo.integers(1 << 62) == rng_group.integers(1 << 62)
    for a, b in zip(solo, stacked_runs):
        assert a.ledger.per_round == b.ledger.per_round
