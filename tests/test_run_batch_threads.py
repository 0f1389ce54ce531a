"""Golden bit-identity pins and contract tests for ``run_batch``'s run loop.

``run_batch`` runs looped ``vectorized`` batches on every CPU of the
process's affinity set once a run's population reaches
``THREADED_MIN_N``; below it, and for the looped ``occupancy`` engine, the
same loop runs on the calling thread alone.  Whatever the thread count, a
batch must produce exactly what one thread produces.  Each case below is
pinned by a SHA-256 digest of its convergence rounds, converged flags, every
run's final values (in run order) and, with an adversary, every run's
per-round budget ledger — for

* every value-space rule without an adversary, on both sides of the gate;
* the median rule under the balancing, sticky and random adversaries, on
  both sides of the gate, and a few other rule/adversary pairs above it;
* a few cases with ``keep_results=False`` (no final values to digest).

The golden tests run twice: on the process's CPUs as they are, and with the
affinity set reduced to one CPU (one thread, the serial order).

The contract tests pin the rest of the run loop: an exception in any run or
factory is re-raised as the serial loop raises it and leaves no thread
behind, the factories are called once per run in run order, and no thread
is started below the gate or on the occupancy engine.  A stress test runs
more threads than cores with a short GIL switch interval.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import threading
import time
from typing import Dict, List

import numpy as np
import pytest

from repro.adversary.strategies import make_adversary
from repro.core.median_rule import MedianRule
from repro.core.rules import get_rule
from repro.core.state import Configuration
from repro.engine import batch as batch_module
from repro.engine.batch import run_batch
from repro.engine.rng import spawn_rngs
from repro.experiments.workloads import uniform_random_workload

#: Population sizes on either side of the gate (checked against it below).
SMALL, LARGE = 1024, 32768
RUNS = 4
MAX_ROUNDS = 30
BUDGET = 16

VALUE_RULES = ("median", "median-k", "median-noreplace", "voter", "minimum",
               "maximum", "mean", "majority", "three-majority",
               "two-choices-majority")


def _cases() -> Dict[str, dict]:
    cases: Dict[str, dict] = {}
    for rule in VALUE_RULES:
        for n in (SMALL, LARGE):
            cases[f"{rule}:null:n={n}"] = dict(rule=rule, adversary="null", n=n)
    for adversary in ("balancing", "sticky", "random"):
        for n in (SMALL, LARGE):
            cases[f"median:{adversary}:n={n}"] = dict(
                rule="median", adversary=adversary, n=n)
    for rule, adversary in (("three-majority", "balancing"),
                            ("two-choices-majority", "sticky"),
                            ("voter", "random"),
                            ("majority", "balancing"),
                            ("median-noreplace", "sticky")):
        cases[f"{rule}:{adversary}:n={LARGE}"] = dict(
            rule=rule, adversary=adversary, n=LARGE)
    for rule, adversary in (("median", "null"), ("median", "balancing"),
                            ("three-majority", "null"), ("voter", "sticky")):
        cases[f"{rule}:{adversary}:n={LARGE}:no-results"] = dict(
            rule=rule, adversary=adversary, n=LARGE, keep_results=False)
    for seed, case in enumerate(cases.values()):
        case["seed"] = 2011 + seed
    return cases


CASES = _cases()


def case_digest(case: dict) -> str:
    """Run one case and digest everything it pins."""
    adversaries: List = []

    def adversary_factory():
        adversaries.append(make_adversary(case["adversary"], budget=BUDGET))
        return adversaries[-1]

    keep = case.get("keep_results", True)
    m = 2 if case["rule"] == "majority" else 4
    batch = run_batch(
        uniform_random_workload(case["n"], m),
        RUNS,
        rule=get_rule(case["rule"]),
        adversary_factory=None if case["adversary"] == "null" else adversary_factory,
        seed=case["seed"],
        max_rounds=MAX_ROUNDS,
        keep_results=keep,
    )
    h = hashlib.sha256()
    h.update(batch.rounds.tobytes())
    h.update(batch.converged.tobytes())
    assert len(batch.results) == (RUNS if keep else 0)
    for i, res in enumerate(batch.results):
        # results land in run order: run i's record belongs to rounds[i]
        r = res.convergence_round()
        assert (r is None and np.isnan(batch.rounds[i])) or r == batch.rounds[i]
        h.update(res.final.values.tobytes())
    for adv in adversaries:
        h.update(json.dumps(sorted(adv.ledger.per_round.items())).encode())
    return h.hexdigest()


#: Digests taken with the serial run loop that preceded the threaded one.
GOLDEN: Dict[str, str] = {
    "majority:balancing:n=32768":
        "00af64758ebc79f969608381a57aeaf729983435d2dacdbda4de71bca2c7b00d",
    "majority:null:n=1024":
        "2f9fd1855240128b686b484bceeb8530af0dda5e49d4af3863ca58fae6cc5110",
    "majority:null:n=32768":
        "456d4e02dd53d034b869d2727c30ee0c2b69af19f4d000a0f78d4c30a34f8c96",
    "maximum:null:n=1024":
        "c996b073bd59472aba15bb9141eb8a879baee443b0bdadcff0a07840ad07e43f",
    "maximum:null:n=32768":
        "dac0de3e99e8128ff304093ad043303941030bc64b7d430a87cb8df3cea29ba2",
    "mean:null:n=1024":
        "4b3933eda9aba5414fc519b7a22363fa0714da6cbeb161ae316ed075c2c9e773",
    "mean:null:n=32768":
        "9e5115c519568d31d7514b855b3aaf2548017bc13e21cbaa3df68f00518b35ec",
    "median-k:null:n=1024":
        "720cb0e1453b3d90f80d55e5b932d1d7d9aa64fcf3fc38f370dc92c0e163cc36",
    "median-k:null:n=32768":
        "51aca5ab97f1339ebe79b908865ac3300fe9affa6f4c255d40d30c160129abd2",
    "median-noreplace:null:n=1024":
        "a43ac9b0540959b0a76bb9da7b5d2d89b34464ace968b7aebc3f86a2f2559685",
    "median-noreplace:null:n=32768":
        "18ec176ffa3db698827f3f092fde87c2e7748b684b5e073cca91f30920f18db6",
    "median-noreplace:sticky:n=32768":
        "e9329c0d8dcf0630322ab00b7365ee2722b2a3e91555097f3db927d5307dc719",
    "median:balancing:n=1024":
        "108f1ecce710d243875663f0e41bd3e7698f73ff1866db43bc37ac3974200ec8",
    "median:balancing:n=32768":
        "cefd4f9f31b244ed3551803f787b84ceaa5856f53bd3049e5bd9c2c270400ef0",
    "median:balancing:n=32768:no-results":
        "93f898efaed272bd28a0400739ab172304b52ae3c727359979edccd9060a3172",
    "median:null:n=1024":
        "8d3dfb45ccb4002149ad7c482ba5d722fb5369d3028db33f7647c6bf0026fa78",
    "median:null:n=32768":
        "63a7439c04555eaf33b0ff3016b1858b505288ebc822774f92854f725f60b776",
    "median:null:n=32768:no-results":
        "828a10989df328b8030a9e8b6e439096c6f7e18ead1967464e29d854b79e86dc",
    "median:random:n=1024":
        "14febedf6986bf680c5adb67d0d8102d40e2bc7744fd13224060373a0435914c",
    "median:random:n=32768":
        "4f5a77ff6ffa5404408287974702676dfe94961ea800ec336d2554a01d0f4ad3",
    "median:sticky:n=1024":
        "422fcb37333d91fab276d52fffc7af94d68f91c214c4cc0a70d9945a3d1d8503",
    "median:sticky:n=32768":
        "3c9797a8a5be69b6fa5616340d18e9f05698a5f8084d552e5197d99cfdc09b1a",
    "minimum:null:n=1024":
        "b3e5fdef2b66ef46923d6e619b57d9289e2c435a5427a6c986683472e374d278",
    "minimum:null:n=32768":
        "f167945c1830845b2b1ea349ef6ba2f5a62ea35d0b1e3cf71f26489a7e9b1751",
    "three-majority:balancing:n=32768":
        "39c36247fc4e38aa9739f84565ae7735b6d55e4aadc9f03707aadeacda379a19",
    "three-majority:null:n=1024":
        "f682a16370e8b1864d78ecb13da3409dd70ff17f9200c1bd7d67d2dd101b2961",
    "three-majority:null:n=32768":
        "57758d9cc517e9dccb5d40dbfac5c081b946710e80e09984c06e2c4cc247f1c0",
    "three-majority:null:n=32768:no-results":
        "6adb04d476ffc8a3ee550b49514ba0da65727bafb147fb895bf594ac00395752",
    "two-choices-majority:null:n=1024":
        "59b02c0ee725697e692e8bfe77dcf74bdbab8ce440c5baae91fbde95b7b66adb",
    "two-choices-majority:null:n=32768":
        "02387036a709fd21461453a9aca548eb7c2fbac0f89dc021e9cffd30a4f35922",
    "two-choices-majority:sticky:n=32768":
        "69d30dc491b31e8935dd70ca7df814005f25b42aa6c5a44fada2b3663355044c",
    "voter:null:n=1024":
        "74c1325ec775c0378d99ff0646ef308f388c2f49e4854ce95b5de446a11e01a8",
    "voter:null:n=32768":
        "6f477c6294ac93077b6c585b549541f5d688f28b48c52cc199badfe622a5af8a",
    "voter:random:n=32768":
        "7c74a709c4014fe7988971d9136078159c1873bce0b8cee962fd39f07d50fa35",
    "voter:sticky:n=32768:no-results":
        "6d1dd2c8d0b1081b5d3f467e559e4599db942f29d1da6eb99802a3cede9ba2fd",
}


@pytest.fixture(params=["affinity", "one-cpu"])
def cpus(request, monkeypatch):
    """Run on the CPUs as they are, or on one CPU (the serial order)."""
    if request.param == "one-cpu":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
    return request.param


def test_sizes_straddle_the_gate():
    assert SMALL < batch_module.THREADED_MIN_N <= LARGE


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_digest(name, cpus):
    assert case_digest(CASES[name]) == GOLDEN[name]


# ---------------------------------------------------------------------- #
# contract tests
# ---------------------------------------------------------------------- #
def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


POISON = 10 ** 6


class PoisonedMedianRule(MedianRule):
    """The median rule, raising on any run whose first process holds POISON."""

    def apply_vectorized(self, values, samples, rng):
        if values[0] >= POISON:
            raise RuntimeError(f"poisoned run (value {int(values[0])})")
        return super().apply_vectorized(values, samples, rng)


def _poisoned_factory(n: int, poisoned: Dict[int, int]):
    """Per-run initial factory; run i starts with ``poisoned[i]`` at process 0."""
    calls = [0]

    def factory(rng):
        i = calls[0]
        calls[0] += 1
        values = rng.integers(0, 4, size=n)
        if i in poisoned:
            values[0] = poisoned[i]
        return Configuration.from_values(values)

    return factory


def _raised(fn):
    with pytest.raises(Exception) as info:
        fn()
    return type(info.value), str(info.value)


@pytest.mark.parametrize("n", [SMALL, LARGE])
def test_failing_run_raises_like_the_serial_loop(n, monkeypatch):
    baseline = threading.active_count()

    def batch():
        return run_batch(_poisoned_factory(n, {3: POISON}), 6,
                         rule=PoisonedMedianRule(), seed=5, max_rounds=20)

    threaded = _raised(batch)
    assert threading.active_count() == baseline
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert threaded == _raised(batch)
    assert threaded == (RuntimeError, f"poisoned run (value {POISON})")


def test_lowest_failing_run_wins():
    # run 2 and run 3 both fail; whichever thread fails first, run 2's
    # exception is the one re-raised, as in the serial loop
    baseline = threading.active_count()
    for _ in range(3):
        with pytest.raises(RuntimeError, match=f"value {POISON + 2}"):
            run_batch(_poisoned_factory(LARGE, {2: POISON + 2, 3: POISON + 3}),
                      6, rule=PoisonedMedianRule(), seed=6, max_rounds=20)
        assert threading.active_count() == baseline


@pytest.mark.parametrize("where", ["initial", "adversary"])
def test_failing_factory_stops_dispatch_and_raises(where):
    baseline = threading.active_count()
    calls: List[int] = []

    def initial_factory(rng):
        calls.append(len(calls))
        if where == "initial" and len(calls) == 4:
            raise KeyError("no initial state for run 3")
        return Configuration.from_values(rng.integers(0, 4, size=LARGE))

    def adversary_factory():
        if where == "adversary" and len(calls) == 4:
            raise KeyError("no adversary for run 3")
        return make_adversary("balancing", budget=BUDGET)

    with pytest.raises(KeyError, match="run 3"):
        run_batch(initial_factory, 6, adversary_factory=adversary_factory,
                  seed=7, max_rounds=20)
    assert calls == [0, 1, 2, 3]   # nothing dispatched after the failure
    assert threading.active_count() == baseline


@pytest.mark.parametrize("n", [SMALL, LARGE])
def test_factories_called_once_per_run_in_run_order(n):
    runs, seed = 12, 8
    log: List[tuple] = []

    def initial_factory(rng):
        values = rng.integers(0, 4, size=n)
        time.sleep(0.002)   # hand the GIL to any thread racing for a run
        log.append(("initial", int(values[:8].dot(np.arange(8)))))
        return Configuration.from_values(values)

    def adversary_factory():
        time.sleep(0.002)
        log.append(("adversary", len(log)))
        return make_adversary("random", budget=BUDGET)

    # one-round runs: the threads spend most of their time claiming runs
    run_batch(initial_factory, runs, adversary_factory=adversary_factory,
              seed=seed, max_rounds=1)
    expected = []
    for rng in spawn_rngs(seed, runs):
        values = rng.integers(0, 4, size=n)
        expected.append(("initial", int(values[:8].dot(np.arange(8)))))
        expected.append(("adversary", len(expected)))
    assert log == expected


def _count_thread_starts(monkeypatch) -> List[threading.Thread]:
    started: List[threading.Thread] = []
    original = threading.Thread.start

    def start(self):
        started.append(self)
        return original(self)

    monkeypatch.setattr(threading.Thread, "start", start)
    return started


def test_no_thread_below_the_gate(monkeypatch):
    started = _count_thread_starts(monkeypatch)
    run_batch(uniform_random_workload(batch_module.THREADED_MIN_N - 1, 4), 4,
              seed=9, max_rounds=20)
    assert started == []


def test_no_thread_on_the_looped_occupancy_engine(monkeypatch):
    started = _count_thread_starts(monkeypatch)
    run_batch(uniform_random_workload(LARGE, 4), 4, seed=10, max_rounds=20,
              engine="occupancy")
    assert started == []


@pytest.mark.skipif(_cpu_count() < 2, reason="needs two CPUs")
def test_threads_from_the_gate_up(monkeypatch):
    started = _count_thread_starts(monkeypatch)
    run_batch(uniform_random_workload(batch_module.THREADED_MIN_N, 4), 4,
              seed=11, max_rounds=20)
    assert len(started) == min(_cpu_count(), 4) - 1


def test_thread_count_capped_at_num_runs(monkeypatch):
    started = _count_thread_starts(monkeypatch)
    run_batch(uniform_random_workload(LARGE, 4), 1, seed=12, max_rounds=20)
    assert started == []


def test_stress_more_threads_than_cores(monkeypatch):
    # eight "CPUs" on any machine, and a GIL handed over every 10 µs: a lost
    # update to the run counter, a factory call out of order or a result
    # landing at the wrong index changes the log or the digest
    baseline = threading.active_count()
    runs, n = 24, LARGE
    log: List[int] = []

    def initial_factory(rng):
        log.append(len(log))
        return Configuration.from_values(rng.integers(0, 4, size=n))

    def batch():
        return run_batch(initial_factory, runs, seed=13, max_rounds=3,
                         keep_results=True)

    def digest(b) -> str:
        h = hashlib.sha256(b.rounds.tobytes())
        for res in b.results:
            h.update(res.final.values.tobytes())
        return h.hexdigest()

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    serial = digest(batch())
    log.clear()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)),
                        raising=False)
    started = _count_thread_starts(monkeypatch)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threaded = digest(batch())
    finally:
        sys.setswitchinterval(interval)
    assert len(started) == 7
    assert log == list(range(runs))
    assert threaded == serial
    assert threading.active_count() == baseline
