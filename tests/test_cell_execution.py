"""One cell-execution path: ``compute_cell`` under every backend.

Serial, pool and shard all run ``run_cell`` through
``repro.experiments.runner.compute_cell`` (retry policy, ``cell.compute``
span keyed by the canonical cell hash, canonical failure records).  These
tests pin what that buys: the same span identity, the same failure records
and the same reports whichever backend computed a cell, plus the shared
"usable CPUs" worker default.
"""

from __future__ import annotations

import os

import pytest

from repro.experiments.config import ExperimentConfig, SweepConfig
from repro.obs import trace as obs_trace
from repro.obs.export import merge_trace
from repro.obs.trace import span_id_for
from repro.robustness import FaultPlan, FaultSpec, RetryPolicy
from repro.robustness import activate as faults_activate
from repro.robustness import deactivate as faults_deactivate
from repro.store import CachedSweepRunner, ResultStore

BACKENDS = ("serial", "pool", "shard")


@pytest.fixture(autouse=True)
def _disarm_everything():
    yield
    obs_trace.deactivate()
    faults_deactivate()
    os.environ.pop(obs_trace.ENV_VAR, None)
    os.environ.pop(obs_trace.PARENT_ENV_VAR, None)


def _cell(name: str, n: int, **kwargs) -> ExperimentConfig:
    return ExperimentConfig(name=name, workload="all-distinct",
                            workload_params={"n": n}, num_runs=2, seed=5,
                            **kwargs)


def _sweep(*cells: ExperimentConfig) -> SweepConfig:
    sweep = SweepConfig(name="cells", description="cell-execution sweep")
    for cell in cells or (_cell("n=24", 24), _cell("n=32", 32),
                          _cell("n=40", 40)):
        sweep.add(cell)
    return sweep


def _poisoned_sweep() -> SweepConfig:
    return _sweep(_cell("good", 32), _cell("bad", 32, rule="no-such-rule"),
                  _cell("also-good", 48))


def _run(backend: str, root, sweep: SweepConfig, **kwargs):
    return CachedSweepRunner(ResultStore(root), backend=backend,
                             max_workers=2, **kwargs).run(sweep)


# ---------------------------------------------------------------------- #
# cross-backend identity
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("backend", BACKENDS)
def test_cell_compute_span_id_is_the_store_key_on_every_backend(tmp_path,
                                                                backend):
    sweep = _sweep()
    store = ResultStore(tmp_path / "store")
    trace_dir = tmp_path / "obs"
    obs_trace.activate(trace_dir)
    try:
        CachedSweepRunner(store, backend=backend, max_workers=2).run(sweep)
    finally:
        obs_trace.deactivate()
    spans = merge_trace(trace_dir).spans_named("cell.compute")
    expected = {span_id_for("cell.compute", store.key_for(cell))
                for cell in sweep}
    assert {node.span_id for node in spans} == expected
    for node in spans:
        assert node.span_id == span_id_for("cell.compute", node.attrs["cell"])
        assert node.attrs["backend"] == backend


def test_failure_records_are_equal_on_every_backend(tmp_path):
    """Transient failures that exhaust the budget, and a permanent error,
    are recorded identically (cell, error, attempts, kind) by every
    backend — the pool retries inside its workers like the others."""
    policy = RetryPolicy(max_attempts=2, base_delay_s=0.001, jitter=0.0)
    always = FaultPlan(specs=[FaultSpec("worker.compute", "raise",
                                        times=10 ** 6)])
    faulted, clean = {}, {}
    for backend in BACKENDS:
        faults_activate(always)   # env handoff arms shard children too
        try:
            faulted[backend] = _run(backend, tmp_path / f"f-{backend}",
                                    _poisoned_sweep(), retry=policy)
        finally:
            faults_deactivate()
        clean[backend] = _run(backend, tmp_path / f"c-{backend}",
                              _poisoned_sweep(), retry=policy)

    injected = "InjectedFault: injected fault at seam 'worker.compute'"
    assert faulted["serial"].meta["failures"] == [
        {"cell": name, "error": injected, "attempts": 2,
         "kind": "transient-exhausted"}
        for name in ("good", "bad", "also-good")]
    [permanent] = clean["serial"].meta["failures"]
    assert permanent["cell"] == "bad" and permanent["attempts"] == 1
    assert permanent["kind"] == "permanent"
    assert permanent["error"].startswith("KeyError") \
        and "no-such-rule" in permanent["error"]
    for backend in ("pool", "shard"):
        assert faulted[backend].meta["failures"] == \
            faulted["serial"].meta["failures"], backend
        assert clean[backend].meta["failures"] == \
            clean["serial"].meta["failures"], backend
        assert clean[backend].cells == clean["serial"].cells, backend


def test_run_sweep_report_carries_no_store_meta():
    from repro.experiments.runner import run_sweep

    report = run_sweep(SweepConfig(name="empty"), max_workers=2)
    assert report.cells == [] and report.meta == {}
    report = run_sweep(_poisoned_sweep(), max_workers=0)
    assert set(report.meta) == {"failures"}


def test_run_sweep_resolves_no_kernel_and_builds_no_provenance(monkeypatch):
    """Nothing is stored by run_sweep, so nothing is spent describing it:
    no kernel resolution (it may build or load the kernel) and no
    provenance (it runs git) while tracing is off."""
    import repro.store.runner as store_runner
    from repro.experiments.runner import run_sweep

    monkeypatch.setattr(store_runner, "_kernel_id",
                        lambda: pytest.fail("kernel resolved"))
    monkeypatch.setattr(store_runner, "build_provenance",
                        lambda **kw: pytest.fail("provenance built"))
    report = run_sweep(_sweep(), max_workers=0)
    assert len(report.cells) == 3 and report.meta == {}


def test_http_backend_default_worker_count(tmp_path, monkeypatch):
    """``workers=None`` (the CLI's ``--serve``/``--coordinator`` without
    ``--workers``) sizes the fleet with recommended_workers()."""
    import repro.store.backends as backends_mod
    from repro.store import CoordinatorServer, CoordinatorStore, HttpBackend

    monkeypatch.setattr(backends_mod, "usable_cpus", lambda: 2)
    sweep = _sweep()
    baseline = _run("serial", tmp_path / "serial", sweep)
    with CoordinatorServer(tmp_path / "coord") as server:
        runner = CachedSweepRunner(
            CoordinatorStore(server.url),
            backend=HttpBackend(server.url, workers=None,
                                poll_interval=0.02))
        assert runner.run(sweep) == baseline
        assert runner.last_stats.misses == 3


# ---------------------------------------------------------------------- #
# compute_cell itself
# ---------------------------------------------------------------------- #
class TestComputeCell:
    def test_success_counts_one_attempt(self):
        from repro.experiments.runner import compute_cell, run_cell

        cell = _cell("n=32", 32)
        result, attempts = compute_cell(cell, "k")
        assert attempts == 1 and result == run_cell(cell)

    def test_transient_error_is_retried_and_counted(self):
        from repro.experiments.runner import compute_cell, run_cell

        calls = []

        def flaky(cell):
            calls.append(cell.name)
            if len(calls) < 3:
                raise OSError("flaky disk")
            return run_cell(cell)

        policy = RetryPolicy(max_attempts=4, base_delay_s=0.0, jitter=0.0)
        result, attempts = compute_cell(_cell("n=32", 32), "k", policy,
                                        run=flaky, prior_attempts=1)
        assert attempts == 4 and len(calls) == 3
        assert not result.extra.get("failed")

    def test_permanent_error_is_not_retried(self):
        from repro.experiments.runner import compute_cell

        policy = RetryPolicy(max_attempts=5, base_delay_s=0.0)
        result, attempts = compute_cell(
            _cell("bad", 32, rule="no-such-rule"), "k", policy)
        assert attempts == 1
        assert result.extra["kind"] == "permanent"
        assert result.extra["attempts"] == 1

    def test_expired_deadline_starts_no_attempt(self):
        from repro.experiments.runner import compute_cell
        from repro.robustness import Deadline

        deadline = Deadline(1e-9)
        while not deadline.expired():
            pass
        result, attempts = compute_cell(
            _cell("n=32", 32), "k", deadline=deadline,
            run=lambda cell: pytest.fail("attempt started past deadline"))
        assert attempts == 0
        assert result.extra["error"].startswith("SweepDeadlineError")
        assert result.extra["kind"] == "transient-exhausted"

    def test_deadline_after_a_failure_keeps_the_real_error(self):
        from repro.experiments.runner import compute_cell
        from repro.robustness import Deadline

        deadline = Deadline(0.05)
        policy = RetryPolicy(max_attempts=10, base_delay_s=1.0, jitter=0.0)

        def down(cell):
            raise OSError("still down")

        result, attempts = compute_cell(_cell("n=32", 32), "k", policy,
                                        deadline, run=down)
        assert attempts == 1
        assert result.extra["error"] == "OSError: still down"
        assert result.extra["attempts"] == 1


# ---------------------------------------------------------------------- #
# worker defaults
# ---------------------------------------------------------------------- #
class TestUsableCpus:
    def test_recommended_workers_honours_cpu_affinity(self, monkeypatch):
        from repro.engine.batch import usable_cpus
        from repro.store.backends import recommended_workers

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert usable_cpus() == 1
        assert recommended_workers() == 1

    def test_recommended_workers_leaves_one_cpu(self, monkeypatch):
        from repro.store.backends import recommended_workers

        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(6)), raising=False)
        assert recommended_workers() == 5
