"""Pooled and serial cell execution through ``run_sweep``.

Every backend runs a cell through ``compute_cell``; ``run_sweep`` with
``max_workers=0`` is the serial path and ``max_workers=2`` the process
pool.  These tests pin that both give complete, ordered, equal reports,
and that a raising cell becomes a failure record in its own slot.
"""

from __future__ import annotations

import math

import pytest

from repro.experiments.config import ExperimentConfig, SweepConfig
from repro.experiments.runner import run_sweep


def _cell(name: str, n: int = 64, seed: int = 1, **kwargs) -> ExperimentConfig:
    defaults = dict(
        name=name,
        workload="all-distinct",
        workload_params={"n": n},
        num_runs=3,
        seed=seed,
    )
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


def _run(cells, max_workers: int):
    sweep = SweepConfig(name="parallel", description="pooled execution")
    for cell in cells:
        sweep.add(cell)
    return run_sweep(sweep, max_workers=max_workers)


class TestExecuteWorkItems:
    def test_serial_execution(self):
        out = _run([_cell("a", n=64), _cell("b", n=32)], max_workers=0).cells
        assert len(out) == 2
        assert out[0].config.name == "a"
        assert out[1].config.name == "b"
        assert out[0].convergence_fraction == 1.0
        assert out[0].n == 64

    def test_adversarial_item(self):
        cell = _cell("adv", n=128, workload="two-bins",
                     workload_params={"n": 128, "minority": 64},
                     adversary="balancing", adversary_budget=2,
                     max_rounds=400)
        [out] = _run([cell], max_workers=0).cells
        assert out.config.adversary == "balancing"
        assert out.config.adversary_budget == 2
        assert not out.extra.get("failed")
        assert out.num_runs == 3

    def test_results_order_matches_items(self):
        cells = [_cell(f"cell-{i}", n=32, seed=i) for i in range(4)]
        out = _run(cells, max_workers=0).cells
        assert [c.config.name for c in out] == [f"cell-{i}" for i in range(4)]

    def test_parallel_path_produces_same_labels(self):
        # the pool may fall back to serial in sandboxes — either way the
        # results must be complete and ordered
        cells = [_cell(f"p-{i}", n=32, seed=i) for i in range(3)]
        out = _run(cells, max_workers=2).cells
        assert [c.config.name for c in out] == ["p-0", "p-1", "p-2"]

    def test_serial_and_parallel_agree(self):
        cells = [_cell("same", n=48, seed=7)]
        serial = _run(cells, max_workers=0)
        pooled = _run(cells, max_workers=2)
        assert serial.cells[0].mean_rounds == pooled.cells[0].mean_rounds
        assert serial.cells == pooled.cells

    def test_summaries_carry_per_run_rounds(self):
        [out] = _run([_cell("r", n=32)], max_workers=0).cells
        assert len(out.rounds) == out.num_runs
        assert all(isinstance(r, float) for r in out.rounds)

    @pytest.mark.parametrize("max_workers", [0, 2])
    def test_raising_cell_becomes_error_summary(self, max_workers):
        # a poisoned cell must yield a failure record in its slot instead
        # of aborting the sweep — identically on the serial and pooled paths
        cells = [_cell("good", n=32),
                 _cell("bad", n=32, rule="no-such-rule"),
                 _cell("also-good", n=48)]
        report = _run(cells, max_workers=max_workers)
        out = report.cells
        assert [c.config.name for c in out] == ["good", "bad", "also-good"]
        error = out[1].extra["error"]
        assert out[1].extra["failed"] and "no-such-rule" in error
        assert error.startswith("KeyError")
        assert math.isinf(out[1].mean_rounds)
        assert out[0].convergence_fraction == 1.0
        assert [f["cell"] for f in report.meta["failures"]] == ["bad"]
