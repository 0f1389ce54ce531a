"""Tests for repro.core.consensus: stable and almost-stable detection."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.consensus import (
    AlmostStableCriterion,
    consensus_value,
    detect_almost_stable_round,
    detect_consensus_round,
    is_consensus,
)
from repro.core.metrics import minority_count
from repro.core.state import Configuration


class TestIsConsensus:
    def test_true(self):
        assert is_consensus(np.array([3, 3, 3]))

    def test_false(self):
        assert not is_consensus(np.array([3, 3, 4]))

    def test_empty_is_consensus(self):
        assert is_consensus(np.array([], dtype=np.int64))

    def test_configuration_input(self):
        assert is_consensus(Configuration.from_values([1, 1]))

    @settings(max_examples=200, deadline=None)
    @given(hnp.arrays(np.int64, st.integers(1, 64),
                      elements=st.integers(-3, 3)))
    def test_equals_zero_minority(self, values):
        # the vectorized engine's stop check at tolerance 0 relies on this
        assert is_consensus(values) == (minority_count(values) <= 0)

    def test_consensus_value(self):
        assert consensus_value(np.array([5, 5])) == 5
        assert consensus_value(np.array([5, 6])) is None
        assert consensus_value(np.array([], dtype=np.int64)) is None


class TestAlmostStableCriterion:
    def test_validation(self):
        with pytest.raises(ValueError):
            AlmostStableCriterion(tolerance=-1)
        with pytest.raises(ValueError):
            AlmostStableCriterion(window=0)

    def test_holds_within_tolerance(self):
        crit = AlmostStableCriterion(tolerance=2)
        assert crit.holds(np.array([1, 1, 1, 2, 3]), value=1)

    def test_fails_beyond_tolerance(self):
        crit = AlmostStableCriterion(tolerance=1)
        assert not crit.holds(np.array([1, 1, 1, 2, 3]), value=1)

    def test_zero_tolerance_is_exact_consensus(self):
        crit = AlmostStableCriterion(tolerance=0)
        assert crit.holds(np.array([1, 1]), value=1)
        assert not crit.holds(np.array([1, 2]), value=1)


class TestDetectConsensusRound:
    def test_detects_first_round(self):
        traj = [np.array([0, 1]), np.array([1, 1]), np.array([1, 1])]
        status = detect_consensus_round(traj)
        assert status.reached and status.round == 1 and status.value == 1

    def test_not_reached(self):
        traj = [np.array([0, 1]), np.array([1, 0])]
        status = detect_consensus_round(traj)
        assert not status.reached and status.round is None

    def test_initial_consensus_is_round_zero(self):
        status = detect_consensus_round([np.array([7, 7])])
        assert status.reached and status.round == 0 and status.value == 7

    def test_empty_trajectory(self):
        status = detect_consensus_round([])
        assert not status.reached


class TestDetectAlmostStableRound:
    def test_detects_trailing_run(self):
        traj = [
            np.array([0, 1, 0, 1]),
            np.array([1, 1, 0, 1]),
            np.array([1, 1, 1, 1]),
            np.array([1, 1, 1, 0]),  # still within tolerance 1
            np.array([1, 1, 1, 1]),
        ]
        status = detect_almost_stable_round(traj, AlmostStableCriterion(tolerance=1, window=3))
        assert status.reached
        assert status.round == 1       # from round 1 onwards, ≤1 process disagrees with 1
        assert status.value == 1

    def test_run_broken_in_middle_restarts(self):
        traj = [
            np.array([1, 1, 1, 1]),
            np.array([0, 0, 1, 1]),    # breaks the streak (2 disagree, tolerance 1)
            np.array([1, 1, 1, 1]),
            np.array([1, 1, 1, 1]),
        ]
        status = detect_almost_stable_round(traj, AlmostStableCriterion(tolerance=1, window=2))
        assert status.reached
        assert status.round == 2

    def test_window_longer_than_trailing_run(self):
        traj = [np.array([0, 1]), np.array([1, 1])]
        status = detect_almost_stable_round(traj, AlmostStableCriterion(tolerance=0, window=5))
        assert not status.reached

    def test_fails_if_final_state_not_agreeing(self):
        traj = [np.array([1, 1, 1]), np.array([0, 2, 1])]
        status = detect_almost_stable_round(traj, AlmostStableCriterion(tolerance=0, window=1))
        assert not status.reached

    def test_explicit_value_parameter(self):
        traj = [np.array([2, 2, 2, 9])] * 4
        status = detect_almost_stable_round(traj, AlmostStableCriterion(tolerance=1, window=2),
                                            value=2)
        assert status.reached and status.value == 2

    def test_empty_trajectory(self):
        status = detect_almost_stable_round([], AlmostStableCriterion())
        assert not status.reached

    def test_accepts_configurations(self):
        traj = [Configuration.from_values([1, 1]), Configuration.from_values([1, 1])]
        status = detect_almost_stable_round(traj, AlmostStableCriterion(tolerance=0, window=2))
        assert status.reached and status.round == 0
