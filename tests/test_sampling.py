"""Unit tests for segment sampling and the analytic goal-index distribution."""

import numpy as np
import pytest

from segnce.encoders import Instruction
from segnce.errors import EmptyInputError, ShapeMismatchError
from segnce.sampling import (
    Segment,
    Trajectory,
    empirical_goal_histogram,
    goal_probability,
    sample_batch,
    sample_segment,
)


def make_traj(h, instruction=Instruction(0, 8), d=3):
    obs = np.arange(h * d, dtype=float).reshape(h, d)
    return Trajectory(observations=obs, instruction=instruction)


def brute_force_goal_probability(h):
    """Independent enumeration of the raw process: start uniform over all h
    frames, goal uniform over the later frames (none if start is last)."""
    probs = np.zeros(h + 1)  # probs[t] for t = 1..h; probs[0] collects no-goal
    for start in range(1, h + 1):
        later = h - start
        if later == 0:
            probs[0] += 1.0 / h
            continue
        for goal in range(start + 1, h + 1):
            probs[goal] += (1.0 / h) * (1.0 / later)
    return probs


class TestGoalProbability:
    def test_first_frame_never_goal(self):
        assert goal_probability(4, 1) == 0.0

    def test_h4_values_match_enumeration(self):
        # brute-force oracle gives 5/24 and 11/24 for t = 3, 4 at h = 4
        probs = brute_force_goal_probability(4)
        assert probs[3] == pytest.approx(5 / 24)
        assert probs[4] == pytest.approx(11 / 24)
        assert goal_probability(4, 3) == pytest.approx(5 / 24)
        assert goal_probability(4, 4) == pytest.approx(11 / 24)

    def test_matches_enumeration_for_many_h(self):
        for h in (2, 3, 5, 9, 17):
            probs = brute_force_goal_probability(h)
            for t in range(1, h + 1):
                assert goal_probability(h, t) == pytest.approx(probs[t], abs=1e-12)

    def test_total_mass_with_no_goal_residual(self):
        for h in range(2, 51):
            total = sum(goal_probability(h, t) for t in range(1, h + 1)) + 1.0 / h
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_strictly_increasing_from_t2(self):
        for h in range(2, 51):
            vals = [goal_probability(h, t) for t in range(1, h + 1)]
            assert all(b > a for a, b in zip(vals[1:], vals[2:]))

    def test_out_of_range_raises(self):
        with pytest.raises(ShapeMismatchError):
            goal_probability(4, 5)
        with pytest.raises(EmptyInputError):
            goal_probability(1, 1)


class TestSampleSegment:
    def test_h2_forced(self):
        traj = make_traj(2)
        rng = np.random.default_rng(0)
        for _ in range(20):
            seg = sample_segment(traj, rng)
            assert (seg.start, seg.goal) == (0, 1)

    def test_h3_enumeration(self):
        traj = make_traj(3)
        rng = np.random.default_rng(1)
        counts = {}
        n = 30_000
        for _ in range(n):
            seg = sample_segment(traj, rng)
            counts[(seg.start, seg.goal)] = counts.get((seg.start, seg.goal), 0) + 1
        assert set(counts) == {(0, 1), (0, 2), (1, 2)}
        # start uniform over {0, 1}; goal uniform over the later frames
        assert counts[(0, 1)] / n == pytest.approx(0.25, abs=0.01)
        assert counts[(0, 2)] / n == pytest.approx(0.25, abs=0.01)
        assert counts[(1, 2)] / n == pytest.approx(0.5, abs=0.01)

    def test_h4_last_goal_conditional_frequency(self):
        # conditioned on a goal existing, frame 4 is drawn with probability
        # (11/24)/(3/4) = 11/18; the sampler implements the conditional law
        traj = make_traj(4)
        rng = np.random.default_rng(2)
        n = 1_000_000
        hits = sum(sample_segment(traj, rng).goal == 3 for _ in range(n))
        assert hits / n == pytest.approx(11 / 18, abs=0.005)

    def test_degenerate_trajectory_rejected(self):
        with pytest.raises(ShapeMismatchError):
            make_traj(1)

    def test_segment_invariants(self):
        traj = make_traj(10)
        rng = np.random.default_rng(3)
        for _ in range(500):
            seg = sample_segment(traj, rng)
            assert 0 <= seg.start < seg.goal <= traj.h - 1

    def test_frame_indices_even_spacing(self):
        traj = make_traj(30)
        seg = Segment(traj, 4, 24)
        np.testing.assert_array_equal(seg.frame_indices(4), [4, 9, 14, 19, 24])
        np.testing.assert_array_equal(Segment(traj, 3, 5).frame_indices(4), [3, 3, 4, 4, 5])


class TestEmpiricalHistogram:
    def test_h2_split(self):
        freqs, no_goal = empirical_goal_histogram(2, 200_000, np.random.default_rng(0))
        assert freqs[1] == pytest.approx(0.5, abs=0.005)
        assert no_goal == pytest.approx(0.5, abs=0.005)
        assert freqs[0] == 0.0

    def test_h4_matches_analytic(self):
        freqs, no_goal = empirical_goal_histogram(4, 1_000_000, np.random.default_rng(1))
        analytic = np.array([goal_probability(4, t) for t in range(1, 5)])
        assert np.max(np.abs(freqs - analytic)) < 0.003
        assert no_goal == pytest.approx(0.25, abs=0.003)

    def test_monotone_frequencies(self):
        rng = np.random.default_rng(2)
        for h in (2, 7, 23, 50):
            freqs, _ = empirical_goal_histogram(h, 200_000, rng)
            assert np.all(np.diff(freqs) >= -1e-12)

    def test_invalid_inputs(self):
        rng = np.random.default_rng(0)
        with pytest.raises(EmptyInputError):
            empirical_goal_histogram(1, 10, rng)
        with pytest.raises(EmptyInputError):
            empirical_goal_histogram(5, 0, rng)


class TestSampleBatch:
    def test_single_trajectory_dataset(self):
        traj = make_traj(5)
        batch = sample_batch([traj], 4, np.random.default_rng(0))
        assert len(batch) == 4
        assert all(s.instruction == traj.instruction for s in batch)

    def test_seed_determinism(self):
        data = [make_traj(h) for h in (5, 9, 14)]
        a = sample_batch(data, 8, np.random.default_rng(42))
        b = sample_batch(data, 8, np.random.default_rng(42))
        assert [(s.start, s.goal) for s in a] == [(s.start, s.goal) for s in b]
        assert [id(s.trajectory) for s in a] == [id(s.trajectory) for s in b]

    def test_two_distinct_instructions_give_mismatched_pair(self):
        data = [make_traj(5, Instruction(0, 8)), make_traj(5, Instruction(1, 8))]
        rng = np.random.default_rng(1)
        batch = sample_batch(data * 4, 2, rng)
        assert len(batch) == 2

    def test_errors(self):
        with pytest.raises(EmptyInputError):
            sample_batch([], 4, np.random.default_rng(0))
        with pytest.raises(EmptyInputError):
            sample_batch([make_traj(5)], 1, np.random.default_rng(0))

    def test_actions_length_validated(self):
        with pytest.raises(ShapeMismatchError):
            Trajectory(
                observations=np.zeros((5, 3)),
                instruction=Instruction(0, 8),
                actions=np.zeros((3, 2)),
            )
