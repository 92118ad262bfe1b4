"""Unit tests for segment sampling and the analytic goal-index distribution."""

import numpy as np
import pytest

from segnce.encoders import Instruction
from segnce.errors import EmptyInputError, ShapeMismatchError
from segnce.sampling import (
    Trajectory,
    empirical_goal_histogram,
    frame_positions,
    goal_probability,
    sample_batch,
)
from segnce.world import World, WorldConfig

from conftest import per_segment_frame_indices, per_slot_sample_batch


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
    """The per-row segment law of ``sample_batch`` and the ``frame_positions`` rule."""

    def test_h2_forced(self):
        rows = sample_batch([2], 20, np.random.default_rng(0))
        assert [(start, goal) for _, start, goal in rows.tolist()] == [(0, 1)] * 20

    def test_h3_enumeration(self):
        n = 30_000
        rows = sample_batch([3], n, np.random.default_rng(1))
        counts = {}
        for _, start, goal in rows.tolist():
            counts[(start, goal)] = counts.get((start, goal), 0) + 1
        assert set(counts) == {(0, 1), (0, 2), (1, 2)}
        # start uniform over {0, 1}; goal uniform over the later frames
        assert counts[(0, 1)] / n == pytest.approx(0.25, abs=0.01)
        assert counts[(0, 2)] / n == pytest.approx(0.25, abs=0.01)
        assert counts[(1, 2)] / n == pytest.approx(0.5, abs=0.01)

    def test_h4_last_goal_conditional_frequency(self):
        # conditioned on a goal existing, frame 4 is drawn with probability
        # (11/24)/(3/4) = 11/18; the sampler implements the conditional law
        rng = np.random.default_rng(2)
        n, chunk = 1_000_000, 10_000
        hits = sum(int((sample_batch([4], chunk, rng)[:, 2] == 3).sum()) for _ in range(n // chunk))
        assert hits / n == pytest.approx(11 / 18, abs=0.005)

    def test_degenerate_trajectory_rejected(self):
        with pytest.raises(ShapeMismatchError):
            make_traj(1)
        with pytest.raises(EmptyInputError):
            sample_batch([5, 1], 4, np.random.default_rng(0))

    def test_segment_invariants(self):
        rows = sample_batch([10], 500, np.random.default_rng(3))
        assert np.all(rows[:, 0] == 0)
        assert np.all((0 <= rows[:, 1]) & (rows[:, 1] < rows[:, 2]) & (rows[:, 2] <= 9))

    def test_frame_indices_even_spacing(self):
        np.testing.assert_array_equal(frame_positions([4, 3], [24, 5], 4), [[4, 9, 14, 19, 24], [3, 3, 4, 4, 5]])
        np.testing.assert_array_equal(frame_positions([4], [24], 1), [[4, 24]])


class TestStreamIdentity:
    """``sample_batch`` and ``frame_positions`` reproduce the per-segment
    reference draw for draw, so training's loss stream stays the same."""

    @pytest.mark.parametrize("config", [WorldConfig(), WorldConfig(h_min=2, h_max=2), WorldConfig(h_min=2, h_max=4)])
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_rows_equal_per_slot_reference(self, config, seed):
        lengths = np.array([t.h for t in World(config).generate(25, seed=seed)])
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for batch_size in (2, 17, 64):
            rows = sample_batch(lengths, batch_size, rng)
            assert rows.dtype == np.int64 and rows.shape == (batch_size, 3)
            assert rows.tolist() == [list(r) for r in per_slot_sample_batch(lengths, batch_size, ref_rng)]
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_positions_equal_per_segment_reference(self):
        rng = np.random.default_rng(4)
        rows = sample_batch(rng.integers(2, 40, size=30), 200, rng)
        for k in (1, 4, 8):
            want = [per_segment_frame_indices(start, goal, k) for _, start, goal in rows.tolist()]
            assert frame_positions(rows[:, 1], rows[:, 2], k).tolist() == want


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
        batch = sample_batch([5], 4, np.random.default_rng(0))
        assert len(batch) == 4
        assert np.all(batch[:, 0] == 0)

    def test_seed_determinism(self):
        lengths = [5, 9, 14]
        a = sample_batch(lengths, 8, np.random.default_rng(42))
        b = sample_batch(lengths, 8, np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)

    def test_two_distinct_instructions_give_mismatched_pair(self):
        batch = sample_batch([5] * 8, 2, np.random.default_rng(1))
        assert len(batch) == 2

    def test_errors(self):
        with pytest.raises(EmptyInputError):
            sample_batch([], 4, np.random.default_rng(0))
        with pytest.raises(EmptyInputError):
            sample_batch([5], 1, np.random.default_rng(0))

    def test_actions_length_validated(self):
        with pytest.raises(ShapeMismatchError):
            Trajectory(
                observations=np.zeros((5, 3)),
                instruction=Instruction(0, 8),
                actions=np.zeros((3, 2)),
            )
