"""Unit tests for reward curves, heatmaps, and first-frame statistics."""

import numpy as np
import pytest

from segnce.analysis import (
    HeatmapGrid,
    first_image_similarity_stats,
    normalize_curve,
    random_frame_pair_similarity,
    reward_curve,
    embed_frames,
    embed_instructions,
    reward_heatmap,
    write_curve_csv,
    write_heatmap_csv,
)
from segnce.autodiff import cosine_similarity
from segnce.errors import EmptyInputError, ShapeMismatchError
from segnce.objectives import (
    ObjectiveSpec,
    multiframe_transition_reward,
    segment_logits,
    segment_reward_potential,
    segment_reward_transition,
)
from segnce.sampling import Segment, frame_positions
from segnce.training import Checkpoint, TrainConfig, train
from segnce.world import World, WorldConfig


@pytest.fixture(scope="module")
def world():
    return World(WorldConfig())


@pytest.fixture(scope="module")
def dataset(world):
    return world.generate(30, seed=1)


@pytest.fixture(scope="module")
def tiny_ckpt(dataset):
    config = TrainConfig(objective=ObjectiveSpec(variant="t"), iterations=20, batch_size=8, seed=0)
    return train(config, dataset)


def zeroed(ckpt):
    import copy

    out = copy.deepcopy(ckpt)
    for leaf in out.encoders.leaves():
        leaf.value[...] = 0.0
    return out


class TestNormalization:
    def test_documented_example(self):
        np.testing.assert_allclose(
            normalize_curve(np.array([0.1, 0.2, 0.4])), [0.0, 1.0 / 3.0, 1.0]
        )

    def test_constant_curve_convention(self):
        np.testing.assert_array_equal(normalize_curve(np.full(5, 0.3)), np.full(5, 0.5))

    def test_range_spans_unit_interval(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            curve = normalize_curve(rng.normal(size=17))
            assert curve.min() == 0.0 and curve.max() == 1.0


class TestRewardCurve:
    def test_dimensions_and_normalization(self, tiny_ckpt, dataset):
        traj = dataset[0]
        curve = reward_curve(tiny_ckpt, traj, traj.instruction)
        assert curve.raw.shape == (traj.h,)
        assert np.all((curve.normalized >= 0) & (curve.normalized <= 1))
        assert np.all(np.abs(curve.raw) <= 1 + 1e-12)

    def test_dimension_mismatch_raises(self, tiny_ckpt, world):
        bad = world.generate(1, seed=2)[0]
        bad.observations = bad.observations[:, :-1]
        with pytest.raises(ShapeMismatchError):
            reward_curve(tiny_ckpt, bad, bad.instruction)

    def test_pure_function_of_checkpoint(self, tiny_ckpt, dataset):
        traj = dataset[1]
        a = reward_curve(tiny_ckpt, traj, traj.instruction)
        b = reward_curve(tiny_ckpt, traj, traj.instruction)
        np.testing.assert_array_equal(a.raw, b.raw)

    def test_raw_is_the_frame_align_segment_reward(self, tiny_ckpt, dataset):
        """The curve scores frames with training's scorer, bit for bit."""
        traj = dataset[2]
        phi = embed_frames(tiny_ckpt, traj.observations)
        psi = embed_instructions(tiny_ckpt, [traj.instruction])
        spec = ObjectiveSpec("frame-align", embed_dim=tiny_ckpt.objective.embed_dim)
        np.testing.assert_array_equal(reward_curve(tiny_ckpt, traj, traj.instruction).raw,
                                      segment_logits(spec, phi, psi).value[:, 0])


class TestHeatmap:
    def test_zero_checkpoint_all_cells_zero(self, tiny_ckpt, dataset, world):
        segments = [Segment(dataset[i], 0, dataset[i].h - 1) for i in range(4)]
        grid = reward_heatmap(zeroed(tiny_ckpt), segments, world.instructions())
        np.testing.assert_allclose(grid.values, 0.0, atol=1e-12)

    def test_transition_cells_within_cosine_range(self, tiny_ckpt, dataset, world):
        segments = [Segment(dataset[i], 0, dataset[i].h - 1) for i in range(6)]
        grid = reward_heatmap(tiny_ckpt, segments, world.instructions())
        assert grid.values.shape == (6, world.config.n_tasks)
        assert np.all(np.abs(grid.values) <= 1 + 1e-12)

    def test_potential_cells_within_range(self, dataset, world):
        config = TrainConfig(objective=ObjectiveSpec(variant="p"), iterations=10, batch_size=8, seed=0)
        ckpt_p = train(config, dataset)
        segments = [Segment(dataset[0], 0, dataset[0].h - 1)]
        grid = reward_heatmap(ckpt_p, segments, world.instructions())
        assert np.all(np.abs(grid.values) <= 2 + 1e-12)

    def test_reproducible(self, tiny_ckpt, dataset, world):
        segments = [Segment(dataset[0], 2, 9)]
        a = reward_heatmap(tiny_ckpt, segments, world.instructions())
        b = reward_heatmap(tiny_ckpt, segments, world.instructions())
        np.testing.assert_array_equal(a.values, b.values)

    def test_empty_inputs_rejected(self, tiny_ckpt, world):
        with pytest.raises(EmptyInputError):
            reward_heatmap(tiny_ckpt, [], world.instructions())

    def test_labels_of_the_wrong_length_rejected(self, tiny_ckpt, dataset, world):
        """A label list shorter or longer than its axis is refused, not
        silently cut short by the CSV writer's ``zip``."""
        segments = [Segment(dataset[0], 0, 4), Segment(dataset[1], 0, 4)]
        instructions = world.instructions()
        with pytest.raises(ShapeMismatchError, match="1 row labels for 2 rows"):
            reward_heatmap(tiny_ckpt, segments, instructions, row_labels=["only one"])
        with pytest.raises(ShapeMismatchError, match="column labels"):
            reward_heatmap(tiny_ckpt, segments, instructions, col_labels=["x"] * (len(instructions) + 1))
        grid = reward_heatmap(tiny_ckpt, segments, instructions, row_labels=["a", "b"])
        assert grid.row_labels == ["a", "b"]

    @pytest.mark.parametrize("variant", ["p", "t", "t4", "t8", "frame-align"])
    def test_cells_match_reference_rewards(self, tiny_ckpt, dataset, world, variant):
        import copy

        ckpt = copy.deepcopy(tiny_ckpt)
        ckpt.objective = ObjectiveSpec(variant=variant)
        segments = [Segment(dataset[0], 1, 7), Segment(dataset[1], 0, 2), Segment(dataset[2], 3, dataset[2].h - 1)]
        grid = reward_heatmap(ckpt, segments, world.instructions())
        for row, seg in zip(grid.values, segments):
            def phi(t):
                return embed_frames(ckpt, seg.trajectory.observations[t][None])[0]

            for value, ins in zip(row, world.instructions()):
                psi = embed_instructions(ckpt, [ins])[0]
                if variant == "p":
                    ref = segment_reward_potential(phi(seg.start), phi(seg.goal), psi)
                elif variant == "t":
                    ref = segment_reward_transition(phi(seg.start), phi(seg.goal), psi)
                elif variant == "frame-align":
                    ref = cosine_similarity(phi(seg.goal), psi)
                else:
                    hops = ckpt.objective.hops
                    positions = frame_positions([seg.start], [seg.goal], hops)[0]
                    ref = multiframe_transition_reward([phi(t) for t in positions], psi, hops)
                assert value == pytest.approx(ref, abs=1e-12)


class TestFirstImageStats:
    def test_identical_first_frames_pairwise_one(self, tiny_ckpt, world, dataset):
        import copy

        clones = [copy.deepcopy(dataset[0]) for _ in range(5)]
        for c in clones:
            c.observations = dataset[0].observations.copy()
        stats = first_image_similarity_stats(tiny_ckpt, clones, world.instructions())
        assert stats["first_image_pairwise_mean"] == pytest.approx(1.0, abs=1e-9)

    def test_stats_fields_and_sampling_cap(self, tiny_ckpt, world, dataset):
        stats = first_image_similarity_stats(
            tiny_ckpt, dataset, world.instructions(), rng=np.random.default_rng(0), max_trajectories=10
        )
        assert stats["n_trajectories"] == 10
        assert -1 <= stats["first_image_pairwise_mean"] <= 1
        assert -1 <= stats["first_image_to_mean_instruction"] <= 1

    def test_random_pair_baseline_bounded(self, tiny_ckpt, dataset):
        val = random_frame_pair_similarity(tiny_ckpt, dataset, np.random.default_rng(0), n_pairs=200)
        assert -1 <= val <= 1

    def test_needs_two_trajectories(self, tiny_ckpt, world, dataset):
        with pytest.raises(EmptyInputError):
            first_image_similarity_stats(tiny_ckpt, dataset[:1], world.instructions())


class TestExports:
    def test_curve_csv_round_trip_values(self, tmp_path, tiny_ckpt, dataset):
        traj = dataset[0]
        curve = reward_curve(tiny_ckpt, traj, traj.instruction)
        path = tmp_path / "curve.csv"
        write_curve_csv(path, curve)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "frame,raw,normalized"
        assert len(lines) == traj.h + 1
        first = lines[1].split(",")
        assert float(first[1]) == curve.raw[0]

    def test_heatmap_csv_layout(self, tmp_path):
        grid = HeatmapGrid(values=np.array([[1.0, -0.5]]), row_labels=["r0"], col_labels=["c0", "c1"])
        path = tmp_path / "grid.csv"
        write_heatmap_csv(path, grid)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "segment,c0,c1"
        assert lines[1].startswith("r0,")

    def test_stats_json(self, tmp_path, tiny_ckpt, world, dataset):
        import json

        from segnce.cli import _write_json

        stats = first_image_similarity_stats(tiny_ckpt, dataset, world.instructions())
        path = tmp_path / "stats.json"
        _write_json(path, stats)
        assert json.loads(path.read_text()) == stats
