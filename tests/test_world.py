"""Unit tests for the synthetic video-language world."""

import tracemalloc

import numpy as np
import pytest
from scipy import stats as sstats

from segnce import world as world_module
from segnce.encoders import Instruction
from segnce.errors import DatasetFormatError, VocabularyError
from segnce.world import (
    EXPERT_PACE,
    SCENE_DRIFT,
    SCENE_SIGMA,
    STEP_GAIN,
    SUCCESS_THRESHOLD,
    WALK_SIGMA,
    LatentState,
    World,
    WorldConfig,
    load_dataset,
    save_dataset,
)
from segnce.training import read_array_archive, write_array_archive

from conftest import render_one


@pytest.fixture(scope="module")
def world():
    return World(WorldConfig())


def block_draws(world, rng, tasks=None):
    """Reference draws of one lock-step block, one row per trajectory, in
    the expert's order: the tasks (unless given), the start distractors,
    frame 0's render noise, then per step the paces and one row each of
    scene drift, walk and render noise, each source drawn by a ``normal`` or
    ``uniform`` call. Every one of the ``h_max - 1`` steps is drawn; the
    expert stops at its block's last trajectory, which changes no row of an
    earlier step."""
    cfg = world.config
    width = world_module._LOCK_STEP_GROUP
    if tasks is None:
        tasks = rng.integers(0, cfg.n_tasks, width)
    scene = rng.normal(0.0, SCENE_SIGMA, (width, world.n_scene))
    distractors = np.concatenate([scene, rng.normal(0.0, 1.0, (width, world.n_walk))], axis=1)
    n_noise = cfg.d_obs if cfg.noise > 0 else 0
    first_noise = rng.normal(0.0, cfg.noise, (width, n_noise))
    scales = [SCENE_DRIFT] * world.n_scene + [WALK_SIGMA] * world.n_walk + [cfg.noise] * n_noise
    steps = [(rng.uniform(*EXPERT_PACE, width), rng.normal(0.0, scales, (width, len(scales))))
             for _ in range(1, cfg.h_max)]
    return tasks, distractors, first_noise, steps


def expert_one_frame_at_a_time(world, draws, i):
    """Reference expert: trajectory ``i`` of a block, one ``step``,
    distractor update and render per frame, from row ``i`` of the block's
    :func:`block_draws`."""
    cfg = world.config
    tasks, distractors, first_noise, steps = draws
    task = int(tasks[i])
    n_dist = world.n_scene + world.n_walk

    def frame(state, noise):
        obs = render_one(world, task, state.z, state.distractors)
        if len(noise):
            obs += noise
        return obs

    d = world.direction(task)
    state = LatentState(task=task, z=0.0, distractors=distractors[i].copy())
    observations = [frame(state, first_noise[i])]
    zs, actions = [state.z], []
    for paces, noise in steps:
        if state.z >= 1.0 and len(zs) >= cfg.h_min:
            break
        if state.z >= 1.0:
            action = np.zeros(cfg.d_act)
        else:
            pace = paces[i]
            if len(zs) == cfg.h_max - 1:
                pace = (1.0 - state.z) / STEP_GAIN
            action = world.clamp_actions(pace * d)
        state = world.step(state, action)
        state.distractors += noise[i, :n_dist]
        actions.append(action)
        zs.append(state.z)
        observations.append(frame(state, noise[i, n_dist:]))
    return np.array(observations), np.array(actions), np.array(zs)


def assert_same_trajectories(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.instruction == b.instruction
        for name in ("observations", "actions", "progression"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()


class TestInstructions:
    def test_round_trip(self, world):
        for task in range(world.config.n_tasks):
            ins = world.instruction_for_task(task)
            assert world.task_for_instruction(ins) == task

    def test_mirror_pairs_share_object(self, world):
        for pair in range(world.config.task_pairs):
            a = world.instruction_for_task(2 * pair)
            b = world.instruction_for_task(2 * pair + 1)
            assert a.obj == b.obj and a.verb != b.verb

    def test_parse_and_name(self, world):
        ins = world.parse_instruction("open door")
        assert world.instruction_name(ins) == "open door"
        assert world.task_for_instruction(ins) == 0

    def test_unknown_token_raises(self, world):
        with pytest.raises(VocabularyError):
            world.parse_instruction("open fridge")
        with pytest.raises(VocabularyError):
            world.task_for_instruction(Instruction(0, 9))  # wrong object pairing


class TestDynamics:
    def test_zero_action_keeps_z(self, world):
        state = world.sample_start(0, np.random.default_rng(0))
        out = world.step(state, np.zeros(world.config.d_act))
        assert out.z == state.z

    def test_aligned_action_twenty_steps_completes(self, world):
        state = LatentState(task=0, z=0.0, distractors=np.zeros(world.n_scene + world.n_walk))
        d = world.direction(0)
        for _ in range(20):
            state = world.step(state, d)
        assert state.z == pytest.approx(1.0)
        assert 20 * STEP_GAIN == pytest.approx(1.0)

    def test_anti_aligned_action_clamps_at_zero(self, world):
        state = LatentState(task=0, z=0.0, distractors=np.zeros(world.n_scene + world.n_walk))
        out = world.step(state, -world.direction(0))
        assert out.z == 0.0

    def test_out_of_range_action_clamped_and_counted(self):
        world = World(WorldConfig())
        state = world.sample_start(0, np.random.default_rng(0))
        before = world.action_clamps
        world.step(state, np.full(world.config.d_act, 5.0))
        assert world.action_clamps == before + 1

    def test_clamp_actions_equals_clip_bit_for_bit(self, world):
        actions = np.random.default_rng(5).normal(0.0, 2.0, size=(1000, world.config.d_act))
        actions.flat[:6] = [np.nan, np.inf, -np.inf, -0.0, 1.0, -1.0]
        assert world.clamp_actions(actions).tobytes() == np.clip(actions, -1.0, 1.0).tobytes()

    def test_mirror_direction_is_negated(self, world):
        np.testing.assert_allclose(world.direction(1), -world.direction(0))


class TestRendering:
    def test_zero_noise_render_at_z0_is_base_point(self, world):
        state = world.sample_start(3, np.random.default_rng(1))
        [obs] = world.render(state.task, [state.z], state.distractors)
        np.testing.assert_allclose(obs[: world.n_task], 0.0, atol=1e-12)
        np.testing.assert_allclose(obs[world.n_task :], state.distractors)

    def test_rendering_injective_in_z(self, world):
        # the first progression feature is recoverable by least squares and
        # strictly monotone in z for the noise-free render
        zs = np.linspace(0, 1, 21)
        distractors = np.zeros(world.n_scene + world.n_walk)
        obs = world.render_batch(0, zs, distractors)
        feats, *_ = np.linalg.lstsq(world.render_maps[0], obs[:, : world.n_task].T, rcond=None)
        assert np.all(np.diff(feats[0]) > 0)

    def test_render_batch_matches_render(self, world):
        rng = np.random.default_rng(2)
        state = world.sample_start(5, rng)
        for z in (0.0, 0.3, 1.0):
            np.testing.assert_allclose(
                world.render_batch(5, np.array([z]), state.distractors)[0],
                world.render(5, [z], state.distractors)[0],
                atol=1e-12,
            )

    def test_seeded_render_reproducible(self, world):
        state = world.sample_start(2, np.random.default_rng(3))
        noise = [np.random.default_rng(9).normal(0.0, world.config.noise, (1, world.config.d_obs)) for _ in range(2)]
        a, b = (world.render(2, [state.z], state.distractors, n) for n in noise)
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(a - noise[0], world.render(2, [state.z], state.distractors))

    def test_rows_match_per_frame_render_bit_for_bit(self, world):
        rng = np.random.default_rng(4)
        tasks = rng.integers(0, world.config.n_tasks, 200)
        zs = rng.uniform(0.0, 1.0, 200)
        distractors = rng.normal(size=(200, world.n_scene + world.n_walk))
        noise = rng.normal(0.0, world.config.noise, (200, world.config.d_obs))
        want = [render_one(world, t, z, d) + e for t, z, d, e in zip(tasks, zs, distractors, noise)]
        np.testing.assert_array_equal(world.render(tasks, zs, distractors, noise), want)


class TestGeneration:
    def test_same_seed_identical(self):
        config = WorldConfig()
        a = World(config).generate(5, seed=7)
        b = World(config).generate(5, seed=7)
        for ta, tb in zip(a, b):
            np.testing.assert_array_equal(ta.observations, tb.observations)
            np.testing.assert_array_equal(ta.actions, tb.actions)

    def test_lengths_within_configured_range(self, world):
        for traj in world.generate(50, seed=11):
            assert world.config.h_min <= traj.h <= world.config.h_max

    def test_progression_monotone_and_complete(self, world):
        for traj in world.generate(50, seed=12):
            assert np.all(np.diff(traj.progression) >= 0)
            assert traj.progression[0] == 0.0
            assert traj.progression[-1] == pytest.approx(1.0)

    def test_oracle_matched_mirror_unrelated(self, world):
        traj = world.generate(1, seed=13)[0]
        task = world.task_for_instruction(traj.instruction)
        matched = world.progression_for(task, traj.progression, traj.instruction)
        np.testing.assert_allclose(matched, traj.progression)
        assert matched[-1] == pytest.approx(1.0)
        mirror = world.progression_for(task, traj.progression, world.instruction_for_task(world.mirror_task(task)))
        np.testing.assert_allclose(mirror, 1.0 - traj.progression)
        assert mirror[-1] == pytest.approx(0.0)
        unrelated_task = (task + 2) % world.config.n_tasks
        unrelated = world.progression_for(task, traj.progression, world.instruction_for_task(unrelated_task))
        np.testing.assert_allclose(unrelated, 0.5)

    def test_success_thresholds(self, world):
        ins = world.instruction_for_task(0)
        mirror = world.instruction_for_task(1)
        d = np.zeros(world.n_scene + world.n_walk)
        assert world.success(LatentState(0, 1.0, d), ins)
        assert not world.success(LatentState(0, 0.0, d), ins)
        assert not world.success(LatentState(0, 1.0, d), mirror)
        assert world.success(LatentState(0, SUCCESS_THRESHOLD + 1e-6, d), ins)

    def test_experts_reach_success(self, world):
        for traj in world.generate(100, seed=14):
            assert traj.progression[-1] > SUCCESS_THRESHOLD

    def test_default_world_completes_and_short_horizon_does_not(self, world):
        # h_max >= 40 guarantees completion: every pace gains at least
        # 0.5 * STEP_GAIN, so z >= 0.95 before the last-chance step, whose
        # pace is then at most 1 and never clamped
        assert all(t.progression[-1] == pytest.approx(1.0, abs=1e-12) for t in world.generate(1000, seed=16))
        # at h_max = 10 the clamp caps the last-chance action short of z = 1
        short = World(WorldConfig(h_min=10, h_max=10))
        assert all(t.progression[-1] < 1.0 for t in short.generate(1000, seed=16))

    def test_lock_step_groups_bound_transient_memory(self, world, monkeypatch):
        # beyond the returned arrays, generation holds one group's step rows
        # at a time; one group of all trajectories holds them all
        count = 4 * world_module._LOCK_STEP_GROUP

        def transient_bytes():
            tracemalloc.start()
            try:
                out = world.generate(count, seed=17)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return peak - sum(a.nbytes for t in out for a in (t.observations, t.actions, t.progression))

        assert transient_bytes() < 6e6
        monkeypatch.setattr(world_module, "_LOCK_STEP_GROUP", count)
        assert transient_bytes() > 6e6

    @pytest.mark.parametrize(
        "config",
        [WorldConfig(), WorldConfig(noise=0.0), WorldConfig(h_min=6, h_max=6), WorldConfig(h_min=2, h_max=2),
         WorldConfig(task_pairs=2, d_obs=17, noise=0.3, h_min=2, h_max=60, d_act=3, seed=3)],
        ids=["default", "noise-0", "fixed-length", "last-chance-first-step", "odd-shape"],
    )
    def test_matches_one_frame_at_a_time_bit_for_bit(self, config):
        world = World(config)
        width = world_module._LOCK_STEP_GROUP
        # the last count crosses two lock-step block boundaries
        for seed, count in ((0, 12), (1, 12), (9, 2 * width + 3)):
            want = []
            children = np.random.SeedSequence([seed, 0xDA7A]).spawn(-(-count // width))
            for lo, child in zip(range(0, count, width), children):
                draws = block_draws(world, np.random.default_rng(child))
                want += [expert_one_frame_at_a_time(world, draws, i) for i in range(min(width, count - lo))]
            [child] = np.random.SeedSequence([seed, 0xDE40]).spawn(1)
            draws = block_draws(world, np.random.default_rng(child), np.arange(width) % config.n_tasks)
            want += [expert_one_frame_at_a_time(world, draws, i) for i in range(2 * config.n_tasks)]
            got = world.generate(count, seed=seed) + world.generate_demos(2, seed=seed)
            assert len(got) == len(want)
            for traj, (observations, actions, zs) in zip(got, want):
                assert traj.observations.tobytes() == observations.tobytes()
                assert traj.actions.tobytes() == actions.tobytes()
                assert traj.progression.tobytes() == zs.tobytes()

    def test_prefix_of_a_longer_run_is_the_shorter_run(self, world):
        # counts on both sides of the first and the second block boundary
        longer = world.generate(700, seed=22)
        for k in (200, 300):
            assert_same_trajectories(longer[:k], world.generate(k, seed=22))
        n_tasks = world.config.n_tasks
        longer = world.generate_demos(90, seed=22)
        for per_task in (25, 40):
            assert_same_trajectories(longer[: per_task * n_tasks], world.generate_demos(per_task, seed=22))

    def test_balanced_demos(self, world):
        demos = world.generate_demos(3, seed=15)
        tasks = [world.task_for_instruction(t.instruction) for t in demos]
        assert all(tasks.count(t) == 3 for t in range(world.config.n_tasks))


class TestWorldStatistics:
    def test_first_frame_distribution_shared_across_tasks(self, world):
        # one-way test on a fixed random projection of first frames
        demos = world.generate_demos(40, seed=16)
        rng = np.random.default_rng(0)
        proj = rng.normal(size=world.config.d_obs)
        groups = {}
        for traj in demos:
            task = world.task_for_instruction(traj.instruction)
            groups.setdefault(task, []).append(traj.observations[0] @ proj)
        stat, p = sstats.f_oneway(*groups.values())
        assert p > 0.01

    def test_distractor_dims_carry_no_task_information(self, world):
        # ridge probe on the distractor walk block predicts task at chance
        trajs = world.generate(1000, seed=17)
        x = np.stack([t.observations[t.h // 2, world.n_task + world.n_scene :] for t in trajs])
        y = np.array([world.task_for_instruction(t.instruction) for t in trajs])
        x = np.concatenate([x, np.ones((len(x), 1))], axis=1)
        onehot = np.eye(world.config.n_tasks)[y]
        n_train = 500
        coef, *_ = np.linalg.lstsq(x[:n_train], onehot[:n_train], rcond=None)
        pred = np.argmax(x[n_train:] @ coef, axis=1)
        accuracy = float(np.mean(pred == y[n_train:]))
        assert abs(accuracy - 1.0 / world.config.n_tasks) <= 0.05


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path, world):
        trajs = world.generate(10, seed=18)
        path = tmp_path / "data.bin"
        save_dataset(path, world.config, trajs)
        config, loaded = load_dataset(path)
        assert config == world.config
        assert len(loaded) == len(trajs)
        for a, b in zip(trajs, loaded):
            np.testing.assert_array_equal(a.observations, b.observations)
            np.testing.assert_array_equal(a.actions, b.actions)
            np.testing.assert_array_equal(a.progression, b.progression)
            assert a.instruction == b.instruction

    def test_save_deterministic_bytes(self, tmp_path, world):
        trajs = world.generate(3, seed=19)
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_dataset(p1, world.config, trajs)
        save_dataset(p2, world.config, trajs)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_header_raises(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_text('{"format": "something-else", "version": 1, "config": {}}\n')
        with pytest.raises(DatasetFormatError, match="bad.bin"):
            load_dataset(path)

    def test_bad_record_raises(self, tmp_path, world):
        path = tmp_path / "bad2.bin"
        save_dataset(path, world.config, world.generate(1, seed=20))
        with path.open("ab") as fh:
            fh.write(b'{"oops": 1}\n')
        with pytest.raises(DatasetFormatError, match="trailing bytes"):
            load_dataset(path)

    @pytest.mark.parametrize(
        "field", ["observations", "actions", "progression", "instruction", "lengths", "config"]
    )
    def test_bad_record_values_rejected(self, tmp_path, world, field):
        path = tmp_path / "bad3.bin"
        save_dataset(path, world.config, world.generate(2, seed=21))
        meta, arrays = read_array_archive(path, "dataset")
        if field == "instruction":
            arrays["instructions"][1] = [7, 3]  # no task of this world
        elif field == "lengths":
            arrays["lengths"][0] += 1  # lengths no longer sum to the observation rows
        elif field == "config":
            meta["config"]["bogus"] = 1
        else:
            arrays[field][1] = float("nan")
        write_array_archive(path, meta, arrays)
        match = {
            "instruction": "does not name a task",
            "lengths": "observations has shape",
            "config": "unexpected keyword argument 'bogus'",
        }.get(field, f"non-finite {field}")
        with pytest.raises(DatasetFormatError, match=match):
            load_dataset(path)
