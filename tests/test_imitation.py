"""Unit tests for behavior cloning on frozen representations."""

import numpy as np
import pytest

from segnce.analysis import embed_frames, embed_instructions
from segnce.autodiff import init_mlp, mlp_apply
from segnce.encoders import Instruction
from segnce.errors import CheckpointFormatError, EmptyInputError, TrainingDivergedError
from segnce import training
from segnce.imitation import (
    BcConfig,
    _closed_loop_successes,
    evaluate_bc_all,
    featurize_demos,
    load_policy,
    policy_action,
    save_policy,
    train_bc,
)
from segnce.objectives import ObjectiveSpec
from segnce.planning import execute_plan
from segnce.sampling import Trajectory
from segnce.training import Adam, TrainConfig, save_checkpoint, train, write_array_archive
from segnce.world import SCENE_DRIFT, WALK_SIGMA, World, WorldConfig

from conftest import reference_mlp, render_one
from test_training import ReferenceAdam, assert_owns_only_its_weights, on_both_adam_paths


@pytest.fixture(scope="module")
def world():
    return World(WorldConfig())


@pytest.fixture(scope="module")
def tiny_ckpt(world):
    dataset = world.generate(30, seed=1)
    return train(TrainConfig(objective=ObjectiveSpec(variant="t"), iterations=20, batch_size=8, seed=0), dataset)


@pytest.fixture(scope="module")
def demos(world):
    return world.generate_demos(2, seed=3)


def test_constant_action_regression(tiny_ckpt, world):
    # demos that always take one constant action: the policy converges to it
    target = np.array([0.3, -0.6])
    rng = np.random.default_rng(0)
    demos = []
    for _ in range(3):
        h = 8
        demos.append(
            Trajectory(
                observations=rng.normal(size=(h, world.config.d_obs)),
                instruction=world.instruction_for_task(0),
                actions=np.tile(target, (h - 1, 1)),
                progression=np.linspace(0, 1, h),
            )
        )
    policy = train_bc(tiny_ckpt, demos, BcConfig(steps=1500, learning_rate=1e-3, seed=0))
    assert policy.loss_history[-1] < 1e-3
    x, _ = featurize_demos(tiny_ckpt, demos[:1])
    np.testing.assert_allclose(policy_action(policy, x[0]), target, atol=0.05)


def test_encoders_bit_identical_after_training(tiny_ckpt, demos):
    before = [leaf.value.copy() for leaf in tiny_ckpt.encoders.leaves()]
    train_bc(tiny_ckpt, demos, BcConfig(steps=50, seed=0))
    for prev, leaf in zip(before, tiny_ckpt.encoders.leaves()):
        np.testing.assert_array_equal(prev, leaf.value)


def test_training_mse_drops_well_below_initial(tiny_ckpt, world):
    demos = world.generate_demos(5, seed=55)
    policy = train_bc(tiny_ckpt, demos, BcConfig(seed=0))
    assert policy.loss_history[-1] < 0.2 * policy.loss_history[0]


def test_loss_mostly_nonincreasing(tiny_ckpt, demos):
    policy = train_bc(tiny_ckpt, demos, BcConfig(steps=1000, seed=0))
    # windowed means, with a tolerance of 1% of the initial level for
    # mini-batch noise around the converged plateau
    win = policy.loss_history.reshape(20, 50).mean(axis=1)
    frac_nonincreasing = np.mean(np.diff(win) <= 0.01 * win[0])
    assert frac_nonincreasing >= 0.95


def test_train_bc_matches_per_leaf_reference_adam_bit_for_bit(tiny_ckpt, demos):
    """The loss history and final weights of ``train_bc`` equal, bit for bit,
    those of the same loop updating each leaf with the textbook Adam."""
    config = BcConfig(hidden=(64, 32), steps=60, seed=4)
    policy = train_bc(tiny_ckpt, demos, config)

    inputs, targets = featurize_demos(tiny_ckpt, demos)
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0xBC]))
    mlp = init_mlp([inputs.shape[1], *config.hidden, targets.shape[1]], rng)
    leaves = mlp.leaves()
    reference = ReferenceAdam([leaf.value for leaf in leaves], config.learning_rate)
    history = []
    for _ in range(config.steps):
        idx = rng.integers(0, len(inputs), size=min(config.batch_size, len(inputs)))
        err = mlp_apply(mlp, inputs[idx]) - targets[idx]
        loss = (err * err).sum() * (1.0 / err.value.size)
        history.append(float(loss.value))
        loss.backward()
        reference.step([leaf.grad for leaf in leaves])
        for leaf, value in zip(leaves, reference.values):
            leaf.value = value
    assert policy.loss_history.tobytes() == np.array(history).tobytes()
    for got, want in zip(policy.mlp.leaves(), leaves):
        assert got.value.tobytes() == want.value.tobytes()


def test_adam_paths_train_bc_bit_for_bit_alike(tiny_ckpt, demos):
    for batch_size in (1, 16, 64):
        config = BcConfig(batch_size=batch_size, steps=60, seed=2)
        kernel_policy, numpy_policy = on_both_adam_paths(lambda: train_bc(tiny_ckpt, demos, config))
        assert kernel_policy.loss_history.tobytes() == numpy_policy.loss_history.tobytes()
        for a, b in zip(kernel_policy.mlp.leaves(), numpy_policy.mlp.leaves()):
            assert a.value.tobytes() == b.value.tobytes()


def test_gradient_norm_only_on_steps_the_adam_kernel_does_not_verify(tiny_ckpt, demos, monkeypatch):
    """The kernel's step verifies ordinary gradients, so ``train_bc`` computes
    no norm; on the numpy passes it computes one after every step, and with
    the kernel it computes one at the step whose gradient overflows."""
    steps = []
    grad_norm = Adam.grad_norm
    monkeypatch.setattr(Adam, "grad_norm", lambda opt: steps.append(opt.t) or grad_norm(opt))
    if training._adam_kernel is not None:
        train_bc(tiny_ckpt, demos, BcConfig(steps=20, seed=2))
        assert steps == []
        with pytest.raises(TrainingDivergedError, match="gradient norm inf at step 1"):
            train_bc(tiny_ckpt, demos, BcConfig(learning_rate=1e30, steps=30, seed=5))
        assert steps == [2]
        steps.clear()
    monkeypatch.setattr(training, "_adam_kernel", None)
    train_bc(tiny_ckpt, demos, BcConfig(steps=20, seed=2))
    assert steps == list(range(1, 21))


def test_trained_policy_owns_only_its_weights(tiny_ckpt, demos, monkeypatch):
    made = []

    def recording(*args, **kwargs):
        made.append(Adam(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(training, "Adam", recording)
    policy = train_bc(tiny_ckpt, demos, BcConfig(hidden=(16,), steps=3, seed=0))
    assert_owns_only_its_weights(policy.mlp.leaves(), made[0])


def test_train_bc_matches_per_layer_composite_graph_bit_for_bit(tiny_ckpt, demos):
    """The loss history and final weights of ``train_bc`` equal, bit for bit,
    those of the same loop building the per-layer composite graph in place
    of the fused ``mlp_apply`` node, at batch sizes 1 and 16."""
    for batch_size in (1, 16):
        config = BcConfig(hidden=(64, 32), batch_size=batch_size, steps=60, seed=4)
        policy = train_bc(tiny_ckpt, demos, config)

        inputs, targets = featurize_demos(tiny_ckpt, demos)
        rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0xBC]))
        mlp = init_mlp([inputs.shape[1], *config.hidden, targets.shape[1]], rng)
        optimizer = Adam(mlp.leaves(), config.learning_rate)
        history = []
        for _ in range(config.steps):
            idx = rng.integers(0, len(inputs), size=min(config.batch_size, len(inputs)))
            err = reference_mlp(mlp, inputs[idx]) - targets[idx]
            loss = (err * err).sum() * (1.0 / err.value.size)
            history.append(float(loss.value))
            loss.backward()
            optimizer.step()
        assert policy.loss_history.tobytes() == np.array(history).tobytes()
        for got, want in zip(policy.mlp.leaves(), mlp.leaves()):
            assert got.value.tobytes() == want.value.tobytes()


def test_divergence_names_step_seed_and_learning_rate(tiny_ckpt, demos):
    with pytest.raises(TrainingDivergedError, match=r"at step 1 \(seed 5, learning_rate 1e\+300\)") as info:
        train_bc(tiny_ckpt, demos, BcConfig(learning_rate=1e300, steps=30, seed=5))
    assert info.value.iteration == 1


def test_gradient_overflow_raises_instead_of_stalling(tiny_ckpt, demos):
    # at 1e30 the loss stays finite while Adam's second moment would
    # overflow to inf and freeze the weights it belongs to
    with pytest.raises(TrainingDivergedError, match=r"gradient norm inf at step 1 \(seed 5, learning_rate 1e\+30\)"):
        train_bc(tiny_ckpt, demos, BcConfig(learning_rate=1e30, steps=30, seed=5))


def test_demo_without_actions_rejected(tiny_ckpt, world):
    bad = Trajectory(
        observations=np.zeros((5, world.config.d_obs)),
        instruction=world.instruction_for_task(0),
        progression=np.linspace(0, 1, 5),
    )
    with pytest.raises(EmptyInputError):
        train_bc(tiny_ckpt, [bad], BcConfig(steps=10))


def test_expert_replay_succeeds(world, demos):
    # a demo's recorded actions, replayed open loop from a fresh start, finish its task
    for demo in demos:
        start = world.sample_start(world.task_for_instruction(demo.instruction), np.random.default_rng(0))
        assert world.success(execute_plan(world, start, demo.actions), demo.instruction)


def test_random_actions_near_zero_success(world):
    # the no-learning floor: iid uniform actions through the same
    # closed-loop harness essentially never finish a task
    rng = np.random.default_rng(1)
    wins = 0
    episodes = 50
    for episode in range(episodes):
        task = episode % world.config.n_tasks
        state = world.sample_start(task, rng)
        for _ in range(world.config.h_max):
            state = world.step(state, rng.uniform(-1, 1, world.config.d_act))
            advance_distractors(world, state, rng)
        wins += world.success(state, world.instruction_for_task(task))
    assert wins / episodes <= 0.1


def test_evaluation_deterministic(tiny_ckpt, world, demos):
    policy = train_bc(tiny_ckpt, demos, BcConfig(steps=100, seed=0))
    ins = world.instruction_for_task(0)
    a = _closed_loop_successes(policy, tiny_ckpt, world, [ins], [4], 5)
    b = _closed_loop_successes(policy, tiny_ckpt, world, [ins], [4], 5)
    assert a == b


def advance_distractors(world, state, rng):
    """Reference per-state distractor step: scene drift, then the walk."""
    state.distractors[: world.n_scene] += rng.normal(0.0, SCENE_DRIFT, world.n_scene)
    state.distractors[world.n_scene :] += rng.normal(0.0, WALK_SIGMA, world.n_walk)


def one_episode_at_a_time(policy, ckpt, world, instruction, episodes, seed):
    """Reference closed loop: each episode runs to the end before the next
    starts, with per-state render, step and distractor update and one-row
    embedding and policy calls."""
    psi = embed_instructions(ckpt, [instruction])[0]
    finals = []
    for child in np.random.SeedSequence([seed, 0xBCE]).spawn(episodes):
        rng = np.random.default_rng(child)
        state = world.sample_start(world.task_for_instruction(instruction), rng)
        for _ in range(world.config.h_max):
            phi = embed_frames(ckpt, render_one(world, state.task, state.z, state.distractors, rng)[None])[0]
            action = world.clamp_actions(policy_action(policy, np.concatenate([phi, psi, [state.z]])))
            state = world.step(state, action)
            advance_distractors(world, state, rng)
        finals.append((world.success(state, instruction), state.z))
    return finals


def test_lock_step_matches_one_episode_at_a_time(tiny_ckpt, world, demos, monkeypatch):
    policy = train_bc(tiny_ckpt, demos, BcConfig(steps=300, seed=0))
    for world in (world, World(WorldConfig(noise=0.0))):  # with and without render noise
        for task in (0, 3, 6):
            instruction = world.instruction_for_task(task)
            want = one_episode_at_a_time(policy, tiny_ckpt, world, instruction, 6, seed=task)
            finals = []

            def recording_success(state, ins, success=world.success):
                finals.append((success(state, ins), state.z))
                return finals[-1][0]

            monkeypatch.setattr(world, "success", recording_success)
            [won] = _closed_loop_successes(policy, tiny_ckpt, world, [instruction], [task], 6)
            monkeypatch.undo()
            assert [w for w, _ in finals] == [w for w, _ in want]
            assert won == [w for w, _ in want]
            np.testing.assert_allclose([z for _, z in finals], [z for _, z in want], rtol=0, atol=1e-12)


def test_all_instructions_in_lock_step_match_one_instruction_at_a_time(tiny_ckpt, world, demos):
    policy = train_bc(tiny_ckpt, demos, BcConfig(steps=300, seed=0))
    for episodes in (1, 3):
        report = evaluate_bc_all(policy, tiny_ckpt, world, episodes, seed=7)
        want = {}
        for task in range(world.config.n_tasks):
            instruction = world.instruction_for_task(task)
            [won] = _closed_loop_successes(policy, tiny_ckpt, world, [instruction], [7 + task], episodes)
            want[world.instruction_name(instruction)] = sum(won) / episodes
        assert report["per_instruction"] == want
        assert report["success_rate"] == np.mean(list(want.values()))


def test_policy_round_trip(tmp_path, tiny_ckpt, demos):
    policy = train_bc(tiny_ckpt, demos, BcConfig(steps=20, seed=0))
    path = tmp_path / "policy.ckpt"
    save_policy(policy, path)
    loaded = load_policy(path)
    assert loaded.config == policy.config
    for a, b in zip(policy.mlp.leaves(), loaded.mlp.leaves()):
        np.testing.assert_array_equal(a.value, b.value)
    np.testing.assert_array_equal(policy.loss_history, loaded.loss_history)


@pytest.mark.parametrize("defect", ["encoder-checkpoint", "widths", "policy/w0", "widths=x", "config=x",
                                    "policy/w0=nan", "policy/w1=narrow"])
def test_malformed_policy_rejected(tmp_path, tiny_ckpt, demos, defect):
    from segnce.training import read_array_archive

    path = tmp_path / "bad.policy"
    if defect == "encoder-checkpoint":
        save_checkpoint(tiny_ckpt, path)
    else:
        save_policy(train_bc(tiny_ckpt, demos, BcConfig(steps=2, seed=0)), path)
        meta, arrays = read_array_archive(path, "policy-checkpoint")
        key, _, value = defect.partition("=")
        if value == "nan":
            arrays[key][0, 0] = np.nan
        elif value == "narrow":
            arrays[key] = arrays[key][:, :5]
        elif key in arrays:
            del arrays[key]
        elif value:
            meta[key] = value
        else:
            del meta[key]
        write_array_archive(path, meta, arrays)
    with pytest.raises(CheckpointFormatError, match="bad.policy"):
        load_policy(path)

