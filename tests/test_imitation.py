"""Unit tests for behavior cloning on frozen representations."""

import numpy as np
import pytest

from segnce.encoders import Instruction
from segnce.errors import CheckpointFormatError, EmptyInputError
from segnce.imitation import (
    BcConfig,
    evaluate_bc,
    featurize_demos,
    load_policy,
    policy_action,
    replay_demo,
    save_policy,
    train_bc,
)
from segnce.objectives import ObjectiveSpec
from segnce.sampling import Trajectory
from segnce.training import TrainConfig, save_checkpoint, train, write_array_archive
from segnce.world import World, WorldConfig


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


def test_demo_without_actions_rejected(tiny_ckpt, world):
    bad = Trajectory(
        observations=np.zeros((5, world.config.d_obs)),
        instruction=world.instruction_for_task(0),
        progression=np.linspace(0, 1, 5),
    )
    with pytest.raises(EmptyInputError):
        train_bc(tiny_ckpt, [bad], BcConfig(steps=10))


def test_expert_replay_succeeds(world, demos):
    for demo in demos:
        assert replay_demo(world, demo)


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
            world.advance_distractors(state, rng)
        wins += world.success(state, world.instruction_for_task(task))
    assert wins / episodes <= 0.1


def test_evaluation_deterministic(tiny_ckpt, world, demos):
    policy = train_bc(tiny_ckpt, demos, BcConfig(steps=100, seed=0))
    ins = world.instruction_for_task(0)
    a = evaluate_bc(policy, tiny_ckpt, world, ins, 5, seed=4)
    b = evaluate_bc(policy, tiny_ckpt, world, ins, 5, seed=4)
    assert a == b


def test_policy_round_trip(tmp_path, tiny_ckpt, demos):
    policy = train_bc(tiny_ckpt, demos, BcConfig(steps=20, seed=0))
    path = tmp_path / "policy.ckpt"
    save_policy(policy, path)
    loaded = load_policy(path)
    assert loaded.config == policy.config
    for a, b in zip(policy.mlp.leaves(), loaded.mlp.leaves()):
        np.testing.assert_array_equal(a.value, b.value)
    np.testing.assert_array_equal(policy.loss_history, loaded.loss_history)


@pytest.mark.parametrize("defect", ["encoder-checkpoint", "widths", "policy/w0", "widths=x", "config=x"])
def test_malformed_policy_rejected(tmp_path, tiny_ckpt, demos, defect):
    from segnce.training import read_array_archive

    path = tmp_path / "bad.policy"
    if defect == "encoder-checkpoint":
        save_checkpoint(tiny_ckpt, path)
    else:
        save_policy(train_bc(tiny_ckpt, demos, BcConfig(steps=2, seed=0)), path)
        meta, arrays = read_array_archive(path, "policy-checkpoint")
        key, _, value = defect.partition("=")
        if key in arrays:
            del arrays[key]
        elif value:
            meta[key] = value
        else:
            del meta[key]
        write_array_archive(path, meta, arrays)
    with pytest.raises(CheckpointFormatError):
        load_policy(path)

