"""Language-conditioned behavior cloning on frozen representations.

A small MLP maps the concatenation of the frozen frame embedding, the
frozen instruction embedding, and the scalar completion level (the
proprioception analogue) to an action, trained with mean squared error on
scripted-expert demonstrations. The encoders are only ever evaluated
through their numpy paths, so no gradient can reach them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .autodiff import MlpParams, Tensor, init_mlp, mlp_apply
from .analysis import embed_frames, embed_instruction
from .encoders import Instruction
from .errors import CheckpointFormatError, EmptyInputError
from .sampling import Trajectory
from .training import (
    Checkpoint,
    make_optimizer,
    TrainConfig,
    read_array_archive,
    write_array_archive,
)
from .world import World


@dataclass(frozen=True)
class BcConfig:
    hidden: tuple[int, ...] = (256, 256)
    learning_rate: float = 1e-4
    batch_size: int = 16
    steps: int = 2000
    seed: int = 0

    def __post_init__(self):
        if self.steps < 1 or self.batch_size < 1 or self.learning_rate <= 0:
            raise EmptyInputError("need steps >= 1, batch_size >= 1, learning_rate > 0")


@dataclass
class PolicyParams:
    """The policy head plus the loss curve from its training run."""

    mlp: MlpParams
    config: BcConfig
    loss_history: np.ndarray


def featurize_demos(ckpt: Checkpoint, demos: Sequence[Trajectory]) -> tuple[np.ndarray, np.ndarray]:
    """Stack (frozen embedding, frozen instruction embedding, z) inputs and
    expert-action targets over all demo steps."""
    if len(demos) == 0:
        raise EmptyInputError("need at least one demonstration")
    inputs, targets = [], []
    for demo in demos:
        if demo.actions is None:
            raise EmptyInputError("demonstration has no actions")
        if demo.progression is None:
            raise EmptyInputError("demonstration has no progression channel")
        phi = embed_frames(ckpt, demo.observations[:-1])
        psi = embed_instruction(ckpt, demo.instruction)
        n = demo.h - 1
        inputs.append(
            np.concatenate(
                [phi, np.tile(psi, (n, 1)), demo.progression[:-1, None]], axis=1
            )
        )
        targets.append(demo.actions)
    return np.concatenate(inputs), np.concatenate(targets)


def train_bc(ckpt: Checkpoint, demos: Sequence[Trajectory], config: BcConfig) -> PolicyParams:
    """Minimize mean squared action error; the checkpoint's encoders stay frozen."""
    inputs, targets = featurize_demos(ckpt, demos)
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0xBC]))
    widths = [inputs.shape[1], *config.hidden, targets.shape[1]]
    mlp = init_mlp(widths, rng)
    optimizer = make_optimizer(
        TrainConfig(learning_rate=config.learning_rate, seed=config.seed), mlp.leaves()
    )
    n = inputs.shape[0]
    history = np.zeros(config.steps)
    for step in range(config.steps):
        idx = rng.integers(0, n, size=min(config.batch_size, n))
        pred = mlp_apply(mlp, Tensor(inputs[idx], requires_grad=False))
        err = pred - targets[idx]
        loss = (err * err).sum() * (1.0 / err.value.size)
        loss.backward()
        optimizer.step()
        history[step] = float(loss.value)
    return PolicyParams(mlp=mlp, config=config, loss_history=history)


def policy_action(policy: PolicyParams, features: np.ndarray) -> np.ndarray:
    return mlp_apply(policy.mlp, features)


def evaluate_bc(
    policy: PolicyParams,
    ckpt: Checkpoint,
    world: World,
    instruction: Instruction,
    episodes: int,
    seed: int = 0,
    horizon: Optional[int] = None,
) -> float:
    """Closed-loop success rate: render, encode (frozen), act, step."""
    if episodes < 1:
        raise EmptyInputError("need at least one episode")
    horizon = horizon or world.config.h_max
    task = world.task_for_instruction(instruction)
    psi = embed_instruction(ckpt, instruction)
    root = np.random.SeedSequence([seed, 0xBCE])
    wins = 0
    for child in root.spawn(episodes):
        rng = np.random.default_rng(child)
        state = world.sample_start(task, rng)
        for _ in range(horizon):
            obs = world.render(state, rng)
            phi = embed_frames(ckpt, obs[None])[0]
            features = np.concatenate([phi, psi, [state.z]])
            action = world.clamp_actions(policy_action(policy, features))
            state = world.step(state, action)
            world.advance_distractors(state, rng)
        wins += world.success(state, instruction)
    return wins / episodes


def evaluate_bc_all(
    policy: PolicyParams,
    ckpt: Checkpoint,
    world: World,
    episodes_per_instruction: int,
    seed: int = 0,
) -> dict:
    per_instruction = {}
    for task in range(world.config.n_tasks):
        instruction = world.instruction_for_task(task)
        per_instruction[world.instruction_name(instruction)] = evaluate_bc(
            policy, ckpt, world, instruction, episodes_per_instruction, seed=seed + task
        )
    overall = float(np.mean(list(per_instruction.values())))
    return {
        "episodes_per_instruction": episodes_per_instruction,
        "seed": seed,
        "per_instruction": per_instruction,
        "success_rate": overall,
    }


def replay_demo(world: World, demo: Trajectory, start_state=None) -> bool:
    """Drive the environment with a demo's recorded actions; sanity harness."""
    if demo.actions is None:
        raise EmptyInputError("demonstration has no actions")
    task = world.task_for_instruction(demo.instruction)
    state = start_state or world.sample_start(task, np.random.default_rng(0))
    for action in demo.actions:
        state = world.step(state, action)
    return world.success(state, demo.instruction)


# ---- persistence -----------------------------------------------------------------


def save_policy(policy: PolicyParams, path) -> None:
    meta = {
        "kind": "policy-checkpoint",
        "config": asdict(policy.config),
        "widths": policy.mlp.widths,
    }
    arrays = {}
    for i, (w, b) in enumerate(zip(policy.mlp.weights, policy.mlp.biases)):
        arrays[f"policy/w{i}"] = w.value
        arrays[f"policy/b{i}"] = b.value
    arrays["loss_history"] = policy.loss_history
    write_array_archive(path, meta, arrays)


def load_policy(path) -> PolicyParams:
    meta, arrays = read_array_archive(path, "policy-checkpoint")
    try:
        widths = [int(w) for w in meta["widths"]]
        weights = [Tensor(arrays[f"policy/w{i}"].copy()) for i in range(len(widths) - 1)]
        biases = [Tensor(arrays[f"policy/b{i}"].copy()) for i in range(len(widths) - 1)]
        cfg = dict(meta["config"])
        cfg["hidden"] = tuple(cfg["hidden"])
        return PolicyParams(
            mlp=MlpParams(widths=widths, weights=weights, biases=biases),
            config=BcConfig(**cfg),
            loss_history=arrays["loss_history"],
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise CheckpointFormatError(f"malformed policy checkpoint {path}: missing or invalid {exc}") from exc


def write_bc_report(path, report: dict) -> None:
    Path(path).write_text(json.dumps(report, sort_keys=True, indent=2) + "\n", encoding="utf-8")
