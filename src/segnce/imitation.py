"""Language-conditioned behavior cloning on frozen representations.

A small MLP maps the concatenation of the frozen frame embedding, the
frozen instruction embedding, and the scalar completion level (the
proprioception analogue) to an action, trained with mean squared error on
scripted-expert demonstrations. The encoders are only ever evaluated
inside ``autodiff.no_grad``, so no gradient can reach them.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict
from typing import Sequence

import numpy as np

from .autodiff import MlpParams, init_mlp, mlp_apply, mse, no_grad
from .analysis import embed_frames, embed_instructions
from .encoders import Instruction
from .errors import CheckpointFormatError, EmptyInputError, NumericalError, check_number
from .sampling import Trajectory
from .training import Checkpoint, descend, mlp_arrays, mlp_from_arrays, read_array_archive, write_array_archive
from .world import World


@dataclass(frozen=True)
class BcConfig:
    hidden: tuple[int, ...] = (256, 256)
    learning_rate: float = 1e-4
    batch_size: int = 16
    steps: int = 2000
    seed: int = 0

    def __post_init__(self):
        if self.steps < 1 or self.batch_size < 1:
            raise EmptyInputError("need steps >= 1 and batch_size >= 1")
        check_number(EmptyInputError, "learning_rate", self.learning_rate, positive=True)


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
    psi = {ins: embed_instructions(ckpt, [ins])[0] for ins in {d.instruction for d in demos}}
    for demo in demos:
        if demo.actions is None:
            raise EmptyInputError("demonstration has no actions")
        if demo.progression is None:
            raise EmptyInputError("demonstration has no progression channel")
        phi = embed_frames(ckpt, demo.observations[:-1])
        n = demo.h - 1
        inputs.append(
            np.concatenate(
                [phi, np.tile(psi[demo.instruction], (n, 1)), demo.progression[:-1, None]], axis=1
            )
        )
        targets.append(demo.actions)
    return np.concatenate(inputs), np.concatenate(targets)


def train_bc(ckpt: Checkpoint, demos: Sequence[Trajectory], config: BcConfig) -> PolicyParams:
    """Minimize mean squared action error; the checkpoint's encoders stay frozen.

    Raises :class:`TrainingDivergedError` naming the step, the seed and the
    learning rate at the first non-finite loss or gradient norm. The norm is
    only a finiteness gate, so :func:`training.descend` takes it only where
    the Adam step did not verify that no gradient entry can overflow it.
    """
    inputs, targets = featurize_demos(ckpt, demos)
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0xBC]))
    mlp = init_mlp([inputs.shape[1], *config.hidden, targets.shape[1]], rng)
    n = inputs.shape[0]

    def loss_at(step):
        idx = rng.integers(0, n, size=min(config.batch_size, n))
        return mse(mlp_apply(mlp, inputs[idx]), targets[idx])

    history, _ = descend(mlp.leaves(), config.learning_rate, config.steps, loss_at,
                         lambda step: f"step {step} (seed {config.seed}, learning_rate {config.learning_rate!r})")
    return PolicyParams(mlp=mlp, config=config, loss_history=history)


def policy_action(policy: PolicyParams, features: np.ndarray) -> np.ndarray:
    with no_grad():
        return mlp_apply(policy.mlp, features).value


def _closed_loop_successes(
    policy: PolicyParams,
    ckpt: Checkpoint,
    world: World,
    instructions: Sequence[Instruction],
    seeds: Sequence[int],
    episodes: int,
) -> list[list[bool]]:
    """Success of each of ``episodes`` closed-loop episodes per instruction,
    episode k of ``instructions[i]`` drawn from child k of ``seeds[i]``.

    Render, encode (frozen), act, step, for ``world.config.h_max`` steps:
    :meth:`World.closed_loop` advances all episodes of all instructions in
    lock step as arrays, so each step makes one embedding call and one
    policy call; every episode keeps its own generator and draw order.
    """
    if episodes < 1:
        raise EmptyInputError("need at least one episode")
    goals = [ins for ins in instructions for _ in range(episodes)]
    psi = np.repeat(np.concatenate([embed_instructions(ckpt, [ins]) for ins in instructions]), episodes, axis=0)
    children = [child for seed in seeds for child in np.random.SeedSequence([seed, 0xBCE]).spawn(episodes)]

    def act(observations, zs):
        return policy_action(policy, np.concatenate([embed_frames(ckpt, observations), psi, zs[:, None]], axis=1))

    states = world.closed_loop(
        [world.task_for_instruction(ins) for ins in goals], [np.random.default_rng(c) for c in children], act
    )
    won = [world.success(s, ins) for s, ins in zip(states, goals)]
    return [won[i : i + episodes] for i in range(0, len(won), episodes)]


def evaluate_bc_all(
    policy: PolicyParams,
    ckpt: Checkpoint,
    world: World,
    episodes_per_instruction: int,
    seed: int = 0,
) -> dict:
    """Closed-loop success rate per instruction, task t seeded ``seed + t``;
    every episode runs in one lock-step loop."""
    tasks = range(world.config.n_tasks)
    instructions = [world.instruction_for_task(task) for task in tasks]
    won = _closed_loop_successes(
        policy, ckpt, world, instructions, [seed + task for task in tasks], episodes_per_instruction
    )
    per_instruction = {
        world.instruction_name(ins): sum(w) / episodes_per_instruction for ins, w in zip(instructions, won)
    }
    overall = float(np.mean(list(per_instruction.values())))
    return {
        "episodes_per_instruction": episodes_per_instruction,
        "seed": seed,
        "per_instruction": per_instruction,
        "success_rate": overall,
    }


# ---- persistence -----------------------------------------------------------------


def save_policy(policy: PolicyParams, path) -> None:
    meta = {
        "kind": "policy-checkpoint",
        "config": asdict(policy.config),
        "widths": policy.mlp.widths,
    }
    write_array_archive(path, meta, {**mlp_arrays(policy.mlp, "policy/"), "loss_history": policy.loss_history})


def load_policy(path) -> PolicyParams:
    meta, arrays = read_array_archive(path, "policy-checkpoint")
    try:
        cfg = dict(meta["config"])
        cfg["hidden"] = tuple(cfg["hidden"])
        return PolicyParams(
            mlp=mlp_from_arrays(arrays, "policy/", [int(w) for w in meta["widths"]]),
            config=BcConfig(**cfg),
            loss_history=arrays["loss_history"],
        )
    except (KeyError, TypeError, ValueError, OverflowError, NumericalError) as exc:
        raise CheckpointFormatError(f"malformed policy checkpoint {path}: missing or invalid {exc}") from exc
