"""Zero-shot language-reward planning with a path-integral controller.

Action sequences are proposed as Gaussian noise around a nominal sequence
(zeros at first), rolled out through the world's deterministic latent
dynamics, rendered by ``World.render`` and scored with the per-step
embedding reward: the change in frame/instruction cosine similarity, by
training's ``cosine_matrix``. At gamma = 1 (the default) a return
telescopes to sim(final frame) - sim(start frame), so only the start frame
and each proposal's final frame are rendered and embedded: n + 1 rows per
iteration, not n * (horizon + 1); the instruction is embedded once per
plan, and the rollout is one compiled call where a compiler runs (see
``training._load_kernels``). Returns are normalized across the proposal
set, turned into softmax weights at the configured temperature, and the
weighted average becomes the next nominal sequence. The final nominal
sequence is executed open loop.

An oracle reward (ground-truth progression change) is available as an
upper-bound sanity arm, and a uniform random-action baseline as the floor.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict
from typing import Callable, Optional, Sequence

import numpy as np

from .analysis import embed_frames, embed_instructions
from .autodiff import cosine_matrix
from .encoders import Instruction
from .errors import EmptyInputError, NumericalError, ShapeMismatchError, check_number
from .training import Checkpoint, _roll_z_kernel
from .world import STEP_GAIN, LatentState, World

# Episodes start at a completion level uniform in [0, START_Z_JITTER).
START_Z_JITTER = 0.1


@dataclass(frozen=True)
class PlannerConfig:
    horizon: int = 50
    n_sequences: int = 64
    iterations: int = 1
    temperature: float = 10.0
    gamma: float = 1.0
    noise_scale: float = 0.3

    def __post_init__(self):
        if self.horizon < 1 or self.n_sequences < 2 or self.iterations < 1:
            raise EmptyInputError("need horizon >= 1, n_sequences >= 2, iterations >= 1")
        if not (0 < self.gamma <= 1):
            raise EmptyInputError("need gamma in (0, 1]")
        check_number(EmptyInputError, "temperature", self.temperature, positive=True)
        check_number(EmptyInputError, "noise_scale", self.noise_scale)


def _roll_z(world: World, task: int, z0: float, actions: np.ndarray) -> np.ndarray:
    """Latent completion path (n, horizon+1) for a batch of action sequences:
    one call of the compiled ``roll_z`` or, where none could be built, a
    numpy step per time step; both give ``np.clip``'s bits."""
    acts = world.clamp_actions(np.asarray(actions, dtype=np.float64))
    proj = np.ascontiguousarray(acts @ world.direction(task))  # (n, horizon)
    n, horizon = proj.shape
    zs = np.empty((n, horizon + 1))
    if _roll_z_kernel is not None:
        _roll_z_kernel(n, horizon, z0, STEP_GAIN, proj.ctypes.data, zs.ctypes.data)
        return zs
    zs[:, 0] = z0
    z = np.full(n, z0)
    for t in range(horizon):
        z = np.minimum(np.maximum(z + STEP_GAIN * proj[:, t], 0.0), 1.0)  # np.clip, bit for bit
        zs[:, t + 1] = z
    return zs


def embedding_returns(
    ckpt: Checkpoint,
    world: World,
    start_state: LatentState,
    instruction: Instruction,
    proposals: np.ndarray,
    gamma: float = 1.0,
) -> np.ndarray:
    """Embedding-reward return of each (horizon, d_act) action sequence in
    ``proposals``: the discounted sum of per-step changes in frame/instruction
    similarity along its noise-free rollout from ``start_state``.

    With gamma = 1 each return telescopes to the endpoint similarity
    difference, so one batch is rendered: the start level once, then each
    proposal's final level. With gamma < 1 every frame of every rollout is.
    """
    proposals = np.asarray(proposals, dtype=np.float64)
    if proposals.ndim != 3 or proposals.shape[2] != world.config.d_act:
        raise ShapeMismatchError(f"proposals must be (n, horizon, {world.config.d_act}), got {proposals.shape}")
    return _returns(ckpt, world, start_state, embed_instructions(ckpt, [instruction]), proposals, gamma)


def _returns(ckpt: Checkpoint, world: World, start_state: LatentState, psi: np.ndarray, proposals: np.ndarray,
             gamma: float) -> np.ndarray:
    """:func:`embedding_returns` against the (1, K) instruction embedding ``psi``."""
    zs = _roll_z(world, start_state.task, start_state.z, proposals)
    if gamma == 1.0:
        zs = np.concatenate([[start_state.z], zs[:, -1]])
    obs = world.render_batch(start_state.task, zs.reshape(-1), start_state.distractors)
    sim = cosine_matrix(embed_frames(ckpt, obs), psi).value[:, 0].reshape(zs.shape)
    if gamma == 1.0:
        return sim[1:] - sim[0]
    return np.sum(np.diff(sim, axis=1) * gamma ** np.arange(proposals.shape[1]), axis=1)


def normalize_returns(returns: np.ndarray) -> np.ndarray:
    """Standardize returns over the proposal set; std floored at 1e-8."""
    returns = np.asarray(returns, dtype=np.float64)
    return (returns - returns.mean()) / max(float(returns.std()), 1e-8)


def mppi_weights(normalized_returns: np.ndarray, temperature: float) -> np.ndarray:
    """Softmax of ``normalized_returns / temperature``; a temperature small
    enough to make that quotient overflow raises :class:`NumericalError`."""
    with np.errstate(over="ignore"):
        scaled = np.asarray(normalized_returns, dtype=np.float64) / temperature
        if not np.isfinite(scaled).all():
            raise NumericalError(f"planner temperature {temperature!r} makes the scaled returns non-finite")
        scaled = scaled - scaled.max()  # may round to -inf, whose weight is 0
    w = np.exp(scaled)
    return w / w.sum()


def weighted_average(proposals: np.ndarray, normalized_returns: np.ndarray, temperature: float) -> np.ndarray:
    """Softmax-weighted average of proposal sequences (a convex combination)."""
    w = mppi_weights(normalized_returns, temperature)
    return np.tensordot(w, proposals, axes=(0, 0))


ReturnsFn = Callable[[np.ndarray], np.ndarray]


def _mppi(returns_fn: ReturnsFn, config: PlannerConfig, d_act: int, rng: np.random.Generator) -> np.ndarray:
    nominal = np.zeros((config.horizon, d_act))
    for _ in range(config.iterations):
        noise = rng.normal(0.0, config.noise_scale, (config.n_sequences, config.horizon, d_act))
        proposals = nominal[None] + noise
        returns = returns_fn(proposals)
        nominal = weighted_average(proposals, normalize_returns(returns), config.temperature)
    return nominal


def plan(
    ckpt: Checkpoint,
    world: World,
    start_state: LatentState,
    instruction: Instruction,
    config: PlannerConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """Optimize an action sequence against the embedding reward; the
    instruction is embedded once, for every iteration."""
    psi = embed_instructions(ckpt, [instruction])

    def returns_fn(proposals: np.ndarray) -> np.ndarray:
        return _returns(ckpt, world, start_state, psi, proposals, config.gamma)

    return _mppi(returns_fn, config, world.config.d_act, rng)


def plan_with_oracle(
    world: World,
    start_state: LatentState,
    instruction: Instruction,
    config: PlannerConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """Same controller, but scored with ground-truth progression changes."""
    world.task_for_instruction(instruction)  # validates the instruction
    gammas = config.gamma ** np.arange(config.horizon)

    def returns_fn(proposals: np.ndarray) -> np.ndarray:
        zs = _roll_z(world, start_state.task, start_state.z, proposals)
        prog = np.asarray(world.progression_for(start_state.task, zs, instruction))
        return np.sum(np.diff(prog, axis=1) * gammas, axis=1)

    return _mppi(returns_fn, config, world.config.d_act, rng)


def execute_plan(world: World, start_state: LatentState, actions: np.ndarray) -> LatentState:
    state = start_state
    for action in actions:
        state = world.step(state, action)
    return state


def evaluate_planner(
    ckpt: Optional[Checkpoint],
    world: World,
    instructions: Sequence[Instruction],
    episodes: int,
    config: PlannerConfig,
    seed: int = 0,
    reward: str = "embedding",
) -> dict:
    """Open-loop planning success rates, instructions assigned round-robin,
    each episode starting at a completion level drawn from [0, START_Z_JITTER).
    An instruction that gets no episode reports a rate of None (JSON null).

    ``reward`` selects the scoring arm: "embedding" (needs a checkpoint),
    "oracle" (ground truth), or "random" (no planning, uniform actions).
    """
    if episodes < 1 or len(instructions) == 0:
        raise EmptyInputError("need at least one episode and one instruction")
    if reward not in ("embedding", "oracle", "random"):
        raise EmptyInputError(f"unknown reward arm {reward!r}")
    if reward == "embedding" and ckpt is None:
        raise EmptyInputError("embedding reward needs a checkpoint")
    root = np.random.SeedSequence([seed, 0x9147])
    successes = {world.instruction_name(ins): [] for ins in instructions}
    for episode, child in enumerate(root.spawn(episodes)):
        rng = np.random.default_rng(child)
        instruction = instructions[episode % len(instructions)]
        task = world.task_for_instruction(instruction)
        start = world.sample_start(task, rng, z_jitter=START_Z_JITTER)
        if reward == "random":
            actions = rng.uniform(-1.0, 1.0, (config.horizon, world.config.d_act))
        elif reward == "oracle":
            actions = plan_with_oracle(world, start, instruction, config, rng)
        else:
            actions = plan(ckpt, world, start, instruction, config, rng)
        final = execute_plan(world, start, actions)
        successes[world.instruction_name(instruction)].append(world.success(final, instruction))
    per_instruction = {name: (float(np.mean(vals)) if vals else None) for name, vals in successes.items()}
    overall = float(np.mean([s for vals in successes.values() for s in vals]))
    return {
        "reward": reward,
        "episodes": episodes,
        "seed": seed,
        "config": asdict(config),
        "per_instruction": per_instruction,
        "success_rate": overall,
    }
