"""A procedural video-language world with ground-truth task progression.

Tasks come in mirror pairs ("open door" / "close door"). Each pair owns a
random linear rendering map applied to the progression features
(s, s^2, sin 2*pi*s); the mirror task renders with a negated argument
s = -z, so both halves of a pair start from the same all-zero feature point
and move in opposite directions. On top of the task signal, observations
carry a per-trajectory scene offset with slow drift, a block of random-walk
distractor dimensions, and per-frame Gaussian noise; none of these carry
task information.

A scripted expert advances the completion level z from 0 towards 1 with
random per-step increments and records its actions, which makes every
generated trajectory a replayable demonstration. At its last chance it asks
for the pace that finishes, but the action clamp caps that pace. Every
trajectory is certain to reach z = 1 when h_max >= 40 (the default): each
earlier step gains at least 0.5 * STEP_GAIN, so z >= 0.95 before the last
chance, whose pace is then at most 1 and never clamped. Shorter horizons can
end below 1.

Generation draws its randomness per block of 256 trajectories: one generator
per block, and every random quantity one array with a row per trajectory. A
trajectory depends only on its block's generator and its row, so the first k
trajectories of a larger dataset are the k-trajectory dataset of the same
seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict
from typing import Callable, Optional, Sequence

import numpy as np

from .encoders import Instruction
from .errors import DatasetFormatError, EmptyInputError, VocabularyError, check_number
from .sampling import StackedDataset, Trajectory
from .training import read_array_archive, write_array_archive

# Step gain: one fully aligned unit action advances z by this much.
STEP_GAIN = 0.05
# Expert per-step increment is uniform in [0.5, 1.5] times STEP_GAIN.
EXPERT_PACE = (0.5, 1.5)
# Scale of the per-trajectory scene offset (task-irrelevant appearance).
SCENE_SIGMA = 3.0
# Per-step drift of the scene offset; keeps it from being perfectly static
# so displacement-based objectives see (and learn to ignore) scene content.
SCENE_DRIFT = 0.15
# Per-step standard deviation of the distractor random walk.
WALK_SIGMA = 0.4
# Fraction of observation dimensions given to each task-irrelevant block
# (scene offset and distractor walk); the rest carry the task rendering.
DISTRACTOR_FRACTION = 0.25
# The squared-progression feature is shared between mirror tasks; its
# rendering weight is tempered so mirrored motions stay distinguishable.
EVEN_CHANNEL_SCALE = 0.35
# The expert runs blocks of this many trajectories in lock step, one
# generator per block. A block shares each step's array work among enough
# rows to make it cheap, while its per-step rows and compact arrays stay
# small: one lock step over all 4000 trajectories of a large dataset peaked
# at 218 MB RSS, not 188 MB. The block size is part of the data layout:
# every draw has one row per slot of the block, so changing it re-bases
# every dataset and demo set.
_LOCK_STEP_GROUP = 256
# Progression level above which an instruction counts as accomplished.
SUCCESS_THRESHOLD = 0.9

VERB_NAMES = ("open", "close", "push", "pull", "lift", "lower", "turn-on", "turn-off")
OBJECT_NAMES = ("door", "drawer", "box", "lamp")


@dataclass(frozen=True)
class WorldConfig:
    task_pairs: int = 4
    d_obs: int = 32
    noise: float = 0.05
    h_min: int = 20
    h_max: int = 40
    d_act: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.task_pairs < 1 or self.d_obs < 4 or self.d_act < 1:
            raise EmptyInputError("world dimensions must be positive")
        if not (2 <= self.h_min <= self.h_max):
            raise EmptyInputError("need 2 <= h_min <= h_max")
        check_number(EmptyInputError, "noise", self.noise)
        if self.task_pairs > len(OBJECT_NAMES):
            raise VocabularyError(f"at most {len(OBJECT_NAMES)} task pairs are nameable")

    @property
    def n_tasks(self) -> int:
        return 2 * self.task_pairs

    @property
    def vocab_size(self) -> int:
        # verbs occupy ids 0..2P-1, objects 2P..3P-1
        return 3 * self.task_pairs


@dataclass
class LatentState:
    """Ground-truth state: task id, completion level z, task-irrelevant latent."""

    task: int
    z: float
    distractors: np.ndarray  # scene offset block + walk block


class World:
    """Owns the rendering maps, task directions, and dynamics for one config.

    The map and direction draws depend only on ``config.seed``, so datasets
    generated with different data seeds share the same underlying tasks.
    """

    def __init__(self, config: WorldConfig):
        self.config = config
        rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0x57A7]))
        # observation layout: [task rendering | scene offset | distractor walk]
        self.n_walk = max(1, int(config.d_obs * DISTRACTOR_FRACTION))
        self.n_scene = max(1, int(config.d_obs * DISTRACTOR_FRACTION))
        self.n_task = config.d_obs - self.n_scene - self.n_walk
        # one rendering map per pair, shared by the pair's two tasks
        self.render_maps = rng.normal(0.0, 1.0, (config.task_pairs, self.n_task, 3)) / np.sqrt(3.0)
        self.render_maps[:, :, 1] *= EVEN_CHANNEL_SCALE
        dirs = rng.normal(0.0, 1.0, (config.task_pairs, config.d_act))
        self.pair_directions = dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
        self.action_clamps = 0  # incremented whenever step() has to clamp an action

    # ---- instructions ---------------------------------------------------------

    def instruction_for_task(self, task: int) -> Instruction:
        if not (0 <= task < self.config.n_tasks):
            raise VocabularyError(f"task {task} outside 0..{self.config.n_tasks - 1}")
        return Instruction(verb=task, obj=2 * self.config.task_pairs + task // 2)

    def task_for_instruction(self, instruction: Instruction) -> int:
        task = instruction.verb
        if not (0 <= task < self.config.n_tasks):
            raise VocabularyError(f"unknown verb token {instruction.verb}")
        if instruction.obj != 2 * self.config.task_pairs + task // 2:
            raise VocabularyError(
                f"instruction {instruction} does not name a task in this world"
            )
        return task

    def mirror_task(self, task: int) -> int:
        return task ^ 1

    def instructions(self) -> list[Instruction]:
        return [self.instruction_for_task(t) for t in range(self.config.n_tasks)]

    def instruction_name(self, instruction: Instruction) -> str:
        verb = VERB_NAMES[instruction.verb]
        obj = OBJECT_NAMES[instruction.obj - 2 * self.config.task_pairs]
        return f"{verb} {obj}"

    def parse_instruction(self, text: str) -> Instruction:
        parts = text.strip().split()
        if len(parts) != 2:
            raise VocabularyError(f"instruction must be '<verb> <object>', got {text!r}")
        verb_txt, obj_txt = parts
        try:
            verb = VERB_NAMES.index(verb_txt)
            obj = OBJECT_NAMES.index(obj_txt)
        except ValueError:
            raise VocabularyError(f"unknown instruction token in {text!r}") from None
        instruction = Instruction(verb=verb, obj=2 * self.config.task_pairs + obj)
        self.task_for_instruction(instruction)  # validates the pairing
        return instruction

    # ---- dynamics and rendering ----------------------------------------------

    def direction(self, task: int) -> np.ndarray:
        d = self.pair_directions[task // 2]
        return d if task % 2 == 0 else -d

    def clamp_actions(self, actions: np.ndarray) -> np.ndarray:
        """``np.clip`` to [-1, 1] bit for bit, without its Python wrapper."""
        return np.minimum(np.maximum(actions, -1.0), 1.0)

    def step(self, state: LatentState, action: np.ndarray) -> LatentState:
        """Deterministic latent transition; out-of-range actions are clamped
        (and counted) rather than rejected. Distractors do not move here."""
        action = np.asarray(action, dtype=np.float64)
        clamped = self.clamp_actions(action)
        if not np.array_equal(clamped, action):
            self.action_clamps += 1
        gain = float(clamped @ self.direction(state.task))
        z = float(np.clip(state.z + STEP_GAIN * gain, 0.0, 1.0))
        return LatentState(task=state.task, z=z, distractors=state.distractors)

    def _features(self, task, z) -> np.ndarray:
        """(s, s^2, sin 2*pi*s) of the signed progress: s = z, or -z for a mirror task."""
        z = np.asarray(z, dtype=np.float64)
        s = np.where(np.asarray(task) % 2 == 0, z, -z)
        return np.stack([s, s * s, np.sin(2.0 * np.pi * s)], axis=-1)

    def render(self, tasks, zs, distractors, noise: Optional[np.ndarray] = None) -> np.ndarray:
        """Observation rows of frames at completion levels ``zs`` of ``tasks``
        (one id, or one per frame) over the task-irrelevant ``distractors``
        (one row, or one per frame), plus the already scaled ``noise`` rows.

        Each row's task block is its pair's map times its features, ``M @ f``,
        computed for all rows as one stacked matmul: that matches the
        per-frame product bit for bit, where ``F @ M.T`` does not."""
        zs = np.asarray(zs, dtype=np.float64)
        maps = self.render_maps[np.asarray(tasks) // 2]  # one map for all rows, or one per row
        obs = np.empty((len(zs), self.config.d_obs))
        obs[:, : self.n_task] = np.matmul(maps, self._features(tasks, zs)[:, :, None])[:, :, 0]
        obs[:, self.n_task :] = distractors
        if noise is not None:
            obs += noise
        return obs

    def render_batch(self, task: int, zs: np.ndarray, distractors: np.ndarray) -> np.ndarray:
        """Noise-free render of many completion levels under one fixed
        task-irrelevant latent; used by planning rollouts. Its ``F @ M.T``
        product differs from :meth:`render` in the last bit on most rows, and
        the planner's figures are recorded with it."""
        obs = np.empty((len(zs), self.config.d_obs))
        obs[:, : self.n_task] = self._features(task, zs) @ self.render_maps[task // 2].T
        obs[:, self.n_task :] = distractors
        return obs

    def sample_start(self, task: int, rng: np.random.Generator, z_jitter: float = 0.0) -> LatentState:
        distractors = np.empty(self.n_scene + self.n_walk)
        distractors[: self.n_scene] = rng.normal(0.0, SCENE_SIGMA, self.n_scene)
        distractors[self.n_scene :] = rng.normal(0.0, 1.0, self.n_walk)
        z = float(rng.uniform(0.0, z_jitter)) if z_jitter > 0 else 0.0
        return LatentState(task=task, z=z, distractors=distractors)

    def _step_scales(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-column scales of one step's standard-normal draws: scene drift
        and walk, then render noise (none at zero noise); callers concatenate
        them in their draw order. ``s * standard_normal(n)`` equals
        ``normal(0, s, n)`` bit for bit."""
        drift = np.concatenate([np.full(self.n_scene, SCENE_DRIFT), np.full(self.n_walk, WALK_SIGMA)])
        return drift, np.full(self.config.d_obs if self.config.noise > 0 else 0, self.config.noise)

    def closed_loop(
        self,
        tasks: Sequence[int],
        rngs: Sequence[np.random.Generator],
        act: Callable[[np.ndarray, np.ndarray], np.ndarray],
    ) -> list[LatentState]:
        """Final states of one episode per task, run in lock step for
        ``h_max`` steps; ``act(observations, zs)`` maps every episode's
        rendered frame and completion level to its action row.

        Episode i draws from ``rngs[i]`` in the order of one episode run
        alone: its start state, then per step one draw holding the render
        noise, the scene drift and the walk. Distractors drift after the
        frame is rendered; actions move z by their gain along the task's
        direction, taken with a stacked matmul that equals ``a @ d``."""
        starts = [self.sample_start(task, rng) for task, rng in zip(tasks, rngs)]
        tasks = np.array(tasks, dtype=np.int64)
        distractors = np.array([s.distractors for s in starts])
        directions = np.array([self.direction(task) for task in tasks])
        zs = np.array([s.z for s in starts])
        drift, noise = self._step_scales()
        scales, n_noise = np.concatenate([noise, drift]), len(noise)
        for _ in range(self.config.h_max):
            draws = np.array([rng.standard_normal(len(scales)) for rng in rngs]) * scales
            obs = self.render(tasks, zs, distractors, draws[:, :n_noise] if n_noise else None)
            actions = self.clamp_actions(act(obs, zs))
            gains = np.matmul(actions[:, None, :], directions[:, :, None])[:, 0, 0]
            zs = np.minimum(np.maximum(zs + STEP_GAIN * gains, 0.0), 1.0)  # np.clip, bit for bit
            distractors += draws[:, n_noise:]
        return [LatentState(int(t), float(z), d) for t, z, d in zip(tasks, zs, distractors)]

    # ---- ground-truth evaluation ----------------------------------------------

    def progression_for(self, task: int, z, instruction: Instruction):
        """Completion level of ``instruction`` given a state of ``task`` at z."""
        other = self.task_for_instruction(instruction)
        if other == task:
            return z
        if other == self.mirror_task(task):
            return 1.0 - np.asarray(z, dtype=np.float64) if np.ndim(z) else 1.0 - z
        return np.full_like(np.asarray(z, dtype=np.float64), 0.5) if np.ndim(z) else 0.5

    def success(self, state: LatentState, instruction: Instruction) -> bool:
        return float(self.progression_for(state.task, state.z, instruction)) > SUCCESS_THRESHOLD

    # ---- scripted expert generation --------------------------------------------

    def _expert_trajectories(self, n: int, root: np.random.SeedSequence,
                             tasks: Optional[np.ndarray] = None) -> list[Trajectory]:
        """``n`` scripted-expert trajectories, run in lock step over blocks of
        ``_LOCK_STEP_GROUP``; each step advances the trajectories still
        running as arrays and renders their frames in one call.

        Each block draws from one generator spawned from ``root``, every
        random quantity as one array of ``_LOCK_STEP_GROUP`` rows, row i for
        trajectory ``lo + i``: the tasks (unless ``tasks`` gives them), the
        start state's scene offset and walk (z = 0), frame 0's render noise,
        then per step until the block's last trajectory ends the paces
        (``low + (high - low) * random()``, numpy's own ``uniform``, drawn at
        the last-chance step too) and one draw holding the scene drift, the
        walk and the frame's render noise. Every row draws whether its
        trajectory runs, has finished or lies past the end of a short last
        block, so a trajectory depends only on its block's generator and its
        row, and the first k of n trajectories equal those of a call for k.
        Distractors accumulate their steps in ``np.cumsum``'s order, and the
        gain is a stacked matmul that equals ``a @ d``, so every output is
        bit for bit the per-frame loop's on the same rows."""
        cfg = self.config
        drift, noise = self._step_scales()
        scales, n_dist = np.concatenate([drift, noise]), len(drift)
        low, high = EXPERT_PACE
        width = _LOCK_STEP_GROUP
        instructions = self.instructions()
        out = []
        for lo, block_seed in zip(range(0, n, width), root.spawn(-(-n // width))):
            rng = np.random.default_rng(block_seed)
            size = min(width, n - lo)
            group = rng.integers(0, cfg.n_tasks, width)[:size] if tasks is None else tasks[lo : lo + size]
            scene = rng.normal(0.0, SCENE_SIGMA, (width, self.n_scene))
            distractors = np.concatenate([scene, rng.normal(0.0, 1.0, (width, self.n_walk))], axis=1)[:size]
            zs = np.zeros(size)
            first_noise = rng.standard_normal((width, len(noise)))[:size] * noise
            directions = np.array([self.direction(task) for task in group])
            run = np.arange(size)  # the trajectories still running
            # per step: the running rows, their frames, z and actions
            steps = [(run, self.render(group, zs, distractors, first_noise if len(noise) else None), zs.copy(), None)]
            for t in range(1, cfg.h_max):
                run = run[~((zs[run] >= 1.0) & (t >= cfg.h_min))]
                if not len(run):
                    break
                moving = zs[run] < 1.0  # the rest have finished and hold still
                rows = run[moving]
                paces = (low + (high - low) * rng.random(width))[rows]
                if t == cfg.h_max - 1:
                    # last chance, drawn pace overridden: the pace that
                    # finishes, which the clamp can cap below z = 1 when
                    # z < 1 - STEP_GAIN (see the module docstring)
                    paces = (1.0 - zs[rows]) / STEP_GAIN
                d = directions[rows]
                moved = self.clamp_actions(paces[:, None] * d)
                gains = np.matmul(moved[:, None, :], d[:, :, None])[:, 0, 0]
                zs[rows] = np.minimum(np.maximum(zs[rows] + STEP_GAIN * gains, 0.0), 1.0)
                draws = rng.standard_normal((width, len(scales)))[run] * scales
                distractors[run] += draws[:, :n_dist]
                frames = self.render(group[run], zs[run], distractors[run], draws[:, n_dist:] if len(noise) else None)
                actions = np.zeros((len(run), cfg.d_act))
                actions[moving] = moved
                steps.append((run, frames, zs[run], actions))
            # scatter the step rows into compact trajectory-major arrays
            h = np.zeros(size, dtype=np.int64)
            for run, *_ in steps:
                h[run] += 1
            first = np.cumsum(h) - h  # each trajectory's first row
            observations = np.empty((int(h.sum()), cfg.d_obs))
            progression = np.empty(len(observations))
            actions = np.empty((len(observations) - size, cfg.d_act))
            for t, (run, frames, z, step_actions) in enumerate(steps):
                observations[first[run] + t] = frames
                progression[first[run] + t] = z
                if t:
                    actions[first[run] - run + t - 1] = step_actions
            ends = np.cumsum(h)[:-1]
            out += [
                Trajectory(*piece)
                for piece in zip(
                    np.split(observations, ends),
                    [instructions[task] for task in group.tolist()],
                    np.split(actions, ends - np.arange(1, size)),
                    np.split(progression, ends),
                )
            ]
        return out

    def generate(self, n_trajectories: int, seed: Optional[int] = None) -> list[Trajectory]:
        """Uniform-random tasks, one scripted-expert trajectory each."""
        if n_trajectories < 1:
            raise EmptyInputError("need at least one trajectory")
        root = np.random.SeedSequence([self.config.seed if seed is None else seed, 0xDA7A])
        return self._expert_trajectories(n_trajectories, root)

    def generate_demos(self, per_task: int, seed: Optional[int] = None) -> list[Trajectory]:
        """Balanced demonstrations: exactly ``per_task`` trajectories per task."""
        if per_task < 1:
            raise EmptyInputError("need at least one demo per task")
        root = np.random.SeedSequence([self.config.seed if seed is None else seed, 0xDE40])
        n = per_task * self.config.n_tasks
        return self._expert_trajectories(n, root, np.arange(n) % self.config.n_tasks)


# ---- serialization -----------------------------------------------------------------


def save_dataset(path, config: WorldConfig, trajectories: list[Trajectory]) -> None:
    """One array archive of kind ``dataset`` (the container of
    :func:`training.write_array_archive`), bit-exact round trip.

    Per-trajectory lengths and (verb, object) ids sit beside the
    observations, actions and progression of all trajectories stacked
    row-wise in trajectory order; each trajectory's rows are written as
    one block, so no stacked copy is made.
    """
    write_array_archive(
        path,
        {"kind": "dataset", "config": asdict(config)},
        {
            "lengths": np.array([t.h for t in trajectories], dtype=np.float64),
            "instructions": np.array([[t.instruction.verb, t.instruction.obj] for t in trajectories], dtype=np.float64),
            "observations": [t.observations for t in trajectories],
            "actions": [t.actions for t in trajectories],
            "progression": [t.progression for t in trajectories],
        },
    )


def load_dataset(path) -> tuple[WorldConfig, StackedDataset]:
    """The config and trajectories that :func:`save_dataset` wrote, as a
    :class:`StackedDataset` over the archive's own observation matrix; each
    trajectory's arrays are views of the archive's, so nothing is copied."""
    names = ("lengths", "instructions", "observations", "actions", "progression")
    try:
        meta, arrays = read_array_archive(path, "dataset")
        config = WorldConfig(**meta["config"])
        for name in names:
            # min and max propagate NaN and expose infinities without the
            # full-size temporary of np.isfinite
            if not (math.isfinite(arrays[name].min()) and math.isfinite(arrays[name].max())):
                raise ValueError(f"non-finite {name}")
        lengths, ids = arrays["lengths"], arrays["instructions"]
        if lengths.ndim != 1 or not np.all((lengths >= 2) & (lengths <= len(arrays["observations"]))):
            raise ValueError("trajectory lengths must lie in [2, observation rows]")
        h = lengths.astype(np.int64)
        n, frames = len(h), int(h.sum())
        shapes = (n, 2), (frames, config.d_obs), (frames - n, config.d_act), (frames,)
        for name, shape in zip(names[1:], shapes):
            if arrays[name].shape != shape:
                raise ValueError(f"{name} has shape {arrays[name].shape}, lengths and config give {shape}")
        distinct, instruction_ids = np.unique(ids, axis=0, return_inverse=True)
        instructions = [Instruction(int(verb), int(obj)) for verb, obj in distinct]
        if not (np.array_equal(h, lengths) and np.array_equal(distinct, [[i.verb, i.obj] for i in instructions])):
            raise ValueError("lengths and instruction ids must be integers")
        world = World(config)
        for instruction in instructions:
            world.task_for_instruction(instruction)
        pieces = zip(
            np.split(arrays["observations"], np.cumsum(h)[:-1]),
            [instructions[i] for i in instruction_ids.tolist()],
            np.split(arrays["actions"], np.cumsum(h - 1)[:-1]),
            np.split(arrays["progression"], np.cumsum(h)[:-1]),
        )
        dataset = StackedDataset([Trajectory(*piece) for piece in pieces], arrays["observations"], h,
                                 instruction_ids, instructions)
    except (KeyError, TypeError, ValueError) as exc:  # CheckpointFormatError is a ValueError
        raise DatasetFormatError(f"bad dataset {path}: {exc}") from exc
    return config, dataset
