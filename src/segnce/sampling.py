"""Trajectories, stacked datasets, segments, the batch sampler and the
frame-position rule.

A segment is a (start, goal) index pair into a trajectory, and a training
batch is a (B, 3) int64 array of (trajectory, start, goal) rows. The sampler
draws the start uniformly over all frames but the last, then the goal
uniformly over the frames after it, which makes later frames increasingly
likely goals. ``goal_probability`` gives that goal distribution in closed
form for the raw process where the start may also land on the final frame
(in which case no goal exists and the draw is a no-op).

Training reads a :class:`StackedDataset`: every frame in one observation
matrix, so a batch's frames are one fancy index into it.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .encoders import Instruction
from .errors import EmptyInputError, ShapeMismatchError


@dataclass
class Trajectory:
    """An observation sequence with an instruction label and optional actions.

    ``progression`` is the generator's ground-truth completion level per
    frame; it is carried for evaluation oracles and is not consumed by
    training.
    """

    observations: np.ndarray  # (h, d_obs)
    instruction: Instruction
    actions: Optional[np.ndarray] = None  # (h - 1, d_act)
    progression: Optional[np.ndarray] = None  # (h,)

    def __post_init__(self):
        self.observations = np.asarray(self.observations, dtype=np.float64)
        if self.observations.ndim != 2 or self.observations.shape[0] < 2:
            raise ShapeMismatchError(
                f"trajectory needs a (h>=2, d_obs) observation matrix, got {self.observations.shape}"
            )
        if self.actions is not None:
            self.actions = np.asarray(self.actions, dtype=np.float64)
            if self.actions.shape[0] != self.h - 1:
                raise ShapeMismatchError(
                    f"expected {self.h - 1} actions for {self.h} frames, got {self.actions.shape[0]}"
                )
        if self.progression is not None:
            self.progression = np.asarray(self.progression, dtype=np.float64)
            if self.progression.shape != (self.h,):
                raise ShapeMismatchError("progression length must equal trajectory length")

    @property
    def h(self) -> int:
        return self.observations.shape[0]


@dataclass(repr=False, eq=False)
class StackedDataset(Sequence):
    """Trajectories with all their frames in one matrix.

    Trajectory i's frames are rows ``offsets[i]`` to ``offsets[i] +
    lengths[i]`` of ``observations`` and its label is
    ``instructions[instruction_ids[i]]``. Items are the ``Trajectory``
    objects themselves; a loaded dataset's are views of the matrix.
    """

    trajectories: list[Trajectory]
    observations: np.ndarray  # (total frames, d_obs)
    lengths: np.ndarray  # (n,) int64
    instruction_ids: np.ndarray  # (n,) int64 into instructions
    instructions: list[Instruction]

    def __post_init__(self):
        self.offsets = np.cumsum(self.lengths) - self.lengths

    def __len__(self) -> int:
        return len(self.trajectories)

    def __getitem__(self, index):
        return self.trajectories[index]

    def __iter__(self):
        return iter(self.trajectories)


def stack_dataset(trajectories: Sequence[Trajectory]) -> StackedDataset:
    """``trajectories`` as a :class:`StackedDataset`: returned as is when it
    already is one, else with its observations copied into one matrix.
    Raises :class:`ShapeMismatchError` naming the first trajectory whose
    observation width differs from trajectory 0's."""
    if isinstance(trajectories, StackedDataset):
        return trajectories
    if len(trajectories) == 0:
        raise EmptyInputError("cannot stack an empty dataset")
    width = trajectories[0].observations.shape[1]
    for i, traj in enumerate(trajectories):
        if traj.observations.shape[1] != width:
            raise ShapeMismatchError(
                f"trajectory {i} has observation width {traj.observations.shape[1]}, trajectory 0 has {width}")
    ids: dict[Instruction, int] = {}
    return StackedDataset(
        trajectories=list(trajectories),
        observations=np.concatenate([traj.observations for traj in trajectories]),
        lengths=np.array([traj.h for traj in trajectories], dtype=np.int64),
        instruction_ids=np.array([ids.setdefault(traj.instruction, len(ids)) for traj in trajectories],
                                 dtype=np.int64),
        instructions=list(ids),
    )


@dataclass(frozen=True)
class Segment:
    """A start/goal frame pair within one trajectory (0-based, start < goal)."""

    trajectory: Trajectory
    start: int
    goal: int

    def __post_init__(self):
        if not (0 <= self.start < self.goal <= self.trajectory.h - 1):
            raise ShapeMismatchError(
                f"segment indices ({self.start}, {self.goal}) invalid for length {self.trajectory.h}"
            )

    @property
    def instruction(self) -> Instruction:
        return self.trajectory.instruction


def frame_positions(starts, goals, k: int) -> np.ndarray:
    """(n, k+1) evenly spaced frame indices start + floor((goal - start) * i / k)
    of every (start, goal) pair; k = 1 gives the endpoints."""
    starts = np.asarray(starts, dtype=np.int64)[:, None]
    return starts + (np.asarray(goals, dtype=np.int64)[:, None] - starts) * np.arange(k + 1) // k


def goal_probability(h: int, t: int) -> float:
    """Probability that 1-based frame t is drawn as the goal under the raw
    process (start uniform over all h frames, including the degenerate last
    frame whose goal set is empty)."""
    if h < 2:
        raise EmptyInputError(f"need h >= 2, got {h}")
    if not (1 <= t <= h):
        raise ShapeMismatchError(f"frame index t={t} outside 1..{h}")
    i = np.arange(1, t)
    return float(np.sum(1.0 / (h - i)) / h)


def empirical_goal_histogram(
    h: int, n_samples: int, rng: np.random.Generator
) -> tuple[np.ndarray, float]:
    """Simulate the raw sampling process and tally goal frequencies.

    Returns (freq, no_goal_fraction) where freq[t-1] estimates
    goal_probability(h, t); draws whose start lands on the last frame are
    tallied as "no goal" and estimate 1/h.
    """
    if h < 2:
        raise EmptyInputError(f"need h >= 2, got {h}")
    if n_samples < 1:
        raise EmptyInputError("need at least one sample")
    starts = rng.integers(1, h + 1, size=n_samples)  # 1-based
    room = h - starts
    has_goal = room > 0
    u = rng.random(n_samples)
    goals = starts + 1 + np.floor(u * room).astype(np.int64)
    counts = np.bincount(goals[has_goal], minlength=h + 1)[1 : h + 1]
    return counts / n_samples, float((~has_goal).sum() / n_samples)


def sample_batch(lengths, batch_size: int, rng: np.random.Generator) -> np.ndarray:
    """(B, 3) int64 rows of (trajectory, start, goal) over trajectories of the
    given ``lengths``: the trajectories in one uniform draw with replacement,
    then per row a scalar start draw and a scalar goal draw, which keeps the
    random stream of a sampler that draws one segment at a time."""
    lengths = np.asarray(lengths, dtype=np.int64)
    if len(lengths) == 0:
        raise EmptyInputError("cannot sample a batch from an empty dataset")
    if batch_size < 2:
        raise EmptyInputError(f"batch size must be >= 2, got {batch_size}")
    if lengths.min() < 2:
        raise EmptyInputError(f"cannot sample a segment from a length-{lengths.min()} trajectory")
    trajectories = rng.integers(0, len(lengths), size=batch_size)
    rows = []
    for t, h in zip(trajectories.tolist(), lengths[trajectories].tolist()):
        start = int(rng.integers(0, h - 1))
        rows.append((t, start, int(rng.integers(start + 1, h))))
    return np.array(rows, dtype=np.int64)
