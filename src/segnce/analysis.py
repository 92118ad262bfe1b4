"""Read-only consumers of a trained checkpoint: reward curves, heatmaps,
and first-frame clustering statistics.

They embed through the training code inside ``autodiff.no_grad``, score
the embeddings as constants and return ndarrays, so nothing can
backpropagate into a checkpoint. Heatmaps score with training's
``segment_logits``, curves with its ``frame-align`` cosine (``cosine_matrix``).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .autodiff import COSINE_EPS, cosine_matrix, mlp_apply, no_grad, normalize_rows
from .encoders import Instruction, encode_instructions
from .errors import EmptyInputError, ShapeMismatchError
from .objectives import segment_logits
from .sampling import Segment, Trajectory, frame_positions, stack_dataset
from .training import Checkpoint, batch_embeddings


@dataclass
class RewardCurve:
    """Per-frame similarity of one trajectory to one instruction.

    ``normalized`` is the min-max rescaling of ``raw`` onto [0, 1]; a
    constant curve maps to all 0.5 by convention.
    """

    raw: np.ndarray
    normalized: np.ndarray


@dataclass
class HeatmapGrid:
    """Segment-by-instruction reward matrix; matched pairs sit where a row's
    source instruction equals the column instruction."""

    values: np.ndarray  # (n_segments, n_instructions)
    row_labels: list[str]
    col_labels: list[str]


def embed_frames(ckpt: Checkpoint, observations: np.ndarray) -> np.ndarray:
    """Frozen vision embeddings for a (h, d_obs) observation matrix."""
    with no_grad():
        return mlp_apply(ckpt.encoders.vision, observations).value


def embed_instructions(ckpt: Checkpoint, instructions: Sequence[Instruction]) -> np.ndarray:
    """Frozen (n, embed_dim) embeddings of a sequence of instructions."""
    with no_grad():
        return encode_instructions(ckpt.encoders.language, instructions).value


def normalize_curve(raw: np.ndarray) -> np.ndarray:
    lo, hi = float(raw.min()), float(raw.max())
    if hi > lo:
        return (raw - lo) / (hi - lo)
    return np.full_like(raw, 0.5)


def reward_curve(ckpt: Checkpoint, traj: Trajectory, instruction: Instruction) -> RewardCurve:
    """Raw per-frame frame/instruction cosine similarities (``cosine_matrix``'s
    bits) plus their min-max normalization."""
    d_obs = ckpt.encoders.config.d_obs
    if traj.observations.shape[1] != d_obs:
        raise ShapeMismatchError(
            f"trajectory observation width {traj.observations.shape[1]} != checkpoint d_obs {d_obs}"
        )
    raw = cosine_matrix(embed_frames(ckpt, traj.observations), embed_instructions(ckpt, [instruction])).value[:, 0]
    return RewardCurve(raw=raw, normalized=normalize_curve(raw))


def segment_score(
    ckpt: Checkpoint, segments: Sequence[Segment], instructions: Sequence[Instruction]
) -> np.ndarray:
    """(S, I) rewards of every segment under every instruction, with the
    checkpoint's own objective. The frames each reward reads (the goal frame
    for frame alignment) go through training's gather in one frozen pass, the
    instructions through another, and ``segment_logits`` scores the grid."""
    spec = ckpt.objective
    data = stack_dataset([s.trajectory for s in segments])  # trajectory j is segment j's
    starts, goals = np.array([(s.start, s.goal) for s in segments]).T
    positions = goals[:, None] if spec.variant == "frame-align" else frame_positions(starts, goals, spec.hops)
    frames = batch_embeddings(lambda obs: embed_frames(ckpt, obs), data.observations,
                              data.offsets[:, None] + positions)
    return segment_logits(spec, frames, embed_instructions(ckpt, instructions)).value


def reward_heatmap(
    ckpt: Checkpoint,
    segments: Sequence[Segment],
    instructions: Sequence[Instruction],
    row_labels: Sequence[str] | None = None,
    col_labels: Sequence[str] | None = None,
) -> HeatmapGrid:
    if len(segments) == 0 or len(instructions) == 0:
        raise EmptyInputError("heatmap needs at least one segment and one instruction")
    for what, labels, n in (("row", row_labels, len(segments)), ("column", col_labels, len(instructions))):
        if labels and len(labels) != n:
            raise ShapeMismatchError(f"{len(labels)} {what} labels for {n} {what}s")
    return HeatmapGrid(
        values=segment_score(ckpt, segments, instructions),
        row_labels=list(row_labels) if row_labels else [f"segment{i}" for i in range(len(segments))],
        col_labels=list(col_labels) if col_labels else [f"instruction{j}" for j in range(len(instructions))],
    )


def first_image_similarity_stats(
    ckpt: Checkpoint,
    dataset: Sequence[Trajectory],
    vocabulary: Sequence[Instruction],
    rng: np.random.Generator | None = None,
    max_trajectories: int = 100,
) -> dict:
    """Mean pairwise cosine among first-frame embeddings over up to 100
    trajectories, plus their mean cosine to the average instruction embedding."""
    if len(dataset) < 2:
        raise EmptyInputError("need at least two trajectories")
    picks = list(range(len(dataset)))
    if len(dataset) > max_trajectories:
        rng = rng or np.random.default_rng(0)
        picks = list(rng.choice(len(dataset), size=max_trajectories, replace=False))
    firsts = np.stack([dataset[i].observations[0] for i in picks])
    emb = normalize_rows(embed_frames(ckpt, firsts)).value
    gram = emb @ emb.T
    n = len(picks)
    iu = np.triu_indices(n, k=1)
    pairwise_mean = float(gram[iu].mean())

    # one call per instruction: a row's last bits depend on the batch it is embedded in
    psi_all = np.concatenate([embed_instructions(ckpt, [ins]) for ins in vocabulary])
    psi_mean = psi_all.mean(axis=0)
    psi_mean = psi_mean / max(float(np.linalg.norm(psi_mean)), COSINE_EPS)
    to_mean_instruction = float((emb @ psi_mean).mean())
    return {
        "n_trajectories": n,
        "first_image_pairwise_mean": pairwise_mean,
        "first_image_to_mean_instruction": to_mean_instruction,
    }


def random_frame_pair_similarity(
    ckpt: Checkpoint,
    dataset: Sequence[Trajectory],
    rng: np.random.Generator,
    n_pairs: int = 2000,
) -> float:
    """Mean pairwise cosine over random mid-trajectory frames (frame index
    >= 1) drawn from random trajectories; the comparison baseline for the
    first-frame clustering statistic."""
    if len(dataset) < 2:
        raise EmptyInputError("need at least two trajectories")
    frames = []
    for _ in range(2 * n_pairs):
        traj = dataset[int(rng.integers(0, len(dataset)))]
        t = int(rng.integers(1, traj.h))
        frames.append(traj.observations[t])
    emb = normalize_rows(embed_frames(ckpt, np.stack(frames))).value
    a, b = emb[:n_pairs], emb[n_pairs:]
    return float(np.sum(a * b, axis=1).mean())


# ---- exports -------------------------------------------------------------------


def write_curve_csv(path, curve: RewardCurve) -> None:
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["frame", "raw", "normalized"])
        for t, (r, n) in enumerate(zip(curve.raw, curve.normalized)):
            writer.writerow([t, repr(float(r)), repr(float(n))])


def write_heatmap_csv(path, grid: HeatmapGrid) -> None:
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["segment", *grid.col_labels])
        for label, row in zip(grid.row_labels, grid.values):
            writer.writerow([label, *(repr(float(v)) for v in row)])
