"""Segment rewards and the contrastive batch losses built on them.

Two reward parameterizations score a segment against an instruction
embedding:

* potential form: the change in frame/instruction cosine similarity
  between the segment's endpoints (per-step changes telescope, so only the
  endpoints matter);
* transition form: the cosine similarity between the embedding
  displacement goal - start and the instruction embedding.

The multi-frame variants split a segment into 4 or 8 evenly spaced hops
and sum the per-hop transition rewards; the single-frame alignment arm
drops segments entirely and aligns one frame with the instruction, and
exists as a comparison arm.

``segment_logits`` is the one batched form of these rewards. It reads a
position-major list of (B, K) frame embedding matrices (the endpoints, the
k+1 hop frames, or the one aligned frame) against (I, K) instruction
embeddings. The batch loss contrasts its matched entries against all
in-batch mismatches in both directions, InfoNCE style, and the heatmap
reads it as the reward. The per-vector helpers are the reference it is
checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .autodiff import (
    Tensor,
    concat_rows,
    cosine_matrix,
    cosine_similarity,
    logsumexp,
)
from .errors import EmptyInputError, ShapeMismatchError, check_number

VARIANTS = ("p", "t", "t4", "t8", "frame-align")
_MULTIFRAME_HOPS = {"t4": 4, "t8": 8}


@dataclass(frozen=True)
class ObjectiveSpec:
    """Selects a loss variant and the embedding dimension it operates in."""

    variant: str = "t"
    embed_dim: int = 32
    temperature: float = 1.0  # divides logits; left at 1 everywhere by default

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ShapeMismatchError(f"unknown objective variant {self.variant!r}; pick from {VARIANTS}")
        check_number(ShapeMismatchError, "embed_dim", self.embed_dim, positive=True)
        check_number(ShapeMismatchError, "temperature", self.temperature, positive=True)

    @property
    def hops(self) -> int:
        """Number of transition hops scored per segment (1 unless multi-frame)."""
        return _MULTIFRAME_HOPS.get(self.variant, 1)

    @property
    def n_frames(self) -> int:
        """Frame embedding matrices a batch of this variant reads: one for
        frame alignment, else the hops + 1 frames along each segment."""
        return 1 if self.variant == "frame-align" else self.hops + 1


# ---- rewards ---------------------------------------------------------------------


def bt_probability(total_reward_pos: float, total_reward_neg: float) -> float:
    """Probability the positive segment wins a pairwise comparison:
    a stable sigmoid of the total-reward difference."""
    d = float(total_reward_pos) - float(total_reward_neg)
    if d >= 0:
        return 1.0 / (1.0 + np.exp(-d))
    e = np.exp(d)
    return float(e / (1.0 + e))


def potential_step_reward(phi_t, phi_next, psi_l):
    """Single-step reward: similarity gain of the next frame over the current one."""
    return cosine_similarity(phi_next, psi_l) - cosine_similarity(phi_t, psi_l)


def segment_reward_potential(phi_start, phi_goal, psi_l):
    """Endpoint similarity change; equals the sum of per-step rewards over
    any chain with the same endpoints (exact telescoping)."""
    return cosine_similarity(phi_goal, psi_l) - cosine_similarity(phi_start, psi_l)


def segment_reward_transition(phi_start, phi_goal, psi_l):
    """Similarity between the embedding displacement and the instruction;
    ~0 for (near-)zero displacements under the eps-floored cosine."""
    return cosine_similarity(phi_goal - phi_start, psi_l)


def multiframe_transition_reward(frames, psi_l, k: int):
    """Sum of per-hop transition rewards over k evenly spaced hops.

    ``frames`` must hold exactly k+1 embeddings; with k=1 this reduces to
    segment_reward_transition on the endpoints.
    """
    if len(frames) != k + 1:
        raise ShapeMismatchError(f"expected {k + 1} frame embeddings, got {len(frames)}")
    total = None
    for a, b in zip(frames[:-1], frames[1:]):
        term = cosine_similarity(b - a, psi_l)
        total = term if total is None else total + term
    return total


# ---- batch losses ----------------------------------------------------------------


def infonce_pair_loss(logits) -> Tensor:
    """Two-sided contrastive loss over a (B, B) logit matrix.

    ``logits[j, i]`` scores segment j under instruction i. For each i the
    matched entry is contrasted against the i-th column (all segments) and
    the i-th row (all instructions); with all logits equal the value is
    exactly 2*ln(B).
    """
    logits = Tensor._lift(logits)
    if logits.value.ndim != 2 or logits.value.shape[0] != logits.value.shape[1]:
        raise ShapeMismatchError(f"logits must be square, got {logits.value.shape}")
    b = logits.value.shape[0]
    if b < 2:
        raise EmptyInputError(f"contrastive loss needs a batch of >= 2, got {b}")
    col = logsumexp(logits, axis=0)
    row = logsumexp(logits, axis=1)
    return (col.sum() + row.sum() - 2.0 * logits.diagonal().sum()) * (1.0 / b)


def segment_logits(spec: ObjectiveSpec, frames: Sequence, instructions):
    """(B, I) reward of each segment under each row of ``instructions``, in
    ``spec``'s form, from the ``spec.n_frames`` position-major (B, K) frame
    matrices in ``frames``: endpoint similarity change (``p``), one frame's
    similarity (``frame-align``), or summed per-hop displacement directions
    (``t`` is the one-hop case of ``t4``/``t8``)."""
    if len(frames) != spec.n_frames:
        raise ShapeMismatchError(
            f"objective {spec.variant!r} needs {spec.n_frames} frame embedding matrices, got {len(frames)}")
    if spec.variant == "p":
        return cosine_matrix(frames[1], instructions) - cosine_matrix(frames[0], instructions)
    if spec.variant == "frame-align":
        return cosine_matrix(frames[0], instructions)
    # every hop's displacements in one (hops * B, I) product, then summed in hop order
    hop_logits = cosine_matrix(concat_rows([b - a for a, b in zip(frames[:-1], frames[1:])]), instructions)
    return hop_logits.reshape((spec.hops, -1, hop_logits.shape[1])).sum(axis=0)


def batch_loss(spec: ObjectiveSpec, frames: Sequence, instructions):
    """InfoNCE over ``spec``'s segment logits, scaled by 1/temperature."""
    return infonce_pair_loss(segment_logits(spec, frames, instructions) * (1.0 / spec.temperature))
