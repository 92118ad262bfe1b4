"""Vision and instruction encoders mapping into one shared embedding space.

The vision side is a plain MLP over observation vectors. The instruction
side averages the two token embeddings of a (verb, object) instruction and
projects the mean through a second MLP, so mirrored instructions (same
object, opposite verb) start from partially shared inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import MlpParams, Tensor, init_mlp, mlp_apply
from .errors import VocabularyError


@dataclass(frozen=True)
class Instruction:
    """A two-token instruction: a verb id and an object id in one shared vocabulary."""

    verb: int
    obj: int


@dataclass(frozen=True)
class EncoderConfig:
    d_obs: int = 32
    embed_dim: int = 32
    vision_hidden: tuple[int, ...] = (128, 128)
    token_dim: int = 16
    projection_hidden: tuple[int, ...] = (64,)
    vocab_size: int = 12

    def vision_widths(self) -> list[int]:
        return [self.d_obs, *self.vision_hidden, self.embed_dim]

    def projection_widths(self) -> list[int]:
        return [self.token_dim, *self.projection_hidden, self.embed_dim]


@dataclass
class InstructionEncoderParams:
    """Token embedding table (one row per token id) plus a projection MLP."""

    table: Tensor
    projection: MlpParams

    def leaves(self) -> list[Tensor]:
        return [self.table, *self.projection.leaves()]


@dataclass
class Encoders:
    """The trainable pair: vision MLP and instruction encoder."""

    vision: MlpParams
    language: InstructionEncoderParams
    config: EncoderConfig = field(default_factory=EncoderConfig)

    def leaves(self) -> list[Tensor]:
        return [*self.vision.leaves(), *self.language.leaves()]


def init_params(config: EncoderConfig, seed: int) -> Encoders:
    """Deterministic initialization: 1/sqrt(fan_in) weights, zero biases,
    unit-variance token embeddings."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    vision = init_mlp(config.vision_widths(), rng)
    table = Tensor(rng.normal(0.0, 1.0, (config.vocab_size, config.token_dim)))
    projection = init_mlp(config.projection_widths(), rng)
    return Encoders(vision=vision, language=InstructionEncoderParams(table, projection), config=config)


def encode_observations(params: MlpParams, obs_matrix) -> Tensor:
    """Embed a (batch, d_obs) matrix (no normalization; similarity normalizes).
    The observations are lifted as constants and get no gradient."""
    return mlp_apply(params, obs_matrix)


def encode_instructions(params: InstructionEncoderParams, instructions) -> Tensor:
    """Embed a batch of instructions into a (batch, embed_dim) matrix: the
    projected mean of each instruction's two token embeddings."""
    verbs = np.array([i.verb for i in instructions], dtype=np.int64)
    objs = np.array([i.obj for i in instructions], dtype=np.int64)
    vocab = params.table.value.shape[0]
    for tok in np.concatenate([verbs, objs]):
        if tok < 0 or tok >= vocab:
            raise VocabularyError(f"token id {int(tok)} outside vocabulary of size {vocab}")
    mean = (params.table.take_rows(verbs) + params.table.take_rows(objs)) * 0.5
    return mlp_apply(params.projection, mean)
