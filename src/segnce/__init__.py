"""Segment-contrastive vision-language representation learning, end to end.

The library trains a pair of encoders (observation vectors and two-token
instructions into one embedding space) with trajectory-segment contrastive
losses derived from pairwise-preference modeling, on a procedurally
generated video-language world. The learned embeddings then drive the
downstream consumers: per-frame reward curves and segment/instruction
heatmaps, zero-shot path-integral planning, and language-conditioned
behavior cloning on frozen features.
"""

from .autodiff import (
    MlpParams,
    Tensor,
    cosine_similarity,
    finite_difference_check,
    init_mlp,
    logsumexp,
    mlp_apply,
    no_grad,
)
from .encoders import (
    EncoderConfig,
    Encoders,
    Instruction,
    InstructionEncoderParams,
    encode_instructions,
    encode_observations,
    init_params,
)
from .objectives import (
    ObjectiveSpec,
    batch_loss,
    bt_probability,
    multiframe_transition_reward,
    potential_step_reward,
    segment_logits,
    segment_reward_potential,
    segment_reward_transition,
)
from .sampling import (
    Segment,
    StackedDataset,
    Trajectory,
    empirical_goal_histogram,
    frame_positions,
    goal_probability,
    sample_batch,
)
from .training import Checkpoint, TrainConfig, load_checkpoint, save_checkpoint, train
from .world import LatentState, World, WorldConfig, load_dataset, save_dataset

__all__ = [
    "Checkpoint",
    "EncoderConfig",
    "Encoders",
    "Instruction",
    "InstructionEncoderParams",
    "LatentState",
    "MlpParams",
    "ObjectiveSpec",
    "Segment",
    "StackedDataset",
    "Tensor",
    "TrainConfig",
    "Trajectory",
    "World",
    "WorldConfig",
    "batch_loss",
    "bt_probability",
    "cosine_similarity",
    "empirical_goal_histogram",
    "encode_instructions",
    "encode_observations",
    "finite_difference_check",
    "frame_positions",
    "goal_probability",
    "init_mlp",
    "init_params",
    "load_checkpoint",
    "load_dataset",
    "logsumexp",
    "mlp_apply",
    "multiframe_transition_reward",
    "no_grad",
    "potential_step_reward",
    "sample_batch",
    "save_checkpoint",
    "save_dataset",
    "segment_logits",
    "segment_reward_potential",
    "segment_reward_transition",
    "train",
]

__version__ = "0.1.0"
