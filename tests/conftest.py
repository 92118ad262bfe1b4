"""Shared helpers for the test suite."""

import numpy as np

from segnce.autodiff import MlpParams, finite_difference_check
from segnce.encoders import (
    EncoderConfig,
    Encoders,
    Instruction,
    InstructionEncoderParams,
    encode_instructions,
    encode_observations,
    init_params,
)
from segnce.objectives import BatchEmbeddings, ObjectiveSpec, batch_loss


def loss_gradient_error(variant: str, seed: int, batch_size: int = 4, step: float = 1e-6) -> float:
    """Central-difference validation of one batch loss differentiated through
    both encoders, on a small random problem instance."""
    rng = np.random.default_rng(seed)
    spec = ObjectiveSpec(variant=variant, embed_dim=5)
    config = EncoderConfig(
        d_obs=6, embed_dim=5, vision_hidden=(8,), token_dim=4, projection_hidden=(6,), vocab_size=6
    )
    enc = init_params(config, seed)
    leaves = enc.leaves()
    shapes = [leaf.value.shape for leaf in leaves]
    flat = np.concatenate([leaf.value.reshape(-1) for leaf in leaves])

    n_points = spec.n_sample_points if spec.hops > 1 else 2
    frames = rng.normal(size=(n_points, batch_size, config.d_obs))
    instructions = [
        Instruction(int(rng.integers(0, 4)), int(rng.integers(4, 6))) for _ in range(batch_size)
    ]
    n_vis = len(enc.vision.weights)
    n_proj = len(enc.language.projection.weights)

    def f(theta):
        pieces, off = [], 0
        for shape in shapes:
            size = int(np.prod(shape))
            pieces.append(theta.slice_rows(off, off + size).reshape(shape))
            off += size
        vision = MlpParams(
            widths=enc.vision.widths, weights=pieces[:n_vis], biases=pieces[n_vis : 2 * n_vis]
        )
        projection = MlpParams(
            widths=enc.language.projection.widths,
            weights=pieces[2 * n_vis + 1 : 2 * n_vis + 1 + n_proj],
            biases=pieces[2 * n_vis + 1 + n_proj :],
        )
        model = Encoders(vision, InstructionEncoderParams(pieces[2 * n_vis], projection), config)
        psi = encode_instructions(model.language, instructions)
        embs = [encode_observations(model.vision, fr) for fr in frames]
        be = BatchEmbeddings(
            starts=embs[0],
            goals=embs[-1],
            instructions=psi,
            intermediates=embs if spec.hops > 1 else None,
            single=embs[0] if variant == "frame-align" else None,
        )
        return batch_loss(spec, be)

    return finite_difference_check(f, flat, step=step)


def render_one(world, task, z, distractors, rng=None):
    """Reference render of one state: the pair's map times the features of
    the signed progression, then the distractors, then sensor noise drawn
    from ``rng``."""
    s = np.asarray(z if task % 2 == 0 else -z, dtype=np.float64)
    obs = np.empty(world.config.d_obs)
    obs[: world.n_task] = world.render_maps[task // 2] @ np.stack([s, s * s, np.sin(2.0 * np.pi * s)])
    obs[world.n_task :] = distractors
    if rng is not None and world.config.noise > 0:
        obs += rng.normal(0.0, world.config.noise, world.config.d_obs)
    return obs
