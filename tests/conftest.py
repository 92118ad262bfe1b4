"""Shared helpers for the test suite."""

from typing import Callable

import numpy as np

from segnce.autodiff import MlpParams, Tensor, as_array, no_grad
from segnce.encoders import (
    EncoderConfig,
    Encoders,
    Instruction,
    InstructionEncoderParams,
    encode_instructions,
    encode_observations,
    init_params,
)
from segnce.errors import GraphError, NumericalError
from segnce.objectives import ObjectiveSpec, batch_loss


def finite_difference_check(
    f: Callable[[Tensor], Tensor], theta, step: float = 1e-6
) -> float:
    """Compare the analytic gradient of ``f`` at ``theta`` against central differences.

    ``f`` takes a leaf Tensor and must rebuild its graph on every call.
    Returns the worst per-coordinate discrepancy relative to the gradient's
    overall magnitude (floored at 1e-8), so exactly-zero gradients compare
    clean and near-zero coordinates are judged against the gradient scale
    rather than their own vanishing magnitude.
    """
    theta = as_array(theta)
    if step <= 0:
        raise ValueError("step must be positive")
    leaf = Tensor(theta.copy())
    out = f(leaf)
    if not isinstance(out, Tensor):
        raise GraphError("f must return a Tensor for the analytic gradient")
    if not np.isfinite(out.value):
        raise NumericalError("f(theta) is not finite")
    out.backward()
    analytic = leaf.grad.copy()

    numeric = np.zeros_like(theta)
    flat = theta.reshape(-1)
    num_flat = numeric.reshape(-1)
    with no_grad():  # the perturbed forwards are only read, never differentiated
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            hi = f(Tensor(theta.copy()))
            flat[i] = orig - step
            lo = f(Tensor(theta.copy()))
            flat[i] = orig
            hi_v, lo_v = float(hi.value), float(lo.value)
            if not (np.isfinite(hi_v) and np.isfinite(lo_v)):
                raise NumericalError(f"non-finite value during finite differences at coordinate {i}")
            num_flat[i] = (hi_v - lo_v) / (2.0 * step)

    scale = max(float(np.max(np.abs(analytic), initial=0.0)),
                float(np.max(np.abs(numeric), initial=0.0)), 1e-8)
    return float(np.max(np.abs(analytic - numeric), initial=0.0)) / scale


def reference_mlp(params: MlpParams, x) -> Tensor:
    """The per-layer composite graph that the fused ``mlp_apply`` node
    reproduces: ``(h @ w.T + b).maximum(0.0)`` per hidden layer, affine out."""
    h = Tensor._lift(x)
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        h = h @ w.T + b
        if i < len(params.weights) - 1:
            h = h.maximum(0.0)
    return h


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

    n_points = max(spec.n_frames, 2)  # frame alignment reads the first of two
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
        embedded = encode_observations(model.vision, frames[: spec.n_frames].reshape(-1, config.d_obs))
        return batch_loss(spec, embedded, psi)

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


def per_slot_sample_batch(lengths, batch_size, rng):
    """The per-segment reference sampler: one vector draw of trajectory ids,
    then per slot a scalar start draw and a scalar goal draw."""
    rows = []
    for t in rng.integers(0, len(lengths), size=batch_size):
        h = int(lengths[t])
        start = int(rng.integers(0, h - 1))
        goal = int(rng.integers(start + 1, h))
        rows.append((int(t), start, goal))
    return rows


def per_segment_frame_indices(start, goal, k):
    """The per-segment reference rule start + floor((goal - start) * i / k)."""
    return [start + ((goal - start) * i) // k for i in range(k + 1)]
