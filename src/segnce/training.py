"""Stochastic-gradient training loop, optimizers, and checkpoint persistence.

One iteration samples a batch of (trajectory, start, goal) rows, embeds the
frames and instruction labels they read, evaluates the configured
contrastive loss, and updates both encoders jointly. The loop is fully
determined by (seed, config, dataset); the loss and global gradient norm are
recorded every iteration.

Checkpoints, policies and datasets share one small binary container: magic,
format version, a JSON header with a ``kind``, metadata and array shapes,
then raw little-endian float64 buffers. Round trips are bit-exact.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass, field, asdict
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .autodiff import Tensor
from .encoders import (
    EncoderConfig,
    Encoders,
    InstructionEncoderParams,
    MlpParams,
    encode_instructions,
    encode_observations,
    init_params,
)
from .errors import (
    CheckpointFormatError,
    EmptyInputError,
    NumericalError,
    ShapeMismatchError,
    TrainingDivergedError,
    check_number,
)
from .objectives import ObjectiveSpec, batch_loss
from .sampling import Trajectory, frame_positions, sample_batch

CHECKPOINT_MAGIC = b"SEGNCEAR"
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class TrainConfig:
    objective: ObjectiveSpec = field(default_factory=ObjectiveSpec)
    iterations: int = 2000
    batch_size: int = 64
    learning_rate: float = 1e-3
    optimizer: str = "adam"  # "adam" or "sgd"
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    weight_decay: float = 0.0
    seed: int = 0
    checkpoint_interval: int = 0  # 0: only the final checkpoint is kept
    encoder: Optional[EncoderConfig] = None

    def __post_init__(self):
        if self.iterations < 1 or self.batch_size < 2:
            raise EmptyInputError("need iterations >= 1 and batch_size >= 2")
        check_number(EmptyInputError, "learning_rate", self.learning_rate)
        check_number(EmptyInputError, "weight_decay", self.weight_decay)
        check_number(EmptyInputError, "checkpoint_interval", self.checkpoint_interval)
        if self.optimizer not in ("adam", "sgd"):
            raise EmptyInputError(f"unknown optimizer {self.optimizer!r}")
        if self.encoder is not None and self.encoder.embed_dim != self.objective.embed_dim:
            raise ShapeMismatchError(f"encoder embed_dim {self.encoder.embed_dim} != objective embed_dim "
                                     f"{self.objective.embed_dim}")


@dataclass
class Checkpoint:
    """Everything downstream consumers need: both encoders plus provenance."""

    encoders: Encoders
    objective: ObjectiveSpec
    config: TrainConfig
    iteration: int
    history: np.ndarray  # (n, 3): iteration, loss, grad norm


def _scratch_views(leaves: Sequence[Tensor], count: int) -> list[tuple[np.ndarray, ...]]:
    """``count`` scratch buffers sized to the largest leaf, allocated once, and
    per leaf a tuple of views of them shaped like that leaf."""
    size = max((leaf.value.size for leaf in leaves), default=0)
    buffers = [np.empty(size) for _ in range(count)]
    return [tuple(buf[: leaf.value.size].reshape(leaf.value.shape) for buf in buffers) for leaf in leaves]


class Sgd:
    """Plain gradient descent with L2 coupled into the gradient; the update is
    formed in one scratch buffer sized to the largest leaf."""

    def __init__(self, leaves: Sequence[Tensor], lr: float, weight_decay: float = 0.0):
        self.leaves = list(leaves)
        self.lr = lr
        self.weight_decay = weight_decay
        self._scratch = _scratch_views(self.leaves, 1)

    def step(self):
        for leaf, (s,) in zip(self.leaves, self._scratch):
            g = leaf.grad
            if self.weight_decay:
                g = np.add(g, np.multiply(self.weight_decay, leaf.value, out=s), out=s)
            leaf.value -= np.multiply(self.lr, g, out=s)


class Adam:
    """Adam with L2 coupled into the gradient (not decoupled decay).

    The moments and parameters are updated in place. Every temporary lives in
    one of two scratch buffers sized to the largest leaf and allocated here,
    so a step allocates no parameter-sized array. The arithmetic runs in the
    order of the textbook expressions, so results are bit for bit those of
    ``m = b1*m + (1-b1)*g``, ``v = b2*v + (1-b2)*g*g`` and
    ``w -= lr * (m/c1) / (sqrt(v/c2) + eps)``.
    """

    def __init__(self, leaves: Sequence[Tensor], lr: float, beta1=0.9, beta2=0.999,
                 eps=1e-8, weight_decay: float = 0.0):
        self.leaves = list(leaves)
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.weight_decay = weight_decay
        self.t = 0
        self.m = [np.zeros_like(l.value) for l in self.leaves]
        self.v = [np.zeros_like(l.value) for l in self.leaves]
        self._scratch = _scratch_views(self.leaves, 2)

    def step(self):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        c1, c2 = 1 - b1 ** self.t, 1 - b2 ** self.t
        for leaf, m, v, (s, u) in zip(self.leaves, self.m, self.v, self._scratch):
            g = leaf.grad
            if self.weight_decay:
                g = np.add(g, np.multiply(self.weight_decay, leaf.value, out=s), out=s)
            m *= b1
            m += np.multiply(1 - b1, g, out=u)
            np.multiply(1 - b2, g, out=u)
            u *= g
            v *= b2
            v += u
            np.divide(m, c1, out=s)  # g is spent: s may now be overwritten
            s *= self.lr
            np.divide(v, c2, out=u)
            np.sqrt(u, out=u)
            u += self.eps
            s /= u
            leaf.value -= s


def make_optimizer(config: TrainConfig, leaves: Sequence[Tensor]):
    if config.optimizer == "sgd":
        return Sgd(leaves, config.learning_rate, config.weight_decay)
    return Adam(
        leaves,
        config.learning_rate,
        beta1=config.beta1,
        beta2=config.beta2,
        eps=config.adam_eps,
        weight_decay=config.weight_decay,
    )


def _grad_norm(leaves: Sequence[Tensor]) -> float:
    total = 0.0
    for leaf in leaves:
        total += float((leaf.grad * leaf.grad).sum())
    return float(np.sqrt(total))


def batch_embeddings(embed, observations, positions: np.ndarray) -> list[Tensor]:
    """Frame ``positions[j]`` of ``observations[j]`` for every row j, stacked
    position-major, embedded by one ``embed`` call and split into the
    position-major list of (rows, K) matrices that ``segment_logits`` reads."""
    n, width = positions.shape
    frames = np.stack([obs[p] for obs, p in zip(observations, positions)], axis=1)
    embedded = Tensor._lift(embed(frames.reshape(n * width, -1)))
    return [embedded.slice_rows(i * n, (i + 1) * n) for i in range(width)]


def _embed_batch(encoders: Encoders, spec: ObjectiveSpec, dataset, rows: np.ndarray,
                 rng) -> tuple[list[Tensor], Tensor]:
    """The frame matrices and per-row instruction embeddings of a batch of
    (trajectory, start, goal) rows: the frames in one vision pass, each
    distinct instruction encoded once. Frame alignment reads one frame per
    row, drawn uniformly over its trajectory."""
    trajectories = [dataset[t] for t in rows[:, 0].tolist()]
    distinct = list(dict.fromkeys(t.instruction for t in trajectories))
    index = {instruction: i for i, instruction in enumerate(distinct)}
    instructions = encode_instructions(encoders.language, distinct).take_rows(
        [index[t.instruction] for t in trajectories])
    observations = [t.observations for t in trajectories]
    if spec.variant == "frame-align":
        positions = rng.integers(0, [len(obs) for obs in observations])[:, None]
    else:
        positions = frame_positions(rows[:, 1], rows[:, 2], spec.hops)
    frames = batch_embeddings(lambda obs: encode_observations(encoders.vision, obs), observations, positions)
    return frames, instructions


def default_encoder_config(config: TrainConfig, dataset: Sequence[Trajectory],
                           vocab_size: int | None = None) -> EncoderConfig:
    d_obs = dataset[0].observations.shape[1]
    if vocab_size is None:
        vocab_size = 1 + max(max(t.instruction.verb, t.instruction.obj) for t in dataset)
    return EncoderConfig(d_obs=d_obs, embed_dim=config.objective.embed_dim, vocab_size=vocab_size)


def train(config: TrainConfig, dataset: Sequence[Trajectory],
          vocab_size: int | None = None, checkpoint_path=None) -> Checkpoint:
    """Run the full loop and return the final checkpoint.

    With ``checkpoint_path`` set and a positive ``checkpoint_interval`` the
    current state is persisted every interval iterations (overwriting).
    Raises :class:`TrainingDivergedError` naming the iteration, the seed and
    the learning rate if the loss or the gradient norm goes non-finite.
    """
    if len(dataset) == 0:
        raise EmptyInputError("cannot train on an empty dataset")
    enc_config = config.encoder or default_encoder_config(config, dataset, vocab_size)
    encoders = init_params(enc_config, config.seed)
    leaves = encoders.leaves()
    optimizer = make_optimizer(config, leaves)
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0x7E41]))
    lengths = np.array([traj.h for traj in dataset])

    history = np.zeros((config.iterations, 3))

    def snapshot(iteration: int) -> Checkpoint:
        return Checkpoint(encoders=encoders, objective=config.objective, config=config,
                          iteration=iteration, history=history[:iteration])

    for it in range(config.iterations):
        rows = sample_batch(lengths, config.batch_size, rng)
        where = f"at iteration {it} (seed {config.seed}, learning_rate {config.learning_rate!r})"
        try:
            loss = batch_loss(config.objective, *_embed_batch(encoders, config.objective, dataset, rows, rng))
            loss_value = float(loss.value)
        except NumericalError as exc:
            raise TrainingDivergedError(it, f"non-finite values {where}: {exc}") from exc
        if not np.isfinite(loss_value):
            raise TrainingDivergedError(it, f"non-finite loss {loss_value} {where}")
        loss.backward()
        grad_norm = _grad_norm(leaves)
        if not np.isfinite(grad_norm):
            raise TrainingDivergedError(it, f"non-finite gradient norm {grad_norm} {where}")
        optimizer.step()
        history[it] = (it, loss_value, grad_norm)
        if (
            checkpoint_path is not None
            and config.checkpoint_interval > 0
            and (it + 1) % config.checkpoint_interval == 0
            and (it + 1) < config.iterations
        ):
            save_checkpoint(snapshot(it + 1), checkpoint_path)
    return snapshot(config.iterations)


# ---- checkpoint container -----------------------------------------------------------


def _encoder_config_from_json(d: dict) -> EncoderConfig:
    enc = dict(d)
    enc["vision_hidden"] = tuple(enc["vision_hidden"])
    enc["projection_hidden"] = tuple(enc["projection_hidden"])
    return EncoderConfig(**enc)


def _config_from_json(d: dict) -> TrainConfig:
    d = dict(d)
    d["objective"] = ObjectiveSpec(**d["objective"])
    if d.get("encoder") is not None:
        d["encoder"] = _encoder_config_from_json(d["encoder"])
    return TrainConfig(**d)


def write_array_archive(path, meta: dict, arrays: dict[str, "np.ndarray | list[np.ndarray]"]) -> None:
    """Binary container: magic, version, JSON header, little-endian f64 blobs.

    An array may also be given as a list of row blocks of one trailing
    shape; the blocks are written in turn, so the file holds their
    concatenation without that ever being built in memory.
    """
    blocks = {n: a if isinstance(a, list) else [a] for n, a in arrays.items()}
    shapes = {}
    for n, parts in blocks.items():
        tail = parts[0].shape[1:] if parts else None
        if not parts or any(p.shape[1:] != tail for p in parts):
            raise ShapeMismatchError(f"array {n!r} needs one or more row blocks of one trailing shape")
        shapes[n] = list(parts[0].shape) if len(parts) == 1 else [sum(len(p) for p in parts), *tail]
    header = {"meta": meta, "arrays": [{"name": n, "shape": shape} for n, shape in shapes.items()]}
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    # a 1 MiB buffer gathers a dataset's thousands of few-KB blocks into large writes
    with Path(path).open("wb", buffering=1 << 20) as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for parts in blocks.values():
            for p in parts:
                fh.write(np.ascontiguousarray(p, dtype="<f8"))


def read_array_archive(path, kind: str) -> tuple[dict, dict[str, np.ndarray]]:
    """Read an archive whose ``meta["kind"]`` must equal ``kind``; each array
    is read from the file straight into its own buffer."""
    with Path(path).open("rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        prefix = fh.read(len(CHECKPOINT_MAGIC) + 12)  # magic, version, header length
        if len(prefix) < len(CHECKPOINT_MAGIC) + 12 or prefix[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
            raise CheckpointFormatError(f"bad magic string or short file {path}")
        version, header_len = struct.unpack_from("<IQ", prefix, len(CHECKPOINT_MAGIC))
        if version != CHECKPOINT_VERSION:
            raise CheckpointFormatError(f"unsupported checkpoint version {version}")
        if len(prefix) + header_len > size:
            raise CheckpointFormatError(f"truncated checkpoint header in {path}")
        try:
            header = json.loads(fh.read(header_len).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
            raise CheckpointFormatError(f"unreadable checkpoint header: {exc}") from exc
        try:
            meta = dict(header["meta"])
            specs = [(str(spec["name"]), tuple(int(s) for s in spec["shape"])) for spec in header["arrays"]]
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise CheckpointFormatError(f"malformed checkpoint header in {path}: {exc!r}") from exc
        if meta.get("kind") != kind:
            raise CheckpointFormatError(f"{path} is not a {kind} archive: kind={meta.get('kind')!r}")
        arrays = {}
        for name, shape in specs:
            nbytes = math.prod(shape) * 8
            # the size check comes first so that a forged shape allocates nothing
            if min(shape, default=0) < 0 or fh.tell() + nbytes > size:
                raise CheckpointFormatError(f"truncated array {name!r} of shape {shape} in {path}")
            values = np.empty(nbytes // 8, dtype="<f8")
            if fh.readinto(values) != nbytes:
                raise CheckpointFormatError(f"truncated array {name!r} of shape {shape} in {path}")
            try:
                arrays[name] = values.astype(np.float64, copy=False).reshape(shape)
            except ValueError as exc:  # numpy refuses the shape, e.g. too many dimensions
                raise CheckpointFormatError(f"array {name!r} of shape {shape} in {path}: {exc}") from exc
        if fh.tell() != size:
            raise CheckpointFormatError(f"{size - fh.tell()} trailing bytes in {path}")
    return meta, arrays


def mlp_arrays(mlp: MlpParams, prefix: str) -> dict[str, np.ndarray]:
    """An MLP's archive arrays: ``{prefix}w{i}`` then ``{prefix}b{i}`` per layer."""
    out = {}
    for i, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        out[f"{prefix}w{i}"] = w.value
        out[f"{prefix}b{i}"] = b.value
    return out


def mlp_from_arrays(arrays: dict[str, np.ndarray], prefix: str, widths: Sequence[int]) -> MlpParams:
    """The MLP that :func:`mlp_arrays` stored under ``prefix``, each array
    checked against the layer ``widths``."""
    weights, biases = [], []
    for i, (fan_in, fan_out) in enumerate(zip(widths[:-1], widths[1:])):
        w = arrays[f"{prefix}w{i}"]
        b = arrays[f"{prefix}b{i}"]
        if w.shape != (fan_out, fan_in) or b.shape != (fan_out,):
            raise CheckpointFormatError(
                f"array {prefix}w{i}/b{i} shapes {w.shape}/{b.shape} do not match widths {widths}"
            )
        weights.append(Tensor(w.copy()))
        biases.append(Tensor(b.copy()))
    return MlpParams(widths=list(widths), weights=weights, biases=biases)


def _encoders_from_arrays(enc_config: EncoderConfig, arrays: dict[str, np.ndarray]) -> Encoders:
    vision = mlp_from_arrays(arrays, "vision/", enc_config.vision_widths())
    table = arrays["language/table"]
    if table.shape != (enc_config.vocab_size, enc_config.token_dim):
        raise CheckpointFormatError(f"token table shape {table.shape} does not match config")
    projection = mlp_from_arrays(arrays, "language/proj_", enc_config.projection_widths())
    return Encoders(
        vision=vision,
        language=InstructionEncoderParams(Tensor(table.copy()), projection),
        config=enc_config,
    )


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    enc_config = ckpt.encoders.config
    meta = {
        "kind": "encoder-checkpoint",
        "objective": asdict(ckpt.objective),
        "train_config": asdict(ckpt.config),
        "encoder_config": asdict(enc_config),
        "iteration": ckpt.iteration,
    }
    language = ckpt.encoders.language
    arrays = {**mlp_arrays(ckpt.encoders.vision, "vision/"), "language/table": language.table.value,
              **mlp_arrays(language.projection, "language/proj_"), "history": ckpt.history}
    write_array_archive(path, meta, arrays)


def load_checkpoint(path) -> Checkpoint:
    meta, arrays = read_array_archive(path, "encoder-checkpoint")
    try:
        return Checkpoint(
            encoders=_encoders_from_arrays(_encoder_config_from_json(meta["encoder_config"]), arrays),
            objective=ObjectiveSpec(**meta["objective"]),
            config=_config_from_json(meta["train_config"]),
            iteration=int(meta["iteration"]),
            history=arrays["history"],
        )
    except (KeyError, TypeError, ValueError, OverflowError, NumericalError) as exc:
        raise CheckpointFormatError(f"malformed encoder checkpoint {path}: missing or invalid {exc}") from exc
