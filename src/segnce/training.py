"""The one Adam descent loop, encoder training on it, and checkpoint persistence.

:func:`descend` is the loop that :func:`train` and ``imitation.train_bc``
share. One training iteration samples a batch of (trajectory, start, goal)
rows, embeds the frames and instruction labels they read, evaluates the
configured contrastive loss, and updates both encoders jointly. The loop is
fully determined by (seed, config, dataset); the loss and global gradient
norm are recorded every iteration.

Checkpoints, policies and datasets share one small binary container: magic,
format version, a JSON header with a ``kind``, metadata and array shapes,
then raw little-endian float64 buffers. Round trips are bit-exact.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import json
import math
import os
import struct
from dataclasses import InitVar, dataclass, field, asdict
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
from .sampling import Trajectory, frame_positions, sample_batch, stack_dataset

CHECKPOINT_MAGIC = b"SEGNCEAR"
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class TrainConfig:
    objective: ObjectiveSpec = field(default_factory=ObjectiveSpec)
    iterations: int = 2000
    batch_size: int = 64
    learning_rate: float = 1e-3
    seed: int = 0
    encoder: Optional[EncoderConfig] = None
    optimizer: InitVar[str] = "adam"  # accepted, never stored: Adam is the one optimizer

    def __post_init__(self, optimizer):
        if self.iterations < 1 or self.batch_size < 2:
            raise EmptyInputError("need iterations >= 1 and batch_size >= 2")
        check_number(EmptyInputError, "learning_rate", self.learning_rate)
        if optimizer != "adam":
            raise EmptyInputError(f"unknown optimizer {optimizer!r}: Adam is the only one")
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


# adam_step is one Adam step in one branch-free pass: per entry, the arithmetic
# of Adam.step's numpy passes in their order. It returns whether every
# |g| <= sqrt(DBL_MAX / 2n), under which no sum of the n squares overflows
# (NaN fails), kept as a select: an integer |= left the loop scalar. On
# x86-64 GCC >= 12 with glibc the library holds AVX-512, AVX2 and baseline
# clones of it and the loader picks one for the CPU; every operation is an
# IEEE correctly rounded one, so each clone gives the same bits. Other
# toolchains build the one baseline loop. roll_z is planning._roll_z's
# clipped rollout with numpy's maximum and minimum rules (NaN passes, a tie
# gives the bound). -O3 vectorizes adam_step (GCC 12 leaves it scalar at
# -O2), -fno-math-errno lets sqrt vectorize, and -ffp-contract=off rounds
# every product and sum on its own, with no FMA, in every clone. Never
# -ffast-math or -Ofast: they reorder and flush denormals.
_KERNEL_SOURCE = r"""
#include <float.h>
#include <math.h>
#include <stddef.h>

#if defined(__x86_64__) && defined(__GLIBC__) && !defined(__clang__) && __GNUC__ >= 12
__attribute__((target_clones("arch=x86-64-v4", "arch=x86-64-v3", "default")))
#endif
int adam_step(size_t n, double *restrict w, const double *restrict g, double *restrict m,
              double *restrict v, double b1, double b2, double c1, double c2, double lr,
              double eps)
{
    const double a1 = 1 - b1, a2 = 1 - b2, bound = sqrt(DBL_MAX / (2.0 * n));
    double big = 0.0;
    for (size_t i = 0; i < n; i++) {
        const double gi = g[i];
        big = (fabs(gi) <= bound) ? big : 1.0;
        const double mi = m[i] * b1 + a1 * gi;
        const double vi = v[i] * b2 + (a2 * gi) * gi;
        m[i] = mi;
        v[i] = vi;
        w[i] = w[i] - (mi / c1) * lr / (sqrt(vi / c2) + eps);
    }
    return big == 0.0;
}

void roll_z(size_t n, size_t horizon, double z0, double gain, const double *restrict proj,
            double *restrict zs)
{
    for (size_t r = 0; r < n; r++, proj += horizon) {
        double z = z0;
        *zs++ = z;
        for (size_t t = 0; t < horizon; t++) {
            z = z + gain * proj[t];
            z = (z > 0.0 || isnan(z)) ? z : 0.0;
            z = (z < 1.0 || isnan(z)) ? z : 1.0;
            *zs++ = z;
        }
    }
}
"""
_KERNEL_COMMAND = ("cc", "-O3", "-fno-math-errno", "-ffp-contract=off", "-shared", "-fPIC", "-x", "c", "-")


def _load_kernels():
    """The compiled ``adam_step`` and ``roll_z``, built on first import into
    this package's ``__pycache__`` under a digest of their source and
    compiler command, or ``(None, None)`` where no compiler runs or the cache
    cannot be written; Adam and the planner then take their numpy passes. A
    build writes a per-process temporary file and renames it, so a concurrent
    import never loads a half-written library, and then removes the libraries
    of earlier sources."""
    digest = hashlib.sha256(repr((_KERNEL_SOURCE, _KERNEL_COMMAND)).encode()).hexdigest()[:16]
    path = Path(__file__).with_name("__pycache__") / f"kernels.{digest}.so"
    if not path.exists():
        import subprocess  # only a build needs it

        temporary = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        try:
            path.parent.mkdir(exist_ok=True)
            subprocess.run([*_KERNEL_COMMAND, "-o", str(temporary)], input=_KERNEL_SOURCE.encode(),
                           capture_output=True, check=True, timeout=120)
            os.replace(temporary, path)
        except (OSError, subprocess.SubprocessError):
            with contextlib.suppress(OSError):
                temporary.unlink(missing_ok=True)
            return None, None
        for stale in {*path.parent.glob("kernels.*.so"), *path.parent.glob("adam_step.*.so")} - {path}:
            with contextlib.suppress(OSError):
                stale.unlink()
    try:
        library = ctypes.CDLL(str(path))
    except OSError:
        return None, None
    library.adam_step.argtypes = (ctypes.c_size_t, *[ctypes.c_void_p] * 4, *[ctypes.c_double] * 6)
    library.adam_step.restype = ctypes.c_int
    library.roll_z.argtypes = (ctypes.c_size_t, ctypes.c_size_t, ctypes.c_double, ctypes.c_double,
                               ctypes.c_void_p, ctypes.c_void_p)
    library.roll_z.restype = None
    return library.adam_step, library.roll_z


_adam_kernel, _roll_z_kernel = _load_kernels()


class Adam:
    """Adam at the textbook constants b1 = 0.9, b2 = 0.999 and eps = 1e-8.

    All ``leaves`` share one flat float64 arena of six rows (values,
    gradients, both moments and two scratch rows), each leaf owning the same
    slice of every row; ``views`` holds each leaf's six views, and every
    leaf's ``value`` and ``grad`` are views of its slices of the first two
    rows. Each row is its own array, so a trained model whose leaves drop
    their gradients keeps only the value row alive. A step is one call of the
    compiled ``adam_step`` over the rows, or, where none could be built, one
    set of in-place ufunc calls that allocates no parameter-sized array. Both
    run the arithmetic in the order of the textbook expressions, so results
    are bit for bit those of a per-leaf ``m = b1*m + (1-b1)*g``,
    ``v = b2*v + (1-b2)*g*g`` and ``w -= lr * (m/c1) / (sqrt(v/c2) + eps)``.
    Whichever of the kernel's per-ISA clones the loader picks, the bits are
    the same. Neither path writes the gradient row.
    """

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, leaves: Sequence[Tensor], lr: float):
        self.leaves = list(leaves)
        self.lr = lr
        self.t = 0
        bounds = np.cumsum([0, *(leaf.value.size for leaf in self.leaves)])
        self.rows = tuple(np.zeros(int(bounds[-1])) for _ in range(6))
        self.views = [[row[lo:hi].reshape(leaf.value.shape) for row in self.rows]
                      for leaf, lo, hi in zip(self.leaves, bounds[:-1], bounds[1:])]
        self._addresses = [row.ctypes.data for row in self.rows[:4]]
        self._sync()

    def _sync(self) -> None:
        """Copy a value or gradient the caller has rebound into the arena and
        bind the leaf back to its view; a leaf without a gradient gets zeros."""
        for leaf, (value, grad, *_) in zip(self.leaves, self.views):
            if leaf.value is not value:
                value[...] = leaf.value
                leaf.value = value
            if leaf.grad is not grad:
                grad[...] = 0.0 if leaf.grad is None else leaf.grad
                leaf.grad = grad

    def step(self) -> bool:
        """One update; returns ``True`` only when the kernel verified that no
        gradient entry can overflow the gradient norm (the numpy passes verify
        nothing and return ``False``)."""
        self._sync()
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        c1, c2 = 1 - b1 ** self.t, 1 - b2 ** self.t
        w, g, m, v, s, u = self.rows
        if _adam_kernel is not None:
            return bool(_adam_kernel(w.size, *self._addresses, b1, b2, c1, c2, self.lr, self.eps))
        m *= b1
        m += np.multiply(1 - b1, g, out=u)
        np.multiply(1 - b2, g, out=u)
        u *= g
        v *= b2
        v += u
        np.divide(m, c1, out=s)
        s *= self.lr
        np.divide(v, c2, out=u)
        np.sqrt(u, out=u)
        u += self.eps
        s /= u
        w -= s
        return False

    def grad_norm(self) -> float:
        """Euclidean norm of the leaf gradients. The gradient row is squared
        into the last (scratch) row and each leaf's slice summed in that leaf's
        shape: the bits of ``sum((g * g).sum())`` over the leaves, which no
        BLAS thread count changes, with no parameter-sized temporary."""
        self._sync()
        np.multiply(self.rows[1], self.rows[1], out=self.rows[-1])
        return math.sqrt(sum(float(views[-1].sum()) for views in self.views))


@np.errstate(over="ignore", invalid="ignore", divide="ignore")  # divergence surfaces as TrainingDivergedError
def descend(leaves: Sequence[Tensor], lr: float, steps: int, loss_at, where,
            record_norms: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Take ``steps`` Adam steps at learning rate ``lr`` on the scalar loss
    ``loss_at(step)`` of ``leaves``; return the loss and gradient-norm
    histories and drop the gradients. The norm is taken after the step,
    which never writes the gradient row: on every step if ``record_norms``,
    else only where the step did not verify that it cannot overflow (0
    elsewhere). A non-finite loss or norm, or a :class:`NumericalError` from
    ``loss_at``, raises :class:`TrainingDivergedError` naming ``where(step)``,
    e.g. ``"step 3 (seed 0, learning_rate 0.001)"``."""
    optimizer = Adam(leaves, lr)
    losses, norms = np.zeros(steps), np.zeros(steps)
    for step in range(steps):
        try:
            loss = loss_at(step)
        except NumericalError as exc:
            raise TrainingDivergedError(step, f"non-finite values at {where(step)}: {exc}") from exc
        losses[step] = loss.value
        if not math.isfinite(losses[step]):
            raise TrainingDivergedError(step, f"non-finite loss {losses[step]} at {where(step)}")
        loss.backward()
        if optimizer.step() and not record_norms:
            continue
        norms[step] = optimizer.grad_norm()
        if not math.isfinite(norms[step]):
            raise TrainingDivergedError(step, f"non-finite gradient norm {norms[step]} at {where(step)}")
    for leaf in optimizer.leaves:  # no consumer reads a trained model's gradients
        leaf.grad = None
    return losses, norms


def batch_embeddings(embed, observations: np.ndarray, rows: np.ndarray) -> Tensor:
    """Rows ``rows[j]`` of the stacked ``observations`` matrix for every
    segment j, gathered position-major in one fancy index and embedded by one
    ``embed`` call: the (positions * segments, K) matrix that
    ``segment_logits`` reads, one block of rows per frame position."""
    return Tensor._lift(embed(observations[rows.T.ravel()]))


def _embed_batch(encoders: Encoders, spec: ObjectiveSpec, dataset: Sequence[Trajectory], rows: np.ndarray,
                 rng) -> tuple[Tensor, Tensor]:
    """The frame matrix and per-row instruction embeddings of a batch of
    (trajectory, start, goal) rows: the frames in one gather and one vision
    pass, each distinct instruction encoded once, in order of first
    appearance. Frame alignment reads one frame per row, drawn uniformly
    over its trajectory."""
    data = stack_dataset(dataset)
    trajectories = rows[:, 0]
    ids = data.instruction_ids[trajectories]
    distinct = ids[np.sort(np.unique(ids, return_index=True)[1])]
    slot = np.empty(len(data.instructions), dtype=np.int64)
    slot[distinct] = np.arange(len(distinct))
    instructions = encode_instructions(encoders.language, [data.instructions[i] for i in distinct.tolist()]
                                       ).take_rows(slot[ids])
    if spec.variant == "frame-align":
        positions = rng.integers(0, data.lengths[trajectories])[:, None]
    else:
        positions = frame_positions(rows[:, 1], rows[:, 2], spec.hops)
    frames = batch_embeddings(lambda obs: encode_observations(encoders.vision, obs), data.observations,
                              data.offsets[trajectories][:, None] + positions)
    return frames, instructions


def default_encoder_config(config: TrainConfig, dataset: Sequence[Trajectory],
                           vocab_size: int | None = None) -> EncoderConfig:
    d_obs = dataset[0].observations.shape[1]
    if vocab_size is None:
        vocab_size = 1 + max(max(t.instruction.verb, t.instruction.obj) for t in dataset)
    return EncoderConfig(d_obs=d_obs, embed_dim=config.objective.embed_dim, vocab_size=vocab_size)


def train(config: TrainConfig, dataset: Sequence[Trajectory], vocab_size: int | None = None) -> Checkpoint:
    """Run the full loop and return the final checkpoint.

    Raises :class:`TrainingDivergedError` naming the iteration, the seed and
    the learning rate if the loss or the gradient norm goes non-finite.
    """
    if len(dataset) == 0:
        raise EmptyInputError("cannot train on an empty dataset")
    data = stack_dataset(dataset)
    enc_config = config.encoder or default_encoder_config(config, data, vocab_size)
    encoders = init_params(enc_config, config.seed)
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0x7E41]))

    def loss_at(it):
        rows = sample_batch(data.lengths, config.batch_size, rng)
        return batch_loss(config.objective, *_embed_batch(encoders, config.objective, data, rows, rng))

    losses, norms = descend(encoders.leaves(), config.learning_rate, config.iterations, loss_at,
                            lambda it: f"iteration {it} (seed {config.seed}, learning_rate {config.learning_rate!r})",
                            record_norms=True)
    history = np.column_stack([np.arange(config.iterations, dtype=np.float64), losses, norms])
    return Checkpoint(encoders=encoders, objective=config.objective, config=config,
                      iteration=config.iterations, history=history)


# ---- checkpoint container -----------------------------------------------------------


def _encoder_config_from_json(d: dict) -> EncoderConfig:
    enc = dict(d)
    enc["vision_hidden"] = tuple(enc["vision_hidden"])
    enc["projection_hidden"] = tuple(enc["projection_hidden"])
    return EncoderConfig(**enc)


# keys of older train configs, each at the one value the code now runs
_RETIRED_KEYS = {"optimizer": "adam", "weight_decay": 0.0, "beta1": 0.9, "beta2": 0.999, "adam_eps": 1e-8}


def _config_from_json(d: dict) -> TrainConfig:
    d = dict(d)
    d.pop("checkpoint_interval", None)  # snapshots never changed a weight
    for key, value in _RETIRED_KEYS.items():
        held = d.pop(key, value)
        if held != value:
            raise CheckpointFormatError(f"retired train_config key {key!r} holds {held!r}, not {value!r}")
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
