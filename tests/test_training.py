"""Unit tests for the training loop, optimizers, and checkpoint container."""

import copy
import gc
import weakref

import numpy as np
import pytest

from segnce.autodiff import Tensor, cosine_similarity, mlp_apply
from segnce.encoders import encode_instructions, encode_observations, init_params
from segnce.errors import CheckpointFormatError, EmptyInputError, ShapeMismatchError, TrainingDivergedError
from segnce.objectives import (
    VARIANTS,
    BatchEmbeddings,
    ObjectiveSpec,
    batch_loss,
    multiframe_transition_reward,
    segment_logits,
    segment_reward_potential,
    segment_reward_transition,
)
from segnce.sampling import Segment, sample_batch
from segnce.training import (
    Adam,
    Sgd,
    TrainConfig,
    _embed_batch,
    default_encoder_config,
    load_checkpoint,
    read_array_archive,
    save_checkpoint,
    train,
    write_array_archive,
)
from segnce.world import World, WorldConfig


@pytest.fixture(scope="module")
def small_dataset():
    return World(WorldConfig()).generate(20, seed=0)


def small_config(**kw):
    defaults = dict(
        objective=ObjectiveSpec(variant="t"), iterations=30, batch_size=8, seed=0
    )
    defaults.update(kw)
    return TrainConfig(**defaults)


class TestOptimizers:
    def test_sgd_step(self):
        leaf = Tensor(np.array([1.0, -2.0]))
        leaf.grad = np.array([0.5, 0.5])
        Sgd([leaf], lr=0.1).step()
        np.testing.assert_allclose(leaf.value, [0.95, -2.05])

    def test_adam_first_step_hand_computed(self):
        # on f(w) = w^2/2 at w0: g = w0; first Adam step with bias correction
        # is lr * g / (|g| + eps) regardless of g's magnitude
        w0 = 3.0
        leaf = Tensor(np.array([w0]))
        leaf.grad = np.array([w0])
        opt = Adam([leaf], lr=0.1, beta1=0.9, beta2=0.999, eps=1e-8)
        opt.step()
        expected = w0 - 0.1 * w0 / (np.sqrt(w0**2) + 1e-8)
        assert leaf.value[0] == pytest.approx(expected, abs=1e-12)

    def test_adam_two_steps_hand_computed(self):
        leaf = Tensor(np.array([1.0]))
        lr, b1, b2, eps = 0.05, 0.9, 0.999, 1e-8
        opt = Adam([leaf], lr=lr, beta1=b1, beta2=b2, eps=eps)
        m = v = 0.0
        w = 1.0
        for t in range(1, 3):
            g = 2 * w  # f(w) = w^2
            leaf.grad = np.array([g])
            opt.step()
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            w = w - lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
            assert leaf.value[0] == pytest.approx(w, abs=1e-12)

    def test_coupled_weight_decay_enters_gradient(self):
        leaf = Tensor(np.array([2.0]))
        leaf.grad = np.array([0.0])
        Sgd([leaf], lr=0.1, weight_decay=0.5).step()
        assert leaf.value[0] == pytest.approx(2.0 - 0.1 * 0.5 * 2.0)


class TestTrainLoop:
    def test_zero_learning_rate_keeps_parameters(self, small_dataset):
        ckpt = train(small_config(learning_rate=0.0), small_dataset)
        fresh = train(small_config(learning_rate=0.0, iterations=1), small_dataset)
        for a, b in zip(ckpt.encoders.leaves(), fresh.encoders.leaves()):
            np.testing.assert_array_equal(a.value, b.value)

    def test_same_seed_identical_loss_curves(self, small_dataset):
        a = train(small_config(), small_dataset)
        b = train(small_config(), small_dataset)
        np.testing.assert_array_equal(a.history, b.history)

    def test_different_seed_differs(self, small_dataset):
        a = train(small_config(), small_dataset)
        b = train(small_config(seed=1), small_dataset)
        assert not np.array_equal(a.history[:, 1], b.history[:, 1])

    def test_history_finite_and_complete(self, small_dataset):
        ckpt = train(small_config(), small_dataset)
        assert ckpt.history.shape == (30, 3)
        assert np.all(np.isfinite(ckpt.history))

    def test_loss_decreases_from_start(self, small_dataset):
        ckpt = train(small_config(iterations=300, batch_size=16), small_dataset)
        assert ckpt.history[-20:, 1].mean() < ckpt.history[0, 1]

    @pytest.mark.parametrize("field", ["learning_rate", "weight_decay"])
    @pytest.mark.parametrize("value", [-1.0, float("nan"), float("inf")])
    def test_config_rejects_negative_or_non_finite(self, field, value):
        with pytest.raises(EmptyInputError, match=field):
            small_config(**{field: value})

    def test_config_names_a_bad_interval_or_width(self):
        with pytest.raises(EmptyInputError, match="checkpoint_interval"):
            small_config(checkpoint_interval=-3)
        with pytest.raises(ShapeMismatchError, match="embed_dim"):
            ObjectiveSpec(embed_dim=0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_abort_names_iteration(self, small_dataset):
        # an absurd learning rate reliably overflows within a few steps
        with pytest.raises(TrainingDivergedError) as excinfo:
            train(small_config(learning_rate=1e150, optimizer="sgd", iterations=50), small_dataset)
        assert "iteration" in str(excinfo.value)

    @pytest.mark.parametrize("variant", ["p", "t4", "frame-align"])
    def test_other_variants_train(self, small_dataset, variant):
        ckpt = train(small_config(objective=ObjectiveSpec(variant=variant), iterations=10), small_dataset)
        assert np.all(np.isfinite(ckpt.history[:, 1]))


def _encoders(dataset, variant):
    spec = ObjectiveSpec(variant=variant)
    return spec, init_params(default_encoder_config(small_config(objective=spec), dataset), seed=0)


class TestLeanGraph:
    def test_graph_freed_without_cyclic_gc(self, small_dataset):
        """A released t8 graph is freed by reference counting alone."""
        spec, enc = _encoders(small_dataset, "t8")
        rng = np.random.default_rng(0)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            batch = _embed_batch(enc, spec, sample_batch(small_dataset, 8, rng), rng)
            interior = weakref.ref(batch.intermediates[4])
            loss = batch_loss(spec, batch)
            del batch
            loss.backward()
            del loss
            assert interior() is None
        finally:
            if was_enabled:
                gc.enable()

    def test_inputs_and_constants_get_no_gradient(self, small_dataset):
        """Only parameters receive gradients, and the parameter gradients equal,
        bit for bit, those of the same graph with a differentiable input."""
        spec, enc = _encoders(small_dataset, "t")
        obs = np.stack([traj.observations[[0, -1]] for traj in small_dataset[:8]], axis=1)
        psi = encode_instructions(enc.language, [t.instruction for t in small_dataset[:8]])

        def parameter_grads(embed):
            batch = BatchEmbeddings(starts=embed(obs[0]), goals=embed(obs[1]), instructions=psi)
            loss = batch_loss(spec, batch)
            loss.backward()
            return loss, [leaf.grad.copy() for leaf in enc.leaves()]

        loss, grads = parameter_grads(lambda o: encode_observations(enc.vision, o))
        params = {id(leaf) for leaf in enc.leaves()}
        leaves = [node for node in loss._topo_order() if not node._parents]
        inputs = [node for node in leaves if node.value.shape == obs[0].shape]
        assert len(inputs) == 2 and len(leaves) > len(params) + 2  # inputs and lifted constants
        for node in leaves:
            if id(node) in params:
                assert node.requires_grad and node.grad is not None
            else:
                assert not node.requires_grad and node.grad is None

        differentiable_inputs = []

        def embed_differentiable(o):
            differentiable_inputs.append(Tensor(o))
            return mlp_apply(enc.vision, differentiable_inputs[-1])

        _, reference = parameter_grads(embed_differentiable)
        assert all(x.requires_grad and x.grad is not None for x in differentiable_inputs)
        for got, want in zip(grads, reference):
            assert np.array_equal(got, want)


@pytest.mark.parametrize("variant", VARIANTS)
def test_stacked_embedding_matches_reference_rewards(small_dataset, variant):
    """One stacked vision pass and the distinct-instruction encoding give the
    logits of the per-vector reference rewards."""
    spec, enc = _encoders(small_dataset, variant)
    rng = np.random.default_rng(1)
    short = Segment(small_dataset[0], 0, 2)  # t8 repeats its frame indices
    segments = [short, *sample_batch(small_dataset, 15, rng)]
    frame_rng = copy.deepcopy(rng)
    batch = _embed_batch(enc, spec, segments, rng)
    logits = segment_logits(spec, batch).value

    def phi(segment, index):
        return encode_observations(enc.vision, segment.trajectory.observations[index]).value

    reward = {
        "p": lambda s, psi: segment_reward_potential(phi(s, s.start), phi(s, s.goal), psi),
        "t": lambda s, psi: segment_reward_transition(phi(s, s.start), phi(s, s.goal), psi),
        "t4": lambda s, psi: multiframe_transition_reward([phi(s, i) for i in s.frame_indices(4)], psi, 4),
        "t8": lambda s, psi: multiframe_transition_reward([phi(s, i) for i in s.frame_indices(8)], psi, 8),
    }.get(variant)
    for j, segment in enumerate(segments):
        if variant == "frame-align":
            frame = phi(segment, frame_rng.integers(0, segment.trajectory.h))
        for i, labelled in enumerate(segments):
            psi = encode_instructions(enc.language, [labelled.instruction]).value[0]
            want = cosine_similarity(frame, psi) if reward is None else reward(segment, psi)
            assert abs(logits[j, i] - want) <= 1e-12

    if variant == "t8":
        hops = [b.value[0] - a.value[0] for a, b in zip(batch.intermediates[:-1], batch.intermediates[1:])]
        index = short.frame_indices(8)
        repeated = [hop for hop, a, b in zip(hops, index[:-1], index[1:]) if a == b]
        assert len(repeated) == 6 and not np.any(repeated)


class TestCheckpointIo:
    def test_round_trip_bit_exact(self, tmp_path, small_dataset):
        ckpt = train(small_config(), small_dataset)
        path = tmp_path / "enc.ckpt"
        save_checkpoint(ckpt, path)
        loaded = load_checkpoint(path)
        for a, b in zip(ckpt.encoders.leaves(), loaded.encoders.leaves()):
            np.testing.assert_array_equal(a.value, b.value)
        np.testing.assert_array_equal(ckpt.history, loaded.history)
        assert loaded.objective == ckpt.objective
        assert loaded.config == ckpt.config
        assert loaded.iteration == ckpt.iteration

    def test_save_is_deterministic(self, tmp_path, small_dataset):
        ckpt = train(small_config(), small_dataset)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(ckpt, p1)
        save_checkpoint(ckpt, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_corrupted_magic_rejected(self, tmp_path, small_dataset):
        ckpt = train(small_config(iterations=2), small_dataset)
        path = tmp_path / "c.ckpt"
        save_checkpoint(ckpt, path)
        data = bytearray(path.read_bytes())
        data[0] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointFormatError, match="magic"):
            load_checkpoint(path)

    def test_truncated_file_rejected(self, tmp_path, small_dataset):
        ckpt = train(small_config(iterations=2), small_dataset)
        path = tmp_path / "t.ckpt"
        save_checkpoint(ckpt, path)
        path.write_bytes(path.read_bytes()[:-16])
        with pytest.raises(CheckpointFormatError, match="truncated|trailing"):
            load_checkpoint(path)

    def test_version_mismatch_rejected(self, tmp_path):
        import struct

        from segnce.training import CHECKPOINT_MAGIC

        path = tmp_path / "v.ckpt"
        path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<I", 99) + struct.pack("<Q", 0))
        with pytest.raises(CheckpointFormatError, match="version"):
            load_checkpoint(path)

    def test_periodic_snapshots_written(self, tmp_path, small_dataset):
        path = tmp_path / "periodic.ckpt"
        config = small_config(iterations=10, checkpoint_interval=4)
        final = train(config, small_dataset, checkpoint_path=path)
        # train() leaves the last interval snapshot on disk; callers persist
        # the final state themselves
        assert load_checkpoint(path).iteration == 8
        save_checkpoint(final, path)
        assert load_checkpoint(path).iteration == 10

    def test_generic_archive_round_trip(self, tmp_path):
        arrays = {"a": np.arange(6.0).reshape(2, 3), "b": np.array(3.5)}
        path = tmp_path / "x.bin"
        write_array_archive(path, {"kind": "test", "note": 1}, arrays)
        meta, loaded = read_array_archive(path, "test")
        assert meta == {"kind": "test", "note": 1}
        np.testing.assert_array_equal(loaded["a"], arrays["a"])
        np.testing.assert_array_equal(loaded["b"], arrays["b"])
        with pytest.raises(CheckpointFormatError, match="kind='test'"):
            read_array_archive(path, "dataset")


    def test_row_blocks_write_their_concatenation(self, tmp_path):
        rng = np.random.default_rng(0)
        blocks = [rng.normal(size=(h, 3)) for h in (2, 5, 1)]
        whole, blocked = tmp_path / "whole.bin", tmp_path / "blocked.bin"
        write_array_archive(whole, {"kind": "test"}, {"n": np.arange(3.0), "m": np.concatenate(blocks)})
        write_array_archive(blocked, {"kind": "test"}, {"n": [np.arange(3.0)], "m": blocks})
        assert blocked.read_bytes() == whole.read_bytes()
        with pytest.raises(ShapeMismatchError, match="'m'"):
            write_array_archive(blocked, {"kind": "test"}, {"m": [blocks[0], np.zeros((2, 4))]})


def _write_raw_archive(path, header: dict) -> None:
    import json
    import struct

    from segnce.training import CHECKPOINT_MAGIC, CHECKPOINT_VERSION

    blob = json.dumps(header).encode("utf-8")
    path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<I", CHECKPOINT_VERSION) + struct.pack("<Q", len(blob)) + blob)


@pytest.mark.parametrize(
    "defect",
    ["no-arrays", "no-meta", "encoder_config", "objective", "train_config", "iteration", "vision/w0",
     "encoder_config=x", "iteration=x", "vision/w0=nan"],
)
def test_malformed_checkpoint_rejected(tmp_path, small_dataset, defect):
    path = tmp_path / "bad.ckpt"
    if defect in ("no-arrays", "no-meta"):
        header = {"meta": {"kind": "encoder-checkpoint"}, "arrays": []}
        del header[defect[3:]]
        _write_raw_archive(path, header)
    else:
        save_checkpoint(train(small_config(iterations=2), small_dataset), path)
        meta, arrays = read_array_archive(path, "encoder-checkpoint")
        key, _, value = defect.partition("=")
        if value == "nan":
            arrays[key][0, 0] = np.nan
        elif key in arrays:
            del arrays[key]
        elif value:
            meta[key] = value
        else:
            del meta[key]
        write_array_archive(path, meta, arrays)
    with pytest.raises(CheckpointFormatError, match="bad.ckpt"):
        load_checkpoint(path)

