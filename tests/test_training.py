"""Unit tests for the training loop, Adam, and checkpoint container."""

import copy
import dataclasses
import gc
import math
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

from segnce.autodiff import Tensor, cosine_similarity, init_mlp, mlp_apply
from segnce.encoders import EncoderConfig, encode_instructions, encode_observations, init_params
from segnce.errors import CheckpointFormatError, EmptyInputError, ShapeMismatchError, TrainingDivergedError
from segnce.objectives import (
    VARIANTS,
    ObjectiveSpec,
    batch_loss,
    multiframe_transition_reward,
    segment_logits,
    segment_reward_potential,
    segment_reward_transition,
)
from segnce import training
from segnce.sampling import Segment, StackedDataset, frame_positions, sample_batch, stack_dataset
from segnce.training import (
    Adam,
    TrainConfig,
    _embed_batch,
    default_encoder_config,
    load_checkpoint,
    read_array_archive,
    save_checkpoint,
    train,
    write_array_archive,
)
from segnce.world import World, WorldConfig, load_dataset, save_dataset

from conftest import per_segment_frame_indices


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
    def test_adam_first_step_hand_computed(self):
        # on f(w) = w^2/2 at w0: g = w0; first Adam step with bias correction
        # is lr * g / (|g| + eps) regardless of g's magnitude
        w0 = 3.0
        leaf = Tensor(np.array([w0]))
        leaf.grad = np.array([w0])
        opt = Adam([leaf], lr=0.1)
        opt.step()
        expected = w0 - 0.1 * w0 / (np.sqrt(w0**2) + 1e-8)
        assert leaf.value[0] == pytest.approx(expected, abs=1e-12)

    def test_adam_two_steps_hand_computed(self):
        leaf = Tensor(np.array([1.0]))
        lr, b1, b2, eps = 0.05, 0.9, 0.999, 1e-8
        opt = Adam([leaf], lr=lr)
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


class ReferenceAdam:
    """Out-of-place Adam, written as the textbook expressions."""

    def __init__(self, values, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.values, self.lr, self.b1, self.b2, self.eps = values, lr, beta1, beta2, eps
        self.t = 0
        self.m = [np.zeros_like(w) for w in values]
        self.v = [np.zeros_like(w) for w in values]

    def step(self, grads):
        self.t += 1
        for i, g in enumerate(grads):
            self.m[i] = self.b1 * self.m[i] + (1 - self.b1) * g
            self.v[i] = self.b2 * self.v[i] + (1 - self.b2) * g * g
            m_hat = self.m[i] / (1 - self.b1**self.t)
            v_hat = self.v[i] / (1 - self.b2**self.t)
            self.values[i] = self.values[i] - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def _adam_run(shapes, steps, kernel):
    """Adam on leaves of ``shapes`` over ``steps`` seeded gradients, on the
    given step path (``None``: the numpy passes); the final values and
    moments, and the textbook reference's."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(training, "_adam_kernel", kernel)
        rng = np.random.default_rng(4)
        leaves = [Tensor(rng.normal(size=shape)) for shape in shapes]
        reference = ReferenceAdam([leaf.value.copy() for leaf in leaves], 0.01)
        opt = Adam(leaves, 0.01)
        for _ in range(steps):
            grads = [rng.normal(size=shape) for shape in shapes]
            for leaf, g in zip(leaves, grads):
                leaf.grad = g
            opt.step()
            reference.step(grads)
        return ([leaf.value for leaf in leaves], [views[2] for views in opt.views],
                [views[3] for views in opt.views], reference)


BC_SHAPES = [(256, 65), (256,), (256, 256), (256,), (2, 256), (2,)]  # the policy MLP [65, 256, 256, 2]


def test_in_place_adam_matches_reference_bit_for_bit():
    """Both step paths, the compiled kernel (where one was built) and the
    numpy passes, on a small arena and on a behavior-cloning-sized one over
    400 steps: past step ~350, where ``1 - 0.9**t`` rounds to 1."""
    for shapes, steps in (([(7, 5), (5,), (), (3, 2, 4), (1,)], 50), (BC_SHAPES, 400)):
        for kernel in (training._adam_kernel, None):
            values, m, v, reference = _adam_run(shapes, steps, kernel)
            for i in range(len(shapes)):
                assert np.array_equal(values[i], reference.values[i])
                assert np.array_equal(m[i], reference.m[i])
                assert np.array_equal(v[i], reference.v[i])


@pytest.mark.parametrize("defect", ["nan", "inf", "above the bound", "at the bound"])
def test_adam_step_reports_whether_the_gradient_norm_cannot_overflow(defect):
    """The kernel's step returns ``True`` when every gradient entry is at
    most sqrt(DBL_MAX / 2n) in magnitude, so that no sum of the n squares
    overflows, and ``False`` otherwise; the numpy passes verify nothing and
    always return ``False``. Values and moments stay bit-equal across the
    paths and the defect, NaN included. Neither path, nor the gradient norm
    taken after the step, writes the gradient row: ``training.descend``
    takes the norm after the step on that ground."""
    shapes = [(7, 5), (5,), (3,)]
    bound = math.sqrt(sys.float_info.max / (2 * 43))
    bad = {"nan": np.nan, "inf": -np.inf, "above the bound": np.nextafter(bound, np.inf),
           "at the bound": -bound}[defect]

    @np.errstate(invalid="ignore")  # inf - inf in the numpy passes
    def run(kernel):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(training, "_adam_kernel", kernel)
            rng = np.random.default_rng(8)
            leaves = [Tensor(rng.normal(size=shape)) for shape in shapes]
            opt = Adam(leaves, 0.01)
            verified = []
            for step in range(4):
                for leaf in leaves:
                    leaf.grad = rng.normal(size=leaf.value.shape)
                if step == 2:
                    leaves[0].grad[3, 1] = bad
                given = b"".join(leaf.grad.tobytes() for leaf in leaves)
                verified.append(opt.step())
                assert opt.rows[1].tobytes() == given
                opt.grad_norm()
                assert opt.rows[1].tobytes() == given
            return verified, b"".join(row.tobytes() for row in opt.rows[:4])

    numpy_verified, numpy_rows = run(None)
    assert numpy_verified == [False] * 4
    if training._adam_kernel is None:
        pytest.skip("no compiled Adam kernel was built")
    kernel_verified, kernel_rows = run(training._adam_kernel)
    assert kernel_verified == [True, True, defect == "at the bound", True]
    assert kernel_rows == numpy_rows


def every_binade(rng, size, lowest=-1074, highest=600):
    """Signed values with exponents drawn uniformly over [lowest, highest]
    (subnormals below -1022), one in eight of them +0 or -0."""
    values = np.ldexp(rng.uniform(1.0, 2.0, size), rng.integers(lowest, highest + 1, size))
    values *= rng.choice([-1.0, 1.0], size)
    values[rng.random(size) < 1 / 8] = 0.0
    values[rng.random(size) < 1 / 16] = -0.0
    return values


@np.errstate(all="ignore")  # the wide gradients and extreme moments overflow and make NaN, on both paths alike
def test_adam_kernel_matches_numpy_on_every_binade():
    """Over 400 steps (past the step where ``1 - 0.9**t`` rounds to 1) the
    kernel's value and moment rows equal the numpy passes' byte for byte
    after every step. The leaves take normal gradients; gradients over
    binades -1074..480, subnormals included, whose squares stay finite;
    gradients over every binade, which overflow; and gradients of magnitude
    1/4 to 8 on moments written before the first step at 2^-960 and 2^1000,
    their outer neighbours, DBL_MAX, the smallest subnormal, 0, inf and NaN,
    each with both signs. The last three draws hold +0 and -0."""
    if training._adam_kernel is None:
        pytest.skip("no compiled Adam kernel was built")
    tiny, huge = 2.0 ** -960, 2.0 ** 1000
    edges = np.array([tiny, np.nextafter(tiny, 0.0), huge, np.nextafter(huge, np.inf), sys.float_info.max,
                      5e-324, 0.0, np.inf, np.nan])
    edges = np.concatenate([edges, -edges])
    rng = np.random.default_rng(31)
    leaves = [((2, 256), lambda: rng.normal(size=(2, 256))),
              ((513,), lambda: every_binade(rng, 513, highest=480)),
              ((512,), lambda: every_binade(rng, 512)),
              (edges.shape, lambda: every_binade(rng, edges.size, -2, 2))]
    start = [rng.normal(size=shape) for shape, _ in leaves]
    optimizers = {path: Adam([Tensor(value.copy()) for value in start], 1e-3) for path in ("kernel", "numpy")}
    for opt in optimizers.values():
        opt.views[-1][2][:] = edges
        opt.views[-1][3][:] = edges
    for step in range(400):
        grads = [gradients() for _, gradients in leaves]
        for path, opt in optimizers.items():
            for leaf, g in zip(opt.leaves, grads):
                leaf.grad = g.copy()
            with pytest.MonkeyPatch.context() as patch:
                if path == "numpy":
                    patch.setattr(training, "_adam_kernel", None)
                opt.step()
        kernel_rows, numpy_rows = ([row.tobytes() for row in opt.rows[:4]] for opt in optimizers.values())
        assert kernel_rows == numpy_rows, f"step {step + 1}"


def on_both_adam_paths(run):
    """``run()``'s result with the loaded Adam kernel, then on the numpy passes."""
    kernel_result = run()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(training, "_adam_kernel", None)
        return kernel_result, run()


@pytest.mark.parametrize("variant", VARIANTS)
def test_adam_paths_train_bit_for_bit_alike(small_dataset, variant):
    """Whole runs: the same loss and gradient norm histories and the same
    weights on either Adam step path."""
    config = small_config(objective=ObjectiveSpec(variant=variant))
    kernel_run, numpy_run = on_both_adam_paths(lambda: train(config, small_dataset))
    assert kernel_run.history.tobytes() == numpy_run.history.tobytes()
    for a, b in zip(kernel_run.encoders.leaves(), numpy_run.encoders.leaves()):
        assert a.value.tobytes() == b.value.tobytes()


class TestAllocation:
    """A behavior-cloning-sized step allocates no parameter-sized temporary."""

    @staticmethod
    def _setup():
        rng = np.random.default_rng(0)
        mlp = init_mlp([65, 256, 256, 2], rng)
        x, y = rng.normal(size=(16, 65)), rng.normal(size=(16, 2))
        opt = Adam(mlp.leaves(), 1e-4)

        def forward_backward():
            err = mlp_apply(mlp, x) - y
            (err * err).sum().backward()

        for _ in range(2):  # warm-up: gradient buffers and moments exist
            forward_backward()
            opt.step()
        return opt, forward_backward

    @staticmethod
    def _peak_bytes(fn):
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            fn()
            return tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()

    def test_adam_step_allocates_under_4_kb(self):
        opt, forward_backward = self._setup()
        forward_backward()
        assert self._peak_bytes(opt.step) < 4 * 1024

    def test_forward_and_backward_stay_under_1_mb(self):
        _, forward_backward = self._setup()
        assert self._peak_bytes(forward_backward) < 1024 * 1024


def _buffer_owner(array: np.ndarray) -> np.ndarray:
    """The array that owns ``array``'s memory, which a view keeps alive."""
    while array.base is not None:
        array = array.base
    return array


def assert_owns_only_its_weights(leaves, optimizer):
    """The trained leaves hold no gradient, and no leaf value keeps the
    buffer of any arena row but the value row alive (gradients, moments,
    scratch)."""
    for leaf in leaves:
        assert leaf.grad is None
        assert not any(np.shares_memory(_buffer_owner(leaf.value), row) for row in optimizer.rows[1:])


def test_trained_model_owns_only_its_weights(small_dataset, monkeypatch):
    made = []

    def recording(*args):
        made.append(Adam(*args))
        return made[-1]

    monkeypatch.setattr(training, "Adam", recording)
    ckpt = train(small_config(iterations=3), small_dataset)
    assert_owns_only_its_weights(ckpt.encoders.leaves(), made[0])


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

    @pytest.mark.parametrize("field", ["learning_rate"])
    @pytest.mark.parametrize("value", [-1.0, float("nan"), float("inf")])
    def test_config_rejects_negative_or_non_finite(self, field, value):
        with pytest.raises(EmptyInputError, match=field):
            small_config(**{field: value})

    def test_config_takes_only_the_adam_optimizer_and_stores_none(self):
        config = small_config(optimizer="adam")
        assert config == small_config() and "optimizer" not in dataclasses.asdict(config)
        assert dataclasses.replace(config, seed=1) == small_config(seed=1)
        with pytest.raises(EmptyInputError, match="optimizer 'sgd'"):
            small_config(optimizer="sgd")

    def test_config_names_a_bad_width(self):
        with pytest.raises(ShapeMismatchError, match="embed_dim"):
            ObjectiveSpec(embed_dim=0)

    def test_config_refuses_encoder_wider_or_narrower_than_objective(self):
        """An encoder config must embed into the objective's width, or the
        checkpoint would record a width its encoders do not have."""
        with pytest.raises(ShapeMismatchError, match="embed_dim"):
            TrainConfig(encoder=EncoderConfig(embed_dim=4), objective=ObjectiveSpec(embed_dim=32))
        assert TrainConfig(encoder=EncoderConfig(embed_dim=4), objective=ObjectiveSpec(embed_dim=4)).encoder

    def test_nan_abort_names_iteration(self, small_dataset):
        # an absurd learning rate reliably overflows within a few steps
        with pytest.raises(TrainingDivergedError) as excinfo:
            train(small_config(learning_rate=1e150, iterations=50), small_dataset)
        assert "iteration" in str(excinfo.value)

    def test_non_finite_gradient_norm_names_iteration_seed_and_learning_rate(self, small_dataset, monkeypatch):
        norms = iter([1.0, 2.0, float("inf")])
        monkeypatch.setattr(training.Adam, "grad_norm", lambda optimizer: next(norms))
        with pytest.raises(TrainingDivergedError, match=r"gradient norm inf at iteration 2 \(seed 0, learning_rate 0\.001\)") as excinfo:
            train(small_config(iterations=5), small_dataset)
        assert excinfo.value.iteration == 2

    @pytest.mark.parametrize("variant", ["p", "t4", "frame-align"])
    def test_other_variants_train(self, small_dataset, variant):
        ckpt = train(small_config(objective=ObjectiveSpec(variant=variant), iterations=10), small_dataset)
        assert np.all(np.isfinite(ckpt.history[:, 1]))


class TestStackedDataset:
    def test_mixed_observation_widths_refused_before_iteration_0(self, small_dataset, monkeypatch):
        """Trajectories of two observation widths are refused when ``train``
        stacks them, naming the first that differs, before any batch is drawn."""
        narrow = World(WorldConfig(d_obs=31)).generate(2, seed=1)
        dataset = [*small_dataset[:5], narrow[0], *small_dataset[5:], narrow[1]]

        def no_batches(*args):
            raise AssertionError("a batch was drawn")

        monkeypatch.setattr(training, "sample_batch", no_batches)
        with pytest.raises(ShapeMismatchError, match="trajectory 5 has observation width 31, trajectory 0 has 32"):
            train(small_config(iterations=1), dataset)

    def test_loaded_dataset_trains_as_the_generated_list(self, tmp_path, small_dataset):
        """A loaded dataset is used as stacked, with no second copy of its
        frames, and trains bit for bit as the list it was saved from."""
        save_dataset(tmp_path / "data.bin", WorldConfig(), small_dataset)
        _, loaded = load_dataset(tmp_path / "data.bin")
        assert isinstance(loaded, StackedDataset) and stack_dataset(loaded) is loaded
        assert all(np.shares_memory(traj.observations, loaded.observations) for traj in loaded)
        for variant in ("t", "frame-align"):
            config = small_config(objective=ObjectiveSpec(variant=variant), iterations=10)
            a, b = train(config, small_dataset), train(config, loaded)
            assert a.history.tobytes() == b.history.tobytes()
            for x, y in zip(a.encoders.leaves(), b.encoders.leaves()):
                assert x.value.tobytes() == y.value.tobytes()

    def test_batch_encodes_distinct_instructions_in_first_appearance_order(self, small_dataset, monkeypatch):
        spec, enc = _encoders(small_dataset, "t")
        seen = []

        def recording(params, instructions):
            seen.append(list(instructions))
            return encode_instructions(params, instructions)

        monkeypatch.setattr(training, "encode_instructions", recording)
        rng = np.random.default_rng(4)
        for _ in range(5):
            rows = sample_batch(lengths(small_dataset), 16, rng)
            _, instructions = _embed_batch(enc, spec, small_dataset, rows, rng)
            labels = [small_dataset[t].instruction for t in rows[:, 0].tolist()]
            assert seen.pop() == list(dict.fromkeys(labels))
            assert np.array_equal(instructions.value, encode_instructions(enc.language, labels).value)


def lengths(dataset):
    return np.array([traj.h for traj in dataset])


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
            rows = sample_batch(lengths(small_dataset), 8, rng)
            frames, instructions = _embed_batch(enc, spec, small_dataset, rows, rng)
            interior = weakref.ref(frames)
            loss = batch_loss(spec, frames, instructions)
            del frames, instructions
            loss.backward()
            del loss
            assert interior() is None
        finally:
            if was_enabled:
                gc.enable()

    def test_hop_count_adds_no_graph_node(self, small_dataset):
        """Every hop's displacement is one row-offset subtraction over the
        stacked frame matrix, so the t, t4 and t8 loss graphs have the same
        node count, and frame alignment scores that matrix unsliced."""
        graphs = {}
        for variant in ("t", "t4", "t8", "frame-align"):
            spec, enc = _encoders(small_dataset, variant)
            rng = np.random.default_rng(0)
            rows = sample_batch(lengths(small_dataset), 8, rng)
            graphs[variant] = batch_loss(spec, *_embed_batch(enc, spec, small_dataset, rows, rng))._topo_order()
        assert len(graphs["t"]) == len(graphs["t4"]) == len(graphs["t8"])
        assert not [node for node in graphs["frame-align"]
                    if node._backward is not None and node._backward.__qualname__.startswith("Tensor.slice_rows.")]

    def test_inputs_and_constants_get_no_gradient(self, small_dataset):
        """Only parameters receive gradients, and the parameter gradients equal,
        bit for bit, those of the same graph with a differentiable input."""
        spec, enc = _encoders(small_dataset, "t")
        obs = np.stack([traj.observations[i] for i in (0, -1) for traj in small_dataset[:8]])  # starts, goals
        psi = encode_instructions(enc.language, [t.instruction for t in small_dataset[:8]])

        def parameter_grads(embed):
            loss = batch_loss(spec, embed(obs), psi)
            loss.backward()
            return loss, [leaf.grad.copy() for leaf in enc.leaves()]

        loss, grads = parameter_grads(lambda o: encode_observations(enc.vision, o))
        params = {id(leaf) for leaf in enc.leaves()}
        leaves = [node for node in loss._topo_order() if not node._parents]
        inputs = [node for node in leaves if node.value.shape == obs.shape]
        assert len(inputs) == 1 and len(leaves) > len(params) + 2  # the input and lifted constants
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
    # the first row is short enough that t8 repeats its frame positions
    rows = np.vstack([[0, 0, 2], sample_batch(lengths(small_dataset), 15, rng)])
    segments = [Segment(small_dataset[t], start, goal) for t, start, goal in rows.tolist()]
    frame_rng = copy.deepcopy(rng)
    frames, instructions = _embed_batch(enc, spec, small_dataset, rows, rng)
    logits = segment_logits(spec, frames, instructions).value

    def phi(segment, index):
        return encode_observations(enc.vision, segment.trajectory.observations[index]).value

    def hop_frames(segment, k):
        return frame_positions([segment.start], [segment.goal], k)[0]

    reward = {
        "p": lambda s, psi: segment_reward_potential(phi(s, s.start), phi(s, s.goal), psi),
        "t": lambda s, psi: segment_reward_transition(phi(s, s.start), phi(s, s.goal), psi),
        "t4": lambda s, psi: multiframe_transition_reward([phi(s, i) for i in hop_frames(s, 4)], psi, 4),
        "t8": lambda s, psi: multiframe_transition_reward([phi(s, i) for i in hop_frames(s, 8)], psi, 8),
    }.get(variant)
    for j, segment in enumerate(segments):
        if variant == "frame-align":
            frame = phi(segment, frame_rng.integers(0, segment.trajectory.h))
        for i, labelled in enumerate(segments):
            psi = encode_instructions(enc.language, [labelled.instruction]).value[0]
            want = cosine_similarity(frame, psi) if reward is None else reward(segment, psi)
            assert abs(logits[j, i] - want) <= 1e-12

    if variant == "t8":
        hops = np.diff(frames.value[::len(rows)], axis=0)
        index = hop_frames(segments[0], 8)
        repeated = [hop for hop, a, b in zip(hops, index[:-1], index[1:]) if a == b]
        assert len(repeated) == 6 and not np.any(repeated)


def per_segment_frames(spec, segments, rng):
    """The per-segment reference gather: each segment's own frame indices (for
    frame alignment one scalar draw per slot), gathered segment by segment
    and stacked position-major into one (positions * B, d_obs) matrix."""
    if spec.variant == "frame-align":
        positions = [[rng.integers(0, s.trajectory.h)] for s in segments]
    else:
        positions = [per_segment_frame_indices(s.start, s.goal, spec.hops) for s in segments]
    frames = np.stack([s.trajectory.observations[p] for s, p in zip(segments, positions)], axis=1)
    return frames.reshape(-1, frames.shape[2])


@pytest.mark.parametrize("config", [WorldConfig(), WorldConfig(h_min=2, h_max=2), WorldConfig(h_min=2, h_max=5)])
@pytest.mark.parametrize("variant", VARIANTS)
def test_embedded_frames_equal_per_segment_reference(monkeypatch, config, variant):
    """``_embed_batch`` embeds, bit for bit, the frames of the per-segment
    reference gather, and consumes the random stream as it does."""
    dataset = World(config).generate(12, seed=3)
    spec, enc = _encoders(dataset, variant)
    seen = []

    def recording(params, obs):
        seen.append(obs.copy())
        return encode_observations(params, obs)

    monkeypatch.setattr(training, "encode_observations", recording)
    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)
        rows = sample_batch(lengths(dataset), 16, rng)
        ref_rng = copy.deepcopy(rng)
        frames, _ = _embed_batch(enc, spec, dataset, rows, rng)
        segments = [Segment(dataset[t], start, goal) for t, start, goal in rows.tolist()]
        want = per_segment_frames(spec, segments, ref_rng)
        assert np.array_equal(seen.pop(), want)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        embedded = encode_observations(enc.vision, want).value
        assert frames.shape == (spec.n_frames * 16, enc.config.embed_dim)
        assert np.array_equal(frames.value, embedded)


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



@pytest.mark.parametrize("retired, refusal", [
    ({"optimizer": "adam", "weight_decay": 0.0, "beta1": 0.9, "beta2": 0.999, "adam_eps": 1e-8,
      "checkpoint_interval": 0}, None),
    ({"checkpoint_interval": 20}, None),
    ({"weight_decay": 0.01}, "'weight_decay' holds 0.01,"),
    ({"beta1": 0.8}, "'beta1' holds 0.8,"),
    ({"optimizer": "sgd"}, "'optimizer' holds 'sgd',"),
], ids=["defaults", "checkpoint_interval=20", "weight_decay=0.01", "beta1=0.8", "optimizer=sgd"])
def test_older_checkpoint_loads_retired_defaults_and_names_the_rest(tmp_path, small_dataset, retired, refusal):
    """An older header holds the train_config keys of Adam's settings, the
    optimizer and the snapshot interval. At the values the code now runs (any
    interval: snapshots never changed a weight) it loads to the config it
    was trained with; any other value is refused by key and value."""
    ckpt = train(small_config(iterations=2), small_dataset)
    path = tmp_path / "old.ckpt"
    save_checkpoint(ckpt, path)
    meta, arrays = read_array_archive(path, "encoder-checkpoint")
    meta["train_config"].update(retired)
    write_array_archive(path, meta, arrays)
    if refusal is None:
        assert load_checkpoint(path).config == ckpt.config
    else:
        with pytest.raises(CheckpointFormatError, match=f"old.ckpt: .*{refusal}"):
            load_checkpoint(path)
