"""Unit tests for the reverse-mode core: operators, similarity, log-sum-exp,
the MLP, leaf gradient buffers, and the finite-difference checker."""

import numpy as np
import pytest

from segnce.autodiff import (
    MlpParams,
    Tensor,
    concat_rows,
    cosine_matrix,
    cosine_similarity,
    init_mlp,
    logsumexp,
    mlp_apply,
    mse,
    no_grad,
    normalize_rows,
)
from segnce.encoders import EncoderConfig, Instruction, encode_instructions, init_params
from segnce.errors import EmptyInputError, GraphError, NumericalError, ShapeMismatchError

from conftest import finite_difference_check, reference_mlp


class TestCosineSimilarity:
    def test_identical_unit_vectors(self):
        assert cosine_similarity([1.0, 0.0], [1.0, 0.0]) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert cosine_similarity([1.0, 0.0], [0.0, 1.0]) == pytest.approx(0.0)

    def test_antiparallel(self):
        assert cosine_similarity([3.0, 4.0], [-3.0, -4.0]) == pytest.approx(-1.0)

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeMismatchError, match=r"\(2,\).*\(3,\)"):
            cosine_similarity([1.0, 0.0], [1.0, 0.0, 0.0])

    def test_zero_vector_convention(self):
        # eps floor turns the degenerate case into ~0 instead of dividing by 0
        assert cosine_similarity([0.0, 0.0], [1.0, 2.0]) == 0.0

    def test_bounded_on_random_pairs(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            a, b = rng.normal(size=5), rng.normal(size=5)
            assert -1.0 - 1e-12 <= cosine_similarity(a, b) <= 1.0 + 1e-12

    def test_gradient_of_self_similarity_is_zero(self):
        # cos(a, a) is constant 1, so its gradient must vanish
        a = Tensor(np.array([[0.3, -1.2, 2.0]]))
        out = cosine_matrix(a, a).sum()
        assert float(out) == pytest.approx(1.0)
        out.backward()
        np.testing.assert_allclose(a.grad, 0.0, atol=1e-12)


class TestLogsumexp:
    def test_two_zeros(self):
        assert float(logsumexp([0.0, 0.0])) == pytest.approx(np.log(2.0))

    def test_shift_invariance_large(self):
        assert float(logsumexp([1000.0, 1000.0])) == pytest.approx(1000.0 + np.log(2.0))

    def test_singleton(self):
        assert float(logsumexp([0.0])) == 0.0

    def test_empty_raises(self):
        with pytest.raises(EmptyInputError):
            logsumexp([])

    def test_shift_invariance_property(self):
        # dyadic inputs and exactly representable shifts keep the input
        # addition error-free, isolating the algebraic identity
        rng = np.random.default_rng(11)
        for shift in (2.0**20, 1e6, -1e6, 2.0**-10):
            xs = np.round(rng.normal(size=7) * 2**20) / 2**20
            assert abs(float(logsumexp(xs + shift)) - (float(logsumexp(xs)) + shift)) < 1e-12

    def test_tensor_gradient_is_softmax(self):
        x = Tensor(np.array([0.5, -0.3]))
        out = logsumexp(x)
        out.backward()
        soft = np.exp(x.value - float(logsumexp(x.value)))
        np.testing.assert_allclose(x.grad, soft, atol=1e-12)
        assert x.grad.sum() == pytest.approx(1.0)

    def test_axis_version_matches_scalar_version(self):
        rng = np.random.default_rng(12)
        m = rng.normal(size=(4, 5))
        rows = logsumexp(Tensor(m), axis=1)
        for i in range(4):
            assert rows.value[i] == pytest.approx(float(logsumexp(m[i])))


class TestBackward:
    def test_quadratic(self):
        x = Tensor(3.0)
        y = x * x
        y.backward()
        assert float(x.grad) == pytest.approx(6.0)

    def test_non_scalar_root_raises(self):
        x = Tensor(np.array([1.0, 2.0]))
        with pytest.raises(GraphError):
            (x * x).backward()

    def test_fanout_accumulates_both_paths(self):
        # f(x) = x*x + exp(x): hand derivative 2x + e^x
        x = Tensor(1.5)
        y = x * x + x.exp()
        y.backward()
        assert float(x.grad) == pytest.approx(2 * 1.5 + np.exp(1.5), rel=1e-12)

    def test_grads_reset_between_passes(self):
        x = Tensor(2.0)
        y = x * x
        y.backward()
        first = float(x.grad)
        y.backward()
        assert float(x.grad) == first

    def test_matmul_and_broadcast_bias(self):
        rng = np.random.default_rng(5)
        w = Tensor(rng.normal(size=(3, 4)))
        b = Tensor(rng.normal(size=3))
        x = Tensor(rng.normal(size=(6, 4)))
        out = ((x @ w.T + b) * (x @ w.T + b)).sum()
        out.backward()
        assert w.grad.shape == (3, 4)
        assert b.grad.shape == (3,)

    def test_take_rows_duplicate_indices_accumulate(self):
        t = Tensor(np.eye(3))
        rows = t.take_rows([1, 1])
        rows.sum().backward()
        assert t.grad[1].sum() == pytest.approx(2 * 3)

    def test_row_slices_and_concatenation_gradients(self):
        weights = np.arange(1.0, 13.0).reshape(4, 3)

        def f(theta):
            m = theta.reshape((4, 3))
            parts = concat_rows([m.slice_rows(2, 4), m.slice_rows(0, 1) * m.slice_rows(1, 2), np.ones((1, 3))])
            return (parts * parts * weights).sum()

        assert finite_difference_check(f, np.linspace(-1.0, 1.0, 12), step=1e-6) <= 1e-6

    def test_leaf_rejects_nonfinite(self):
        with pytest.raises(NumericalError):
            Tensor(np.array([1.0, np.nan]))

    def test_leaf_buffer_kept_and_zeroed_across_passes(self):
        rng = np.random.default_rng(9)
        w0, x = rng.normal(size=(3, 4)), Tensor(rng.normal(size=(5, 4)), requires_grad=False)
        w = Tensor(w0.copy())
        (x @ w.T).exp().sum().backward()
        buffer = w.grad
        ((x @ w.T) * (x @ w.T)).sum().backward()
        fresh = Tensor(w0.copy())
        ((x @ fresh.T) * (x @ fresh.T)).sum().backward()
        assert w.grad is buffer
        assert np.array_equal(w.grad, fresh.grad)


class TestFusedMlp:
    """``mlp_apply`` is one node whose value and gradients (input, every
    weight, every bias) are, bit for bit, those of the per-layer composite.

    A vector runs as a one-row matrix, so it is checked bit for bit against
    the composite fed that one-row matrix. Against the composite fed the
    vector itself it is equal as numbers: there a weight gradient is an
    outer product, which keeps the sign of a zero product, where a one-row
    matrix product gives +0.
    """

    @staticmethod
    def _values_and_grads(apply, widths, x0, input_grad, c):
        params = init_mlp(widths, np.random.default_rng(13))
        x = Tensor(x0.copy(), requires_grad=input_grad)
        out = apply(params, x)
        (out * c).sum().backward()
        grads = [out.value, x.grad] if input_grad else [out.value]
        return [*grads, *(leaf.grad for leaf in params.leaves())]

    @pytest.mark.parametrize("input_grad", [True, False], ids=["input-grad", "constant-input"])
    @pytest.mark.parametrize("x_shape", [(5,), (6, 5)], ids=["vector", "matrix"])
    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_matches_composite_bit_for_bit(self, layers, x_shape, input_grad):
        rng = np.random.default_rng(11)
        widths = [5, 7, 4, 3][: layers] + [3]
        x0 = rng.normal(size=x_shape)
        c = rng.normal(size=(*x_shape[:-1], 3))
        fused = self._values_and_grads(mlp_apply, widths, x0, input_grad, c)
        reference = self._values_and_grads(reference_mlp, widths, x0, input_grad, c)
        if x0.ndim == 1:
            for got, want in zip(fused, reference):
                assert got.shape == want.shape and np.array_equal(got, want)
            one_row = self._values_and_grads(reference_mlp, widths, x0[None], input_grad, c[None])
            reference = [*(a[0] for a in one_row[: 1 + input_grad]), *one_row[1 + input_grad:]]
        for got, want in zip(fused, reference):
            assert_bits_equal(got, want)

    @pytest.mark.parametrize("x_shape", [(4,), (6, 4)], ids=["vector", "matrix"])
    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_central_differences(self, layers, x_shape):
        rng = np.random.default_rng(12)
        widths = [4, 5, 3, 2][: layers] + [2]
        shapes = [x_shape, *((o, i) for i, o in zip(widths[:-1], widths[1:])), *((o,) for o in widths[1:])]
        sizes = [int(np.prod(shape)) for shape in shapes]
        theta = rng.normal(size=sum(sizes))
        c = rng.normal(size=(*x_shape[:-1], 2))

        def f(t):
            bounds = np.cumsum([0, *sizes])
            x, *pieces = [t.slice_rows(lo, hi).reshape(shape)
                          for lo, hi, shape in zip(bounds[:-1], bounds[1:], shapes)]
            params = MlpParams(widths=widths, weights=pieces[:layers], biases=pieces[layers:])
            return (mlp_apply(params, x).exp() * c).sum()

        assert finite_difference_check(f, theta, step=1e-6) <= 1e-6

    def test_one_call_records_one_node(self):
        params = init_mlp([4, 6, 5, 3], np.random.default_rng(14))
        x = Tensor(np.ones((7, 4)))
        out = mlp_apply(params, x)
        assert out._parents == (x, *params.weights, *params.biases)
        assert [node for node in out._topo_order() if node._parents] == [out]


class TestLeafGradientBuffers:
    """A backward pass writes a leaf's first contribution over its stale
    buffer, adds the rest, and zeroes a buffer that gets none."""

    def test_reachable_leaf_without_contribution_reads_zeros(self):
        params = init_mlp([4, 5, 2], np.random.default_rng(15))
        x = np.random.default_rng(16).normal(size=(6, 4))
        mlp_apply(params, x).exp().sum().backward()
        frozen = params.weights[0]
        buffer = frozen.grad
        assert np.any(buffer)
        frozen.requires_grad = False  # frozen between passes: still a parent of the node, fed nothing
        mlp_apply(params, x).exp().sum().backward()
        assert frozen.grad is buffer and not np.any(frozen.grad)
        assert all(np.any(leaf.grad) for leaf in params.leaves() if leaf is not frozen)

    def test_leaf_fed_by_two_nodes_accumulates_both_into_its_buffer(self):
        rng = np.random.default_rng(16)
        x1, x2 = rng.normal(size=(6, 4)), rng.normal(size=(3, 4))
        c1, c2 = rng.normal(size=(6, 2)), rng.normal(size=(3, 2))

        def grads(apply, stale):
            params = init_mlp([4, 5, 2], np.random.default_rng(17))
            if stale:  # a first pass leaves a buffer on every leaf
                (apply(params, x2) * c2).sum().backward()
            buffers = [leaf.grad for leaf in params.leaves()]
            ((apply(params, x1) * c1).sum() + (apply(params, x2) * c2).sum()).backward()
            assert all(leaf.grad is buffer for leaf, buffer in zip(params.leaves(), buffers) if stale)
            return [leaf.grad for leaf in params.leaves()]

        fused = grads(mlp_apply, stale=True)
        reference = grads(reference_mlp, stale=False)
        for got, want in zip(fused, reference):
            assert_bits_equal(got, want)

    def test_take_rows_scatters_into_stale_token_table(self):
        config = EncoderConfig(d_obs=4, embed_dim=3, vision_hidden=(4,), token_dim=4,
                               projection_hidden=(5,), vocab_size=6)
        weights = np.random.default_rng(18).normal(size=(4, 3))

        def table_grad(enc, instructions):
            (encode_instructions(enc.language, instructions) * weights[: len(instructions)]).sum().backward()
            return enc.language.table.grad

        enc, fresh = init_params(config, 3), init_params(config, 3)
        buffer = table_grad(enc, [Instruction(0, 4), Instruction(1, 5), Instruction(2, 4), Instruction(3, 5)])
        before = buffer.copy()
        second = table_grad(enc, [Instruction(0, 5), Instruction(0, 5)])  # rows 1-4 of the table go untouched
        assert second is buffer and not np.array_equal(second, before)
        assert_bits_equal(second, table_grad(fresh, [Instruction(0, 5), Instruction(0, 5)]))


def reference_cosine_matrix(a, b):
    """The composite graph that the fused cosine node reproduces."""
    return normalize_rows(a) @ normalize_rows(b).T


def assert_bits_equal(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestFusedCosineMatrix:
    """``cosine_matrix`` is one node whose value and input gradients are, bit
    for bit, those of the ``normalize_rows`` composite."""

    @staticmethod
    def _values_and_grads(cos, frames, instructions, weights):
        """``sum(weights * logits)`` over the logits of every frame matrix
        against one shared instruction matrix (two frame matrices: the ``p``
        form), with the value and the gradient of every input."""
        xs = [Tensor(f.copy()) for f in frames]
        ins = Tensor(instructions.copy())
        logits = cos(xs[-1], ins)
        if len(xs) == 2:
            logits = logits - cos(xs[0], ins)
        (logits * weights).sum().backward()
        return [logits.value, ins.grad, *(x.grad for x in xs)]

    @pytest.mark.parametrize("case", ["random", "zero-norm-rows", "shared-instructions"])
    def test_matches_composite_bit_for_bit(self, case):
        rng = np.random.default_rng(21)
        frames = [rng.normal(size=(6, 5)) for _ in range(2 if case == "shared-instructions" else 1)]
        instructions = rng.normal(size=(4, 5))
        if case == "zero-norm-rows":  # both inputs take the COSINE_EPS floor branch
            frames[0][2] = 0.0
            instructions[1] = 0.0
        weights = rng.normal(size=(6, 4))
        fused = self._values_and_grads(cosine_matrix, frames, instructions, weights)
        reference = self._values_and_grads(reference_cosine_matrix, frames, instructions, weights)
        for got, want in zip(fused, reference):
            assert_bits_equal(got, want)

    def test_is_one_node(self):
        a, b = Tensor(np.ones((2, 3))), Tensor(np.eye(3))
        assert cosine_matrix(a, b)._parents == (a, b)

    def test_no_grad_records_nothing_and_matches_composite(self):
        rng = np.random.default_rng(22)
        a, b = Tensor(rng.normal(size=(5, 3))), Tensor(rng.normal(size=(4, 3)))
        with no_grad():
            frozen = cosine_matrix(a, b)
        assert not frozen.requires_grad and frozen._parents == () and frozen._backward is None
        assert_bits_equal(frozen.value, reference_cosine_matrix(a, b).value)


class TestMseNode:
    """``mse`` is one node whose value and ``pred`` gradient are, bit for bit,
    those of the composite ``((pred - y) * (pred - y)).sum() * (1 / n)``."""

    @pytest.mark.parametrize("batch", [1, 16, 917])
    def test_matches_composite_bit_for_bit(self, batch):
        rng = np.random.default_rng(batch)
        for _ in range(10):  # where 1/n is inexact, a sum / n would differ in some draws
            values, target = rng.normal(size=(batch, 2)), rng.normal(size=(batch, 2))
            fused, composite = Tensor(values.copy()), Tensor(values.copy())
            loss = mse(fused, target)
            err = composite - target
            reference = (err * err).sum() * (1.0 / err.value.size)
            loss.backward()
            reference.backward()
            assert loss._parents == (fused,)
            assert_bits_equal(loss.value, reference.value)
            assert_bits_equal(fused.grad, composite.grad)

    def test_non_finite_target_raises(self):
        with pytest.raises(NumericalError):
            mse(Tensor(np.zeros(3)), np.array([0.0, np.inf, 0.0]))


class TestMlp:
    def test_zero_params_give_zero_output(self):
        rng = np.random.default_rng(0)
        params = init_mlp([4, 3, 2], rng)
        for leaf in params.leaves():
            leaf.value[...] = 0.0
        out = mlp_apply(params, np.ones(4))
        np.testing.assert_array_equal(out.value, np.zeros(2))

    def test_single_identity_layer(self):
        params = MlpParams(widths=[2, 2], weights=[Tensor(np.eye(2))], biases=[Tensor(np.zeros(2))])
        np.testing.assert_allclose(mlp_apply(params, np.array([1.0, 2.0])).value, [1.0, 2.0])

    def test_negating_hidden_layer_hand_computed(self):
        # W1 = -I zeroes the positive input through the rectifier:
        # x = (1, -1) -> pre = (-1, 1) -> relu = (0, 1) -> identity out = (0, 1)
        params = MlpParams(
            widths=[2, 2, 2],
            weights=[Tensor(-np.eye(2)), Tensor(np.eye(2))],
            biases=[Tensor(np.zeros(2)), Tensor(np.zeros(2))],
        )
        np.testing.assert_allclose(mlp_apply(params, np.array([1.0, -1.0])).value, [0.0, 1.0])

    def test_width_mismatch_raises(self):
        params = init_mlp([4, 3, 2], np.random.default_rng(0))
        with pytest.raises(ShapeMismatchError):
            mlp_apply(params, np.ones(5))

    def test_batch_matches_single(self):
        rng = np.random.default_rng(1)
        params = init_mlp([5, 8, 3], rng)
        xs = rng.normal(size=(4, 5))
        batch = mlp_apply(params, xs).value
        for i in range(4):
            np.testing.assert_allclose(batch[i], mlp_apply(params, xs[i]).value, atol=1e-12)


class TestNoGrad:
    def test_forward_records_no_graph_and_matches_bit_for_bit(self):
        params = init_mlp([5, 8, 3], np.random.default_rng(2))
        x = np.random.default_rng(3).normal(size=(4, 5))
        graph = mlp_apply(params, x)
        assert graph.requires_grad and graph._parents
        with no_grad():
            frozen = mlp_apply(params, x)
            assert all(leaf.requires_grad for leaf in params.leaves())
        assert not frozen.requires_grad
        assert frozen._parents == () and frozen._backward is None
        assert np.array_equal(frozen.value, graph.value)
        assert mlp_apply(params, x)._parents  # recording resumes after the block

    def test_flag_restored_when_block_raises(self):
        w = Tensor(np.ones(2))
        with pytest.raises(ShapeMismatchError):
            with no_grad():
                with no_grad():
                    assert not (w * 2.0).requires_grad
                assert not (w * 2.0).requires_grad
                raise ShapeMismatchError("inside the block")
        assert (w * 2.0).requires_grad


class TestFiniteDifferenceCheck:
    def test_quadratic(self):
        err = finite_difference_check(lambda w: w * w, np.array(3.0), step=1e-6)
        assert err <= 1e-6

    def test_constant_function(self):
        err = finite_difference_check(lambda w: (w * 0.0).sum(), np.ones(4), step=1e-6)
        assert err == 0.0

    def test_mlp_loss_gradient(self):
        rng = np.random.default_rng(7)
        params = init_mlp([3, 4, 2], rng)
        flat = np.concatenate([leaf.value.reshape(-1) for leaf in params.leaves()])
        shapes = [leaf.value.shape for leaf in params.leaves()]
        x = rng.normal(size=3)

        def f(theta):
            pieces, off = [], 0
            for shape in shapes:
                size = int(np.prod(shape))
                pieces.append(theta.slice_rows(off, off + size).reshape(shape))
                off += size
            n = len(shapes) // 2
            p = MlpParams(widths=params.widths, weights=pieces[:n], biases=pieces[n:])
            out = mlp_apply(p, Tensor(x))
            return (out * out).sum()

        assert finite_difference_check(f, flat, step=1e-6) <= 1e-5

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_raises(self):
        def f(w):
            return (w.log()).sum()  # log of a negative coordinate is NaN

        with pytest.raises(NumericalError):
            finite_difference_check(f, np.array([-1.0]), step=1e-6)
