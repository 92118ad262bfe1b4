"""Unit tests for segment rewards and the contrastive batch losses."""

import re

import numpy as np
import pytest

from segnce.autodiff import Tensor, cosine_matrix, logsumexp, no_grad
from segnce.errors import EmptyInputError, ShapeMismatchError
from segnce.objectives import (
    VARIANTS,
    ObjectiveSpec,
    batch_loss,
    bt_probability,
    infonce_pair_loss,
    multiframe_transition_reward,
    potential_step_reward,
    segment_logits,
    segment_reward_potential,
    segment_reward_transition,
)


class TestBtProbability:
    def test_equal_rewards(self):
        assert bt_probability(1.0, 1.0) == pytest.approx(0.5)

    def test_log3_gives_three_quarters(self):
        assert bt_probability(np.log(3.0), 0.0) == pytest.approx(0.75)

    def test_complement(self):
        assert bt_probability(0.0, np.log(3.0)) == pytest.approx(0.25)

    def test_complement_and_translation_properties(self):
        rng = np.random.default_rng(0)
        for _ in range(10_000):
            a, b, c = rng.normal(size=3)
            assert abs(bt_probability(a, b) + bt_probability(b, a) - 1.0) <= 1e-12
            assert abs(bt_probability(a + c, b + c) - bt_probability(a, b)) <= 1e-12

    def test_extreme_rewards_stable(self):
        # +-50 is far outside the reachable reward range yet stays strictly
        # inside (0, 1); larger gaps eventually underflow in float64
        assert 0.0 < bt_probability(-50.0, 50.0) < 1e-12
        assert bt_probability(50.0, -50.0) == pytest.approx(1.0)
        assert np.isfinite(bt_probability(-1e6, 1e6))


class TestStepAndSegmentRewards:
    def test_step_reward_example(self):
        r = potential_step_reward(np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([0.0, 1.0]))
        assert r == pytest.approx(1.0)

    def test_identical_frames_zero(self):
        v = np.array([0.3, 0.7])
        assert potential_step_reward(v, v, np.array([1.0, 0.0])) == 0.0

    def test_step_away_from_instruction(self):
        psi = np.array([1.0, 0.0])
        r = potential_step_reward(psi, np.array([0.0, 1.0]), psi)
        assert r == pytest.approx(-1.0)

    def test_segment_reward_equal_endpoints(self):
        v = np.array([0.5, 0.5])
        assert segment_reward_potential(v, v, np.array([1.0, 2.0])) == 0.0

    def test_telescoping_chain(self):
        rng = np.random.default_rng(1)
        psi = rng.normal(size=4)
        chain = [rng.normal(size=4) for _ in range(9)]
        total = sum(
            potential_step_reward(a, b, psi) for a, b in zip(chain[:-1], chain[1:])
        )
        assert total == pytest.approx(
            segment_reward_potential(chain[0], chain[-1], psi), abs=1e-12
        )

    def test_goal_at_instruction_from_orthogonal_start(self):
        psi = np.array([0.0, 1.0])
        assert segment_reward_potential(np.array([1.0, 0.0]), psi, psi) == pytest.approx(1.0)

    def test_transition_parallel(self):
        r = segment_reward_transition(np.array([0.0, 0.0]), np.array([0.0, 2.0]), np.array([0.0, 1.0]))
        assert r == pytest.approx(1.0)

    def test_transition_zero_displacement(self):
        v = np.array([0.4, -0.2])
        assert segment_reward_transition(v, v, np.array([1.0, 1.0])) == 0.0

    def test_transition_orthogonal(self):
        r = segment_reward_transition(np.array([0.0, 0.0]), np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert r == pytest.approx(0.0)


class TestMultiframeReward:
    def test_collinear_advancing_frames(self):
        psi = np.array([0.0, 1.0])
        frames = [np.array([0.0, float(i)]) for i in range(5)]
        assert multiframe_transition_reward(frames, psi, k=4) == pytest.approx(4.0)

    def test_constant_frames(self):
        frames = [np.array([1.0, 1.0])] * 5
        assert multiframe_transition_reward(frames, np.array([0.0, 1.0]), k=4) == 0.0

    def test_k1_reduces_to_transition_reward(self):
        rng = np.random.default_rng(2)
        a, b, psi = rng.normal(size=3), rng.normal(size=3), rng.normal(size=3)
        assert multiframe_transition_reward([a, b], psi, k=1) == segment_reward_transition(a, b, psi)

    def test_wrong_frame_count_raises(self):
        with pytest.raises(ShapeMismatchError):
            multiframe_transition_reward([np.zeros(2)] * 3, np.ones(2), k=4)


def equal_logit_embeddings(b, k, single=False):
    """Identical displacements and instructions give an all-equal logit matrix:
    the (starts, goals) frame list, or the goals alone for frame alignment,
    and the instruction rows."""
    starts = np.zeros((b, k))
    goals = np.tile(np.linspace(1, 2, k), (b, 1))
    instructions = np.tile(np.linspace(-1, 1, k), (b, 1))
    return ([goals] if single else [starts, goals]), instructions


class TestBatchLosses:
    @pytest.mark.parametrize("b", [2, 4, 16])
    def test_equal_logits_closed_form(self, b):
        be = equal_logit_embeddings(b, 5)
        assert float(batch_loss(ObjectiveSpec("p"), *be)) == pytest.approx(2 * np.log(b), abs=1e-10)
        assert float(batch_loss(ObjectiveSpec("t"), *be)) == pytest.approx(2 * np.log(b), abs=1e-10)
        be1 = equal_logit_embeddings(b, 5, single=True)
        assert float(batch_loss(ObjectiveSpec("frame-align"), *be1)) == pytest.approx(2 * np.log(b), abs=1e-10)

    def test_equal_logits_multiframe(self):
        b, k = 4, 5
        frames = [np.tile(np.linspace(1, 2, k) * (i + 1), (b, 1)) for i in range(5)]
        instructions = np.tile(np.linspace(-1, 1, k), (b, 1))
        assert float(batch_loss(ObjectiveSpec("t4"), frames, instructions)) == pytest.approx(2 * np.log(b), abs=1e-10)

    def test_saturated_margin_loss_vanishes(self):
        # matched logits exceeding mismatched by 20 drive the loss below 1e-8
        logits = np.full((2, 2), -10.0)
        np.fill_diagonal(logits, 10.0)
        assert float(infonce_pair_loss(logits)) < 1e-8

    def test_logit_shift_invariance(self):
        rng = np.random.default_rng(3)
        logits = rng.normal(size=(4, 4))
        a = float(infonce_pair_loss(logits))
        b = float(infonce_pair_loss(logits + 7.5))
        assert a == pytest.approx(b, abs=1e-10)

    def test_small_batch_rejected(self):
        with pytest.raises(EmptyInputError):
            infonce_pair_loss(np.zeros((1, 1)))

    def test_one_gradient_step_improves_matched_logit(self):
        # a small step along the negative gradient must raise the matched
        # displacement/instruction logit and lower the mismatched one
        rng = np.random.default_rng(5)
        starts = Tensor(rng.normal(size=(2, 4)))
        goals = Tensor(rng.normal(size=(2, 4)))
        instructions = Tensor(rng.normal(size=(2, 4)))
        loss = batch_loss(ObjectiveSpec("t"), [starts, goals], instructions)
        loss.backward()

        def logits(s, g, i):
            disp = g - s
            disp = disp / np.linalg.norm(disp, axis=1, keepdims=True)
            ins = i / np.linalg.norm(i, axis=1, keepdims=True)
            return disp @ ins.T

        before = logits(starts.value, goals.value, instructions.value)
        eta = 1e-3
        after = logits(
            starts.value - eta * starts.grad,
            goals.value - eta * goals.grad,
            instructions.value - eta * instructions.grad,
        )
        assert after[0, 0] > before[0, 0] and after[1, 1] > before[1, 1]
        assert after[0, 1] < before[0, 1] and after[1, 0] < before[1, 0]


def reference_infonce(logits):
    """The composite graph that the fused InfoNCE node reproduces."""
    b = logits.value.shape[0]
    return (logsumexp(logits, axis=0).sum() + logsumexp(logits, axis=1).sum()
            - 2.0 * logits.diagonal().sum()) * (1.0 / b)


class TestFusedInfonce:
    """``infonce_pair_loss`` is one node whose value and gradient are, bit for
    bit, those of the ``logsumexp`` composite."""

    @staticmethod
    def _value_and_grad(loss, logits):
        x = Tensor(logits.copy())
        out = loss(x)
        out.backward()
        return out.value, x.grad

    @pytest.mark.parametrize("b", [2, 5, 64])
    @pytest.mark.parametrize("case", ["random", "equal"])
    def test_matches_composite_bit_for_bit(self, b, case):
        rng = np.random.default_rng(b)
        logits = rng.normal(size=(b, b)) * 3.0 if case == "random" else np.full((b, b), 0.37)
        fused = self._value_and_grad(infonce_pair_loss, logits)
        reference = self._value_and_grad(reference_infonce, logits)
        for got, want in zip(fused, reference):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("b", [2, 4, 64])
    def test_equal_logits_give_two_log_b(self, b):
        # at zero logits and a power-of-two B every sum and scaling is exact
        value, grad = self._value_and_grad(infonce_pair_loss, np.zeros((b, b)))
        assert float(value) == 2 * np.log(b)
        # each softmax is uniform: 2/B^2 off the diagonal, 2/B^2 - 2/B on it
        np.testing.assert_allclose(grad, 2.0 / b**2 - 2.0 / b * np.eye(b), atol=1e-15)

    def test_no_grad_records_nothing_and_matches_composite(self):
        logits = Tensor(np.random.default_rng(7).normal(size=(6, 6)))
        with no_grad():
            frozen = infonce_pair_loss(logits)
        assert not frozen.requires_grad and frozen._parents == () and frozen._backward is None
        assert frozen.value.tobytes() == reference_infonce(logits).value.tobytes()


@pytest.mark.parametrize("variant", ["p", "t", "t4", "t8", "frame-align"])
def test_loss_gradients_validate(variant):
    from conftest import loss_gradient_error

    assert loss_gradient_error(variant, seed=0) <= 1e-5


def test_batch_loss_dispatch():
    rng = np.random.default_rng(4)
    frames, instructions = [rng.normal(size=(4, 5)) for _ in range(2)], rng.normal(size=(4, 5))
    spec = ObjectiveSpec(variant="p", embed_dim=5, temperature=0.5)
    assert float(batch_loss(spec, frames, instructions)) == pytest.approx(
        float(infonce_pair_loss(segment_logits(spec, frames, instructions) * 2.0))
    )
    with pytest.raises(ShapeMismatchError):
        ObjectiveSpec(variant="q")


def test_one_hop_transition_equals_displacement_cosine_bit_for_bit():
    """``t`` is the one-hop case of the hop branch, and its values and the
    gradients of both inputs are bit for bit those of
    ``cosine_matrix(goals - starts, instructions)``."""
    rng = np.random.default_rng(7)
    values = [rng.normal(size=(6, 4)) for _ in range(3)]
    weights = rng.normal(size=(6, 6))
    results = []
    for logits_of in (
        lambda s, g, ins: segment_logits(ObjectiveSpec("t"), [s, g], ins),
        lambda s, g, ins: cosine_matrix(g - s, ins),
    ):
        starts, goals, instructions = (Tensor(v.copy()) for v in values)
        logits = logits_of(starts, goals, instructions)
        (logits * weights).sum().backward()
        results.append([logits.value, starts.grad, goals.grad, instructions.grad])
    for got, want in zip(*results):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("variant", VARIANTS)
def test_wrong_frame_count_names_the_variant(variant):
    spec = ObjectiveSpec(variant)
    instructions = np.ones((3, 4))
    for count in (spec.n_frames - 1, spec.n_frames + 1):
        with pytest.raises(ShapeMismatchError, match=re.escape(f"{variant!r}")):
            segment_logits(spec, [np.ones((3, 4))] * count, instructions)
