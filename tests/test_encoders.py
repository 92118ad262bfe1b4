"""Unit tests for the observation and instruction encoders."""

import numpy as np
import pytest

from segnce.autodiff import MlpParams, Tensor
from segnce.encoders import (
    EncoderConfig,
    Instruction,
    InstructionEncoderParams,
    encode_instructions,
    encode_observations,
    init_params,
)
from segnce.errors import VocabularyError


def test_zero_params_zero_embedding():
    enc = init_params(EncoderConfig(d_obs=4, embed_dim=3, vision_hidden=(5,), vocab_size=4), seed=0)
    for leaf in enc.vision.leaves():
        leaf.value[...] = 0.0
    np.testing.assert_array_equal(encode_observations(enc.vision, np.ones(4)).value, np.zeros(3))


def test_identity_single_layer_passthrough():
    vision = MlpParams(widths=[3, 3], weights=[Tensor(np.eye(3))], biases=[Tensor(np.zeros(3))])
    obs = np.array([0.5, -1.0, 2.0])
    np.testing.assert_allclose(encode_observations(vision, obs).value, obs)


def test_encoding_deterministic_across_rebuilds():
    config = EncoderConfig()
    obs = np.linspace(-1, 1, config.d_obs)
    a = encode_observations(init_params(config, seed=17).vision, obs).value
    b = encode_observations(init_params(config, seed=17).vision, obs).value
    np.testing.assert_array_equal(a, b)


def test_init_same_seed_identical_different_seed_differs():
    config = EncoderConfig()
    a, b, c = init_params(config, 5), init_params(config, 5), init_params(config, 6)
    for la, lb in zip(a.leaves(), b.leaves()):
        np.testing.assert_array_equal(la.value, lb.value)
    assert any(not np.array_equal(la.value, lc.value) for la, lc in zip(a.leaves(), c.leaves()))


def test_default_vision_widths():
    enc = init_params(EncoderConfig(), seed=0)
    assert enc.vision.widths == [32, 128, 128, 32]


def test_zero_language_params_zero_embedding():
    enc = init_params(EncoderConfig(vocab_size=6), seed=0)
    enc.language.table.value[...] = 0.0
    for leaf in enc.language.projection.leaves():
        leaf.value[...] = 0.0
    out = encode_instructions(enc.language, [Instruction(0, 5)]).value[0]
    np.testing.assert_array_equal(out, np.zeros(enc.config.embed_dim))


def test_identical_tokens_identity_projection():
    table = Tensor(np.tile(np.array([1.0, 2.0]), (3, 1)))
    projection = MlpParams(widths=[2, 2], weights=[Tensor(np.eye(2))], biases=[Tensor(np.zeros(2))])
    params = InstructionEncoderParams(table=table, projection=projection)
    np.testing.assert_allclose(encode_instructions(params, [Instruction(0, 2)]).value, [[1.0, 2.0]])


def test_token_order_symmetry():
    enc = init_params(EncoderConfig(vocab_size=8), seed=3)
    a, b = encode_instructions(enc.language, [Instruction(1, 6), Instruction(6, 1)]).value
    np.testing.assert_array_equal(a, b)


def test_unknown_token_raises():
    enc = init_params(EncoderConfig(vocab_size=4), seed=0)
    with pytest.raises(VocabularyError):
        encode_instructions(enc.language, [Instruction(0, 4)])


def test_unknown_token_error_names_the_first_outside_id():
    """Verbs are checked before objects, each in batch order."""
    enc = init_params(EncoderConfig(vocab_size=4), seed=0)
    instructions = [Instruction(0, 1), Instruction(9, -2), Instruction(-1, 7)]
    with pytest.raises(VocabularyError, match=r"^token id 9 outside vocabulary of size 4$"):
        encode_instructions(enc.language, instructions)
    with pytest.raises(VocabularyError, match=r"^token id -2 outside vocabulary of size 4$"):
        encode_instructions(enc.language, [Instruction(0, 1), Instruction(3, -2), Instruction(1, 7)])


def test_batched_instruction_encoding_matches_single():
    enc = init_params(EncoderConfig(vocab_size=12), seed=1)
    instrs = [Instruction(0, 8), Instruction(3, 9), Instruction(7, 11)]
    batch = encode_instructions(enc.language, instrs).value
    for i, ins in enumerate(instrs):
        np.testing.assert_allclose(batch[i], encode_instructions(enc.language, [ins]).value[0], atol=1e-12)


def test_embedding_norms_nonzero_over_seeds():
    config = EncoderConfig()
    rng = np.random.default_rng(0)
    obs = rng.normal(size=config.d_obs)
    for seed in range(100):
        enc = init_params(config, seed)
        norm = float(np.linalg.norm(encode_observations(enc.vision, obs).value))
        assert np.isfinite(norm) and norm > 1e-6


def test_batched_observation_encoding_matches_single():
    config = EncoderConfig(d_obs=6, embed_dim=4, vision_hidden=(8,), vocab_size=4)
    enc = init_params(config, seed=2)
    xs = np.random.default_rng(3).normal(size=(5, 6))
    batch = encode_observations(enc.vision, xs).value
    for i in range(5):
        np.testing.assert_allclose(batch[i], encode_observations(enc.vision, xs[i]).value, atol=1e-12)
