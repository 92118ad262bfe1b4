"""Unit tests for the path-integral planner."""

import numpy as np
import pytest

from segnce import planning, training
from segnce.errors import EmptyInputError, NumericalError, ShapeMismatchError
from segnce.objectives import ObjectiveSpec
from segnce.planning import (
    PlannerConfig,
    embedding_returns,
    evaluate_planner,
    execute_plan,
    mppi_weights,
    normalize_returns,
    plan,
    plan_with_oracle,
    weighted_average,
)
from segnce.training import TrainConfig, train
from segnce.world import World, WorldConfig


@pytest.fixture(scope="module")
def world():
    return World(WorldConfig())


@pytest.fixture(scope="module")
def tiny_ckpt(world):
    dataset = world.generate(30, seed=1)
    return train(TrainConfig(objective=ObjectiveSpec(variant="t"), iterations=20, batch_size=8, seed=0), dataset)


@pytest.fixture(scope="module")
def trained_ckpt(world):
    # 20 iterations at batch 8 leave the endpoint reward's sign a coin flip
    # (it held on 26 and 28 of 40 data seeds under two data layouts); this
    # size held on all 40 under both
    dataset = world.generate(200, seed=1)
    return train(TrainConfig(objective=ObjectiveSpec(variant="t"), iterations=200, batch_size=32, seed=0), dataset)


class TestNormalizeAndWeights:
    def test_normalized_moments(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            r = normalize_returns(rng.normal(2.0, 3.0, size=64))
            assert abs(r.mean()) <= 1e-10
            assert abs(r.std() - 1.0) <= 1e-6

    def test_constant_returns_floor(self):
        r = normalize_returns(np.full(8, 3.25))
        np.testing.assert_array_equal(r, np.zeros(8))

    def test_weights_sum_to_one(self):
        w = mppi_weights(np.array([1.0, -1.0, 0.0]), temperature=10.0)
        assert w.sum() == pytest.approx(1.0)

    def test_dominant_proposal_recovered(self):
        # one proposal +100 normalized at temperature 10: weight ratio e^10
        # per competitor; with proposals within 0.3 of each other the output
        # lands within 1e-3 of the dominant sequence
        rng = np.random.default_rng(1)
        proposals = rng.uniform(-0.15, 0.15, size=(64, 5, 2))
        normalized = np.zeros(64)
        normalized[13] = 100.0
        out = weighted_average(proposals, normalized, temperature=10.0)
        assert np.max(np.abs(out - proposals[13])) < 1e-3

    def test_high_temperature_approaches_plain_mean(self):
        rng = np.random.default_rng(2)
        proposals = rng.normal(size=(16, 4, 2))
        returns = rng.normal(size=16)
        out = weighted_average(proposals, returns, temperature=1e9)
        np.testing.assert_allclose(out, proposals.mean(axis=0), atol=1e-8)

    @pytest.mark.parametrize("temperature", [1e-3, 1.0, 10.0, 1e9])
    def test_weights_are_the_plain_softmax_bit_for_bit(self, temperature):
        normalized = normalize_returns(np.random.default_rng(5).normal(size=64))
        scaled = normalized / temperature
        w = np.exp(scaled - scaled.max())
        assert mppi_weights(normalized, temperature).tobytes() == (w / w.sum()).tobytes()

    def test_overflowing_temperature_raises_naming_it(self):
        # 1 / 1e-320 overflows; the warning filter turns any RuntimeWarning into a failure
        with pytest.raises(NumericalError, match="temperature 1e-320"):
            mppi_weights(np.array([1.0, -1.0]), 1e-320)

    def test_spread_past_the_float_range_gives_zero_weight(self):
        # both quotients are finite, but their difference overflows to -inf
        w = mppi_weights(np.array([1.0, -1.0]), 1e-308)
        np.testing.assert_array_equal(w, [1.0, 0.0])

    def test_output_in_convex_hull(self):
        rng = np.random.default_rng(3)
        proposals = rng.normal(size=(32, 6, 2))
        out = weighted_average(proposals, rng.normal(size=32), temperature=1.0)
        lo, hi = proposals.min(axis=0), proposals.max(axis=0)
        assert np.all(out >= lo - 1e-12) and np.all(out <= hi + 1e-12)


def rollout_return(ckpt, world, state, actions, instruction, gamma=1.0):
    return float(embedding_returns(ckpt, world, state, instruction, actions[None], gamma)[0])


class TestRolloutReturn:
    def test_static_world_zero_return(self, tiny_ckpt, world):
        state = world.sample_start(0, np.random.default_rng(0))
        actions = np.zeros((10, world.config.d_act))
        assert rollout_return(tiny_ckpt, world, state, actions, world.instructions()[0]) == pytest.approx(0.0, abs=1e-12)

    def test_gamma_one_telescopes_to_endpoint_difference(self, tiny_ckpt, world):
        from segnce.analysis import embed_frames, embed_instructions
        from segnce.autodiff import cosine_matrix

        rng = np.random.default_rng(4)
        ins = world.instructions()[2]
        task = world.task_for_instruction(ins)
        state = world.sample_start(task, rng)
        actions = rng.uniform(-1, 1, size=(15, world.config.d_act))
        ret = rollout_return(tiny_ckpt, world, state, actions, ins, gamma=1.0)

        # replay the latent dynamics and compare endpoint similarities
        end = execute_plan(world, state, actions)
        psi = embed_instructions(tiny_ckpt, [ins])
        s0, sT = (cosine_matrix(embed_frames(tiny_ckpt, world.render(task, [z], state.distractors)), psi).value[0, 0]
                  for z in (state.z, end.z))
        assert ret == pytest.approx(sT - s0, abs=1e-12)

    def test_expert_beats_reversed_expert(self, trained_ckpt, world):
        demo = world.generate_demos(1, seed=5)[0]
        task = world.task_for_instruction(demo.instruction)
        state = world.sample_start(task, np.random.default_rng(6))
        fwd = rollout_return(trained_ckpt, world, state, demo.actions, demo.instruction)
        rev = rollout_return(trained_ckpt, world, state, -demo.actions, demo.instruction)
        assert rev <= fwd

    def test_batch_returns_match_single_rollouts(self, tiny_ckpt, world):
        rng = np.random.default_rng(11)
        ins = world.instructions()[1]
        state = world.sample_start(1, rng)
        proposals = rng.uniform(-1, 1, size=(6, 8, world.config.d_act))
        batch = embedding_returns(tiny_ckpt, world, state, ins, proposals, gamma=0.9)
        for actions, value in zip(proposals, batch):
            assert value == pytest.approx(rollout_return(tiny_ckpt, world, state, actions, ins, 0.9), abs=1e-12)

    def test_proposal_shape_validated(self, tiny_ckpt, world):
        state = world.sample_start(0, np.random.default_rng(0))
        with pytest.raises(ShapeMismatchError):
            embedding_returns(tiny_ckpt, world, state, world.instructions()[0], np.zeros((10, 2)))


def per_step_returns(ckpt, world, state, instruction, proposals, gamma):
    """Reference returns: render and embed every frame of every rollout and
    sum the discounted per-step similarity changes."""
    from segnce.analysis import embed_frames, embed_instructions
    from segnce.autodiff import cosine_matrix
    from segnce.planning import _roll_z

    zs = _roll_z(world, state.task, state.z, proposals)
    obs = world.render(state.task, zs.reshape(-1), state.distractors)
    sim = cosine_matrix(embed_frames(ckpt, obs), embed_instructions(ckpt, [instruction])).value[:, 0].reshape(zs.shape)
    return np.sum(np.diff(sim, axis=1) * gamma ** np.arange(proposals.shape[1]), axis=1)


class TestEndpointReturns:
    @pytest.fixture
    def case(self, world):
        rng = np.random.default_rng(21)
        ins = world.instructions()[5]
        state = world.sample_start(world.task_for_instruction(ins), rng, z_jitter=0.1)
        return state, ins, rng.normal(0.0, 0.6, size=(64, 50, world.config.d_act))

    def test_gamma_one_matches_per_step_reference(self, tiny_ckpt, world, case):
        state, ins, proposals = case
        got = embedding_returns(tiny_ckpt, world, state, ins, proposals, gamma=1.0)
        want = per_step_returns(tiny_ckpt, world, state, ins, proposals, 1.0)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)

    def test_discounted_returns_bit_identical_to_reference(self, tiny_ckpt, world, case):
        state, ins, proposals = case
        got = embedding_returns(tiny_ckpt, world, state, ins, proposals, gamma=0.9)
        np.testing.assert_array_equal(got, per_step_returns(tiny_ckpt, world, state, ins, proposals, 0.9))

    @pytest.mark.parametrize("gamma, rows", [(1.0, lambda n, h: n + 1), (0.9, lambda n, h: n * (h + 1))])
    def test_rows_embedded_per_call(self, tiny_ckpt, world, case, monkeypatch, gamma, rows):
        import segnce.planning as planning

        state, ins, proposals = case
        seen = []

        def counting_embed(ckpt, obs, embed=planning.embed_frames):
            seen.append(len(obs))
            return embed(ckpt, obs)

        def counting_embed_instructions(ckpt, instructions, embed=planning.embed_instructions):
            seen.append(list(instructions))
            return embed(ckpt, instructions)

        monkeypatch.setattr(planning, "embed_frames", counting_embed)
        monkeypatch.setattr(planning, "embed_instructions", counting_embed_instructions)
        n, horizon = proposals.shape[:2]
        embedding_returns(tiny_ckpt, world, state, ins, proposals, gamma=gamma)
        config = PlannerConfig(horizon=horizon, n_sequences=n, iterations=3, gamma=gamma)
        plan(tiny_ckpt, world, state, ins, config, np.random.default_rng(0))
        # the instruction is embedded once per call, the frames once per iteration
        assert seen == [[ins], rows(n, horizon), [ins], *[rows(n, horizon)] * 3]


class TestRollZ:
    """The compiled rollout gives the numpy loop's bits: ``np.clip``'s
    saturation at 0 and 1 and its NaN rule. (A -0.0 start is kept as is; the
    first step adds a product that is never -0.0, so no -0.0 reaches a clip.)"""

    @pytest.mark.parametrize("case", ["random", "saturating", "z0 = 0", "z0 = -0", "horizon 1", "nan"])
    def test_kernel_matches_numpy_loop_bit_for_bit(self, world, case, monkeypatch):
        rng = np.random.default_rng(5)
        task, z0, horizon = 3, 0.04, 50
        proposals = rng.normal(0.0, 0.6, size=(64, horizon, world.config.d_act))
        if case == "saturating":  # rows pushed along or against the task direction to 0 or 1
            proposals = np.sign(world.direction(task)) * rng.choice([-1.0, 1.0], size=(64, 1, 1))
            proposals = np.repeat(proposals, horizon, axis=1)
        elif case in ("z0 = 0", "z0 = -0"):
            z0 = 0.0 if case == "z0 = 0" else -0.0
            proposals[::2] = 0.0
        elif case == "horizon 1":
            proposals = proposals[:, :1]
        elif case == "nan":
            proposals[7, 20, 0] = np.nan
        if planning._roll_z_kernel is None:
            pytest.skip("no compiled rollout was built")
        compiled = planning._roll_z(world, task, z0, proposals)
        monkeypatch.setattr(planning, "_roll_z_kernel", None)
        reference = planning._roll_z(world, task, z0, proposals)
        assert compiled.tobytes() == reference.tobytes()
        if case == "saturating":
            assert set(compiled[:, -1]) == {0.0, 1.0}


class TestPlan:
    def test_seed_determinism(self, tiny_ckpt, world):
        config = PlannerConfig(horizon=10, n_sequences=8, iterations=2, temperature=1.0)
        ins = world.instructions()[0]
        state = world.sample_start(0, np.random.default_rng(7))
        a = plan(tiny_ckpt, world, state, ins, config, np.random.default_rng(1))
        b = plan(tiny_ckpt, world, state, ins, config, np.random.default_rng(1))
        np.testing.assert_array_equal(a, b)

    def test_oracle_plan_completes_task(self, world):
        config = PlannerConfig(horizon=40, n_sequences=64, iterations=16, temperature=1.0)
        ins = world.instructions()[3]
        task = world.task_for_instruction(ins)
        state = world.sample_start(task, np.random.default_rng(8))
        actions = plan_with_oracle(world, state, ins, config, np.random.default_rng(2))
        final = execute_plan(world, state, actions)
        assert world.success(final, ins)

    def test_config_validation(self):
        with pytest.raises(EmptyInputError):
            PlannerConfig(horizon=0)
        with pytest.raises(EmptyInputError):
            PlannerConfig(temperature=0.0)


class TestEvaluatePlanner:
    def test_random_baseline_near_zero(self, world):
        config = PlannerConfig(horizon=50, n_sequences=64)
        report = evaluate_planner(None, world, world.instructions(), 50, config, seed=0, reward="random")
        assert report["success_rate"] <= 0.1

    def test_report_structure_and_determinism(self, tiny_ckpt, world):
        config = PlannerConfig(horizon=10, n_sequences=8, iterations=1)
        a = evaluate_planner(tiny_ckpt, world, world.instructions()[:2], 4, config, seed=3)
        b = evaluate_planner(tiny_ckpt, world, world.instructions()[:2], 4, config, seed=3)
        assert a == b
        assert set(a) == {"reward", "episodes", "seed", "config", "per_instruction", "success_rate"}
        assert len(a["per_instruction"]) == 2

    @pytest.mark.parametrize("reward", ["embedding", "oracle"])
    def test_reports_equal_without_the_kernels(self, tiny_ckpt, world, reward, monkeypatch):
        config = PlannerConfig(horizon=20, n_sequences=16, iterations=3)
        compiled = evaluate_planner(tiny_ckpt, world, world.instructions(), 6, config, seed=4, reward=reward)
        monkeypatch.setattr(planning, "_roll_z_kernel", None)
        monkeypatch.setattr(training, "_adam_kernel", None)
        assert evaluate_planner(tiny_ckpt, world, world.instructions(), 6, config, seed=4, reward=reward) == compiled

    def test_instruction_without_episode_reports_none(self, world):
        config = PlannerConfig(horizon=10, n_sequences=8)
        report = evaluate_planner(None, world, world.instructions(), 2, config, seed=0, reward="random")
        rates = list(report["per_instruction"].values())
        assert rates[2:] == [None] * (world.config.n_tasks - 2)
        assert all(0.0 <= r <= 1.0 for r in rates[:2])

    def test_embedding_reward_requires_checkpoint(self, world):
        with pytest.raises(EmptyInputError):
            evaluate_planner(None, world, world.instructions(), 1, PlannerConfig(), seed=0)

    def test_no_instructions_rejected(self, world):
        with pytest.raises(EmptyInputError, match="one instruction"):
            evaluate_planner(None, world, [], 2, PlannerConfig(), seed=0, reward="random")
