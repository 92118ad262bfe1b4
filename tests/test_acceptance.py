"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

The heavy artifacts are built once per session: a canonical dataset and the
canonical transition-objective checkpoint go through the command line (so
their manifests exist for the reproducibility criterion), the remaining
trainings run in memory with pinned seeds. Evaluation corpora (held-out
demos and statistics trajectories) come from the same world with fixed,
disjoint data seeds.

Two clauses are known not to hold and are asserted faithfully anyway; see
the analysis notes in their docstrings:

* the training-descent target (final loss <= 25% of the first iteration),
* the mirror-instruction curve monotonicity (Spearman <= -0.8 on 80%).
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as sstats

from conftest import loss_gradient_error

from segnce import analysis, imitation, planning
from segnce.cli import heatmap_segments, main as cli_main, replay_manifest
from segnce.encoders import EncoderConfig, init_params
from segnce.objectives import (
    ObjectiveSpec,
    batch_loss,
    bt_probability,
    potential_step_reward,
    segment_reward_potential,
)
from segnce.sampling import empirical_goal_histogram, goal_probability
from segnce.training import Checkpoint, TrainConfig, load_checkpoint, train
from segnce.world import World, WorldConfig, load_dataset

# ---- pinned protocol -----------------------------------------------------------

DATASET_SIZE = 4000
DATASET_SEED = 0
HELD_DEMOS_SEED = 101  # 6 demos per task for curves and heatmaps
HELD_STATS_SEED = 202  # 200 trajectories for first-frame statistics
BC_DEMOS_SEED = 55  # 5 demos per task
SEEDS = (0, 1, 2)
BC_EPISODES = 25
PLANNER_EPISODES = 50
# effective desk-scale controller: the single-iteration, temperature-10
# configuration cannot move this world (the oracle bound is unreachable
# with it), so the acceptance runs use an iterated sharper controller
PLANNER_CONFIG = planning.PlannerConfig(
    horizon=50, n_sequences=64, iterations=16, temperature=1.0, gamma=1.0, noise_scale=0.3
)

_results: dict[str, tuple[bool, str]] = {}


def report(criterion: str, ok: bool, detail: str):
    _results[criterion] = (ok, detail)
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


def train_config(variant: str, seed: int) -> TrainConfig:
    return TrainConfig(
        objective=ObjectiveSpec(variant=variant), iterations=2000, batch_size=64,
        learning_rate=1e-3, optimizer="adam", seed=seed,
    )


# ---- session artifacts -----------------------------------------------------------


@pytest.fixture(scope="session")
def workspace(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="session")
def manifests(workspace):
    return []


def run_cli(args, manifests, out_path):
    rc = cli_main([*args, "--quiet"])
    assert rc == 0, f"cli {args[0]} failed"
    manifest = out_path.with_name(out_path.name + ".manifest.json")
    assert manifest.exists()
    manifests.append(manifest)
    return out_path


@pytest.fixture(scope="session")
def dataset_file(workspace, manifests):
    path = workspace / "dataset.jsonl"
    return run_cli(
        ["gen-world", "--out", str(path), "--count", str(DATASET_SIZE), "--seed", str(DATASET_SEED)],
        manifests, path,
    )


@pytest.fixture(scope="session")
def dataset(dataset_file):
    return load_dataset(dataset_file)[1]


@pytest.fixture(scope="session")
def world():
    return World(WorldConfig())


@pytest.fixture(scope="session")
def held_demos(world):
    return world.generate_demos(6, seed=HELD_DEMOS_SEED)


@pytest.fixture(scope="session")
def held_stats(world):
    return world.generate(200, seed=HELD_STATS_SEED)


@pytest.fixture(scope="session")
def bc_demos(world):
    return world.generate_demos(5, seed=BC_DEMOS_SEED)


@pytest.fixture(scope="session")
def ckpt_t_path(workspace, dataset_file, manifests):
    path = workspace / "encoder-t-seed0.ckpt"
    return run_cli(
        ["train", "--data", str(dataset_file), "--objective", "t", "--out", str(path),
         "--seed", "0"],
        manifests, path,
    )


@pytest.fixture(scope="session")
def ckpt_t(ckpt_t_path):
    return load_checkpoint(ckpt_t_path)


@pytest.fixture(scope="session")
def ckpts_t(ckpt_t, dataset, world):
    out = {0: ckpt_t}
    for seed in SEEDS[1:]:
        out[seed] = train(train_config("t", seed), dataset, vocab_size=world.config.vocab_size)
    return out


@pytest.fixture(scope="session")
def ckpts_by_variant(dataset, world, ckpts_t):
    def arm(variant):
        return {
            s: train(train_config(variant, s), dataset, vocab_size=world.config.vocab_size)
            for s in SEEDS
        }

    return {"t": ckpts_t, "p": arm("p"), "frame-align": arm("frame-align")}


@pytest.fixture(scope="session")
def ckpts_t8(dataset, world):
    return {
        s: train(train_config("t8", s), dataset, vocab_size=world.config.vocab_size)
        for s in SEEDS
    }


@pytest.fixture(scope="session")
def bc_success_t(ckpts_t, bc_demos, world):
    """Imitation success with frozen trained transition features, per seed;
    shared by the ablation and the feature-quality criteria."""
    out = {}
    for s in SEEDS:
        policy = imitation.train_bc(ckpts_t[s], bc_demos, imitation.BcConfig(seed=s))
        out[s] = imitation.evaluate_bc_all(policy, ckpts_t[s], world, BC_EPISODES, seed=s)["success_rate"]
    return out


# ---- criteria -----------------------------------------------------------------


def test_c01_telescoping_identity():
    """Per-step similarity changes over any chain sum exactly to the
    endpoint segment reward."""
    t0 = time.time()
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(1000):
        length = int(rng.integers(2, 21))
        chain = rng.normal(size=(length, 8))
        psi = rng.normal(size=8)
        total = sum(
            potential_step_reward(a, b, psi) for a, b in zip(chain[:-1], chain[1:])
        )
        worst = max(worst, abs(total - segment_reward_potential(chain[0], chain[-1], psi)))
    elapsed = time.time() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    report("01 telescoping", ok, f"max deviation {worst:.2e} over 1000 chains in {elapsed:.2f}s")
    assert worst <= 1e-12
    assert elapsed < 1.0


def test_c02_goal_index_statistics():
    """Empirical goal frequencies match the analytic distribution."""
    t0 = time.time()
    rng = np.random.default_rng(2024)
    details = []
    ok = True
    for h in (2, 5, 10, 37):
        n = 1_000_000
        freqs, no_goal = empirical_goal_histogram(h, n, rng)
        analytic = np.array([goal_probability(h, t) for t in range(1, h + 1)])
        max_dev = float(np.max(np.abs(freqs - analytic)))
        assert freqs[0] == 0.0  # the first frame is never a goal
        observed = np.concatenate([freqs[1:] * n, [no_goal * n]])
        expected = np.concatenate([analytic[1:] * n, [n / h]])
        p_value = float(sstats.chisquare(observed, expected).pvalue)
        monotone = bool(np.all(np.diff(freqs) >= -1e-12))
        ok = ok and max_dev < 0.003 and p_value > 0.01 and monotone
        details.append(f"h={h}: dev {max_dev:.4f} p {p_value:.3f} monotone {monotone}")
    elapsed = time.time() - t0
    ok = ok and elapsed < 30.0
    report("02 goal statistics", ok, "; ".join(details) + f" ({elapsed:.1f}s)")
    assert ok


def test_c03_gradient_validity():
    """All five batch losses pass central-difference checks over 20 seeds."""
    t0 = time.time()
    worst = {}
    for variant in ("p", "t", "t4", "t8", "frame-align"):
        worst[variant] = max(loss_gradient_error(variant, seed) for seed in range(20))
    elapsed = time.time() - t0
    ok = all(err <= 1e-5 for err in worst.values()) and elapsed < 60.0
    detail = ", ".join(f"{k} {v:.2e}" for k, v in worst.items())
    report("03 gradient validity", ok, detail + f" ({elapsed:.1f}s)")
    assert ok


def test_c04_equal_logit_closed_form():
    """Every batch loss equals 2 ln B when all logits coincide."""
    t0 = time.time()
    worst = 0.0
    for b in (2, 4, 16):
        k = 5
        starts = np.zeros((b, k))
        goals = np.tile(np.linspace(1, 2, k), (b, 1))
        instructions = np.tile(np.linspace(-1, 1, k), (b, 1))
        frames = [np.tile(np.linspace(1, 2, k) * (i + 1), (b, 1)) for i in range(9)]
        target = 2 * np.log(b)
        for value in (
            batch_loss(ObjectiveSpec("p"), np.concatenate([starts, goals]), instructions),
            batch_loss(ObjectiveSpec("t"), np.concatenate([starts, goals]), instructions),
            batch_loss(ObjectiveSpec("t4"), np.concatenate(frames[:5]), instructions),
            batch_loss(ObjectiveSpec("t8"), np.concatenate(frames), instructions),
            batch_loss(ObjectiveSpec("frame-align"), goals, instructions),
        ):
            worst = max(worst, abs(float(value) - target))
    elapsed = time.time() - t0
    ok = worst <= 1e-10 and elapsed < 1.0
    report("04 equal-logit value", ok, f"max |loss - 2 ln B| = {worst:.2e}")
    assert ok


def test_c05_pairwise_preference_properties():
    """Complement-to-one and reward-translation invariance."""
    t0 = time.time()
    rng = np.random.default_rng(5)
    worst_c = worst_t = 0.0
    for _ in range(10_000):
        a, b, c = rng.normal(size=3)
        worst_c = max(worst_c, abs(bt_probability(a, b) + bt_probability(b, a) - 1.0))
        worst_t = max(worst_t, abs(bt_probability(a + c, b + c) - bt_probability(a, b)))
    elapsed = time.time() - t0
    ok = worst_c <= 1e-12 and worst_t <= 1e-12 and elapsed < 1.0
    report("05 preference properties", ok, f"complement {worst_c:.2e}, translation {worst_t:.2e}")
    assert ok


def test_c06_training_descent(ckpt_t):
    """Default run ends with loss <= 25% of its first-iteration value.

    Known not to hold: with duplicated instruction labels in each batch
    (64 draws over 8 instructions) the loss is bounded below by about
    2*ln(batch/instructions), and the cosine-bounded logits raise the
    reachable floor to roughly 6.4, i.e. ~78% of the 2*ln(64) starting
    value. The descent that does happen is substantial and NaN-free; the
    25% target is asserted as stated and fails.
    """
    history = ckpt_t.history
    first, last = float(history[0, 1]), float(history[-1, 1])
    finite = bool(np.all(np.isfinite(history)))
    ratio = last / first
    ok = finite and ratio <= 0.25
    report("06 training descent", ok, f"loss {first:.3f} -> {last:.3f} (ratio {ratio:.2f}), finite {finite}")
    assert finite
    assert ratio <= 0.25, f"final/first loss ratio {ratio:.3f} exceeds 0.25"


def test_c07_heatmap_grounding(ckpt_t, held_demos, world):
    """Matched cells dominate rows; mirror cells are negative."""
    t0 = time.time()
    segments, labels = heatmap_segments(world, held_demos, ["2", "5", "10", "full"])
    grid = analysis.reward_heatmap(ckpt_t, segments, world.instructions(), row_labels=labels)
    diag_max = mirror_neg = 0
    for i, seg in enumerate(segments):
        task = world.task_for_instruction(seg.instruction)
        if int(np.argmax(grid.values[i])) == task:
            diag_max += 1
        if grid.values[i][world.mirror_task(task)] < 0:
            mirror_neg += 1
    n = len(segments)
    elapsed = time.time() - t0
    ok = diag_max >= 0.9 * n and mirror_neg >= 0.8 * n and elapsed < 60.0
    report(
        "07 heatmap grounding", ok,
        f"diagonal-max {diag_max}/{n}, mirror-negative {mirror_neg}/{n} ({elapsed:.1f}s)",
    )
    assert diag_max >= 0.9 * n
    assert mirror_neg >= 0.8 * n


def test_c08_temporal_consistency(ckpt_t, held_demos, world):
    """Matched curves rise; mirror curves fall, rank-monotonically.

    The mirror clause is known not to hold: the contrastive optimum spreads
    the eight instruction embeddings toward a symmetric simplex (pairwise
    cosine near -1/7), because concentrating repulsion on the mirror pair
    while leaving the other negatives higher gives a strictly worse
    objective. Late-trajectory mirror similarity therefore plateaus near
    -1/7 where frame noise scrambles the ranks, instead of descending
    toward -1. Asserted as stated; the matched clause passes.
    """
    t0 = time.time()
    matched, mirror = [], []
    for traj in held_demos:
        task = world.task_for_instruction(traj.instruction)
        t_idx = np.arange(traj.h)
        matched.append(
            sstats.spearmanr(t_idx, analysis.reward_curve(ckpt_t, traj, traj.instruction).raw).statistic
        )
        mirror_ins = world.instruction_for_task(world.mirror_task(task))
        mirror.append(
            sstats.spearmanr(t_idx, analysis.reward_curve(ckpt_t, traj, mirror_ins).raw).statistic
        )
    matched, mirror = np.array(matched), np.array(mirror)
    matched_rate = float((matched >= 0.8).mean())
    mirror_rate = float((mirror <= -0.8).mean())
    elapsed = time.time() - t0
    ok = matched_rate >= 0.9 and mirror_rate >= 0.8 and elapsed < 60.0
    report(
        "08 temporal consistency", ok,
        f"matched>=0.8 on {matched_rate:.0%}, mirror<=-0.8 on {mirror_rate:.0%} "
        f"of {len(held_demos)} held-out demos ({elapsed:.1f}s)",
    )
    assert matched_rate >= 0.9
    assert mirror_rate >= 0.8, f"mirror-curve rate {mirror_rate:.2f} below 0.8"


def test_c09_first_image_clustering(ckpts_by_variant, held_stats, world):
    """First-frame embeddings cluster beyond random frame pairs for the
    segment objectives but not for the single-frame baseline. Margins are
    averaged over the three training seeds, mirroring the repeated-sampling
    protocol of the other multi-seed criteria."""
    t0 = time.time()

    def margin(ck, salt):
        stats = analysis.first_image_similarity_stats(
            ck, held_stats, world.instructions(), rng=np.random.default_rng(7 + salt)
        )
        baseline = analysis.random_frame_pair_similarity(
            ck, held_stats, np.random.default_rng(8 + salt)
        )
        return stats["first_image_pairwise_mean"] - baseline

    means = {
        variant: float(np.mean([margin(arm[s], s) for s in SEEDS]))
        for variant, arm in ckpts_by_variant.items()
    }
    elapsed = time.time() - t0
    ok = means["p"] >= 0.1 and means["t"] >= 0.1 and means["frame-align"] < 0.1 and elapsed < 60.0
    report(
        "09 first-image clustering", ok,
        f"margins: potential {means['p']:+.3f}, transition {means['t']:+.3f}, "
        f"frame-align {means['frame-align']:+.3f} ({elapsed:.1f}s)",
    )
    assert means["p"] >= 0.1
    assert means["t"] >= 0.1
    assert means["frame-align"] < 0.1


def test_c10_intermediary_frame_ablation(bc_success_t, ckpts_t8, bc_demos, world):
    """Endpoint-only features do at least as well downstream as 8-hop features."""
    t0 = time.time()
    succ_t8 = []
    for s in SEEDS:
        policy = imitation.train_bc(ckpts_t8[s], bc_demos, imitation.BcConfig(seed=s))
        succ_t8.append(
            imitation.evaluate_bc_all(policy, ckpts_t8[s], world, BC_EPISODES, seed=s)["success_rate"]
        )
    mean_t1 = float(np.mean(list(bc_success_t.values())))
    mean_t8 = float(np.mean(succ_t8))
    elapsed = time.time() - t0
    ok = mean_t1 >= mean_t8
    report(
        "10 intermediary-frame ablation", ok,
        f"endpoints-only {mean_t1:.3f} vs 8-hop {mean_t8:.3f} over {len(SEEDS)} seeds ({elapsed:.0f}s)",
    )
    assert mean_t1 >= mean_t8


def test_c11_planner_ordering(ckpt_t, world):
    """Learned-reward planning beats random actions; oracle reward saturates."""
    t0 = time.time()
    rates = {"embedding": [], "random": [], "oracle": []}
    for s in SEEDS:
        for arm in rates:
            ck = ckpt_t if arm == "embedding" else None
            rates[arm].append(
                planning.evaluate_planner(
                    ck, world, world.instructions(), PLANNER_EPISODES, PLANNER_CONFIG,
                    seed=s, reward=arm,
                )["success_rate"]
            )
    means = {k: float(np.mean(v)) for k, v in rates.items()}
    elapsed = time.time() - t0
    ok = (
        means["embedding"] >= means["random"] + 0.3
        and means["oracle"] >= 0.9
        and elapsed < 600.0
    )
    report(
        "11 planner ordering", ok,
        f"learned {means['embedding']:.3f}, random {means['random']:.3f}, "
        f"oracle {means['oracle']:.3f} ({elapsed:.0f}s)",
    )
    assert means["embedding"] >= means["random"] + 0.3
    assert means["oracle"] >= 0.9


def test_c12_imitation_ordering(bc_success_t, bc_demos, world):
    """Frozen trained features beat frozen random-encoder features by 0.2."""
    t0 = time.time()
    succ_random = []
    for s in SEEDS:
        enc = init_params(
            EncoderConfig(d_obs=world.config.d_obs, vocab_size=world.config.vocab_size), seed=s
        )
        ck = Checkpoint(
            encoders=enc, objective=ObjectiveSpec(variant="t"),
            config=train_config("t", s), iteration=0, history=np.zeros((1, 3)),
        )
        policy = imitation.train_bc(ck, bc_demos, imitation.BcConfig(seed=s))
        succ_random.append(
            imitation.evaluate_bc_all(policy, ck, world, BC_EPISODES, seed=s)["success_rate"]
        )
    mean_t = float(np.mean(list(bc_success_t.values())))
    mean_r = float(np.mean(succ_random))
    elapsed = time.time() - t0
    ok = mean_t >= mean_r + 0.2
    report(
        "12 imitation ordering", ok,
        f"trained features {mean_t:.3f} vs random features {mean_r:.3f} ({elapsed:.0f}s)",
    )
    assert mean_t >= mean_r + 0.2


def test_c13_reproducibility(workspace, manifests, dataset_file, ckpt_t_path, world):
    """Every file-producing acceptance run replays byte-identically from its
    manifest alone."""
    t0 = time.time()

    # produce the remaining command-line artifacts next to the session ones
    extra = [
        (["sampling-stats", "--h", "37", "--samples", "1000000", "--seed", "2024",
          "--out", str(workspace / "goal-stats.csv")], workspace / "goal-stats.csv"),
        (["heatmap", "--ckpt", str(ckpt_t_path), "--data", str(dataset_file),
          "--out", str(workspace / "heatmap.csv")], workspace / "heatmap.csv"),
        (["reward-curve", "--ckpt", str(ckpt_t_path), "--data", str(dataset_file),
          "--traj-index", "0", "--out", str(workspace / "curve.csv")], workspace / "curve.csv"),
        (["first-image-stats", "--ckpt", str(ckpt_t_path), "--data", str(dataset_file),
          "--out", str(workspace / "first-image.json")], workspace / "first-image.json"),
        (["plan", "--ckpt", str(ckpt_t_path), "--episodes", "16", "--iterations", "16",
          "--temperature", "1.0", "--out", str(workspace / "plan.json")], workspace / "plan.json"),
        (["eval-lcbc", "--ckpt", str(ckpt_t_path), "--demos", str(dataset_file),
          "--steps", "200", "--episodes", "3", "--out", str(workspace / "lcbc.json")],
         workspace / "lcbc.json"),
    ]
    for args, out in extra:
        run_cli(args, manifests, out)

    replay_dir = workspace / "replay"
    replay_dir.mkdir(exist_ok=True)
    mismatches = []
    for k, manifest_path in enumerate(manifests):
        manifest = json.loads(manifest_path.read_text())
        sub = replay_dir / f"run{k:02d}-{manifest['subcommand']}"
        sub.mkdir()
        out_map = {orig: str(sub / Path(orig).name) for orig in manifest["outputs"]}
        replay_manifest(manifest_path, out_map=out_map)
        for orig, replayed in out_map.items():
            if Path(orig).read_bytes() != Path(replayed).read_bytes():
                mismatches.append(orig)
    elapsed = time.time() - t0
    ok = not mismatches
    report(
        "13 reproducibility", ok,
        f"{len(manifests)} manifests replayed byte-identically ({elapsed:.0f}s)"
        + (f"; mismatches: {mismatches}" if mismatches else ""),
    )
    assert not mismatches


def test_c99_summary():
    """Print the consolidated PASS/FAIL table after all criteria ran."""
    print("\n" + "=" * 72)
    for criterion in sorted(_results):
        ok, detail = _results[criterion]
        print(f"  {'PASS' if ok else 'FAIL'}  {criterion}: {detail}")
    print("=" * 72)
