"""The three benchmark workloads.

Each workload is a closed loop run by one caller: set-up builds its inputs
from the workload seed, then its stages run round-robin, one block of fixed
work each, until the run's time is up. Interleaving the stages spreads a
stall of the shared machine over all of them instead of one, and each
stage's figure comes from the median of its blocks.

A stage returns ``(ops attempted, ops failed)``; an operation fails when it
raises or when a correctness check on its output does not hold.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
import dataclasses
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from segnce import analysis, cli, imitation, planning, training, world
from segnce.objectives import ObjectiveSpec
from segnce.sampling import Segment

OBJECTIVES = ("t", "p", "t4", "t8", "frame-align")
HEATMAP_LENGTHS = ("5", "10", "full")


@dataclass(frozen=True)
class Sizes:
    """Work per set-up and per block. ``FULL`` is the benchmark; ``SMOKE``
    runs every code path at toy size."""

    train_dataset: int  # trajectories generated, saved and loaded by train-objectives set-up
    train_iterations: int  # iterations in one training run (one block per objective)
    frozen_dataset: int  # trajectories the frozen-consumers checkpoint trains on
    frozen_iterations: int
    plan_episodes: int  # planner episodes per block
    plan_iterations: int
    bc_steps: int  # train_bc steps per block
    bc_episodes: int  # closed-loop BC episodes per instruction per block
    held_per_task: int  # held-out demos per task for the heatmap
    cli_count: int  # gen-world trajectories per pipeline pass
    cli_iterations: int
    cli_plan_episodes: int
    cli_bc_steps: int


FULL = Sizes(
    train_dataset=4000, train_iterations=40,
    frozen_dataset=500, frozen_iterations=300,
    plan_episodes=8, plan_iterations=16, bc_steps=500, bc_episodes=5, held_per_task=6,
    cli_count=250, cli_iterations=40, cli_plan_episodes=2, cli_bc_steps=100,
)
SMOKE = Sizes(
    train_dataset=30, train_iterations=4,
    frozen_dataset=30, frozen_iterations=4,
    plan_episodes=2, plan_iterations=2, bc_steps=5, bc_episodes=1, held_per_task=1,
    cli_count=12, cli_iterations=3, cli_plan_episodes=1, cli_bc_steps=3,
)

# acceptance-suite controller: 16 iterations at temperature 1.0
PLANNER = dict(horizon=50, n_sequences=64, temperature=1.0, gamma=1.0, noise_scale=0.3)


def derive_seeds(seed: int, n: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence([seed, 0xBE4C]).generate_state(n)]


def loss_sha256(losses: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(losses, dtype="<f8").tobytes()).hexdigest()


def tail_loss(losses: np.ndarray) -> float:
    """Mean loss over the last tenth of iterations."""
    return float(losses[-max(1, len(losses) // 10):].mean())


def losses_ok(losses: np.ndarray) -> bool:
    """Finite, and the tail mean lies below the first loss."""
    return bool(np.all(np.isfinite(losses)) and tail_loss(losses) < losses[0])


def fraction_ok(x) -> bool:
    return bool(np.isfinite(x) and 0.0 <= x <= 1.0)


def warn(message: str) -> None:
    print(f"check failed: {message}", file=sys.stderr)


class Workload:
    """Set-up plus stages. A workload provides ``setup()``; ``stages()``, a
    list of (name, ops per block, block function); ``figures(median_s)``, its
    own figures from the median block time of each stage; ``tail_loss()``
    and ``loss_hashes()``."""

    name = ""
    setup_repeats = 3

    def __init__(self, sizes: Sizes, seed: int, workdir: Path):
        self.sizes, self.seed, self.workdir = sizes, seed, workdir


class TrainObjectives(Workload):
    """One ``training.train`` run per objective and block, batch 64, Adam at
    1e-3, on a dataset that set-up generates and round-trips through
    ``save_dataset``/``load_dataset`` as ``segnce train --data`` does."""

    name = "train-objectives"
    setup_repeats = 2  # one set-up generates, writes and parses ~94k frames

    def setup(self) -> None:
        wc = world.WorldConfig()
        data = world.World(wc).generate(self.sizes.train_dataset, seed=self.seed)
        path = self.workdir / "dataset.jsonl"
        world.save_dataset(path, wc, data)
        self.world_config, self.dataset = world.load_dataset(path)
        path.unlink()
        self.losses: dict[str, np.ndarray] = {}
        for variant in OBJECTIVES:  # first calls pay one-off costs; keep them out of the blocks
            training.train(dataclasses.replace(self._config(variant), iterations=2), self.dataset,
                           vocab_size=self.world_config.vocab_size)

    def _config(self, variant: str) -> training.TrainConfig:
        return training.TrainConfig(
            objective=ObjectiveSpec(variant=variant), iterations=self.sizes.train_iterations,
            batch_size=64, learning_rate=1e-3, optimizer="adam", seed=self.seed,
        )

    def _block(self, variant: str):
        def run() -> tuple[int, int]:
            ckpt = training.train(self._config(variant), self.dataset,
                                  vocab_size=self.world_config.vocab_size)
            losses = ckpt.history[:, 1]
            first = self.losses.setdefault(variant, losses)
            if not losses_ok(losses):
                warn(f"{variant}: loss history not finite or tail not below the first loss")
                return 1, 1
            if losses.tobytes() != first.tobytes():
                warn(f"{variant}: repeated run with the same seed changed the loss history")
                return 1, 1
            return 1, 0
        return run

    def stages(self):
        return [(f"train_{v}", 1, self._block(v)) for v in OBJECTIVES]

    def figures(self, median_s):
        segments = self.sizes.train_iterations * 64
        return {f"train_{v}_seg_per_s": (segments / median_s[f"train_{v}"], "segments/s")
                for v in OBJECTIVES} | {"train_tail_loss": (self.tail_loss(), "nats")}

    def tail_loss(self) -> float:
        return float(np.mean([tail_loss(self.losses[v]) for v in OBJECTIVES]))

    def loss_hashes(self):
        return {v: loss_sha256(self.losses[v]) for v in OBJECTIVES}


class FrozenConsumers(Workload):
    """Planner, behavior cloning and heatmap on a frozen ``t`` checkpoint that
    set-up trains and round-trips through the checkpoint container."""

    name = "frozen-consumers"

    def setup(self) -> None:
        s = self.sizes
        data_seed, bc_seed, held_seed, self.plan_seed, self.bc_seed = derive_seeds(self.seed, 5)
        self.world = world.World(world.WorldConfig())
        data = self.world.generate(s.frozen_dataset, seed=data_seed)
        ckpt = training.train(
            training.TrainConfig(objective=ObjectiveSpec(variant="t"),
                                 iterations=s.frozen_iterations, seed=self.seed),
            data, vocab_size=self.world.config.vocab_size)
        path = self.workdir / "encoder-t.ckpt"
        training.save_checkpoint(ckpt, path)
        self.ckpt = training.load_checkpoint(path)
        if not losses_ok(self.ckpt.history[:, 1]):
            raise RuntimeError("set-up training: loss history not finite or tail not below the first loss")
        self.bc_demos = self.world.generate_demos(5, seed=bc_seed)
        held = self.world.generate_demos(s.held_per_task, seed=held_seed)
        self.segments = []
        for traj in held:
            for spec in HEATMAP_LENGTHS:
                length = traj.h - 1 if spec == "full" else min(int(spec), traj.h - 1)
                start = (traj.h - 1 - length) // 2
                self.segments.append(Segment(traj, start, start + length))
        self.instructions = self.world.instructions()
        self.planner = planning.PlannerConfig(iterations=s.plan_iterations, **PLANNER)
        self.bc_config = imitation.BcConfig(steps=s.bc_steps, seed=self.bc_seed)
        # first calls pay one-off costs; keep them out of the blocks
        planning.evaluate_planner(self.ckpt, self.world, self.instructions, 1,
                                  dataclasses.replace(self.planner, iterations=1))
        self.policy = imitation.train_bc(self.ckpt, self.bc_demos[:1],
                                         dataclasses.replace(self.bc_config, steps=2))
        imitation.evaluate_bc_all(self.policy, self.ckpt, self.world, 1)
        analysis.reward_heatmap(self.ckpt, self.segments[:1], self.instructions)
        self.policy = None
        self.plan_rates, self.bc_rates = [], []

    def _plan(self):
        n = self.sizes.plan_episodes
        report = planning.evaluate_planner(self.ckpt, self.world, self.instructions, n,
                                           self.planner, seed=self.plan_seed)
        rate = report["success_rate"]
        if self.plan_rates and rate != self.plan_rates[0]:
            warn("planner: repeated episodes with the same seed changed the success rate")
            return n, n
        if not fraction_ok(rate):
            warn(f"planner: success rate {rate} outside [0, 1]")
            return n, n
        self.plan_rates.append(rate)
        return n, 0

    def _bc_train(self):
        policy = imitation.train_bc(self.ckpt, self.bc_demos, self.bc_config)
        if not losses_ok(policy.loss_history):
            warn("train_bc: loss history not finite or tail not below the first loss")
            return 1, 1
        self.policy = policy
        return 1, 0

    def _bc_eval(self):
        n = self.sizes.bc_episodes * self.world.config.n_tasks
        if self.policy is None:
            return n, n
        report = imitation.evaluate_bc_all(self.policy, self.ckpt, self.world,
                                           self.sizes.bc_episodes, seed=self.bc_seed)
        rates = [report["success_rate"], *report["per_instruction"].values()]
        if not all(fraction_ok(r) for r in rates):
            warn(f"evaluate_bc_all: success rates {rates} outside [0, 1]")
            return n, n
        self.bc_rates.append(report["success_rate"])
        return n, 0

    def _heatmap(self):
        grid = analysis.reward_heatmap(self.ckpt, self.segments, self.instructions)
        values = grid.values
        if values.shape != (len(self.segments), len(self.instructions)) or not (
                np.all(np.isfinite(values)) and np.all(np.abs(values) <= 1.0 + 1e-9)):
            warn("reward_heatmap: values not finite or outside the cosine range [-1, 1]")
            return 1, 1
        return 1, 0

    def stages(self):
        return [
            ("plan", self.sizes.plan_episodes, self._plan),
            ("bc_train", 1, self._bc_train),
            ("bc_eval", self.sizes.bc_episodes * self.world.config.n_tasks, self._bc_eval),
            ("heatmap", 1, self._heatmap),
        ]

    def figures(self, median_s):
        s = self.sizes
        env_steps = s.bc_episodes * self.world.config.n_tasks * self.world.config.h_max
        cells = len(self.segments) * len(self.instructions)
        return {
            "plan_episodes_per_s": (s.plan_episodes / median_s["plan"], "1/s"),
            "plan_success_rate": (float(np.mean(self.plan_rates)) if self.plan_rates else 0.0,
                                  "fraction"),
            "bc_train_steps_per_s": (s.bc_steps / median_s["bc_train"], "1/s"),
            "bc_eval_env_steps_per_s": (env_steps / median_s["bc_eval"], "1/s"),
            "bc_success_rate": (float(np.mean(self.bc_rates)) if self.bc_rates else 0.0,
                                "fraction"),
            "heatmap_cells_per_s": (cells / median_s["heatmap"], "1/s"),
        }

    def tail_loss(self) -> float:
        return tail_loss(self.ckpt.history[:, 1])

    def loss_hashes(self):
        return {"t": loss_sha256(self.ckpt.history[:, 1])}


class CliPipeline(Workload):
    """``segnce.cli.main`` in process: gen-world, train, heatmap, reward-curve,
    plan and eval-lcbc, then a replay of every manifest compared byte for
    byte with the original outputs."""

    name = "cli-pipeline"
    setup_repeats = 5  # a set-up is a ~0.2 s toy pass; more repeats steady its median
    SUBCOMMANDS = ("gen-world", "train", "heatmap", "reward-curve", "plan", "eval-lcbc")

    def setup(self) -> None:
        # a toy pass lets first-call costs (imports, logging, file creation) land here
        self.pass_dir = self.workdir / "pass"
        self.replay_dir = self.workdir / "replay"
        for d in (self.pass_dir, self.replay_dir):
            shutil.rmtree(d, ignore_errors=True)
            d.mkdir(parents=True)
        for args in self._commands(SMOKE):
            cli.main([*args, "--quiet"])
        self.losses = None  # loss column of the last `segnce train`
        self.mismatches = 0

    def _commands(self, s: Sizes) -> list[list[str]]:
        d, seed = self.pass_dir, str(self.seed)
        data, ckpt = str(d / "dataset.jsonl"), str(d / "encoder.ckpt")
        return [
            ["gen-world", "--out", data, "--count", str(s.cli_count), "--seed", seed],
            ["train", "--data", data, "--objective", "t", "--out", ckpt,
             "--iterations", str(s.cli_iterations), "--seed", seed],
            ["heatmap", "--ckpt", ckpt, "--data", data, "--out", str(d / "heatmap.csv")],
            ["reward-curve", "--ckpt", ckpt, "--data", data, "--traj-index", "0",
             "--out", str(d / "curve.csv")],
            ["plan", "--ckpt", ckpt, "--episodes", str(s.cli_plan_episodes),
             "--iterations", str(s.plan_iterations), "--temperature", "1.0",
             "--seed", seed, "--out", str(d / "plan.json")],
            ["eval-lcbc", "--ckpt", ckpt, "--demos", data, "--steps", str(s.cli_bc_steps),
             "--episodes", "1", "--seed", seed, "--out", str(d / "lcbc.json")],
        ]

    def _subcommand(self, args: list[str]):
        def run() -> tuple[int, int]:
            if cli.main([*args, "--quiet"]) != 0:
                warn(f"segnce {args[0]} exited non-zero")
                return 1, 1
            if args[0] == "train":
                return 1, self._check_training(Path(args[args.index("--out") + 1]))
            return 1, 0
        return run

    def _check_training(self, ckpt_path: Path) -> int:
        rows = np.loadtxt(ckpt_path.with_name(ckpt_path.name + ".metrics.csv"),
                          delimiter=",", skiprows=1, ndmin=2)
        if not losses_ok(rows[:, 1]):
            warn("segnce train: loss history not finite or tail not below the first loss")
            return 1
        self.losses = rows[:, 1]
        return 0

    def _replay(self) -> tuple[int, int]:
        failed = 0
        manifests = sorted(self.pass_dir.glob("*" + cli.MANIFEST_SUFFIX))
        for manifest in manifests:
            outputs = json.loads(manifest.read_text(encoding="utf-8"))["outputs"]
            out_map = {o: str(self.replay_dir / Path(o).name) for o in outputs}
            try:
                cli.replay_manifest(manifest, out_map=out_map)
            except Exception as exc:  # a failed replay is a failed operation
                warn(f"replay of {manifest.name} raised {exc!r}")
                failed += 1
                continue
            if any(Path(o).read_bytes() != Path(r).read_bytes() for o, r in out_map.items()):
                warn(f"replay of {manifest.name} did not reproduce its outputs byte for byte")
                self.mismatches += 1
                failed += 1
        if len(manifests) != len(self.SUBCOMMANDS):
            warn(f"expected {len(self.SUBCOMMANDS)} manifests, found {len(manifests)}")
            return len(self.SUBCOMMANDS), len(self.SUBCOMMANDS)
        return len(manifests), failed

    def stages(self):
        out = [(args[0], 1, self._subcommand(args)) for args in self._commands(self.sizes)]
        return out + [("replay", len(self.SUBCOMMANDS), self._replay)]

    def figures(self, median_s):
        return {"pipeline_wall_s": (sum(median_s.values()), "s")}

    def tail_loss(self) -> float:
        return tail_loss(self.losses) if self.losses is not None else float("nan")

    def loss_hashes(self):
        return {"t": loss_sha256(self.losses)} if self.losses is not None else {}


WORKLOADS = {w.name: w for w in (TrainObjectives, FrozenConsumers, CliPipeline)}
