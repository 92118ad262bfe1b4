"""Command-line surface: dataset generation, training, analysis exports,
planning and imitation evaluation.

Every subcommand resolves its configuration as defaults < config file <
explicit flags, writes its outputs plus a manifest JSON beside the main
output, and can be re-executed byte-identically from that manifest alone
(``segnce replay --manifest ...``). Outputs carry no timestamps.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import sys
from pathlib import Path

import numpy as np
from scipy import stats as sstats

from . import analysis, imitation, planning
from .errors import SegnceError, EmptyInputError
from .objectives import ObjectiveSpec, VARIANTS
from .sampling import Segment, empirical_goal_histogram, goal_probability
from .training import TrainConfig, load_checkpoint, save_checkpoint, train
from .world import World, WorldConfig, generate_dataset, load_dataset, save_dataset

log = logging.getLogger("segnce")

MANIFEST_SUFFIX = ".manifest.json"


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    h.update(Path(path).read_bytes())
    return h.hexdigest()


def _write_manifest(subcommand: str, config: dict, inputs: list, outputs: list) -> Path:
    main_output = Path(outputs[0])
    manifest = {
        "subcommand": subcommand,
        "config": config,
        "inputs": {str(p): _sha256(Path(p)) for p in inputs},
        "outputs": [str(p) for p in outputs],
    }
    path = main_output.with_name(main_output.name + MANIFEST_SUFFIX)
    path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    return path


def _check_config(config, defaults: dict, source) -> dict:
    """A config is a JSON object of known keys, each value of its default's
    type: int for an int, int or float for a float, str where the default is
    None (or null for the optional keys)."""
    if not isinstance(config, dict):
        raise EmptyInputError(f"config in {source} is not a JSON object: {config!r}")
    for key, value in config.items():
        if key not in defaults:
            raise EmptyInputError(f"unknown config key {key!r} in {source}")
        default = defaults[key]
        if default is None:
            types = (str, type(None)) if key in ("instruction", "policy_out") else str
        else:
            types = (int, float) if isinstance(default, float) else type(default)
        if isinstance(value, bool) or not isinstance(value, types):
            raise EmptyInputError(f"config key {key!r} in {source} has a value of the wrong type: {value!r}")
    return config


def _resolve(defaults: dict, config_file: str | None, flags: dict) -> dict:
    """defaults < config file < explicitly set flags."""
    resolved = dict(defaults)
    if config_file:
        try:
            loaded = json.loads(Path(config_file).read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise EmptyInputError(f"unreadable config file {config_file}: {exc}") from exc
        resolved.update(_check_config(loaded, defaults, config_file))
    resolved.update({k: v for k, v in flags.items() if v is not None})
    return resolved


def _world_from_cfg(cfg: dict) -> WorldConfig:
    return WorldConfig(
        task_pairs=cfg["task_pairs"],
        d_obs=cfg["d_obs"],
        noise=cfg["noise"],
        h_min=cfg["h_min"],
        h_max=cfg["h_max"],
        d_act=cfg["d_act"],
        seed=cfg["world_seed"],
    )


WORLD_DEFAULTS = {
    "task_pairs": 4,
    "d_obs": 32,
    "noise": 0.05,
    "h_min": 20,
    "h_max": 40,
    "d_act": 2,
    "world_seed": 0,
}


# ---- subcommand runners (replayable from their resolved config) ---------------------


def _run_gen_world(cfg: dict) -> tuple[list, list]:
    if cfg["count"] < 1:
        raise EmptyInputError(f"count must be >= 1, got {cfg['count']}")
    wc = _world_from_cfg(cfg)
    trajectories = generate_dataset(wc, cfg["count"], seed=cfg["seed"])
    out = Path(cfg["out"])
    save_dataset(out, wc, trajectories)
    log.info("wrote %d trajectories to %s", len(trajectories), out)
    return [], [out]


def _run_train(cfg: dict) -> tuple[list, list]:
    wc, dataset = load_dataset(cfg["data"])
    spec = ObjectiveSpec(
        variant=cfg["objective"], embed_dim=cfg["embed_dim"], temperature=cfg["temperature"]
    )
    tc = TrainConfig(
        objective=spec,
        iterations=cfg["iterations"],
        batch_size=cfg["batch_size"],
        learning_rate=cfg["lr"],
        optimizer=cfg["optimizer"],
        weight_decay=cfg["weight_decay"],
        seed=cfg["seed"],
        checkpoint_interval=cfg["ckpt_interval"],
    )
    out = Path(cfg["out"])
    ckpt = train(tc, dataset, vocab_size=wc.vocab_size, checkpoint_path=out)
    save_checkpoint(ckpt, out)
    metrics_path = out.with_suffix(out.suffix + ".metrics.csv")
    with metrics_path.open("w", encoding="utf-8") as fh:
        fh.write("iteration,loss,grad_norm\n")
        for it, loss, gn in ckpt.history:
            fh.write(f"{int(it)},{float(loss)!r},{float(gn)!r}\n")
    log.info("final loss %.6f after %d iterations", ckpt.history[-1, 1], ckpt.iteration)
    return [cfg["data"]], [out, metrics_path]


def _run_sampling_stats(cfg: dict) -> tuple[list, list]:
    h, samples = cfg["h"], cfg["samples"]
    if h < 2:
        raise EmptyInputError(f"need h >= 2, got {h}")
    rng = np.random.default_rng(np.random.SeedSequence([cfg["seed"], 0x5A]))
    freqs, no_goal = empirical_goal_histogram(h, samples, rng)
    analytic = np.array([goal_probability(h, t) for t in range(1, h + 1)])
    # frame 1 can never be a goal; chi-square runs over the reachable bins plus no-goal
    observed = np.concatenate([freqs[1:] * samples, [no_goal * samples]])
    expected = np.concatenate([analytic[1:] * samples, [samples / h]])
    chi2, p_value = sstats.chisquare(observed, expected)
    out = Path(cfg["out"])
    with out.open("w", encoding="utf-8") as fh:
        fh.write("t,analytic,empirical\n")
        for t in range(1, h + 1):
            fh.write(f"{t},{float(analytic[t - 1])!r},{float(freqs[t - 1])!r}\n")
        fh.write(f"no_goal,{1.0 / h!r},{no_goal!r}\n")
        fh.write(f"chi2,{float(chi2)!r},\n")
        fh.write(f"p_value,{float(p_value)!r},\n")
    log.info("h=%d chi2 p-value %.4f", h, p_value)
    return [], [out]


def _load_ckpt_and_world(cfg: dict):
    ckpt = load_checkpoint(cfg["ckpt"])
    wc, dataset = load_dataset(cfg["data"])
    return ckpt, World(wc), dataset


def _run_reward_curve(cfg: dict) -> tuple[list, list]:
    ckpt, world, dataset = _load_ckpt_and_world(cfg)
    idx = cfg["traj_index"]
    if not (0 <= idx < len(dataset)):
        raise EmptyInputError(f"trajectory index {idx} outside dataset of {len(dataset)}")
    traj = dataset[idx]
    instruction = (
        world.parse_instruction(cfg["instruction"]) if cfg["instruction"] else traj.instruction
    )
    curve = analysis.reward_curve(ckpt, traj, instruction)
    out = Path(cfg["out"])
    analysis.write_curve_csv(out, curve)
    return [cfg["ckpt"], cfg["data"]], [out]


def _comma_list(cfg: dict, key: str, words=()) -> list:
    """The non-empty entries of the comma list ``cfg[key]``, as positive
    integers unless one of ``words``."""
    values = []
    for part in filter(None, (part.strip() for part in cfg[key].split(","))):
        try:
            values.append(part if part in words else int(part))
        except ValueError:
            raise EmptyInputError(f"--{key} entry {part!r} is not an integer") from None
        if part not in words and values[-1] < 1:
            raise EmptyInputError(f"--{key} entry {part!r} is below 1")
    return values


def heatmap_segments(world: World, dataset, lengths) -> tuple[list[Segment], list[str]]:
    """One row per (task, requested length): centered segments from the first
    trajectory of each task; 'full' means the whole trajectory."""
    by_task = {}
    for traj in dataset:
        task = world.task_for_instruction(traj.instruction)
        by_task.setdefault(task, traj)
    segments, labels = [], []
    for task in sorted(by_task):
        traj = by_task[task]
        name = world.instruction_name(traj.instruction)
        for spec in lengths:
            length = traj.h - 1 if spec == "full" else int(spec)
            length = min(length, traj.h - 1)
            start = (traj.h - 1 - length) // 2
            segments.append(Segment(traj, start, start + length))
            labels.append(f"{name} len={length}")
    return segments, labels


def _run_heatmap(cfg: dict) -> tuple[list, list]:
    ckpt, world, dataset = _load_ckpt_and_world(cfg)
    segments, row_labels = heatmap_segments(world, dataset, _comma_list(cfg, "lengths", ("full",)))
    instructions = world.instructions()
    grid = analysis.reward_heatmap(
        ckpt,
        segments,
        instructions,
        row_labels=row_labels,
        col_labels=[world.instruction_name(i) for i in instructions],
    )
    out = Path(cfg["out"])
    analysis.write_heatmap_csv(out, grid)
    return [cfg["ckpt"], cfg["data"]], [out]


def _run_first_image_stats(cfg: dict) -> tuple[list, list]:
    ckpt, world, dataset = _load_ckpt_and_world(cfg)
    rng = np.random.default_rng(np.random.SeedSequence([cfg["seed"], 0xF1]))
    stats = analysis.first_image_similarity_stats(ckpt, dataset, world.instructions(), rng=rng)
    stats["random_frame_pair_mean"] = analysis.random_frame_pair_similarity(
        ckpt, dataset, np.random.default_rng(np.random.SeedSequence([cfg["seed"], 0xF2]))
    )
    out = Path(cfg["out"])
    analysis.write_stats_json(out, stats)
    return [cfg["ckpt"], cfg["data"]], [out]


def _run_plan(cfg: dict) -> tuple[list, list]:
    ckpt = load_checkpoint(cfg["ckpt"])
    wc = _world_from_cfg(cfg)
    world = World(wc)
    instructions = (
        [world.parse_instruction(cfg["instruction"])] if cfg["instruction"] else world.instructions()
    )
    pc = planning.PlannerConfig(
        horizon=cfg["horizon"],
        n_sequences=cfg["sequences"],
        iterations=cfg["iterations"],
        temperature=cfg["temperature"],
        gamma=cfg["gamma"],
        noise_scale=cfg["noise_scale"],
    )
    report = planning.evaluate_planner(
        ckpt, world, instructions, cfg["episodes"], pc, seed=cfg["seed"], reward=cfg["reward"]
    )
    out = Path(cfg["out"])
    planning.write_planner_report(out, report)
    log.info("planner success rate %.3f", report["success_rate"])
    return [cfg["ckpt"]], [out]


def _run_eval_lcbc(cfg: dict) -> tuple[list, list]:
    ckpt = load_checkpoint(cfg["ckpt"])
    wc, demos = load_dataset(cfg["demos"])
    world = World(wc)
    bc = imitation.BcConfig(
        hidden=tuple(_comma_list(cfg, "hidden")),
        learning_rate=cfg["lr"],
        batch_size=cfg["batch_size"],
        steps=cfg["steps"],
        seed=cfg["seed"],
    )
    policy = imitation.train_bc(ckpt, demos, bc)
    report = imitation.evaluate_bc_all(policy, ckpt, world, cfg["episodes"], seed=cfg["seed"])
    report["final_train_loss"] = float(policy.loss_history[-1])
    out = Path(cfg["out"])
    imitation.write_bc_report(out, report)
    if cfg["policy_out"]:
        imitation.save_policy(policy, cfg["policy_out"])
        return [cfg["ckpt"], cfg["demos"]], [out, Path(cfg["policy_out"])]
    return [cfg["ckpt"], cfg["demos"]], [out]


_RUNNERS = {
    "gen-world": _run_gen_world,
    "train": _run_train,
    "sampling-stats": _run_sampling_stats,
    "reward-curve": _run_reward_curve,
    "heatmap": _run_heatmap,
    "first-image-stats": _run_first_image_stats,
    "plan": _run_plan,
    "eval-lcbc": _run_eval_lcbc,
}


def run_resolved(subcommand: str, cfg: dict) -> Path:
    """Execute a subcommand from its fully resolved config; returns the manifest path."""
    inputs, outputs = _RUNNERS[subcommand](cfg)
    return _write_manifest(subcommand, cfg, inputs, outputs)


def replay_manifest(manifest_path, out_map: dict | None = None) -> Path:
    """Re-execute a run from its manifest; optionally remap output paths.

    Every input the manifest records is re-hashed first; if one has changed
    since the run, nothing is executed and no output is touched.
    """
    try:
        manifest = json.loads(Path(manifest_path).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SegnceError(f"unreadable manifest {manifest_path}: {exc}") from exc
    subcommand = manifest.get("subcommand") if isinstance(manifest, dict) else None
    if not isinstance(subcommand, str) or subcommand not in _RUNNERS:
        raise SegnceError(f"manifest {manifest_path} names no known subcommand")
    defaults = _DEFAULTS[subcommand]
    missing = set(defaults) - set(_check_config(manifest.get("config"), defaults, manifest_path))
    if missing:
        raise SegnceError(f"config in manifest {manifest_path} lacks keys {sorted(missing)}")
    inputs = manifest.get("inputs")
    if not isinstance(inputs, dict) or not all(isinstance(d, str) for d in inputs.values()):
        raise SegnceError(f"inputs in manifest {manifest_path} are not a path -> sha256 object")
    for path, digest in inputs.items():
        if _sha256(Path(path)) != digest:
            raise SegnceError(f"replay input {path} does not match the sha256 its manifest records")
    cfg = dict(manifest["config"])
    if out_map:
        for key, value in list(cfg.items()):
            if isinstance(value, str) and value in out_map:
                cfg[key] = str(out_map[value])
    return run_resolved(subcommand, cfg)


# ---- argument parsing -----------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", default=None, help="JSON file of config overrides")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--quiet", action="store_true")
    p.add_argument("--verbose", action="store_true")


def _add_world_flags(p: argparse.ArgumentParser):
    p.add_argument("--task-pairs", dest="task_pairs", type=int, default=None)
    p.add_argument("--d-obs", dest="d_obs", type=int, default=None)
    p.add_argument("--noise", type=float, default=None)
    p.add_argument("--h-min", dest="h_min", type=int, default=None)
    p.add_argument("--h-max", dest="h_max", type=int, default=None)
    p.add_argument("--d-act", dest="d_act", type=int, default=None)
    p.add_argument("--world-seed", dest="world_seed", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="segnce",
        description="Segment-contrastive representation learning and its downstream consumers",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("gen-world", help="generate a synthetic trajectory dataset")
    _add_common(p)
    _add_world_flags(p)
    p.add_argument("--out", required=True)
    p.add_argument("--count", type=int, default=None)

    p = sub.add_parser("train", help="train encoders on a dataset")
    _add_common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--objective", choices=VARIANTS, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--iterations", type=int, default=None)
    p.add_argument("--batch-size", dest="batch_size", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--optimizer", choices=("adam", "sgd"), default=None)
    p.add_argument("--weight-decay", dest="weight_decay", type=float, default=None)
    p.add_argument("--embed-dim", dest="embed_dim", type=int, default=None)
    p.add_argument("--temperature", type=float, default=None)
    p.add_argument("--ckpt-interval", dest="ckpt_interval", type=int, default=None,
                   help="persist a snapshot every N iterations (0: final only)")

    p = sub.add_parser("sampling-stats", help="analytic vs empirical goal-index statistics")
    _add_common(p)
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--out", required=True)

    p = sub.add_parser("reward-curve", help="per-frame similarity curve for one trajectory")
    _add_common(p)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--traj-index", dest="traj_index", type=int, default=None)
    p.add_argument("--instruction", default=None, help="e.g. 'open door'; defaults to the trajectory's own")
    p.add_argument("--out", required=True)

    p = sub.add_parser("heatmap", help="segment-by-instruction reward matrix")
    _add_common(p)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--lengths", default=None, help="comma list of segment lengths; 'full' = whole trajectory")
    p.add_argument("--out", required=True)

    p = sub.add_parser("first-image-stats", help="first-frame embedding clustering statistics")
    _add_common(p)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("plan", help="open-loop planning evaluation")
    _add_common(p)
    _add_world_flags(p)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--instruction", default=None, help="restrict to one instruction")
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--sequences", type=int, default=None)
    p.add_argument("--iterations", type=int, default=None)
    p.add_argument("--temperature", type=float, default=None)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--noise-scale", dest="noise_scale", type=float, default=None)
    p.add_argument("--episodes", type=int, default=None)
    p.add_argument("--reward", choices=("embedding", "oracle", "random"), default=None)
    p.add_argument("--out", required=True)

    p = sub.add_parser("eval-lcbc", help="train and evaluate a behavior-cloning policy")
    _add_common(p)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--demos", required=True)
    p.add_argument("--hidden", default=None, help="comma list of hidden widths")
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--batch-size", dest="batch_size", type=int, default=None)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--episodes", type=int, default=None)
    p.add_argument("--policy-out", dest="policy_out", default=None)
    p.add_argument("--out", required=True)

    p = sub.add_parser("replay", help="re-execute a run from its manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--quiet", action="store_true")
    p.add_argument("--verbose", action="store_true")

    return parser


_DEFAULTS = {
    "gen-world": {**WORLD_DEFAULTS, "seed": 0, "count": 200, "out": None},
    "train": {
        "data": None,
        "objective": "t",
        "out": None,
        "iterations": 2000,
        "batch_size": 64,
        "lr": 1e-3,
        "optimizer": "adam",
        "weight_decay": 0.0,
        "embed_dim": 32,
        "temperature": 1.0,
        "ckpt_interval": 0,
        "seed": 0,
    },
    "sampling-stats": {"h": 0, "samples": 1_000_000, "seed": 0, "out": None},  # --h is required
    "reward-curve": {"ckpt": None, "data": None, "traj_index": 0, "instruction": None, "out": None, "seed": 0},
    "heatmap": {"ckpt": None, "data": None, "lengths": "2,5,10,full", "out": None, "seed": 0},
    "first-image-stats": {"ckpt": None, "data": None, "out": None, "seed": 0},
    "plan": {
        **WORLD_DEFAULTS,
        "ckpt": None,
        "instruction": None,
        "horizon": 50,
        "sequences": 64,
        "iterations": 1,
        "temperature": 10.0,
        "gamma": 1.0,
        "noise_scale": 0.3,
        "episodes": 8,
        "reward": "embedding",
        "seed": 0,
        "out": None,
    },
    "eval-lcbc": {
        "ckpt": None,
        "demos": None,
        "hidden": "256,256",
        "lr": 1e-4,
        "batch_size": 16,
        "steps": 2000,
        "episodes": 25,
        "policy_out": None,
        "seed": 0,
        "out": None,
    },
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    level = logging.WARNING if args.quiet else (logging.DEBUG if args.verbose else logging.INFO)
    logging.basicConfig(level=level, format="%(message)s")

    try:
        if args.subcommand == "replay":
            manifest = replay_manifest(args.manifest)
            log.info("replayed into %s", manifest)
            return 0
        defaults = _DEFAULTS[args.subcommand]
        flags = {k: getattr(args, k) for k in defaults if hasattr(args, k)}
        cfg = _resolve(defaults, args.config, flags)
        manifest = run_resolved(args.subcommand, cfg)
        log.info("manifest: %s", manifest)
        return 0
    except (SegnceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
