"""Command-line surface: dataset generation, training, analysis exports,
planning and imitation evaluation.

Every subcommand resolves its configuration as defaults < config file <
explicit flags, writes its outputs plus a manifest JSON beside the main
output, and can be re-executed byte-identically from that manifest alone
(``segnce replay --manifest ...``). Outputs carry no timestamps, and every
JSON output goes through ``_write_json``, which refuses NaN and infinity.

Each config key is declared once, as an :class:`Option` in its subcommand's
row of ``_SUBCOMMANDS``, which gives its default, type, choices and help; its
flag is ``--`` plus the key with dashes for underscores. A default that
mirrors a library config field (``WorldConfig``, ``TrainConfig`` and its
``ObjectiveSpec``, ``PlannerConfig``, ``BcConfig``) is read from that field.
The parser, ``_DEFAULTS`` and the config type check are built from the rows.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import logging
import sys
from dataclasses import fields
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import analysis, imitation, planning
from .errors import SegnceError, EmptyInputError, NumericalError
from .objectives import ObjectiveSpec, VARIANTS
from .sampling import Segment, empirical_goal_histogram, goal_probability
from .training import TrainConfig, load_checkpoint, save_checkpoint, train
from .world import World, WorldConfig, load_dataset, save_dataset

log = logging.getLogger("segnce")

MANIFEST_SUFFIX = ".manifest.json"

REQUIRED = object()  # the default of an option whose flag must be given


class Option(NamedTuple):
    """One config key of a subcommand. ``default`` is REQUIRED, None for an
    optional string (the only key a config may set to null), or a value of
    the option's type; ``kind`` gives the type where there is no default."""

    key: str
    default: object = REQUIRED
    kind: type | None = None
    choices: tuple | None = None
    help: str | None = None

    @property
    def value_type(self) -> type:
        if self.kind is not None:
            return self.kind
        return str if self.default is None or self.default is REQUIRED else type(self.default)


def _sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _write_json(path, obj) -> None:
    """The one JSON writer: sorted keys, two-space indent, a final newline,
    and strict JSON, so a NaN or infinity is an error, never a bare token."""
    try:
        text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)
    except ValueError as exc:
        raise NumericalError(f"{path} would hold a non-finite number: {exc}") from exc
    Path(path).write_text(text + "\n", encoding="utf-8")


def _write_manifest(subcommand: str, config: dict, inputs: list, outputs: list) -> Path:
    main_output = Path(outputs[0])
    manifest = {
        "subcommand": subcommand,
        "config": config,
        "inputs": {str(p): _sha256(Path(p)) for p in inputs},
        "outputs": [str(p) for p in outputs],
    }
    path = main_output.with_name(main_output.name + MANIFEST_SUFFIX)
    _write_json(path, manifest)
    return path


def _check_config(config, options: dict[str, Option], source) -> dict:
    """A config is a JSON object of known keys, each value of its option's
    type (an int serves for a float), or null for an optional string."""
    if not isinstance(config, dict):
        raise EmptyInputError(f"config in {source} is not a JSON object: {config!r}")
    for key, value in config.items():
        if key not in options:
            raise EmptyInputError(f"unknown config key {key!r} in {source}")
        option = options[key]
        if value is None and option.default is None:
            continue
        types = (int, float) if option.value_type is float else option.value_type
        if isinstance(value, bool) or not isinstance(value, types):
            raise EmptyInputError(f"config key {key!r} in {source} has a value of the wrong type: {value!r}")
    return config


def _resolve(subcommand: str, config_file: str | None, flags: dict) -> dict:
    """defaults < config file < explicitly set flags."""
    resolved = dict(_DEFAULTS[subcommand])
    if config_file:
        try:
            loaded = json.loads(Path(config_file).read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
            raise EmptyInputError(f"unreadable config file {config_file}: {exc}") from exc
        resolved.update(_check_config(loaded, _OPTIONS[subcommand], config_file))
    resolved.update({k: v for k, v in flags.items() if v is not None})
    return resolved


# WorldConfig field -> config key; the world's own seed is "world_seed" beside the data seed
_WORLD_KEYS = {f.name: "world_seed" if f.name == "seed" else f.name for f in fields(WorldConfig)}


def _world_from_cfg(cfg: dict) -> WorldConfig:
    return WorldConfig(**{name: cfg[key] for name, key in _WORLD_KEYS.items()})


def _world_for(ckpt, wc: WorldConfig, source: str | None = None) -> World:
    """The world of ``wc``, once its frame width and vocabulary are the ones
    the checkpoint was trained for. ``source`` is the data file ``wc`` came
    from; without one, a mismatch names the world flag."""
    enc = ckpt.encoders.config
    for flag, what, ours, theirs in (("--d-obs", "d_obs", wc.d_obs, enc.d_obs),
                                     ("--task-pairs", "vocab_size", wc.vocab_size, enc.vocab_size)):
        if ours != theirs:
            raise EmptyInputError(f"{source or flag} gives {what} {ours}, but the checkpoint has {theirs}")
    return World(wc)


# ---- subcommand runners (replayable from their resolved config) ---------------------


def _check_sizes(cfg: dict, **lows: int) -> None:
    """Called before any work, but after any library config that owns a lower bound, so it names a low size."""
    for key, low in lows.items():  # numpy and SeedSequence end larger sizes in raw errors
        if not low <= cfg[key] < 2**31:
            raise EmptyInputError(f"--{key.replace('_', '-')} must be in [{low}, {2**31 - 1}], got {cfg[key]}")


def _run_gen_world(cfg: dict) -> tuple[list, list]:
    _check_sizes(cfg, count=1)
    wc = _world_from_cfg(cfg)
    trajectories = World(wc).generate(cfg["count"], seed=cfg["seed"])
    out = Path(cfg["out"])
    save_dataset(out, wc, trajectories)
    log.info("wrote %d trajectories to %s", len(trajectories), out)
    return [], [out]


def _run_train(cfg: dict) -> tuple[list, list]:
    spec = ObjectiveSpec(
        variant=cfg["objective"], embed_dim=cfg["embed_dim"], temperature=cfg["temperature"]
    )
    tc = TrainConfig(
        objective=spec,
        iterations=cfg["iterations"],
        batch_size=cfg["batch_size"],
        learning_rate=cfg["lr"],
        seed=cfg["seed"],
    )
    _check_sizes(cfg, iterations=1, batch_size=2, embed_dim=1)
    wc, dataset = load_dataset(cfg["data"])
    out = Path(cfg["out"])
    ckpt = train(tc, dataset, vocab_size=wc.vocab_size)
    save_checkpoint(ckpt, out)
    metrics_path = out.with_suffix(out.suffix + ".metrics.csv")
    with metrics_path.open("w", encoding="utf-8") as fh:
        fh.write("iteration,loss,grad_norm\n")
        for it, loss, gn in ckpt.history:
            fh.write(f"{int(it)},{float(loss)!r},{float(gn)!r}\n")
    log.info("final loss %.6f after %d iterations", ckpt.history[-1, 1], ckpt.iteration)
    return [cfg["data"]], [out, metrics_path]


def _run_sampling_stats(cfg: dict) -> tuple[list, list]:
    _check_sizes(cfg, h=2, samples=1)
    from scipy import stats as sstats  # here, not at module scope: no other subcommand loads scipy

    h, samples = cfg["h"], cfg["samples"]
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


def _load_ckpt_and_world(cfg: dict, data_key: str = "data"):
    ckpt = load_checkpoint(cfg["ckpt"])
    wc, dataset = load_dataset(cfg[data_key])
    return ckpt, _world_for(ckpt, wc, cfg[data_key]), dataset


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
    """The non-empty entries of the comma list ``cfg[key]``, as integers in
    [1, 2**31 - 1] unless one of ``words``."""
    values = []
    for part in filter(None, (part.strip() for part in cfg[key].split(","))):
        try:
            values.append(part if part in words else int(part))
        except ValueError:
            raise EmptyInputError(f"--{key} entry {part!r} is not an integer") from None
        if part not in words and not 1 <= values[-1] < 2**31:
            raise EmptyInputError(f"--{key} entry {part!r} must be in [1, {2**31 - 1}]")
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
    _write_json(out, stats)
    return [cfg["ckpt"], cfg["data"]], [out]


def _run_plan(cfg: dict) -> tuple[list, list]:
    pc = planning.PlannerConfig(
        horizon=cfg["horizon"],
        n_sequences=cfg["sequences"],
        iterations=cfg["iterations"],
        temperature=cfg["temperature"],
        gamma=cfg["gamma"],
        noise_scale=cfg["noise_scale"],
    )
    _check_sizes(cfg, horizon=1, sequences=2, episodes=1)
    ckpt = load_checkpoint(cfg["ckpt"])
    world = _world_for(ckpt, _world_from_cfg(cfg))
    instructions = (
        [world.parse_instruction(cfg["instruction"])] if cfg["instruction"] else world.instructions()
    )
    report = planning.evaluate_planner(
        ckpt, world, instructions, cfg["episodes"], pc, seed=cfg["seed"], reward=cfg["reward"]
    )
    out = Path(cfg["out"])
    _write_json(out, report)
    log.info("planner success rate %.3f", report["success_rate"])
    return [cfg["ckpt"]], [out]


def _run_eval_lcbc(cfg: dict) -> tuple[list, list]:
    bc = imitation.BcConfig(
        hidden=tuple(_comma_list(cfg, "hidden")),
        learning_rate=cfg["lr"],
        batch_size=cfg["batch_size"],
        steps=cfg["steps"],
        seed=cfg["seed"],
    )
    _check_sizes(cfg, steps=1, episodes=1)
    ckpt, world, demos = _load_ckpt_and_world(cfg, "demos")
    policy = imitation.train_bc(ckpt, demos, bc)
    report = imitation.evaluate_bc_all(policy, ckpt, world, cfg["episodes"], seed=cfg["seed"])
    report["final_train_loss"] = float(policy.loss_history[-1])
    out = Path(cfg["out"])
    _write_json(out, report)
    if cfg["policy_out"]:
        imitation.save_policy(policy, cfg["policy_out"])
        return [cfg["ckpt"], cfg["demos"]], [out, Path(cfg["policy_out"])]
    return [cfg["ckpt"], cfg["demos"]], [out]


# ---- the option table: (runner, help, options) per subcommand --------------------------

_WORLD, _TRAIN, _PLANNER, _BC = WorldConfig(), TrainConfig(), planning.PlannerConfig(), imitation.BcConfig()
_WORLD_OPTIONS = [Option(key, getattr(_WORLD, name)) for name, key in _WORLD_KEYS.items()]

_SUBCOMMANDS = {
    "gen-world": (_run_gen_world, "generate a synthetic trajectory dataset", [
        Option("seed", 0), *_WORLD_OPTIONS, Option("out"), Option("count", 200),
    ]),
    "train": (_run_train, "train encoders on a dataset", [
        Option("seed", _TRAIN.seed), Option("data"),
        Option("objective", _TRAIN.objective.variant, choices=VARIANTS), Option("out"),
        Option("iterations", _TRAIN.iterations), Option("batch_size", _TRAIN.batch_size),
        Option("lr", _TRAIN.learning_rate), Option("embed_dim", _TRAIN.objective.embed_dim),
        Option("temperature", _TRAIN.objective.temperature),
    ]),
    "sampling-stats": (_run_sampling_stats, "analytic vs empirical goal-index statistics", [
        Option("seed", 0), Option("h", kind=int), Option("samples", 1_000_000), Option("out"),
    ]),
    "reward-curve": (_run_reward_curve, "per-frame similarity curve for one trajectory", [
        Option("seed", 0), Option("ckpt"), Option("data"), Option("traj_index", 0),
        Option("instruction", None, help="e.g. 'open door'; defaults to the trajectory's own"),
        Option("out"),
    ]),
    "heatmap": (_run_heatmap, "segment-by-instruction reward matrix", [
        Option("seed", 0), Option("ckpt"), Option("data"),
        Option("lengths", "2,5,10,full", help="comma list of segment lengths; 'full' = whole trajectory"),
        Option("out"),
    ]),
    "first-image-stats": (_run_first_image_stats, "first-frame embedding clustering statistics", [
        Option("seed", 0), Option("ckpt"), Option("data"), Option("out"),
    ]),
    "plan": (_run_plan, "open-loop planning evaluation", [
        Option("seed", 0), *_WORLD_OPTIONS, Option("ckpt"),
        Option("instruction", None, help="restrict to one instruction"),
        Option("horizon", _PLANNER.horizon), Option("sequences", _PLANNER.n_sequences),
        Option("iterations", _PLANNER.iterations), Option("temperature", _PLANNER.temperature),
        Option("gamma", _PLANNER.gamma), Option("noise_scale", _PLANNER.noise_scale), Option("episodes", 8),
        Option("reward", "embedding", choices=("embedding", "oracle", "random")), Option("out"),
    ]),
    "eval-lcbc": (_run_eval_lcbc, "train and evaluate a behavior-cloning policy", [
        Option("seed", _BC.seed), Option("ckpt"), Option("demos"),
        Option("hidden", ",".join(map(str, _BC.hidden)), help="comma list of hidden widths"),
        Option("lr", _BC.learning_rate), Option("batch_size", _BC.batch_size), Option("steps", _BC.steps),
        Option("episodes", 25), Option("policy_out", None), Option("out"),
    ]),
}

_OPTIONS = {name: {o.key: o for o in options} for name, (_, _, options) in _SUBCOMMANDS.items()}
_DEFAULTS = {
    name: {key: None if o.default is REQUIRED else o.default for key, o in options.items()}
    for name, options in _OPTIONS.items()
}


def run_resolved(subcommand: str, cfg: dict) -> Path:
    """Execute a subcommand from its fully resolved config; returns the manifest path."""
    for key in ("seed", "world_seed"):
        if cfg.get(key, 0) < 0:
            raise EmptyInputError(f"--{key.replace('_', '-')} must be >= 0, got {cfg[key]}")
    inputs, outputs = _SUBCOMMANDS[subcommand][0](cfg)
    return _write_manifest(subcommand, cfg, inputs, outputs)


def replay_manifest(manifest_path, out_map: dict | None = None) -> Path:
    """Re-execute a run from its manifest; optionally remap output paths.

    Every input the manifest records is re-hashed first; if one has changed
    since the run, nothing is executed and no output is touched.
    """
    try:
        manifest = json.loads(Path(manifest_path).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise SegnceError(f"unreadable manifest {manifest_path}: {exc}") from exc
    subcommand = manifest.get("subcommand") if isinstance(manifest, dict) else None
    if not isinstance(subcommand, str) or subcommand not in _SUBCOMMANDS:
        raise SegnceError(f"manifest {manifest_path} names no known subcommand")
    options = _OPTIONS[subcommand]
    missing = set(options) - set(_check_config(manifest.get("config"), options, manifest_path))
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


@functools.cache  # built once per process (~3 ms); parsing never changes it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="segnce",
        description="Segment-contrastive representation learning and its downstream consumers",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, help_text, options) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=None, help="JSON file of config overrides")
        for o in options:
            p.add_argument("--" + o.key.replace("_", "-"), dest=o.key, type=o.value_type, default=None,
                           required=o.default is REQUIRED, choices=o.choices, help=o.help)
    sub.add_parser("replay", help="re-execute a run from its manifest").add_argument("--manifest", required=True)
    for p in sub.choices.values():
        p.add_argument("--quiet", action="store_true")
        p.add_argument("--verbose", action="store_true")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # set on every call: basicConfig does nothing once the root logger has a handler
    log.setLevel(logging.WARNING if args.quiet else (logging.DEBUG if args.verbose else logging.INFO))
    logging.basicConfig(format="%(message)s")

    try:
        if args.subcommand == "replay":
            manifest = replay_manifest(args.manifest)
            log.info("replayed into %s", manifest)
            return 0
        flags = {key: getattr(args, key) for key in _DEFAULTS[args.subcommand]}
        cfg = _resolve(args.subcommand, args.config, flags)
        manifest = run_resolved(args.subcommand, cfg)
        log.info("manifest: %s", manifest)
        return 0
    except (SegnceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
