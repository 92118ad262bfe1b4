"""End-to-end tests of the command-line surface and manifest replay."""

import contextlib
import json
import logging
import os
import shlex
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from segnce.cli import REQUIRED, _DEFAULTS, _OPTIONS, _check_config, _resolve, build_parser, main, replay_manifest
from segnce.errors import EmptyInputError, SegnceError

README = Path(__file__).resolve().parent.parent / "README.md"
SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(args):
    return main([*args, "--quiet"])


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def dataset_path(workdir):
    path = workdir / "data.bin"
    assert run_cli(["gen-world", "--out", str(path), "--count", "30", "--h-min", "10", "--h-max", "16"]) == 0
    return path


@pytest.fixture(scope="module")
def ckpt_path(workdir, dataset_path):
    path = workdir / "enc.ckpt"
    assert (
        run_cli(
            ["train", "--data", str(dataset_path), "--objective", "t", "--out", str(path),
             "--iterations", "40", "--batch-size", "8"]
        )
        == 0
    )
    return path


class TestGenWorld:
    def test_writes_dataset_and_manifest(self, dataset_path):
        assert dataset_path.exists()
        manifest = json.loads((dataset_path.parent / "data.bin.manifest.json").read_text())
        assert manifest["subcommand"] == "gen-world"
        assert manifest["config"]["count"] == 30

    def test_same_seed_byte_identical(self, workdir):
        a, b = workdir / "a.bin", workdir / "b.bin"
        for p in (a, b):
            assert run_cli(["gen-world", "--out", str(p), "--count", "5", "--seed", "3"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_count_zero_errors(self, workdir):
        assert run_cli(["gen-world", "--out", str(workdir / "x.bin"), "--count", "0"]) != 0

    def test_record_count(self, dataset_path):
        from segnce.world import load_dataset

        assert len(load_dataset(dataset_path)[1]) == 30

    def test_default_count_is_200(self):
        from segnce.cli import _DEFAULTS

        assert _DEFAULTS["gen-world"]["count"] == 200


class TestTrain:
    def test_outputs_exist(self, ckpt_path):
        assert ckpt_path.exists()
        metrics = ckpt_path.parent / "enc.ckpt.metrics.csv"
        rows = metrics.read_text().strip().splitlines()
        assert rows[0] == "iteration,loss,grad_norm"
        assert len(rows) == 41

    def test_zero_lr_checkpoint_equals_init(self, workdir, dataset_path):
        from segnce.encoders import init_params
        from segnce.training import load_checkpoint

        path = workdir / "frozen.ckpt"
        assert (
            run_cli(
                ["train", "--data", str(dataset_path), "--out", str(path),
                 "--iterations", "5", "--batch-size", "4", "--lr", "0"]
            )
            == 0
        )
        ckpt = load_checkpoint(path)
        fresh = init_params(ckpt.encoders.config, seed=0)
        for a, b in zip(ckpt.encoders.leaves(), fresh.leaves()):
            np.testing.assert_array_equal(a.value, b.value)

    def test_bad_objective_usage_error(self, workdir, dataset_path):
        with pytest.raises(SystemExit):
            main(["train", "--data", str(dataset_path), "--objective", "bogus", "--out", str(workdir / "y.ckpt")])


@contextlib.contextmanager
def _root_logger_without_handlers():
    """The root logger as a fresh process has it, so that ``main``'s
    ``basicConfig`` writes to the stderr that capsys captures; the test
    runner's own handlers and both levels come back afterwards."""
    root, segnce_log = logging.getLogger(), logging.getLogger("segnce")
    handlers, root_level, segnce_level = root.handlers, root.level, segnce_log.level
    root.handlers = []
    try:
        yield
    finally:
        root.handlers = handlers
        root.setLevel(root_level)
        segnce_log.setLevel(segnce_level)


@pytest.mark.parametrize("quiet_first", [True, False])
def test_each_call_logs_at_its_own_verbosity(tmp_path, capsys, quiet_first):
    args = ["gen-world", "--out", str(tmp_path / "w.bin"), "--count", "1"]
    with _root_logger_without_handlers():
        for quiet in (quiet_first, not quiet_first):
            assert main([*args, "--quiet"] if quiet else args) == 0
            err = capsys.readouterr().err
            assert (err == "") if quiet else ("manifest: " in err)


class TestSamplingStats:
    def test_analytic_column_h4(self, workdir):
        out = workdir / "stats.csv"
        assert run_cli(["sampling-stats", "--h", "4", "--samples", "200000", "--out", str(out)]) == 0
        rows = {line.split(",")[0]: line.split(",") for line in out.read_text().strip().splitlines()[1:]}
        analytic = [float(rows[str(t)][1]) for t in range(1, 5)]
        np.testing.assert_allclose(analytic, [0.0, 1 / 12, 5 / 24, 11 / 24], atol=1e-12)
        assert float(rows["p_value"][1]) > 0.01
        empirical = [float(rows[str(t)][2]) for t in range(1, 5)]
        assert all(b >= a for a, b in zip(empirical, empirical[1:]))

    def test_h_below_two_errors(self, workdir):
        assert run_cli(["sampling-stats", "--h", "1", "--out", str(workdir / "z.csv")]) != 0


class TestAnalysisCommands:
    def test_reward_curve(self, workdir, dataset_path, ckpt_path):
        out = workdir / "curve.csv"
        assert (
            run_cli(["reward-curve", "--ckpt", str(ckpt_path), "--data", str(dataset_path),
                     "--traj-index", "0", "--out", str(out)])
            == 0
        )
        assert out.read_text().startswith("frame,raw,normalized")

    def test_reward_curve_unknown_instruction(self, workdir, dataset_path, ckpt_path):
        rc = run_cli(
            ["reward-curve", "--ckpt", str(ckpt_path), "--data", str(dataset_path),
             "--instruction", "open fridge", "--out", str(workdir / "c2.csv")]
        )
        assert rc != 0

    def test_heatmap(self, workdir, dataset_path, ckpt_path):
        out = workdir / "grid.csv"
        assert (
            run_cli(["heatmap", "--ckpt", str(ckpt_path), "--data", str(dataset_path),
                     "--lengths", "2,5,full", "--out", str(out)])
            == 0
        )
        rows = out.read_text().strip().splitlines()
        assert rows[0].startswith("segment,")
        assert len(rows) == 1 + 8 * 3

    def test_first_image_stats(self, workdir, dataset_path, ckpt_path):
        out = workdir / "fi.json"
        assert (
            run_cli(["first-image-stats", "--ckpt", str(ckpt_path), "--data", str(dataset_path),
                     "--out", str(out)])
            == 0
        )
        stats = json.loads(out.read_text())
        assert {"first_image_pairwise_mean", "first_image_to_mean_instruction",
                "random_frame_pair_mean", "n_trajectories"} <= set(stats)


class TestPlanAndLcbc:
    def test_plan_defaults_echo_in_manifest(self, workdir, ckpt_path):
        out = workdir / "plan.json"
        assert (
            run_cli(["plan", "--ckpt", str(ckpt_path), "--episodes", "2",
                     "--h-min", "10", "--h-max", "16", "--out", str(out)])
            == 0
        )
        manifest = json.loads((workdir / "plan.json.manifest.json").read_text())
        cfg = manifest["config"]
        assert cfg["horizon"] == 50
        assert cfg["sequences"] == 64
        assert cfg["temperature"] == 10.0
        assert cfg["gamma"] == 1.0
        assert cfg["iterations"] == 1
        report = json.loads(out.read_text())
        assert "success_rate" in report and "per_instruction" in report

    def test_plan_unknown_instruction(self, workdir, ckpt_path):
        rc = run_cli(["plan", "--ckpt", str(ckpt_path), "--instruction", "open fridge",
                      "--episodes", "1", "--out", str(workdir / "p2.json")])
        assert rc != 0

    def test_eval_lcbc_report(self, workdir, ckpt_path, dataset_path):
        out = workdir / "bc.json"
        assert (
            run_cli(["eval-lcbc", "--ckpt", str(ckpt_path), "--demos", str(dataset_path),
                     "--steps", "30", "--episodes", "2", "--out", str(out)])
            == 0
        )
        report = json.loads(out.read_text())
        assert "success_rate" in report and "final_train_loss" in report


class TestConfigResolution:
    def test_config_file_overridden_by_flags(self, workdir):
        cfg = workdir / "cfg.json"
        cfg.write_text(json.dumps({"count": 3, "seed": 5}))
        out = workdir / "cfgd.bin"
        assert run_cli(["gen-world", "--config", str(cfg), "--out", str(out), "--count", "4"]) == 0
        manifest = json.loads((workdir / "cfgd.bin.manifest.json").read_text())
        assert manifest["config"]["count"] == 4  # flag wins
        assert manifest["config"]["seed"] == 5  # file beats default

    def test_unknown_config_key_rejected(self, workdir):
        cfg = workdir / "bad.json"
        cfg.write_text(json.dumps({"не": 1}))
        assert run_cli(["gen-world", "--config", str(cfg), "--out", str(workdir / "n.bin")]) != 0


class TestReplay:
    def test_gen_world_replay_byte_identical(self, workdir, dataset_path):
        manifest_path = dataset_path.parent / "data.bin.manifest.json"
        moved = workdir / "replayed.bin"
        replay_manifest(manifest_path, out_map={str(dataset_path): moved})
        assert moved.read_bytes() == dataset_path.read_bytes()

    def test_train_replay_byte_identical(self, workdir, ckpt_path):
        manifest_path = ckpt_path.parent / "enc.ckpt.manifest.json"
        moved = workdir / "replayed.ckpt"
        replay_manifest(manifest_path, out_map={str(ckpt_path): moved})
        assert moved.read_bytes() == ckpt_path.read_bytes()

    def test_replay_subcommand_exit_code(self, workdir, dataset_path):
        manifest_path = dataset_path.parent / "data.bin.manifest.json"
        assert run_cli(["replay", "--manifest", str(manifest_path)]) == 0

    def test_replay_refuses_changed_input(self, workdir):
        data, ckpt = workdir / "swap.bin", workdir / "swap.ckpt"
        assert run_cli(["gen-world", "--out", str(data), "--count", "10", "--seed", "1"]) == 0
        assert run_cli(["train", "--data", str(data), "--out", str(ckpt), "--iterations", "3", "--batch-size", "4"]) == 0
        before = ckpt.read_bytes()
        assert run_cli(["gen-world", "--out", str(data), "--count", "10", "--seed", "2"]) == 0
        manifest = workdir / "swap.ckpt.manifest.json"
        with pytest.raises(SegnceError, match="swap.bin"):
            replay_manifest(manifest)
        assert run_cli(["replay", "--manifest", str(manifest)]) == 1
        assert ckpt.read_bytes() == before


def test_malformed_checkpoint_exits_one(workdir, dataset_path, ckpt_path):
    from segnce.training import read_array_archive, write_array_archive

    meta, arrays = read_array_archive(ckpt_path, "encoder-checkpoint")
    del arrays["vision/w0"]
    bad = workdir / "bad.ckpt"
    write_array_archive(bad, meta, arrays)
    args = ["heatmap", "--ckpt", str(bad), "--data", str(dataset_path), "--out", str(workdir / "bad.csv")]
    assert run_cli(args) == 1



def _config_file(content):
    def make(tmp, dataset_path, ckpt_path):
        cfg = tmp / "cfg.json"
        cfg.write_text(content)
        return ["gen-world", "--config", str(cfg), "--out", str(tmp / "g.bin")]
    return make


def _manifest(edit):
    def make(tmp, dataset_path, ckpt_path):
        manifest = json.loads((dataset_path.parent / "data.bin.manifest.json").read_text())
        manifest["config"]["out"] = str(tmp / "replayed.bin")
        path = tmp / "edited.manifest.json"
        path.write_text(edit(manifest))
        return ["replay", "--manifest", str(path)]
    return make


def _heatmap_data(write):
    def make(tmp, dataset_path, ckpt_path):
        data = write(tmp, dataset_path, ckpt_path)
        return ["heatmap", "--ckpt", str(ckpt_path), "--data", str(data), "--out", str(tmp / "h.csv")]
    return make


def _binary_file(tmp, dataset_path, ckpt_path):
    path = tmp / "binary.bin"
    path.write_bytes(bytes(range(256)) * 4)
    return path


def _unknown_world_key(tmp, dataset_path, ckpt_path):
    from segnce.training import read_array_archive, write_array_archive

    meta, arrays = read_array_archive(dataset_path, "dataset")
    meta["config"]["bogus"] = 1
    path = tmp / "unknown-key.bin"
    write_array_archive(path, meta, arrays)
    return path


def _nan_checkpoint(tmp, dataset_path, ckpt_path):
    from segnce.training import read_array_archive, write_array_archive

    meta, arrays = read_array_archive(ckpt_path, "encoder-checkpoint")
    arrays["vision/w0"][0, 0] = np.nan
    path = tmp / "nan.ckpt"
    write_array_archive(path, meta, arrays)
    return ["heatmap", "--ckpt", str(path), "--data", str(dataset_path), "--out", str(tmp / "h.csv")]


def _cli(*args):
    """A command line with ``{ckpt}``, ``{data}`` and ``{tmp}`` filled in."""
    return lambda tmp, data, ckpt: [a.format(ckpt=ckpt, data=data, tmp=tmp) for a in args]


def _other_world_data(tmp, dataset_path, ckpt_path):
    path = tmp / "three-pairs.bin"
    assert run_cli(["gen-world", "--out", str(path), "--count", "3", "--task-pairs", "3"]) == 0
    return path


# deeper than the interpreter's recursion limit lets ``json.loads`` go
NESTED_JSON = "[" * 100_000 + "]" * 100_000


def _nested_archive(kind):
    def make(tmp, dataset_path, ckpt_path):
        from segnce.training import CHECKPOINT_MAGIC, CHECKPOINT_VERSION

        path = tmp / f"nested-{kind}.bin"
        header = NESTED_JSON.encode("utf-8")
        path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<IQ", CHECKPOINT_VERSION, len(header)) + header)
        paths = {"ckpt": path if kind == "ckpt" else ckpt_path, "data": path if kind == "data" else dataset_path}
        return ["heatmap", "--ckpt", str(paths["ckpt"]), "--data", str(paths["data"]), "--out", str(tmp / "h.csv")]
    return make


def _heatmap_lengths(lengths):
    return lambda tmp, data, ckpt: [
        "heatmap", "--ckpt", str(ckpt), "--data", str(data), "--lengths", lengths, "--out", str(tmp / "h.csv")
    ]


MALFORMED_INPUTS = {
    "config-not-object": _config_file("5"),
    "config-str-count": _config_file('{"count": "5"}'),
    "config-float-count": _config_file('{"count": 2.5}'),
    "config-deeply-nested": _config_file(NESTED_JSON),
    "manifest-not-json": _manifest(lambda m: "{"),
    "manifest-deeply-nested": _manifest(lambda m: NESTED_JSON),
    "manifest-list": _manifest(lambda m: json.dumps([m])),
    "manifest-no-config": _manifest(lambda m: json.dumps({k: v for k, v in m.items() if k != "config"})),
    "manifest-unknown-subcommand": _manifest(lambda m: json.dumps({**m, "subcommand": "bogus"})),
    "manifest-missing-key": _manifest(
        lambda m: json.dumps({**m, "config": {k: v for k, v in m["config"].items() if k != "count"}})
    ),
    "manifest-bad-value": _manifest(lambda m: json.dumps({**m, "config": {**m["config"], "count": "5"}})),
    "manifest-bad-inputs": _manifest(lambda m: json.dumps({**m, "inputs": ["x"]})),
    "data-binary": _heatmap_data(_binary_file),
    "data-deeply-nested": _nested_archive("data"),
    "ckpt-deeply-nested": _nested_archive("ckpt"),
    "data-checkpoint": _heatmap_data(lambda tmp, data, ckpt: ckpt),
    "data-unknown-world-key": _heatmap_data(_unknown_world_key),
    "heatmap-lengths-not-int": _heatmap_lengths("2,x"),
    "heatmap-lengths-zero": _heatmap_lengths("0"),
    "heatmap-lengths-negative": _heatmap_lengths("2,-3"),
    "heatmap-ckpt-nan": _nan_checkpoint,
    "eval-lcbc-hidden-not-int": lambda tmp, data, ckpt: [
        "eval-lcbc", "--ckpt", str(ckpt), "--demos", str(data), "--hidden", "a,b", "--out", str(tmp / "bc.json")
    ],
    "eval-lcbc-lr-nan": _cli("eval-lcbc", "--ckpt", "{ckpt}", "--demos", "{data}", "--lr", "nan",
                             "--out", "{tmp}/bc.json"),
    "eval-lcbc-lr-diverges": _cli("eval-lcbc", "--ckpt", "{ckpt}", "--demos", "{data}", "--lr", "1e300",
                                  "--steps", "30", "--out", "{tmp}/bc.json"),
    "eval-lcbc-lr-overflows": _cli("eval-lcbc", "--ckpt", "{ckpt}", "--demos", "{data}", "--lr", "1e30",
                                   "--steps", "30", "--out", "{tmp}/bc.json"),
    "train-temperature-nan": _cli("train", "--data", "{data}", "--temperature", "nan", "--out", "{tmp}/t.ckpt"),
    "train-ckpt-interval-negative": _cli("train", "--data", "{data}", "--ckpt-interval", "-3",
                                         "--out", "{tmp}/t.ckpt"),
    "train-embed-dim-zero": _cli("train", "--data", "{data}", "--embed-dim", "0", "--out", "{tmp}/t.ckpt"),
    "gen-world-noise-negative": _cli("gen-world", "--noise", "-1", "--out", "{tmp}/g.bin"),
    "plan-noise-scale-negative": _cli("plan", "--ckpt", "{ckpt}", "--noise-scale", "-1", "--out", "{tmp}/p.json"),
    "plan-temperature-nan": _cli("plan", "--ckpt", "{ckpt}", "--temperature", "nan", "--out", "{tmp}/p.json"),
    "plan-temperature-tiny": _cli("plan", "--ckpt", "{ckpt}", "--episodes", "1", "--iterations", "1",
                                  "--sequences", "2", "--horizon", "1", "--temperature", "1e-320",
                                  "--out", "{tmp}/p.json"),
    "plan-task-pairs-mismatch": _cli("plan", "--ckpt", "{ckpt}", "--task-pairs", "2", "--out", "{tmp}/p.json"),
    "plan-d-obs-mismatch": _cli("plan", "--ckpt", "{ckpt}", "--d-obs", "16", "--out", "{tmp}/p.json"),
    "data-other-world": _heatmap_data(_other_world_data),
    "gen-world-seed-negative": _cli("gen-world", "--seed", "-1", "--out", "{tmp}/g.bin"),
    "gen-world-world-seed-negative": _cli("gen-world", "--world-seed", "-1", "--out", "{tmp}/g.bin"),
    "plan-seed-negative": _cli("plan", "--ckpt", "{ckpt}", "--seed", "-1", "--out", "{tmp}/p.json"),
    "sampling-stats-seed-negative": _cli("sampling-stats", "--h", "5", "--samples", "10", "--seed", "-1",
                                         "--out", "{tmp}/s.csv"),
}


# what the message must name, where exit code 1 alone would not show it
MALFORMED_MESSAGES = {
    "heatmap-lengths-zero": "--lengths entry '0'",
    "heatmap-lengths-negative": "--lengths entry '-3'",
    "heatmap-ckpt-nan": "nan.ckpt",
    "eval-lcbc-lr-nan": "learning_rate",
    "eval-lcbc-lr-diverges": "at step 1 (seed 0, learning_rate 1e+300)",
    "eval-lcbc-lr-overflows": "gradient norm inf at step",
    "train-temperature-nan": "temperature",
    "train-ckpt-interval-negative": "checkpoint_interval",
    "train-embed-dim-zero": "embed_dim",
    "gen-world-noise-negative": "noise",
    "plan-noise-scale-negative": "noise_scale",
    "plan-temperature-nan": "temperature",
    "plan-temperature-tiny": "temperature 1e-320",
    "plan-task-pairs-mismatch": "--task-pairs",
    "plan-d-obs-mismatch": "--d-obs",
    "data-other-world": "three-pairs.bin",
    "gen-world-seed-negative": "--seed must be >= 0",
    "gen-world-world-seed-negative": "--world-seed must be >= 0",
    "plan-seed-negative": "--seed must be >= 0",
    "sampling-stats-seed-negative": "--seed must be >= 0",
}


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_malformed_input_exits_one(tmp_path, dataset_path, ckpt_path, case, capsys):
    args = MALFORMED_INPUTS[case](tmp_path, dataset_path, ckpt_path)
    assert run_cli(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert MALFORMED_MESSAGES.get(case, "") in err


@pytest.mark.parametrize("args, flag", [
    (["gen-world", "--count", str(10**30)], "--count"),
    (["sampling-stats", "--h", "5", "--samples", str(10**23)], "--samples"),
    (["sampling-stats", "--h", str(10**30)], "--h"),
])
def test_oversized_size_flag_is_named(tmp_path, capsys, args, flag):
    assert run_cli([*args, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {flag} must be in [")
    assert list(tmp_path.iterdir()) == []


def _reject_constant(token):
    raise ValueError(f"{token} is not JSON")


def test_every_json_output_is_strict_json(tmp_path):
    data, ckpt = str(tmp_path / "data.bin"), str(tmp_path / "enc.ckpt")
    for args in (
        ["gen-world", "--out", data, "--count", "30", "--h-min", "10", "--h-max", "16"],
        ["train", "--data", data, "--out", ckpt, "--iterations", "5", "--batch-size", "8"],
        ["first-image-stats", "--ckpt", ckpt, "--data", data, "--out", str(tmp_path / "fi.json")],
        # 2 episodes over 8 instructions: 6 instructions get no episode
        ["plan", "--ckpt", ckpt, "--episodes", "2", "--out", str(tmp_path / "plan.json")],
        ["eval-lcbc", "--ckpt", ckpt, "--demos", data, "--steps", "5", "--episodes", "1",
         "--out", str(tmp_path / "bc.json")],
    ):
        assert run_cli(args) == 0
    written = sorted(tmp_path.glob("*.json"))
    assert len(written) == 8  # three reports and five manifests
    for path in written:
        json.loads(path.read_text(), parse_constant=_reject_constant)
    rates = json.loads((tmp_path / "plan.json").read_text())["per_instruction"]
    assert list(rates.values()).count(None) == 6


# every subcommand, on relative paths so that two working directories get
# byte-equal manifests; the checkpoints have the default 128-wide vision
# layers, whose gradients are long enough for a threaded BLAS dot
PIPELINE = [
    ["gen-world", "--out", "data.bin", "--count", "40", "--h-min", "10", "--h-max", "16"],
    ["train", "--data", "data.bin", "--out", "t.ckpt", "--iterations", "60", "--batch-size", "16",
     "--ckpt-interval", "20"],
    ["train", "--data", "data.bin", "--objective", "t8", "--out", "t8.ckpt", "--iterations", "40",
     "--batch-size", "16", "--weight-decay", "0.01"],
    ["sampling-stats", "--h", "8", "--samples", "20000", "--out", "stats.csv"],
    ["reward-curve", "--ckpt", "t.ckpt", "--data", "data.bin", "--out", "curve.csv"],
    ["heatmap", "--ckpt", "t8.ckpt", "--data", "data.bin", "--lengths", "2,5", "--out", "heatmap.csv"],
    ["first-image-stats", "--ckpt", "t.ckpt", "--data", "data.bin", "--out", "first.json"],
    ["plan", "--ckpt", "t.ckpt", "--episodes", "2", "--iterations", "2", "--out", "plan.json"],
    ["eval-lcbc", "--ckpt", "t.ckpt", "--demos", "data.bin", "--steps", "30", "--episodes", "1",
     "--policy-out", "policy.bin", "--out", "lcbc.json"],
    ["replay", "--manifest", "t.ckpt.manifest.json"],
]


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    """One process at one OpenBLAS thread and one at two run every
    subcommand; they write the same files, byte for byte."""
    script = ("import json, sys\nfrom segnce.cli import main\n"
              "for args in json.loads(sys.argv[1]):\n    assert main([*args, '--quiet']) == 0, args\n")
    runs = []
    for threads in ("1", "2"):
        cwd = tmp_path / f"threads{threads}"
        cwd.mkdir()
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
        runs.append((cwd, subprocess.Popen([sys.executable, "-c", script, json.dumps(PIPELINE)], cwd=cwd, env=env,
                                           stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)))
    for _, process in runs:
        _, stderr = process.communicate(timeout=300)
        assert process.returncode == 0, stderr
    (one, _), (two, _) = runs
    names = sorted(p.name for p in one.iterdir())
    assert names == sorted(p.name for p in two.iterdir())
    assert len(names) == 21  # 12 outputs and 9 manifests
    differing = [n for n in names if (one / n).read_bytes() != (two / n).read_bytes()]
    assert differing == []


# ---- the option table -------------------------------------------------------------------


def _subparsers():
    return build_parser()._subparsers._group_actions[0].choices


@pytest.mark.parametrize("subcommand", sorted(_DEFAULTS))
def test_flags_are_the_config_keys(subcommand):
    actions = [a for a in _subparsers()[subcommand]._actions if a.dest != "help"]
    keys = set(_DEFAULTS[subcommand])
    assert {a.dest for a in actions} == {"config", "quiet", "verbose", *keys}
    assert {s for a in actions for s in a.option_strings} == {
        "--config", "--quiet", "--verbose", *("--" + key.replace("_", "-") for key in keys)
    }


def test_every_subcommand_but_replay_has_a_table():
    assert set(_subparsers()) == {*_DEFAULTS, "replay"}


@pytest.mark.parametrize("subcommand", sorted(_DEFAULTS))
def test_config_of_defaults_resolves_like_no_config(tmp_path, subcommand):
    options = _OPTIONS[subcommand]
    path = tmp_path / "defaults.json"
    path.write_text(json.dumps({k: v for k, v in _DEFAULTS[subcommand].items() if options[k].default is not REQUIRED}))
    assert _resolve(subcommand, str(path), {}) == _resolve(subcommand, None, {})


@pytest.mark.parametrize("subcommand", sorted(_DEFAULTS))
def test_null_only_for_optional_strings(subcommand):
    for key in _DEFAULTS[subcommand]:
        if key in ("instruction", "policy_out"):
            _check_config({key: None}, _OPTIONS[subcommand], "cfg.json")
        else:
            with pytest.raises(EmptyInputError, match=f"'{key}'"):
                _check_config({key: None}, _OPTIONS[subcommand], "cfg.json")


def test_readme_commands_parse():
    """Every ``segnce`` line of the README's command-line block parses, and
    together they show every subcommand."""
    block = README.read_text(encoding="utf-8").split("## Command line", 1)[1].split("```sh", 1)[1]
    commands = [shlex.split(line)[1:] for line in block.split("```", 1)[0].splitlines() if line.startswith("segnce ")]
    assert {argv[0] for argv in commands} == {*_DEFAULTS, "replay"}
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv)
