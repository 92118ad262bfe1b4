"""Fuzz tests of the command line's JSON inputs: whatever a ``--config`` file
or a replayed manifest holds, ``segnce`` either runs or exits 1 with an
``error:`` line naming what went wrong, never with a traceback."""

import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from segnce.cli import _DEFAULTS, _OPTIONS, MANIFEST_SUFFIX, REQUIRED, main

FUZZ = settings(max_examples=60, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.function_scoped_fixture])
PATH_KEYS = {"out", "data", "ckpt", "demos", "policy_out"}
# a world, model and run small enough that a valid config finishes in milliseconds
SMALL = {"count": 3, "d_obs": 8, "h_min": 3, "h_max": 5, "iterations": 2, "batch_size": 2, "embed_dim": 4,
         "samples": 50, "h": 4, "lengths": "2,full", "horizon": 3, "sequences": 2, "episodes": 1,
         "hidden": "4", "steps": 2}

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def option_values(option):
    """Values for a known key: mostly of its own type, at sizes that stay
    small (an int can size an allocation, so none is large), sometimes any
    JSON value."""
    small_ints = st.integers(-3, 8)
    own = {int: small_ints, float: st.floats() | small_ints,
           str: st.sampled_from([*(option.choices or ()), "open door", "2,x", "0", "", "4,4"]) | st.text(max_size=4)}
    return st.one_of(own[option.value_type], own[option.value_type], json_values)


def fuzzed_options(subcommand, max_size):
    """A few of the subcommand's keys, paths left out, with fuzzed values."""
    options = _OPTIONS[subcommand]
    keys = st.sets(st.sampled_from(sorted(set(options) - PATH_KEYS)), max_size=max_size)
    return keys.flatmap(lambda ks: st.fixed_dictionaries({k: option_values(options[k]) for k in sorted(ks)}))


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A tiny dataset and checkpoint, and each subcommand's small base config."""
    tmp = tmp_path_factory.mktemp("config-fuzz")
    data, ckpt = tmp / "data.bin", tmp / "enc.ckpt"
    world = ["--d-obs", "8", "--h-min", "3", "--h-max", "5"]
    assert main(["gen-world", "--out", str(data), "--count", "3", *world, "--quiet"]) == 0
    assert main(["train", "--data", str(data), "--out", str(ckpt), "--iterations", "2", "--batch-size", "2",
                 "--embed-dim", "4", "--quiet"]) == 0
    paths = {"data": str(data), "demos": str(data), "ckpt": str(ckpt), "policy_out": None}
    base = {}
    for subcommand, defaults in _DEFAULTS.items():
        base[subcommand] = {**defaults, **{k: v for k, v in SMALL.items() if k in defaults},
                            **{k: v for k, v in paths.items() if k in defaults},
                            "out": str(tmp / f"{subcommand}.out")}
    return tmp, base


def exits_cleanly(argv, capsys) -> None:
    """``main`` must exit 0, or 1 with an ``error:`` line."""
    code = main([*argv, "--quiet"])
    err = capsys.readouterr().err
    assert code in (0, 1)
    assert code == 0 or err.startswith("error: "), err


@FUZZ
@given(subcommand=st.sampled_from(sorted(_DEFAULTS)), data=st.data())
def test_any_config_file_runs_or_exits_with_an_error(inputs, capsys, subcommand, data):
    tmp, base = inputs
    config = data.draw(json_values | fuzzed_options(subcommand, 4).map(
        lambda fuzzed: {**{k: v for k, v in base[subcommand].items() if k not in PATH_KEYS}, **fuzzed}))
    path = tmp / "config.json"
    path.write_text(json.dumps(config))
    flags = [f"--{k.replace('_', '-')}={base[subcommand][k]}" for k, o in _OPTIONS[subcommand].items()
             if o.default is REQUIRED]  # argparse needs these as flags, which override the config
    exits_cleanly([subcommand, "--config", str(path), *flags], capsys)


@FUZZ
@given(subcommand=st.sampled_from(sorted(_DEFAULTS)), data=st.data())
def test_any_manifest_replays_or_exits_with_an_error(inputs, capsys, subcommand, data):
    tmp, base = inputs
    fuzzed = data.draw(fuzzed_options(subcommand, 3))
    dropped = data.draw(st.sets(st.sampled_from(sorted(_OPTIONS[subcommand])), max_size=1))
    config = {k: v for k, v in {**base[subcommand], **fuzzed}.items() if k not in dropped}
    manifest = data.draw(st.sampled_from([
        {"subcommand": subcommand, "config": config, "inputs": {}, "outputs": []},
        {"subcommand": subcommand, "config": config, "inputs": {base[subcommand]["out"]: "0" * 64}},
        {"subcommand": subcommand, "config": config, "inputs": []},
        {"subcommand": subcommand, "config": [config]},
    ]) | json_values)
    path = tmp / f"run{MANIFEST_SUFFIX}"
    path.write_text(json.dumps(manifest))
    exits_cleanly(["replay", "--manifest", str(path)], capsys)
