"""Fuzz tests of the three archive loaders: a truncated, byte-mutated or
header-edited dataset, checkpoint or policy must raise only ``SegnceError``
subclasses, never a raw exception."""

import json
import struct

import pytest
from hypothesis import given, settings, strategies as st

from segnce.encoders import EncoderConfig
from segnce.errors import SegnceError
from segnce.imitation import BcConfig, load_policy, save_policy, train_bc
from segnce.objectives import ObjectiveSpec
from segnce.training import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    TrainConfig,
    load_checkpoint,
    save_checkpoint,
    train,
)
from segnce.world import World, WorldConfig, load_dataset, save_dataset

LOADERS = {"dataset": load_dataset, "checkpoint": load_checkpoint, "policy": load_policy}
PREFIX = len(CHECKPOINT_MAGIC) + 12  # magic, version, header length
FUZZ = settings(max_examples=100, deadline=None, derandomize=True)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """One small saved file per loader, and the bytes it was saved with."""
    tmp = tmp_path_factory.mktemp("fuzz")
    world_config = WorldConfig(d_obs=8, h_min=3, h_max=5)
    data = World(world_config).generate(3, seed=0)
    encoder = EncoderConfig(d_obs=8, embed_dim=4, vision_hidden=(5,), token_dim=3,
                            projection_hidden=(4,), vocab_size=world_config.vocab_size)
    ckpt = train(TrainConfig(objective=ObjectiveSpec(embed_dim=4), iterations=2, batch_size=2,
                             encoder=encoder), data)
    paths = {kind: tmp / kind for kind in LOADERS}
    save_dataset(paths["dataset"], world_config, data)
    save_checkpoint(ckpt, paths["checkpoint"])
    save_policy(train_bc(ckpt, data, BcConfig(hidden=(4,), steps=2)), paths["policy"])
    return {kind: (path, path.read_bytes()) for kind, path in paths.items()}


def load_rejecting_only_segnce_errors(kind, path, blob):
    path.write_bytes(blob)
    try:
        LOADERS[kind](path)
    except SegnceError:
        pass


def split(blob):
    (n,) = struct.unpack_from("<Q", blob, PREFIX - 8)
    return json.loads(blob[PREFIX : PREFIX + n]), blob[PREFIX + n :]


def join(header, payload):
    text = json.dumps(header).encode("utf-8")
    return CHECKPOINT_MAGIC + struct.pack("<IQ", CHECKPOINT_VERSION, len(text)) + text + payload


def node_paths(node, prefix=()):
    """Key paths to every value below ``node``."""
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield prefix + (key,)
        yield from node_paths(child, prefix + (key,))


def test_split_join_round_trip(files):
    for path, blob in files.values():
        assert join(*split(blob)) == blob


@pytest.mark.parametrize("kind", sorted(LOADERS))
def test_deeply_nested_header(files, kind):
    """A header nested deeper than ``json.loads`` can recurse is malformed."""
    path, blob = files[kind]
    nested = ("[" * 100_000 + "]" * 100_000).encode("utf-8")
    path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<IQ", CHECKPOINT_VERSION, len(nested)) + nested)
    with pytest.raises(SegnceError, match="unreadable checkpoint header"):
        LOADERS[kind](path)


@pytest.mark.parametrize("kind", sorted(LOADERS))
@FUZZ
@given(data=st.data())
def test_truncated(files, kind, data):
    path, blob = files[kind]
    cut = data.draw(st.integers(0, len(blob) - 1))
    load_rejecting_only_segnce_errors(kind, path, blob[:cut])


@pytest.mark.parametrize("kind", sorted(LOADERS))
@FUZZ
@given(data=st.data())
def test_byte_mutated(files, kind, data):
    path, blob = files[kind]
    header_end = len(blob) - len(split(blob)[1])
    # most of a file is array payload; aim half the edits at the prefix and header
    positions = st.integers(0, header_end - 1) | st.integers(0, len(blob) - 1)
    mutated = bytearray(blob)
    for pos, byte in data.draw(st.lists(st.tuples(positions, st.integers(0, 255)), min_size=1, max_size=8)):
        mutated[pos] = byte
    load_rejecting_only_segnce_errors(kind, path, bytes(mutated))


@pytest.mark.parametrize("kind", sorted(LOADERS))
@FUZZ
@given(data=st.data())
def test_header_edited(files, kind, data):
    path, blob = files[kind]
    header, payload = split(blob)
    for _ in range(data.draw(st.integers(1, 3))):
        keys = data.draw(st.sampled_from(list(node_paths(header))))
        parent = header
        for key in keys[:-1]:
            parent = parent[key]
        if data.draw(st.booleans()):
            del parent[keys[-1]]
        else:
            parent[keys[-1]] = data.draw(json_values)
        if not list(node_paths(header)):
            break
    load_rejecting_only_segnce_errors(kind, path, join(header, payload))
