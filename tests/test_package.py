"""The package's public surface."""

import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import segnce
from segnce import training

SRC = str(Path(__file__).resolve().parent.parent / "src")


def test_every_exported_name_resolves():
    missing = [name for name in segnce.__all__ if not hasattr(segnce, name)]
    assert not missing
    assert len(set(segnce.__all__)) == len(segnce.__all__)


def _fresh_python(*args, src=SRC, **env):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])), **env}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=120)


def test_import_loads_no_scipy():
    """Only ``sampling-stats`` needs scipy, and it imports it itself."""
    done = _fresh_python("-c", "import sys, segnce, segnce.cli; "
                               "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
    assert _fresh_python("-m", "segnce", "--help").returncode == 0


# 300 Adam steps on normal gradients, 60 on gradients over every binade with
# zeros and subnormals, and one planner rollout; prints whether each compiled
# kernel was loaded, then the sha256 of each arena's final values and moments
# and of the rollout
KERNEL_PROBE = """
import hashlib, sys
import numpy as np
from segnce import planning, training
from segnce.autodiff import Tensor
from segnce.world import World, WorldConfig
rng = np.random.default_rng(0)
hashes = []
for steps, binades in ((300, None), (60, (-1074, 600))):
    leaves = [Tensor(rng.normal(size=shape)) for shape in [(64, 33), (64,), (3,)]]
    opt = training.Adam(leaves, 0.01)
    for _ in range(steps):
        for leaf in leaves:
            leaf.grad = rng.normal(size=leaf.value.shape)
            if binades:
                leaf.grad = np.ldexp(leaf.grad, rng.integers(*binades, size=leaf.grad.shape))
                leaf.grad[rng.random(leaf.grad.shape) < 0.1] = -0.0
        with np.errstate(all="ignore"):
            opt.step()
    hashes.append(hashlib.sha256(b"".join(row.tobytes() for row in opt.rows[:4])).hexdigest())
zs = planning._roll_z(World(WorldConfig()), 1, 0.05, rng.normal(0.0, 0.6, size=(64, 50, 2)))
print(training._adam_kernel is not None, planning._roll_z_kernel is not None, *hashes,
      hashlib.sha256(zs.tobytes()).hexdigest())
"""


def test_adam_kernel_cold_failed_and_cached_builds(tmp_path):
    """A copy of the package starts with an empty ``__pycache__``. Without a
    compiler on ``PATH`` Adam and the planner's rollout take their numpy
    passes, quietly and leaving no file behind; with one, the first import
    builds both kernels into one library, removes the libraries of earlier
    sources, the same bits come out, and a cached import never loads
    ``subprocess``."""
    shutil.copytree(Path(SRC) / "segnce", tmp_path / "segnce", ignore=shutil.ignore_patterns("__pycache__"))
    cache = tmp_path / "segnce" / "__pycache__"
    no_compiler = tmp_path / "empty"
    no_compiler.mkdir()

    fallback = _fresh_python("-c", KERNEL_PROBE, src=str(tmp_path), PATH=str(no_compiler))
    assert fallback.returncode == 0 and fallback.stderr == "", fallback.stderr
    adam_loaded, roll_loaded, *fallback_bits = fallback.stdout.split()
    assert (adam_loaded, roll_loaded) == ("False", "False")
    assert not list(cache.glob("kernels*"))

    if shutil.which("cc") is None:
        pytest.skip("no C compiler on PATH to build the kernels with")
    stale = ["kernels.0000000000000000.so", "adam_step.482a69e5ed863e19.so", "adam_step.b6efeda6784f16ad.so"]
    cache.mkdir(exist_ok=True)
    for name in stale:
        (cache / name).write_bytes(b"a library of an earlier source")
    built = _fresh_python("-c", KERNEL_PROBE, src=str(tmp_path))
    assert built.returncode == 0 and built.stderr == "", built.stderr
    assert built.stdout.split() == ["True", "True", *fallback_bits]
    digest = hashlib.sha256(repr((training._KERNEL_SOURCE, training._KERNEL_COMMAND)).encode()).hexdigest()[:16]
    assert sorted(p.name for p in cache.glob("*.so")) == [f"kernels.{digest}.so"]

    cached = _fresh_python("-c", "import sys, segnce, segnce.cli; from segnce import planning, training; "
                                 "print(training._adam_kernel is not None, planning._roll_z_kernel is not None, "
                                 "'subprocess' in sys.modules)",
                           src=str(tmp_path))
    assert cached.returncode == 0, cached.stderr
    assert cached.stdout.split() == ["True", "True", "False"]
