"""The package's public surface."""

import os
import subprocess
import sys
from pathlib import Path

import segnce

SRC = str(Path(__file__).resolve().parent.parent / "src")


def test_every_exported_name_resolves():
    missing = [name for name in segnce.__all__ if not hasattr(segnce, name)]
    assert not missing
    assert len(set(segnce.__all__)) == len(segnce.__all__)


def _fresh_python(*args):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=120)


def test_import_loads_no_scipy():
    """Only ``sampling-stats`` needs scipy, and it imports it itself."""
    done = _fresh_python("-c", "import sys, segnce, segnce.cli; "
                               "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
    assert _fresh_python("-m", "segnce", "--help").returncode == 0
