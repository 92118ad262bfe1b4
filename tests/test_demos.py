"""The demo scripts import only names the package still provides.

The demos are top-level scripts that no test runs, so they are parsed, not
executed: every ``segnce`` module they import must exist and every name they
import from it must resolve.
"""

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def segnce_imports(path):
    """(module, name) pairs a script imports from segnce; name None for ``import``."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "segnce":
            yield from ((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from ((alias.name, None) for alias in node.names if alias.name.split(".")[0] == "segnce")


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(demo):
    imports = list(segnce_imports(demo))
    assert imports, f"{demo.name} imports nothing from segnce"
    for module, name in imports:
        mod = importlib.import_module(module)
        if name is not None and not hasattr(mod, name):
            try:  # ``from segnce import analysis`` names a submodule
                importlib.import_module(f"{module}.{name}")
            except ImportError:
                pytest.fail(f"{demo.name}: {module} has no {name!r}")
