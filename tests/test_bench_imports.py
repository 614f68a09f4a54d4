"""Every name the benchmark and the oracles import from ``og`` exists.

``bench/`` lies outside the test paths, and it imports private helpers such
as ``views._analyze`` and ``views._display``, so without this check a rename
of one would fail only the benchmark's own smoke test. The files are read
with ``ast``, never run or changed.
"""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted((ROOT / "bench").glob("*.py")) + [ROOT / "tests" / "oracles.py"]


def og_imports(path: Path) -> list[tuple[str, str | None]]:
    """(module, name) for each ``from og… import name``, and (module, None)
    for each ``import og…``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "og":
            found += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            found += [(alias.name, None) for alias in node.names if alias.name.split(".")[0] == "og"]
    return found


def resolves(module: str, name: str | None) -> bool:
    try:
        mod = importlib.import_module(module)
        return name is None or hasattr(mod, name) or bool(importlib.import_module(f"{module}.{name}"))
    except ImportError:
        return False


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_og_imports_resolve(path):
    missing = [f"{m}.{n}" if n else m for m, n in og_imports(path) if not resolves(m, n)]
    assert not missing, f"{path.name} imports names og does not have: {missing}"


def test_the_private_helpers_are_among_them():
    names = {pair for path in FILES for pair in og_imports(path)}
    assert {("og.views", "_analyze"), ("og.views", "_display")} <= names
    assert not resolves("og.views", "_no_such_helper")
