"""Every name a package module imports is used by that module.

No linter ships with the package's dependencies, so this parses each module
with ``ast`` and compares the names its imports bind with the names its code
loads.  ``from __future__`` imports change the compiler, not the namespace,
and are exempt.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "proxfwi"


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_scanner_flags_only_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os, numpy as np\n"
        "from .model import read_grid, write_grid\n"
        "def f(x: np.ndarray):\n"
        "    return read_grid(x)\n"
    )
    assert _unused_imports(source) == ["os (line 2)", "write_grid (line 3)"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []
