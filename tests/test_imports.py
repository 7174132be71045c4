"""Every name a package module imports is used, and every private helper is.

No linter ships with the package's dependencies, so this parses each module
with ``ast`` and compares the names its imports bind with the names its code
loads.  ``from __future__`` imports change the compiler, not the namespace,
and are exempt.  A module-level private function, class or constant, or a
private method of a module-level class (``_name``; dunders are exempt), must
be referenced somewhere in the package: by name, as an attribute, in a
``from ... import``, or as a string constant such as ``getattr``'s.  A public
one must be referenced in the package or the benchmark; tests do not count, so
a name only a test reaches is dead code.  The solve layering is
linsys <- wave <- everything else: only ``linsys`` names SuperLU (``splu``,
``spilu``), only ``wave`` names ``linsys.factorize`` outside ``linsys``, and
only the two of them import ``scipy.sparse``.  Only ``wave`` pads the grid with ``np.pad``, apart
from ``denoise``'s patch margin, and only ``wave`` names the steps its
``Survey`` owns: ``pad_collar``, ``assemble_padded`` and ``ricker_amplitude``.
Every LU runs on the cached order: only ``linsys._mmd_order`` names
``MMD_AT_PLUS_A``, and every ``splu`` call passes ``permc_spec="NATURAL"``.
"""

import ast
import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "proxfwi"
BENCH = ROOT / "bench"


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


def _definitions(tree) -> list[str]:
    """Module-level function, class and constant names, and the methods of
    module-level classes as ``Class.method``; dunders exempt."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names += [f"{node.name}.{item.name}" for item in node.body
                      if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [n for n in names if not _short(n).startswith("__")]


def _short(name: str) -> str:
    """The last dotted part: a method's own name."""
    return name.rsplit(".", 1)[-1]


def _references(trees) -> set[str]:
    """Names loaded, read as attributes, imported with ``from ... import``, or
    spelled as a string constant (``getattr(obj, "name")``)."""
    referenced = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and node.value.isidentifier()):
                referenced.add(node.value)
    return referenced


def _unreferenced_names(sources: dict[str, str], users: dict[str, str]) -> list[str]:
    """``module.name`` of each module-level definition or method in ``sources``
    that nothing references by its own name: a private one in ``sources``, a
    public one in ``sources`` or ``users``."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    inside = _references(trees.values())
    anywhere = inside | _references(ast.parse(source) for source in users.values())
    return [
        f"{module}.{name}"
        for module, tree in trees.items()
        for name in _definitions(tree)
        if _short(name) not in (inside if _short(name).startswith("_") else anywhere)
    ]


def _private(names: list[str]) -> list[str]:
    return [n for n in names if _short(n).startswith("_")]


def test_private_name_scanner_flags_only_dead_helpers():
    sources = {
        "a": (
            "__all__ = ['f']\n"
            "_LIMIT = 3\n"
            "_UNUSED: int = 4\n"
            "def _dead(x):\n"
            "    return x\n"
            "def _by_attr():\n"
            "    pass\n"
            "def _imported():\n"
            "    pass\n"
            "class _Gone:\n"
            "    pass\n"
            "def f(x):\n"
            "    _local = _LIMIT\n"
            "    return x + _local\n"
        ),
        "b": "from .a import _imported\nfrom . import a\nvalue = a._by_attr()\n",
    }
    assert _private(_unreferenced_names(sources, {})) == ["a._UNUSED", "a._dead", "a._Gone"]


def test_package_has_no_unreferenced_private_names():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert _private(_unreferenced_names(sources, {})) == []


def test_name_scanner_flags_public_names_only_tests_reach():
    sources = {
        "a": (
            "LIMIT = 2\n"
            "def helper():\n"
            "    return LIMIT\n"
            "class Public:\n"
            "    pass\n"
            "def f(x):\n"
            "    pass\n"
            "def test_only():\n"
            "    pass\n"
            "def _bench_only():\n"
            "    pass\n"
        ),
        "b": "from . import a\nvalue = a.helper()\n",
    }
    users = {"run": "from proxfwi.a import Public\nfrom proxfwi import a\na.f(a._bench_only)\n"}
    assert _unreferenced_names(sources, users) == ["a.test_only", "a._bench_only", "b.value"]


def test_name_scanner_flags_methods_only_tests_reach():
    sources = {
        "a": (
            "class Oracle:\n"
            "    def __init__(self):\n"
            "        self.cache = None\n"
            "    def value(self, m):\n"
            "        return self._solve(m)\n"
            "    def _solve(self, m):\n"
            "        return m\n"
            "    def _stale(self):\n"
            "        pass\n"
            "    def penalty(self, m):\n"
            "        return m\n"
            "    def simulate(self, m):\n"
            "        return m\n"
            "    @property\n"
            "    def n(self):\n"
            "        return 1\n"
            "def drive(oracle, denoiser):\n"
            "    return oracle.value(0) + getattr(denoiser, 'penalty')(0)\n"
        ),
    }
    users = {"run": "from proxfwi.a import Oracle, drive\nsize = drive(Oracle(), None)\n"
                    "n = Oracle().n\n"}
    assert _unreferenced_names(sources, users) == ["a.Oracle._stale", "a.Oracle.simulate"]
    assert _private(_unreferenced_names(sources, users)) == ["a.Oracle._stale"]


# argparse exits with EXIT_USAGE's code itself; the constant names it for tests
UNREFERENCED_ALLOWED = {"cli.EXIT_USAGE"}


def test_every_module_level_name_is_referenced_outside_the_tests():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    users = {path.stem: path.read_text() for path in sorted(BENCH.glob("*.py"))
             if not path.name.startswith("test_")}
    assert set(_unreferenced_names(sources, users)) == UNREFERENCED_ALLOWED


SUPERLU = {"splu", "spilu"}
SUPERLU_OWNER = "linsys"
SOLVE_OWNERS = {"linsys", "wave"}  # import scipy.sparse and name factorize
PAD_OWNERS = {"wave", "denoise"}  # denoise pads nlm's patch margin, not the grid
SURVEY_OWNER = "wave"
SURVEY_STEPS = {"pad_collar", "assemble_padded", "ricker_amplitude"}  # wave.Survey's own steps


def _sparse_imports(node) -> list[str]:
    """The ``scipy.sparse`` modules an import node binds, by their dotted names."""
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
        names = [f"{node.module}.{alias.name}" for alias in node.names]
    else:
        return []
    return [n for n in names if n == "scipy.sparse" or n.startswith("scipy.sparse.")]


def _owner_breaches(sources: dict[str, str]) -> list[str]:
    """``module:line: name`` of each SuperLU, ``factorize`` or survey-step
    reference, ``scipy.sparse`` import or ``np.pad`` call outside its owner."""
    found = []
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if module not in SOLVE_OWNERS:
                found += [(module, node.lineno, n) for n in _sparse_imports(node)]
            names = []
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            if module != SUPERLU_OWNER:
                found += [(module, node.lineno, n) for n in names if n in SUPERLU]
            if module not in SOLVE_OWNERS:
                found += [(module, node.lineno, n) for n in names if n == "factorize"]
            if module != SURVEY_OWNER:
                found += [(module, node.lineno, n) for n in names if n in SURVEY_STEPS]
            if (module not in PAD_OWNERS and isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute) and node.func.attr == "pad"
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id in ("np", "numpy")):
                found.append((module, node.lineno, "np.pad"))
    return [f"{module}:{line}: {name}" for module, line, name in sorted(found)]


def test_owner_scanner_flags_only_calls_outside_the_owner():
    sources = {
        "linsys": "import scipy.sparse.linalg as spla\nlu = spla.splu(a)\n",
        "wave": (
            "import scipy.sparse as sp\n"
            "x = np.pad(v, 1, mode='edge')\n"
            "fact = linsys.factorize(a)\n"
        ),
        "denoise": "z = np.pad(x, 3, mode='symmetric')\nimport scipy.ndimage\n",
        "inversion": (
            "from scipy.sparse.linalg import spilu\n"
            "lu = spla.splu(a)\n"
            "y = np.pad(v, 2, mode='edge')\n"
            "w = padded.pad\n"
            "import numpy as np, scipy.sparse as sp\n"
            "from scipy import sparse\n"
            "fact = linsys.factorize(normal)\n"
            "from .linsys import factorize\n"
        ),
    }
    assert _owner_breaches(sources) == [
        "inversion:1: scipy.sparse.linalg.spilu", "inversion:1: spilu", "inversion:2: splu",
        "inversion:3: np.pad", "inversion:5: scipy.sparse", "inversion:6: scipy.sparse",
        "inversion:7: factorize", "inversion:8: factorize",
    ]


def test_owner_scanner_flags_survey_steps_outside_wave():
    sources = {
        "wave": (
            "padded, inner = pad_collar(v, 10, False)\n"
            "system = assemble_padded(padded, 25.0, 25.0, w, 10, False)\n"
            "amplitude = ricker_amplitude(f, 10.0)\n"
        ),
        "inversion": (
            "system = wave.assemble_padded(padded, 25.0, 25.0, w, 10, False)\n"
            "from .wave import ricker_amplitude\n"
            "survey = wave.Survey(background, acq)\n"
            "system = wave.assemble(m, w)\n"
            "collar, inner = wave.pad_collar(v, 5, False)\n"
        ),
    }
    assert _owner_breaches(sources) == [
        "inversion:1: assemble_padded", "inversion:2: ricker_amplitude",
        "inversion:5: pad_collar",
    ]


def test_only_linsys_factors_and_only_wave_pads_the_grid():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert _owner_breaches(sources) == []


MMD_OWNER = "_mmd_order"  # the one function that asks SuperLU for its ordering


def _ordering_breaches(sources: dict[str, str]) -> list[str]:
    """``module:line: what`` of each ``MMD_AT_PLUS_A`` named outside ``_mmd_order``
    and each ``splu`` call that does not pass ``permc_spec="NATURAL"``."""
    found = []
    for module, source in sources.items():
        tree = ast.parse(source)
        owned = {id(node) for fn in ast.walk(tree)
                 if isinstance(fn, ast.FunctionDef) and fn.name == MMD_OWNER
                 for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Constant) and node.value == "MMD_AT_PLUS_A"
                    and id(node) not in owned):
                found.append((module, node.lineno, "MMD_AT_PLUS_A"))
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            spec = [k.value for k in node.keywords if k.arg == "permc_spec"]
            if name == "splu" and not (len(spec) == 1 and isinstance(spec[0], ast.Constant)
                                       and spec[0].value == "NATURAL"):
                found.append((module, node.lineno, "splu without NATURAL"))
    return [f"{module}:{line}: {what}" for module, line, what in sorted(found)]


def test_ordering_scanner_flags_only_a_second_ordering_path():
    sources = {
        "linsys": (
            "def _mmd_order(a):\n"
            "    return spla.spilu(a, permc_spec='MMD_AT_PLUS_A').perm_c\n"
            "def factorize(a, spec='MMD_AT_PLUS_A'):\n"
            "    lu = spla.splu(a, permc_spec='NATURAL', options={'SymmetricMode': True})\n"
            "    lu = spla.splu(a)\n"
            "    lu = splu(a, permc_spec=spec)\n"
            "    return spla.splu(a, permc_spec='COLAMD')\n"
        ),
        "denoise": "x = 'MMD_AT_PLUS_A' if ok else 'NATURAL'\n",
    }
    assert _ordering_breaches(sources) == [
        "denoise:1: MMD_AT_PLUS_A", "linsys:3: MMD_AT_PLUS_A", "linsys:5: splu without NATURAL",
        "linsys:6: splu without NATURAL", "linsys:7: splu without NATURAL",
    ]


def test_every_lu_runs_on_the_cached_order():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert _ordering_breaches(sources) == []


def test_benchmark_wrap_points_name_existing_attributes(monkeypatch):
    # the benchmark swaps each wrap point in through vars(owner) during traced
    # runs only, so a rename would otherwise pass every untraced test
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # dataclasses look the module up
    spec.loader.exec_module(spans)
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _, _ in spans.wrap_points()
               if attr not in vars(owner)]
    assert missing == []
