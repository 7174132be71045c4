"""Every name a package module imports is used, and every private helper is.

No linter ships with the package's dependencies, so this parses each module
with ``ast`` and compares the names its imports bind with the names its code
loads.  ``from __future__`` imports change the compiler, not the namespace,
and are exempt.  A module-level private function, class or constant, or a
private method of a module-level class (``_name``; dunders are exempt), must
be referenced somewhere in the package: by name, as an attribute, in a
``from ... import``, or as a string constant such as ``getattr``'s.  A public
one must be referenced in the package or the benchmark; tests do not count, so
a name only a test reaches is dead code.  So is a field no run path reads:
each field of a module-level dataclass or NamedTuple, and each attribute a
module-level class sets on ``self``, must be read as an attribute (or named in
a string constant) in the package or the benchmark.  So is a parameter only
tests set: each defaulted parameter of a package function or method, an
``__init__`` too, must be passed by keyword or by position in some call in the
package or the benchmark.  The solve layering is
linsys <- wave <- everything else: only ``wave`` imports ``linsys``, apart
from ``optim``, which reads the sigma_max of its step scale from
``linsys.spectral_norm``; only ``linsys`` names SuperLU (``splu``,
``spilu``), only ``wave`` names ``linsys.factorize`` outside ``linsys``, and
only the two of them import ``scipy.sparse``.  Only ``wave`` pads the grid with ``np.pad``, apart
from ``denoise``'s patch margin, and only ``wave`` names the steps its
``Survey`` owns: ``pad_collar``, ``assemble_padded`` and ``ricker_amplitude``.
Every LU runs on the cached order: only ``linsys._analyze``, which builds each
pattern's symbolic record, names ``MMD_AT_PLUS_A``; ``splu`` appears only as
a call that passes ``permc_spec="NATURAL"``, and no module calls ``spsolve``
or ``factorized``, which run SuperLU in an order of its own.
Every operator is assembled in one place: only ``wave.Survey.system`` names
``assemble_padded``, so no path can tune the damping profile for another speed.
Only ``wave``, whose ``Survey`` runs a survey's frequencies on its own
long-lived worker threads, names ``ThreadPoolExecutor``, ``Thread``,
``concurrent``, ``threading`` or ``queue``, except that ``linsys`` names
``threading.Lock`` for its record cache.  Every Hessian mode that reads an
oracle method names one that some package oracle class (a class with
``value`` and ``gradient``) defines, so retiring an oracle method cannot
leave a mode no oracle can run.  Both solvers accept their step at one call
of ``line_search``, inside ``optim.proximal_newton_solve``, so no solver
keeps a private copy of the rule.
"""

import ast
import importlib.util
import math
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


def _package_and_users() -> tuple[dict[str, str], dict[str, str]]:
    """The package's modules and the benchmark's, its test files left out."""
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    users = {path.stem: path.read_text() for path in sorted(BENCH.glob("*.py"))
             if not path.name.startswith("test_")}
    return sources, users


def test_every_module_level_name_is_referenced_outside_the_tests():
    assert set(_unreferenced_names(*_package_and_users())) == UNREFERENCED_ALLOWED


def _is_record(node: ast.ClassDef) -> bool:
    """Whether a class is a dataclass or a NamedTuple, whose annotations are fields."""
    names = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
    names += node.bases
    return any(getattr(n, "id", getattr(n, "attr", None)) in ("dataclass", "NamedTuple")
               for n in names)


def _fields(tree) -> list[str]:
    """``Class.field`` of each field of a module-level dataclass or NamedTuple
    and of each attribute its methods set on ``self``."""
    names = []
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        found = []
        if _is_record(node):
            found += [item.target.id for item in node.body
                      if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)]
        found += [item.attr for item in ast.walk(node)
                  if isinstance(item, ast.Attribute) and isinstance(item.ctx, ast.Store)
                  and isinstance(item.value, ast.Name) and item.value.id == "self"]
        names += [f"{node.name}.{field}" for field in dict.fromkeys(found)]
    return names


def _reads(trees) -> set[str]:
    """Attributes loaded (``+=`` loads too) or spelled as a string constant."""
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Attribute):
                read.add(node.target.attr)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and node.value.isidentifier()):
                read.add(node.value)
    return read


def _unread_fields(sources: dict[str, str], users: dict[str, str]) -> list[str]:
    """``module.Class.field`` of each field in ``sources`` that neither ``sources``
    nor ``users`` ever reads as an attribute or names in a string."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = _reads(trees.values()) | _reads(ast.parse(source) for source in users.values())
    return [f"{module}.{name}" for module, tree in trees.items() for name in _fields(tree)
            if _short(name) not in read]


def test_field_scanner_flags_fields_no_run_path_reads():
    sources = {
        "a": (
            "@dataclass(frozen=True)\n"
            "class Result:\n"
            "    m: int\n"
            "    start: int\n"
            "    kind: str = 'x'\n"
            "    LIMIT = 3\n"
            "class Row(NamedTuple):\n"
            "    value: float\n"
            "    spare: float\n"
            "class Solver:\n"
            "    cap: int\n"
            "    def __init__(self, n):\n"
            "        self.n = n\n"
            "        self._cache = None\n"
            "        self.count = 0\n"
            "        self.kept = n\n"
            "    def run(self, other):\n"
            "        self.count += 1\n"
            "        other.spare = 2\n"
            "        return self.n + getattr(self, 'kind')\n"
            "def f(r, row, m):\n"
            "    start = m\n"
            "    return r.m + row.value + start\n"
        ),
    }
    users = {"run": "from proxfwi.a import Solver\nkept = Solver(1).kept\n"}
    assert _unread_fields(sources, users) == ["a.Result.start", "a.Row.spare", "a.Solver._cache"]
    assert _unread_fields(sources, {}) == [
        "a.Result.start", "a.Row.spare", "a.Solver._cache", "a.Solver.kept"
    ]


# a fault flag: a caller that needs the power iteration's outcome reads it
UNREAD_FIELDS_ALLOWED = {"linsys.SpectralEstimate.converged"}


def test_every_field_is_read_outside_the_tests():
    assert set(_unread_fields(*_package_and_users())) == UNREAD_FIELDS_ALLOWED


def _defaulted_parameters(tree):
    """``(owner, called as, parameter, position)`` of each defaulted parameter of
    each function, method or nested function.  A method counts its positions
    after ``self``; an ``__init__`` is called as its class, and a keyword-only
    parameter has position None."""
    found = []

    def visit(node, owner, cls):
        for item in ast.iter_child_nodes(node):
            if isinstance(item, ast.ClassDef):
                visit(item, f"{owner}{item.name}.", item.name)
            elif isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = item.args
                positional = args.posonlyargs + args.args
                static = any(getattr(d, "id", None) == "staticmethod"
                             for d in item.decorator_list)
                skip = 1 if cls and not static else 0  # self or cls
                called = cls if cls and item.name == "__init__" else item.name
                first = len(positional) - len(args.defaults)
                found.extend((f"{owner}{item.name}", called, arg.arg, i - skip)
                             for i, arg in enumerate(positional) if i >= first)
                found.extend((f"{owner}{item.name}", called, arg.arg, None)
                             for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                             if default is not None)
                visit(item, f"{owner}{item.name}.", None)
            else:
                visit(item, owner, cls)

    visit(tree, "", None)
    return found


def _passed(trees) -> dict[str, tuple[set, int]]:
    """For each name a call is made by (``f(...)`` or ``obj.f(...)``; a
    ``super().__init__(...)`` is a call of any ``__init__``), the keywords
    passed and the most positional arguments; ``**kwargs`` passes every
    keyword and ``*args`` every position from where it stands."""
    passed = {}
    for tree in trees:
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            name = getattr(call.func, "id", getattr(call.func, "attr", None))
            keywords, count = passed.setdefault(name, (set(), 0))
            keywords |= {kw.arg for kw in call.keywords}
            starred = [i for i, a in enumerate(call.args) if isinstance(a, ast.Starred)]
            count = max(count, math.inf if starred else len(call.args))
            passed[name] = (keywords, count)
    return passed


def _unpassed_parameters(sources: dict[str, str], users: dict[str, str]) -> list[str]:
    """``module.owner(parameter)`` of each defaulted parameter in ``sources`` that
    no call in ``sources`` or ``users`` passes, by keyword or by position."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    passed = _passed(list(trees.values()) + [ast.parse(source) for source in users.values()])
    inits = passed.get("__init__", (set(), 0))
    unpassed = []
    for module, tree in trees.items():
        for owner, called, param, position in _defaulted_parameters(tree):
            keywords, count = passed.get(called, (set(), 0))
            if owner.endswith(".__init__"):
                keywords, count = keywords | inits[0], max(count, inits[1])
            if not ({param, None} & keywords or (position is not None and position < count)):
                unpassed.append(f"{module}.{owner}({param})")
    return unpassed


def test_parameter_scanner_flags_defaults_no_call_passes():
    sources = {
        "a": (
            "def f(x, scale=1.0, tol=1e-3, *, cap=5, fast=False):\n"
            "    return x\n"
            "def g(x, cache=None):\n"
            "    def inner(y, step=2):\n"
            "        return y\n"
            "    return inner(x)\n"
            "class Solver:\n"
            "    def __init__(self, n, memory=10, seed=0):\n"
            "        self.n = n\n"
            "    def run(self, m, trials=3):\n"
            "        return m\n"
            "    @staticmethod\n"
            "    def make(kind, ref=None):\n"
            "        return kind\n"
            "class Child(Solver):\n"
            "    def __init__(self, n, spare=1):\n"
            "        super().__init__(n, memory=5)\n"
            "value = f(1, 2, cap=3)\n"
        ),
    }
    users = {"run": "from proxfwi.a import Solver, g\n"
                    "Solver(1).run(2, 4)\nSolver.make('x', None)\ng(*args)\n"}
    assert _unpassed_parameters(sources, users) == [
        "a.f(tol)", "a.f(fast)", "a.g.inner(step)", "a.Solver.__init__(seed)",
        "a.Child.__init__(spare)",
    ]
    assert _unpassed_parameters(sources, {}) == [
        "a.f(tol)", "a.f(fast)", "a.g(cache)", "a.g.inner(step)", "a.Solver.__init__(seed)",
        "a.Solver.run(trials)", "a.Solver.make(ref)", "a.Child.__init__(spare)",
    ]


# a test seam: the command line reads sys.argv when no list is passed
UNPASSED_PARAMETERS_ALLOWED = {"cli.main(argv)"}


def test_every_defaulted_parameter_is_passed_outside_the_tests():
    assert set(_unpassed_parameters(*_package_and_users())) == UNPASSED_PARAMETERS_ALLOWED


SUPERLU = {"splu", "spilu"}
SUPERLU_OWNER = "linsys"
SOLVE_OWNERS = {"linsys", "wave"}  # import scipy.sparse and name factorize
LINSYS_READERS = {"wave", "optim"}  # optim reads sigma_max from linsys.spectral_norm
PAD_OWNERS = {"wave", "denoise"}  # denoise pads nlm's patch margin, not the grid
SURVEY_OWNER = "wave"
SURVEY_STEPS = {"pad_collar", "assemble_padded", "ricker_amplitude"}  # wave.Survey's own steps
THREAD_OWNER = "wave"  # Survey's workers, the one place that starts threads
THREAD_NAMES = {"ThreadPoolExecutor", "Thread"}
THREAD_MODULES = ("concurrent", "threading", "queue")
LOCK_OWNER, LOCK_NAMES = "linsys", {"threading", "threading.Lock"}  # the record cache's lock


def _thread_breach(module: str, name: str) -> bool:
    """Whether ``module`` may not name ``name``: a thread pool, a thread, a task
    queue or the modules that make them, outside ``wave``; ``linsys`` may name
    its lock."""
    if module == THREAD_OWNER or (module == LOCK_OWNER and name in LOCK_NAMES):
        return False
    return name in THREAD_NAMES or name.split(".")[0] in THREAD_MODULES


def _sparse_imports(node) -> list[str]:
    """The ``scipy.sparse`` modules an import node binds, by their dotted names."""
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
        names = [f"{node.module}.{alias.name}" for alias in node.names]
    else:
        return []
    return [n for n in names if n == "scipy.sparse" or n.startswith("scipy.sparse.")]


def _imports_linsys(node) -> bool:
    """Whether an import node binds ``linsys`` or a name from it."""
    if isinstance(node, ast.Import):
        return any(alias.name == "proxfwi.linsys" for alias in node.names)
    if not isinstance(node, ast.ImportFrom):
        return False
    if node.level == 0:
        base = node.module or ""
    else:  # relative to the package
        base = "proxfwi" + (f".{node.module}" if node.module else "")
    return "proxfwi.linsys" in [base] + [f"{base}.{alias.name}" for alias in node.names]


def _owner_breaches(sources: dict[str, str]) -> list[str]:
    """``module:line: name`` of each SuperLU, ``factorize``, survey-step or
    thread reference, ``scipy.sparse`` or ``linsys`` import or ``np.pad`` call
    outside its owner."""
    found = []
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if module not in SOLVE_OWNERS:
                found += [(module, node.lineno, n) for n in _sparse_imports(node)]
            if module not in LINSYS_READERS and _imports_linsys(node):
                found.append((module, node.lineno, "linsys"))
            names, dotted = [], []  # dotted: with the module it is read from
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
                if isinstance(node.value, ast.Name):
                    dotted = [f"{node.value.id}.{node.attr}"]
            elif isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
                dotted = [f"{node.module}.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Import):
                dotted = [alias.name for alias in node.names]
            found += [(module, node.lineno, n) for n in names + dotted if _thread_breach(module, n)]
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
        "inversion:7: factorize", "inversion:8: factorize", "inversion:8: linsys",
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


def test_owner_scanner_flags_threads_outside_wave():
    sources = {
        "wave": (
            "from concurrent.futures import ThreadPoolExecutor\n"
            "pool = ThreadPoolExecutor(max_workers=2)\n"
            "import queue\n"
            "tasks = queue.SimpleQueue()\n"
        ),
        "linsys": (
            "import threading\n"
            "_lock = threading.Lock()\n"
            "worker = threading.Thread(target=f)\n"
            "from queue import Queue\n"
        ),
        "inversion": (
            "import concurrent.futures\n"
            "pool = concurrent.futures.ThreadPoolExecutor(2)\n"
            "from threading import Lock\n"
            "values = survey.each(solve)\n"
            "import queue\n"
            "done = queue.SimpleQueue()\n"
        ),
    }
    assert _owner_breaches(sources) == [
        "inversion:1: concurrent.futures", "inversion:2: ThreadPoolExecutor",
        "inversion:2: concurrent", "inversion:2: concurrent.futures",
        "inversion:3: threading.Lock", "inversion:5: queue", "inversion:6: queue",
        "inversion:6: queue.SimpleQueue", "linsys:3: Thread", "linsys:3: threading.Thread",
        "linsys:4: queue.Queue",
    ]


def test_owner_scanner_flags_linsys_imports_outside_wave_and_optim():
    sources = {
        "wave": "from . import linsys\nfact = linsys.factorize(a)\n",
        "optim": "from .linsys import spectral_norm\n",
        "inversion": (
            "from . import linsys, wave\n"
            "from .linsys import SpectralEstimate\n"
            "import proxfwi.linsys\n"
            "from proxfwi import linsys as ls\n"
            "from proxfwi.linsys import spectral_norm\n"
            "from . import model, wave\n"
            "from .wave import Survey\n"
            "import linsys_helpers\n"
        ),
    }
    assert _owner_breaches(sources) == [
        "inversion:1: linsys", "inversion:2: linsys", "inversion:3: linsys",
        "inversion:4: linsys", "inversion:5: linsys",
    ]


def test_only_linsys_factors_and_only_wave_pads_the_grid():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert _owner_breaches(sources) == []


MMD_OWNER = "_analyze"  # the one function that asks SuperLU for its ordering
OWN_ORDER_LU = {"spsolve", "factorized"}  # SuperLU entry points that pick their own order


def _ordering_breaches(sources: dict[str, str]) -> list[str]:
    """``module:line: what`` of each ``MMD_AT_PLUS_A`` named outside ``_analyze``,
    each ``splu`` that is not called with ``permc_spec="NATURAL"`` (a call
    without it, or the name read any other way), and each ``spsolve`` or
    ``factorized``."""
    found = []
    for module, source in sources.items():
        tree = ast.parse(source)
        owned = {id(node) for fn in ast.walk(tree)
                 if isinstance(fn, ast.FunctionDef) and fn.name == MMD_OWNER
                 for node in ast.walk(fn)}
        natural = set()  # the splu names called with NATURAL
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                spec = [k.value for k in node.keywords if k.arg == "permc_spec"]
                if (len(spec) == 1 and isinstance(spec[0], ast.Constant)
                        and spec[0].value == "NATURAL"):
                    natural.add(id(node.func))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Constant) and node.value == "MMD_AT_PLUS_A"
                    and id(node) not in owned):
                found.append((module, node.lineno, "MMD_AT_PLUS_A"))
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute) else None)
            if name == "splu" and id(node) not in natural:
                found.append((module, node.lineno, "splu without NATURAL"))
            if name in OWN_ORDER_LU:
                found.append((module, node.lineno, name))
    return [f"{module}:{line}: {what}" for module, line, what in sorted(found)]


def test_ordering_scanner_flags_only_a_second_ordering_path():
    sources = {
        "linsys": (
            "def _analyze(a):\n"
            "    return spla.spilu(a, permc_spec='MMD_AT_PLUS_A').perm_c\n"
            "def factorize(a, spec='MMD_AT_PLUS_A'):\n"
            "    lu = spla.splu(a, permc_spec='NATURAL', options={'SymmetricMode': True})\n"
            "    lu = spla.splu(a)\n"
            "    lu = splu(a, permc_spec=spec)\n"
            "    return spla.splu(a, permc_spec='COLAMD')\n"
            "lu = splu(a, 'NATURAL')\n"
            "factor = spla.splu\n"
            "x = spla.spsolve(a, b) + spla.factorized(a)(b)\n"
            "from scipy.sparse.linalg import splu\n"
        ),
        "denoise": "x = 'MMD_AT_PLUS_A' if ok else 'NATURAL'\n",
    }
    assert _ordering_breaches(sources) == [
        "denoise:1: MMD_AT_PLUS_A", "linsys:3: MMD_AT_PLUS_A",
        "linsys:5: splu without NATURAL", "linsys:6: splu without NATURAL",
        "linsys:7: splu without NATURAL", "linsys:8: splu without NATURAL",
        "linsys:9: splu without NATURAL", "linsys:10: factorized", "linsys:10: spsolve",
    ]


def test_every_lu_runs_on_the_cached_order():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert _ordering_breaches(sources) == []


ASSEMBLY_STEP, ASSEMBLY_OWNER = "assemble_padded", ("wave", "Survey", "system")


def _assembly_breaches(sources: dict[str, str]) -> list[str]:
    """``module:line`` of each ``assemble_padded`` named outside ``wave.Survey.system``:
    called, read as an attribute, imported or spelled as a string constant."""
    owner_module, owner_class, owner_method = ASSEMBLY_OWNER
    found = []
    for module, source in sources.items():
        tree = ast.parse(source)
        owned = {id(node) for cls in tree.body
                 if module == owner_module and isinstance(cls, ast.ClassDef)
                 and cls.name == owner_class
                 for fn in cls.body
                 if isinstance(fn, ast.FunctionDef) and fn.name == owner_method
                 for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [alias.name.split(".")[-1] for alias in node.names]
            else:
                names = [getattr(node, "id", None), getattr(node, "attr", None),
                         getattr(node, "value", None)]
            if ASSEMBLY_STEP in names and id(node) not in owned:
                found.append((module, node.lineno))
    return [f"{module}:{line}" for module, line in sorted(found)]


def test_assembly_scanner_flags_only_a_second_assembly_path():
    sources = {
        "wave": (
            "def assemble_padded(m, dz, dx, omega, pml, top, speed):\n"
            "    return m\n"
            "class Survey:\n"
            "    def system(self, m, i):\n"
            "        return assemble_padded(m, 1.0, 1.0, 2.0, 10, False, self.speed)\n"
            "    def normal(self, m, i):\n"
            "        return assemble_padded(m, 1.0, 1.0, 2.0, 10, False, 2000.0)\n"
            "def assemble(m, omega):\n"
            "    return assemble_padded(m, 1.0, 1.0, omega, 10, False, 2000.0)\n"
            "class Other:\n"
            "    def system(self, m, i):\n"
            "        return assemble_padded\n"
        ),
        "inversion": (
            "a = wave.assemble_padded(m, 1.0, 1.0, w, 10, False, 2000.0)\n"
            "from .wave import Survey, assemble_padded\n"
            "build = getattr(wave, 'assemble_padded')\n"
            "a = wave.Survey(background, layout).system(m, 0)\n"
            "def system(m):\n"
            "    return wave.assemble_padded(m)\n"
        ),
    }
    assert _assembly_breaches(sources) == [
        "inversion:1", "inversion:2", "inversion:3", "inversion:6",
        "wave:7", "wave:9", "wave:12",
    ]


def test_every_operator_comes_from_survey_system():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert _assembly_breaches(sources) == []


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


def _oracle_methods(sources: dict[str, str]) -> set[str]:
    """The methods of each module-level class that defines ``value`` and
    ``gradient``, the two every misfit oracle has."""
    methods = set()
    for source in sources.values():
        for node in ast.parse(source).body:
            if isinstance(node, ast.ClassDef):
                names = {item.name for item in node.body if isinstance(item, ast.FunctionDef)}
                if {"value", "gradient"} <= names:
                    methods |= names
    return methods


def test_oracle_method_scanner_reads_only_oracle_classes():
    sources = {
        "a": (
            "class Oracle:\n"
            "    def value(self, m):\n"
            "        return 0.0\n"
            "    def gradient(self, m):\n"
            "        return m\n"
            "    def hvp(self, m, v):\n"
            "        return v\n"
            "class Helper:\n"
            "    def value(self, m):\n"
            "        return 0.0\n"
            "    def hessian_diag(self, m):\n"
            "        return m\n"
        ),
    }
    assert _oracle_methods(sources) == {"value", "gradient", "hvp"}


def test_every_hessian_mode_reads_a_method_some_oracle_defines():
    from proxfwi import optim

    needs = {need for need in optim._HESSIAN_NEEDS.values() if need is not None}
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert needs - _oracle_methods(sources) == set()


STEP_RULE, STEP_RULE_OWNER = "line_search", "optim.proximal_newton_solve"


def _step_rule_calls(sources: dict[str, str]) -> list[str]:
    """``module.owner`` of each call of ``line_search``, by name or as an
    attribute, where owner is the module-level function, ``Class.method`` or
    class it sits in (``<module>`` for module-level code)."""
    found = []
    for module, source in sources.items():
        for node in ast.parse(source).body:
            roots = [(getattr(node, "name", "<module>"), node)]
            if isinstance(node, ast.ClassDef):
                roots = [(f"{node.name}.{item.name}" if hasattr(item, "name") else node.name,
                          item) for item in node.body]
            for owner, root in roots:
                for call in ast.walk(root):
                    if not isinstance(call, ast.Call):
                        continue
                    func = call.func
                    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                    if name == STEP_RULE:
                        found.append(f"{module}.{owner}")
    return sorted(found)


def test_step_rule_scanner_flags_every_call_site():
    sources = {
        "optim": (
            "def line_search(merit, m, dm, f0, ck):\n"
            "    return merit(m + dm)\n"
            "def proximal_newton_solve(oracle, m, dm):\n"
            "    return line_search(oracle.value, m, dm, 0.0, 1.0)\n"
            "def nadmm_step(oracle, m, dm):\n"
            "    def damped(mm):\n"
            "        return oracle.value(mm)\n"
            "    return line_search(damped, m, dm, 0.0, 1.0)\n"
            "class Solver:\n"
            "    rule = staticmethod(line_search)\n"
            "    def step(self, f, m, dm):\n"
            "        return optim.line_search(f, m, dm, 0.0, 1.0)\n"
            "search = line_search\n"
        ),
        "inversion": "from .optim import line_search\nls = line_search(f, m, dm, f0, ck)\n",
    }
    assert _step_rule_calls(sources) == [
        "inversion.<module>", "optim.Solver.step", "optim.nadmm_step",
        "optim.proximal_newton_solve",
    ]


def test_both_solvers_accept_their_step_at_one_line_search_call():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert _step_rule_calls(sources) == [STEP_RULE_OWNER]
