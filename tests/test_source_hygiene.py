"""Static checks on the library source that need no linter.

Every module-level import in `src/cfmarkets/*.py` (the package `__init__`,
which re-exports, aside) must be used in its module. A binding whose line
carries `# noqa: F401` is exempt. Every module-level private name and every
private method defined in `src/cfmarkets/*.py` must be referenced somewhere
in the package, so a helper nothing calls any more does not linger. Every
module-level UPPER_CASE constant must be read (as a variable or an
attribute, not only imported) somewhere in the package, so a tolerance or
a clip that a deletion left behind is caught. No `default_rng(...)` call
may take a literal argument, so every random draw in the library comes
from a seed that its caller passed in. Every `linprog(...)` call sits in
`geometry.min_weighted_value` or `geometry.separating_direction`, so every
LP has one shape of two and one failure rule. Every `yaml.load` or
`load_all` call passes `Loader=SafeLoader` or `CSafeLoader`, no name is
imported from yaml under one of those names unless it is one of them, and
nothing calls `unsafe_load` or `full_load`, so a scenario file can build
no Python object but plain data. No import of scipy.optimize, or of a name
from it, runs when a module loads (at module level or in a class body):
each one sits in the function that first needs the solver, or behind
geometry's `__getattr__`, so a run that makes no LP never loads
scipy.optimize. The scipy.optimize names the modules import, at any depth,
are exactly the solvers listed in `OPTIMIZE_NAMES` (`linprog` alone: the
root-finder is the library's own), so no new optimizer enters the library
unseen. Every
name the package `__init__` exports is read outside `tests/`: in a library
module (beyond its own `def` or `class`), a demo or the benchmark, so an
export only the tests call does not linger. No module calls numpy's
module-level function for one of the names in `NUMPY_WRAPPERS`, as
`np.sum(a, axis=1)`, or imports one from numpy: it calls the ndarray
method, `a.sum(axis=1)`, which runs the same ufunc loop without the
wrapper's dispatch, a cost larger than the arithmetic on desk-scale arrays
(`tests/oracles.py`, the independent reference, keeps the wrapper forms).
"""

import ast
from pathlib import Path

import pytest

import cfmarkets

SRC = Path(cfmarkets.__file__).resolve().parent
REPO = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names bound by module-level imports that nothing else in the module
    reads, each as (name, line)."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" in lines[alias.lineno - 1]:
                    continue
                name = alias.asname or alias.name.split(".")[0]
                bound.append((name, alias.lineno))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [(name, line) for name, line in bound if name not in used]


def test_the_check_finds_an_unused_import():
    source = ("import os\nimport sys\nfrom math import (pi,\n    tau)\n"
              "from json import dumps  # noqa: F401\nprint(sys.argv, tau)\n")
    assert unused_imports(source) == [("os", 1), ("pi", 3)]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_module_level_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_definitions(source: str) -> list:
    """Module-level private names and private methods the source defines,
    each as (name, line)."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.append((node.name, node.lineno))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            found.extend((t.id, node.lineno) for t in targets
                         if isinstance(t, ast.Name))
        if isinstance(node, ast.ClassDef):
            found.extend((f.name, f.lineno) for f in node.body
                         if isinstance(f, ast.FunctionDef))
    return [(name, line) for name, line in found if _private(name)]


def references(source: str) -> set:
    """Every name the source reads, as a variable, an attribute or an
    imported name."""
    refs = set()
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            refs.add(n.id)
        elif isinstance(n, ast.Attribute):
            refs.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            refs.update(alias.name for alias in n.names)
    return refs


def unreferenced_private_names(sources: dict) -> list:
    """(file, name, line) of each private definition that no source reads."""
    refs = set().union(*(references(s) for s in sources.values()))
    return [(file, name, line) for file, source in sources.items()
            for name, line in private_definitions(source)
            if name not in refs]


def test_the_check_finds_an_unreferenced_private_name():
    sources = {
        "a.py": ("_LIMIT = 3\n_UNUSED = 4\n\ndef _helper():\n"
                 "    return _LIMIT\n\nclass Box:\n"
                 "    def _kept(self):\n        return 1\n"
                 "    def _dead(self):\n        return self._kept()\n"
                 "    def __len__(self):\n        return 0\n"),
        "b.py": "from a import _helper\n",
    }
    assert unreferenced_private_names(sources) == [
        ("a.py", "_UNUSED", 2), ("a.py", "_dead", 10)]


def test_every_private_name_is_referenced_in_the_package():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unreferenced_private_names(sources) == []


def unread_constants(sources: dict) -> list:
    """(file, name, line) of each module-level UPPER_CASE constant that no
    source reads as a variable or an attribute."""
    reads = set()
    for source in sources.values():
        for n in ast.walk(ast.parse(source)):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                reads.add(n.id)
            elif isinstance(n, ast.Attribute):
                reads.add(n.attr)
    found = []
    for file, source in sources.items():
        for node in ast.parse(source).body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign)
                       else [])
            found.extend((file, t.id, node.lineno) for t in targets
                         if isinstance(t, ast.Name) and t.id.isupper()
                         and t.id not in reads)
    return found


def test_the_check_finds_an_unread_constant():
    sources = {
        "a.py": ("TIGHTNESS_SAMPLES = 20\n_LOG_CLIP = 1e-300\n"
                 "SAMPLES: int = 3\nsteps = 4\n\n"
                 "def f():\n    return SAMPLES + steps\n"),
        "b.py": ("import a\nfrom a import TIGHTNESS_SAMPLES\n"
                 "LIMIT = a.SAMPLES\nprint(LIMIT)\n"),
    }
    assert unread_constants(sources) == [
        ("a.py", "TIGHTNESS_SAMPLES", 1), ("a.py", "_LOG_CLIP", 2)]


def test_every_constant_is_read_in_the_package():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unread_constants(sources) == []


def literal_seeds(source: str) -> list:
    """Lines of the `default_rng(...)` calls that take a literal argument."""
    found = []
    for n in ast.walk(ast.parse(source)):
        if not (isinstance(n, ast.Call) and "default_rng" in (
                getattr(n.func, "attr", None), getattr(n.func, "id", None))):
            continue
        for arg in [*n.args, *(k.value for k in n.keywords)]:
            try:
                ast.literal_eval(arg)
            except ValueError:
                continue
            found.append(n.lineno)
            break
    return found


def test_the_check_finds_a_literal_seed():
    source = ("import numpy as np\nfrom numpy.random import default_rng\n\n"
              "def draws(seed, rng=None):\n"
              "    a = np.random.default_rng(seed)\n"
              "    b = np.random.default_rng(0)\n"
              "    c = default_rng(seed=[1, -2])\n"
              "    return a, b, c, rng.default_rng(seed + 1)\n")
    assert literal_seeds(source) == [6, 7]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_library_draw_has_a_fixed_seed(path):
    assert literal_seeds(path.read_text()) == []


LP_BUILDERS = {("geometry.py", "min_weighted_value"),
               ("geometry.py", "separating_direction")}


def linprog_calls(source: str) -> list:
    """(function, line) of each `linprog(...)` call, with the innermost
    function that encloses it (None at module level)."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call) and "linprog" in (
                    getattr(child.func, "attr", None),
                    getattr(child.func, "id", None)):
                found.append((owner, child.lineno))
            visit(child, owner)

    visit(ast.parse(source), None)
    return found


def test_the_check_finds_an_lp_outside_geometry():
    source = ("from scipy import optimize\nfrom scipy.optimize import linprog\n"
              "\ndef min_weighted_value(c):\n    return linprog(c)\n\n"
              "class Slack:\n    def _solve(self, c):\n"
              "        return optimize.linprog(c)\n\n"
              "res = linprog([1.0])\n")
    assert linprog_calls(source) == [("min_weighted_value", 5), ("_solve", 9),
                                     (None, 11)]


def test_every_lp_is_built_in_geometry():
    stray = [(p.name, owner, line) for p in MODULES
             for owner, line in linprog_calls(p.read_text())
             if (p.name, owner) not in LP_BUILDERS]
    assert stray == []


SAFE_LOADERS = {"SafeLoader", "CSafeLoader"}
UNSAFE_LOADS = {"unsafe_load", "unsafe_load_all", "full_load",
                "full_load_all"}


def _identifier(node):
    return getattr(node, "attr", None) or getattr(node, "id", None)


def unsafe_yaml_loads(source: str) -> list:
    """Lines of each `yaml.load`/`load_all` call whose Loader is not named
    SafeLoader or CSafeLoader, each `unsafe_load`/`full_load` call, and each
    `from yaml import X as SafeLoader` (or CSafeLoader) with another X."""
    tree = ast.parse(source)
    from_yaml = {alias.asname or alias.name: alias.name
                 for n in ast.walk(tree)
                 if isinstance(n, ast.ImportFrom) and n.module == "yaml"
                 for alias in n.names}
    found = [n.lineno for n in ast.walk(tree)
             if isinstance(n, ast.ImportFrom) and n.module == "yaml"
             and any(alias.asname in SAFE_LOADERS
                     and alias.name not in SAFE_LOADERS
                     for alias in n.names)]
    for n in ast.walk(tree):
        if not isinstance(n, ast.Call):
            continue
        name = _identifier(n.func)
        if isinstance(n.func, ast.Name):
            name = from_yaml.get(name)
        elif not (isinstance(n.func, ast.Attribute)
                  and isinstance(n.func.value, ast.Name)
                  and n.func.value.id == "yaml"):
            name = None
        if name in UNSAFE_LOADS:
            found.append(n.lineno)
        elif name in ("load", "load_all"):
            loader = [k.value for k in n.keywords if k.arg == "Loader"]
            loader += n.args[1:2]
            if not (loader and _identifier(loader[0]) in SAFE_LOADERS):
                found.append(n.lineno)
    return sorted(found)


def test_the_check_finds_an_unsafe_yaml_load():
    source = ("import yaml\nfrom yaml import load, full_load\n"
              "from yaml import Loader as SafeLoader\n"
              "from yaml import CSafeLoader as SafeLoader\n"
              "a = yaml.load(t, Loader=yaml.SafeLoader)\n"
              "b = yaml.load(t, Loader=SafeLoader)\n"
              "c = yaml.load_all(t, yaml.CSafeLoader)\n"
              "d = yaml.load(t, Loader=yaml.Loader)\n"
              "e = yaml.load(t)\n"
              "f = load(t, Loader=yaml.UnsafeLoader)\n"
              "g = yaml.unsafe_load(t)\nh = full_load(t)\n"
              "i = json.load(t)\nj = yaml.safe_load(t)\n"
              "k = (a if c else b)(t)\nl = g()(t)\n")
    assert unsafe_yaml_loads(source) == [3, 8, 9, 10, 11, 12]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_yaml_load_is_safe(path):
    assert unsafe_yaml_loads(path.read_text()) == []


def _in_optimize(module: str) -> bool:
    return module == "scipy.optimize" or module.startswith("scipy.optimize.")


def eager_optimize_imports(source: str) -> list:
    """Lines of each import of scipy.optimize, of a submodule or of a name
    from it that runs when the module loads: anywhere outside a function
    body."""
    found = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(child, ast.Import):
                hit = any(_in_optimize(alias.name) for alias in child.names)
            elif isinstance(child, ast.ImportFrom) and not child.level:
                hit = _in_optimize(child.module) or (
                    child.module == "scipy"
                    and any(alias.name == "optimize" for alias in child.names))
            else:
                hit = False
            if hit:
                found.append(child.lineno)
            visit(child)

    visit(ast.parse(source))
    return found


def test_the_check_finds_an_eager_scipy_optimize_import():
    source = ("import numpy as np\nimport scipy.optimize\n"
              "from scipy.optimize import brentq\n"
              "from scipy import optimize, special\n"
              "import scipy.optimize._linprog as lp\n"
              "from scipy.special import expit\n"
              "try:\n    from scipy.optimize import linprog\n"
              "except ImportError:\n    pass\n"
              "class Solver:\n    from scipy.optimize import minimize\n\n"
              "    def solve(self):\n"
              "        from scipy.optimize import minimize\n"
              "        return minimize\n\n"
              "def root():\n    from scipy.optimize import brentq\n"
              "    return brentq\n"
              "from .optimize import step\n")
    assert eager_optimize_imports(source) == [2, 3, 4, 5, 8, 12]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_module_imports_scipy_optimize_when_it_loads(path):
    assert eager_optimize_imports(path.read_text()) == []


# every scipy.optimize name a module imports
OPTIMIZE_NAMES = {"geometry": {"linprog"}}


def optimize_names(source: str) -> set:
    """The names a module imports from scipy.optimize or a submodule of it,
    at any depth, with "scipy.optimize" for the module itself."""
    found = set()
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, ast.Import):
            found.update(alias.name for alias in n.names
                         if _in_optimize(alias.name))
        elif isinstance(n, ast.ImportFrom) and not n.level:
            if _in_optimize(n.module):
                found.update(alias.name for alias in n.names)
            elif n.module == "scipy" and any(alias.name == "optimize"
                                             for alias in n.names):
                found.add("scipy.optimize")
    return found


def test_the_check_finds_every_scipy_optimize_name():
    source = ("import numpy as np\nfrom scipy import optimize, special\n"
              "from scipy.optimize._linprog import linprog as lp\n"
              "from scipy.special import expit\nfrom .optimize import step\n"
              "class Solver:\n    def solve(self):\n"
              "        def inner():\n"
              "            from scipy.optimize import minimize, brentq\n"
              "        import scipy.optimize.linesearch\n")
    assert optimize_names(source) == {"scipy.optimize", "linprog", "minimize",
                                      "brentq", "scipy.optimize.linesearch"}


def test_scipy_optimize_names_are_the_known_solvers():
    found = {p.stem: optimize_names(p.read_text())
             for p in sorted(SRC.glob("*.py"))}
    assert {k: v for k, v in found.items() if v} == OPTIMIZE_NAMES


def unread_exports(init_source: str, sources: dict) -> list:
    """Names the package `__init__` imports from its modules that no other
    source reads, in import order."""
    exported = [alias.asname or alias.name
                for n in ast.parse(init_source).body
                if isinstance(n, ast.ImportFrom) and n.level == 1
                for alias in n.names]
    refs = set().union(*(references(s) for s in sources.values()))
    return [name for name in exported if name not in refs]


def test_the_check_finds_an_unread_export():
    init = ("from .a import (Box, helper,\n    unused)\n"
            "from .b import Used as Alias, spare\nimport os\n")
    sources = {
        "a.py": ("class Box:\n    pass\n\ndef helper():\n    return Box()\n"
                 "\ndef unused():\n    return 0\n"),
        "b.py": "from .a import helper\n\ndef spare():\n    return 1\n",
        "demo.py": "import cf\nprint(cf.Alias)\n",
    }
    assert unread_exports(init, sources) == ["unused", "spare"]


def test_every_export_is_read_outside_the_tests():
    paths = [*MODULES, *sorted(REPO.glob("demos/*.py")),
             *sorted(REPO.glob("perfbench/*.py"))]
    sources = {str(p): p.read_text() for p in paths}
    assert unread_exports((SRC / "__init__.py").read_text(), sources) == []


# numpy functions with an ndarray method of the same meaning
NUMPY_WRAPPERS = {"sum", "prod", "mean", "max", "min", "amax", "amin", "all",
                  "any", "clip", "argmax", "argmin"}


def numpy_wrapper_calls(source: str) -> list:
    """(name, line) of each `np.<name>(...)` or `numpy.<name>(...)` call and
    each `from numpy import <name>` for a name in NUMPY_WRAPPERS, in line
    order."""
    found = []
    for n in ast.walk(ast.parse(source)):
        if (isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                and isinstance(n.func.value, ast.Name)
                and n.func.value.id in ("np", "numpy")
                and n.func.attr in NUMPY_WRAPPERS):
            found.append((n.func.attr, n.lineno))
        elif isinstance(n, ast.ImportFrom) and n.module == "numpy":
            found.extend((alias.name, n.lineno) for alias in n.names
                         if alias.name in NUMPY_WRAPPERS)
    return sorted(found, key=lambda hit: hit[1])


def test_the_check_finds_a_numpy_wrapper_call():
    source = ("import numpy as np\nimport numpy\n"
              "from numpy import clip, maximum\n"
              "a = np.sum(x, axis=1)\nb = x.sum(axis=1)\n"
              "c = numpy.max(np.abs(x), initial=0.0)\n"
              "d = np.maximum(x, 0.0) + np.isfinite(x).all()\n"
              "e = int(np.argmin(g)) + np.ptp(x)\n"
              "f = np.all(\n    np.isfinite(v))\ng = rng.sum(x)\n")
    assert numpy_wrapper_calls(source) == [
        ("clip", 3), ("sum", 4), ("max", 6), ("argmin", 8), ("all", 9)]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_module_calls_a_numpy_wrapper(path):
    assert numpy_wrapper_calls(path.read_text()) == []
