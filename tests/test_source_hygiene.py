"""Static checks on the library source that need no linter.

Every module-level import in `src/cfmarkets/*.py` (the package `__init__`,
which re-exports, aside) must be used in its module. A binding whose line
carries `# noqa: F401` is exempt.
"""

import ast
from pathlib import Path

import pytest

import cfmarkets

SRC = Path(cfmarkets.__file__).resolve().parent
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
