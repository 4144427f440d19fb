"""Every module-level import in the package, its tests, its demos and the
benchmark harness is used, and the package never imports scipy.optimize.
Files are only parsed, never imported."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(p for d in ("src/bregopt", "tests", "demos", "perfbench")
               for p in (ROOT / d).glob("*.py")
               if p.name != "__init__.py")  # a package __init__ re-exports its imports


def unused_imports(source):
    """(line, name) of each name a module-level import binds and nothing in
    ``source`` reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_module_level_import(path):
    assert unused_imports(path.read_text()) == []


def test_finds_an_unused_import():
    source = "import os\nimport numpy as np\nimport a.b\nfrom c import d, e as f\nnp.ones(a.b(f))\n"
    assert unused_imports(source) == [(1, "os"), (4, "d")]


def imported_modules(source):
    """Every module name an import statement anywhere in ``source`` names,
    with ``from a import b`` giving both a and a.b."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return names


@pytest.mark.parametrize("path", sorted((ROOT / "src/bregopt").glob("*.py")),
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_package_does_not_import_scipy_optimize(path):
    names = imported_modules(path.read_text())
    assert not {n for n in names if n == "scipy.optimize" or n.startswith("scipy.optimize.")}


def test_finds_a_nested_scipy_optimize_import():
    source = "def f():\n    from scipy import optimize\n    import scipy.sparse as sp\n"
    assert imported_modules(source) == {"scipy", "scipy.optimize", "scipy.sparse"}
