"""Every module-level import in the package, its tests, its demos and the
benchmark harness is used, every module-level private name the package
defines is read in the package, and the package never imports
scipy.optimize. Files are only parsed, never imported."""

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


def unread_private_names(sources):
    """(module, line, name) of each module-level private name (a ``_x``
    function, class or constant) that one of ``sources``, a mapping of
    module name to source, defines and none of them reads."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            defined += [(module, node.lineno, name) for name in names
                        if name.startswith("_") and not name.startswith("__")]
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.Attribute):
                read.add(n.attr)
    return sorted(d for d in defined if d[2] not in read)


def test_every_private_name_is_read_in_the_package():
    sources = {p.stem: p.read_text() for p in sorted((ROOT / "src/bregopt").glob("*.py"))}
    assert unread_private_names(sources) == []


def test_finds_an_unread_private_name():
    sources = {
        "a": "_LIMIT = 3\n_A, B = 1, 2\n_kept: int = 4\n\n\n"
             "def _helper():\n    return _LIMIT\n\n\n"
             "class _Gone:\n    _inner = 1\n\n\n"
             "def public(x):\n    _helper.cache = x\n",
        "b": "from a import _kept\n",
    }
    # an import or a store does not read a name; a class attribute is not module-level
    assert unread_private_names(sources) == [
        ("a", 2, "_A"), ("a", 3, "_kept"), ("a", 10, "_Gone")]
