"""Reference functions are immutable after construction: outside
``__init__``, no method of a ReferenceFunction subclass assigns to an
attribute of ``self``. Runs share one reference (criterion 10 replays its
runs on the same instance), so a run's state lives in the object
``for_run()`` returns, never on the map."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "bregopt"
ROOT = "ReferenceFunction"


def _self_attributes(target):
    """The ``self.<attr>`` names an assignment target writes, also inside a
    tuple or list target and through a subscript or attribute chain."""
    if isinstance(target, (ast.Tuple, ast.List)):
        return [name for elt in target.elts for name in _self_attributes(elt)]
    if isinstance(target, ast.Starred):
        return _self_attributes(target.value)
    while isinstance(target, (ast.Subscript, ast.Attribute)):
        if (isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name)
                and target.value.id == "self"):
            return [target.attr]
        target = target.value
    return []


def self_assignments(source, root=ROOT):
    """(class, method, line, attribute) of each write to ``self.<attr>`` in a
    method other than ``__init__`` of a subclass of ``root`` defined in
    ``source`` (subclasses of subclasses included), and of each
    ``setattr(self, ...)`` there."""
    classes = [n for n in ast.walk(ast.parse(source)) if isinstance(n, ast.ClassDef)]
    family = {root}
    grown = True
    while grown:
        grown = False
        for cls in classes:
            bases = {getattr(b, "id", None) or getattr(b, "attr", None) for b in cls.bases}
            if cls.name not in family and bases & family:
                family.add(cls.name)
                grown = True
    found = []
    for cls in classes:
        if cls.name not in family:
            continue
        for method in cls.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if method.name == "__init__":
                continue
            for node in ast.walk(method):
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                    targets = [node.target]
                elif (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "setattr"
                      and node.args and getattr(node.args[0], "id", None) == "self"):
                    found.append((cls.name, method.name, node.lineno, "setattr"))
                    continue
                else:
                    continue
                for target in targets:
                    for attr in _self_attributes(target):
                        found.append((cls.name, method.name, node.lineno, attr))
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_reference_functions_assign_nothing_after_init(path):
    assert self_assignments(path.read_text()) == []


def test_finds_an_assignment_to_self():
    source = (
        "class ReferenceFunction:\n"
        "    def __init__(self):\n        self.a = 1\n"
        "class Map(ReferenceFunction):\n"
        "    def __init__(self):\n        self.b = 2\n"
        "    def step(self, x):\n        self.last = x\n"
        "class Deeper(Map):\n"
        "    def step(self, x):\n        self.n += 1\n        self.cache[0], y = x, 2\n"
        "    def keep(self, x):\n        setattr(self, 'x', x)\n"
        "class RunState:\n"
        "    def step(self, x):\n        self.last = x\n"
    )
    assert self_assignments(source) == [
        ("Map", "step", 8, "last"),
        ("Deeper", "step", 11, "n"),
        ("Deeper", "step", 12, "cache"),
        ("Deeper", "keep", 14, "setattr"),
    ]
    # the run state that Preconditioner.for_run returns is written each step:
    # made a reference function, it would fail the check
    source = (PACKAGE / "mirror.py").read_text()
    as_reference = source.replace("class PreconditionedRun:",
                                  "class PreconditionedRun(ReferenceFunction):")
    assert as_reference != source
    assert {attr for cls, _, _, attr in self_assignments(as_reference)
            if cls == "PreconditionedRun"} == {"point", "matrix", "h_x"}
