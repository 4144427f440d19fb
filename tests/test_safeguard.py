"""The halving safeguard has one home: outside solver.py, no except clause
in the package names StepOutOfDomain or InnerSolveFailure, so a second
retry loop cannot grow back unnoticed."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "bregopt"
SAFEGUARDED = {"StepOutOfDomain", "InnerSolveFailure"}


def caught_step_failures(source):
    """(line, name) of each StepOutOfDomain or InnerSolveFailure, bare or
    as a module attribute, that an except clause of ``source`` names."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            for part in ast.walk(node.type):
                name = getattr(part, "id", None) or getattr(part, "attr", None)
                if name in SAFEGUARDED:
                    found.append((node.lineno, name))
    return found


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "solver.py"),
                         ids=lambda p: p.name)
def test_only_solver_catches_step_failures(path):
    assert caught_step_failures(path.read_text()) == []


def test_finds_a_caught_step_failure():
    source = ("try:\n    f()\nexcept (ValueError, errors.InnerSolveFailure):\n    pass\n"
              "try:\n    f()\nexcept StepOutOfDomain as exc:\n    pass\n"
              "try:\n    f()\nexcept StepFailure:\n    pass\n")
    assert caught_step_failures(source) == [(3, "InnerSolveFailure"), (7, "StepOutOfDomain")]
    assert caught_step_failures((PACKAGE / "solver.py").read_text())
