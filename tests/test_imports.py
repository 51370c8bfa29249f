"""Every absolute import in src/hankelc/ and tests/ is declared.

A module imported but not declared in pyproject.toml passes wherever it
happens to be installed and fails on a clean install: the package may
import the standard library, numpy and itself, and the tests may also
import what the `test` extra declares.
"""

import ast
import sys
from pathlib import Path

import pytest

import hankelc

SRC = Path(hankelc.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent
DECLARED = {
    SRC: {"numpy", "hankelc"},
    TESTS: {"numpy", "hankelc", "pytest", "scipy", "hypothesis"},
}


def _absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


@pytest.mark.parametrize("root", [SRC, TESTS], ids=["src", "tests"])
def test_imports_are_declared(root):
    allowed = set(sys.stdlib_module_names) | DECLARED[root]
    found = {(path.name, name) for path in sorted(root.glob("*.py")) for name in _absolute_imports(path)}
    assert found, f"no imports found under {root}"
    undeclared = sorted((file, name) for file, name in found if name not in allowed)
    assert not undeclared, f"imports not declared in pyproject.toml: {undeclared}"
