"""numpy stays the only runtime dependency: every module of the package
imports only the standard library, numpy and the package itself."""

import ast
import sys
from pathlib import Path

import pytest

import liedeg

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "liedeg"}
MODULES = sorted(Path(liedeg.__file__).parent.glob("*.py"))


def _imported_roots(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_package_modules_found():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_are_stdlib_numpy_or_liedeg(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    bad = [f"{path.name}:{line} imports {root}"
           for line, root in _imported_roots(tree) if root not in ALLOWED]
    assert not bad, bad
