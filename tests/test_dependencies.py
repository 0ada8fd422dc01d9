"""numpy stays the only runtime dependency: every module of the package
imports only the standard library, numpy and the package itself, and the
package's own modules import each other without a cycle."""

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


def _package_imports(path: Path) -> set[str]:
    """Sibling modules that `path` imports with `from . import m` or
    `from .m import name`, lazy imports inside functions included."""
    names = {p.stem for p in MODULES}
    out = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                out |= {alias.name for alias in node.names} & names
            else:
                out.add(node.module.split(".")[0])
    return out


def test_package_import_graph_is_acyclic():
    graph = {p.stem: _package_imports(p) - {p.stem} for p in MODULES}
    done, path = set(), []

    def visit(mod):
        if mod in path:
            cycle = path[path.index(mod):] + [mod]
            raise AssertionError("import cycle: " + " -> ".join(cycle))
        if mod in done:
            return
        path.append(mod)
        for dep in sorted(graph[mod]):
            visit(dep)
        path.pop()
        done.add(mod)

    for mod in sorted(graph):
        visit(mod)
    assert "dynamics" in graph["reps"]
