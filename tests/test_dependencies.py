"""numpy stays the only runtime dependency: every module of the package
imports only the standard library, numpy and the package itself, and the
package's own modules import each other without a cycle.  No module of
the package or of the tests imports a name it never uses, and the
package stays smaller than it was at the seed."""

import ast
import sys
from pathlib import Path

import pytest

import liedeg

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "liedeg"}
MODULES = sorted(Path(liedeg.__file__).parent.glob("*.py"))
TEST_MODULES = sorted(Path(__file__).parent.glob("*.py"))
SEED_LINES = 4289  # lines of src/liedeg/*.py at the seed


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


def test_fourier_coefficients_have_one_transform():
    # the regularity certificate and the Fourier tails read coefficients
    # through dynamics.grid_coefficients, a DFT matrix per axis: no module
    # reaches for numpy.fft, and no second transform appears
    calls = {p.stem: {node.func.attr for node in ast.walk(ast.parse(p.read_text()))
                      if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)}
             for p in MODULES}
    assert not any("fft" in p.read_text() for p in MODULES)
    assert {stem for stem, attrs in calls.items() if "grid_coefficients" in attrs} == {"koopman"}
    assert {stem for stem, attrs in calls.items() if "tensordot" in attrs} == {"dynamics"}


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


def _unused_imports(tree: ast.AST) -> list[str]:
    """Names bound by import statements that no expression loads."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{line}: {name}" for name, line in bound.items() if name not in used]


@pytest.mark.parametrize("path", MODULES + TEST_MODULES,
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    unused = _unused_imports(ast.parse(path.read_text(), filename=str(path)))
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def _callers(tree: ast.AST, module: str, name: str) -> set[str]:
    """Top-level functions whose bodies call `module.name`."""
    out = set()
    for fn in tree.body:
        if isinstance(fn, ast.FunctionDef):
            for node in ast.walk(fn):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                        and node.func.attr == name
                        and isinstance(node.func.value, ast.Name)
                        and node.func.value.id == module):
                    out.add(fn.name)
    return out


def test_koopman_has_one_correlation_engine():
    # every correlation series reads the planned walk of `_walk_means`, which
    # packs the check grids' blocks and walks them itself; the per-point
    # route is the reference, so no third orbit walk may appear
    path = Path(liedeg.__file__).parent / "koopman.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _callers(tree, "D", "cocycle_iterate") == {"_corr_on_grid", "_walk_means"}
    walkers = {fn.name for fn in tree.body if isinstance(fn, ast.FunctionDef)
               for node in ast.walk(fn) if isinstance(node, ast.Call)
               and isinstance(node.func, ast.Name) and node.func.id == "_walk_means"}
    assert walkers == {"_series"}


def test_one_module_knows_the_series_csv_format():
    # CorrelationSeries.to_csv_text writes the series files; the SVG is drawn
    # from the values in memory, so no second reader of the format may appear
    header = "N,re,im,abs,err_estimate"
    owners = [p.name for p in MODULES
              if any(isinstance(node, ast.Constant) and isinstance(node.value, str)
                     and header in node.value
                     for node in ast.walk(ast.parse(p.read_text(), filename=str(p))))]
    assert owners == ["koopman.py"]


def _top_level(tree: ast.Module) -> dict[str, ast.stmt]:
    """The module's top-level functions, classes and constants (names a
    module-level assignment binds) by name."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out.update((t.id, node) for t in targets if isinstance(t, ast.Name))
    return out


def _referenced_names(node: ast.AST) -> set[str]:
    """Names `node` loads bare, as an attribute (`D.name`) or imports."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name)
    return out


def test_every_package_definition_is_used_by_the_package():
    # tests, the benchmark and users reach the package through what the
    # pipeline, the CLI and the acceptance gate use; a definition that only
    # they reach belongs with them
    trees = {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in MODULES}
    defs = {(mod, name): node for mod, tree in trees.items()
            for name, node in _top_level(tree).items()}
    # what each definition refers to, and what the statements outside every
    # definition refer to
    owned = {id(node) for node in defs.values()}
    used = set().union(*(_referenced_names(node) - {name} for (_, name), node in defs.items()),
                       *(_referenced_names(node) for tree in trees.values()
                         for node in tree.body if id(node) not in owned))
    unused = sorted(f"{m}.{n}" for (m, n) in defs if n not in used)
    assert not unused, f"defined in the package but used only outside it: {unused}"


def test_package_stays_below_the_seed_line_count():
    # lines as `wc -l` counts them: newline characters
    total = sum(p.read_bytes().count(b"\n") for p in MODULES)
    assert total < SEED_LINES, f"src/liedeg has {total} lines, the seed had {SEED_LINES}"
