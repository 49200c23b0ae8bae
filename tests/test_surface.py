"""Everything the package defines is used by the package itself.

Walks ``src/qchain`` with :mod:`ast` and requires, for every module-level
function, every class, every non-dunder method and every UPPER_CASE
module constant, at least one reference in ``src/qchain`` other than its
definition.  A reference is a name read, an attribute read or an import
alias, so the names ``qchain/__init__.py`` re-exports are covered by their
import.  Code only the tests call belongs in the tests (see
``tests/flow_reference.py``).  Attributes match by name alone, so the guard
can miss a dead method that shares its name with a live attribute.

Every name a module imports must also be read in that module, except
``from __future__`` features and the re-exports of ``qchain/__init__.py``.

No chain solve bypasses the chain spectrum: a ``solve`` or ``inv`` appears
nowhere but in the network's port elimination.

The two simulation routes share one sample grid: ``sim`` compares a
``method`` only where a config is checked and where a route is chosen.
"""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "qchain"


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _definitions(module: str, tree: ast.Module):
    """``(qualified name, bare name)`` of each definition the guard covers."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield f"{module}.{node.name}", node.name
        elif isinstance(node, ast.ClassDef):
            yield f"{module}.{node.name}", node.name
            for item in node.body:
                if isinstance(
                    item, (ast.FunctionDef, ast.AsyncFunctionDef)
                ) and not _is_dunder(item.name):
                    yield f"{module}.{node.name}.{item.name}", item.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and target.id.isupper():
                    yield f"{module}.{target.id}", target.id


def _references(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]


def test_every_definition_is_referenced_in_the_package():
    trees = {
        path.stem: ast.parse(path.read_text(), str(path))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    used = {name for tree in trees.values() for name in _references(tree)}
    unused = [
        qualified
        for module, tree in trees.items()
        for qualified, name in _definitions(module, tree)
        if name not in used
    ]
    assert unused == []


def _imported_names(tree: ast.Module):
    """``(line, bound name)`` of each import, ``from __future__`` aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".", 1)[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name


def test_every_import_is_read_in_its_module():
    """No module imports a name it never reads; ``__init__`` re-exports."""
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        read = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        unused += [
            f"{path.stem}:{line} {name}"
            for line, name in _imported_names(tree)
            if name not in read
        ]
    assert unused == []


#: Where a dense solve may stay: the port equations of
#: :func:`qchain.network.connect`, which are not the chain's.
DENSE_SOLVES = {("network", "connect", "solve")}


def _dense_solves(tree: ast.Module):
    """``(scope, name)`` of each ``solve`` or ``inv`` a module reads or imports."""
    for node in tree.body:
        scope = getattr(node, "name", "<module>")
        for inner in ast.walk(node):
            if isinstance(inner, ast.Attribute):
                names = [inner.attr]
            elif isinstance(inner, ast.ImportFrom):
                names = [alias.name for alias in inner.names]
            else:
                continue
            yield from ((scope, name) for name in names if name in ("solve", "inv"))


def test_chain_solves_read_the_spectrum():
    found = {
        (path.stem, scope, name)
        for path in sorted(PACKAGE.glob("*.py"))
        for scope, name in _dense_solves(ast.parse(path.read_text(), str(path)))
    }
    assert found == DENSE_SOLVES


#: Where ``sim`` may compare a ``method``: the config's own checks (its
#: validation and ``MAX_RK4_STEPS``) and the route choice.
METHOD_BRANCHES = {"SimulationConfig", "_tasks"}


def test_sim_branches_on_method_only_to_choose_a_route():
    tree = ast.parse((PACKAGE / "sim.py").read_text())
    found = {
        getattr(node, "name", "<module>")
        for node in tree.body
        for inner in ast.walk(node)
        if isinstance(inner, ast.Compare)
        for operand in (inner.left, *inner.comparators)
        if getattr(operand, "attr", getattr(operand, "id", None)) == "method"
    }
    assert found == METHOD_BRANCHES
