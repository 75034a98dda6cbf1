"""Every name a module of the package imports is used there or exported,
every private top-level function or class is referenced in the package, and
every name a public ``__all__`` lists exists there, once.

Each ``src/mtower/*.py`` other than ``__init__.py`` is parsed with ``ast``;
an imported name counts as used when it appears as a name in the module's
code (a quoted annotation does not count) or is listed in its ``__all__``.
A private definition counts as referenced when a name, an attribute or an
import anywhere in ``src/mtower`` names it, or when it is decorated (a
decorator such as ``cli._verb`` registers it).
"""

import ast
import importlib
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "mtower"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of each import statement's names."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    kept = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    kept |= _exported(tree)
    unused = [f"{name} (line {line})"
              for name, line in sorted(_imported(tree).items()) if name not in kept]
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def _references(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_every_private_definition_is_referenced():
    trees = {p.name: ast.parse(p.read_text(), filename=str(p))
             for p in sorted(SRC.glob("*.py"))}
    referenced = set().union(*map(_references, trees.values()))
    unreferenced = [
        f"{name}:{node.name} (line {node.lineno})"
        for name, tree in trees.items() for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.startswith("__")
        and not node.decorator_list and node.name not in referenced]
    assert not unreferenced, f"private definitions nothing uses: {unreferenced}"


@pytest.mark.parametrize("module", ["mtower", "mtower.formats"])
def test_every_exported_name_exists_once(module):
    # a stale entry leaves ``import`` working but breaks ``import *``
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ lists names it lacks: {missing}"
    repeated = sorted({name for name in mod.__all__
                       if mod.__all__.count(name) > 1})
    assert not repeated, f"{module}.__all__ lists names twice: {repeated}"


def test_series_is_the_bottom_layer():
    # every ImportFrom, also one inside a function, so no lazy import of a
    # higher layer can make the kernel depend on the rest of the package
    tree = ast.parse((SRC / "series.py").read_text())
    inside = sorted({f"{'.' * node.level}{node.module or ''}"
                     for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                     and (node.level or (node.module or "").startswith("mtower"))})
    assert inside == [".errors"], f"series.py imports from the package: {inside}"
