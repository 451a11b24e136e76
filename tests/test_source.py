"""Static checks on the package source."""

import ast
import pathlib

import pytest

import sapo

SOURCES = sorted(p for p in pathlib.Path(sapo.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")
# Bound only so that bench/layertrace.py finds them in these modules.
TRACER_SHIMS = {("inference", "path_items"), ("lattice", "position_features")}


def unused_imports(tree):
    """The names that the module-level imports of ``tree`` bind and the module never reads."""
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_unused_imports_found():
    tree = ast.parse("import os.path\nimport re as regex\nfrom a import b, c\n"
                     "from __future__ import annotations\nos.sep\nc()\n")
    assert unused_imports(tree) == ["regex", "b"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    unused = unused_imports(ast.parse(path.read_text(encoding="utf-8")))
    assert [name for name in unused if (path.stem, name) not in TRACER_SHIMS] == []


def unreferenced_private_names(trees):
    """(module, name) of each private name that a module-level statement of one of
    ``trees`` (module name: tree) defines and no module reads, imports or takes as
    an attribute."""
    defined, read = [], set()
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                targets = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                assigned = node.targets if isinstance(node, ast.Assign) else [node.target]
                targets = [name.id for target in assigned
                           for name in ast.walk(target) if isinstance(name, ast.Name)]
            else:
                targets = []
            defined += [(module, name) for name in targets
                        if name.startswith("_") and not name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    return [(module, name) for module, name in defined if name not in read]


def test_unreferenced_private_names_found():
    trees = {"a": ast.parse("_LIMIT = 3\n_dead, _x = 1, 2\ndef _helper(): return _LIMIT\n"
                            "class _Orphan: pass\ndef public(): return _x\n"),
             "b": ast.parse("from .a import _helper\n")}
    assert unreferenced_private_names(trees) == [("a", "_dead"), ("a", "_Orphan")]


def test_no_unreferenced_private_names():
    # Every private helper, constant or fork of the package is used by some module.
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8"))
             for p in pathlib.Path(sapo.__file__).parent.glob("*.py")}
    assert unreferenced_private_names(trees) == []
