"""Static checks on the package source."""

import ast
import pathlib
from collections import Counter

import pytest

import sapo

PACKAGE = pathlib.Path(sapo.__file__).parent
SOURCES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TESTS = pathlib.Path(__file__).parent
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
             for p in PACKAGE.glob("*.py")}
    assert unreferenced_private_names(trees) == []


def named(node):
    """Each name that ``node`` reads, imports or takes as an attribute, and each part of
    a string constant that is a dotted name (as ``bench/layertrace.py`` names layers)."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            parts = sub.value.split(".")
            if all(map(str.isidentifier, parts)):
                yield from parts


def orphaned_public_names(package, readers):
    """(module, name) of each public top-level function or class that a tree of
    ``package`` (module name: tree) defines and no tree of ``readers`` names outside
    that definition."""
    names = Counter(name for tree in readers for name in named(tree))
    return [(module, node.name) for module, tree in package.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name[0] != "_"
            and names[node.name] == Counter(named(node))[node.name]]


def test_orphaned_public_names_found():
    package = {"a": ast.parse("def used(): pass\ndef orphan(n): return orphan(n - 1)\n"
                              "class Traced: pass\ndef _private(): pass\n")}
    readers = [*package.values(), ast.parse("used()\nLAYERS = ('a.Traced',)\n")]
    assert orphaned_public_names(package, readers) == [("a", "orphan")]


def test_no_orphaned_public_names():
    # Every public function or class of the package is used, exported, tested or traced.
    package = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in SOURCES}
    files = [*PACKAGE.glob("*.py"), *TESTS.glob("*.py"), *(TESTS.parent / "bench").glob("*.py")]
    readers = [ast.parse(p.read_text(encoding="utf-8")) for p in files]
    assert orphaned_public_names(package, readers) == []
