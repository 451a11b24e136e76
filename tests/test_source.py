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
