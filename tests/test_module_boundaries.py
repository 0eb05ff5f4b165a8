"""Tooling: a zetalab module reads only the public names of another."""

import ast
from pathlib import Path

import zetalab

SRC = Path(zetalab.__file__).parent


def _private_reads(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    # local names bound to sibling modules: ``from . import specfun``
    modules = {a.asname or a.name: a.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None
               for a in node.names}
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            reads = [(modules[node.value.id], node.attr)]  # specfun._x
        elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            reads = [(node.module, a.name) for a in node.names]  # from .specfun import _x
        else:
            continue
        found += [f"{path.name}:{node.lineno}: {m}.{a}" for m, a in reads if a.startswith("_")]
    return found


def test_no_private_cross_module_reads():
    files = sorted(SRC.glob("*.py"))
    assert len(files) > 5
    assert [hit for path in files for hit in _private_reads(path)] == []
