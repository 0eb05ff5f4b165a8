"""Tooling: a zetalab module reads only the public names of another, and
imports its siblings at the top of the module."""

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


def _local_sibling_imports(tree: ast.Module) -> list[int]:
    """Line numbers of zetalab imports made below the module's top level."""
    top = {id(node) for node in tree.body}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            sibling = node.level >= 1 or (node.module or "").split(".")[0] == "zetalab"
        elif isinstance(node, ast.Import):
            sibling = any(a.name.split(".")[0] == "zetalab" for a in node.names)
        else:
            continue
        if sibling and id(node) not in top:
            found.append(node.lineno)
    return found


def test_sibling_imports_at_module_top():
    # the check itself sees relative and absolute imports inside a function
    probe = "from . import lattice\ndef f():\n    from .lattice import reduce_sl2\n" \
            "    import zetalab.lattice\n"
    assert _local_sibling_imports(ast.parse(probe)) == [3, 4]
    hits = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py"))
            for line in _local_sibling_imports(ast.parse(path.read_text()))]
    assert hits == []
