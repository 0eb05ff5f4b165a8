"""Tooling: a zetalab module reads only the public names of another, and
imports its siblings at the top of the module; every public default is
passed, and every public name named, by some library, CLI or benchmark
code."""

import ast
from collections import Counter
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


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
# the console entry point: with no argv, argparse reads sys.argv
NO_CALLER_NEEDED = {"cli.main(argv)"}


def _defaulted(fn: ast.FunctionDef, skip: int = 0) -> list[tuple[str, int | None]]:
    """(name, position) of each defaulted parameter; keyword-only ones have None."""
    a = fn.args
    positional = (a.posonlyargs + a.args)[skip:]
    first = len(positional) - len(a.defaults)
    return [(arg.arg, first + i) for i, arg in enumerate(positional[first:])] + \
        [(arg.arg, None) for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]


def _public_defaults(tree: ast.Module, module: str):
    """(key, callee name, parameter, position, label) of every public default.

    Module-level public functions, and the public methods (positions without
    self) and dataclass fields (positions among the fields) of public
    classes.  Nested functions are not checked.
    """
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            for p, i in _defaulted(node):
                yield (id(node), p), node.name, p, i, f"{module}.{node.name}({p})"
        if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
            continue
        if any("dataclass" in ast.unparse(d) for d in node.decorator_list):
            fields = [st for st in node.body
                      if isinstance(st, ast.AnnAssign) and isinstance(st.target, ast.Name)]
            for i, st in enumerate(fields):
                p = st.target.id
                if st.value is not None and not p.startswith("_"):
                    yield (id(node), p), node.name, p, i, f"{module}.{node.name}.{p}"
        for fn in node.body:
            if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_"):
                static = any(ast.unparse(d) == "staticmethod" for d in fn.decorator_list)
                for p, i in _defaulted(fn, 0 if static else 1):
                    yield (id(fn), p), fn.name, p, i, f"{module}.{node.name}.{fn.name}({p})"


def _calls(node: ast.AST, fn: ast.FunctionDef | None = None):
    """(call, innermost enclosing function or None) for every call under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call):
            yield child, fn
        yield from _calls(child, child if isinstance(child, ast.FunctionDef) else fn)


def _uncalled_defaults(checked: dict[str, ast.Module], callers: list[ast.Module]) -> list[str]:
    """Labels of the defaults in ``checked`` that no call in ``callers`` passes.

    A call that only forwards a default of its own enclosing function passes
    a value only if that default is passed in turn.
    """
    found = {key: rest for module, tree in checked.items()
             for key, *rest in _public_defaults(tree, module)}
    calls: dict[str, list] = {}
    for tree in callers:
        for call, fn in _calls(tree):
            name = getattr(call.func, "id", getattr(call.func, "attr", None))
            calls.setdefault(name, []).append((call, fn))

    def value(call: ast.Call, p: str, i: int | None):
        for k in call.keywords:
            if k.arg in (p, None):  # None: **kwargs
                return k.value
        if any(isinstance(a, ast.Starred) for a in call.args):
            return call
        return call.args[i] if i is not None and i < len(call.args) else None

    passed: set = set()
    while True:
        new = {key for key, (name, p, i, _) in found.items() if key not in passed
               for call, fn in calls.get(name, [])
               if (v := value(call, p, i)) is not None
               and not (isinstance(v, ast.Name) and fn is not None
                        and (id(fn), v.id) in found and (id(fn), v.id) not in passed)}
        if not new:
            break
        passed |= new
    return [label for key, (*_, label) in found.items()
            if key not in passed and label not in NO_CALLER_NEEDED]


def test_every_public_default_has_a_caller():
    # a default that no library, CLI or benchmark call ever overrides is a
    # fixed value: it belongs in a named module constant
    probe = ast.parse("def f(x, n=3, *, m=1):\n    return g(x, m)\n"
                      "def g(x, m=2):\n    pass\n"
                      "def _h(x, k=1):\n    pass\n"
                      "class C:\n    def h(self, a, b=1):\n        pass\n"
                      "@dataclass\nclass D:\n    a: int\n    b: int = 0\n"
                      "f(1, 4)\nC().h(1, b=2)\nD(1)\n")
    # f(m) is never passed, and g(m) only gets f's unpassed default
    assert _uncalled_defaults({"p": probe}, [probe]) == ["p.f(m)", "p.g(m)", "p.D.b"]
    more = ast.parse("f(1, m=0)\nD(1, 2)\n")
    assert _uncalled_defaults({"p": probe}, [probe, more]) == []
    checked = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    bench = [ast.parse(path.read_text()) for path in sorted(PERFBENCH.glob("*.py"))]
    assert len(checked) > 5 and len(bench) > 5
    assert _uncalled_defaults(checked, [*checked.values(), *bench]) == []


def _public_definitions(tree: ast.Module, module: str):
    """(label, name, node) of every module-level public function and class,
    and of every public method of a public class."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        yield f"{module}.{node.name}", node.name, node
        if isinstance(node, ast.ClassDef):
            for fn in node.body:
                if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_"):
                    yield f"{module}.{node.name}.{fn.name}", fn.name, fn


def _referenced(node: ast.AST) -> Counter:
    """How often each name is read as a ``Name`` or an ``Attribute`` under node."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def _names_without_caller(trees: dict[str, ast.Module]) -> list[str]:
    """Labels of the public definitions that no code outside their own body names.

    Matching is by bare name, as Python resolves neither ``obj.value`` nor a
    module alias statically: a ``.value`` anywhere counts for any method
    named ``value``.  Strings (``__all__`` entries, tracer probe keys) and
    import statements are not references.
    """
    total = sum((_referenced(tree) for tree in trees.values()), Counter())
    return [label for module, tree in trees.items()
            for label, name, node in _public_definitions(tree, module)
            if total[name] - _referenced(node)[name] == 0]


def test_every_public_name_has_a_caller():
    # a public function, class or method that no library, CLI or benchmark
    # code reaches is dead surface: it gets a caller or it goes
    probe = ast.parse("__all__ = ['f', 'g']\ndef f(n):\n    return f(n - 1)\n"
                      "def g():\n    pass\ndef _h():\n    return C().m()\n"
                      "class C:\n    def m(self):\n        pass\n"
                      "    def k(self):\n        pass\n")
    # f calls only itself, and the strings in __all__ call nobody
    assert _names_without_caller({"p": probe}) == ["p.f", "p.g", "p.C.k"]
    more = ast.parse("from p import f, g\nf(1)\nx.k\n")
    assert _names_without_caller({"p": probe, "q": more}) == ["p.g"]
    trees = {f"{path.parent.name}.{path.stem}": ast.parse(path.read_text())
             for path in [*sorted(SRC.glob("*.py")), *sorted(PERFBENCH.glob("*.py"))]}
    assert len(trees) > 12
    assert _names_without_caller(trees) == []
