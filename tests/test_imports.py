"""Every import and every local variable in the library is read.

No linter ships with the test dependencies, so these are two pyflakes checks
on the standard library's `ast`: the unused import (F401) and the local
variable assigned but never read (F841).  An import that a module keeps on
purpose carries `# noqa: F401` and a reason, on its line or in the comment
just above it.  The package's `__init__.py` is left out: its imports are the
public API it re-exports.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "sumrank"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def bound_names(node):
    """(name, line) for each name an import statement binds."""
    for alias in node.names:
        if alias.asname:
            yield alias.asname, node.lineno
        elif alias.name != "*":
            yield alias.name.split(".")[0], node.lineno


def excused(lines, node):
    """The import carries `# noqa: F401` and a reason for keeping it."""
    for i in range(node.lineno - 1, node.end_lineno):
        text = lines[i]
        if "# noqa: F401" in text:
            reason = text.split("# noqa: F401", 1)[1].strip()
            above = lines[node.lineno - 2].strip() if node.lineno > 1 else ""
            return bool(reason) or above.startswith("#")
    return False


def unused_imports(source: str):
    """The names that `source` imports and never reads, with their lines."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)) and not excused(lines, node):
            out += [(name, line) for name, line in bound_names(node) if name not in used]
    return out


NESTED_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def own_scope(func):
    """The nodes of a function that lie outside its nested scopes."""
    todo = list(ast.iter_child_nodes(func))
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, NESTED_SCOPES):
            todo += ast.iter_child_nodes(node)


def unused_locals(source: str):
    """The local variables that `source` assigns and never reads, with their
    lines: as pyflakes' F841, a plain `name = ...`, `name: T = ...`,
    `(name := ...)` or `except ... as name` in a function, read nowhere in
    it, nested functions included.  Tuple, loop and `with` targets are not
    checked, as pyflakes does not check them; `name += ...` reads name."""
    out = []
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        nodes = list(ast.walk(func))
        read = {n.id for n in nodes
                if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
        read |= {n.target.id for n in nodes
                 if isinstance(n, ast.AugAssign) and isinstance(n.target, ast.Name)}
        scope = list(own_scope(func))
        read |= {name for n in scope
                 if isinstance(n, (ast.Global, ast.Nonlocal)) for name in n.names}
        for node in scope:
            if isinstance(node, ast.ExceptHandler) and node.name:
                bound = [(node.name, node.lineno)]
            elif isinstance(node, ast.Assign):
                bound = [(n.id, n.lineno) for n in node.targets if isinstance(n, ast.Name)]
            elif isinstance(node, (ast.AnnAssign, ast.NamedExpr)) and node.value is not None:
                target = node.target
                bound = [(target.id, target.lineno)] if isinstance(target, ast.Name) else []
            else:
                continue
            out += [(name, line) for name, line in bound if name not in read]
    return sorted(set(out))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_locals(path):
    assert unused_locals(path.read_text(encoding="utf-8")) == []


class TestChecker:
    def test_flags_an_unused_import(self):
        src = "import os\nfrom math import gcd, ceil\n\nprint(gcd(4, 6))\n"
        assert unused_imports(src) == [("os", 1), ("ceil", 2)]

    def test_reads_dotted_aliased_and_attribute_uses(self):
        src = "import os.path\nfrom math import ceil as up\n\nos.path.join(str(up(1.5)))\n"
        assert unused_imports(src) == []

    def test_noqa_needs_a_reason(self):
        bare = "from math import gcd  # noqa: F401\n"
        assert unused_imports(bare) == [("gcd", 1)]
        inline = "from math import gcd  # noqa: F401 re-exported for callers\n"
        above = "# gcd stays importable for callers\nfrom math import gcd  # noqa: F401\n"
        assert unused_imports(inline) == [] == unused_imports(above)

    def test_future_import_is_not_a_name(self):
        assert unused_imports("from __future__ import annotations\n") == []


class TestLocalsChecker:
    def test_flags_an_unread_local(self):
        src = (
            "def f(a):\n"
            "    x = a + 1\n"
            "    y: int = 2\n"
            "    if (z := a):\n"
            "        pass\n"
            "    w = 3\n"
            "    return w\n"
        )
        assert unused_locals(src) == [("x", 2), ("y", 3), ("z", 4)]

    def test_flags_an_unread_exception_name(self):
        src = "def f():\n    try:\n        pass\n    except ValueError as exc:\n        pass\n"
        assert unused_locals(src) == [("exc", 4)]

    def test_reads_count_anywhere_in_the_function(self):
        src = (
            "def f():\n"
            "    x = 1\n"
            "    n = 0\n"
            "    n += 1\n"
            "    d = 2\n"
            "    del d\n"
            "    def g():\n"
            "        return x\n"
            "    return g\n"
        )
        assert unused_locals(src) == []

    def test_each_function_reads_its_own_names(self):
        # a read of x in g does not excuse f's unread x, and g's own x is read
        src = "def f():\n    x = 1\n\ndef g(x):\n    return x\n"
        assert unused_locals(src) == [("x", 2)]

    def test_nested_function_checked_on_its_own(self):
        src = "def f():\n    def g():\n        y = 1\n    return g\n"
        assert unused_locals(src) == [("y", 3)]

    def test_targets_pyflakes_leaves_alone(self):
        src = (
            "X = 1\n"
            "def f(pairs, path):\n"
            "    global G\n"
            "    G = 1\n"
            "    a, b = pairs[0]\n"
            "    for k in pairs:\n"
            "        pass\n"
            "    with open(path) as fh:\n"
            "        pass\n"
            "    obj.attr = 1\n"
            "    obj[0] = 2\n"
        )
        assert unused_locals(src) == []
