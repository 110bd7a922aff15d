"""Every import in the library is used by the module that makes it.

No linter ships with the test dependencies, so this is the unused-import
check (pyflakes' F401) on the standard library's `ast`.  An import that a
module keeps on purpose carries `# noqa: F401` and a reason, on its line or
in the comment just above it.  The package's `__init__.py` is left out: its
imports are the public API it re-exports.
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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


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
