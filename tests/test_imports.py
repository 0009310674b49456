"""Every module of the package uses each name it imports at top level.

The repository runs no linter, so this is its unused-import check, made
with `ast` alone.  `__init__.py` re-exports by importing, `from __future__`
binds nothing, and a line marked `# noqa: F401` keeps its import on purpose.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "twjscc"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree: ast.Module, lines: list[str]) -> dict[str, int]:
    """Name bound by each top-level import, with its line number."""
    names = {}
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if "# noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            names[alias.asname or alias.name.split(".")[0]] = node.lineno
    return names


def _used_names(tree: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_top_level_import_is_used(path):
    text = path.read_text()
    tree = ast.parse(text)
    used = _used_names(tree)
    unused = {name: line for name, line in _imported_names(tree, text.splitlines()).items()
              if name not in used}
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_check_sees_an_unused_import():
    tree = ast.parse("import os\nimport sys  # noqa: F401\nfrom .m import a, b as c\n\nc()\n")
    lines = ["import os", "import sys  # noqa: F401", "from .m import a, b as c", "", "c()"]
    names = _imported_names(tree, lines)
    assert set(names) - _used_names(tree) == {"os", "a"}
