"""Every module of the package and of `tests/` uses each name it imports at
top level, every private name the package defines at top level is used,
every name the package exports is used by the package or the benchmark, and
every import in the package is a top-level statement, so that the module
graph, cycles included, can be read off the module heads.

The repository runs no linter, so these are its unused-import and dead-name
checks, made with `ast` alone.  `__init__.py` re-exports by importing, `from
__future__` binds nothing, and a line marked `# noqa: F401` keeps its import
on purpose.  A private (`_name`) module-level function, class or constant
counts as used when `src/` or `bench/` reads it, imports it by name or spells
it as a string anywhere outside its own definition; an exported name, by the
same rule, when a module other than `__init__.py` does.  An attribute is a
read only on a name bound to `twjscc` or one of its modules, so
`itertools.product` does not read an export `product`.  A function that only
tests call belongs in `tests/util.py`.
"""

import ast
from functools import cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "twjscc"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TEST_MODULES = sorted((ROOT / "tests").glob("*.py"))
READERS = sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "bench").rglob("*.py")])


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


@pytest.mark.parametrize("path", MODULES + TEST_MODULES, ids=lambda p: p.name)
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


def _nested_imports(tree: ast.Module) -> list[int]:
    """Line numbers of the imports that are not top-level statements."""
    top = {id(node) for node in tree.body}
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_package_import_is_top_level(path):
    nested = _nested_imports(ast.parse(path.read_text()))
    assert not nested, f"{path.name} imports inside a function or block, at lines {nested}"


def test_check_sees_a_nested_import():
    tree = ast.parse("import os\n\ndef f():\n    from .m import a\n    return a\n\n"
                     "class K:\n    import sys\n\nif os:\n    import json\n")
    assert _nested_imports(tree) == [4, 8, 11]


def _private_definitions(tree: ast.Module):
    """(name, defining statement) of each private top-level function, class and constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        yield from ((name, node) for name in names if name.startswith("_") and not name.startswith("__"))


def _package_modules(tree: ast.Module) -> set[str]:
    """Names the module binds to `twjscc` or to one of its modules."""
    submodules = {p.stem for p in PACKAGE.glob("*.py")}
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.asname or "twjscc" for alias in node.names
                         if alias.name.split(".")[0] == "twjscc")
        elif isinstance(node, ast.ImportFrom) and (node.module == "twjscc" or node.level and not node.module):
            names.update(alias.asname or alias.name for alias in node.names if alias.name in submodules)
    return names


def _attribute_base(node: ast.Attribute) -> ast.expr:
    while isinstance(node, ast.Attribute):
        node = node.value
    return node


def _references(tree: ast.Module, skip: ast.stmt | None = None) -> set[str]:
    """Names the module reads, imports by name or spells as a string, outside
    the statement `skip`; an attribute counts only on a name bound to the
    package or one of its modules, so `itertools.product` is no read of an
    export `product`."""
    modules = _package_modules(tree)
    refs = set()
    for node in (n for top in tree.body if top is not skip for n in ast.walk(top)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            base = _attribute_base(node)
            if isinstance(base, ast.Name) and base.id in modules:
                refs.add(node.attr)
        elif isinstance(node, ast.alias):
            refs.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            refs.add(node.value)
    return refs


@cache
def _reader_trees() -> dict[Path, ast.Module]:
    return {p: ast.parse(p.read_text()) for p in READERS}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_private_name_is_used(path):
    trees = _reader_trees()
    elsewhere = set().union(*(_references(t) for p, t in trees.items() if p != path))
    tree = trees[path]
    dead = [name for name, node in _private_definitions(tree)
            if name not in elsewhere and name not in _references(tree, skip=node)]
    assert not dead, f"{path.name} defines private names that src/ and bench/ never use: {dead}"


def test_check_sees_a_dead_private_name():
    tree = ast.parse("_A = 1\n_B = _A\n_C: int = 2\n\ndef _f():\n    return _f()\n\nclass _K:\n    pass\n")
    defined = {name: node for name, node in _private_definitions(tree)}
    assert set(defined) == {"_A", "_B", "_C", "_f", "_K"}
    dead = {name for name, node in defined.items() if name not in _references(tree, skip=node)}
    assert dead == {"_B", "_C", "_f", "_K"}


def _exports() -> dict[str, str]:
    """Each name `__init__.py` re-exports, with the module that defines it."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.asname or alias.name: node.module for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1 for alias in node.names}


def _definition(tree: ast.Module, name: str) -> ast.stmt | None:
    """The top-level statement of `tree` that defines `name`."""
    for node in tree.body:
        if getattr(node, "name", None) == name:
            return node
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if name in {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}:
                return node
    return None


def _unread_exports(exports: dict[str, str], trees: dict[Path, ast.Module]) -> list[str]:
    """Exported names that no reader uses outside their own definition; the
    re-exporting `__init__.py` does not count as a reader."""
    unread = []
    for name, module in exports.items():
        home = PACKAGE / f"{module}.py"
        if not any(name in _references(tree, skip=_definition(tree, name) if path == home else None)
                   for path, tree in trees.items() if path != PACKAGE / "__init__.py"):
            unread.append(name)
    return unread


def test_every_export_is_read_by_src_or_bench():
    unread = _unread_exports(_exports(), _reader_trees())
    assert not unread, f"twjscc exports names that only tests use: {unread}"


def test_check_sees_an_unread_export():
    home = PACKAGE / "m.py"
    trees = {
        PACKAGE / "__init__.py": ast.parse("from .m import a, b, c\n"),
        home: ast.parse("def a():\n    return a()\n\ndef b():\n    return 1\n\nc = b()\n"),
        ROOT / "bench" / "w.py": ast.parse("from twjscc import c\n"),
    }
    assert _unread_exports({"a": "m", "b": "m", "c": "m"}, trees) == ["a"]


def test_check_counts_attributes_of_package_modules_only():
    home = PACKAGE / "probability.py"
    trees = {
        PACKAGE / "__init__.py": ast.parse("from .probability import a, b, product\n"),
        home: ast.parse("def a():\n    return 1\n\ndef b():\n    return 2\n\ndef product():\n    return 3\n"),
        PACKAGE / "k.py": ast.parse("import itertools\nfrom . import probability as p\n\nitertools.product(p.a)\n"),
        ROOT / "bench" / "w.py": ast.parse("import twjscc.probability\n\ntwjscc.probability.b()\n"),
    }
    assert _unread_exports({"a": "probability", "b": "probability", "product": "probability"}, trees) == [
        "product"]
