"""Every function and class defined in src/onlinekd is used by the package,
and every name a module in src/onlinekd or tests imports is read there.

A definition that nothing in src/onlinekd reaches, outside its own body, is
API kept alive only for the tests (or for nobody). The check parses each
module and matches definition names against every name and attribute the
package reads. A read inside a definition of the same name does not count,
so recursion and a chain of same-named methods that delegate to each other
(Mlp.f calling Layer.f) do not keep themselves alive. Dunders are exempt,
since Python calls them.

Blind spot: it matches names, not bindings. A method that shares its name
with some other call or attribute in the package (`copy`, `value`, `select`,
say, next to numpy's or a dataclass's) counts as referenced even when nothing
calls it, so such a method is not caught.

The import check is per module: a name bound by an import statement
(`__future__` aside) must be read, as a plain name, somewhere in the module
that imports it.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "onlinekd"

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def unreferenced_definitions(src: Path) -> list[str]:
    """module:line name for each definition not read outside its own body."""
    defs, refs = [], []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, DEFINITIONS):
                defs.append((path.name, node))
            elif isinstance(node, ast.Name):
                refs.append((path.name, node.id, node.lineno))
            elif isinstance(node, ast.Attribute):
                refs.append((path.name, node.attr, node.lineno))
    spans = {}
    for module, node in defs:
        spans.setdefault((module, node.name), []).append((node.lineno, node.end_lineno))
    used = {
        name
        for module, name, line in refs
        if not any(lo <= line <= hi for lo, hi in spans.get((module, name), ()))
    }
    return [
        f"{module}:{node.lineno} {node.name}"
        for module, node in defs
        if node.name not in used and not (node.name.startswith("__") and node.name.endswith("__"))
    ]


def test_every_definition_is_used_by_the_package():
    assert unreferenced_definitions(SRC) == []


def test_check_flags_a_definition_used_only_by_itself(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def used():\n    return 1\n\n\n"
        "def lonely(n):\n    return lonely(n - 1) if n else used()\n\n\n"
        "class Kept:\n    def go(self):\n        return Kept\n\n\n"
        "class Orphan:\n    def __init__(self):\n        pass\n\n\n"
        "class Chain:\n    def size(self):\n        return Kept().size()\n\n\n"
        "Kept().go()\n"
    )
    assert unreferenced_definitions(tmp_path) == [
        "mod.py:5 lonely", "mod.py:14 Orphan", "mod.py:19 Chain", "mod.py:20 size",
    ]


def unread_imports(paths) -> list[str]:
    """module:line name for each imported name its module never reads."""
    unread = []
    for path in paths:
        tree = ast.parse(path.read_text(), str(path))
        read = {
            node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    unread.append(f"{path.name}:{node.lineno} {name}")
    return unread


def test_every_import_is_read():
    assert unread_imports(sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))) == []


def test_check_flags_an_import_that_is_never_read(tmp_path):
    (tmp_path / "mod.py").write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from json import dumps, loads as parse\n"
        "from pathlib import Path\n\n"
        "Path = None\n"
        "print(os.sep, dumps)\n"
    )
    assert unread_imports([tmp_path / "mod.py"]) == [
        "mod.py:3 np", "mod.py:4 parse", "mod.py:5 Path",
    ]
