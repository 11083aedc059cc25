"""Every function, class, class member and defaulted parameter defined in
src/onlinekd is used by the package, every parameter is read by its
function, and every name a module in src/onlinekd or tests imports is read
there.

A definition that nothing in src/onlinekd reaches, outside its own body, is
API kept alive only for the tests (or for nobody). The check parses each
module and matches definition names against every name and attribute the
package reads. A read inside a definition of the same name does not count,
so recursion and a chain of same-named methods that delegate to each other
(Mlp.f calling Layer.f) do not keep themselves alive. Dunders are exempt,
since Python calls them.

The member check does the same for what a class carries: its methods and
properties, the fields and attributes its body assigns (dataclass fields
among them) and the attributes its methods assign on self. A member counts
as read only where the package loads it as an attribute (`x.name`), outside
the member's own definition; assigning it, or a plain local of the same
name, does not count.

The parameter check looks at every parameter that has a default, on a
function or method: some call must pass it, by keyword, by position at or
past its index (self aside) or through *args/**kwargs. A call to a class
counts for its __init__. Calls in benchmarks/ count too, since the benchmark
drives the package through cli.main(argv); calls inside the function's own
definition do not.

The dataclass-field check asks the reverse of a defaulted field: some
call of its class in src/onlinekd or benchmarks/ must leave the field out
and so rely on its default (a call of cls inside the class counts). A
default that every call passes only repeats what the callers set. The
classes cli.build_config fills from YAML keys are exempt: there a default
stands in for a key the config leaves out.

The unread-parameter check asks that each parameter of a function or
method (self, cls and dunder methods aside) be read as a plain name in the
function's body, nested functions included. A parameter that a function
only takes to hand to a test's wrapper, or that it no longer uses, fails;
one that the body overwrites before it reads the name passes.

Blind spot: these checks match names, not bindings. A member or method that
shares its name with some other attribute the package loads (`copy`,
`value`, `select`, say, next to numpy's or another class's) counts as read
even when nothing reads it. Names shared by several classes are common
(`tasks` is a member of 7 classes, `name` of 5), so a test-only member with
such a name is not caught. Likewise a call to any function or method of a
name (`add`, `append`, `get`) counts for every definition of that name, so
a parameter passed to one of them counts as passed to all. The reverse also
holds: a member read only by reflection (`getattr` with a string,
`dataclasses.asdict`) is flagged, and so is a parameter passed only where a
library calls the function back (`pool.map(f, cells)`).

The import check is per module: a name bound by an import statement
(`__future__` aside) must be read, as a plain name, somewhere in the module
that imports it.
"""

import ast
from dataclasses import is_dataclass
from pathlib import Path
from typing import get_args, get_type_hints

from onlinekd.pipeline import ExperimentConfig

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


def class_members(cls: ast.ClassDef):
    """(name, node) for each member cls defines: its methods and properties,
    the names its body assigns, and the attributes its methods assign on
    self."""
    for item in cls.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield item.name, item
            for node in ast.walk(item):
                if (
                    isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name) and node.value.id == "self"
                ):
                    yield node.attr, node
        elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
            yield item.target.id, item
        elif isinstance(item, ast.Assign):
            yield from ((t.id, item) for t in item.targets if isinstance(t, ast.Name))


def unread_members(src: Path) -> list[str]:
    """module:line Class.name for each class member the package never loads
    as an attribute outside the member's own definition."""
    members, loads = {}, []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ClassDef):
                for name, member in class_members(node):
                    members.setdefault((path.name, node.name, name), []).append(member)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loads.append((path.name, node.attr, node.lineno))
    spans = {}
    for (module, _, name), nodes in members.items():
        spans.setdefault((module, name), []).extend((n.lineno, n.end_lineno) for n in nodes)
    read = {
        name
        for module, name, line in loads
        if not any(lo <= line <= hi for lo, hi in spans.get((module, name), ()))
    }
    return [
        f"{module}:{nodes[0].lineno} {cls}.{name}"
        for (module, cls, name), nodes in members.items()
        if name not in read and not (name.startswith("__") and name.endswith("__"))
    ]


def test_every_class_member_is_read_by_the_package():
    assert unread_members(SRC) == []


def test_check_flags_a_member_only_assigned_or_read_by_itself(tmp_path):
    (tmp_path / "mod.py").write_text(
        "from dataclasses import dataclass\n\n\n"
        "@dataclass\n"
        "class Loss:\n"
        "    hard: float\n"
        "    soft: float = 0.0\n"
        "    LIMIT = 3\n\n"
        "    @property\n"
        "    def total(self):\n"
        "        return self.hard + self.total\n\n"
        "    def __post_init__(self):\n"
        "        self.cache = None\n"
        "        self.seen = 1\n\n\n"
        "soft = Loss(1.0).seen\n"
        "print(soft)\n"
    )
    assert unread_members(tmp_path) == [
        "mod.py:7 Loss.soft", "mod.py:8 Loss.LIMIT", "mod.py:11 Loss.total", "mod.py:15 Loss.cache",
    ]


def defaulted_parameters(fn, offset):
    """(name, positional index or None) for each parameter of fn that has a
    default; offset is 1 for a method, whose calls do not pass self."""
    args = fn.args
    positional = args.posonlyargs + args.args
    for i, arg in enumerate(positional[len(positional) - len(args.defaults):]):
        yield arg.arg, len(positional) - len(args.defaults) + i - offset
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def passes(call: ast.Call, name: str, index) -> bool:
    """Whether call passes the parameter name at positional index (None for
    keyword-only), by keyword, by position or through *args/**kwargs."""
    if any(kw.arg in (name, None) for kw in call.keywords):
        return True
    if index is None:
        return False
    return len(call.args) > index or any(isinstance(a, ast.Starred) for a in call.args)


def calls_in(src: Path, callers) -> list:
    """(module, call, callee name) for each call in src and in the caller
    files; module is None for a caller file. A call of cls inside a class
    is a call of that class."""
    calls = []
    for path in sorted(src.glob("*.py")) + sorted(callers):
        owners = {}  # each call inside a class body, innermost class last
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ClassDef):
                owners.update((id(n), node.name) for n in ast.walk(node))
            if isinstance(node, ast.Call):
                callee = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                if callee == "cls":
                    callee = owners.get(id(node), callee)
                calls.append((path.name if path.parent == src else None, node, callee))
    return calls


def unpassed_parameters(src: Path, callers) -> list[str]:
    """module:line function(parameter) for each defaulted parameter of a
    function or method in src that no call in src or in the caller files
    passes, outside the function's own definition. A call to a class counts
    for its __init__."""
    params = []
    for path in sorted(src.glob("*.py")):
        owners = {}  # a class body's functions, found before the walk reaches them
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ClassDef):
                owners.update((id(item), node.name) for item in node.body)
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            cls = owners.get(id(node))
            static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
            callee = cls if node.name == "__init__" else node.name
            label = f"{cls}.{node.name}" if cls else node.name
            for name, index in defaulted_parameters(node, int(cls is not None and not static)):
                params.append((path.name, node, callee, f"{label}({name})", name, index))
    calls = calls_in(src, callers)
    params.sort(key=lambda p: (p[0], p[1].lineno))
    return [
        f"{module}:{fn.lineno} {label}"
        for module, fn, callee, label, name, index in params
        if not any(
            target == callee and passes(call, name, index)
            and not (caller == module and fn.lineno <= call.lineno <= fn.end_lineno)
            for caller, call, target in calls
        )
    ]


def test_every_defaulted_parameter_is_passed_by_some_caller():
    # benchmarks/ drives the package through cli.main(argv) and reads its
    # names, so its calls count as the package's own
    assert unpassed_parameters(SRC, (TESTS.parent / "benchmarks").glob("*.py")) == []


def test_check_flags_a_parameter_no_call_passes(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def grow(n, step=1, *, limit=None, quiet=False):\n"
        "    return grow(n, step, limit=limit) if n else n\n\n\n"
        "class Box:\n"
        "    def __init__(self, size=1, colour='red'):\n"
        "        self.size = size\n\n"
        "    def put(self, item, where=0, mode='a'):\n"
        "        return item, where, mode\n\n\n"
        "def relay(*args, **kwargs):\n"
        "    return grow(*args), Box(**kwargs)\n\n\n"
        "def quiet(level=0):\n"
        "    return level\n\n\n"
        "Box(2).put('x', 1)\n"
    )
    caller = tmp_path / "bench" / "caller.py"
    caller.parent.mkdir()
    caller.write_text("quiet(level=1)\n")
    assert unpassed_parameters(tmp_path, []) == [
        "mod.py:1 grow(limit)", "mod.py:1 grow(quiet)", "mod.py:9 Box.put(mode)",
        "mod.py:17 quiet(level)",
    ]
    assert unpassed_parameters(tmp_path, [caller]) == [
        "mod.py:1 grow(limit)", "mod.py:1 grow(quiet)", "mod.py:9 Box.put(mode)",
    ]


def defaulted_fields(cls: ast.ClassDef):
    """(name, positional index, node) for each __init__ field of a dataclass
    that has a default."""
    index = 0
    for item in cls.body:
        if not (isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)):
            continue
        value = item.value
        keywords = (
            {kw.arg for kw in value.keywords}
            if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field"
            else None
        )
        if keywords is not None and "init" in keywords:  # field(init=False)
            continue
        if value is not None and (keywords is None or keywords & {"default", "default_factory"}):
            yield item.target.id, index, item
        index += 1


def unrelied_field_defaults(src: Path, callers, exempt=()) -> list[str]:
    """module:line Class.field for each defaulted field of a dataclass in src
    (the classes named in exempt aside) whose default no call of the class
    in src or in the caller files relies on: every such call passes it."""
    calls = calls_in(src, callers)
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.ClassDef) or node.name in exempt or not any(
                getattr(getattr(d, "func", d), "id", None) == "dataclass"  # @dataclass(...) too
                for d in node.decorator_list
            ):
                continue
            mine = [call for _, call, callee in calls if callee == node.name]
            found += [
                f"{path.name}:{item.lineno} {node.name}.{name}"
                for name, index, item in defaulted_fields(node)
                if all(passes(call, name, index) for call in mine)
            ]
    return found


def yaml_filled(cls) -> set[str]:
    """The names of cls and of every dataclass its field types reach, as
    test_cli.readable_keys walks them: for ExperimentConfig, the classes
    cli.build_config fills from YAML keys, passing each field by keyword."""
    names = {cls.__name__}
    for hint in get_type_hints(cls).values():
        for arg in get_args(hint) or (hint,):
            if is_dataclass(arg) and arg.__name__ not in names:
                names |= yaml_filled(arg)
    return names


def test_every_dataclass_field_default_is_relied_on():
    callers = (TESTS.parent / "benchmarks").glob("*.py")
    exempt = yaml_filled(ExperimentConfig)
    assert unrelied_field_defaults(SRC, callers, exempt) == []


def test_check_flags_a_dataclass_default_every_call_passes(tmp_path):
    (tmp_path / "mod.py").write_text(
        "from dataclasses import dataclass, field\n\n\n"
        "@dataclass(frozen=True)\n"
        "class Job:\n"
        "    name: str\n"
        "    tag: str = field(repr=False)\n"
        "    every: int = 1\n"
        "    cache: list = field(init=False)\n"
        "    bias: dict = field(default_factory=dict)\n"
        "    freeze: int = 0\n\n\n"
        "@dataclass\n"
        "class Loaded:\n"
        "    steps: int = 5\n"
        "    rate: float = 0.1\n\n"
        "    @classmethod\n"
        "    def make(cls):\n"
        "        return cls(rate=0.2)\n\n\n"
        "class Plain:\n"
        "    size: int = 3\n\n\n"
        "Job('a', 't', 2, {}, freeze=1)\n"
        "Job('b', 'u', every=3)\n"
        "Plain()\n"
    )
    caller = tmp_path / "bench" / "caller.py"
    caller.parent.mkdir()
    caller.write_text("Job('c', 'v')\n")
    assert unrelied_field_defaults(tmp_path, []) == ["mod.py:8 Job.every", "mod.py:17 Loaded.rate"]
    # a call in a caller file counts, and an exempt class is not looked at
    assert unrelied_field_defaults(tmp_path, [caller], exempt={"Loaded"}) == []


def unread_parameters(src: Path) -> list[str]:
    """module:line function(parameter) for each parameter its function's body
    never reads."""
    unread = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) or (
                node.name.startswith("__") and node.name.endswith("__")
            ):
                continue
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs
            params += [a for a in (args.vararg, args.kwarg) if a is not None]
            read = {
                n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            }
            unread += [
                f"{path.name}:{node.lineno} {node.name}({a.arg})"
                for a in params if a.arg not in read and a.arg not in ("self", "cls")
            ]
    return unread


def test_every_parameter_is_read_by_its_function():
    assert unread_parameters(SRC) == []


def test_check_flags_a_parameter_its_function_never_reads(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def relay(job, rows, *extra, seen=None, **opts):\n"
        "    def inner():\n"
        "        return rows\n\n"
        "    return inner()\n\n\n"
        "class Box:\n"
        "    def __init__(self, size):\n"
        "        pass\n\n"
        "    @classmethod\n"
        "    def make(cls, size):\n"
        "        return cls\n\n"
        "    def put(self, item, where: 'where'):\n"
        "        return item\n"
    )
    assert unread_parameters(tmp_path) == [
        "mod.py:1 relay(job)", "mod.py:1 relay(seen)", "mod.py:1 relay(extra)",
        "mod.py:1 relay(opts)", "mod.py:13 make(size)", "mod.py:16 put(where)",
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
