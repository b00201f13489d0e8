"""No private name or field in ``src/sesame`` is left without a use.

Every module-level name, function, class and method whose name starts
with one underscore (dunder names excepted) must be read somewhere in
``src/sesame`` outside its own definition: as a name, as an attribute
(``self._x``, ``module._x``) or in an import.  A reference inside the
definition itself, such as a recursive call, does not count, and neither
does a use in the tests.

Every public module-level name, function, class and method must be read
the same way, or be named in ``perfbench/*.py`` as an attribute or in a
string (the benchmark traces layers by name), or be exported by
``sesame/__init__.py`` or named by a console script in
``pyproject.toml``.

Every dataclass field and every name in a class's ``__slots__`` must be
read as an attribute (``record.field``) somewhere in ``src/sesame``: a
field that is only set holds nothing anyone asks for.

Every parameter of a function, method or lambda, ``self`` and ``cls``
excepted, must be read in that function's body: a parameter that nothing
reads is a value every caller passes for nothing.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "sesame"
PERFBENCH = ROOT / "perfbench"
PYPROJECT = ROOT / "pyproject.toml"


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _definitions(tree: ast.Module):
    """(name, node) of every private module-level definition and method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        yield item.name, item
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node


def _references(tree: ast.Module):
    """(name, line) of every read of a name, attribute or imported name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name, node.lineno


def _unused(src: Path, wanted) -> list[str]:
    """Each definition whose name ``wanted`` accepts that nothing in
    ``src`` reads outside the definition itself."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    uses: dict[str, list[tuple[str, int]]] = {}
    for module, tree in trees.items():
        for name, line in _references(tree):
            uses.setdefault(name, []).append((module, line))
    unused = []
    for module, tree in trees.items():
        for name, node in _definitions(tree):
            if not wanted(name):
                continue
            outside = [
                (where, line) for where, line in uses.get(name, [])
                if where != module or not node.lineno <= line <= node.end_lineno
            ]
            if not outside:
                unused.append(f"{module}:{node.lineno} {name}")
    return unused


def unused_private_names(src: Path = SRC) -> list[str]:
    return _unused(src, _private)


def _named_outside(perfbench: Path, pyproject: Path) -> set[str]:
    """Names the benchmark reads as attributes or spells in strings (each
    dotted part too), and the functions console scripts name."""
    names = set()
    for path in perfbench.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.update(node.value.split("."))
    names.update(re.findall(r"=\s*[\"'][\w.]+:(\w+)[\"']", pyproject.read_text()))
    return names


def unused_public_names(
    src: Path = SRC, perfbench: Path = PERFBENCH, pyproject: Path = PYPROJECT
) -> list[str]:
    # a name that ``__init__`` exports is read there, by its import
    outside = _named_outside(perfbench, pyproject)
    return _unused(src, lambda name: not name.startswith("_") and name not in outside)


def _is_dataclass(decorator: ast.expr) -> bool:
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
    return name == "dataclass"


def _fields(tree: ast.Module):
    """(class, name, line) of every dataclass field and ``__slots__`` name."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        dataclass = any(_is_dataclass(d) for d in node.decorator_list)
        for item in node.body:
            if dataclass and isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                yield node.name, item.target.id, item.lineno
            elif isinstance(item, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__slots__" for t in item.targets
            ):
                for slot in ast.walk(item.value):
                    if isinstance(slot, ast.Constant) and isinstance(slot.value, str):
                        yield node.name, slot.value, item.lineno


def unread_fields(src: Path = SRC) -> list[str]:
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    read = {
        node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    return [
        f"{module}:{line} {cls}.{name}"
        for module, tree in trees.items()
        for cls, name, line in _fields(tree)
        if name not in read
    ]


def unread_parameters(src: Path = SRC) -> list[str]:
    unread = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs
            params += [p for p in (args.vararg, args.kwarg) if p is not None]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {
                name.id
                for statement in body
                for name in ast.walk(statement)
                if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Load)
            }
            unread += [
                f"{path.name}:{node.lineno} {getattr(node, 'name', 'lambda')}({p.arg})"
                for p in params
                if p.arg not in ("self", "cls") and p.arg not in read
            ]
    return unread


def test_every_private_name_is_used():
    assert unused_private_names() == []


def test_an_unused_helper_is_reported(tmp_path):
    (tmp_path / "m.py").write_text(
        "_USED = 1\n_UNUSED = 2\n\n"
        "def _recursive(n):\n    return _recursive(n - 1) + _USED\n\n"
        "class _Box:\n    def _get(self):\n        return self._get()\n"
    )
    assert unused_private_names(tmp_path) == [
        "m.py:2 _UNUSED", "m.py:4 _recursive", "m.py:7 _Box", "m.py:8 _get",
    ]


def test_every_public_name_is_used():
    assert unused_public_names() == []


def test_an_unused_public_name_is_reported(tmp_path):
    src, bench = tmp_path / "src", tmp_path / "bench"
    src.mkdir()
    bench.mkdir()
    (src / "__init__.py").write_text("from .m import exported\n")
    (src / "m.py").write_text(
        "LIMIT = 3\nUNUSED = 4\n\n"
        "def exported():\n    return LIMIT\n\n"
        "def traced():\n    pass\n\n"
        "def entry():\n    pass\n\n"
        "def dead():\n    return dead()\n\n"
        "class Box:\n    def count(self):\n        return 0\n"
        "    def size(self):\n        return 0\n"
    )
    (bench / "spans.py").write_text('LAYERS = [("m", "traced")]\n\ndef f(box):\n    return box.count()\n')
    pyproject = tmp_path / "pyproject.toml"
    pyproject.write_text('[project.scripts]\ntool = "pkg.m:entry"\n')
    assert unused_public_names(src, bench, pyproject) == [
        "m.py:2 UNUSED", "m.py:13 dead", "m.py:16 Box", "m.py:19 size",
    ]


def test_every_field_is_read():
    assert unread_fields() == []


def test_an_unread_field_is_reported(tmp_path):
    (tmp_path / "m.py").write_text(
        "from dataclasses import dataclass\n\n"
        "@dataclass(frozen=True)\nclass Pair:\n    read: int\n    set_only: int = 0\n\n"
        "class Slots:\n    __slots__ = ('used', 'unused')\n\n"
        "class Plain:\n    annotated: int\n\n"
        "def f(p, s):\n    p.set_only = s.used\n    return p.read + s.used\n"
    )
    assert unread_fields(tmp_path) == [
        "m.py:6 Pair.set_only", "m.py:9 Slots.unused",
    ]


def test_every_parameter_is_read():
    assert unread_parameters() == []


def test_an_unread_parameter_is_reported(tmp_path):
    (tmp_path / "m.py").write_text(
        "def f(a, b, *rest, c=1, **extra):\n    return a + sum(rest) + extra['d']\n\n"
        "class Box:\n    def get(self, key, default):\n        return self.items.get(key)\n\n"
        "    @classmethod\n    def make(cls, n):\n        def inner():\n            return n\n"
        "        return inner\n\n"
        "g = lambda x, y: x\n"
    )
    assert unread_parameters(tmp_path) == [
        "m.py:1 f(b)", "m.py:1 f(c)", "m.py:5 get(default)", "m.py:14 lambda(y)",
    ]
