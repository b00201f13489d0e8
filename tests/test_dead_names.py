"""No private name in ``src/sesame`` is left without a use.

Every module-level name, function, class and method whose name starts
with one underscore (dunder names excepted) must be read somewhere in
``src/sesame`` outside its own definition: as a name, as an attribute
(``self._x``, ``module._x``) or in an import.  A reference inside the
definition itself, such as a recursive call, does not count, and neither
does a use in the tests.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "sesame"


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


def unused_private_names(src: Path = SRC) -> list[str]:
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    uses: dict[str, list[tuple[str, int]]] = {}
    for module, tree in trees.items():
        for name, line in _references(tree):
            uses.setdefault(name, []).append((module, line))
    unused = []
    for module, tree in trees.items():
        for name, node in _definitions(tree):
            if not _private(name):
                continue
            outside = [
                (where, line) for where, line in uses.get(name, [])
                if where != module or not node.lineno <= line <= node.end_lineno
            ]
            if not outside:
                unused.append(f"{module}:{node.lineno} {name}")
    return unused


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
