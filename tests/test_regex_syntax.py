"""``src/sesame`` uses no regular expression syntax newer than Python 3.10.

The package supports Python 3.10 (``requires-python``), whose ``re`` has
neither possessive repeats (``a*+``) nor atomic groups (``(?>...)``).
Python 3.11 added both, so a pattern that uses them passes every test on
3.11 and fails only on 3.10.  The check reads each module's syntax tree for
calls of ``re``'s functions (``re.compile(pattern)``, ``re.fullmatch(pattern,
...)`` and the like), evaluates each call's pattern in the imported
module's namespace, and walks the parse of that pattern for the two
constructs.  A pattern that is not known at import, one built inside a
function, is reported as well, so none goes unchecked.  Before 3.11 the
parse itself rejects the newer syntax, and the module fails to import.
"""

from __future__ import annotations

import ast
import importlib
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "sesame"

_FUNCTIONS = frozenset(
    {"compile", "match", "fullmatch", "search", "sub", "subn", "split", "findall", "finditer"}
)

if sys.version_info >= (3, 11):
    from re import _constants, _parser

    _NEWER = {
        _constants.POSSESSIVE_REPEAT: "possessive repeat",
        _constants.ATOMIC_GROUP: "atomic group",
    }


def newer_constructs(pattern: str | bytes) -> set[str]:
    """The constructs newer than Python 3.10 in ``pattern``."""
    if sys.version_info < (3, 11):
        return set()
    found, stack = set(), [_parser.parse(pattern)]
    while stack:
        node = stack.pop()
        if isinstance(node, _parser.SubPattern):
            for op, arg in node:
                if op in _NEWER:
                    found.add(_NEWER[op])
                stack.append(arg)
        elif isinstance(node, (tuple, list)):
            stack.extend(node)
    return found


def pattern_calls(src: Path = SRC) -> list[tuple[str, str | bytes | NameError]]:
    """Each call of a function of ``re`` in the package at ``src``, as
    ``module:line`` and the pattern it passes, or the NameError that
    evaluating the pattern in the module's namespace raised."""
    calls = []
    for path in sorted(src.glob("*.py")):
        name = src.name if path.stem == "__init__" else f"{src.name}.{path.stem}"
        namespace = vars(importlib.import_module(name))
        nodes = [
            node for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "re"
            and node.func.attr in _FUNCTIONS
        ]
        for node in sorted(nodes, key=lambda node: (node.lineno, node.col_offset)):
            if node.args:
                arg = node.args[0]
            else:
                arg = next(k.value for k in node.keywords if k.arg == "pattern")
            expression = ast.fix_missing_locations(ast.Expression(arg))
            try:
                pattern = eval(compile(expression, path.name, "eval"), dict(namespace))
            except NameError as error:  # a name bound only inside a function
                pattern = error
            calls.append((f"{path.name}:{node.lineno}", pattern))
    return calls


def newer_syntax(src: Path = SRC) -> list[str]:
    """Each call of ``pattern_calls`` whose pattern uses syntax newer than
    Python 3.10, or is not known at import, as ``module:line reason``."""
    faults = []
    for where, pattern in pattern_calls(src):
        if isinstance(pattern, NameError):
            faults.append(f"{where} pattern not known at import")
        elif found := newer_constructs(pattern):
            faults.append(f"{where} {', '.join(sorted(found))}")
    return faults


def test_sesame_patterns_read_on_python_3_10():
    assert newer_syntax() == []
    modules = {where.partition(":")[0] for where, _ in pattern_calls()}
    assert modules == {"javaparse.py", "lexer.py", "textdiff.py", "treemerge.py"}


@pytest.mark.skipif(sys.version_info < (3, 11), reason="3.10 cannot compile the probe")
def test_newer_regex_syntax_is_reported(tmp_path, monkeypatch):
    package = tmp_path / "regex_syntax_probe"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "m.py").write_text(
        "import re\n"
        "PLAIN = re.compile(rb'(?:a|b)*c(?=d)')\n"
        "POSSESSIVE = re.compile(rb'a*+b')\n"
        "ATOMIC = re.compile('(?>a|ab)c', re.IGNORECASE)\n"
        "BOTH = re.compile(flags=0, pattern=rb'(x(?:y(?>z)|w{2,}+))')\n"
        "WORDS = [w for w in ('a', 'b') if re.fullmatch('[a-z]?+', w)]\n"
        "def f(s, p):\n"
        "    return PLAIN.match(s) or re.search(p + b'x', s)\n"
    )
    monkeypatch.syspath_prepend(str(tmp_path))
    try:
        assert newer_syntax(package) == [
            "m.py:3 possessive repeat",
            "m.py:4 atomic group",
            "m.py:5 atomic group, possessive repeat",
            "m.py:6 possessive repeat",
            "m.py:8 pattern not known at import",
        ]
    finally:
        for name in [n for n in sys.modules if n.partition(".")[0] == package.name]:
            del sys.modules[name]
