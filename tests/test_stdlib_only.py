"""``src/sesame`` depends on nothing outside the standard library.

Every import in the package is relative (``from .textmerge import ...``)
or names a top-level module in ``sys.stdlib_module_names``.  The check is
static: it reads each module's syntax tree, so an import behind a branch
or inside a function counts as well.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "sesame"


def foreign_imports(src: Path = SRC) -> list[str]:
    """Each import in ``src`` that is neither relative nor of the standard
    library, as ``module:line name``."""
    foreign = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [
                f"{path.name}:{node.lineno} {name}"
                for name in names
                if name.partition(".")[0] not in sys.stdlib_module_names
            ]
    return foreign


def test_sesame_imports_only_the_standard_library():
    assert foreign_imports() == []


def test_a_foreign_import_is_reported(tmp_path):
    (tmp_path / "m.py").write_text(
        "from __future__ import annotations\n"
        "import os.path, hypothesis\n"
        "from . import sibling\n"
        "from .sibling import name\n"
        "from xml.etree import ElementTree\n"
        "def f():\n    from numpy.linalg import norm\n    return norm\n"
    )
    assert foreign_imports(tmp_path) == ["m.py:2 hypothesis", "m.py:7 numpy.linalg"]
