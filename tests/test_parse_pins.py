"""Pinned parser behaviour: corpus trees and seeded byte mutations.

``fixtures/parse_pins.json`` records, for every file of ``java_corpus``,
the full declaration tree (kind, identifier and the lengths of header and
body text at every node), and for a fixed set of byte mutations of each
file either a digest of the resulting tree or the ``ParseError`` class and
message.  The mutations are stored in the fixture, so the check does not
depend on a random generator.  The fixture was written by the parser
before its scanning moved from per-byte loops to ``re`` and ``find``
scans; any change in how the parser reads bytes shows up here.

It was regenerated once since, when method keys came to be read from the
code view in one pass: before, a key was built from the bytes with the
comments cut out, so words on both sides of a comment, a literal or a
stray '>' were glued into one, and a bodyless method's name was the word
just before '(' in the raw bytes, even inside a comment.  Every unmutated
outcome stayed the same; three mutation outcomes changed, each a header
that is not valid Java:

* GenBuilder85.java, '>' inserted, ``append(String par>t)``:
  ``append(String)`` became ``append(Stringpar)``;
* GenRepository50.java, ',' inserted, ``new java.util.H,ashMap<>();``
  (no longer a field): ``()`` became ``ashMap()``;
* Operation.java, '*' inserted, ``int apply*(int x, int y);``:
  ``(int,int)`` became ``apply(int,int)``.

Regenerate (only when a parser change is meant to alter results):

    PYTHONPATH=src python tests/test_parse_pins.py
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

from sesame.javaparse import ParseError, parse_units

FIXTURES = Path(__file__).parent / "fixtures"
PINS = FIXTURES / "parse_pins.json"
MUTATIONS_PER_FILE = 10

# byte strings the mutations insert: lexer and parser punctuation first
_INSERTS = (
    '"', "'", "\\", "/", "*", "/*", "*/", "//", "\n", " ", "{", "}", "(",
    ")", ";", ",", "=", "<", ">", "@", ".", "-", "x", "class ", "enum ",
    "interface ", "static ", '"\\', "'\\'", "/*/",
)


def tree_of(node) -> list:
    return [
        node.kind,
        node.identifier,
        len(node.header_text),
        len(node.body_text),
        [tree_of(c) for c in node.children],
    ]


def outcome(data: bytes) -> dict:
    try:
        tree = parse_units(data)
    except ParseError as exc:
        return {"error": [type(exc).__name__, str(exc)]}
    return {"tree": tree_of(tree)}


def digest(result: dict) -> str:
    if "error" in result:
        return "error:" + ":".join(result["error"])
    blob = json.dumps(result["tree"], separators=(",", ":")).encode()
    return "tree:" + hashlib.sha256(blob).hexdigest()[:16]


def apply(data: bytes, mutation: list) -> bytes:
    pos, ndel, ins = mutation
    return data[:pos] + ins.encode("latin-1") + data[pos + ndel:]


def _mutations(rng: random.Random, size: int) -> list[list]:
    out = []
    for _ in range(MUTATIONS_PER_FILE):
        pos = rng.randrange(size + 1)
        ndel = rng.choice((0, 0, 1, 2)) if pos < size else 0
        ins = rng.choice(_INSERTS) if ndel == 0 or rng.random() < 0.5 else ""
        out.append([pos, min(ndel, size - pos), ins])
    return out


def build_pins() -> dict:
    rng = random.Random(20240725)
    files = {}
    for path in sorted((FIXTURES / "java_corpus").glob("*.java")):
        data = path.read_bytes()
        muts = _mutations(rng, len(data))
        files[path.name] = {
            "outcome": outcome(data),
            "mutations": [m + [digest(outcome(apply(data, m)))] for m in muts],
        }
    return files


def write_pins(files: dict) -> None:
    """One corpus file per line, so a changed pin reads as a one-line diff."""
    lines = [
        f"{json.dumps(name)}: {json.dumps(entry, separators=(',', ':'))}"
        for name, entry in sorted(files.items())
    ]
    PINS.write_text("{\n" + ",\n".join(lines) + "\n}\n")


def test_parser_reproduces_pins():
    pins = json.loads(PINS.read_text())
    paths = sorted((FIXTURES / "java_corpus").glob("*.java"))
    assert sorted(pins) == [p.name for p in paths]
    diffs = []
    for path in paths:
        data = path.read_bytes()
        pinned = pins[path.name]
        if outcome(data) != pinned["outcome"]:
            diffs.append((path.name, "unmutated"))
        for *mutation, expected in pinned["mutations"]:
            got = digest(outcome(apply(data, mutation)))
            if got != expected:
                diffs.append((path.name, mutation, expected, got))
    assert not diffs


if __name__ == "__main__":
    write_pins(build_pins())
