"""Every engine's merges, pinned by one digest.

The digest covers the output, conflict count and fallback reason of
``run_engine`` on the goldens and on seeded line edits of both corpora,
in all three modes, with plain and diff3-style markers.  Speed work on
the merge path must keep it; a change that means to alter merges
updates ``PINNED`` and says which merges changed and why.
"""

import hashlib
import random
from pathlib import Path

from sesame.driver import DriverConfig, EngineMode, run_engine

FIXTURES = Path(__file__).parent / "fixtures"
PINNED = "7c557ef405d231357d2f373f0f6a5465bd0f3f329c2900d9963a1b452902ae30"

_NEW_LINES = (
    b"        total = f(total, 1);",
    b"    int added;",
    b"    void added() { g(); }",
    b"        if (a) { b(c); }",
    b"    // note (a; b)",
    b'        s = "x{";',
    b"    }",
)
# mostly tokens that keep a file parseable, so most merges are structured
_TOKENS = (b"x", b"x", b"1", b" ", b"$", b"$$$$$$$$", b"(y)", b";")
_RISKY_TOKENS = (b"(", b")", b"{", b"}", b'"', b"//", b"/*", b"*/", b"'")


def _edit(rng: random.Random, data: bytes, count: int) -> bytes:
    lines = data.split(b"\n")
    for _ in range(count):
        # edits go to indented lines, inside a type, or else anywhere
        inside = [i for i, line in enumerate(lines) if line.startswith((b"  ", b"\t"))]
        k = rng.choice(inside) if inside else rng.randrange(len(lines))
        op = rng.randrange(20)
        if op < 2:
            del lines[k]
        elif op < 3:
            lines.insert(k, lines[k])
        elif op < 8:
            lines.insert(k, rng.choice(_NEW_LINES))
        else:
            tokens = _RISKY_TOKENS if op < 10 else _TOKENS
            col = rng.randrange(len(lines[k]) + 1)
            lines[k] = lines[k][:col] + rng.choice(tokens) + lines[k][col:]
        if not lines:
            lines = [b""]
    return b"\n".join(lines)


def _triples():
    for golden in sorted((FIXTURES / "golden").iterdir()):
        yield golden.name, [
            (golden / f"{role}.java").read_bytes() for role in ("base", "left", "right")
        ]
    rng = random.Random(20261018)
    corpus = sorted((FIXTURES / "java_corpus").glob("*.java"))
    corpus += sorted((FIXTURES / "java_corpus_bad").glob("*.java"))
    for path in corpus:
        base = path.read_bytes()
        for k in range(6):
            left = _edit(rng, base, rng.randint(1, 3))
            right = left if k == 5 else _edit(rng, base, rng.randint(1, 3))
            yield f"{path.name}#{k}", [base, left, right]


def merge_digest() -> str:
    styles = ((("left", "base", "right"), False), (("mine", "", "theirs"), True))
    configs = [
        DriverConfig(mode=mode, labels=labels, base_marker=diff3)
        for mode in EngineMode
        for labels, diff3 in styles
    ]
    digest = hashlib.sha256()
    for name, (base, left, right) in _triples():
        for config in configs:
            result = run_engine(base, left, right, config)
            record = (name, config.mode.value, config.base_marker, result.output,
                      result.conflicts, result.fell_back, result.fallback_reason)
            digest.update(repr(record).encode())
    return digest.hexdigest()


def test_merges_match_the_pinned_digest():
    assert merge_digest() == PINNED
