"""Merge laws that every engine keeps, on any input.

A merge never raises; a structured engine that cannot parse falls back
with a reason.  When left equals base the output is right, when right
equals base or left equals right the output is left, and each of these
merges has no conflict.  When no input holds a marker, the markers in
the output count as many conflicts as the engine reports.  A marker
anywhere in an input counts: a structured merge can start a conflict side
mid-line, and the side then starts a line of the output.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from sesame.driver import DriverConfig, EngineMode, run_engine
from sesame.textmerge import count_conflicts
from test_javaparse import CORPUS_FILES, _sweep_version

# Java punctuation, comment and literal openers, keywords, whole
# declarations, a byte order mark, CRLF and marker-like line starts
_TOKENS = (
    b"{", b"}", b"(", b")", b";", b",", b"=", b"<", b">", b"@", b".", b" ",
    b"\n", b"\r\n", b"\t", b"/*", b"*/", b"//", b'"', b"'", b"\\", b'"""',
    b"$", b"\xef\xbb\xbf", b"x", b"A", b"class ", b"record ", b"enum ",
    b"interface ", b"static ", b"int ", b"void ", b"package p;",
    b"import a.b;", b"int x;", b"void f() {}", b"record R(int x) {}",
    b"class B { int y; }", b"<<<<<<< ", b">>>>>>> ", b"=======",
)
_RELATIONS = ("left=base", "right=base", "left=right", "apart")
_MARKERS = (b"<<<<<<<", b">>>>>>>")


def _versions(relation: str, base: bytes, edit) -> tuple[bytes, bytes, bytes]:
    """(base, left, right) with the sides made by ``edit`` from base, and
    equal to it or to each other as ``relation`` says."""
    if relation == "left=base":
        return base, base, edit(base)
    if relation == "right=base":
        return base, edit(base), base
    if relation == "left=right":
        side = edit(base)
        return base, side, side
    return base, edit(base), edit(base)


_token_text = st.lists(st.sampled_from(_TOKENS), max_size=20).map(b"".join)


@st.composite
def token_triples(draw):
    def edit(text: bytes) -> bytes:
        for _ in range(draw(st.integers(1, 3))):
            a = draw(st.integers(0, len(text)))
            b = draw(st.integers(a, min(len(text), a + 12)))
            text = text[:a] + draw(_token_text) + text[b:]
        return text

    return _versions(draw(st.sampled_from(_RELATIONS)), draw(_token_text), edit)


@st.composite
def corpus_triples(draw):
    rng = draw(st.randoms(use_true_random=False))

    def edit(text: bytes) -> bytes:
        if rng.random() < 0.5:  # declarations moved, copied, wrapped or put
            return _sweep_version(rng, text)
        a = rng.randrange(len(text) + 1)
        b = min(len(text), a + rng.randrange(3))
        return text[:a] + b"".join(rng.choices(_TOKENS, k=rng.randrange(1, 4))) + text[b:]

    base = draw(st.sampled_from(CORPUS_FILES)).read_bytes()
    if rng.random() < 0.3:
        base = edit(base)
    return _versions(draw(st.sampled_from(_RELATIONS)), base, edit)


def assert_merge_laws(base: bytes, left: bytes, right: bytes) -> None:
    marked = any(m in t for m in _MARKERS for t in (base, left, right))
    for mode in EngineMode:
        result = run_engine(base, left, right, DriverConfig(mode=mode))
        assert not result.fell_back or result.fallback_reason, mode
        if left == base:
            assert (result.output, result.conflicts) == (right, 0), mode
        elif right == base or left == right:
            assert (result.output, result.conflicts) == (left, 0), mode
        if not marked:
            assert count_conflicts(result.output) == result.conflicts, mode


_BASE = b"import x.Y;\nclass A {\n}\n"


# the right version appends a package and an import after the type; a
# parse that took them would move the import into the import block
@example((_BASE, _BASE, _BASE + b"package p;import a.b;\n"))
@settings(max_examples=400, deadline=None)
@given(token_triples())
def test_merge_laws_on_token_triples(triple):
    assert_merge_laws(*triple)


@settings(max_examples=300, deadline=None)
@given(corpus_triples())
def test_merge_laws_on_corpus_mutations(triple):
    assert_merge_laws(*triple)

