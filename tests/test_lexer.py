"""Lexer: the code view against the per-byte scan it replaced, and the
token pattern against the per-byte alternation it replaced."""

import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sesame.lexer import TOKEN, lex_states

FIXTURES = Path(__file__).parent / "fixtures"

# the states of the reference scanner, one per byte
CODE, STRING, CHAR, LINE_COMMENT, BLOCK_COMMENT = range(5)

_QUOTE = ord('"')
_APOS = ord("'")
_BACKSLASH = ord("\\")
_SLASH = ord("/")
_STAR = ord("*")
_NL = ord("\n")


def reference_lex_states(data: bytes) -> bytes:
    """The original byte-at-a-time scanner, kept as the specification."""
    n = len(data)
    out = bytearray(n)
    i = 0
    while i < n:
        c = data[i]
        if data.startswith(b'"""', i):
            # a text block: it may span lines, and runs to EOF unclosed
            out[i:i + 3] = bytes((STRING,)) * 3
            i += 3
            while i < n:
                if data[i] == _BACKSLASH and i + 1 < n:
                    out[i:i + 2] = bytes((STRING,)) * 2
                    i += 2
                elif data.startswith(b'"""', i):
                    out[i:i + 3] = bytes((STRING,)) * 3
                    i += 3
                    break
                else:
                    out[i] = STRING
                    i += 1
            continue
        if c == _QUOTE or c == _APOS:
            state = STRING if c == _QUOTE else CHAR
            quote = c
            out[i] = state
            i += 1
            while i < n:
                c2 = data[i]
                if c2 == _BACKSLASH and i + 1 < n:
                    out[i] = state
                    out[i + 1] = state
                    i += 2
                    continue
                if c2 == _NL:
                    # unterminated literal: the terminator is ordinary code
                    break
                out[i] = state
                i += 1
                if c2 == quote:
                    break
            continue
        if c == _SLASH and i + 1 < n and data[i + 1] == _SLASH:
            while i < n and data[i] != _NL:
                out[i] = LINE_COMMENT
                i += 1
            continue
        if c == _SLASH and i + 1 < n and data[i + 1] == _STAR:
            out[i] = BLOCK_COMMENT
            out[i + 1] = BLOCK_COMMENT
            i += 2
            while i < n:
                if data[i] == _STAR and i + 1 < n and data[i + 1] == _SLASH:
                    out[i] = BLOCK_COMMENT
                    out[i + 1] = BLOCK_COMMENT
                    i += 2
                    break
                out[i] = BLOCK_COMMENT
                i += 1
            continue
        out[i] = CODE
        i += 1
    return bytes(out)


def reference_view(data: bytes) -> bytes:
    """Per byte, from ``reference_lex_states``: a code byte kept, a literal
    byte NUL and a comment byte blank."""
    fill = {STRING: 0, CHAR: 0, LINE_COMMENT: ord(" "), BLOCK_COMMENT: ord(" ")}
    states = reference_lex_states(data)
    return bytes(fill.get(state, c) for c, state in zip(data, states))


# quotes, escapes, comment openers and closers, LF, and a little code
lexer_bytes = st.lists(
    st.sampled_from(list(b"\"'\\/*\n {}();abxy")), max_size=200
).map(bytes)


@settings(max_examples=1500, deadline=None)
@given(lexer_bytes)
def test_lex_states_matches_reference(data):
    assert lex_states(data) == reference_view(data)


def test_lex_states_matches_reference_on_corpus():
    paths = sorted((FIXTURES / "java_corpus").glob("*.java"))
    paths += sorted((FIXTURES / "java_corpus_bad").glob("*.java"))
    assert paths
    for path in paths:
        data = path.read_bytes()
        assert lex_states(data) == reference_view(data), path.name


@pytest.mark.parametrize(
    "data,expected",
    [
        (b'"a\nb', b"\x01\x01\x00\x00"),  # a literal stops before an LF
        (b'"\\\n"', b"\x01\x01\x01\x01"),  # an escaped LF stays in the literal
        (b"'\\", b"\x02\x02"),  # a lone backslash at EOF belongs to it
        (b"/*/x", b"\x04\x04\x04\x04"),  # '/*/' does not close the comment
        (b"/**/x", b"\x04\x04\x04\x04\x00"),
        (b"a//b\nc", b"\x00\x03\x03\x03\x00\x00"),
        (b'""x', b"\x01\x01\x00"),  # an empty string is no text block
        (b'"""\n"\n"""x', b"\x01" * 9 + b"\x00"),  # a text block spans lines
        (b'"""\\""""x', b"\x01" * 8 + b"\x00"),  # an escaped quote does not close it
        (b'""""x', b"\x01" * 5),  # unclosed, it runs to the end of the input
    ],
)
def test_lex_states_quirks(data, expected):
    assert reference_lex_states(data) == expected
    assert lex_states(data) == reference_view(data)


def test_a_text_block_masks_its_lines_in_the_view():
    data = b'String s = """\n  a { b; "c" } \\"""\n  """;\nint x;'
    view = lex_states(data)
    assert view == data[:11] + b"\0" * (len(data) - 11 - 8) + b";\nint x;"
    assert view == reference_view(data)


def test_code_view_masks_runs_by_kind():
    data = b'x = "s" /* c */ // d\n\'q\';'
    view = lex_states(data)
    assert view == b'x = \0\0\0 ' + b" " * 7 + b" " * 5 + b"\n\0\0\0;"
    assert view == reference_view(data)


@pytest.mark.parametrize(
    "data,view",
    [
        (b'"s"//c', b"\0\0\0   "),
        (b"'c'/*d*/x", b"\0\0\0     x"),
        (b'"s/*"*/', b"\0\0\0\0\0*/"),  # a comment opener inside a literal
        (b'//"s"\n"t"', b"     \n\0\0\0"),
    ],
)
def test_a_literal_next_to_a_comment_keeps_both_fills(data, view):
    assert lex_states(data) == reference_view(data) == view


# The token pattern in its per-byte form: each byte of a literal body is
# one pass of an alternation, and a block comment's body a lazy repeat.
# ``TOKEN`` matches the same bodies as runs and must split alike.
REFERENCE_TOKEN = re.compile(
    rb'("""(?:[^"\\]|\\[\s\S]?|"(?!""))*(?:"""|\Z)'
    rb'|"(?:[^"\\\n]|\\[\s\S]?)*"?'
    rb"|'(?:[^'\\\n]|\\[\s\S]?)*'?"
    rb"|//[^\n]*"
    rb"|/\*[\s\S]*?(?:\*/|\Z))"
)

# units that open, close or extend a token's body, weighted towards text
# block quotes, escapes and runs of '*'; the tail leaves a literal or a
# comment open at the end of the input
TOKEN_UNITS = [
    b'"""', b'"""', b'""', b'"', b"'", b"\\", b"\\\\", b"\\\\\\", b"*", b"**", b"***",
    b"/*", b"*/", b"/*/", b"/**/", b"//", b"/", b"\n", b"\r\n", b" ", b"a", b"{", b";",
]
TOKEN_TAILS = [b"", b'"""', b'"', b"'", b"\\", b"/*", b"/**", b"/*/", b"//", b'"""\\']
token_texts = st.builds(
    lambda units, tail: b"".join(units) + tail,
    st.lists(st.sampled_from(TOKEN_UNITS), max_size=40),
    st.sampled_from(TOKEN_TAILS),
)


@settings(max_examples=2000, deadline=None)
@given(token_texts)
def test_token_splits_as_the_per_byte_alternation(data):
    assert TOKEN.split(data) == REFERENCE_TOKEN.split(data)


def test_token_splits_every_fixture_as_the_per_byte_alternation():
    paths = sorted(FIXTURES.rglob("*.java"))
    kinds = {path.relative_to(FIXTURES).parts[0] for path in paths}
    assert {"java_corpus", "java_corpus_bad", "golden"} <= kinds
    for path in paths:
        data = path.read_bytes()
        assert TOKEN.split(data) == REFERENCE_TOKEN.split(data), path


@pytest.mark.parametrize(
    "data",
    [
        b'x = """' + b'a "b" ""c\\"""\\\\\n' * 3200,  # an unclosed text block
        b"/*" + b"** a / b *\n/ *** / c\n" * 2500,  # an unclosed block comment
        b"/*" + b"** a / b *\n*/ x /* c **" * 2200,  # comments, the last unclosed
        b"/*" + b"*" * 50_000,  # a comment that ends in a run of '*'
        b'"' + b"a\\\"b\\\\c\\\n" * 5600,  # an unclosed string of escapes
        b"'" + b"\\'" * 25_000,  # a character literal of escaped quotes
    ],
)
def test_token_splits_long_bodies_as_the_per_byte_alternation(data):
    assert len(data) >= 50_000
    assert TOKEN.split(data) == REFERENCE_TOKEN.split(data)
