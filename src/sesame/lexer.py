"""Lexical context scanning for Java-like sources.

Classifies every byte of a source buffer as plain code, string literal,
character literal, line comment, or block comment.  Downstream passes use
this to ignore separator characters and braces that appear inside literals
or comments.

One compiled alternation finds every literal and comment in a single left
to right scan; the bytes between matches are code.  The scan yields two
results at once: the state bytes, and a code view, a copy of the input in
which every literal byte reads as NUL and every comment byte as a blank,
so that a search of the view finds only code, and a run of whitespace in
it spans comments too.  String and character literals end at an unescaped
closing quote or just before a line feed (such Java literals cannot span
lines), so one stray quote never swallows the rest of the file.  A text
block, from three double quotes to the next three that no backslash
escapes, is one string literal that may span lines; like a block comment,
it runs to the end of the input if it is not closed.  A backslash escapes
the byte after it, a line feed included, and a backslash at the end of
the input still belongs to its literal.  A block comment closes at the
first ``*/`` after its opening ``/*`` (so ``/*/`` does not close it) or
runs to the end of the input.

Lexing can restart right after a code byte other than '/'.  No token
covers that byte, and no token can start on it and run into the bytes
after it, so every token before it ends inside what precedes it and is
found the same whatever follows.  The whole input's states are therefore
those of the text up to the byte, lexed on its own, followed by those of
the rest lexed on its own.  A '/' does not qualify: a '/' or '*' after it
makes it the start of a comment.
"""

from __future__ import annotations

import re
from collections.abc import Iterator

CODE = 0
STRING = 1
CHAR = 2
LINE_COMMENT = 3
BLOCK_COMMENT = 4

# no capture groups: with them ``re`` loses its scan for the first byte
_TOKEN = re.compile(
    rb'"""(?:[^"\\]|\\[\s\S]?|"(?!""))*(?:"""|\Z)'
    rb'|"(?:[^"\\\n]|\\[\s\S]?)*"?'
    rb"|'(?:[^'\\\n]|\\[\s\S]?)*'?"
    rb"|//[^\n]*"
    rb"|/\*[\s\S]*?(?:\*/|\Z)"
)
_QUOTE, _SLASH, _STAR = b'"/*'
_STRING, _CHAR, _LINE, _BLOCK = (
    bytes((state,)) for state in (STRING, CHAR, LINE_COMMENT, BLOCK_COMMENT)
)
# a translation table indexed by state
_NON_CODE = bytes((0,)) + bytes((1,)) * 255


def lex_states(data: bytes) -> tuple[bytes, bytearray]:
    """One state byte (CODE, STRING, ...) per input byte, and the code view."""
    states = bytearray(len(data))
    view = bytearray(data)
    for m in _TOKEN.finditer(data):
        start, end = m.span()
        size = end - start
        first = data[start]
        if first == _SLASH:  # a comment token is at least two bytes long
            state = _BLOCK if data[start + 1] == _STAR else _LINE
            fill = b" "
        else:
            state = _STRING if first == _QUOTE else _CHAR
            fill = b"\0"
        states[start:end] = state * size
        view[start:end] = fill * size
    return bytes(states), view


def non_code_spans(states: bytes) -> Iterator[tuple[int, int]]:
    """(start, end) of each maximal run of literal and comment bytes."""
    flags = states.translate(_NON_CODE)
    start = flags.find(1)
    while start >= 0:
        end = flags.find(0, start)
        if end < 0:
            end = len(flags)
        yield start, end
        start = flags.find(1, end)
