"""Lexical context scanning for Java-like sources.

Classifies every byte of a source buffer as plain code, string literal,
character literal, line comment, or block comment.  Downstream passes use
this to ignore separator characters and braces that appear inside literals
or comments.  String and character literals end at an unescaped closing
quote or at a line terminator (Java literals cannot span lines), so one
stray quote never swallows the rest of the file.
"""

from __future__ import annotations

CODE = 0
STRING = 1
CHAR = 2
LINE_COMMENT = 3
BLOCK_COMMENT = 4

_QUOTE = ord('"')
_APOS = ord("'")
_BACKSLASH = ord("\\")
_SLASH = ord("/")
_STAR = ord("*")
_NL = ord("\n")


def lex_states(data: bytes) -> bytes:
    """Return one state byte (CODE, STRING, ...) per input byte."""
    n = len(data)
    out = bytearray(n)
    i = 0
    while i < n:
        c = data[i]
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

