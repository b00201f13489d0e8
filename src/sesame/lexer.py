"""Lexical context scanning for Java-like sources.

Tells plain code from string literals, character literals and comments,
so that downstream passes ignore separator characters and braces that
appear inside literals or comments.

One compiled alternation, ``TOKEN``, matches each literal and comment;
``TOKEN.split`` cuts a source in one left to right scan into code, at the
even indexes (maybe empty), and the literal or comment after each piece
of code, at the odd ones.  The lexer's one output is the code view, a
copy of the input in which every literal byte reads as NUL and every
comment byte as a blank, so that a search of the view finds only code,
and a run of whitespace in it spans comments too.  String and character
literals end at an unescaped closing quote or just before a line feed
(such Java literals cannot span lines), so one stray quote never swallows
the rest of the file.  A text block, from three double quotes to the next
three that no backslash escapes, is one string literal that may span
lines; like a block comment, it runs to the end of the input if it is not
closed.  A backslash escapes the byte after it, a line feed included, and
a backslash at the end of the input still belongs to its literal.  A block
comment closes at the first ``*/`` after its opening ``/*`` (so ``/*/``
does not close it) or runs to the end of the input.

Lexing can restart right after a code byte other than '/'.  No token
covers that byte, and no token can start on it and run into the bytes
after it, so every token before it ends inside what precedes it and is
found the same whatever follows.  The whole input's view is therefore the
view of the text up to the byte, lexed on its own, followed by that of
the rest lexed on its own.  A '/' does not qualify: a '/' or '*' after it
makes it the start of a comment.  In the view, such a byte reads as
itself and is no blank, NUL or '/': a literal byte can read as itself
only if it is a NUL, and a comment byte only if it is a blank.
"""

from __future__ import annotations

import re

# one group, around the whole alternation, so that ``split`` keeps each token
TOKEN = re.compile(
    rb'("""(?:[^"\\]|\\[\s\S]?|"(?!""))*(?:"""|\Z)'
    rb'|"(?:[^"\\\n]|\\[\s\S]?)*"?'
    rb"|'(?:[^'\\\n]|\\[\s\S]?)*'?"
    rb"|//[^\n]*"
    rb"|/\*[\s\S]*?(?:\*/|\Z))"
)
_SLASH = ord("/")


def lex_states(data: bytes) -> bytes:
    """The code view of ``data``: each comment byte a blank, each literal
    byte NUL, and each code byte itself."""
    parts = TOKEN.split(data)
    for i in range(1, len(parts), 2):
        token = parts[i]
        parts[i] = (b" " if token[0] == _SLASH else b"\0") * len(token)
    return b"".join(parts)
