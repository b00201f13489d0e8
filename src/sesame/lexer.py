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

Each body is matched as runs ("unrolling the loop", Friedl, *Mastering
Regular Expressions*): a run of plain bytes, then, any number of times, a
byte that could end the token but does not, with the run after it.  Each
token ends where a per-byte alternation ends it, which the tests keep as
the reference:
- A string or character literal's plain bytes are all but its quote, a
  backslash and LF.  The loop takes a backslash with the byte it escapes,
  so the literal ends at the first quote that no backslash escapes, or
  stops before the first LF that none escapes.
- A text block's plain bytes are all but '"' and a backslash.  The loop
  takes an escape, or a '"' that two more do not follow, so the block
  ends at the first three quotes that no backslash escapes.
- A block comment's plain bytes are all but '*'.  The loop takes a run of
  '*' and then a byte other than '*' or '/', so the comment ends at the
  first ``*/`` after its opener; the opener's '*' is not read again, so
  ``/*/`` does not close it.
``\\Z`` still closes an unclosed text block or block comment (its
trailing '*' included) at the end of the input, as an optional closing
quote lets a string or character literal stop there.

The match is linear in the input.  Every repeat begins with a byte that
the run before it excludes, so a run stops exactly where the next repeat
or the token's end begins, and each body matches in one way.  Only a run
of '*' is read more than once, a fixed number of times, where it closes
the comment or ends the input.  The pattern needs no possessive repeat or
atomic group, which Python 3.10 lacks.

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

# one group, around the whole alternation, so that ``split`` keeps each
# token; each body is matched as runs (see the module docstring)
TOKEN = re.compile(
    rb'("""[^"\\]*(?:(?:\\[\s\S]?|"(?!""))[^"\\]*)*(?:"""|\Z)'
    rb'|"[^"\\\n]*(?:\\[\s\S]?[^"\\\n]*)*"?'
    rb"|'[^'\\\n]*(?:\\[\s\S]?[^'\\\n]*)*'?"
    rb"|//[^\n]*"
    rb"|/\*[^*]*(?:\*+[^*/][^*]*)*(?:\*+/|\**\Z))"
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
