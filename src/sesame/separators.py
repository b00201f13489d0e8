"""Separator-enhanced preprocessing for textual merging.

The idea: before handing body text to the line merger, isolate every
language-specific separator (``{ } ( ) ;`` for Java) onto its own line so
that text between separators forms its own match unit.  ``mark`` cuts a
body text into LF-led pieces (see ``textmerge``): a piece that an LF of
the text starts is led by that LF, and a piece that a separator starts
or ends is not.  The pieces are the text's own bytes, so two of them are
equal exactly when their contents and their kinds are, and ``merge3``
takes every region of the merge as the text of a run of them: nothing
has to be turned back into the original bytes afterwards.

Separators inside string literals, character literals, and comments are
never split: ``mark`` cuts its text at them with the lexer's ``TOKEN``
(see ``lexer``).  A declaration that the parse gives the merge starts
right after a code '{', '}', ';' or ',' and ends on a code byte, so its
text alone holds the literals and comments that the parse saw in it.

A long body is merged by lines first.  Marking a whole body and diffing
all of its pieces costs more than linear time on long bodies: most of
the work re-finds lines that a line diff matches anyway, and where the
sides hold different numbers of a shared piece, such as ``}`` or ``;``,
the alignment is not unique and its search grows quadratically.  So when
one of the three texts has more than ``LINE_FIRST_BOUND`` LFs and each LF
is code, ``merge_body`` merges the lines in one diff3 walk, and ``merge3``
marks and merges, within that walk, only the line gaps where all three
sides differ.  This departs from the paper, which marks the whole body,
but only for bodies above the bound: every other body is marked whole.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lexer import TOKEN
from .textmerge import MergeOutcome, Pieces, lf_led, merge3, split_lines

DEFAULT_SEPARATOR_CHARS = ("{", "}", "(", ")", ";")
PLACEHOLDER_CHAR = b"$"
# ``mark``'s cut and stand-in are one byte longer than the placeholder.
# CPython finds a needle of under six bytes with a plain search, but a
# longer one in a text over 30000 bytes with a Two-Way search that is set
# up again for each occurrence: splitting a 146 KB body into its 28012
# pieces takes 3.0 ms at a cut of eight '$' and 1.1 ms at four (CPython
# 3.11, 2-vCPU x86-64 VM, best of 7).
_BASE_PLACEHOLDER_LEN = 4
# A body with more LFs than this in any of its three texts is merged by
# lines first (see ``merge_body``).
LINE_FIRST_BOUND = 256


@dataclass(frozen=True)
class SeparatorSet:
    """Ordered, distinct single-character separators."""

    separators: tuple[str, ...] = DEFAULT_SEPARATOR_CHARS

    def __post_init__(self) -> None:
        if not self.separators:
            raise ValueError("separator set must not be empty")
        seen = set()
        for s in self.separators:
            if len(s) != 1:
                raise ValueError(f"separator must be a single character: {s!r}")
            if not s.isascii():
                # separators are matched against bytes, one byte each
                raise ValueError(f"separator must be an ASCII character: {s!r}")
            if s in ("\n", "\r"):
                raise ValueError("line terminators cannot be separators")
            if s == "$":
                raise ValueError("the stand-in character cannot be a separator")
            if s in seen:
                raise ValueError(f"duplicate separator: {s!r}")
            seen.add(s)

    @classmethod
    def from_spec(cls, spec: str) -> "SeparatorSet":
        """Parse a comma-separated list like ``"{,},(,),;"``."""
        return cls(tuple(spec.split(",")))


def pick_placeholder(texts: list[bytes]) -> bytes:
    """Shortest ``$`` run (doubling from 4) absent from every input."""
    ph = PLACEHOLDER_CHAR * _BASE_PLACEHOLDER_LEN
    while any(ph in t for t in texts):
        ph += ph
    return ph


def mark(text: bytes, seps: SeparatorSet | None = None) -> Pieces:
    """Cut ``text`` into LF-led pieces, each code separator a piece alone.

    A piece is cut before each LF and led by it, the first as if an LF
    came before the text (see ``textmerge.split_lines``).  Text following
    a separator on the same line continues in a fresh piece, so
    consecutive separators yield consecutive one-byte pieces.
    """
    seps = seps or SeparatorSet()
    ph = pick_placeholder([text])
    # A cut and the stand-in are a CR or an LF and then the placeholder:
    # no separator is among their bytes, and as the placeholder is not in
    # the text, neither is found anywhere but where it was put.  Each
    # literal or comment is swapped for the stand-in, so only code
    # separators are cut around, and a literal or comment after a
    # separator still starts a piece.
    cut = b"\r" + ph
    stand_in = b"\n" + ph
    parts = TOKEN.split(text)  # code at even indexes, literals and comments at odd
    parts[0] = b"\n" + parts[0]  # the first piece is led by an LF too
    marked = stand_in.join(parts[::2])
    for sep in seps.separators:
        sep = sep.encode()
        marked = marked.replace(sep, cut + sep + cut)
    parts[::2] = marked.split(stand_in)
    # An LF starts a piece.  Two cuts in a row (a separator before an LF or
    # another separator), the first LF's cut and a cut that ends the text
    # leave an empty piece, and no piece of the text is empty.
    pieces = b"".join(parts).replace(b"\n", cut + b"\n").split(cut)
    return lf_led(list(filter(None, pieces)))


def _lfs_are_code(text: bytes) -> bool:
    """Whether ``text`` holds no ``/*``, three double quotes or backslash
    before an LF: a cheap test that passes a text only if each of its LFs
    is code, as only a block comment, a text block or an escaped LF lets a
    ``lexer.TOKEN`` match run across one."""
    return not any(token in text for token in (b"/*", b'"""', b"\\\n"))


def merge_body(
    base: bytes,
    left: bytes,
    right: bytes,
    seps: SeparatorSet | None = None,
) -> MergeOutcome:
    """Merge three body texts through the separator preprocessing.

    A body in which a text has more than ``LINE_FIRST_BOUND`` LFs, and no
    text holds a block comment's opener, a text block's three quotes or a
    backslash before an LF, is merged by lines first, in one ``merge3``
    walk: each line gap that diff3's rule resolves stays as it is, and
    only a gap where the three sides differ has its sides marked, as the
    walk's ``cut``, and merged in the same walk.  The guard leaves only
    code LFs, so no gap's edge falls inside a token, and a side marks as it
    would inside the whole text.  Marking a whole long body costs more than
    linear time; this departure from the paper's whole-body marking is made
    only above the bound.  Any other body is marked and merged whole.
    """
    texts = (base, left, right)
    long = max(t.count(b"\n") for t in texts) > LINE_FIRST_BOUND
    if not (long and all(map(_lfs_are_code, texts))):
        return merge3(mark(base, seps), mark(left, seps), mark(right, seps))
    return merge3(*map(split_lines, texts), cut=lambda text: mark(text, seps))
