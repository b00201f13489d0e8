"""Separator-enhanced preprocessing for textual merging.

The idea: before handing body text to the line merger, isolate every
language-specific separator (``{ } ( ) ;`` for Java) onto its own line so
that text between separators forms its own match unit.  Lines created this
way are prefixed with a placeholder run of ``$`` characters.  One
projection, ``unmark``, removes exactly the inserted line breaks and
prefixes from a marked text; it recovers the original bytes, and
``merge_body`` applies it to the text of each run of resolved regions and
of each conflict side of the merged outcome.

Separators inside string literals, character literals, and comments are
never split; see ``lexer``.  A declaration's lexer states come from the
parse, which lexes each version once and keeps the states over each
member (see ``javaparse``); ``merge_body`` hands them to ``mark``, which
lexes only a text it is given no states for.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain

from .lexer import lex_states, non_code_spans
from .textmerge import Conflict, MergeOutcome, Resolved, merge3, split_lines

DEFAULT_SEPARATOR_CHARS = ("{", "}", "(", ")", ";")
PLACEHOLDER_CHAR = b"$"
_BASE_PLACEHOLDER_LEN = 8


class MarkingError(ValueError):
    """A placeholder appears somewhere it cannot be reversed from."""


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
                raise ValueError("the placeholder character cannot be a separator")
            if s in seen:
                raise ValueError(f"duplicate separator: {s!r}")
            seen.add(s)

    @classmethod
    def from_spec(cls, spec: str) -> "SeparatorSet":
        """Parse a comma-separated list like ``"{,},(,),;"``."""
        return cls(tuple(spec.split(",")))


@dataclass
class MarkedText:
    """A body text with separators isolated onto placeholder-marked lines."""

    lines: Sequence[bytes]
    trailing_newline: bool


def pick_placeholder(texts: list[bytes]) -> bytes:
    """Shortest ``$`` run (doubling from 8) absent from every input."""
    ph = PLACEHOLDER_CHAR * _BASE_PLACEHOLDER_LEN
    while any(ph in t for t in texts):
        ph += ph
    return ph


def mark(
    text: bytes,
    seps: SeparatorSet | None = None,
    placeholder: bytes | None = None,
    states: bytes | None = None,
) -> MarkedText:
    """Isolate each code-context separator onto its own placeholder line.

    Original bytes are never altered, reordered, or deleted; only line
    breaks and placeholder prefixes are inserted.  Text following a
    separator on the same original line continues on a fresh placeholder
    line, so consecutive separators yield consecutive one-character lines.
    A placeholder that occurs in the text could not be told from the
    inserted prefixes, so it raises MarkingError.  ``states`` are the
    lexer states of ``text`` when the caller has them already; without
    them the text is lexed here.
    """
    seps = seps or SeparatorSet()
    ph = placeholder if placeholder is not None else pick_placeholder([text])
    if ph in text:
        raise MarkingError("placeholder occurs in the text to mark")
    br = b"\n" + ph
    # Each literal or comment is swapped for one stand-in that holds no
    # separator and is no LF, so only code separators are isolated and a
    # literal or comment after a separator still starts a fresh line.  As
    # the placeholder is not in the text, neither the stand-in nor a break
    # can be confused with text.
    stand_in = b"\r" + ph
    code: list[bytes] = []
    hidden: list[bytes] = []
    copied = 0
    if states is None:
        states = lex_states(text)[0]
    for start, end in non_code_spans(states):
        code.append(text[copied:start])
        hidden.append(text[start:end])
        copied = end
    code.append(text[copied:])
    marked = stand_in.join(code)
    for sep in seps.separators:
        sep = sep.encode()
        marked = marked.replace(sep, br + sep + br)
    # a break after a separator is kept only before ordinary text: LF,
    # the next separator's own break or the end of the text need none
    marked = marked.replace(br + b"\n", b"\n")
    if marked.endswith(br):
        marked = marked[:-len(br)]
    marked_code = marked.split(stand_in)
    out = chain.from_iterable(zip(marked_code, hidden))
    lines, trailing = split_lines(b"".join(out) + marked_code[-1])
    return MarkedText(lines, trailing)


def unmark(text: bytes, placeholder: bytes) -> bytes:
    """Reverse ``mark`` on a marked text: drop inserted breaks and prefixes.

    A placeholder-prefixed line continues the line before it; any other
    line starts a new one.  Applied to the text of an unmerged MarkedText
    this reproduces the original bytes exactly.  A placeholder that is not
    a line prefix cannot have come from marking and raises MarkingError.
    """
    if text.startswith(placeholder):
        text = text[len(placeholder):]
    # Dropping each inserted break with the prefix after it leaves the
    # original.  The check puts an LF back in each break's place, so every
    # line stays apart and '$'s ending one line and starting the next
    # never read as a placeholder.
    parts = text.split(b"\n" + placeholder)
    if placeholder in b"\n".join(parts):
        raise MarkingError("placeholder found mid-line")
    return b"".join(parts)


def merge_body(
    base: bytes,
    left: bytes,
    right: bytes,
    seps: SeparatorSet | None = None,
    states: Sequence[bytes | None] = (None, None, None),
) -> MergeOutcome:
    """Merge three body texts through the separator preprocessing.

    Marks all three versions with one collision-free placeholder, merges
    the marked line sequences, then projects the outcome back to plain
    text with ``unmark``: the text of each run of resolved regions, and
    each conflict side, separately.  ``states`` holds the lexer states of
    base, left and right where the caller has them, as ``mark`` takes them.
    """
    seps = seps or SeparatorSet()
    ph = pick_placeholder([base, left, right])
    base_states, left_states, right_states = states
    mb = mark(base, seps, ph, base_states)
    ml = mark(left, seps, ph, left_states)
    mr = mark(right, seps, ph, right_states)
    trailing = ml.trailing_newline if ml.trailing_newline != mb.trailing_newline else mr.trailing_newline
    raw = merge3(mb.lines, ml.lines, mr.lines, trailing_newline=trailing)
    regions: list[Resolved | Conflict] = []
    run: list[bytes] = []  # marked text of consecutive resolved regions
    for region in raw.regions:
        if isinstance(region, Resolved):
            run.append(region.text)
            continue
        if run:
            regions.append(Resolved(unmark(b"".join(run), ph)))
            run = []
        sides = (unmark(side, ph) for side in (region.left, region.base, region.right))
        regions.append(Conflict(*sides, region.open_end))
    if run:
        regions.append(Resolved(unmark(b"".join(run), ph)))
    return MergeOutcome(regions)
