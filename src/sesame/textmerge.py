"""Three-way merging with diff3 semantics, and the text its outcome holds.

The merge aligns LF-led pieces of text.  ``split_lines`` cuts a text at
each LF and leads each line with the LF before it, the first as if an LF
came before the text; a CR before an LF stays on its line, and whether
the text ends in an LF is recorded.  ``separators.mark`` cuts body texts
into pieces of the same form, more finely.  So the pieces, followed by a
final LF where the text has one, concatenate to the text behind one LF,
and a region of the merge is the text of a run of pieces.

``merge3`` diffs base with left and with right, and finds diff3's stable
runs where a matching block of one overlaps a block of the other in base.
Stable runs stay resolved; in the gaps between them a one-sided change
wins, identical two-sided changes win, and anything else becomes a
conflict region carrying the left, base, and right payloads.

Pieces stay inside ``merge3``: an outcome holds text.  A resolved region
holds its exact bytes, never empty, and no two resolved regions are
adjacent.  A conflict holds each side as LF-terminated lines, and
``open_end`` when it ends the merged text without a final LF.  So
``render`` concatenates, adding only the markers, and ``join``
concatenates fragment outcomes with two rules at the edges of conflicts.
Outcomes hold no labels; ``render`` takes them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import chain

from .textdiff import diff2

DEFAULT_LABELS = ("left", "base", "right")

_MARK_LEFT = b"<<<<<<<"
_MARK_BASE = b"|||||||"
_MARK_SEP = b"======="
_MARK_RIGHT = b">>>>>>>"


class MarkerError(ValueError):
    """Conflict markers in a rendered text are unbalanced."""


@dataclass
class Pieces:
    """A text as LF-led pieces: ``b"".join(lines)``, followed by an LF if
    ``trailing_newline``, is the text behind one LF (an empty text has no
    pieces)."""

    lines: list[bytes]
    trailing_newline: bool


def lf_led(lines: list[bytes]) -> Pieces:
    """The record of the pieces of ``b"\\n" + text``, cut before each LF
    and maybe elsewhere: a last piece that is a lone LF is the text's
    final LF."""
    trailing = lines[-1] == b"\n"
    if trailing:
        lines.pop()
    return Pieces(lines, trailing)


def split_lines(data: bytes) -> Pieces:
    """``data`` as LF-led lines, any CR kept on its line."""
    return lf_led([b"\n" + line for line in data.split(b"\n")])


@dataclass(frozen=True)
class Resolved:
    text: bytes


@dataclass(frozen=True)
class Conflict:
    left: bytes
    base: bytes
    right: bytes
    open_end: bool = False  # the closing marker's line ends the text, without an LF


@dataclass
class MergeOutcome:
    regions: list[Resolved | Conflict]

    def conflict_count(self) -> int:
        return sum(1 for r in self.regions if isinstance(r, Conflict))


def merge3(base: Pieces, left: Pieces, right: Pieces) -> MergeOutcome:
    """Three-way merge of LF-led pieces (diff3 semantics).

    Each stable run is kept as resolved, and each gap before, between and
    after them is merged on its own.  A side that changed its final LF from
    base's decides whether the outcome ends in one; otherwise the right does.
    """
    b, l, r = base.lines, left.lines, right.lines
    runs = _stable_runs(diff2(b, l).blocks, diff2(b, r).blocks)
    regions: list[Resolved | Conflict] = []
    run: list[bytes] = []  # pieces of the resolved run not yet stored
    bz = lz = rz = 0  # where the current gap starts in base, left, right
    # the empty run at the three ends closes the last gap
    for i, j, k, n in chain(runs, ((len(b), len(l), len(r), 0),)):
        b_gap, l_gap, r_gap = b[bz:i], l[lz:j], r[rz:k]
        if l_gap == r_gap or r_gap == b_gap:
            run += l_gap
        elif l_gap == b_gap:
            run += r_gap
        else:
            if run:
                regions.append(Resolved(_text(run)))
                run = []
            regions.append(Conflict(_text(l_gap), _text(b_gap), _text(r_gap)))
        run += b[i:i + n]
        bz, lz, rz = i + n, j + n, k + n
    if run:
        regions.append(Resolved(_text(run)))
    final_lf = left.trailing_newline
    if final_lf == base.trailing_newline:
        final_lf = right.trailing_newline
    if not final_lf and regions:
        last = regions.pop()
        if isinstance(last, Conflict):
            regions.append(replace(last, open_end=True))
        elif last.text != b"\n":  # a lone LF leaves no text
            regions.append(Resolved(last.text[:-1]))
    return MergeOutcome(regions)


def _text(pieces: list[bytes]) -> bytes:
    """The text of consecutive pieces, as lines: the LF that leads the
    first piece, if any, is dropped, and an LF ends the last.  Takes
    ``pieces`` over."""
    if pieces:
        pieces[0] = pieces[0].removeprefix(b"\n")
        pieces.append(b"\n")
    return b"".join(pieces)


def _stable_runs(lefts, rights):
    """The runs ``(i, j, k, n)`` in which ``base[i:i + n]`` matches both
    ``left[j:j + n]`` and ``right[k:k + n]``: each is where a matching
    block of base with left overlaps one of base with right.  The blocks
    are maximal, so no run continues the one before it on all three sides."""
    p = q = 0
    while p < len(lefts) and q < len(rights):
        (i, j, n), (h, k, m) = lefts[p], rights[q]
        start, end = max(i, h), min(i + n, h + m)
        if start < end:
            yield start, j + start - i, k + start - h, end - start
        # the block that ends first overlaps nothing further
        p, q = (p + 1, q) if i + n < h + m else (p, q + 1)


def render(
    outcome: MergeOutcome,
    labels: tuple[str, str, str] = DEFAULT_LABELS,
    base_marker: bool = False,
) -> bytes:
    """Render an outcome to bytes; conflicts get standard markers.

    ``labels`` name the left, base, and right sides after their markers; an
    empty label leaves its marker bare.  With ``base_marker`` the base
    payload is included diff3-style between a ``|||||||`` line and the
    ``=======`` separator.
    """
    lname, bname, rname = (s.encode("utf-8") for s in labels)
    opening = _marker_line(_MARK_LEFT, lname)
    base_line = _marker_line(_MARK_BASE, bname)
    separator = _MARK_SEP + b"\n"
    closing = _marker_line(_MARK_RIGHT, rname)
    out: list[bytes] = []  # the output's pieces, markers included, joined once
    for region in outcome.regions:
        if isinstance(region, Resolved):
            out.append(region.text)
            continue
        out += (opening, region.left)
        if base_marker:
            out += (base_line, region.base)
        out += (separator, region.right, closing[:-1] if region.open_end else closing)
    return b"".join(out)


def join(parts: list[MergeOutcome | bytes]) -> MergeOutcome:
    """Concatenate fragments the way their texts concatenate.

    Each part is a fragment's outcome or, for a fragment taken whole, its
    text.  The resolved text between two conflicts becomes one region.  A
    conflict begins and ends on lines of its own: before it, a text that
    ends without an LF gets one.  After a conflict with an open end, a
    leading LF of the next text only ends the closing marker's line, and
    any other text starts a new line.
    """
    regions: list[Resolved | Conflict] = []
    texts: list[bytes] = []  # resolved text not yet stored in a region
    open_end = False  # the last region is a conflict with an open end
    for part in parts:
        if isinstance(part, bytes) and part and not open_end:
            texts.append(part)  # the common part: a text taken whole, within a run
            continue
        for region in (part,) if isinstance(part, bytes) else part.regions:
            if isinstance(region, Conflict):
                if texts:
                    if not texts[-1].endswith(b"\n"):
                        texts.append(b"\n")
                    regions.append(Resolved(b"".join(texts)))
                    texts = []
                elif open_end:
                    regions[-1] = replace(regions[-1], open_end=False)
                regions.append(region)
                open_end = region.open_end
                continue
            text = region if isinstance(region, bytes) else region.text
            if open_end and text:
                regions[-1] = replace(regions[-1], open_end=False)
                open_end = False
                if text.startswith(b"\n"):
                    text = text[1:]
            if text:
                texts.append(text)
    if texts:
        regions.append(Resolved(b"".join(texts)))
    return MergeOutcome(regions)


def _marker_line(marker: bytes, label: bytes) -> bytes:
    return marker + (b" " + label if label else b"") + b"\n"


def count_conflicts(data: bytes) -> int:
    """Number of conflict blocks in a rendered text.

    Raises MarkerError when an opening marker is unmatched or a closing
    marker appears outside a block.
    """
    count = 0
    open_block = False
    for line in data.split(b"\n"):
        if line.startswith(_MARK_LEFT):
            if open_block:
                raise MarkerError("nested conflict opening marker")
            open_block = True
        elif line.startswith(_MARK_RIGHT):
            if not open_block:
                raise MarkerError("closing marker without opening marker")
            open_block = False
            count += 1
    if open_block:
        raise MarkerError("unterminated conflict block")
    return count


def merge_texts_outcome(base: bytes, left: bytes, right: bytes) -> MergeOutcome:
    return merge3(split_lines(base), split_lines(left), split_lines(right))
