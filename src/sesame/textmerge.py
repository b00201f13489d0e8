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
Stable runs stay resolved; each gap between them is decided by
``take_side``, and a gap where it takes no side becomes a conflict region
carrying the left, base, and right payloads.  With a ``cut``, such as
``separators.mark``, such a gap's texts are cut finer first and merged
in the same walk, one level deep: only what still conflicts is a region.

Pieces stay inside ``merge3``: an outcome holds text.  A resolved region
is its exact bytes, never empty, and no two of them are adjacent.  A
conflict holds each side as LF-terminated lines, and the outcome records
``open_end`` when its last region is a conflict whose closing marker's
line ends the text without a final LF.  So ``render`` concatenates,
adding only the markers, and ``join`` concatenates fragment outcomes, or
fragments taken whole as their bytes, with two rules at the edges of
conflicts.  Outcomes hold no labels; ``render`` takes them.
"""

from __future__ import annotations

from dataclasses import dataclass
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
class Conflict:
    left: bytes
    base: bytes
    right: bytes


@dataclass
class MergeOutcome:
    regions: list[bytes | Conflict]
    open_end: bool = False  # the last closing marker's line ends the text, without an LF

    def conflict_count(self) -> int:
        return sum(1 for r in self.regions if isinstance(r, Conflict))


def take_side(base, left, right):
    """Diff3's rule for one region: right where left equals base, else left
    where right equals base or left, else None, as the sides changed the
    region in different ways.  So a one-sided change or deletion is taken,
    and so is a change made alike on both sides.  ``is`` is tried before
    ``==``, so a version that two sides share compares at once."""
    if left is base or left == base:
        return right
    if right is base or right is left or right == base or right == left:
        return left
    return None


def merge3(base: Pieces, left: Pieces, right: Pieces, cut=None) -> MergeOutcome:
    """Three-way merge of LF-led pieces (diff3 semantics).

    Each stable run is kept as resolved.  ``take_side`` decides each gap
    before, between and after them, and whether the outcome ends in an LF.
    Without one, the outcome's end is open where a conflict ends it, and
    its last resolved region loses its LF otherwise.

    With ``cut``, a function from a text to its pieces, each side of a gap
    that ``take_side`` leaves is cut, and the pieces, a finer cut of the
    gap's, are walked in turn: what they resolve joins the runs around it.
    """
    regions: list[bytes | Conflict] = []
    run: list[bytes] = []  # pieces of the resolved run not yet stored

    def walk(b: list[bytes], l: list[bytes], r: list[bytes], cut) -> None:
        runs = _stable_runs(diff2(b, l).blocks, diff2(b, r).blocks)
        bz = lz = rz = 0  # where the current gap starts in base, left, right
        # the empty run at the three ends closes the last gap
        for i, j, k, n in chain(runs, ((len(b), len(l), len(r), 0),)):
            b_gap, l_gap, r_gap = b[bz:i], l[lz:j], r[rz:k]
            if (taken := take_side(b_gap, l_gap, r_gap)) is not None:
                run.extend(taken)
            elif cut:
                # ``_text`` ends each side with an LF that the cut takes as
                # its final LF, so the pieces concatenate as the gap's do
                walk(*(cut(_text(side)).lines for side in (b_gap, l_gap, r_gap)), None)
            else:
                if run:
                    regions.append(_text(run))
                    run.clear()
                regions.append(Conflict(_text(l_gap), _text(b_gap), _text(r_gap)))
            run.extend(b[i:i + n])
            bz, lz, rz = i + n, j + n, k + n

    walk(base.lines, left.lines, right.lines, cut)
    if run:
        regions.append(_text(run))
    final_lf = take_side(base.trailing_newline, left.trailing_newline, right.trailing_newline)
    open_end = False
    if not final_lf and regions:
        if isinstance(regions[-1], Conflict):
            open_end = True
        elif regions[-1] == b"\n":  # a lone LF leaves no text
            regions.pop()
        else:
            regions[-1] = regions[-1][:-1]
    return MergeOutcome(regions, open_end)


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

    Text regions are copied as they are.  ``labels`` name the left,
    base, and right sides after their markers; an empty label leaves its
    marker bare.  With ``base_marker`` the base payload is included
    diff3-style between a ``|||||||`` line and the ``=======`` separator.
    The last closing marker loses its LF where the outcome's end is open.
    """
    lname, bname, rname = (s.encode("utf-8") for s in labels)
    opening = _marker_line(_MARK_LEFT, lname)
    base_line = _marker_line(_MARK_BASE, bname)
    separator = _MARK_SEP + b"\n"
    closing = _marker_line(_MARK_RIGHT, rname)
    out: list[bytes] = []  # the output's pieces, markers included, joined once
    for region in outcome.regions:
        if isinstance(region, bytes):
            out.append(region)
            continue
        out += (opening, region.left)
        if base_marker:
            out += (base_line, region.base)
        out += (separator, region.right, closing)
    if outcome.open_end:
        out[-1] = closing[:-1]
    return b"".join(out)


def join(parts: list[MergeOutcome | bytes]) -> MergeOutcome:
    """Concatenate fragments the way their texts concatenate.

    Each part is a fragment's outcome or, for a fragment taken whole, its
    text, which joins as an outcome of that one region would.  The text
    between two conflicts becomes one region.  A conflict begins and ends
    on lines of its own: before it, a text that ends without an LF gets
    one.  A part's open end carries into the next part: there a leading LF
    only ends the closing marker's line, and any other text starts a new
    line.
    """
    regions: list[bytes | Conflict] = []
    texts: list[bytes] = []  # text not yet stored in a region
    open_end = False  # the text so far ends in a conflict's open end
    for part in parts:
        if isinstance(part, bytes):
            if part and not open_end:
                texts.append(part)  # the common part: a text taken whole, within a run
                continue
            part = MergeOutcome([part] if part else [])
        for region in part.regions:
            if isinstance(region, Conflict):
                if texts:
                    if not texts[-1].endswith(b"\n"):
                        texts.append(b"\n")
                    regions.append(b"".join(texts))
                    texts = []
                regions.append(region)
            elif not open_end:
                texts.append(region)
            elif region != b"\n":  # a lone LF only ends the closing marker's line
                texts.append(region.removeprefix(b"\n"))
            open_end = False
        open_end = open_end or part.open_end
    if texts:
        regions.append(b"".join(texts))
    return MergeOutcome(regions, open_end)


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
