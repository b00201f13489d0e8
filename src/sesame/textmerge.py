"""Line-based three-way merging with diff3 semantics.

Text is modelled as segments split on LF: a CR preceding the LF stays
attached to the segment, and a missing terminator on the final line is
recorded so rendering round-trips byte for byte.  ``merge3`` walks the
two alignments of base with left and with right and appends regions as it
goes: runs stable across all three versions stay resolved, and in the gaps
between them a one-sided change wins, identical two-sided changes win, and
anything else becomes a conflict region carrying the left, base, and right
payloads.  Outcomes hold no labels; ``render`` takes them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .textdiff import Alignment, diff2

DEFAULT_LABELS = ("left", "base", "right")

_MARK_LEFT = b"<<<<<<<"
_MARK_BASE = b"|||||||"
_MARK_SEP = b"======="
_MARK_RIGHT = b">>>>>>>"


class MarkerError(ValueError):
    """Conflict markers in a rendered text are unbalanced."""


def split_lines(data: bytes) -> tuple[list[bytes], bool]:
    """Split on LF, keeping any CR attached; returns (lines, had_final_lf)."""
    if not data:
        return [], True
    parts = data.split(b"\n")
    if parts[-1] == b"":
        return parts[:-1], True
    return parts, False


def join_lines(lines: list[bytes], trailing_newline: bool) -> bytes:
    if not lines:
        return b""
    body = b"\n".join(lines)
    return body + b"\n" if trailing_newline else body


@dataclass(frozen=True)
class Resolved:
    lines: tuple[bytes, ...]


@dataclass(frozen=True)
class Conflict:
    left: tuple[bytes, ...]
    base: tuple[bytes, ...]
    right: tuple[bytes, ...]


@dataclass
class MergeOutcome:
    regions: list[Resolved | Conflict]
    trailing_newline: bool = True

    def conflict_count(self) -> int:
        return sum(1 for r in self.regions if isinstance(r, Conflict))


def merge3(
    base: list[bytes],
    left: list[bytes],
    right: list[bytes],
    trailing_newline: bool = True,
) -> MergeOutcome:
    """Three-way merge of segment sequences (diff3 semantics).

    A stable run is a maximal run of base lines matched, at consecutive
    offsets, on both sides; it is kept as one resolved region.  Each gap
    before, between, and after stable runs is merged on its own.
    """
    left_at = _partners(diff2(base, left))
    right_at = _partners(diff2(base, right))
    regions: list[Resolved | Conflict] = []
    bz = lz = rz = 0  # where the current gap starts in base, left, right
    i = 0
    n = len(base)
    while True:
        while i < n and (left_at[i] < 0 or right_at[i] < 0):
            i += 1
        l_end, r_end = (left_at[i], right_at[i]) if i < n else (len(left), len(right))
        b_gap, l_gap, r_gap = base[bz:i], left[lz:l_end], right[rz:r_end]
        if l_gap == r_gap:
            if l_gap:
                regions.append(Resolved(tuple(l_gap)))
        elif l_gap == b_gap:
            if r_gap:
                regions.append(Resolved(tuple(r_gap)))
        elif r_gap == b_gap:
            if l_gap:
                regions.append(Resolved(tuple(l_gap)))
        else:
            regions.append(Conflict(tuple(l_gap), tuple(b_gap), tuple(r_gap)))
        if i == n:
            return MergeOutcome(regions, trailing_newline)
        start = i
        while (
            i + 1 < n
            and left_at[i + 1] == left_at[i] + 1
            and right_at[i + 1] == right_at[i] + 1
        ):
            i += 1
        i += 1
        regions.append(Resolved(tuple(base[start:i])))
        bz, lz, rz = i, l_end + i - start, r_end + i - start


def _partners(alignment: Alignment) -> list[int]:
    """For each line of the first sequence, its partner's index, or -1."""
    at = [-1] * alignment.len_a
    for i, j in alignment.matched:
        at[i] = j
    return at


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
    lines: list[bytes] = []  # every output line, markers included, joined once
    for region in outcome.regions:
        if isinstance(region, Resolved):
            lines += region.lines
            continue
        lines.append(_marker_line(_MARK_LEFT, lname))
        lines += region.left
        if base_marker:
            lines.append(_marker_line(_MARK_BASE, bname))
            lines += region.base
        lines.append(_MARK_SEP)
        lines += region.right
        lines.append(_marker_line(_MARK_RIGHT, rname))
    if outcome.trailing_newline:
        lines.append(b"")
    return b"\n".join(lines)


def join(outcomes: list[MergeOutcome]) -> MergeOutcome:
    """Concatenate fragment outcomes the way their texts concatenate.

    A fragment without a final LF leaves its last line open, and the next
    fragment's first line continues it.  A conflict always begins and ends
    on a line of its own: an open line before it is closed, or dropped when
    empty.  After a conflict with an open end, an empty first line of the
    next fragment only ends the closing marker's line, and any other text
    starts a new one.
    """
    regions: list[Resolved | Conflict] = []
    lines: list[bytes] = []  # resolved lines not yet stored in a region
    open_line = False  # the text so far ends without an LF
    for outcome in outcomes:
        for region in outcome.regions:
            if isinstance(region, Conflict):
                if open_line and lines and not lines[-1]:
                    lines.pop()
                if lines:
                    regions.append(Resolved(tuple(lines)))
                    lines = []
                regions.append(region)
            elif not open_line:
                lines.extend(region.lines)
            elif lines:
                lines[-1] += region.lines[0]
                lines.extend(region.lines[1:])
            else:  # right after a conflict's unterminated closing marker
                lines.extend(region.lines[1:] if region.lines[0] == b"" else region.lines)
            open_line = False
        if outcome.regions:
            open_line = not outcome.trailing_newline
    if lines:
        regions.append(Resolved(tuple(lines)))
    return MergeOutcome(regions, trailing_newline=not open_line)


def _marker_line(marker: bytes, label: bytes) -> bytes:
    return marker + (b" " + label if label else b"")


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


def merge_text(
    base: bytes,
    left: bytes,
    right: bytes,
    labels: tuple[str, str, str] = DEFAULT_LABELS,
    base_marker: bool = False,
) -> tuple[bytes, int]:
    """Merge three byte strings; returns (rendered output, conflict count)."""
    outcome = merge_texts_outcome(base, left, right)
    return render(outcome, labels, base_marker), outcome.conflict_count()


def merge_texts_outcome(base: bytes, left: bytes, right: bytes) -> MergeOutcome:
    b_lines, b_tf = split_lines(base)
    l_lines, l_tf = split_lines(left)
    r_lines, r_tf = split_lines(right)
    trailing = l_tf if l_tf != b_tf else r_tf
    return merge3(b_lines, l_lines, r_lines, trailing)
