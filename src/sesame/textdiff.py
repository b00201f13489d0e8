"""Two-way sequence diffing.

``diff2`` computes a maximal common-subsequence matching between two
segment sequences with Myers' divide-and-conquer algorithm, then
normalizes ambiguous change boundaries the way GNU diff does: runs of
changed lines slide through equal neighbouring lines, merge with adjacent
runs where possible, and otherwise settle at the latest position unless an
earlier position lines up with a change on the other side.  The three-way
merge builds its stable runs from the matching blocks this produces, so
the normalization directly shapes where conflicts are reported.

Before any middle-snake search on a subproblem, the flagged lines of each
range, those that occur anywhere in the other sequence, are read off in
order.  When the two lists are equal, the k-th flagged line of one range
is paired with the k-th of the other, and nothing is searched.  This is
exact.  An unflagged line matches nothing, so no common subsequence is
longer than the flagged list, and the pairing reaches that length.  A
common subsequence of that length uses every flagged line of both ranges
in order, so the pairing is the only longest one, which the search would
have found.  A range with no flagged line, such as a rewritten block that
shares no line with the other side, matches nothing and is not searched
either.  The result is one changed flag per line of each sequence: the
rule's pairs, the trimmed ends and each snake clear theirs by slice
assignment, the boundary shift works on the same flags, and the blocks
are read off their runs of unchanged lines.

The search and the boundary shift do the work of the textbook loops
and produce the same matching, line for line.  Lines are compared as
given, by value, so an alignment does not depend on which lines are one
object.  The middle snake runs its forward and reverse rounds through one
loop body, on local copies of its ranges, the reverse ones reversed, so
every stored position, past the end or not, is the loop's own, and it
follows each snake one line at a time.  The shift keeps no position in
the other sequence: the k-th unchanged line of each pairs with the k-th of
the other and each slide moves one unchanged line, so a count of the
unchanged lines before a run's end tells which of the other's lines it
faces.
The tests keep the loops as references and compare against them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import compress


@dataclass(frozen=True)
class Alignment:
    """Correspondence between two segment sequences ``a`` and ``b``: the
    maximal runs ``(i, j, n)``, increasing on both sides, in which
    ``a[i:i + n]`` matches ``b[j:j + n]``, like ``difflib``'s matching
    blocks; every other index is a deletion (in a) or an insertion (in b)."""

    blocks: tuple[tuple[int, int, int], ...]

    def match_count(self) -> int:
        return sum(n for _, _, n in self.blocks)


_FLIP = bytes((1, 0)) + bytes(254)  # a changed flag -> an unchanged flag
_UNCHANGED = re.compile(rb"\x00+")  # a run of unchanged flags


def diff2(a: list[bytes], b: list[bytes]) -> Alignment:
    """Align two segment sequences on a longest common subsequence."""
    a_changed, b_changed = _lcs_changed(a, b)
    _shift_side(a, a_changed, b_changed)
    _shift_side(b, b_changed, a_changed)
    return Alignment(_blocks(a_changed, b_changed))


def _lcs_changed(a, b):
    """A changed flag per line of each sequence that is 0 exactly on one
    longest common subsequence."""
    # one flag per line: whether it occurs anywhere in the other sequence
    fa = bytes(map(set(b).__contains__, a))
    fb = bytes(map(set(a).__contains__, b))
    a_changed = bytearray(b"\x01") * len(a)
    b_changed = bytearray(b"\x01") * len(b)
    _lcs_recurse(a, 0, len(a), b, 0, len(b), fa, fb, a_changed, b_changed)
    return a_changed, b_changed


def _blocks(a_changed, b_changed) -> tuple[tuple[int, int, int], ...]:
    """The maximal runs in which the k-th unchanged line of a matches the
    k-th of b: each ends where a run of unchanged flags ends on one side."""
    blocks = []
    b_runs = _UNCHANGED.finditer(b_changed)
    j = j_end = 0
    for run in _UNCHANGED.finditer(a_changed):
        i, i_end = run.span()
        while i < i_end:
            if j == j_end:
                j, j_end = next(b_runs).span()
            n = min(i_end - i, j_end - j)
            blocks.append((i, j, n))
            i, j = i + n, j + n
    return tuple(blocks)


def _lcs_recurse(a, a0, a1, b, b0, b1, fa, fb, ca, cb) -> None:
    """Clear the changed flags ``ca`` and ``cb`` of the lines of one longest
    common subsequence of a[a0:a1] and b[b0:b1]."""
    s, t = a0, b0
    while a0 < a1 and b0 < b1 and a[a0] == b[b0]:
        a0 += 1
        b0 += 1
    ca[s:a0] = bytes(a0 - s)
    cb[t:b0] = bytes(b0 - t)
    e, f = a1, b1
    while a1 > a0 and b1 > b0 and a[a1 - 1] == b[b1 - 1]:
        a1 -= 1
        b1 -= 1
    ca[a1:e] = bytes(e - a1)
    cb[b1:f] = bytes(f - b1)
    ka = fa[a0:a1]
    kb = fb[b0:b1]
    # only a flagged line can match; a range without one has no match, and
    # an empty range has no flag, so both ranges are non-empty below
    if 1 not in ka or 1 not in kb:
        return
    if list(compress(a[a0:a1], ka)) == list(compress(b[b0:b1], kb)):
        # the flagged lines of both ranges read the same: pairing them k-th
        # to k-th is the one longest common subsequence
        ca[a0:a1] = ka.translate(_FLIP)
        cb[b0:b1] = kb.translate(_FLIP)
        return
    # ranges that differ at both ends are two or more edits apart (d > 1)
    _, x0, y0, x1, y1 = _middle_snake(a, a0, a1, b, b0, b1)
    _lcs_recurse(a, a0, a0 + x0, b, b0, b0 + y0, fa, fb, ca, cb)
    ca[a0 + x0:a0 + x1] = bytes(x1 - x0)
    cb[b0 + y0:b0 + y1] = bytes(y1 - y0)
    _lcs_recurse(a, a0 + x1, a1, b, b0 + y1, b1, fa, fb, ca, cb)


def _middle_snake(a, a0, a1, b, b0, b1):
    """Myers' bidirectional search: the middle snake of a[a0:a1] x b[b0:b1].

    Returns (edit_distance, x0, y0, x1, y1) with snake coordinates local to
    the subproblem.

    Each d runs a forward round on copies of the two ranges and then a
    reverse round on reversed copies, through one loop body, so every index
    is local.  The V arrays are indexed by diagonal directly, a negative one
    counting from the end.  Before each round the diagonals just outside it
    are set to -1, so the outermost ones take their only possible move
    through the same test as the others.  Every value stored, positions
    past n or m included, is the one the textbook loop stores.
    """
    fa = a[a0:a1]
    fb = b[b0:b1]
    n = a1 - a0
    m = b1 - b0
    delta = n - m
    odd = delta % 2 != 0
    maxd = (n + m + 1) // 2 + 1
    vf = [0] * (2 * maxd + 3)
    vb = [0] * (2 * maxd + 3)
    # per round: its V, the other's V, its ranges, whether it runs one edit
    # ahead (the forward one does) and whether it can meet the other's paths
    rounds = ((vf, vb, fa, fb, 1, odd), (vb, vf, fa[::-1], fb[::-1], 0, not odd))
    for d in range(maxd + 1):
        for v, w, p, q, ahead, meets in rounds:
            # the diagonals where a path can meet the other round's; (1, 0) is empty
            lo, hi = (delta - d + ahead, delta + d - ahead) if meets else (1, 0)
            v[-d - 1] = v[d + 1] = -1
            for k in range(-d, d + 1, 2):
                x = v[k + 1] if v[k - 1] < v[k + 1] else v[k - 1] + 1
                y = x - k
                xs = x
                while x < n and y < m and p[x] == q[y]:
                    x += 1
                    y += 1
                v[k] = x
                if lo <= k <= hi and x + w[delta - k] >= n:
                    if ahead:
                        return 2 * d - 1, xs, xs - k, x, y
                    return 2 * d, n - x, m - y, n - xs, m - xs + k
    raise AssertionError("middle snake search failed")


def _shift_side(lines, changed, other_changed) -> None:
    """Normalize the change-run boundaries of one sequence like GNU diff's
    shift_boundaries, on the changed flags of both."""
    # u counts the unchanged lines before the current run's end.  The k-th
    # unchanged line of each sequence pairs with the k-th of the other, and
    # each slide moves one unchanged line across the run, so u is kept by
    # counting, with no walk of the other sequence.  faces[u] tells whether
    # a change of the other sequence ends right before its unchanged line
    # with u unchanged lines before it, the last byte standing for the
    # other's end.  Only a slide down reads it, so it is built at the first
    # one, which most calls never reach.
    i = u = 0
    i_end = len(lines)
    faces = b""
    while True:
        stop = changed.find(1, i)
        if stop < 0:
            break
        u += stop - i
        start = stop
        i = stop + 1
        while i < i_end and changed[i]:
            i += 1
        while True:
            runlength = i - start
            # Slide the run up while the line before it equals its last
            # line; this can merge it with a preceding run.
            while start > 0 and lines[start - 1] == lines[i - 1]:
                changed[start - 1] = 1
                changed[i - 1] = 0
                start -= 1
                i -= 1
                while start > 0 and changed[start - 1]:
                    start -= 1
                u -= 1
            # Slide the run down while its first line equals the line after
            # it; this can merge it with a following run.  Done second so a
            # run that merges with nothing settles at its latest position.
            # Remember the latest end position at which this run lined up
            # with a change in the other sequence.
            corresponding = i_end
            if i < i_end and lines[start] == lines[i]:
                faces = faces or bytes(
                    compress(b"\0" + other_changed, other_changed.translate(_FLIP) + b"\1")
                )
                if faces[u]:
                    corresponding = i
                while i < i_end and lines[start] == lines[i]:
                    changed[start] = 0
                    changed[i] = 1
                    start += 1
                    i += 1
                    while i < i_end and changed[i]:
                        i += 1
                    u += 1
                    if faces[u]:
                        corresponding = i
            if runlength == i - start:
                break
        # Prefer the position where the run faces a change in the other
        # sequence over the latest position.
        while corresponding < i:
            changed[start - 1] = 1
            changed[i - 1] = 0
            start -= 1
            i -= 1
            while start > 0 and changed[start - 1]:
                start -= 1
            u -= 1
