"""Three-way merge semantics, rendering, and conflict counting."""

import random
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sesame import textmerge
from sesame.separators import merge_body
from sesame.textdiff import diff2
from sesame.textmerge import (
    DEFAULT_LABELS,
    Conflict,
    MarkerError,
    MergeOutcome,
    Pieces,
    count_conflicts,
    join,
    merge3,
    merge_texts_outcome,
    render,
    split_lines,
    take_side,
)

def merge_text(base, left, right, labels=DEFAULT_LABELS, base_marker=False):
    """Merge three texts line by line: (rendered output, conflict count)."""
    outcome = merge_texts_outcome(base, left, right)
    return render(outcome, labels, base_marker), outcome.conflict_count()


LINES = st.lists(st.sampled_from([b"p", b"q", b"r", b"s"]), max_size=8)


def text_of(lines, trailing=True):
    return b"\n".join(lines) + (b"\n" if trailing and lines else b"")


def pieces_of(lines, trailing=True):
    """The LF-led pieces of the text of ``lines``."""
    return Pieces([b"\n" + line for line in lines], trailing)


def rejoined(pieces):
    """The text of ``pieces`` behind one LF."""
    return b"".join(pieces.lines) + b"\n" * pieces.trailing_newline


# -- line splitting -----------------------------------------------------

@pytest.mark.parametrize(
    "data,lines,trailing",
    [
        (b"", [], True),
        (b"x", [b"\nx"], False),
        (b"x\n", [b"\nx"], True),
        (b"x\r\n", [b"\nx\r"], True),
        (b"\n", [b"\n"], True),
        (b"a\nb", [b"\na", b"\nb"], False),
    ],
)
def test_split_lines(data, lines, trailing):
    assert split_lines(data) == Pieces(lines, trailing)
    assert rejoined(split_lines(data)) == b"\n" + data


@given(st.binary(max_size=64))
def test_split_join_roundtrip(data):
    pieces = split_lines(data)
    assert rejoined(pieces) == b"\n" + data
    # each line is led by an LF and holds no other
    assert all(line.rfind(b"\n") == 0 for line in pieces.lines)


# -- merge semantics ----------------------------------------------------

def test_all_equal_resolves():
    out, n = merge_text(b"a\nb\n", b"a\nb\n", b"a\nb\n")
    assert (out, n) == (b"a\nb\n", 0)


def test_one_sided_changes_adopt():
    base = b"a\nkeep\n"
    left = b"a\nkeep\nL\n"
    assert merge_text(base, left, base) == (left, 0)
    assert merge_text(base, base, left) == (left, 0)


def test_identical_two_sided_insertions_resolve():
    base = b"a\nb\n"
    both = b"a\nnew\nb\n"
    assert merge_text(base, both, both) == (both, 0)


def test_overlapping_changes_conflict():
    out, n = merge_text(b"a\nmid\nz\n", b"a\nL\nz\n", b"a\nR\nz\n")
    assert n == 1
    assert out == b"a\n<<<<<<< left\nL\n=======\nR\n>>>>>>> right\nz\n"


def test_adjacent_line_changes_conflict():
    # consecutive lines edited by different sides share no separating
    # stable region, so this is one conflict
    out, n = merge_text(b"a\nb\nc\nd\n", b"a\nB\nc\nd\n", b"a\nb\nC\nd\n")
    assert n == 1
    assert b"<<<<<<< left\nB\nc\n=======\nb\nC\n>>>>>>> right\n" in out


def test_same_point_insertions_conflict():
    out, n = merge_text(b"a\nz\n", b"a\nL\nz\n", b"a\nR\nz\n")
    assert n == 1


def test_deletion_both_sides_silent():
    assert merge_text(b"a\nb\nc\n", b"a\nc\n", b"a\nc\n") == (b"a\nc\n", 0)


def test_delete_vs_modify_conflicts():
    out, n = merge_text(b"a\nx\nz\n", b"a\nz\n", b"a\nX\nz\n")
    assert n == 1
    assert b"<<<<<<< left\n=======\nX\n>>>>>>> right\n" in out


def test_base_marker_render():
    out, n = merge_text(
        b"a\nmid\nz\n", b"a\nL\nz\n", b"a\nR\nz\n", base_marker=True
    )
    assert n == 1
    assert b"<<<<<<< left\nL\n||||||| base\nmid\n=======\nR\n>>>>>>> right\n" in out


def test_missing_final_newline_tracked():
    assert merge_text(b"a", b"a", b"a") == (b"a", 0)
    # left adds the final terminator
    assert merge_text(b"a", b"a\n", b"a") == (b"a\n", 0)
    # right strips it
    assert merge_text(b"a\n", b"a\n", b"a") == (b"a", 0)


@pytest.mark.parametrize("left,right", [(b"a", b"\n"), (b"\n", b"a")])
def test_a_last_region_of_a_lone_lf_leaves_no_text(left, right):
    # one side deletes the line, the other its final LF: the LF left over
    # would end a text that takes no final LF
    outcome = merge_texts_outcome(b"a\n", left, right)
    assert outcome == MergeOutcome([], False)
    assert outcome.conflict_count() == 0


def test_custom_labels():
    out, _ = merge_text(b"m\n", b"l\n", b"r\n", labels=("ours", "old", "theirs"))
    assert out.startswith(b"<<<<<<< ours\n")
    assert out.endswith(b">>>>>>> theirs\n")


def test_empty_labels_render_bare_markers():
    outcome = merge3(split_lines(b"m\n"), split_lines(b"l\n"), split_lines(b"r\n"))
    assert render(outcome, ("", "", "")) == b"<<<<<<<\nl\n=======\nr\n>>>>>>>\n"
    assert render(outcome, ("", "", ""), base_marker=True) == (
        b"<<<<<<<\nl\n|||||||\nm\n=======\nr\n>>>>>>>\n"
    )


@pytest.mark.parametrize(
    "base,left,right,taken",
    [
        (b"b", b"b", b"r", b"r"),  # a one-sided change
        (b"b", b"l", b"b", b"l"),
        (b"b", b"x", b"x", b"x"),  # a change made alike on both sides
        (b"b", b"", b"b", b""),  # a deletion against an untouched side
        (b"b", b"l", b"r", None),  # changed on both sides in different ways
    ],
)
def test_take_side_is_diff3s_rule(base, left, right, taken):
    assert take_side(base, left, right) == taken


def test_take_side_takes_a_shared_version_without_comparing_values():
    class NoValue:
        def __eq__(self, other):
            raise AssertionError("compared by value")

    shared, other = NoValue(), NoValue()
    assert take_side(shared, shared, other) is other


# -- the line model, kept as the reference ----------------------------------
#
# An outcome used to hold lines: a resolved region its lines, a conflict
# each side's lines, and the outcome whether its text ends in an LF.  The
# renderer and the line-based join of that model stay here as references,
# with the conversions between it and the text outcome.

@dataclass(frozen=True)
class LineResolved:
    lines: tuple[bytes, ...]


@dataclass(frozen=True)
class LineConflict:
    left: tuple[bytes, ...]
    base: tuple[bytes, ...]
    right: tuple[bytes, ...]


@dataclass
class LineOutcome:
    regions: list
    trailing_newline: bool = True

    def conflict_count(self):
        return sum(1 for r in self.regions if isinstance(r, LineConflict))


def text_form(outcome):
    """The text outcome of a line outcome: every line ends in an LF, but
    without a trailing newline the last one of the whole text does not."""
    def text(lines):
        return b"".join(line + b"\n" for line in lines)

    regions = []
    for region in outcome.regions:
        if isinstance(region, LineConflict):
            regions.append(Conflict(text(region.left), text(region.base), text(region.right)))
        elif region.lines:
            regions.append(text(region.lines))
    open_end = False
    if not outcome.trailing_newline and regions:
        last = regions.pop()
        if isinstance(last, Conflict):
            regions.append(last)
            open_end = True
        elif last != b"\n":
            regions.append(last[:-1])
    return MergeOutcome(regions, open_end)


def line_split(data):
    """The lines of ``data`` and whether it ends in an LF, as ``split_lines``
    gave them before it led each line with an LF."""
    if not data:
        return [], True
    parts = data.split(b"\n")
    return (parts[:-1], True) if parts[-1] == b"" else (parts, False)


def line_form(outcome):
    """The line outcome of a text outcome, in which only the last region's
    text may end without an LF."""
    regions, trailing = [], True
    for region in outcome.regions:
        if isinstance(region, bytes):
            lines, trailing = line_split(region)
            regions.append(LineResolved(tuple(lines)))
        else:
            sides = [line_split(side) for side in (region.left, region.base, region.right)]
            assert all(lf for _, lf in sides)  # each side is LF-terminated lines
            regions.append(LineConflict(*(tuple(lines) for lines, _ in sides)))
            trailing = not outcome.open_end
    return LineOutcome(regions, trailing)


def reference_render(outcome, labels, base_marker):
    """The line-at-a-time renderer of the line model."""
    lname, bname, rname = (s.encode("utf-8") for s in labels)

    def marker(mark, label):
        return mark + (b" " + label if label else b"") + b"\n"

    out = bytearray()
    for region in outcome.regions:
        if isinstance(region, LineResolved):
            for line in region.lines:
                out += line + b"\n"
            continue
        out += marker(b"<<<<<<<", lname)
        for line in region.left:
            out += line + b"\n"
        if base_marker:
            out += marker(b"|||||||", bname)
            for line in region.base:
                out += line + b"\n"
        out += b"=======\n"
        for line in region.right:
            out += line + b"\n"
        out += marker(b">>>>>>>", rname)
    if not outcome.trailing_newline and out.endswith(b"\n"):
        del out[-1:]
    return bytes(out)


def reference_join(outcomes):
    """The line-based join of line outcomes that ``join`` replaced.

    A fragment without a final LF leaves its last line open, and the next
    fragment's first line continues it.  A conflict always begins and ends
    on a line of its own: an open line before it is closed, or dropped when
    empty.  After a conflict with an open end, an empty first line of the
    next fragment only ends the closing marker's line, and any other text
    starts a new one.
    """
    regions = []
    lines = []  # resolved lines not yet stored in a region
    open_line = False  # the text so far ends without an LF
    for outcome in outcomes:
        for region in outcome.regions:
            if isinstance(region, LineConflict):
                if open_line and lines and not lines[-1]:
                    lines.pop()
                if lines:
                    regions.append(LineResolved(tuple(lines)))
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
        regions.append(LineResolved(tuple(lines)))
    return LineOutcome(regions, trailing_newline=not open_line)


# -- reference merge ----------------------------------------------------------

@dataclass(frozen=True)
class Chunk:
    """One slice of the three-way partition of base/left/right."""

    kind: str  # "stable" | "changed"
    base_range: tuple[int, int]
    left_range: tuple[int, int]
    right_range: tuple[int, int]


def pairs_of(alignment):
    """The matched pairs ``(i, j)`` of an alignment, spelled out from its
    blocks, in order."""
    return [(i + t, j + t) for i, j, n in alignment.blocks for t in range(n)]


def reference_three_way_chunks(base, left, right):
    """Partition all three sequences into stable and changed chunks, from
    the matched pairs of each alignment, kept as the
    specification.

    Stable chunks are runs where base, left, and right carry identical
    content at consistent offsets; every index of each sequence lands in
    exactly one chunk.
    """
    left_at = dict(pairs_of(diff2(base, left)))
    right_at = dict(pairs_of(diff2(base, right)))
    chunks = []
    bz = lz = rz = 0

    def emit_gap(b_end, l_end, r_end):
        nonlocal bz, lz, rz
        if b_end > bz or l_end > lz or r_end > rz:
            chunks.append(
                Chunk("changed", (bz, b_end), (lz, l_end), (rz, r_end))
            )
        bz, lz, rz = b_end, l_end, r_end

    i = 0
    n = len(base)
    while i < n:
        if i not in left_at or i not in right_at:
            i += 1
            continue
        start = i
        while (
            i + 1 < n
            and i + 1 in left_at
            and i + 1 in right_at
            and left_at[i + 1] == left_at[i] + 1
            and right_at[i + 1] == right_at[i] + 1
        ):
            i += 1
        emit_gap(start, left_at[start], right_at[start])
        end = i + 1
        chunks.append(
            Chunk(
                "stable",
                (start, end),
                (left_at[start], left_at[start] + end - start),
                (right_at[start], right_at[start] + end - start),
            )
        )
        bz, lz, rz = end, left_at[start] + end - start, right_at[start] + end - start
        i = end
    emit_gap(n, len(left), len(right))
    return chunks


def reference_merge3(base, left, right, trailing_newline=True):
    """The merge as a walk over the reference partition: stable chunks
    stay, and each changed chunk is resolved by the gap rule.

    This is the merge of line lists as ``merge3`` made it before it took
    LF-led pieces, region for region: each stable chunk and each resolved
    gap is a region of its own."""
    regions = []
    for chunk in reference_three_way_chunks(base, left, right):
        if chunk.kind == "stable":
            b0, b1 = chunk.base_range
            regions.append(LineResolved(tuple(base[b0:b1])))
            continue
        b0, b1 = chunk.base_range
        l0, l1 = chunk.left_range
        r0, r1 = chunk.right_range
        b_gap = base[b0:b1]
        l_gap = left[l0:l1]
        r_gap = right[r0:r1]
        if l_gap == r_gap:
            if l_gap:
                regions.append(LineResolved(tuple(l_gap)))
        elif l_gap == b_gap:
            if r_gap:
                regions.append(LineResolved(tuple(r_gap)))
        elif r_gap == b_gap:
            if l_gap:
                regions.append(LineResolved(tuple(l_gap)))
        else:
            regions.append(LineConflict(tuple(l_gap), tuple(b_gap), tuple(r_gap)))
    return text_form(LineOutcome(regions, trailing_newline))


def conflicts(outcome):
    return [region for region in outcome.regions if isinstance(region, Conflict)]


def assert_outcome_form(outcome):
    """No text region of ``outcome`` is empty or next to another, and its
    end is open only where a conflict ends it."""
    kinds = [isinstance(region, bytes) for region in outcome.regions]
    assert all(region for region in outcome.regions if isinstance(region, bytes))
    assert (True, True) not in zip(kinds, kinds[1:])
    assert not outcome.open_end or isinstance(outcome.regions[-1], Conflict)


def assert_same_merge(outcome, reference):
    """``outcome`` renders as ``reference`` does, has its conflicts and
    keeps the outcome form."""
    assert render(outcome, base_marker=True) == render(reference, base_marker=True)
    assert conflicts(outcome) == conflicts(reference)
    assert_outcome_form(outcome)


def test_chunks_partition_all_sequences():
    # the reference partition covers every index once, and merge3 walks it
    rng = random.Random(99)
    alpha = [b"p", b"q", b"r"]
    for _ in range(300):
        base = [alpha[rng.randrange(3)] for _ in range(rng.randint(0, 8))]
        left = [alpha[rng.randrange(3)] for _ in range(rng.randint(0, 8))]
        right = [alpha[rng.randrange(3)] for _ in range(rng.randint(0, 8))]
        chunks = reference_three_way_chunks(base, left, right)
        pos = [0, 0, 0]
        for chunk in chunks:
            for axis, rng_ in enumerate(
                (chunk.base_range, chunk.left_range, chunk.right_range)
            ):
                assert rng_[0] == pos[axis]
                assert rng_[1] >= rng_[0]
                pos[axis] = rng_[1]
            if chunk.kind == "stable":
                b0, b1 = chunk.base_range
                l0, _ = chunk.left_range
                r0, _ = chunk.right_range
                assert base[b0:b1] == left[l0:l0 + b1 - b0] == right[r0:r0 + b1 - b0]
        assert pos == [len(base), len(left), len(right)]
        assert_same_merge(
            merge3(pieces_of(base), pieces_of(left), pieces_of(right)),
            reference_merge3(base, left, right),
        )


CHUNK_LINES = st.lists(st.sampled_from([b"p", b"q", b"r", b"s", b"t"]), max_size=16)


@given(CHUNK_LINES, CHUNK_LINES, CHUNK_LINES, st.booleans())
@settings(max_examples=400)
def test_merge3_equals_reference(base, left, right, trailing):
    # the outcome's trailing LF follows the right side: the others keep theirs
    pieces = pieces_of(base), pieces_of(left), pieces_of(right, trailing)
    assert_same_merge(merge3(*pieces), reference_merge3(base, left, right, trailing))


# -- the stable runs, counted ----------------------------------------------

@pytest.fixture
def stable_runs(monkeypatch):
    """Every stable run ``(i, j, k, n)`` that ``merge3`` walks."""
    walked = []
    find = textmerge._stable_runs

    def counted(lefts, rights):
        for run in find(lefts, rights):
            walked.append(run)
            yield run

    monkeypatch.setattr(textmerge, "_stable_runs", counted)
    return walked


def test_equal_texts_are_one_stable_run(stable_runs):
    lines = [b"line %d" % i for i in range(100_000)]
    outcome = merge3(pieces_of(lines), pieces_of(lines), pieces_of(lines))
    assert stable_runs == [(0, 0, 0, 100_000)]
    assert outcome.regions == [text_of(lines)]


@pytest.mark.parametrize("k", [1, 10, 100])
def test_one_sided_edits_give_one_more_stable_run(stable_runs, k):
    base = [b"line %d" % i for i in range(1000)]
    left = list(base)
    for e in range(1, k + 1):
        left[e * 1000 // (k + 1)] = b"edit %d" % e
    outcome = merge3(pieces_of(base), pieces_of(left), pieces_of(base))
    assert len(stable_runs) == k + 1
    assert outcome.regions == [text_of(left)]


def reference_merge_texts(base, left, right):
    """The line merge of three texts."""
    (b, tb), (l, tl), (r, tr) = line_split(base), line_split(left), line_split(right)
    return reference_merge3(b, l, r, tl if tl != tb else tr)


@given(LINES, LINES, LINES, st.booleans(), st.booleans(), st.booleans())
@settings(max_examples=300)
def test_merge_texts_equals_reference(b, l, r, tb, tl, tr):
    texts = text_of(b, tb), text_of(l, tl), text_of(r, tr)
    assert_same_merge(merge_texts_outcome(*texts), reference_merge_texts(*texts))


# -- merge laws (seeded battery plus hypothesis) -------------------------

def test_merge_laws_seeded_battery():
    rng = random.Random(1234)
    alpha = [b"p", b"q", b"r", b"s"]

    def rnd():
        lines = [alpha[rng.randrange(4)] for _ in range(rng.randint(0, 9))]
        return text_of(lines, rng.random() < 0.8 or not lines)

    for _ in range(1000):
        s, b, l, r = rnd(), rnd(), rnd(), rnd()
        assert merge_text(s, s, s) == (s, 0)
        assert merge_text(b, l, b) == (l, 0)
        assert merge_text(b, b, r) == (r, 0)
        _assert_mirror(b, l, r)


def _assert_mirror(b, l, r):
    fwd = merge_texts_outcome(b, l, r)
    rev = merge_texts_outcome(b, r, l)
    assert len(fwd.regions) == len(rev.regions)
    for x, y in zip(fwd.regions, rev.regions):
        if isinstance(x, bytes):
            assert x == y
        else:
            assert isinstance(y, Conflict)
            assert (x.left, x.base, x.right) == (y.right, y.base, y.left)
    assert fwd.open_end == rev.open_end


@given(LINES, LINES, LINES, st.booleans(), st.booleans(), st.booleans())
@settings(max_examples=300)
def test_merge_laws_hypothesis(b, l, r, tb, tl, tr):
    bt, lt, rt = text_of(b, tb), text_of(l, tl), text_of(r, tr)
    assert merge_text(bt, bt, bt) == (bt, 0)
    assert merge_text(bt, lt, bt) == (lt, 0)
    assert merge_text(bt, bt, rt) == (rt, 0)
    _assert_mirror(bt, lt, rt)


# -- render / count round trip --------------------------------------------

@given(
    st.lists(
        st.one_of(
            st.lists(st.sampled_from([b"p", b"q"]), max_size=3).map(
                lambda ls: LineResolved(tuple(ls))
            ),
            st.tuples(
                st.lists(st.sampled_from([b"p", b"q"]), max_size=2),
                st.lists(st.sampled_from([b"p", b"q"]), max_size=2),
                st.lists(st.sampled_from([b"p", b"q"]), max_size=2),
            ).map(lambda t: LineConflict(tuple(t[0]), tuple(t[1]), tuple(t[2]))),
        ),
        max_size=6,
    ),
    st.booleans(),
    st.booleans(),
)
@settings(max_examples=400)
def test_count_conflicts_matches_outcome(regions, trailing, base_marker):
    outcome = text_form(LineOutcome(list(regions), trailing))
    rendered = render(outcome, base_marker=base_marker)
    assert count_conflicts(rendered) == outcome.conflict_count()


RENDER_LINES = st.lists(st.sampled_from([b"", b"p", b"q\r", b" "]), max_size=3).map(tuple)


@given(
    st.lists(
        st.one_of(
            RENDER_LINES.map(LineResolved),
            st.tuples(RENDER_LINES, RENDER_LINES, RENDER_LINES).map(lambda t: LineConflict(*t)),
        ),
        max_size=6,
    ),
    st.booleans(),
    st.booleans(),
    st.sampled_from([("left", "base", "right"), ("", "b", "ü")]),
)
@settings(max_examples=600)
def test_render_equals_line_by_line_reference(regions, trailing, base_marker, labels):
    outcome = LineOutcome(list(regions), trailing)
    assert render(text_form(outcome), labels, base_marker) == reference_render(
        outcome, labels, base_marker
    )


def test_count_conflicts_plain_and_multi():
    assert count_conflicts(b"class A {\n}\n") == 0
    one = b"<<<<<<< l\nx\n=======\ny\n>>>>>>> r\n"
    assert count_conflicts(one) == 1
    assert count_conflicts(one + b"mid\n" + one) == 2


@pytest.mark.parametrize(
    "bad",
    [
        b"<<<<<<< l\nx\n",
        b">>>>>>> r\n",
        b"<<<<<<< a\n<<<<<<< b\n>>>>>>> c\n",
    ],
)
def test_count_conflicts_rejects_unbalanced(bad):
    with pytest.raises(MarkerError):
        count_conflicts(bad)


# -- joining fragment outcomes ----------------------------------------------

@given(
    st.lists(
        st.tuples(LINES, LINES, LINES, st.booleans(), st.booleans(), st.booleans()),
        max_size=5,
    )
)
@settings(max_examples=400)
def test_join_concatenates_fragments(fragments):
    outcomes = [
        merge_texts_outcome(text_of(b, tb), text_of(l, tl), text_of(r, tr))
        for b, l, r, tb, tl, tr in fragments
    ]
    joined = join(outcomes)
    rendered = render(joined)
    assert joined.conflict_count() == sum(o.conflict_count() for o in outcomes)
    # every marker sits on a line of its own
    assert count_conflicts(rendered) == joined.conflict_count()
    closing = [line for line in rendered.split(b"\n") if line.startswith(b">>>>>>>")]
    assert closing == [b">>>>>>> right"] * joined.conflict_count()
    if not joined.conflict_count():
        assert rendered == b"".join(render(o) for o in outcomes)


def test_join_closes_open_lines_around_conflicts():
    head = merge_texts_outcome(b"class A {", b"class A {", b"class A {")
    body = merge_texts_outcome(b"x\n", b"y\n", b"z")
    tail = merge_texts_outcome(b"\n}\n", b"\n}\n", b"\n}\n")
    assert render(join([head, body, tail])) == (
        b"class A {\n<<<<<<< left\ny\n=======\nz\n>>>>>>> right\n}\n"
    )
    # an open empty line holds no text: the conflict follows the LF before it
    ends_in_lf = MergeOutcome([b"x\n"])
    assert render(ends_in_lf) == b"x\n"
    assert render(join([ends_in_lf, body])) == (
        b"x\n<<<<<<< left\ny\n=======\nz\n>>>>>>> right"
    )


# texts rich in LF, CR, ';' and '{', ending in an LF or in something else
FRAGMENT_TEXT = st.tuples(
    st.lists(st.sampled_from([b"\n", b"\r\n", b"\r", b";", b"{", b"}", b"a", b"(b)"]), max_size=6),
    st.sampled_from([b"\n", b";", b"{", b"\r", b""]),
).map(lambda t: b"".join(t[0]) + t[1])
# a fragment merged as text or through separators, or taken whole as its text
FRAGMENT = st.one_of(
    st.tuples(
        st.sampled_from([merge_texts_outcome, merge_body]),
        FRAGMENT_TEXT, FRAGMENT_TEXT, FRAGMENT_TEXT,
    ).map(lambda t: t[0](*t[1:])),
    FRAGMENT_TEXT,
)


@given(st.lists(FRAGMENT, min_size=1, max_size=5))
@settings(max_examples=500)
def test_joined_and_merged_outcomes_keep_their_form(parts):
    for outcome in [part for part in parts if isinstance(part, MergeOutcome)] + [join(parts)]:
        assert_outcome_form(outcome)


@given(st.lists(FRAGMENT, min_size=1, max_size=5), st.booleans())
@settings(max_examples=500)
def test_join_equals_line_based_reference(parts, base_marker):
    outcomes = [
        MergeOutcome([part] if part else []) if isinstance(part, bytes) else part
        for part in parts
    ]
    # only the last region of a fragment may end without an LF
    assert all(text_form(line_form(outcome)) == outcome for outcome in outcomes)
    joined = join(parts)
    reference = reference_join([line_form(outcome) for outcome in outcomes])
    labels = ("left", "base", "right")
    assert render(joined, labels, base_marker) == reference_render(reference, labels, base_marker)
    assert joined.conflict_count() == reference.conflict_count()
