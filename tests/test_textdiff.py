"""Two-way diff: LCS optimality, alignment invariants, boundary shifting,
and the exactness of pairing flagged lines without a search when the
longest common subsequence is unique."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sesame import textdiff
from sesame.separators import LINE_FIRST_BOUND, mark, merge_body
from sesame.textdiff import Alignment, diff2
from sesame.textmerge import Pieces, merge3, merge_texts_outcome, render, split_lines
from test_textmerge import merge_text, pairs_of, text_of

ALPHA = [b"a", b"b", b"c"]


def lcs_matches(a, b):
    """Matched index pairs of the longest common subsequence that the search
    finds, before the boundary shift."""
    a_changed, b_changed = textdiff._lcs_changed(a, b)
    return pairs_of(Alignment(textdiff._blocks(a_changed, b_changed)))


def shift_boundaries(a, b, matches):
    """The boundary shift of ``matches``: the pairs turned into changed
    flags, shifted on both sides and read back as pairs."""
    a_changed = bytearray([1]) * len(a)
    b_changed = bytearray([1]) * len(b)
    for i, j in matches:
        a_changed[i] = 0
        b_changed[j] = 0
    textdiff._shift_side(a, a_changed, b_changed)
    textdiff._shift_side(b, b_changed, a_changed)
    return pairs_of(Alignment(textdiff._blocks(a_changed, b_changed)))


def lcs_length(a, b):
    """Independent dynamic-programming oracle."""
    n, m = len(a), len(b)
    dp = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            if a[i - 1] == b[j - 1]:
                dp[i][j] = dp[i - 1][j - 1] + 1
            else:
                dp[i][j] = max(dp[i - 1][j], dp[i][j - 1])
    return dp[n][m]


def pairs(alignment: Alignment, len_a: int, len_b: int) -> tuple:
    """Every index of both sequences exactly once, in order, given their
    lengths.  A pair with both indices present is a matched, byte-equal
    segment; a one-sided pair is a deletion (left only) or an insertion
    (right only)."""
    out = []
    ai = bi = 0
    for i, j in pairs_of(alignment):
        out.extend((k, None) for k in range(ai, i))
        out.extend((None, k) for k in range(bi, j))
        out.append((i, j))
        ai, bi = i + 1, j + 1
    out.extend((k, None) for k in range(ai, len_a))
    out.extend((None, k) for k in range(bi, len_b))
    return tuple(out)


def assert_valid_alignment(a, b, alignment: Alignment):
    spelled = pairs(alignment, len(a), len(b))
    left_seen = [i for i, _ in spelled if i is not None]
    right_seen = [j for _, j in spelled if j is not None]
    assert left_seen == list(range(len(a)))
    assert right_seen == list(range(len(b)))
    prev = (-1, -1)
    for i, j in pairs_of(alignment):
        assert a[i] == b[j]
        assert i > prev[0] and j > prev[1]
        prev = (i, j)


def test_empty_sequences():
    al = diff2([], [])
    assert pairs(al, 0, 0) == ()
    assert al.match_count() == 0


def test_identity_single():
    al = diff2([b"x"], [b"x"])
    assert pairs_of(al) == [(0, 0)]


def test_known_subsequence():
    # brute-force over all subsequences of both inputs gives LCS 2: a, c
    a = [b"a", b"b", b"c"]
    b = [b"a", b"c"]
    al = diff2(a, b)
    assert al.match_count() == 2
    assert [a[i] for i, _ in pairs_of(al)] == [b"a", b"c"]


def test_exhaustive_optimality_small():
    for la in range(0, 5):
        for lb in range(0, 5):
            for a in itertools.product(ALPHA, repeat=la):
                for b in itertools.product(ALPHA, repeat=lb):
                    al = diff2(list(a), list(b))
                    assert al.match_count() == lcs_length(a, b)
                    assert_valid_alignment(a, b, al)


def test_randomized_optimality_longer():
    rng = random.Random(20240817)
    for _ in range(3000):
        a = [ALPHA[rng.randrange(3)] for _ in range(rng.randint(0, 16))]
        b = [ALPHA[rng.randrange(3)] for _ in range(rng.randint(0, 16))]
        al = diff2(a, b)
        assert al.match_count() == lcs_length(a, b), (a, b)
        assert_valid_alignment(a, b, al)


def test_determinism():
    rng = random.Random(5)
    for _ in range(200):
        a = [ALPHA[rng.randrange(3)] for _ in range(rng.randint(0, 12))]
        b = [ALPHA[rng.randrange(3)] for _ in range(rng.randint(0, 12))]
        assert diff2(a, b) == diff2(a, b)


def test_insertion_settles_at_latest_position():
    # appending a duplicate line reports the insertion at the end
    al = diff2([b"x"], [b"x", b"x"])
    assert pairs_of(al) == [(0, 0)]
    al = diff2([b"x", b"y"], [b"x", b"x", b"y"])
    assert pairs_of(al) == [(0, 0), (1, 2)]


def test_insertion_merges_with_adjacent_change():
    # the inserted group slides up through the equal '(' line and fuses
    # with the .b -> .g change, keeping the inner (c) matched
    ph = b"$" * 8
    base = [b"a"] + [ph + t for t in (b"(", b")", b".b", b"(", b"c", b")", b".d", b"(", b")", b";")]
    right = [b"a"] + [
        ph + t
        for t in (b"(", b")", b".g", b"(", b"h", b"(", b"c", b")", b")", b".d", b"(", b")", b";")
    ]
    al = diff2(base, right)
    assert pairs_of(al) == [
        (0, 0), (1, 1), (2, 2), (4, 6), (5, 7), (6, 8),
        (7, 10), (8, 11), (9, 12), (10, 13),
    ]


def test_lcs_matches_handles_degenerate_inputs():
    assert lcs_matches([], [b"a"]) == []
    assert lcs_matches([b"a"], []) == []
    assert lcs_matches([b"a", b"a"], [b"a", b"a"]) == [(0, 0), (1, 1)]


def test_alignment_pairs_cover_every_index():
    assert pairs(diff2([], []), 0, 0) == ()
    assert pairs(diff2([b"a", b"b"], []), 2, 0) == ((0, None), (1, None))
    assert pairs(diff2([], [b"a", b"b"]), 0, 2) == ((None, 0), (None, 1))
    same = [b"a", b"b", b"a"]
    assert pairs(diff2(same, same), 3, 3) == ((0, 0), (1, 1), (2, 2))
    rng = random.Random(11)
    for _ in range(500):
        a = [ALPHA[rng.randrange(3)] for _ in range(rng.randint(0, 12))]
        b = [ALPHA[rng.randrange(3)] for _ in range(rng.randint(0, 12))]
        assert_valid_alignment(a, b, diff2(a, b))


# -- exactness of the skips -------------------------------------------------

def reference_diff2(a, b):
    """The search on every subproblem, kept as the specification: the full
    ``pairs`` of the alignment it produced."""
    matches = reference_lcs_matches(a, b)
    matches = shift_boundaries(a, b, matches)
    pairs = []
    ai = bi = 0
    for i, j in matches:
        while ai < i:
            pairs.append((ai, None))
            ai += 1
        while bi < j:
            pairs.append((None, bi))
            bi += 1
        pairs.append((i, j))
        ai, bi = i + 1, j + 1
    while ai < len(a):
        pairs.append((ai, None))
        ai += 1
    while bi < len(b):
        pairs.append((None, bi))
        bi += 1
    return tuple(pairs)


def reference_lcs_matches(a, b):
    table = {}
    ea = [table.setdefault(x, len(table)) for x in a]
    eb = [table.setdefault(x, len(table)) for x in b]
    out = []
    _reference_lcs_recurse(ea, 0, len(ea), eb, 0, len(eb), out)
    return out


def _reference_lcs_recurse(a, a0, a1, b, b0, b1, out):
    while a0 < a1 and b0 < b1 and a[a0] == b[b0]:
        out.append((a0, b0))
        a0 += 1
        b0 += 1
    tail = []
    while a1 > a0 and b1 > b0 and a[a1 - 1] == b[b1 - 1]:
        a1 -= 1
        b1 -= 1
        tail.append((a1, b1))
    if a0 < a1 and b0 < b1:
        d, x0, y0, x1, y1 = _reference_middle_snake(a, a0, a1, b, b0, b1)
        if d > 1:
            _reference_lcs_recurse(a, a0, a0 + x0, b, b0, b0 + y0, out)
            for t in range(x1 - x0):
                out.append((a0 + x0 + t, b0 + y0 + t))
            _reference_lcs_recurse(a, a0 + x1, a1, b, b0 + y1, b1, out)
        else:
            # one insertion or deletion apart: greedy pairing is optimal
            i, j = a0, b0
            while i < a1 and j < b1:
                if a[i] == b[j]:
                    out.append((i, j))
                    i += 1
                    j += 1
                elif (a1 - i) > (b1 - j):
                    i += 1
                else:
                    j += 1
    out.extend(reversed(tail))


def _reference_middle_snake(a, a0, a1, b, b0, b1):
    n = a1 - a0
    m = b1 - b0
    delta = n - m
    odd = delta % 2 != 0
    maxd = (n + m + 1) // 2 + 1
    off = maxd + 1
    vf = [0] * (2 * maxd + 3)
    vb = [0] * (2 * maxd + 3)
    vf[off + 1] = 0
    vb[off + 1] = 0
    for d in range(maxd + 1):
        for k in range(-d, d + 1, 2):
            if k == -d or (k != d and vf[off + k - 1] < vf[off + k + 1]):
                x = vf[off + k + 1]
            else:
                x = vf[off + k - 1] + 1
            y = x - k
            xs, ys = x, y
            while x < n and y < m and a[a0 + x] == b[b0 + y]:
                x += 1
                y += 1
            vf[off + k] = x
            if odd and -(d - 1) <= delta - k <= d - 1:
                if vf[off + k] + vb[off + delta - k] >= n:
                    return 2 * d - 1, xs, ys, x, y
        for k in range(-d, d + 1, 2):
            if k == -d or (k != d and vb[off + k - 1] < vb[off + k + 1]):
                x = vb[off + k + 1]
            else:
                x = vb[off + k - 1] + 1
            y = x - k
            xs, ys = x, y
            while x < n and y < m and a[a1 - 1 - x] == b[b1 - 1 - y]:
                x += 1
                y += 1
            vb[off + k] = x
            if not odd and -d <= delta - k <= d:
                if vb[off + k] + vf[off + delta - k] >= n:
                    return 2 * d, n - x, m - y, n - xs, m - ys
    raise AssertionError("middle snake search failed")


def assert_same_as_reference(a, b):
    al = diff2(a, b)
    assert pairs(al, len(a), len(b)) == reference_diff2(a, b)
    assert_valid_alignment(a, b, al)


SMALL = st.lists(st.sampled_from([b"a", b"b", b"c", b"d"]), max_size=30)


@given(SMALL, SMALL)
@settings(max_examples=500)
def test_diff2_equals_reference_small_alphabet(a, b):
    assert_same_as_reference(a, b)


@st.composite
def edited_pairs(draw):
    """A sequence and a copy changed by deletions, substitutions and
    insertions of lines old and new."""
    base = draw(st.lists(st.integers(0, 9), max_size=40))
    edited = list(base)
    for _ in range(draw(st.integers(0, 8))):
        op = draw(st.sampled_from(["delete", "replace", "insert"]))
        pos = draw(st.integers(0, len(edited)))
        line = draw(st.integers(0, 14))
        if op == "insert":
            edited.insert(pos, line)
        elif pos < len(edited):
            if op == "delete":
                del edited[pos]
            else:
                edited[pos] = line
    return [b"%d" % x for x in base], [b"%d" % x for x in edited]


@given(edited_pairs())
@settings(max_examples=500)
def test_diff2_equals_reference_on_edits(pair):
    assert_same_as_reference(*pair)


@given(st.one_of(edited_pairs(), st.tuples(SMALL, SMALL)))
@settings(max_examples=500)
def test_blocks_are_the_maximal_matching_runs(pair):
    # every block is non-empty and starts past the one before it on both
    # sides, and no block continues the one before it on both sides
    a, b = pair
    al = diff2(a, b)
    ends = None
    for i, j, n in al.blocks:
        assert n > 0
        if ends is not None:
            assert i >= ends[0] and j >= ends[1]
            assert (i, j) != ends
        ends = (i + n, j + n)
    assert pairs(al, len(a), len(b)) == reference_diff2(a, b)


@st.composite
def pairs_with_unique_runs(draw):
    """Small-alphabet sequences with runs of lines that occur on one side
    only, the ranges the search skips."""
    sides = []
    for tag in (b"L", b"R"):
        lines = draw(st.lists(st.sampled_from([b"a", b"b", b"c"]), max_size=20))
        for run in range(draw(st.integers(0, 3))):
            pos = draw(st.integers(0, len(lines)))
            size = draw(st.integers(1, 6))
            lines[pos:pos] = [tag + b"%d.%d" % (run, k) for k in range(size)]
        sides.append(lines)
    return sides


@given(pairs_with_unique_runs())
@settings(max_examples=500)
def test_diff2_equals_reference_with_one_sided_lines(pair):
    assert_same_as_reference(*pair)


@st.composite
def pairs_with_unique_edits(draw):
    """Separator-like lines mixed with unique lines, and a copy with unique
    lines replaced, inserted and deleted, the shape separator marking gives.
    Sometimes the copy also gains or loses a separator-like line, so that
    the flagged lines read alike only in some subproblems."""
    count = iter(range(1000))

    def unique(tag):
        return tag + b"%d" % next(count)

    share = draw(st.sampled_from([0.2, 0.5, 0.8]))
    base = [
        draw(st.sampled_from([b"}", b";", b")", b""])) if draw(st.floats(0, 1)) < share
        else unique(b"u")
        for _ in range(draw(st.integers(0, 40)))
    ]
    edited = list(base)
    for _ in range(draw(st.integers(0, 6))):
        pos = draw(st.integers(0, len(edited)))
        op = draw(st.sampled_from(["replace", "insert", "delete"]))
        if op == "insert":
            edited.insert(pos, unique(b"i"))
        elif pos < len(edited) and edited[pos].startswith(b"u"):
            if op == "replace":
                edited[pos] = unique(b"r")
            else:
                del edited[pos]
    if draw(st.booleans()):
        pos = draw(st.integers(0, len(edited)))
        if draw(st.booleans()) or pos == len(edited):
            edited.insert(pos, draw(st.sampled_from([b"}", b";", b")", b""])))
        else:
            del edited[pos]
    return (base, edited) if draw(st.booleans()) else (edited, base)


@given(pairs_with_unique_edits())
@settings(max_examples=500)
def test_diff2_equals_reference_with_unique_edits(pair):
    assert_same_as_reference(*pair)


# -- comparison by value ----------------------------------------------------

def fresh_copies(lines):
    """Every piece as a new ``bytes`` object equal to it (CPython shares
    every empty and one-byte ``bytes`` object, so those stay shared)."""
    return [bytes(bytearray(line)) for line in lines]


def shared_copies(lines, table):
    """Equal pieces, across every list copied with one ``table``, as one
    shared object."""
    return [table.setdefault(line, line) for line in lines]


@given(st.one_of(edited_pairs(), pairs_with_unique_edits(), st.tuples(SMALL, SMALL)))
@settings(max_examples=300)
def test_diff2_is_blind_to_object_identity(pair):
    expected = diff2(*pair)
    # pieces of six bytes or more, so that fresh copies are new objects
    a, b = ([b"piece " + line for line in side] for side in pair)
    fa, fb = fresh_copies(a), fresh_copies(b)
    assert not any(x is y for x, y in zip(fa + fb, a + b))
    table = {}
    sa, sb = shared_copies(a, table), shared_copies(b, table)
    assert all(x is table[x] for x in sa + sb)
    assert diff2(a, b) == diff2(fa, fb) == diff2(sa, sb) == expected


TEXT = st.lists(st.sampled_from([b"p", b"q", b"r", b"s"]), max_size=12).map(text_of)


@given(TEXT, TEXT, TEXT)
@settings(max_examples=300)
def test_merge_is_blind_to_object_identity(base, left, right):
    expected = merge_texts_outcome(base, left, right)
    rendered = merge_text(base, left, right)
    sides = [split_lines(text) for text in (base, left, right)]
    table = {}
    for copy in (list, fresh_copies, lambda lines: shared_copies(lines, table)):
        outcome = merge3(*(Pieces(copy(side.lines), side.trailing_newline) for side in sides))
        assert outcome == expected
        assert (render(outcome), outcome.conflict_count()) == rendered


# -- the skips, counted -----------------------------------------------------

@pytest.fixture
def snake_calls(monkeypatch):
    """Every (a0, a1, b0, b1) range the middle-snake search is run on."""
    calls = []
    search = textdiff._middle_snake

    def counted(a, a0, a1, b, b0, b1):
        calls.append((a0, a1, b0, b1))
        return search(a, a0, a1, b, b0, b1)

    monkeypatch.setattr(textdiff, "_middle_snake", counted)
    return calls


def test_share_nothing_runs_no_search(snake_calls):
    a = [b"a%d" % i for i in range(3000)]
    b = [b"b%d" % i for i in range(3000)]
    al = diff2(a, b)
    assert snake_calls == []
    assert al.match_count() == 0
    assert_valid_alignment(a, b, al)


@pytest.mark.parametrize("outside_edits", [(), (100, 1900)])
def test_rewritten_block_is_not_searched(snake_calls, outside_edits):
    a = [b"line %d" % i for i in range(2000)]
    b = list(a)
    b[500:1500] = [b"new %d" % i for i in range(1000)]
    for i in outside_edits:
        b[i] = b"edit %d" % i
    al = diff2(a, b)
    assert not [
        c for c in snake_calls
        if 500 <= c[0] and c[1] <= 1500 and 500 <= c[2] and c[3] <= 1500
    ]
    assert snake_calls == []
    # every line is unique, so the one longest common subsequence is known
    kept = set(range(500)) | set(range(1500, 2000))
    assert pairs_of(al) == [(i, i) for i in sorted(kept - set(outside_edits))]


def unique_edits_body():
    """3000 statements, each marking to two spans of unique text and its
    separators; 300 argument spans, 5% of the 6000 text spans, are
    rewritten, half of them on each side.  Base, left and right texts."""
    rng = random.Random(20)
    base = [b"    v%d = f%d(a%d, b%d);\n" % (k, k, k, k) for k in range(3000)]
    left, right = list(base), list(base)
    for k in rng.sample(range(3000), 300):
        side, tag = (left, b"l") if k % 2 else (right, b"r")
        side[k] = side[k].replace(b"(a%d," % k, b"(%s%d," % (tag, k))
    return tuple(b"".join(x) for x in (base, left, right))


def test_marked_body_with_unique_edits_is_not_searched(snake_calls):
    # the whole body marked, as merge_body does below LINE_FIRST_BOUND
    base, left, right = unique_edits_body()
    outcome = merge3(mark(base), mark(left), mark(right))
    assert snake_calls == []
    assert outcome.conflict_count() == 0


def test_long_body_with_unique_edits_is_merged_line_first(snake_calls, marked):
    # above the bound only the line gaps where left's and right's edits
    # meet are marked, and they are merged as the whole body would be
    texts = unique_edits_body()
    outcome = merge_body(*texts)
    assert snake_calls == []
    line_conflicts = merge_texts_outcome(*texts).conflict_count()
    assert line_conflicts == 26
    assert len(marked) == 3 * line_conflicts
    assert outcome == merge3(*(mark(text) for text in texts))
    assert outcome.conflict_count() == 0


def closing_braces(n, tag, fewer=None):
    """``n`` unique lines, with a ``}`` on every tenth line, or in its place
    one more unique line at index ``fewer``."""
    return [
        b"}" if k % 10 == 9 and k != fewer else tag + b"%d" % k for k in range(n)
    ]


def test_shared_braces_in_equal_counts_are_not_searched(snake_calls):
    a = closing_braces(2000, b"a")
    b = closing_braces(2000, b"b")
    al = diff2(a, b)
    assert snake_calls == []
    assert pairs_of(al) == [(k, k) for k in range(9, 2000, 10)]


def test_shared_braces_one_fewer_are_searched_where_counts_differ(snake_calls):
    # the LCS is not unique, so the search runs, but only on ranges that
    # hold different numbers of braces: the rule pairs the others
    a = closing_braces(400, b"a")
    b = closing_braces(400, b"b", fewer=209)
    al = diff2(a, b)
    assert snake_calls
    assert all(
        a[a0:a1].count(b"}") != b[b0:b1].count(b"}") for a0, a1, b0, b1 in snake_calls
    )
    assert pairs(al, len(a), len(b)) == reference_diff2(a, b)


def test_realistic_shape_with_unequal_separator_counts_bounds_the_search(snake_calls):
    # a body of statements; left rewrites every fourth one with one more
    # '(' and ')', so the LCS is not unique, and right inserts one block in
    # the middle.  The count is the search as it stands, a baseline for a
    # cost bound to beat.
    n = 200
    base = [b"    v%d = f%d(x%d, y);\n" % (k, k, k) for k in range(n)]
    left = [
        b"    w%d = g%d(h(z%d));\n" % (k, k, k) if k % 4 == 3 else line
        for k, line in enumerate(base)
    ]
    right = base[:n // 2] + [b"    if (c) { k(); }\n"] + base[n // 2:]
    outcome = merge_body(*(b"".join(x) for x in (base, left, right)))
    assert len(snake_calls) <= 161
    assert outcome.conflict_count() == 0


def statement_body(n):
    """The shape above at ``n`` statements: base, left and right texts."""
    base = [b"    v%d = f%d(x%d, y);\n" % (k, k, k) for k in range(n)]
    left = [
        b"    w%d = g%d(h(z%d));\n" % (k, k, k) if k % 4 == 3 else line
        for k, line in enumerate(base)
    ]
    right = base[:n // 2] + [b"    if (c) { k(); }\n"] + base[n // 2:]
    return tuple(b"".join(x) for x in (base, left, right))


@pytest.mark.parametrize("n", [1000, 4000])
def test_long_body_with_unequal_separator_counts_is_merged_line_first(snake_calls, marked, n):
    # above the bound, the body's lines are merged first, and only the gap
    # where right's insertion meets left's rewrite is marked.  Whole-body
    # marking searched this shape 584 to 2339 times; the line diffs pair
    # their unique lines without a search, and the marked gap, one statement
    # with one more '(' and ')' on left, is searched at most once per diff.
    assert n > LINE_FIRST_BOUND
    texts = statement_body(n)
    outcome = merge_body(*texts)
    gap = max(len(mark(text).lines) for text in marked)
    assert len(snake_calls) <= 2
    assert all(a1 <= gap and b1 <= gap for _, a1, _, b1 in snake_calls)
    line_conflicts = merge_texts_outcome(*texts).conflict_count()
    assert line_conflicts == 1
    assert len(marked) == 3 * line_conflicts
    assert outcome.conflict_count() == 0


def test_merge_text_share_nothing_is_one_conflict():
    base = b"".join(b"base %d\n" % i for i in range(3000))
    left = b"".join(b"left %d\n" % i for i in range(3000))
    right = b"".join(b"right %d\n" % i for i in range(3000))
    out, conflicts = merge_text(base, left, right)
    assert conflicts == 1
    assert out.startswith(b"<<<<<<< left\nleft 0\n")


# -- the middle snake and the boundary shift against the plain loops -------

def reference_shift_boundaries(a, b, matches):
    """The boundary shift walked one line at a time, kept as the
    specification of ``_shift_side`` on both sides."""
    a_changed = bytearray([1]) * len(a)
    b_changed = bytearray([1]) * len(b)
    for i, j in matches:
        a_changed[i] = 0
        b_changed[j] = 0
    _reference_shift_side(a, a_changed, b_changed)
    _reference_shift_side(b, b_changed, a_changed)
    out = []
    i = j = 0
    n, m = len(a), len(b)
    while True:
        while i < n and a_changed[i]:
            i += 1
        while j < m and b_changed[j]:
            j += 1
        if i >= n or j >= m:
            break
        out.append((i, j))
        i += 1
        j += 1
    return out


def _reference_shift_side(lines, changed, other_changed):
    i = 0
    j = 0
    i_end = len(lines)
    j_end = len(other_changed)
    while True:
        while i < i_end and not changed[i]:
            while j < j_end and other_changed[j]:
                j += 1
            j += 1
            i += 1
        if i >= i_end:
            break
        start = i
        i += 1
        while i < i_end and changed[i]:
            i += 1
        while j < j_end and other_changed[j]:
            j += 1
        while True:
            runlength = i - start
            while start > 0 and lines[start - 1] == lines[i - 1]:
                changed[start - 1] = 1
                changed[i - 1] = 0
                start -= 1
                i -= 1
                while start > 0 and changed[start - 1]:
                    start -= 1
                j -= 1
                while j > 0 and other_changed[j]:
                    j -= 1
            corresponding = i if j > 0 and other_changed[j - 1] else i_end
            while i < i_end and lines[start] == lines[i]:
                changed[start] = 0
                changed[i] = 1
                start += 1
                i += 1
                while i < i_end and changed[i]:
                    i += 1
                j += 1
                while j < j_end and other_changed[j]:
                    corresponding = i
                    j += 1
            if runlength == i - start:
                break
        while corresponding < i:
            changed[start - 1] = 1
            changed[i - 1] = 0
            start -= 1
            i -= 1
            while start > 0 and changed[start - 1]:
                start -= 1
            j -= 1
            while j > 0 and other_changed[j]:
                j -= 1


@st.composite
def subproblems(draw):
    """Two sequences, often one an edited copy of the other so that long
    snakes occur, and a subrange of each; either range may be empty."""
    alphabet = draw(st.integers(1, 5))
    a = draw(st.lists(st.integers(0, alphabet - 1), max_size=60))
    if draw(st.booleans()):
        b = list(a)
        for _ in range(draw(st.integers(0, 6))):
            pos = draw(st.integers(0, len(b)))
            if draw(st.booleans()) and pos < len(b):
                del b[pos]
            else:
                b.insert(pos, draw(st.integers(0, alphabet)))
    else:
        b = draw(st.lists(st.integers(0, alphabet - 1), max_size=60))
    a0 = draw(st.integers(0, len(a)))
    a1 = draw(st.integers(a0, len(a)))
    b0 = draw(st.integers(0, len(b)))
    b1 = draw(st.integers(b0, len(b)))
    return a, a0, a1, b, b0, b1


@given(subproblems())
@settings(max_examples=1500)
def test_middle_snake_equals_reference(problem):
    a, a0, a1, b, b0, b1 = problem
    if a1 - a0 + b1 - b0 == 0:
        return  # the search is only run on a non-empty pair of ranges
    assert textdiff._middle_snake(*problem) == _reference_middle_snake(*problem)


@pytest.mark.parametrize(
    "a, b",
    [
        # both searches store positions past n or m, with odd and even
        # differences of length
        ([], [1, 2, 3]),
        ([1, 2, 3], []),
        ([], [1, 2]),
        ([1, 2, 3, 4], [5, 6]),
        ([1], [2, 1, 2, 2, 1, 2]),
        ([2, 1, 2, 2, 1, 2], [1]),
        # one shared run at either end
        ([0] * 40 + [1], [0] * 40),
        ([1] + [0] * 40, [0] * 40 + [2]),
        # snakes of 130 pieces, ending at n and at m
        (list(range(130)), [-1] + list(range(130))),
        (list(range(130)) + [-1], list(range(130))),
        # snakes of 5000 pieces or more that end at both n and m, in the
        # forward search and, from the start of equal ranges, the reverse one
        (list(range(5001)), list(range(5001))),
        ([-1] + list(range(5001)), list(range(5001))),
    ],
)
def test_middle_snake_equals_reference_at_the_edges(a, b):
    for a0, b0 in ((0, 0), (1, 0), (0, 1)):
        if a0 <= len(a) and b0 <= len(b) and len(a) - a0 + len(b) - b0 > 0:
            problem = (a, a0, len(a), b, b0, len(b))
            assert textdiff._middle_snake(*problem) == _reference_middle_snake(*problem)


def test_middle_snake_equals_reference_on_long_edited_copies():
    rng = random.Random(20261018)
    for _ in range(150):
        a = [rng.randrange(4) for _ in range(rng.randint(50, 400))]
        b = list(a)
        for _ in range(rng.randint(1, 12)):
            pos = rng.randrange(len(b) + 1)
            if rng.random() < 0.5 and pos < len(b):
                del b[pos]
            else:
                b.insert(pos, rng.randrange(6))
        a0, b0 = rng.randrange(5), rng.randrange(5)
        a1, b1 = len(a) - rng.randrange(5), len(b) - rng.randrange(5)
        problem = (a, a0, a1, b, b0, b1)
        assert textdiff._middle_snake(*problem) == _reference_middle_snake(*problem)


@given(edited_pairs())
@settings(max_examples=1500)
def test_shift_boundaries_equals_reference(pair):
    a, b = pair
    matches = reference_lcs_matches(a, b)
    assert list(shift_boundaries(a, b, matches)) == reference_shift_boundaries(
        a, b, matches
    )


def test_shift_boundaries_equals_reference_on_small_alphabets():
    rng = random.Random(7)
    for _ in range(3000):
        a = [ALPHA[rng.randrange(3)] for _ in range(rng.randint(0, 30))]
        b = [ALPHA[rng.randrange(3)] for _ in range(rng.randint(0, 30))]
        matches = reference_lcs_matches(a, b)
        assert list(shift_boundaries(a, b, matches)) == reference_shift_boundaries(
            a, b, matches
        )


def closer_runs(rng, n):
    """About n lines: runs of one to six closing braces, each ended by a
    statement line drawn from a small set, so runs of changes slide."""
    out = []
    while len(out) < n:
        out += [b"}"] * rng.randint(1, 6) + [b"s%d;" % rng.randrange(12)]
    return out


def test_shift_boundaries_equals_reference_on_long_closer_runs():
    for seed in range(6):
        rng = random.Random(seed)
        a = closer_runs(rng, 3000)
        b = []
        for line in a:
            roll = rng.random()
            if line == b"}" and roll < 0.03:
                continue  # a closer deleted
            b.append(line)
            if line == b"}" and roll > 0.97:
                b.append(line)  # a closer doubled
            elif line != b"}" and roll < 0.05:
                b[-1] = b"t%d;" % rng.randrange(12)  # a statement changed
        at = rng.randrange(len(b) - 300)
        b[at:at + 300] = closer_runs(rng, 300)
        for x, y in ((a, b), (b, a)):
            # the reference LCS is too slow at this size; the shift is not
            matches = lcs_matches(x, y)
            assert list(shift_boundaries(x, y, matches)) == reference_shift_boundaries(
                x, y, matches
            )
