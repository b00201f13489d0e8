"""Separator marking into LF-led pieces, and separator-enhanced body merging."""

import random
import timeit

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sesame import separators
from sesame.lexer import TOKEN
from sesame.separators import LINE_FIRST_BOUND, SeparatorSet, mark, merge_body, pick_placeholder
from sesame.textmerge import (
    Conflict, MergeOutcome, Pieces, count_conflicts, join, merge3, merge_texts_outcome, render,
)
from test_lexer import CODE, reference_lex_states
from test_textdiff import statement_body
from test_textmerge import (
    assert_outcome_form, conflicts, line_split, merge_text, reference_merge3, rejoined, text_of,
)

PH = b"$" * 4


def roundtrip(text: bytes) -> bytes:
    """``text`` marked, then its pieces rejoined."""
    rejoined_text = rejoined(mark(text))
    assert rejoined_text[:1] == b"\n"
    return rejoined_text[1:]


# -- separator sets -------------------------------------------------------

def test_default_separator_set():
    assert SeparatorSet().separators == ("{", "}", "(", ")", ";")


def test_separator_set_from_spec():
    assert SeparatorSet.from_spec("{,},(,),;").separators == ("{", "}", "(", ")", ";")
    assert SeparatorSet.from_spec("{,}").separators == ("{", "}")


@pytest.mark.parametrize(
    "bad",
    [(), ("{{",), ("\n",), ("$",), ("{", "{"), ("\u20ac",), ("\u00e2",)],
)
def test_separator_set_rejects_invalid(bad):
    with pytest.raises(ValueError):
        SeparatorSet(tuple(bad))


# -- marking --------------------------------------------------------------

def test_mark_without_separators_is_plain_split():
    m = mark(b"alpha\nbeta\n")
    assert m.lines == [b"\nalpha", b"\nbeta"]
    assert m.trailing_newline


def test_mark_isolates_each_separator():
    m = mark(b"a().b(c).d();\n")
    assert m.lines == [b"\na", b"(", b")", b".b", b"(", b"c", b")", b".d", b"(", b")", b";"]


def test_consecutive_separators_make_consecutive_lines():
    m = mark(b"();")
    assert m.lines == [b"\n", b"(", b")", b";"]


def test_mark_splits_condition_from_block_opening():
    # the brace opening an if-body lands on its own line, so edits to the
    # condition and edits to the body fall in non-adjacent regions
    m = mark(b'if (list.isEmpty()) { return "x"; }\n', SeparatorSet(("{", "}")))
    assert m.lines == [b"\nif (list.isEmpty()) ", b"{", b' return "x"; ', b"}"]


def test_mark_leaves_literals_and_comments_alone():
    text = b's = "a{b};(c)"; c = \'{\'; // tail(comment;)\n/* {;} */\n'
    m = mark(text)
    # the only isolated separators are the two real statement semicolons
    assert sum(1 for line in m.lines if line in (b"{", b"}", b"(", b")", b";")) == 2
    assert rejoined(m) == b"\n" + text


def test_mark_leaves_a_text_block_alone():
    text = b'f("""\n  {;}\n  """);\n'
    m = mark(text)
    assert m.lines == [b"\nf", b"(", b'"""', b"\n  {;}", b'\n  """', b")", b";"]
    assert m == reference_pieces(text)


def test_mark_custom_separator_subset():
    m = mark(b"f(x);", SeparatorSet((";",)))
    assert m.lines == [b"\nf(x)", b";"]


@pytest.mark.parametrize(
    "text",
    [
        b"",
        b"x",
        b"x\n",
        b"{",
        b"}{",
        b"(((;;;)))",
        b"a;\r\nb;\r\n",
        b"a\r;b",
        b"no final newline;",
        b'if (a) { return "x{y}"; } // not(this);\n',
        b"/* {(;)} */ int x = 1;\n",
        b"char c = '{';\nchar d = '\\'';\n",
        b'String s = "unterminated {;\nint y;\n',
        b"$$$$$$$$ placeholder-like line;\n",
        b"\n\n\n",
    ],
)
def test_roundtrip_specific(text):
    assert roundtrip(text) == text


@given(
    st.lists(
        st.sampled_from(
            [
                b"{", b"}", b"(", b")", b";",
                b'"str{;}"', b"'('", b"'\\''",
                b"// comment;(\n", b"/* block; */",
                b"word", b" ", b"\n", b"\r\n", b"\t",
                b"$", b"$$$$$$$$", b"\\",
            ]
        ),
        max_size=30,
    )
)
@settings(max_examples=500)
def test_roundtrip_hypothesis(pieces):
    text = b"".join(pieces)
    assert roundtrip(text) == text


@given(st.binary(max_size=120))
@settings(max_examples=300)
def test_roundtrip_arbitrary_bytes(data):
    assert roundtrip(data) == data


# -- the placeholder model, kept as the reference ------------------------------
#
# ``mark`` used to return the lines of a marked text: the text with an LF
# and a placeholder ``$`` run inserted before each code separator and
# before text that follows one on its line.  ``merge_body`` merged the
# marked lines of all three texts, marked with one placeholder, and
# ``unmark`` turned each run of resolved regions and each conflict side
# back into text.  The marking, the projection and that merge stay here
# as references.

def reference_mark(text, seps=None, placeholder=None):
    """The original byte-at-a-time ``mark``: (marked lines, whether the
    text ends in an LF)."""
    seps = seps or SeparatorSet()
    ph = placeholder if placeholder is not None else pick_placeholder([text])
    sep_bytes = frozenset(ord(s) for s in seps.separators)
    states = reference_lex_states(text)
    out = bytearray()
    pending = False  # next ordinary byte continues on an inserted line
    for i, c in enumerate(text):
        if c in sep_bytes and states[i] == CODE:
            out += b"\n" + ph
            out.append(c)
            pending = True
        elif c == ord("\n"):
            out.append(c)
            pending = False
        else:
            if pending:
                out += b"\n" + ph
                pending = False
            out.append(c)
    return line_split(bytes(out))


def reference_unmark(text, placeholder):
    """Reverse the marking on a marked text: drop inserted breaks and
    prefixes.  A placeholder that is not a line prefix cannot have come
    from marking."""
    if text.startswith(placeholder):
        text = text[len(placeholder):]
    parts = text.split(b"\n" + placeholder)
    assert placeholder not in b"\n".join(parts), "placeholder found mid-line"
    return b"".join(parts)


def reference_merge_body(base, left, right, seps=None):
    """The merge of marked lines, projected back to text with
    ``reference_unmark``: the text of each run of resolved regions, and
    each conflict side, separately."""
    ph = pick_placeholder([base, left, right])
    (b, tb), (l, tl), (r, tr) = (reference_mark(t, seps, ph) for t in (base, left, right))
    raw = reference_merge3(b, l, r, tl if tl != tb else tr)
    regions = []
    run = []  # marked text of consecutive resolved regions
    for region in raw.regions:
        if isinstance(region, bytes):
            run.append(region)
            continue
        if run:
            regions.append(reference_unmark(b"".join(run), ph))
            run = []
        sides = (reference_unmark(side, ph) for side in (region.left, region.base, region.right))
        regions.append(Conflict(*sides))
    if run:
        regions.append(reference_unmark(b"".join(run), ph))
    return MergeOutcome(regions, raw.open_end)


def reference_pieces(text, seps=None):
    """The pieces of ``text`` from its reference marking: a line that an
    inserted break starts loses the placeholder, and any other is led by
    an LF."""
    ph = pick_placeholder([text])
    lines, trailing = reference_mark(text, seps, ph)
    return Pieces([line[len(ph):] if line.startswith(ph) else b"\n" + line for line in lines], trailing)


def assert_merges_as_reference(base, left, right, seps=None):
    outcome = merge_body(base, left, right, seps)
    reference = reference_merge_body(base, left, right, seps)
    assert render(outcome, base_marker=True) == render(reference, base_marker=True)
    assert conflicts(outcome) == conflicts(reference)


@given(
    st.lists(
        st.sampled_from(list(b"{}();\"'\\/*\n\r $ax,.\t")), max_size=120
    ).map(bytes),
    st.sampled_from(
        [None, SeparatorSet((";",)), SeparatorSet((",", ".", " ")), SeparatorSet(("\\", "*", "'"))]
    ),
)
@settings(max_examples=800)
def test_mark_matches_reference(text, seps):
    # same pieces, so as many as the reference's lines, and the same final LF
    assert mark(text, seps) == reference_pieces(text, seps)


def test_mark_matches_reference_on_corpus(corpus_dir):
    for path in sorted(corpus_dir.glob("*.java")):
        text = path.read_bytes()
        assert mark(text) == reference_pieces(text), path.name


def test_containment_original_bytes_survive():
    rng = random.Random(7)
    bits = [b"{", b"}", b";", b"x", b"\n", b'"{"']
    for _ in range(200):
        text = b"".join(rng.choice(bits) for _ in range(rng.randint(0, 20)))
        m = mark(text)
        # without their leading LFs the pieces are the text without its LFs
        assert b"".join(line.removeprefix(b"\n") for line in m.lines) == text.replace(b"\n", b"")
        assert rejoined(m) == b"\n" + text
        assert original_breaks_lead_pieces(m, text)


def original_breaks_lead_pieces(m: Pieces, text: bytes) -> bool:
    # the first piece, and one more for every LF of the text that does not
    # end it, are led by an LF, and no piece holds another LF
    led = sum(1 for line in m.lines if line.startswith(b"\n"))
    unled = all(b"\n" not in line[1:] for line in m.lines)
    return unled and led == bool(m.lines) + text.count(b"\n") - text.endswith(b"\n")


# -- placeholder selection --------------------------------------------------

def test_placeholder_grows_past_collisions():
    assert pick_placeholder([b"plain"]) == PH
    assert pick_placeholder([b"$$$$"]) == PH + PH
    assert pick_placeholder([PH + PH]) == PH * 4


def test_mark_uses_collision_free_placeholder():
    # the text holds the shortest placeholder, so the cuts take a longer one
    text = b"$$$$$$$$;x\n"
    m = mark(text)
    assert m.lines == [b"\n$$$$$$$$", b";", b"x"]
    assert rejoined(m) == b"\n" + text


# -- marking time against text length ---------------------------------------

def scaled_text(n):
    """``n`` statements with literals and comments, and in their middle a
    block comment and a text block of ``n`` lines each and a string literal
    and a line comment of ``n`` runs each: the text, and each of its longest
    tokens, grows in proportion to ``n``."""
    statements = [
        b"    v%d = f%d(x%d, \"s;%d\", 'c'); // c(%d);\n" % (k, k, k, k, k) for k in range(n)
    ]
    comment = b"    /* " + b"".join(b" * (%d); {\n" % k for k in range(n)) + b" */\n"
    block = b'    s = """\n' + b"".join(b'  (%d); \\" }\n' % k for k in range(n)) + b'  """;\n'
    literal = b'    t = "' + b'(;\\"' * n + b'";\n'
    line = b"    // " + b"{(;" * n + b"\n"
    half = n // 2
    return b"".join(statements[:half] + [comment, block, literal, line] + statements[half:])


def mark_seconds_per_kb(text):
    """The best of seven timings of ``mark`` on ``text``, per KB."""
    number = max(1, 200_000 // len(text))
    best = min(timeit.repeat(lambda: mark(text), number=number, repeat=7))
    return best / number / len(text) * 1024


def test_mark_time_grows_in_proportion_to_the_text():
    # Above LINE_FIRST_BOUND merge_body marks only the line gaps that
    # conflict, so no benchmark run marks a long text; this bound stands in
    # for CI's mark.scale at real sizes.  A cut or a token pattern that
    # grows faster than its input shows in a text 32 times as long; linear
    # marking reads about 0.9 here.
    short, long = scaled_text(64), scaled_text(2048)
    assert len(long) > 150_000
    assert mark_seconds_per_kb(long) <= 2.0 * mark_seconds_per_kb(short)


# -- '$' runs -----------------------------------------------------------------

# lines built from '$' runs shorter than, as long as and longer than the
# placeholder, so runs meet across line ends, inside lines and at the cuts
_UNMARK_PIECES = st.sampled_from([b"", b"x", b"$", b"$$$", b"$$$$$$$", PH, PH + b"$", b";", b"\r"])
_UNMARK_LINES = st.lists(st.lists(_UNMARK_PIECES, max_size=4).map(b"".join), max_size=8)


@given(_UNMARK_LINES, _UNMARK_LINES, _UNMARK_LINES, st.booleans())
@settings(max_examples=1000)
def test_unmark_equals_reference(base, left, right, trailing):
    # what ``merge3`` makes of the pieces is what the reference made of
    # the marked lines with ``reference_unmark``
    texts = text_of(base, trailing), text_of(left), text_of(right, not trailing)
    assert_merges_as_reference(*texts)


@pytest.mark.parametrize(
    "lines",
    [
        # '$'s ending a line, then a line starting with '$'s: together
        # they would spell a placeholder
        [b"x$$$$", PH + b"$$$$;"],
        [b"$$$$$$$", PH + b"$"],
        [PH + b"$$$", PH + b"$$$$$"],
        # placeholders inside a line, and '$'s next to a separator
        [b"a", PH + PH],
        [b"a$$$$", PH + b"$$$$" + PH],
        [PH + b"x" + PH],
        [],
        [b""],
        [PH],
    ],
)
def test_unmark_equals_reference_on_dollar_runs(lines):
    for trailing in (False, True):
        text = text_of(lines, trailing)
        assert roundtrip(text) == text
        for left, right in ((text, text), (text + b"y;", text), (b"$;" + text, text + b"$")):
            assert_merges_as_reference(text, left, right)
            assert_merges_as_reference(text, right, left)


def test_unmark_keeps_dollars_that_meet_across_a_join():
    # the '$'s next to a cut stay in their pieces, and in the merged text
    text = b"x$$$$;$$$$$$$;"
    assert mark(text).lines == [b"\nx$$$$", b";", b"$$$$$$$", b";"]
    left = b"x$$$$;$$$$$$$;y"
    right = b"z$$$$;$$$$$$$;"
    assert render(merge_body(text, left, right)) == b"z$$$$;$$$$$$$;y"


# -- merge_body ---------------------------------------------------------------

def test_merge_body_clean_on_unrelated_edits():
    base = b"a().b(c).d();\n"
    left = b"a().b(e).d();\n"
    right = b"a().g(h(c)).d();\n"
    outcome = merge_body(base, left, right)
    assert outcome.conflict_count() == 0
    assert render(outcome) == b"a().g(h(e)).d();\n"


def test_merge_body_same_statement_split_by_semicolon():
    base = b"int a = 1; int b = 2;\n"
    left = b"int a = 10; int b = 2;\n"
    right = b"int a = 1; int b = 20;\n"
    outcome = merge_body(base, left, right)
    assert outcome.conflict_count() == 0
    assert render(outcome) == b"int a = 10; int b = 20;\n"


def test_merge_body_conflict_without_placeholders():
    outcome = merge_body(b"if (a) { x; }\n", b"if (b) { x; }\n", b"if (c) { x; }\n")
    assert outcome.conflict_count() == 1
    rendered = render(outcome)
    assert b"$" not in rendered
    assert rendered == (
        b"if (\n<<<<<<< left\nb\n=======\nc\n>>>>>>> right\n) { x; }\n"
    )


def test_merge_body_conflict_sides_rejoined():
    # both rewrite the same parenthesized region: the conflict must carry
    # each side's original text, rejoined across inserted breaks
    outcome = merge_body(
        b"f(one, two);\n", b"f(ONE, two, three);\n", b"f(1);\n"
    )
    rendered = render(outcome)
    assert count_conflicts(rendered) == outcome.conflict_count() == 1
    assert b"ONE, two, three" in rendered
    assert b"$" not in rendered


def test_merge_body_degenerate_equals_plain_merge():
    rng = random.Random(41)
    words = [b"alpha", b"beta", b"gamma", b""]
    for _ in range(200):
        def txt():
            lines = [words[rng.randrange(4)] for _ in range(rng.randint(0, 6))]
            body = b"\n".join(lines)
            return body + (b"\n" if lines and rng.random() < 0.8 else b"")
        b, l, r = txt(), txt(), txt()
        plain, n = merge_text(b, l, r)
        enhanced = render(merge_body(b, l, r))
        assert enhanced == plain
        assert count_conflicts(enhanced) == n


@given(
    st.lists(
        st.sampled_from([b"x;", b"y;", b"{", b"}", b"f(a)", b"word\n", b'"s;"']),
        max_size=10,
    ),
    st.lists(
        st.sampled_from([b"x;", b"y;", b"{", b"}", b"f(b)", b"word\n", b'"t;"']),
        max_size=10,
    ),
    st.lists(
        st.sampled_from([b"x;", b"z;", b"{", b"}", b"g(c)", b"other\n"]),
        max_size=10,
    ),
)
@settings(max_examples=300)
def test_merge_body_never_leaks_placeholders(b, l, r):
    base, left, right = b"".join(b), b"".join(l), b"".join(r)
    rendered = render(merge_body(base, left, right))
    assert b"$" not in rendered
    count_conflicts(rendered)  # and markers stay balanced


SEP_TEXT = st.lists(
    st.sampled_from(
        [b"x;", b"y;", b"{", b"}", b"(", b")", b"f(a)", b"word\n", b"\n", b"\r\n",
         b'"s;"', b"// c;\n", b"/* ;\n */", b"$$$", PH]
    ),
    max_size=12,
).map(b"".join)


@given(SEP_TEXT, SEP_TEXT, SEP_TEXT, st.sampled_from([None, SeparatorSet((";",)), SeparatorSet(("{", "}"))]))
@settings(max_examples=1000)
def test_merge_body_equals_reference(base, left, right, seps):
    assert_merges_as_reference(base, left, right, seps)


# -- long bodies, merged by lines first ---------------------------------------

# more unique lines than the bound, so that a body that starts with them
# is merged by lines first
FILLER = b"".join(b"    filler%d();\n" % k for k in range(LINE_FIRST_BOUND + 1))

# no '$', so none can come from the input, and no token that holds an LF
LONG_TAIL = st.builds(
    lambda parts, final_lf: FILLER + b"".join(parts) + final_lf,
    st.lists(
        st.sampled_from(
            [b"x;", b"y;", b"{", b"}", b"(", b")", b"f(a)", b"g(b, c)", b"word",
             b"\n", b"\r\n", b"\n", b'"s;"', b"// c;\n", b"'('"]
        ),
        max_size=12,
    ),
    st.sampled_from([b"", b"\n"]),
)


def mirrored(outcome):
    regions = [
        Conflict(r.right, r.base, r.left) if isinstance(r, Conflict) else r
        for r in outcome.regions
    ]
    return MergeOutcome(regions, outcome.open_end)


@given(LONG_TAIL, LONG_TAIL, LONG_TAIL)
@settings(max_examples=300)
def test_line_first_merge_keeps_the_merge_laws(base, left, right):
    # a change on one side only, or alike on both, is taken
    for triple, taken in (((base, left, base), left), ((base, base, right), right),
                          ((base, left, left), left)):
        outcome = merge_body(*triple)
        assert (render(outcome), outcome.conflict_count()) == (taken, 0)
    outcome = merge_body(base, left, right)
    assert_outcome_form(outcome)
    assert merge_body(base, right, left) == mirrored(outcome)
    rendered = render(outcome, base_marker=True)
    assert b"$" not in rendered
    assert count_conflicts(rendered) == outcome.conflict_count()
    lines = merge_texts_outcome(base, left, right)
    if not lines.conflict_count():
        assert outcome == lines


def test_a_long_body_marks_only_the_conflicting_lines(marked):
    base = FILLER + b"a = f(x);\nb = g(y);\n"
    left = FILLER + b"a = f(x, 1);\nb = g(y);\n"
    right = FILLER + b"a = h(x);\nb = g(y);\n"
    outcome = merge_body(base, left, right)
    assert marked == [b"a = f(x);\n", b"a = f(x, 1);\n", b"a = h(x);\n"]
    assert render(outcome) == FILLER + b"a = h(x, 1);\nb = g(y);\n"


def test_a_long_body_ending_in_a_conflict_keeps_its_open_end(marked):
    # the line merge ends in a conflict without a final LF, and left's side
    # of it is empty
    base, left, right = FILLER + b"x\ny\n", FILLER + b"x\n", FILLER + b"x\nz"
    outcome = merge_body(base, left, right)
    assert marked == [b"y\n", b"", b"z\n"]
    assert outcome.open_end
    whole = merge3(mark(base), mark(left), mark(right))
    assert render(outcome, base_marker=True) == render(whole, base_marker=True)


def reference_line_first(base, left, right):
    """A long body merged in two layers: a line merge, then one ``merge3``
    over the marked sides of each line gap that conflicts, the parts
    joined with ``join``.  A conflict that ends the texts without an LF is
    merged with no final LF on any side, as the line merge decided it."""
    lines = merge_texts_outcome(base, left, right)
    closing = lines.regions[-1] if lines.open_end else None
    parts = []
    for region in lines.regions:
        if isinstance(region, bytes):
            parts.append(region)
            continue
        sides = [mark(side) for side in (region.base, region.left, region.right)]
        if region is closing:
            sides = [Pieces(side.lines, False) for side in sides]
        parts.append(merge3(*sides))
    return join(parts)


def assert_merges_as_line_first_reference(base, left, right):
    outcome = merge_body(base, left, right)
    expected = reference_line_first(base, left, right)
    assert render(outcome, base_marker=True) == render(expected, base_marker=True)
    assert outcome.conflict_count() == expected.conflict_count()
    assert outcome.open_end == expected.open_end


# each text ends with an LF or without one, as LONG_TAIL draws
@given(LONG_TAIL, LONG_TAIL, LONG_TAIL)
@settings(max_examples=500)
def test_line_first_merge_equals_a_merge_of_each_conflicting_line_gap(base, left, right):
    assert_merges_as_line_first_reference(base, left, right)


@pytest.mark.parametrize(
    "texts",
    [(FILLER + b"x\ny\n", FILLER + b"x\n", FILLER + b"x\nz"), statement_body(1000)],
    ids=["ending in a conflict", "1000 statements"],
)
def test_a_long_body_merges_as_its_conflicting_line_gap_does(texts):
    assert merge_texts_outcome(*texts).conflict_count() == 1  # one line gap is marked
    assert_merges_as_line_first_reference(*texts)


@pytest.mark.parametrize("lfs", [LINE_FIRST_BOUND, LINE_FIRST_BOUND + 1])
def test_only_a_body_past_the_bound_is_merged_line_first(marked, lfs):
    base = b"".join(FILLER.splitlines(keepends=True)[:lfs - 1])
    left, right = base + b"x;\n", base + b"y;\n"  # ``lfs`` LFs each
    merge_body(base, left, right)
    if lfs > LINE_FIRST_BOUND:
        assert marked == [b"", b"x;\n", b"y;\n"]
    else:
        assert marked == [base, left, right]


@pytest.mark.parametrize(
    "token",
    [b"/* a\n b */", b'String s = """\n  text\n  """;', b'String s = "a\\\n b";',
     b"/* one line */"],
)
def test_a_long_body_that_may_hold_a_token_across_an_lf_is_marked_whole(marked, token):
    base = FILLER + token + b"\nx;\n"
    left, right = base + b"y;\n", base + b"z;\n"
    merge_body(base, left, right)
    assert marked == [base, left, right]


@pytest.mark.xfail(strict=True, reason="known fault, see README")
def test_a_long_body_with_a_one_line_block_comment_is_merged_line_first(marked):
    # the guard sends a body holding any '/*' to whole-body marking, though
    # this comment holds no LF and every line gap's edge is code
    base = FILLER + b"    /* c */\na = f(x);\nb = g(y);\n"
    left = FILLER + b"    /* c */\na = f(x, 1);\nb = g(y);\n"
    right = FILLER + b"    /* c */\na = h(x);\nb = g(y);\n"
    outcome = merge_body(base, left, right)
    assert render(outcome) == FILLER + b"    /* c */\na = h(x, 1);\nb = g(y);\n"
    assert marked == [b"a = f(x);\n", b"a = f(x, 1);\n", b"a = h(x);\n"]


@given(
    st.lists(
        st.sampled_from(
            [b"/", b"*", b"/*", b"*/", b"//", b'"', b"'", b'"""', b"\\", b"\n", b"\r",
             b"x", b" ", b";"]
        ),
        max_size=30,
    ).map(b"".join)
)
@settings(max_examples=1000)
def test_a_text_that_the_guard_passes_has_only_code_lfs(text):
    if separators._lfs_are_code(text):
        assert not [m for m in TOKEN.finditer(text) if b"\n" in m.group()]
