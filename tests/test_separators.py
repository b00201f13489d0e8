"""Separator marking, reversal, and separator-enhanced body merging."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sesame.separators import (
    MarkedText,
    MarkingError,
    SeparatorSet,
    mark,
    merge_body,
    pick_placeholder,
    unmark,
)
from sesame.textmerge import count_conflicts, join_lines, render, split_lines
from test_lexer import CODE, reference_lex_states
from test_textmerge import merge_text

PH = b"$" * 8


def unmarked(m: MarkedText, ph: bytes = PH) -> bytes:
    """``unmark`` applied to the text of a MarkedText marked with ``ph``."""
    return unmark(join_lines(m.lines, m.trailing_newline), ph)


def roundtrip(text: bytes) -> bytes:
    """``text`` marked, then unmarked, with the placeholder ``mark`` picks."""
    return unmarked(mark(text), pick_placeholder([text]))


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
    assert m.lines == [b"alpha", b"beta"]
    assert [line.startswith(PH) for line in m.lines] == [False, False]
    assert m.trailing_newline


def test_mark_isolates_each_separator():
    m = mark(b"a().b(c).d();\n")
    assert m.lines == [
        b"a",
        PH + b"(",
        PH + b")",
        PH + b".b",
        PH + b"(",
        PH + b"c",
        PH + b")",
        PH + b".d",
        PH + b"(",
        PH + b")",
        PH + b";",
    ]
    assert [line.startswith(PH) for line in m.lines] == [False] + [True] * 10


def test_consecutive_separators_make_consecutive_lines():
    m = mark(b"();")
    assert m.lines == [b"", PH + b"(", PH + b")", PH + b";"]


def test_mark_splits_condition_from_block_opening():
    # the brace opening an if-body lands on its own line, so edits to the
    # condition and edits to the body fall in non-adjacent regions
    m = mark(b'if (list.isEmpty()) { return "x"; }\n', SeparatorSet(("{", "}")))
    assert m.lines == [
        b"if (list.isEmpty()) ",
        PH + b"{",
        PH + b' return "x"; ',
        PH + b"}",
    ]


def test_mark_leaves_literals_and_comments_alone():
    text = b's = "a{b};(c)"; c = \'{\'; // tail(comment;)\n/* {;} */\n'
    m = mark(text)
    joined = b"".join(m.lines)
    # the only isolated separators are the two real statement semicolons
    assert sum(1 for l in m.lines if l.startswith(PH) and l[len(PH):] in (b"{", b"}", b"(", b")", b";")) == 2
    assert unmarked(m) == text


def test_mark_leaves_a_text_block_alone():
    text = b'f("""\n  {;}\n  """);\n'
    m = mark(text)
    assert m.lines == [b"f", PH + b"(", PH + b'"""', b"  {;}", b'  """', PH + b")", PH + b";"]
    assert m == reference_mark(text)


def test_mark_custom_separator_subset():
    m = mark(b"f(x);", SeparatorSet((";",)))
    assert m.lines == [b"f(x)", PH + b";"]


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


def reference_mark(text, seps=None, placeholder=None):
    """The original byte-at-a-time ``mark``, kept as the specification."""
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
    lines, trailing = split_lines(bytes(out))
    return MarkedText(lines, trailing)


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
    assert mark(text, seps) == reference_mark(text, seps)


def test_mark_matches_reference_on_corpus(corpus_dir):
    for path in sorted(corpus_dir.glob("*.java")):
        text = path.read_bytes()
        assert mark(text) == reference_mark(text), path.name


def test_containment_original_bytes_survive():
    rng = random.Random(7)
    bits = [b"{", b"}", b";", b"x", b"\n", b'"{"']
    for _ in range(200):
        text = b"".join(rng.choice(bits) for _ in range(rng.randint(0, 20)))
        m = mark(text)
        stripped = b""
        for line in m.lines:
            inserted = line.startswith(PH)
            stripped += line[len(PH):] if inserted else line
        # dropping inserted scaffolding leaves a subsequence-preserving
        # split of the original: rejoining recovers it exactly
        assert stripped == text.replace(b"\n", b"")
        assert unmarked(m) == text
        assert original_breaks_start_unprefixed_lines(m, text)


def original_breaks_start_unprefixed_lines(m: MarkedText, text: bytes) -> bool:
    # every line after the first without the placeholder follows an
    # original LF (a final LF ends the last line instead)
    unprefixed = sum(1 for line in m.lines[1:] if not line.startswith(PH))
    return unprefixed == text.count(b"\n") - text.endswith(b"\n")


# -- placeholder selection --------------------------------------------------

def test_placeholder_grows_past_collisions():
    assert pick_placeholder([b"plain"]) == PH
    assert pick_placeholder([b"$$$$$$$$"]) == PH + PH
    assert pick_placeholder([PH + PH]) == PH * 4


def test_mark_rejects_placeholder_in_text():
    # a line of the text starting with the placeholder would read as a
    # continuation when unmarked
    with pytest.raises(MarkingError):
        mark(b"a;\n$$$$$$$$b", placeholder=PH)


def test_mark_uses_collision_free_placeholder():
    text = b"$$$$$$$$;x\n"
    m = mark(text)
    assert m.lines == [b"$$$$$$$$", PH + PH + b";", PH + PH + b"x"]
    assert unmarked(m, PH + PH) == text


# -- unmark errors ----------------------------------------------------------

def test_unmark_rejects_midline_placeholder():
    bad = MarkedText([b"x" + PH + b"y"], True)
    with pytest.raises(MarkingError):
        unmarked(bad)
    bad = MarkedText([PH + b"x" + PH], True)
    with pytest.raises(MarkingError):
        unmarked(bad)


def reference_unmark(marked: MarkedText) -> bytes:
    """The line-at-a-time ``unmark``, kept as the specification."""
    ph = PH
    out = bytearray()
    for idx, line in enumerate(marked.lines):
        if line.startswith(ph):
            line = line[len(ph):]
        elif idx:
            out += b"\n"
        if ph in line:
            raise MarkingError("placeholder found mid-line")
        out += line
    if marked.trailing_newline and marked.lines:
        out += b"\n"
    return bytes(out)


def unmark_result(function, marked):
    try:
        return function(marked)
    except MarkingError:
        return MarkingError


# lines built from '$' runs shorter than, as long as and longer than the
# placeholder, so runs meet across line ends and inside lines
_UNMARK_PIECES = st.sampled_from([b"", b"x", b"$", b"$$$", b"$$$$$$$", PH, PH + b"$", b";", b"\r"])
_UNMARK_LINES = st.lists(st.lists(_UNMARK_PIECES, max_size=4).map(b"".join), max_size=8)


@given(_UNMARK_LINES, st.booleans())
@settings(max_examples=1000)
def test_unmark_equals_reference(lines, trailing):
    marked = MarkedText(lines, trailing)
    assert unmark_result(unmarked, marked) == unmark_result(reference_unmark, marked)


@pytest.mark.parametrize(
    "lines",
    [
        # '$'s ending a line, then a placeholder line: together they would
        # spell a placeholder, but each line on its own holds none
        [b"x$$$$", PH + b"$$$$;"],
        [b"$$$$$$$", PH + b"$"],
        [PH + b"$$$", PH + b"$$$$$"],
        # a placeholder left inside a line after its prefix is dropped
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
        marked = MarkedText(lines, trailing)
        assert unmark_result(unmarked, marked) == unmark_result(reference_unmark, marked)


def test_unmark_keeps_dollars_that_meet_across_a_join():
    marked = MarkedText([b"x$$$$", PH + b"$$$$;"], False)
    assert unmarked(marked) == b"x$$$$$$$$;"


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
