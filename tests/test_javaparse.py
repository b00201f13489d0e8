"""Shallow parser: structure, round trips, signatures, and failure modes."""

import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sesame import javaparse
from sesame.javaparse import (
    DuplicateDeclarationError,
    ParseError,
    _Parser,
    parse_units,
    parse_versions,
)
from sesame.lexer import lex_states
from test_lexer import reference_view


def kinds_and_ids(node):
    return [(c.kind, c.identifier) for c in node.children]


# -- structure -------------------------------------------------------------

def test_empty_file():
    tree = parse_units(b"")
    assert tree.kind == "compilation-unit"
    assert tree.children == []


def test_comment_only_file_keeps_bytes():
    src = b"// banner\n/* block */\n"
    tree = parse_units(src)
    assert tree.children == []
    assert tree.text() == src


def test_utility_class_structure():
    src = Path("tests/fixtures/golden/method_addition/base.java").read_bytes()
    tree = parse_units(src)
    assert kinds_and_ids(tree) == [
        ("import", "import java.util.ArrayList;"),
        ("import", "import java.util.List;"),
        ("type", "Util"),
    ]
    util = tree.children[-1]
    assert kinds_and_ids(util) == [
        ("method", "addElementToList(List,T)"),
        ("method", "toString(List)"),
    ]


def test_field_declaration():
    tree = parse_units(b"class A {\n  private int x;\n}\n")
    field = tree.children[0].children[0]
    assert field.kind == "field"
    assert field.identifier == "x"
    assert field.body_text == b""


def test_multi_declarator_field():
    tree = parse_units(b"class A { int a, b = 2, c; }")
    assert tree.children[0].children[0].identifier == "a,b,c"


def test_member_kinds():
    src = b"""class A {
  static { init(); }
  { touch(); }
  A() {}
  A(int x) {}
  void run() {}
  abstract int size();
  int[] table = {1, 2};
}
"""
    tree = parse_units(src)
    assert kinds_and_ids(tree.children[0]) == [
        ("initializer", "#0"),
        ("initializer", "#1"),
        ("constructor", "A()"),
        ("constructor", "A(int)"),
        ("method", "run()"),
        ("method", "size()"),
        ("field", "table"),
    ]


def test_enum_constants_and_members():
    src = b"""enum Color {
  RED,
  GREEN(2) { void f() {} },
  BLUE;

  Color() {}
  Color(int x) {}
  void f() {}
}
"""
    tree = parse_units(src)
    assert kinds_and_ids(tree.children[0]) == [
        ("enum-constant", "RED"),
        ("enum-constant", "GREEN"),
        ("enum-constant", "BLUE"),
        ("constructor", "Color()"),
        ("constructor", "Color(int)"),
        ("method", "f()"),
    ]


def test_annotation_type_members():
    src = b"""@interface Marker {
  String value() default "";
  int priority() default 0;
}
"""
    tree = parse_units(src)
    assert kinds_and_ids(tree.children[0]) == [
        ("annotation-member", "value()"),
        ("annotation-member", "priority()"),
    ]


def test_at_in_comment_before_interface_is_not_an_annotation_type():
    tree = parse_units(b"// @\ninterface X { int f(); }")
    assert kinds_and_ids(tree.children[0]) == [("method", "f()")]
    nested = parse_units(b"class A { /* @ */ interface X { int f(); } }")
    inner = nested.children[0].children[0]
    assert kinds_and_ids(inner) == [("method", "f()")]


@pytest.mark.parametrize(
    "src",
    [
        b"@interface X { int f(); }",
        b"@ /* c */ interface X { int f(); }",
        b"@ // c\ninterface X { int f(); }",
        b"class A { @ /* c */ interface X { int f(); } }",
    ],
)
def test_annotation_type_across_comments(src):
    tree = parse_units(src)
    decl = tree.children[0]
    if decl.identifier == "A":
        decl = decl.children[0]
    assert kinds_and_ids(decl) == [("annotation-member", "f()")]


def test_nested_types_recurse():
    src = b"class Outer { class Inner { void hi() {} } void out() {} }"
    tree = parse_units(src)
    outer = tree.children[0]
    assert [(c.kind, c.identifier) for c in outer.children] == [
        ("type", "Inner"),
        ("method", "out()"),
    ]
    assert kinds_and_ids(outer.children[0]) == [("method", "hi()")]


# Known fault (README, "Known limitations"): the test asserts the right
# behaviour and is a strict xfail, so the change that fixes it must flip it.
KNOWN_FAULT = pytest.mark.xfail(strict=True, reason="known fault, see README")


@KNOWN_FAULT
def test_a_nested_record_parses_as_a_type_holding_its_members():
    # today the record's header reads as a method head: method P(int)
    src = b"class O {\n  record P(int x) {\n    int y() { return x; }\n  }\n}\n"
    outer = parse_units(src).children[0]
    assert kinds_and_ids(outer) == [("type", "P")]
    assert kinds_and_ids(outer.children[0]) == [("method", "y()")]


def test_a_top_level_record_is_an_unsupported_declaration():
    with pytest.raises(ParseError, match="unsupported top-level declaration near 'record'"):
        parse_units(b"record R(int x) {}\n")


def test_a_top_level_non_sealed_type_parses():
    tree = parse_units(b"non-sealed class A permits B {}")
    assert kinds_and_ids(tree) == [("type", "A")]


def test_comments_attach_to_following_declaration():
    src = b"class A {\n  // doc for x\n  int x;\n  int y;\n}\n"
    tree = parse_units(src)
    x = tree.children[0].children[0]
    assert b"// doc for x" in x.header_text


# -- signatures ---------------------------------------------------------------

@pytest.mark.parametrize(
    "header,expected",
    [
        (b"void m()", "m()"),
        (b"void m(int a)", "m(int)"),
        (b"void m(int a, String b)", "m(int,String)"),
        (b"void m( int  a ,String b )", "m(int,String)"),
        (b"void m(java.util.List<String> xs)", "m(java.util.List)"),
        (b"void m(Map<String, List<Integer>> m)", "m(Map)"),
        (b"void m(int[] xs)", "m(int[])"),
        (b"void m(int xs[])", "m(int[])"),
        (b"void m(String... parts)", "m(String...)"),
        (b"void m(final int n)", "m(int)"),
        (b"void m(@Deprecated int n)", "m(int)"),
        (b"<T> void m(T t)", "m(T)"),
    ],
)
def test_signature_normalization(header, expected):
    src = b"class A { " + header + b" {} }"
    tree = parse_units(src)
    assert tree.children[0].children[0].identifier == expected


def test_signature_key_stable_under_reformatting():
    a = parse_units(b"class A { void m(List<String> xs, int n) {} }")
    b = parse_units(b"class A {\n  void m(\n      List< String > xs,\n      int n) {}\n}")
    assert (
        a.children[0].children[0].identifier
        == b.children[0].children[0].identifier
    )


def test_overloads_get_distinct_keys():
    tree = parse_units(
        b"class A { void p(int v) {} void p(long v) {} void p(int v, int i) {} }"
    )
    ids = [c.identifier for c in tree.children[0].children]
    assert len(set(ids)) == 3


def member_ids(src):
    return [c.identifier for c in parse_units(src).children[0].children]


@pytest.mark.parametrize(
    "src,expected",
    [
        # no blank after a generic section's '>'
        (b"class A { void f(List<String>x) {} }", ["f(List)"]),
        # a comment between two words keeps them apart
        (b"class A { void f(final/**/String s) {} }", ["f(String)"]),
        # a literal in an annotation argument is no bracket
        (
            b'class A { void f(@A("<") int a, long b) {} void f(long b) {} }',
            ["f(int,long)", "f(long)"],
        ),
        # a comment between the name and '(' of a bodyless method
        (
            b"abstract class A { abstract void f /* c */ ();"
            b" abstract void g /* c */ (); }",
            ["f()", "g()"],
        ),
        (b"interface I { void f\n// c\n(int x); }", ["f(int)"]),
        # varargs written against the name or with a blank before '...'
        (b"class A { void f(String...xs) {} void g(int ...ys) {} }",
         ["f(String...)", "g(int...)"]),
        # an operator in an annotation argument is no bracket either
        (b"class A { void f(@A(n = 1 << 2) int a, @B(2 > 1) long b) {} }",
         ["f(int,long)"]),
        # a '@' that no name follows starts no annotation in a parameter list
        (b"class A { void m(@(a, b) int x) {} }", ["m(abint)"]),
        # an annotation's name and arguments read across blanks and comments
        (b"class A { @ /*c*/ A . /*d*/ B ( 1 ) int f; }", ["f"]),
    ],
)
def test_method_key_reads_code_tokens(src, expected):
    assert member_ids(src) == expected


@pytest.mark.parametrize(
    "src,message",
    [
        (b"@", "dangling '@'"),
        (b"class A { @ ; int f; }", "dangling '@'"),
        (b"@A.", "dangling '.' in annotation name"),
        (b"enum E { @A.(1) A }", "dangling '.' in annotation name"),
        (b"package p", "missing ';'"),
    ],
)
def test_an_unfinished_annotation_or_package_names_its_fault(src, message):
    with pytest.raises(ParseError) as caught:
        parse_units(src)
    assert str(caught.value) == message


# -- non-ASCII identifiers -------------------------------------------------------
#
# A Java identifier may hold any Unicode letter.  Every byte of such a letter
# in UTF-8 is above 0x7f, and a key is the latin-1 reading of its bytes.

def _key(text: str) -> str:
    return text.encode().decode("latin-1")


def test_non_ascii_type_and_method_names():
    tree = parse_units("class Å { void ƒ() {} }".encode())
    assert kinds_and_ids(tree) == [("type", _key("Å"))]
    assert kinds_and_ids(tree.children[0]) == [("method", _key("ƒ()"))]


def test_non_ascii_field_names_key_apart():
    tree = parse_units("class Maß { int größe = 1; int straße = 2; }".encode())
    assert kinds_and_ids(tree.children[0]) == [
        ("field", _key("größe")), ("field", _key("straße")),
    ]


def test_non_ascii_method_names_and_parameter_types_key_apart():
    src = (
        "class A { int berechneGröße() { return 1; } int größe() { return 2; }"
        " void f(Größe g, java.util.List<Straße> s) {} void f(Maß m) {} }"
    )
    assert member_ids(src.encode()) == [
        _key(k) for k in ("berechneGröße()", "größe()", "f(Größe,java.util.List)",
                          "f(Maß)")
    ]


# -- method keys of generated parameter lists -----------------------------------
#
# A generated list is a sequence of tokens, and the key it must get is
# computed from the same model: a parameter's type with its generic
# sections, annotations, 'final' and name left out.  Every boundary between
# two tokens gets a blank, a comment, or nothing where the two would not
# merge into one word.

_GAPS = ("", " ", "\n  ", "/* c */", "/*<(,*/", "/**/", "// ),<\n", "\t")
_ANNOTATIONS = (
    ["@", "A"],
    ["@", "a", ".", "B"],
    ["@", "A", "(", '"<>,()"', ")"],
    ["@", "B", "(", "v", "=", "{", '"("', ",", "'<'", "}", ",", "n", "=", "1",
     "<<", "2", ")"],
    ["@", "C", "(", "2", ">", "1", ")"],
    ["@", "D", "(", "')'", ")"],
)
_TYPE_NAMES = (["int"], ["String"], ["T"], ["java", ".", "util", ".", "List"],
               ["Map", ".", "Entry"])


def _dims(n):
    return ["[", "]"] * n


@st.composite
def _java_type(draw, depth=0):
    """(tokens, key) of a type: maybe qualified, maybe generic, maybe an
    array."""
    name = draw(st.sampled_from(_TYPE_NAMES))
    tokens = list(name)
    if name != ["int"] and depth < 2 and draw(st.booleans()):
        tokens.append("<")
        for k in range(draw(st.integers(1, 3))):
            if k:
                tokens.append(",")
            wildcard = draw(st.sampled_from(([], ["?"], ["?", "extends"], ["?", "super"])))
            tokens += wildcard
            if wildcard != ["?"]:
                tokens += draw(_java_type(depth + 1))[0]
        tokens.append(">")
    dims = draw(st.integers(0, 2))
    return tokens + _dims(dims), "".join(name) + "[]" * dims


@st.composite
def _parameter(draw, last):
    """(tokens, key) of one formal parameter."""
    prefix = [draw(st.sampled_from(_ANNOTATIONS)) for _ in range(draw(st.integers(0, 2)))]
    if draw(st.booleans()):
        prefix.insert(draw(st.integers(0, len(prefix))), ["final"])
    tokens, key = draw(_java_type())
    tokens = [t for part in prefix for t in part] + tokens
    if last and draw(st.booleans()):
        return tokens + ["...", draw(st.sampled_from(("xs", "rest")))], key + "..."
    dims = draw(st.integers(0, 1))
    name = draw(st.sampled_from(("a", "x$1", "_v", "value")))
    return tokens + [name] + _dims(dims), key + "[]" * dims


@st.composite
def _method(draw):
    """(source, expected key) of a class holding one generated method."""
    count = draw(st.integers(0, 4))
    params = [draw(_parameter(last=k == count - 1)) for k in range(count)]
    tokens = ["<", "T", ">"] if draw(st.booleans()) else []
    tokens += ["void", "f", "("]
    for k, (param_tokens, _) in enumerate(params):
        tokens += ([","] if k else []) + param_tokens
    tokens.append(")")
    bodyless = draw(st.booleans())
    tokens.append(";" if bodyless else "{}")
    text = tokens[0]
    for prev, token in zip(tokens, tokens[1:]):
        joins = all(c.isalnum() or c in "_$" for c in prev[-1] + token[0])
        gaps = _GAPS[1:] if joins else _GAPS  # _GAPS[0] is no gap at all
        text += draw(st.sampled_from(gaps)) + token
    modifier = "abstract " if bodyless else ""
    source = f"abstract class K {{ {modifier}{text} }}".encode()
    return source, "f(" + ",".join(key for _, key in params) + ")"


@settings(max_examples=400, deadline=None)
@given(_method())
def test_generated_parameter_lists_key_as_their_model(method):
    source, expected = method
    assert member_ids(source) == [expected]


# -- round trips -----------------------------------------------------------

def test_corpus_roundtrip(corpus_dir):
    files = sorted(corpus_dir.glob("*.java"))
    assert len(files) >= 50
    for path in files:
        data = path.read_bytes()
        assert parse_units(data).text() == data, path.name


def test_golden_fixture_roundtrip(golden_dir):
    for path in sorted(golden_dir.rglob("*.java")):
        data = path.read_bytes()
        if b"<<<<<<<" in data:
            continue  # expected conflict outputs are not parse inputs
        assert parse_units(data).text() == data, path


# -- failure modes ------------------------------------------------------------

def test_unbalanced_braces_raise(bad_corpus_dir):
    with pytest.raises(ParseError):
        parse_units((bad_corpus_dir / "UnbalancedBrace.java").read_bytes())


def test_top_level_statement_raises(bad_corpus_dir):
    with pytest.raises(ParseError):
        parse_units((bad_corpus_dir / "TopLevelStatement.java").read_bytes())


def test_duplicate_signature_raises(bad_corpus_dir):
    with pytest.raises(DuplicateDeclarationError):
        parse_units((bad_corpus_dir / "DuplicateMethods.java").read_bytes())


def test_eof_inside_literal_raises():
    with pytest.raises(ParseError):
        parse_units(b'class A { String s = "unterminated; }')


def test_duplicate_import_raises():
    with pytest.raises(DuplicateDeclarationError):
        parse_units(b"import java.util.List;\nimport java.util.List;\nclass A {}\n")


@pytest.mark.parametrize(
    "source",
    [
        b"class A {}\nimport a.b;\n",
        b"import a.b;\npackage p;\nclass A {}\n",
        b"package p;\npackage q;\n",
        b"class A {}\npackage p;import a.b;\n",
    ],
)
def test_a_package_or_import_out_of_order_raises(source):
    # JLS 7.3: a package declaration, then imports, then types
    with pytest.raises(ParseError, match="out of order"):
        parse_units(source)


_BOM = b"\xef\xbb\xbf"


def test_a_byte_order_mark_at_the_start_is_insignificant():
    first = _BOM + b"class A {\n  int x;\n  void f() {}\n}\n"
    later = first.replace(b"int x;", b"int x = 1;")
    trees = parse_versions(first, later)
    for source, tree in zip((first, later), trees):
        assert kinds_and_ids(tree) == [("type", "A")]
        assert tree.children[0].header_text.startswith(_BOM)  # it stays in the text
        assert tree.text() == source
    assert trees[1].children[0].children[1] is trees[0].children[0].children[1]
    assert_lexing_copied_exactly([first, later])
    package = parse_units(_BOM + b"package p;\nclass A {}\n")
    assert kinds_and_ids(package) == [("package", "package p;"), ("type", "A")]
    assert package.children[0].header_text == _BOM + b"package p;"
    # anywhere else it is no blank
    with pytest.raises(ParseError, match="unsupported top-level declaration"):
        parse_units(b"class A {}\n" + _BOM + b"class B {}\n")


# -- brackets matched closer to closer ---------------------------------------

def reference_match_delim(view: bytes, i: int) -> int:
    """The walk over every bracket: the index of the bracket closing the
    '(' or '{' at i, brackets of the other kind not looked at."""
    opener = view[i]
    depth = 0
    for m in re.finditer(rb"[()]" if opener == ord("(") else rb"[{}]", view[i:]):
        if view[i + m.start()] == opener:
            depth += 1
        else:
            depth -= 1
            if depth == 0:
                return i + m.start()
    raise ParseError("unbalanced delimiters at end of input")


def matcher(view: bytes) -> _Parser:
    """A parser that scans ``view`` as its code view."""
    parser = _Parser(b"", javaparse.MemberTable())
    parser.view = view
    return parser


def match_or_message(match, *args):
    """``match(*args)``, or the message of the ParseError it raises."""
    try:
        return match(*args)
    except ParseError as error:
        return str(error)


@pytest.mark.parametrize(
    "view,i,expected",
    [
        (b"{ ( }", 0, 4),
        (b"( { )", 0, 4),
        (b"{ ( } )", 0, 4),
        (b"{ ( } )", 2, 6),
        (b"( } } )", 0, 6),
        (b"{ ) ( }", 0, 6),
        (b"{ ) ( }", 4, "unbalanced delimiters at end of input"),
        (b"{ { } ( }", 0, 8),
        (b"{ { }", 0, "unbalanced delimiters at end of input"),
        (b"(", 0, "unbalanced delimiters at end of input"),
        (b"((a)(b(c))d)", 0, 11),
        (b"((a)(b(c))d)", 4, 9),
    ],
)
def test_a_bracket_matches_across_the_other_kind(view, i, expected):
    assert match_or_message(matcher(view)._match_delim, i) == expected
    assert match_or_message(reference_match_delim, view, i) == expected


_FILLER = st.sampled_from([b"", b"a", b";", b" ", b"\0"])
_BRACKETS_AND_FILLER = st.lists(st.sampled_from(b"(){}(){}a ;\0"), max_size=60).map(bytes)
_NESTED = st.recursive(
    _FILLER,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4).map(b"".join),
        inner.map(lambda v: b"(" + v + b")"),
        inner.map(lambda v: b"{" + v + b"}"),
    ),
    max_leaves=40,
)


@settings(max_examples=800, deadline=None)
@given(_BRACKETS_AND_FILLER, _NESTED, _BRACKETS_AND_FILLER)
def test_brackets_match_as_the_walk_over_every_bracket(head, nested, tail):
    # random brackets and filler around a nested balanced run: every '(' and
    # '{' is matched, the unbalanced ones among them too
    view = head + nested + tail
    parser = matcher(view)
    for i, c in enumerate(view):
        if c in b"({":
            assert match_or_message(parser._match_delim, i) == match_or_message(
                reference_match_delim, view, i
            ), (view, i)


class _CountedView(bytes):
    """A code view that counts the calls that read it from Python: its
    ``find`` calls and its indexing."""

    reads = 0

    def find(self, *args):
        self.reads += 1
        return super().find(*args)

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)


def test_a_long_body_is_matched_in_one_step_per_closing_brace():
    # long-body's shape: 3000 statements, every sixth a nested block
    statements = [
        b"    if (c) { k(); }\n" if s % 6 == 5 else b"    v%d = f%d(x%d, y);\n" % (s, s, s)
        for s in range(3000)
    ]
    source = b"class A {\n  void m() {\n" + b"".join(statements) + b"  }\n}\n"
    view = _CountedView(lex_states(source))
    i = source.index(b"{", source.index(b"m()"))
    k = matcher(view)._match_delim(i)
    reads = view.reads
    assert k == reference_match_delim(view, i) == len(source) - 4
    closers = view.count(b"}", i, k + 1)
    assert closers == 501
    # one read of the opener, then one per closer; a walk that reads every
    # bracket of the kind makes 1002
    assert reads <= 1 + closers


# -- one member table for the versions of a merge ------------------------------

FIXTURES = Path(__file__).parent / "fixtures"
CORPUS_FILES = sorted((FIXTURES / "java_corpus").glob("*.java")) + sorted(
    (FIXTURES / "java_corpus_bad").glob("*.java")
)
# lexer and parser punctuation, keywords and whole members
_INSERTS = (
    '"', "'", "\\", "/", "*", "/*", "*/", "//", "\n", " ", "{", "}", "(", ")",
    ";", ",", "=", "<", ">", "@", ".", "x", "class ", "enum ", "interface ",
    "static ", ";;", "{}", "int y;", "void q() {}", "static { q(); }",
)


def shape(node):
    """A node's parts and its children's."""
    return (
        node.kind, node.identifier, node.header_text, node.body_text,
        [shape(c) for c in node.children],
    )


def separate(sources):
    """Trees of three independent parses, or the first parse's error."""
    try:
        return [shape(parse_units(s)) for s in sources]
    except ParseError as exc:
        return (type(exc), str(exc))


def shared(sources):
    try:
        return [shape(tree) for tree in parse_versions(*sources)]
    except ParseError as exc:
        return (type(exc), str(exc))


def mutate(data: bytes, mutations) -> bytes:
    for pos, ndel, ins in mutations:
        pos %= len(data) + 1
        data = data[:pos] + ins.encode("latin-1") + data[pos + ndel:]
    return data


def _triple(rng: random.Random, data: bytes) -> list[bytes]:
    def edits(count):
        return [
            (rng.randrange(1 << 30), rng.choice((0, 0, 1, 2)), rng.choice(_INSERTS))
            for _ in range(count)
        ]

    base = mutate(data, edits(rng.choice((0, 0, 1))))
    return [base] + [mutate(base, edits(rng.randrange(3))) for _ in range(2)]


def test_shared_table_equals_separate_parses_on_corpus_mutations():
    rng = random.Random(20241018)
    assert len(CORPUS_FILES) >= 60
    for path in CORPUS_FILES:
        data = path.read_bytes()
        for _ in range(15):
            sources = _triple(rng, data)
            assert shared(sources) == separate(sources), path.name


_mutation = st.tuples(
    st.integers(0, 1 << 30), st.sampled_from((0, 0, 1, 2)), st.sampled_from(_INSERTS)
)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(CORPUS_FILES),
    st.lists(_mutation, max_size=1),
    st.lists(_mutation, max_size=3),
    st.lists(_mutation, max_size=3),
    st.permutations(range(3)),
)
def test_shared_table_equals_separate_parses(
    path, base_edits, left_edits, right_edits, order
):
    base = mutate(path.read_bytes(), base_edits)
    versions = [base, mutate(base, left_edits), mutate(base, right_edits)]
    sources = [versions[k] for k in order]
    assert shared(sources) == separate(sources)


@pytest.mark.parametrize(
    "sources",
    [
        pytest.param(  # a stray ';' joins the body of the member before it
            [
                b"class A { void f() {}; int x; }",
                b"class A { void f() {} int x; }",
                b"class A { void f() {};; int x; }",
            ],
            id="stray-semicolon",
        ),
        pytest.param(  # an initializer's #n counts the initializers before it
            [
                b"class A { static { a(); } { b(); } static { c(); } void f() {} }",
                b"class A { static { a(); } { b2(); } static { c(); } void f() {} }",
                b"class A { { z(); } static { a(); } { b(); } static { c(); } void f() {} }",
            ],
            id="initializers",
        ),
        pytest.param(  # 'B() {}' is a constructor only inside B
            [
                b"class B { B() {} }",
                b"class C { B() {} }",
                b"class A { class B { B() {} } class C { B() {} } }",
            ],
            id="enclosing-type",
        ),
        pytest.param(  # 'int f();' is an annotation member only in an @interface
            [
                b"@interface M { int f(); }",
                b"interface M { int f(); }",
                b"class A { @interface M { int f(); } } class B { interface M { int f(); } }",
            ],
            id="annotation-type",
        ),
        pytest.param(
            [
                b"enum E { A, B; void f() {} int x; }",
                b"enum E { A, B, C; void f() {} int x; }",
                b"enum E { A, B; void f() { g(); } int x; }",
            ],
            id="enum-members-after-constants",
        ),
        pytest.param(  # the head is the key; the body must match too
            [
                b"class A { void f() { a(); } int x; }",
                b"class A { void f() { b(); } int x; }",
                b"class A { void f() { a(); } int y; }",
            ],
            id="edited-body",
        ),
        pytest.param(  # both later versions add the same method
            [
                b"class A { void f() {} int x; }",
                b"class A { void f() {} void g() { h(); } int x; }",
                b"class A { void f() {} void g() { h(); } int x; }",
            ],
            id="identical-additions",
        ),
        pytest.param(  # a member moved ahead of its predecessor
            [
                b"class A { int x; void f() {} void g() {} int y; }",
                b"class A { int x; void g() {} void f() {} int y; }",
                b"class A { void f() {} int x; void g() {} int y; }",
            ],
            id="moved-member",
        ),
    ],
)
def test_shared_table_cases(sources):
    assert shared(sources) == separate(sources)
    assert shared(sources[::-1]) == separate(sources[::-1])


def test_shared_table_kinds():
    b, c, a = parse_versions(*[
        b"class B { B() {} }",
        b"class C { B() {} }",
        b"class A { class B { B() {} } class C { B() {} } }",
    ])
    assert kinds_and_ids(b.children[0]) == [("constructor", "B()")]
    assert kinds_and_ids(c.children[0]) == [("method", "B()")]
    assert [kinds_and_ids(t) for t in a.children[0].children] == [
        [("constructor", "B()")], [("method", "B()")],
    ]
    base, left, right = parse_versions(*[
        b"class A { void f() {}; int x; }",
        b"class A { void f() {} int x; }",
        b"class A { void f() {};; int x; }",
    ])
    assert [t.children[0].children[0].body_text for t in (base, left, right)] == [
        b"};", b"}", b"};;",
    ]


def _class_source(n: int, edited: set[int], tag: str) -> bytes:
    members = []
    for k in range(n):
        body = f"return a + {k}{tag if k in edited else ''};"
        if k % 4 == 3:
            members.append(f"  private int f{k} = {k};\n")
        else:
            members.append(f"  int m{k}(int a, java.util.List<String> xs) {{ {body} }}\n")
    return ("class Big {\n" + "".join(members) + "}\n").encode()


@pytest.mark.parametrize("k", [0, 1, 20])
def test_shared_table_parses_each_unchanged_member_once(monkeypatch, k):
    n = 400
    calls = []
    real = _Parser._parse_member

    def counting(self, *args):
        calls.append(1)
        return real(self, *args)

    monkeypatch.setattr(_Parser, "_parse_member", counting)
    rng = random.Random(k)
    methods = [i for i in range(n) if i % 4 != 3]
    left_edits = set(rng.sample(methods, k))
    right_edits = set(rng.sample([i for i in methods if i not in left_edits], k))
    sources = [
        _class_source(n, set(), ""),
        _class_source(n, left_edits, " + 1"),
        _class_source(n, right_edits, " + 2"),
    ]
    trees = parse_versions(*sources)
    assert len(calls) == n + 2 * k
    assert [t.text() for t in trees] == sources
    calls.clear()
    assert [shape(parse_units(s)) for s in sources] == [shape(t) for t in trees]
    assert len(calls) == 3 * n
    # an unchanged member reuses the base's bytes objects, not copies of them
    base, left, right = (t.children[0].children for t in trees)
    for i in range(n):
        if i not in left_edits:
            assert left[i].header_text is base[i].header_text
            assert left[i].body_text is base[i].body_text
        if i not in right_edits:
            assert right[i].body_text is base[i].body_text


@pytest.mark.parametrize("k", [0, 1, 20])
def test_each_later_version_compares_a_member_text_about_once(k):
    # the runs prove where members repeat; the parse takes them unchecked
    n = 400
    calls = []
    real = javaparse._follows

    def counting(*args):
        calls.append(1)
        return real(*args)

    rng = random.Random(k)
    methods = [i for i in range(n) if i % 4 != 3]
    first = _class_source(n, set(), "")
    for later in (
        _class_source(n, set(rng.sample(methods, k)), " + 1"),
        _class_source(n, set(rng.sample(methods, k)), " + 2"),
    ):
        table = javaparse.MemberTable()
        parse_units(first, table)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(javaparse, "_follows", counting)
            tree = parse_units(later, table)
        assert len(calls) <= n + 1 + k
        assert shape(tree) == shape(parse_units(later))
        calls.clear()


# -- a node's text lexes on its own as in its file ---------------------------

def _placed(node, start):
    """Each node of the tree with the offset its text starts at."""
    yield node, start
    start += len(node.header_text)
    for child in node.children:
        yield from _placed(child, start)
        start += len(child.text())


def assert_nodes_lex_alone_as_in_their_file(source: bytes, tree) -> None:
    """Every node that separator marking can be handed is its file's text
    at its place, and lexing that text on its own, as ``mark`` does, gives
    the whole file's code view over it (``lex_states`` gives the view)."""
    whole = lex_states(source)
    for node, start in _placed(tree, 0):
        text = node.text()
        assert source[start:start + len(text)] == text
        if node.kind not in ("compilation-unit", "type", "package", "import"):
            assert lex_states(text) == whole[start:start + len(text)], node.key()


def test_node_states_equal_lexing_the_node_on_corpus():
    for path in sorted((FIXTURES / "java_corpus").glob("*.java")):
        source = path.read_bytes()
        assert_nodes_lex_alone_as_in_their_file(source, parse_units(source))


@pytest.mark.parametrize(
    "golden", sorted(p.name for p in (FIXTURES / "golden").iterdir())
)
def test_node_states_equal_lexing_the_node_on_goldens(golden):
    sources = [
        (FIXTURES / "golden" / golden / f"{role}.java").read_bytes()
        for role in ("base", "left", "right")
    ]
    # a member reused from an earlier version is that version's node
    for source, tree in zip(sources, parse_versions(*sources)):
        assert_nodes_lex_alone_as_in_their_file(source, tree)


def test_node_states_on_corpus_mutations():
    rng = random.Random(7018)
    for path in CORPUS_FILES:
        data = path.read_bytes()
        for _ in range(5):
            sources = _triple(rng, data)
            try:
                trees = parse_versions(*sources)
            except ParseError:
                continue
            for source, tree in zip(sources, trees):
                assert_nodes_lex_alone_as_in_their_file(source, tree)


# -- later versions copy the first version's lexing --------------------------

_MEMBER_KINDS = {"field", "method", "constructor", "annotation-member"}


def _member_spans(source: bytes) -> list[tuple[int, int]]:
    """(start, end) of each member that can enter the member table, in
    file order; none if ``source`` does not parse."""
    try:
        tree = parse_units(source)
    except ParseError:
        return []
    return [
        (start, start + len(node.text()))
        for node, start in _placed(tree, 0)
        if node.kind in _MEMBER_KINDS
    ]


def _resync_versions(rng: random.Random, data: bytes) -> list[bytes]:
    """Later versions of ``data``, the first equal to it, shaped to mislead
    the search for repeated members; the last one is the one before it
    with CRLF line endings."""
    versions = [data, mutate(data, [
        (rng.randrange(1 << 30), rng.choice((0, 1, 2)), rng.choice(_INSERTS))
        for _ in range(rng.randrange(1, 4))
    ])]
    spans = _member_spans(data)
    if spans:
        a, b = rng.choice(spans)
        text = data[a:b]
        # the member, or its head, copied into a comment or literal before it
        cover = rng.choice((
            b"/*" + text + b"*/", b"/*" + text, b"//" + text, b'"' + text,
            b"'" + text, b"/*" + text[:len(text) // 2] + b"*/",
        ))
        versions.append(data[:a] + cover + data[a:])
        # an unterminated comment or literal inside an edited member
        k = rng.randrange(a, b + 1)
        versions.append(data[:k] + rng.choice((b"/*", b'"', b"'", b"//")) + data[k:])
        # runs of members deleted, duplicated and swapped
        i = rng.randrange(len(spans))
        j = rng.randrange(i, min(len(spans), i + 4))
        run_a, run_b = spans[i][0], spans[j][1]
        if run_a < run_b:
            versions.append(data[:run_a] + data[run_b:])
            versions.append(data[:run_b] + data[run_a:run_b] + data[run_b:])
        if len(spans) > 1:
            (a, b), (c, d) = sorted(rng.sample(spans, 2))
            versions.append(data[:a] + data[c:d] + data[b:c] + data[a:b] + data[d:])
        versions.append(_without(data, spans[rng.randrange(2)::2]))
    versions.append(versions[-1].replace(b"\n", b"\r\n"))
    return versions


def _without(data: bytes, spans: list[tuple[int, int]]) -> bytes:
    """``data`` less the bytes of each span."""
    out, pos = [], 0
    for a, b in spans:
        out.append(data[pos:a])
        pos = b
    out.append(data[pos:])
    return b"".join(out)


def lexed_versions(sources):
    """``shared(sources)``, and the data and view of each parse."""
    seen = []
    real = _Parser.parse

    def parse(self):
        seen.append((self.data, self.view))
        return real(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_Parser, "parse", parse)
        result = shared(sources)
    return result, seen


def assert_lexing_copied_exactly(sources):
    result, seen = lexed_versions(sources)
    assert result == separate(sources)
    for data, view in seen:
        assert view == reference_view(data)


def test_copied_lexing_equals_whole_lexing_on_corpus():
    rng = random.Random(20261018)
    for path in CORPUS_FILES:
        data = path.read_bytes()
        for _ in range(2):  # the first version is edited too
            first = mutate(data, [(rng.randrange(1 << 30), 0, " ")])
            for version in _resync_versions(rng, first):
                assert_lexing_copied_exactly([first, version])
            assert_lexing_copied_exactly(_triple(rng, data))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(CORPUS_FILES), st.randoms(use_true_random=False))
def test_copied_lexing_equals_whole_lexing(path, rng):
    first, *later = _resync_versions(rng, path.read_bytes())
    assert_lexing_copied_exactly([first, rng.choice(later), rng.choice(later)])


_FIRST = b"class A { int x; void f() {} }"


@pytest.mark.parametrize(
    "first,later",
    [
        pytest.param(_FIRST, b"class A { int x; /* void f() {} */ void f() {} }",
                     id="member-in-comment"),
        pytest.param(_FIRST, b'class A { int x; String s = " void f() {"; void f() {} }',
                     id="head-in-string"),
        pytest.param(_FIRST, b"class A { int x = 2; void f() {} }", id="edited-field"),
        pytest.param(_FIRST, b"class A { int x; void g() { /* } void f() {} }",
                     id="unterminated-comment"),
        pytest.param(_FIRST, b'class A { int x; void g() { " } void f() {} }',
                     id="unterminated-string"),
        pytest.param(b"class A { int x;/* c */ void f() {} }",
                     b"class A { int x; int y = 1//* c */ void f() {} }",
                     id="slash-before-member"),
        pytest.param(_FIRST, b"class A { void f() {} int x; }", id="swapped"),
        pytest.param(_FIRST, b"class A { int x; void f() {} void f() {} }", id="duplicated"),
        pytest.param(_FIRST, b"class A {\r\n int x; void f() {}\r\n}", id="crlf"),
    ],
)
def test_copied_lexing_cases(first, later):
    assert_lexing_copied_exactly([first, later])
    assert_lexing_copied_exactly([later, first])


# -- the work later versions do ----------------------------------------------

def _count_work(monkeypatch):
    """Bytes handed to ``lex_states``, and offsets scanned by head searches
    that found nothing, one entry per call."""
    lexed, failed = [], []
    real_lex, real_find = javaparse.lex_states, javaparse._find_head

    def lex(data):
        lexed.append(len(data))
        return real_lex(data)

    def find(data, head, lo, hi):
        at = real_find(data, head, lo, hi)
        if at < 0:
            failed.append(hi - lo)
        return at

    monkeypatch.setattr(javaparse, "lex_states", lex)
    monkeypatch.setattr(javaparse, "_find_head", find)
    return lexed, failed


def _later_work(monkeypatch, first: bytes, later: bytes) -> tuple[int, int, int]:
    """(lex_states calls, bytes lexed, offsets of failed searches) for
    parsing ``later`` after ``first``; its tree must be its own."""
    lexed, failed = _count_work(monkeypatch)
    trees = parse_versions(first, later)
    work = len(lexed) - 1, sum(lexed[1:]), sum(failed)
    assert lexed[0] == len(first)
    assert shape(trees[1]) == shape(parse_units(later))
    return work


def _class_parts(source: bytes) -> tuple[bytes, list[bytes], bytes]:
    """The text before the class's first member, each member, and the rest."""
    members = parse_units(source).children[0].children
    texts = [m.text() for m in members]
    head_len = source.index(texts[0])
    tail_len = len(source) - head_len - sum(map(len, texts))
    return source[:head_len], texts, source[len(source) - tail_len:]


def test_an_equal_version_lexes_only_the_text_outside_members(monkeypatch):
    first = _class_source(400, set(), "")
    head, members, tail = _class_parts(first)
    calls, lexed, _ = _later_work(monkeypatch, first, first)
    assert (calls, lexed) == (1, len(head) + len(tail))


def test_one_edited_method_lexes_that_method_and_the_text_outside(monkeypatch):
    first = _class_source(400, set(), "")
    later = _class_source(400, {17}, " + 1")
    head, members, tail = _class_parts(later)
    calls, lexed, _ = _later_work(monkeypatch, first, later)
    assert calls == 1
    assert lexed <= len(head) + len(members[17]) + len(tail)


@pytest.mark.parametrize("shape_name", ["drop-odd", "drop-even", "reversed", "rewritten"])
def test_reshaped_versions_lex_and_search_at_most_their_length(monkeypatch, shape_name):
    first = _class_source(400, set(), "")
    head, members, tail = _class_parts(first)
    later = {
        "drop-odd": head + b"".join(members[::2]) + tail,
        "drop-even": head + b"".join(members[1::2]) + tail,
        "reversed": head + b"".join(members[::-1]) + tail,
        "rewritten": first.replace(b"int ", b"long "),
    }[shape_name]
    calls, lexed, failed = _later_work(monkeypatch, first, later)
    assert calls == 1
    assert lexed <= len(later)
    assert failed <= len(later)
    if shape_name.startswith("drop"):  # every member left is copied
        assert lexed == len(head) + len(tail)


# -- a later version goes by its runs, and shares the first's nodes ----------

@pytest.mark.parametrize("order", [(0, 1, 2), (1, 0, 2), (2, 1, 0)])
def test_a_stray_semicolon_after_a_shared_member_leaves_it_unchanged(order):
    versions = [
        b"class A {\n  void f() {}\n  int x;\n}\n",
        b"class A {\n  void f() {} ;\n  int x;\n}\n",
        b"class A {\n  void f() {}\n  int x;\n  int y;\n}\n",
    ]
    sources = [versions[k] for k in order]
    table = javaparse.MemberTable()
    first = parse_units(sources[0], table)
    before = shape(first)
    trees = [first] + [parse_units(source, table) for source in sources[1:]]
    assert shape(first) == before
    assert first.text() == sources[0]
    assert [shape(t) for t in trees] == separate(sources)
    # the table keeps each member as its text: without the stray ';'
    assert [node.text() for node in table.nodes[:2]] == [b"\n  void f() {}", b"\n  int x;"]
    f_nodes = [tree.children[0].children[0] for tree in trees]
    for source, node in zip(sources, f_nodes):
        assert (node is table.nodes[0]) == (b"{} ;" not in source)


def _child_spans(source: bytes) -> list[list[tuple[int, int]]]:
    """For each type in ``source``, the (start, end) of each of its
    children; none if ``source`` does not parse."""
    try:
        tree = parse_units(source)
    except ParseError:
        return []
    types = []

    def walk(node, start):
        start += len(node.header_text)
        spans = []
        for child in node.children:
            spans.append((start, start + len(child.text())))
            walk(child, start)
            start = spans[-1][1]
        if node.kind == "type" and spans:
            types.append(spans)

    walk(tree, 0)
    return types


def _sweep_version(rng: random.Random, data: bytes) -> bytes:
    """``data`` with one chunk inserted, deleted, moved, duplicated or
    wrapped in a type, or with a stray ';', a nested type, an enum, a member
    or a trailing comment put at a declaration's start or end.  A chunk is a
    run of declarations in one type, or some bytes; a copied member is a
    duplicate, so copies come less often."""
    types = _child_spans(data)
    if types and rng.random() < 0.9:
        spans = rng.choice(types)
        i = rng.randrange(len(spans))
        a, b = spans[i][0], spans[min(len(spans) - 1, i + rng.randrange(4))][1]
        at = rng.choice(rng.choice(types))[rng.randrange(2)]
    else:
        a = rng.randrange(len(data) + 1)
        b = min(len(data), a + rng.randrange(1, 40))
        at = rng.randrange(len(data) + 1)
    chunk = data[a:b]
    kind = rng.choice(("insert", "duplicate", "wrap") + ("delete", "move", "put") * 4)
    if kind == "insert":
        return data[:at] + chunk + data[at:]
    if kind == "duplicate":
        return data[:b] + chunk + data[b:]
    if kind == "delete":
        return data[:a] + data[b:]
    if kind == "move":
        rest = data[:a] + data[b:]
        at = at if at <= a else max(a, at - len(chunk))
        return rest[:at] + chunk + rest[at:]
    k = rng.randrange(10**6)
    if kind == "wrap":  # the chunk's members move to a type of another context
        head = rng.choice(("\n  static class W{k} {{", "\n  @interface W{k} {{"))
        return data[:a] + head.format(k=k).encode() + chunk + b"}" + data[b:]
    put = rng.choice((
        " ;", ";;", " // ends the member\n", " /* c */", "/* open", "/",
        "\n  static class N{k} {{ int a; void b() {{}} ; }}",
        "\n  class M{k} {{ M{k}() {{}} void f() {{}} }}",
        "\n  enum E{k} {{ A, B(1) {{ void f() {{}} }}, C; int x; }}",
        "\n  enum F{k} {{ P, Q }}",
        "\n  void f{k}() {{}}", "\n  int x{k};",
    ))
    return data[:at] + put.format(k=k).encode() + data[at:]


def sweep_triples(seed: int, per_file: int):
    """``per_file`` mutated triples of each corpus file, each with the
    file's name."""
    rng = random.Random(seed)
    for path in CORPUS_FILES:
        data = path.read_bytes()
        for _ in range(per_file):
            base = _sweep_version(rng, data) if rng.random() < 0.3 else data
            sources = [base] * 3
            for k in (1, 2):
                for _ in range(rng.randrange(1, 3)):
                    sources[k] = _sweep_version(rng, sources[k])
            rng.shuffle(sources)
            yield path.name, sources


def differential_sweep(seed: int, per_file: int) -> int:
    """Parse ``per_file`` mutated triples of each corpus file with one
    table and alone; returns how many triples were compared."""
    count = 0
    for name, sources in sweep_triples(seed, per_file):
        assert shared(sources) == separate(sources), (name, sources)
        count += 1
    return count


def test_shared_parses_equal_separate_ones_on_a_differential_sweep():
    assert differential_sweep(20261019, 6) == 6 * len(CORPUS_FILES)


def reference_extend(data: bytes, at: int, table, j: int) -> int:
    """``javaparse._extend`` by spans that double, then halve: one past the
    last member of the longest run from member j, whose text follows at
    ``at``, that ``data`` repeats, never past the first member after j that
    does not start where the one before it ends."""
    starts, ends = table.starts, table.ends
    stop = next(
        (k for k in range(j + 1, len(starts)) if starts[k] != ends[k - 1]), len(starts)
    )
    first, shift = memoryview(table.data), at - starts[j]
    good, bad, step = j + 1, stop + 1, 1  # members j..good-1 repeat; bad-1 not
    while bad - good > 1:
        mid = min(good + step, (good + bad) // 2)
        if data.startswith(first[ends[good - 1]:ends[mid - 1]], ends[good - 1] + shift):
            good, step = mid, 2 * step
        else:
            bad = mid
    return good


def runs_both_ways(sources):
    """The table the first version's parse leaves, maybe cut short by its
    ParseError, and each later version's ``_repeats`` runs over it found
    by ``_extend`` and by ``reference_extend``."""
    table = javaparse.MemberTable()
    try:
        parse_units(sources[0], table)
    except ParseError:
        pass
    runs = [javaparse._repeats(s, table) for s in sources[1:]]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(javaparse, "_extend", reference_extend)
        reference = [javaparse._repeats(s, table) for s in sources[1:]]
    return table, runs, reference


def test_runs_equal_the_reference_runs_on_the_differential_sweep():
    for name, sources in sweep_triples(20261019, 6):
        _, runs, reference = runs_both_ways(sources)
        assert runs == reference, name


def _busy_members(rng: random.Random, parts: list[bytes], rate: float) -> list[bytes]:
    """``parts`` with each member edited, and an initializer, a nested type
    or a stray ';' put before it, each at a chance of ``rate``."""
    puts = (
        b"  static { q(); }\n", b"  { r(); }\n", b"  ;\n",
        b"  static class N%d { int a; void b() {} }\n",
        b"  interface I%d { void c(); }\n",
    )
    out = []
    for part in parts:
        if rng.random() < rate:
            put = rng.choice(puts)
            out.append(put.replace(b"%d", b"%d" % rng.randrange(10**6)))
        if rng.random() < rate:
            part = part.replace(b"a + ", b"a - ")
        out.append(part)
    return out


def test_runs_equal_the_reference_runs_on_a_busy_class():
    rng = random.Random(30)
    _, members, _ = _class_parts(_class_source(2000, set(), ""))
    base = _busy_members(rng, [m.lstrip(b"\n") + b"\n" for m in members], 0.02)
    sources = [base] + [_busy_members(rng, base, 0.03) for _ in range(2)]
    sources = [b"class Big {\n" + b"".join(parts) + b"}\n" for parts in sources]
    table, runs, reference = runs_both_ways(sources)
    assert runs == reference
    starts, ends = table.starts, table.ends
    # some runs stop at a member that does not start where the one before it
    # ends, and some at one whose text differs
    stops = [k for version in runs for _, _, k in version if k < len(starts)]
    assert sum(starts[k] != ends[k - 1] for k in stops) >= 40
    assert sum(starts[k] == ends[k - 1] for k in stops) >= 40
    assert shared(sources) == separate(sources)


def test_a_later_version_costs_its_edits_and_runs_not_its_members(monkeypatch):
    n = 2000
    edited = set(random.Random(16).sample([i for i in range(n) if i % 4 != 3], 10))
    first, later = _class_source(n, set(), ""), _class_source(n, edited, " + 1")
    table = javaparse.MemberTable()
    base = parse_units(first, table)
    parsed, built = [], []
    real_member, real_node = _Parser._parse_member, javaparse.DeclNode

    def parse_member(self, *args):
        parsed.append(args[0])
        return real_member(self, *args)

    def node(*args, **kwargs):
        built.append(args[0])
        return real_node(*args, **kwargs)

    monkeypatch.setattr(_Parser, "_parse_member", parse_member)
    monkeypatch.setattr(javaparse, "DeclNode", node)
    tree = parse_units(later, table)
    monkeypatch.undo()
    # each edit is parsed, and each run of the rest is taken whole
    assert len(parsed) == len(edited)
    assert len(built) <= 60
    assert shape(tree) == shape(parse_units(later))
    taken = sum(a is b for a, b in zip(tree.children[0].children, base.children[0].children))
    assert taken == n - len(edited)


def test_a_text_block_in_a_repeated_member_keeps_its_lexing():
    block = b'  String s() {\n    return """\n      a { b; "c" } \\"""\n      """;\n  }\n'
    first = b"class T {\n  int x;\n" + block + b"  void g() {}\n}\n"
    later = first.replace(b"int x;", b"int x = 1;")
    assert_lexing_copied_exactly([first, later])
    assert_lexing_copied_exactly([later, first])
    trees = parse_versions(first, later, later + b"// end\n")
    assert kinds_and_ids(trees[0].children[0]) == [
        ("field", "x"), ("method", "s()"), ("method", "g()"),
    ]
    assert trees[1].children[0].children[1] is trees[0].children[0].children[1]
    node = trees[0].children[0].children[1]
    literal = block[block.index(b'"""'):block.rindex(b'"""') + 3]
    # marking the shared node, which lexes its text, hides the whole block
    assert lex_states(node.text()).count(b"\0") == len(literal)


# -- plain member heads, keyed by one match ------------------------------------

def _loop_reads(source: bytes) -> tuple[object, int]:
    """``separate([source])``, and how many members the token loop read."""
    real = _Parser._plain_member
    misses = []

    def counted(self, *args):
        found = real(self, *args)
        if found is None:
            misses.append(1)
        return found

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_Parser, "_plain_member", counted)
        result = separate([source])
    return result, len(misses)


def loop_only(parse, sources):
    """``parse(sources)`` with every member head read by the token loop."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_Parser, "_plain_member", lambda self, *args: None)
        return parse(sources)


def _plain_class(rng: random.Random, n: int) -> bytes:
    """A class of ``n`` plain methods and fields, in varied spellings."""
    gaps = (" ", "  ", "\n    ", "\t", " /* c; { */ ", "\n// c (\n")
    types = ("int", "String", "long[]", "java.util.List", "Map . Entry",
             "byte [ ] []", "Ω")

    def gap():
        return rng.choice(gaps)

    members = []
    for k in range(n):
        mods = rng.sample(("public", "private", "static", "final", "synchronized"),
                          rng.randrange(3))
        head = "".join(m + gap() for m in mods)
        if rng.random() < 0.8:
            head += rng.choice(types) + gap()
        if k % 3 == 2:
            init = rng.choice(("", " = 1", ' = "a;{(,<@"', " = a.b >> 2", " = 'x'"))
            members.append(f"{head}f{k}{init};")
            continue
        params = ",".join(
            f"{gap()}{rng.choice(types)}{gap()}p{j}{rng.choice(('', ' '))}"
            for j in range(rng.randrange(4))
        )
        end = rng.choice(
            (";", " {}", " { return '{' + (x); } // }", "{\n  if (a) { b(); }\n}")
        )
        members.append(f"{head}m{k}{gap()}({params}){end}")
    body = "".join(f"\n{rng.choice(('', '  /** doc */ '))}  {m}" for m in members)
    return f"abstract class Plain {{{body}\n}}\n".encode()


@pytest.mark.parametrize("seed", range(5))
def test_a_class_of_plain_heads_never_enters_the_token_loop(seed):
    source = _plain_class(random.Random(seed), 60)
    result, misses = _loop_reads(source)
    assert misses == 0
    assert result == loop_only(separate, [source])
    assert len(parse_units(source).children[0].children) == 60


@pytest.mark.parametrize(
    "member,expected",
    [
        (b"<T> void f(T a) {}", [("method", "f(T)")]),
        (b"void f(@A int a) {}", [("method", "f(int)")]),
        (b"void f(final int a) {}", [("method", "f(int)")]),
        (b"void f(int... a) {}", [("method", "f(int...)")]),
        (b"void f(int a[]) {}", [("method", "f(int[])")]),
        (b"void f() throws E {}", [("method", "f()")]),
        (b"int a, b = 2;", [("field", "a,b")]),
        (b"non-sealed class N {}", [("type", "N")]),
        (b"class N {}", [("type", "N")]),
        (b"static class N {}", [("type", "N")]),
        (b"Foo() {} int Foo() {}", [("constructor", "Foo()"), ("method", "Foo()")]),
        (b"Foo(); ", [("method", "Foo()")]),
        (b"public static(int a) {}", [("method", "static(int)")]),
        (b"int x() [] {}", [("method", "x()")]),
        (b"@Override public int f() {}", [("method", "f()")]),
        (b"int[] t = {1, 2};", [("field", "t")]),
        (b"Runnable r = () -> f();", [("field", "r")]),
        (b"static { f(); }", [("initializer", "#0")]),
    ],
)
def test_other_heads_take_the_token_loop_and_key_as_before(member, expected):
    source = b"class Foo { " + member + b" }"
    result, misses = _loop_reads(source)
    assert misses == len(expected)
    assert kinds_and_ids(parse_units(source).children[0]) == expected
    assert result == loop_only(separate, [source])


def test_an_annotation_member_with_default_takes_the_token_loop():
    source = b"@interface Q { int v() default 1; String w(); }"
    result, misses = _loop_reads(source)
    assert misses == 1
    assert kinds_and_ids(parse_units(source).children[0]) == [
        ("annotation-member", "v()"), ("annotation-member", "w()"),
    ]
    assert result == loop_only(separate, [source])


def test_plain_heads_parse_as_the_token_loop_on_fixtures_and_mutations():
    rng = random.Random(1218)
    for path in CORPUS_FILES + sorted((FIXTURES / "golden").rglob("*.java")):
        data = path.read_bytes()
        sources = [data] + [
            mutate(data, [
                (rng.randrange(1 << 30), rng.choice((0, 0, 1, 2)), rng.choice(_INSERTS))
                for _ in range(rng.randrange(1, 4))
            ])
            for _ in range(8)
        ]
        for source in sources:
            assert separate([source]) == loop_only(separate, [source]), path.name
        triple = _triple(rng, data)
        assert shared(triple) == loop_only(shared, triple), path.name


@settings(max_examples=200, deadline=None)
@given(_method())
def test_generated_parameter_lists_key_alike_on_both_paths(method):
    source, _ = method
    assert separate([source]) == loop_only(separate, [source])
