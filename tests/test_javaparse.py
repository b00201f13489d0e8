"""Shallow parser: structure, round trips, signatures, and failure modes."""

from pathlib import Path

import pytest

from sesame.javaparse import (
    DuplicateDeclarationError,
    ParseError,
    parse_units,
)


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
