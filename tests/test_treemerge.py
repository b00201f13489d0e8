"""Tree superimposition and declaration-aware merge rules."""

import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sesame import textmerge, treemerge
from sesame import separators as separators_module
from sesame.javaparse import DeclNode, ParseError, parse_units, parse_versions
from sesame.separators import SeparatorSet
from sesame.textmerge import (
    Conflict,
    MergeOutcome,
    Resolved,
    count_conflicts,
    join,
    merge_texts_outcome,
    render,
)
from sesame.treemerge import _ordered_keys, _taken, match_trees, merge_matched

# how bodies changed on both sides merge: line by line, or through separators
PLAIN = {"separators": None}
ENHANCED = {"separators": SeparatorSet()}


def merge_sources(base, left, right, policy=PLAIN):
    matched = match_trees(parse_units(base), parse_units(left), parse_units(right))
    outcome = merge_matched(matched, **policy)
    return render(outcome)


def golden(name, role):
    return Path(f"tests/fixtures/golden/{name}/{role}.java").read_bytes()


# -- matching ----------------------------------------------------------------

def test_identical_trees_fully_matched():
    src = golden("method_addition", "base")
    m = match_trees(parse_units(src), parse_units(src), parse_units(src))
    def check(node):
        assert node.base is not None and node.left is not None and node.right is not None
        for child in node.children:
            check(child)
    check(m)


def test_one_sided_additions_matched_one_sided():
    m = match_trees(
        parse_units(golden("method_addition", "base")),
        parse_units(golden("method_addition", "left")),
        parse_units(golden("method_addition", "right")),
    )
    util = next(c for c in m.children if c.kind() == "type")
    by_id = {}
    for child in util.children:
        node = child.left or child.right or child.base
        by_id[node.identifier] = child
    copy = by_id["copyList(List)"]
    assert copy.left is not None and copy.base is None and copy.right is None
    create = by_id["createListFromArray(T[])"]
    assert create.right is not None and create.base is None and create.left is None
    add = by_id["addElementToList(List,T)"]
    assert add.base is not None and add.left is not None and add.right is not None


def test_deleted_member_matched_without_left():
    base = b"class A { void m() { old(); } void k() {} }"
    left = b"class A { void k() {} }"
    right = base
    m = match_trees(parse_units(base), parse_units(left), parse_units(right))
    a = m.children[0]
    gone = next(c for c in a.children if (c.base or c.right).identifier == "m()")
    assert gone.left is None and gone.base is not None and gone.right is not None


def test_added_declarations_anchor_after_predecessors():
    base = b"class A { void one() {} void two() {} }"
    left = b"class A { void one() {} void afterOne() {} void two() {} }"
    right = b"class A { void one() {} void two() {} void atEnd() {} }"
    merged = merge_sources(base, left, right)
    order = [c.identifier for c in parse_units(merged).children[0].children]
    assert order == ["one()", "afterOne()", "two()", "atEnd()"]


def test_same_anchor_left_additions_precede_rights():
    base = b"class A { void tail() {} }"
    left = b"class A { void fromLeft() {} void tail() {} }"
    right = b"class A { void fromRight() {} void tail() {} }"
    merged = merge_sources(base, left, right)
    order = [c.identifier for c in parse_units(merged).children[0].children]
    assert order == ["fromLeft()", "fromRight()", "tail()"]


def reference_ordered_keys(b_nodes, l_nodes, r_nodes):
    """The original list-based ordering (quadratic), kept as the specification."""
    keys = [n.key() for n in b_nodes]
    present = set(keys)
    last = -1
    for n in l_nodes:
        k = n.key()
        if k in present:
            last = keys.index(k)
        else:
            keys.insert(last + 1, k)
            present.add(k)
            last += 1
    r_keys = {n.key() for n in r_nodes}
    last = -1
    for n in r_nodes:
        k = n.key()
        if k in present:
            last = keys.index(k)
        else:
            pos = last + 1
            while pos < len(keys) and keys[pos] not in r_keys:
                pos += 1
            keys.insert(pos, k)
            present.add(k)
            last = pos
    return keys


# a side is a reordered subset of the base's names plus names of its own;
# names 20-29 may be added by both sides
side_names = st.lists(st.integers(0, 29), unique=True, max_size=25)


@given(st.lists(st.integers(0, 19), unique=True, max_size=20), side_names, side_names)
@settings(max_examples=1000)
def test_ordered_keys_matches_reference(base, left, right):
    def nodes(names):
        return [DeclNode("method", f"m{k}()") for k in names]

    def by_key(nodes):
        return {n.key(): n for n in nodes}

    b, l, r = nodes(base), nodes(left), nodes(right)
    assert _ordered_keys(by_key(b), by_key(l), by_key(r)) == reference_ordered_keys(b, l, r)


# -- merge rules ---------------------------------------------------------------

def test_identical_bodies_keep_base():
    src = b"class A { void m() { same(); } }"
    assert merge_sources(src, src, src) == src


def test_one_sided_body_change_adopts():
    base = b"class A { void m() { old(); } }"
    left = b"class A { void m() { renewed(); } }"
    assert merge_sources(base, left, base) == left
    assert merge_sources(base, base, left) == left


def test_both_sides_changed_same_body_merges_textually():
    base = b"class A { void m() {\n  a();\n  mid();\n  z();\n} }"
    left = b"class A { void m() {\n  a1();\n  mid();\n  z();\n} }"
    right = b"class A { void m() {\n  a();\n  mid();\n  z9();\n} }"
    merged = merge_sources(base, left, right)
    assert merged == b"class A { void m() {\n  a1();\n  mid();\n  z9();\n} }"


def test_adjacent_body_lines_conflict_under_plain_policy():
    base = b"class A { void m() {\n  a();\n  z();\n} }"
    left = b"class A { void m() {\n  a1();\n  z();\n} }"
    right = b"class A { void m() {\n  a();\n  z9();\n} }"
    assert count_conflicts(merge_sources(base, left, right)) == 1
    # the statement separator gives the enhanced policy a stable region
    assert count_conflicts(merge_sources(base, left, right, ENHANCED)) == 0


def test_added_on_one_side_included():
    base = b"class A { void m() {} }"
    left = b"class A { void m() {} void added() {} }"
    assert merge_sources(base, left, base) == left


def test_deleted_vs_untouched_removed():
    base = b"class A { void m() {} void gone() { x(); } }"
    left = b"class A { void m() {} }"
    assert merge_sources(base, left, base) == left


def test_deleted_vs_modified_conflicts():
    base = b"class A {\n  void gone() {\n    x();\n  }\n}\n"
    left = b"class A {\n}\n"
    right = b"class A {\n  void gone() {\n    y();\n  }\n}\n"
    merged = merge_sources(base, left, right)
    assert count_conflicts(merged) == 1
    # left payload empty, right payload the modified declaration
    assert b"<<<<<<< left\n=======" in merged
    assert b"y();" in merged


def test_both_added_same_key_equal_bodies_single_copy():
    base = b"class A { }"
    left = b"class A { void twin() { same(); } }"
    merged = merge_sources(base, left, left)
    assert merged == left
    assert count_conflicts(merged) == 0


def test_both_added_same_key_different_bodies_conflict():
    base = b"class A {\n}\n"
    left = b"class A {\n  void twin() { fromLeft(); }\n}\n"
    right = b"class A {\n  void twin() { fromRight(); }\n}\n"
    merged = merge_sources(base, left, right)
    assert count_conflicts(merged) == 1
    assert b"fromLeft();" in merged and b"fromRight();" in merged


def test_import_section_merged_as_block():
    base = b"import a.A;\nimport b.B;\n\nclass C {}\n"
    left = b"import a.A;\nimport a2.A2;\nimport b.B;\n\nclass C {}\n"
    right = b"import a.A;\nimport b.B;\nimport c.CC;\n\nclass C {}\n"
    merged = merge_sources(base, left, right)
    assert merged == (
        b"import a.A;\nimport a2.A2;\nimport b.B;\nimport c.CC;\n\nclass C {}\n"
    )


def test_field_changes_on_distinct_fields_merge():
    base = b"class A {\n  int x = 1;\n  int y = 2;\n}\n"
    left = b"class A {\n  int x = 10;\n  int y = 2;\n}\n"
    right = b"class A {\n  int x = 1;\n  int y = 20;\n}\n"
    merged = merge_sources(base, left, right)
    assert merged == b"class A {\n  int x = 10;\n  int y = 20;\n}\n"


# -- golden scenarios ---------------------------------------------------------

@pytest.mark.parametrize("policy,mode", [(PLAIN, "semistructured"), (ENHANCED, "sesame")])
def test_method_addition_juxtaposes(policy, mode):
    merged = merge_sources(
        golden("method_addition", "base"),
        golden("method_addition", "left"),
        golden("method_addition", "right"),
        policy,
    )
    assert merged == golden("method_addition", f"expected_{mode}")
    assert count_conflicts(merged) == 0


def test_extract_constant_conflicts_under_plain_policy():
    merged = merge_sources(
        golden("extract_constant", "base"),
        golden("extract_constant", "left"),
        golden("extract_constant", "right"),
        PLAIN,
    )
    assert merged == golden("extract_constant", "expected_semistructured")
    assert count_conflicts(merged) == 1


def test_extract_constant_merges_under_enhanced_policy():
    merged = merge_sources(
        golden("extract_constant", "base"),
        golden("extract_constant", "left"),
        golden("extract_constant", "right"),
        ENHANCED,
    )
    assert merged == golden("extract_constant", "expected_sesame")
    assert count_conflicts(merged) == 0


@pytest.mark.parametrize(
    "policy,expected,conflicts",
    [
        (PLAIN, "expected_semistructured", 1),
        (ENHANCED, "expected_sesame", 0),
    ],
)
def test_combined_changes(policy, expected, conflicts):
    merged = merge_sources(
        golden("combined_changes", "base"),
        golden("combined_changes", "left"),
        golden("combined_changes", "right"),
        policy,
    )
    assert merged == golden("combined_changes", expected)
    assert count_conflicts(merged) == conflicts


# -- invariants -----------------------------------------------------------------

def test_juxtaposition_commutative_in_member_set():
    base = golden("method_addition", "base")
    left = golden("method_addition", "left")
    right = golden("method_addition", "right")
    fwd = merge_sources(base, left, right)
    rev = merge_sources(base, right, left)
    assert count_conflicts(fwd) == count_conflicts(rev) == 0
    fwd_ids = {c.identifier for c in parse_units(fwd).children[0].children}
    rev_ids = {c.identifier for c in parse_units(rev).children[0].children}
    assert fwd_ids == rev_ids


def test_mirror_symmetry_of_conflict_count():
    base = golden("combined_changes", "base")
    left = golden("combined_changes", "left")
    right = golden("combined_changes", "right")
    assert count_conflicts(merge_sources(base, left, right)) == count_conflicts(
        merge_sources(base, right, left)
    )


def test_policies_agree_without_separator_characters():
    base = b"class A {\n  void m() {\n    alpha\n    mid\n    omega\n  }\n}\n"
    left = base.replace(b"alpha", b"ALPHA")
    right = base.replace(b"omega", b"OMEGA")
    # bodies differ on both sides but touched lines carry no separators
    stripped = base.replace(b"{", b"").replace(b"}", b"").replace(b"(", b"").replace(b")", b"").replace(b";", b"")
    assert stripped != base  # the wrapper has separators; the edits do not
    plain = merge_sources(base, left, right, PLAIN)
    enhanced = merge_sources(base, left, right, ENHANCED)
    assert count_conflicts(plain) == count_conflicts(enhanced) == 0
    assert plain == enhanced


def test_modes_equal_for_declaration_level_changes():
    # additions and deletions only: no body-level merge runs, so both
    # policies produce identical bytes
    base = golden("method_addition", "base")
    left = golden("method_addition", "left")
    right = golden("method_addition", "right")
    assert merge_sources(base, left, right, PLAIN) == merge_sources(
        base, left, right, ENHANCED
    )


def test_body_delegation_takes_changed_side():
    base = b"class A { void m() { v1(); } }"
    left = b"class A { void m() { v2(); } }"
    for policy in (PLAIN, ENHANCED):
        assert merge_sources(base, left, base, policy) == left
        assert merge_sources(base, base, left, policy) == left


def test_a_side_that_reorders_members_keeps_its_order():
    base = b"class A {\n  int x;\n  class B {\n    void f() {}\n    void g() {}\n  }\n}\n"
    moved = base.replace(b"void f() {}\n    void g() {}", b"void g() {}\n    void f() {}")
    edited = base.replace(b"int x;", b"int x = 1;")
    for policy in (PLAIN, ENHANCED):
        assert merge_sources(base, moved, base, policy) == moved
        assert merge_sources(base, base, moved, policy) == moved
        assert merge_sources(base, moved, moved, policy) == moved
        # the type that one side left alone is the other side's whole
        assert merge_sources(base, moved, edited, policy) == moved.replace(
            b"int x;", b"int x = 1;"
        )


def test_merge_matched_root_is_printable():
    base = parse_units(golden("method_addition", "base"))
    m = match_trees(base, base, base)
    assert render(merge_matched(m, None)) == base.text()


# -- how merge_matched decides one declaration --------------------------------

def _one_declaration(base, left, right):
    """The matched declaration of three versions that each hold it or not
    (None): a member of ``class A``, or a package before it."""
    def source(text):
        if text is not None and text.startswith(b"package"):
            return text + b"\nclass A {}\n"
        return b"class A {" + (b"\n" + text if text else b"") + b"\n}\n"

    matched = match_trees(*parse_versions(*map(source, (base, left, right))))
    if matched.children[0].kind() == "package":
        return matched.children[0]
    return matched.children[0].children[0]


_M = b"  void m() { a(); b(); }"
_M_LEFT = b"  void m() { a(1); b(); }"
_M_RIGHT = b"  void m() { a(); b(2); }"
_CONFLICT = b"<<<<<<< left\n%s\n=======\n%s\n>>>>>>> right"


@pytest.mark.parametrize(
    "versions,policy,rendered,conflicts",
    [
        pytest.param((_M, _M, _M), ENHANCED, b"\n" + _M, 0, id="unchanged"),
        pytest.param(
            (_M, _M_LEFT, _M), ENHANCED, b"\n" + _M_LEFT, 0, id="changed-on-one-side"
        ),
        pytest.param(
            (_M, _M_LEFT, _M_LEFT), ENHANCED, b"\n" + _M_LEFT, 0, id="changed-alike"
        ),
        pytest.param((_M, None, _M), ENHANCED, b"", 0, id="deleted-against-untouched"),
        pytest.param(
            (None, None, _M_RIGHT), ENHANCED, b"\n" + _M_RIGHT, 0, id="added-on-one-side"
        ),
        pytest.param(
            (None, _M_LEFT, _M_RIGHT), ENHANCED,
            _CONFLICT % (b"\n" + _M_LEFT, b"\n" + _M_RIGHT), 1, id="added-differently",
        ),
        pytest.param(
            (_M, _M_LEFT, _M_RIGHT), PLAIN, b"\n" + _CONFLICT % (_M_LEFT, _M_RIGHT), 1,
            id="changed-on-both-sides-plain",
        ),
        pytest.param(
            (_M, _M_LEFT, _M_RIGHT), ENHANCED, b"\n  void m() { a(1); b(2); }", 0,
            id="changed-on-both-sides-with-separators",
        ),
        # a package is keyed by its text with blanks made one, so it can
        # change on both sides; with separators it would split at the ';'
        pytest.param(
            (b"package a;", b"package  a;", b"package\ta;"), ENHANCED,
            _CONFLICT % (b"package  a;", b"package\ta;"), 1,
            id="package-changed-on-both-sides",
        ),
    ],
)
def test_merge_matched_decides_one_declaration(versions, policy, rendered, conflicts):
    matched = _one_declaration(*versions)
    assert matched.children == []
    present = [node is not None for node in (matched.base, matched.left, matched.right)]
    assert present == [text is not None for text in versions]
    outcome = merge_matched(matched, **policy)
    assert render(outcome) == rendered
    assert outcome.conflict_count() == conflicts


# -- runs of children taken whole ----------------------------------------------

# texts rich in line ends, so runs split lines at every kind of boundary
RUN_TEXT = st.one_of(
    st.binary(max_size=8),
    st.lists(st.sampled_from([b"\n", b"a", b"\r", b"bc", b""]), max_size=6).map(b"".join),
)
BEFORE_RUN = {
    "start": [],
    "resolved open line": [MergeOutcome([Resolved(b"x")])],
    # a conflict whose closing marker line is left open
    "conflict with an open end": [merge_texts_outcome(b"x", b"y", b"z")],
}


@given(
    st.lists(RUN_TEXT, max_size=6),
    st.sampled_from(sorted(BEFORE_RUN)),
    st.booleans(),
)
@settings(max_examples=600)
def test_a_run_joins_like_its_texts_one_by_one(texts, before, conflict_after):
    lead = BEFORE_RUN[before]
    tail = [merge_texts_outcome(b"a\n", b"b\n", b"c\n")] if conflict_after else []
    assert all(isinstance(o.regions[0], Conflict) for o in tail)
    one_by_one = join(lead + [_taken(text) for text in texts] + tail)
    as_run = join(lead + [b"".join(texts)] + tail)
    as_parts = join(lead + texts + tail)  # as ``_merge_container`` hands them
    assert as_run == one_by_one == as_parts


def _merged_child_by_child(matched, separators):
    """``merge_matched`` with every container child merged on its own."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(treemerge, "_unmerged", lambda child: None)
        return merge_matched(matched, separators)


def _edited(rng: random.Random, data: bytes) -> bytes:
    """``data`` with comments added, which mostly keeps it parseable."""
    lines = data.split(b"\n")
    for _ in range(rng.randint(1, 3)):
        k = rng.randrange(len(lines))
        if rng.random() < 0.5:
            lines.insert(k, b"    // note")
        else:
            lines[k] += b" /* x */"
    return b"\n".join(lines)


def _fixture_triples():
    fixtures = Path("tests/fixtures")
    for case in sorted((fixtures / "golden").iterdir()):
        yield [(case / f"{role}.java").read_bytes() for role in ("base", "left", "right")]
    rng = random.Random(13)
    for path in sorted((fixtures / "java_corpus").glob("*.java")):
        base = path.read_bytes()
        for _ in range(3):
            yield [base, _edited(rng, base), _edited(rng, base)]


@pytest.mark.parametrize("separators", [None, SeparatorSet()], ids=["plain", "enhanced"])
def test_runs_merge_as_each_child_merged_on_its_own(separators):
    merged = 0
    for sources in _fixture_triples():
        try:
            matched = match_trees(*parse_versions(*sources))
        except ParseError:
            continue
        outcome = merge_matched(matched, separators)
        assert outcome == _merged_child_by_child(matched, separators)
        merged += 1
    assert merged > 300


def _class_source(n: int, edits: dict[int, str]) -> bytes:
    members = []
    for k in range(n):
        if k % 4 == 3:
            members.append(f"  private int f{k} = {k}{edits.get(k, '')};\n")
        else:
            body = f"return a + {k}{edits.get(k, '')};"
            members.append(f"  int m{k}(int a) {{ {body} }}\n")
    return ("class Big {\n" + "".join(members) + "}\n").encode()


@pytest.mark.parametrize("separators", [None, SeparatorSet()], ids=["plain", "enhanced"])
@pytest.mark.parametrize("k", [0, 1, 20])
def test_merge_calls_scale_with_members_changed_on_both_sides(monkeypatch, separators, k):
    n = 400
    rng = random.Random(k)
    shuffled = rng.sample(range(n), k + 45)
    both, left_only, right_only = shuffled[:k], shuffled[k:k + 20], shuffled[k + 20:k + 40]
    alike = {i: " + 3" for i in shuffled[k + 40:]}  # changed the same way on both sides
    left = {i: " + 1" for i in both + left_only} | alike
    right = {i: " + 2" for i in both + right_only} | alike
    sources = [_class_source(n, {}), _class_source(n, left), _class_source(n, right)]
    matched = match_trees(*parse_versions(*sources))
    expected = _merged_child_by_child(matched, separators)
    counts = dict.fromkeys(("merge_matched", "split_lines", "merge_texts_outcome", "mark"), 0)
    modules = (treemerge, textmerge, separators_module)
    for name in counts:
        real = next(vars(m)[name] for m in modules if name in vars(m))

        def counting(*args, real=real, name=name):
            counts[name] += 1
            return real(*args)

        for module in modules:  # every name the function is called by
            if vars(module).get(name) is real:
                monkeypatch.setattr(module, name, counting)
    outcome = treemerge.merge_matched(matched, separators)
    assert counts["merge_matched"] <= k + 3
    # lines are split only to merge: three texts per merge, one per marking
    assert "split_lines" not in vars(treemerge)
    assert counts["split_lines"] == 3 * counts["merge_texts_outcome"] + counts["mark"]
    assert outcome == expected
    assert outcome.conflict_count() == k
