"""Tree superimposition and declaration-aware merge rules."""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sesame.javaparse import DeclNode, parse_units
from sesame.separators import SeparatorSet
from sesame.textmerge import count_conflicts, render
from sesame.treemerge import _ordered_keys, match_trees, merge_matched

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

    b, l, r = nodes(base), nodes(left), nodes(right)
    assert _ordered_keys(b, l, r) == reference_ordered_keys(b, l, r)


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


def test_merge_matched_root_is_printable():
    base = parse_units(golden("method_addition", "base"))
    m = match_trees(base, base, base)
    assert render(merge_matched(m, None)) == base.text()
