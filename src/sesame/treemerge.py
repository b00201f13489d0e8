"""Superimposition of declaration trees and declaration-aware merging.

A file's package and imports come before its types, in that order (JLS
7.3), and the parser rejects any other order, so they are no declarations
to match: each of the two sections merges as text, line by line (an
import that both sides add is kept once, where left put it), and the
merged file holds the package, then the imports, then the types.  The
types of the three versions, and their members, are matched level-wise by
kind and identifier.  Declarations added on one side are juxtaposed at
their insertion anchors.  ``textmerge.take_side`` decides each declaration
and section: a one-sided change or deletion is taken, and one changed on
both sides is merged line by line, or through separator marking when a
separator set is given.  The result is one ``MergeOutcome`` for the whole
file, joined from the outcomes of its fragments: a resolved region is its
bytes, a conflict stays a region, and the caller renders and counts them.
``merge_matched`` alone decides how each declaration merges; its
docstring gives the order of the rules.

The merge goes by runs.  Every declaration that one side gives whole (it
is unchanged, changed on one side only, or changed alike on both) is kept
as that side's text, a whole file or type included, and ``join`` copies
the texts between two children that really merge into one resolved
region.  Only types and declarations changed on both sides get a merge of
their own, so the work scales with what changed, not with the member
count.  Versions are compared as nodes: matched nodes share their
container and key, and the parse of one text is one tree, so two versions
are equal nodes exactly when their texts are equal.  A member that a later
version took from the first is the first's own node, so it compares at
once.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .javaparse import DeclNode, ORDERED_KINDS, WS_RUN
from .lexer import lex_states
from .separators import SeparatorSet, merge_body
from .textmerge import MergeOutcome, join, merge_texts_outcome, take_side

# the line break that may open a declaration's text
_BREAK = re.compile(rb"\r?\n")


@dataclass
class MatchedNode:
    """One declaration matched across base, left, and right."""

    base: DeclNode | None
    left: DeclNode | None
    right: DeclNode | None
    children: list["MatchedNode"] = field(default_factory=list)


def match_trees(base: DeclNode, left: DeclNode, right: DeclNode) -> MatchedNode:
    """Match the types of three parsed compilation units level-wise by
    kind and identifier; their packages and imports are not matched."""
    children = _match_children(_types(base), _types(left), _types(right))
    return MatchedNode(base, left, right, children)


def _types(cu: DeclNode) -> list[DeclNode]:
    return [c for c in cu.children if c.kind not in ORDERED_KINDS]


def _match_children(
    b_nodes: list[DeclNode], l_nodes: list[DeclNode], r_nodes: list[DeclNode]
) -> list[MatchedNode]:
    by_key_b = {n.key(): n for n in b_nodes}
    by_key_l = {n.key(): n for n in l_nodes}
    by_key_r = {n.key(): n for n in r_nodes}
    out: list[MatchedNode] = []
    for key in _ordered_keys(by_key_b, by_key_l, by_key_r):
        b = by_key_b.get(key)
        l = by_key_l.get(key)
        r = by_key_r.get(key)
        m = MatchedNode(b, l, r)
        if (
            b is not None
            and l is not None
            and r is not None
            and b.kind == "type"
        ):
            m.children = _match_children(b.children, l.children, r.children)
        out.append(m)
    return out


def _ordered_keys(b_keys, l_keys, r_keys) -> list[tuple[str, str]]:
    """Base order, then left's additions at their anchors, then right's.

    Each argument maps a version's keys, in file order, to its nodes.  An
    added declaration is placed after its nearest predecessor already in
    the list; at a shared anchor, right's additions follow left's.  The
    list is kept as a singly linked chain (``after`` maps each key to its
    successor), so every insertion is O(1).  Right's scan past keys it does
    not have never revisits a key, so the whole ordering is linear.
    """
    head = object()
    after: dict = {head: None}
    prev = head
    for k in b_keys:
        after[prev] = k
        prev = k
    after[prev] = None
    anchor = head
    for k in l_keys:
        if k not in after:
            after[k] = after[anchor]
            after[anchor] = k
        anchor = k
    anchor = head
    for k in r_keys:
        if k not in after:
            while after[anchor] is not None and after[anchor] not in r_keys:
                anchor = after[anchor]
            after[k] = after[anchor]
            after[anchor] = k
        anchor = k
    keys = []
    k = after[head]
    while k is not None:
        keys.append(k)
        k = after[k]
    return keys


def merge_matched(
    matched: MatchedNode, separators: SeparatorSet | None
) -> MergeOutcome:
    """Merge one matched node, such as a whole file from ``match_trees``.

    Each declaration is decided here, in this order:

    1. a declaration that one side gives whole by ``take_side``
       (``_unmerged``) is that side's text, so a side's reordered members
       stay in its order;
    2. a compilation unit or type present in all three versions merges by
       runs (``_merge_container``), which calls back here only for the
       children that no side gives whole;
    3. a declaration present in all three versions merges through
       ``separators`` when given;
    4. anything else merges line by line.

    A version without the declaration takes part as empty text, so a
    removal honoured against an untouched counterpart merges to an empty
    outcome, which joins as nothing.
    """
    text = _unmerged(matched)
    if text is not None:
        return MergeOutcome([text] if text else [])
    b, l, r = matched.base, matched.left, matched.right
    three = b is not None and l is not None and r is not None
    if three and b.kind in ("compilation-unit", "type"):
        return _merge_container(matched, separators)
    if three and separators is not None:
        return merge_body(b.text(), l.text(), r.text(), separators)
    return merge_texts_outcome(_text(b), _text(l), _text(r))


def _merge_container(
    matched: MatchedNode, separators: SeparatorSet | None
) -> MergeOutcome:
    """Merge a container's header, its children in order, and its body.

    A compilation unit's package and its imports come after its header and
    before its types, each section the text of those declarations merged
    as one part.  Each part that one side gives whole (see ``_part``) is
    handed to ``join`` as its text, so the header, the import block and the
    members that at most one side changed cost no merge, and the texts
    between two merged parts become one resolved region.
    """
    b, l, r = matched.base, matched.left, matched.right
    parts = [_part(b.header_text, l.header_text, r.header_text)]
    if b.kind == "compilation-unit":
        parts.append(_part(_section(b, "package"), _section(l, "package"), _section(r, "package")))
        bt, lt, rt = _section(b, "import"), _section(l, "import"), _section(r, "import")
        if take_side(bt, lt, rt) is None:
            # an import that both sides add is left's: right's copy is dropped
            rt = _section(r, "import", _imports(l) - _imports(b))
        parts.append(_part(bt, lt, rt))
    for child in matched.children:
        text = _unmerged(child)
        parts.append(merge_matched(child, separators) if text is None else text)
    parts.append(_part(b.body_text, l.body_text, r.body_text))
    return join(parts)


def _unmerged(matched: MatchedNode) -> bytes | None:
    """The text of the side that gives a declaration whole, or None where
    each side changed it its own way.  An absent version takes part as
    empty text, which no node equals."""
    b, l, r = matched.base, matched.left, matched.right
    side = take_side(b"" if b is None else b, b"" if l is None else l, b"" if r is None else r)
    return side.text() if isinstance(side, DeclNode) else side


def _text(node: DeclNode | None) -> bytes:
    return b"" if node is None else node.text()


def _section(cu: DeclNode, kind: str, skip: frozenset = frozenset()) -> bytes:
    """The text of a compilation unit's package or of its imports.

    A declaration whose key is in ``skip`` is left out with its line: its
    text from its first word on goes, and so does the line break before
    it, or, where none comes between it and the text before it, the one
    after it.  Only an LF of code is a line break: one inside a comment
    that ends before the word is not, so that comment stays whole.  The
    comments and blank lines above it stay.
    """
    texts, cut = [], False
    for c in cu.children:
        if c.kind != kind:
            continue
        text = c.text()
        if cut and (m := _BREAK.match(text)):
            text = text[m.end():]
        cut = c.key() in skip
        if cut:
            # the text before its first word: blanks in its code view,
            # where comments are blanks too
            view = lex_states(text)
            lead = text[:WS_RUN.match(view).end()]
            line = lead.rfind(b"\n")
            cut = line < 0 or view[line] != 10
            text = lead if cut else lead[:line].removesuffix(b"\r")
        texts.append(text)
    return b"".join(texts)


def _imports(cu: DeclNode) -> frozenset[tuple[str, str]]:
    return frozenset(c.key() for c in cu.children if c.kind == "import")


def _part(bt: bytes, lt: bytes, rt: bytes) -> MergeOutcome | bytes:
    """The text of the side that gives the merge whole, or the texts merged."""
    text = take_side(bt, lt, rt)
    return merge_texts_outcome(bt, lt, rt) if text is None else text
