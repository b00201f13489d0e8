"""Superimposition of declaration trees and declaration-aware merging.

Trees from the three versions of a file are matched level-wise by kind and
identifier.  Declarations added on one side are juxtaposed at their
insertion anchors, deletions against an untouched counterpart are honored,
and a declaration changed on both sides has its text merged line by line,
or through separator marking when a separator set is given.  The result is
one ``MergeOutcome`` for the whole file, joined from the outcomes of its
fragments: resolved regions hold text, conflicts stay regions, and the
caller renders and counts them.  ``merge_matched`` alone decides how each
declaration merges; its docstring gives the order of the rules.

The merge goes by runs.  In a compilation unit or type present in all
three versions, every child that one side gives whole (it is unchanged,
changed on one side only, or changed alike on both) is kept as that
side's text, and ``join`` copies the texts between two children that
really merge into one resolved region.  Only nested types and
declarations changed on both sides get a merge of their own, so the work
scales with what changed, not with the member count.  Versions are
compared by header and body: a member that a later version took from the
first is the first's own node, so it compares at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .javaparse import DeclNode, ORDERED_KINDS
from .separators import SeparatorSet, merge_body
from .textmerge import MergeOutcome, Resolved, join, merge_texts_outcome


@dataclass
class MatchedNode:
    """One declaration matched across base, left, and right."""

    base: DeclNode | None
    left: DeclNode | None
    right: DeclNode | None
    children: list["MatchedNode"] = field(default_factory=list)

    def kind(self) -> str:
        for node in (self.base, self.left, self.right):
            if node is not None:
                return node.kind
        raise ValueError("empty matched node")


def match_trees(base: DeclNode, left: DeclNode, right: DeclNode) -> MatchedNode:
    """Match three parsed trees level-wise by kind and identifier."""
    children = _match_children(base.children, left.children, right.children)
    return MatchedNode(base, left, right, children)


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

    1. a compilation unit or type present in all three versions merges by
       runs (``_merge_container``), which calls back here only for the
       children that no side gives whole;
    2. a declaration that one side gives whole (``_unmerged``) is that
       side's text;
    3. a declaration present in all three versions, other than a package
       or import, merges through ``separators`` when given, with the lexer
       states its parse kept;
    4. anything else merges line by line.

    A version without the declaration takes part as empty text, so a
    removal honoured against an untouched counterpart merges to an empty
    outcome, which joins as nothing.
    """
    b, l, r = matched.base, matched.left, matched.right
    three = b is not None and l is not None and r is not None
    if three and b.kind in ("compilation-unit", "type"):
        return _merge_container(matched, separators)
    text = _unmerged(matched)
    if text is not None:
        return _taken(text)
    if three and separators is not None and b.kind not in ORDERED_KINDS:
        states = (b.states, l.states, r.states)
        return merge_body(b.text(), l.text(), r.text(), separators, states)
    return merge_texts_outcome(_text(b), _text(l), _text(r))


def _merge_container(
    matched: MatchedNode, separators: SeparatorSet | None
) -> MergeOutcome:
    """Merge a container's header, its children in order, and its body.

    Each part that one side gives whole (see ``_part``) is handed to
    ``join`` as its text, so the header, the import block and the members
    that at most one side changed cost no merge, and the texts between two
    merged parts become one resolved region.
    """
    b, l, r = matched.base, matched.left, matched.right
    parts = [_part(b.header_text, l.header_text, r.header_text)]
    imports_done = False
    for child in matched.children:
        if child.kind() == "import":
            # imports are order-sensitive: the whole section merges as one block
            if not imports_done:
                imports_done = True
                parts.append(_part(_import_text(b), _import_text(l), _import_text(r)))
            continue
        text = _unmerged(child)
        parts.append(merge_matched(child, separators) if text is None else text)
    parts.append(_part(b.body_text, l.body_text, r.body_text))
    return join(parts)


def _unmerged(matched: MatchedNode) -> bytes | None:
    """The text of the side that gives a container's child whole, by the
    rule of ``_part``, or None where the child is merged: a type in all
    three versions, or a declaration that each side changed its own way."""
    b, l, r = matched.base, matched.left, matched.right
    if b is not None and l is not None and r is not None and b.kind == "type":
        return None
    if _same(l, b):
        return _text(r)
    if _same(r, b) or _same(l, r):
        return _text(l)
    return None


def _same(x: DeclNode | None, y: DeclNode | None) -> bool:
    """Whether two versions of a declaration have equal text, an absent one
    reading as empty.  Leaves with headers of one length have equal text
    exactly when their headers and their bodies are equal, so those parts
    are compared, not joined; a node is the same as itself at once."""
    if x is y:
        return True
    if x is None or y is None or x.children or y.children:
        return _text(x) == _text(y)
    if len(x.header_text) == len(y.header_text):
        return x.header_text == y.header_text and x.body_text == y.body_text
    return x.text() == y.text()


def _text(node: DeclNode | None) -> bytes:
    return b"" if node is None else node.text()


def _import_text(cu: DeclNode) -> bytes:
    return b"".join(c.text() for c in cu.children if c.kind == "import")


def _part(bt: bytes, lt: bytes, rt: bytes) -> MergeOutcome | bytes:
    """The text of the side that gives the merge whole, or the texts merged."""
    if lt == bt:
        return rt
    if rt == bt or lt == rt:
        return lt
    return merge_texts_outcome(bt, lt, rt)


def _taken(text: bytes) -> MergeOutcome:
    """One side's text, unchanged, as a single resolved region."""
    return MergeOutcome([Resolved(text)] if text else [])
