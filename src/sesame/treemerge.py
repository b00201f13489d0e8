"""Superimposition of declaration trees and declaration-aware merging.

Trees from the three versions of a file are matched level-wise by kind and
identifier.  Declarations added on one side are juxtaposed at their
insertion anchors, deletions against an untouched counterpart are honored,
and a declaration changed on both sides has its text merged line by line,
or through separator marking when a separator set is given.  The result is
one ``MergeOutcome`` for the whole file, joined from the outcomes of its
fragments: conflicts stay regions, and the caller renders and counts them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .javaparse import DeclNode, ORDERED_KINDS
from .separators import SeparatorSet, merge_body
from .textmerge import MergeOutcome, Resolved, join, merge_texts_outcome, split_lines


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
    keys = _ordered_keys(b_nodes, l_nodes, r_nodes)
    out: list[MatchedNode] = []
    for key in keys:
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


def _ordered_keys(b_nodes, l_nodes, r_nodes) -> list[tuple[str, str]]:
    """Base order, then left's additions at their anchors, then right's.

    An added declaration is placed after its nearest predecessor already in
    the list; at a shared anchor, right's additions follow left's.  The
    list is kept as a singly linked chain (``after`` maps each key to its
    successor), so every insertion is O(1).  Right's scan past keys it does
    not have never revisits a key, so the whole ordering is linear.
    """
    head = object()
    after: dict = {head: None}
    prev = head
    for n in b_nodes:
        k = n.key()
        after[prev] = k
        prev = k
    after[prev] = None
    anchor = head
    for n in l_nodes:
        k = n.key()
        if k not in after:
            after[k] = after[anchor]
            after[anchor] = k
        anchor = k
    r_keys = {n.key() for n in r_nodes}
    anchor = head
    for n in r_nodes:
        k = n.key()
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

    Declarations changed on both sides merge through ``separators`` when
    given, and line by line when it is None.  A version without the
    declaration takes part as empty text, so a removal honoured against an
    untouched counterpart merges to an empty outcome, which joins as
    nothing.
    """
    b, l, r = matched.base, matched.left, matched.right
    if b is not None and l is not None and r is not None:
        if b.kind in ("compilation-unit", "type"):
            return _merge_container(matched, separators)
        if b.kind in ORDERED_KINDS:
            separators = None
        # the parse kept each declaration's lexer states for the marking
        states = (b.states, l.states, r.states)
        return _merge_fragment(b.text(), l.text(), r.text(), separators, states)
    return _merge_fragment(*(b"" if n is None else n.text() for n in (b, l, r)))


def _merge_container(
    matched: MatchedNode, separators: SeparatorSet | None
) -> MergeOutcome:
    b, l, r = matched.base, matched.left, matched.right
    parts = [_merge_fragment(b.header_text, l.header_text, r.header_text)]
    imports_done = False
    for child in matched.children:
        if child.kind() == "import":
            # imports are order-sensitive: the whole section merges as one block
            if not imports_done:
                imports_done = True
                parts.append(
                    _merge_fragment(_import_text(b), _import_text(l), _import_text(r))
                )
            continue
        parts.append(merge_matched(child, separators))
    parts.append(_merge_fragment(b.body_text, l.body_text, r.body_text))
    return join(parts)


def _import_text(cu: DeclNode) -> bytes:
    return b"".join(c.text() for c in cu.children if c.kind == "import")


def _merge_fragment(
    bt: bytes,
    lt: bytes,
    rt: bytes,
    separators: SeparatorSet | None = None,
    states: tuple[bytes | None, ...] = (None, None, None),
) -> MergeOutcome:
    if lt == bt:
        return _taken(rt)
    if rt == bt or lt == rt:
        return _taken(lt)
    if separators is None:
        return merge_texts_outcome(bt, lt, rt)
    return merge_body(bt, lt, rt, separators, states)


def _taken(text: bytes) -> MergeOutcome:
    """One side's text, unchanged, as a single resolved region."""
    lines, trailing = split_lines(text)
    regions = [Resolved(tuple(lines))] if lines else []
    return MergeOutcome(regions, trailing_newline=trailing)
