"""Seeded generators for the benchmark workloads and their references.

Every generated file is a list of lines, and every line a tuple of spans.
Edits name a base line (and, for span edits, one span of it), so the left
and right versions and the reference merge are all produced by applying
edit lists to the same base: the reference applies both sides' edits and
never calls a merge engine.

Three properties keep the references exact:

* every line that an edit changes carries a unique identifier, so each
  two-way alignment of base against one side is forced;
* unless a conflict is planted on purpose, edits from different sides
  stay apart: in different members for the declaration-aware engines,
  with an unchanged line between them inside one body, and at least
  ``_MARGIN`` lines apart where the line-based engine merges them;
* a both-sided edit that a separator merge resolves changes two spans of
  one line that a separator (``(`` here) keeps apart.

Only the random draws depend on the seed: the size grid of every workload
is fixed, so figures from different seeds are comparable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

Line = tuple  # tuple[str, ...]: the spans of one line

_MARGIN = 3

# spans of a call statement: indent+type, name, " = ", callee, "(", args, ");"
_TYPE, _CALLEE, _ARGS = 0, 3, 5


@dataclass
class Edits:
    """One side's edits against a base, keyed by base line index."""

    spans: dict[tuple[int, int], str] = field(default_factory=dict)
    inserts: dict[int, list[Line]] = field(default_factory=dict)
    blocks: dict[int, tuple[int, list[Line]]] = field(default_factory=dict)


def apply_edits(base: list[Line], *sides: Edits) -> list[Line]:
    """Apply edit sets in order; inserts at one anchor keep side order."""
    spans: dict[tuple[int, int], str] = {}
    inserts: dict[int, list[Line]] = {}
    blocks: dict[int, tuple[int, list[Line]]] = {}
    for side in sides:
        spans.update(side.spans)
        for anchor, lines in side.inserts.items():
            inserts.setdefault(anchor, []).extend(lines)
        blocks.update(side.blocks)
    out: list[Line] = []
    i = 0
    while i < len(base):
        if i in blocks:
            end, lines = blocks[i]
            out.extend(lines)
            i = end
            continue
        line = base[i]
        if any((i, k) in spans for k in range(len(line))):
            line = tuple(spans.get((i, k), s) for k, s in enumerate(line))
        out.append(line)
        out.extend(inserts.get(i, ()))
        i += 1
    return out


def render(lines: list[Line]) -> bytes:
    return ("\n".join("".join(line) for line in lines) + "\n").encode("utf-8")


@dataclass
class MergeCase:
    """One file merge: inputs, planted conflicts and, when clean, the result."""

    base: bytes
    left: bytes
    right: bytes
    conflicts: int
    reference: bytes | None

    @property
    def input_bytes(self) -> int:
        return len(self.base) + len(self.left) + len(self.right)


# -- Java-like building blocks ---------------------------------------------


def _call(indent: str, ty: str, name: str, callee: str, args: str) -> Line:
    return (f"{indent}{ty} ", name, " = ", callee, "(", args, ");")


def _method(rng: random.Random, tag: str, n_stmts: int, indent: str = "    ") -> list[Line]:
    """A method whose every body line names ``tag``."""
    inner = indent + "    "
    lines: list[Line] = []
    if rng.random() < 0.3:
        lines.append((f"{indent}/** Computes {tag} (see {tag}Ref); never null. */",))
    lines.append((f"{indent}public int {tag}(int p{tag}, String q{tag}) {{",))
    for k in range(n_stmts):
        # the first statement is always a call, so every method can be edited
        shape = rng.randrange(6) if k else 5
        if shape == 0:
            lines.append((f'{inner}String s{tag}_{k} = "k;{tag}({k})";',))
        elif shape == 1:
            lines.append((f"{inner}// {tag}.{k}: keep (a; b) order {{sic}}",))
        elif shape == 2:
            lines.append(
                (f"{inner}if (p{tag} > {k}) {{ q{tag} = q{tag}.trim(); }} // {tag}_{k}",)
            )
        elif shape == 3:
            ch = "({;)"[k % 4]
            lines.append((f"{inner}char c{tag}_{k} = '{ch}';",))
        else:
            lines.append(
                _call(inner, "int", f"v{tag}_{k}", f"f{rng.randrange(9)}", f"p{tag}, {k}")
            )
    lines.append((f"{inner}return p{tag} + {n_stmts}; // {tag}",))
    lines.append((f"{indent}}}",))
    return lines


def _added_method(tag: str, indent: str = "    ") -> list[Line]:
    inner = indent + "    "
    return [
        ("",),
        (f"{indent}public int {tag}(int x{tag}) {{",),
        _call(inner, "int", f"y{tag}", "g0", f"x{tag}, 1"),
        (f"{inner}return y{tag}; // {tag}",),
        (f"{indent}}}",),
    ]


def _field(rng: random.Random, tag: str) -> list[Line]:
    if rng.random() < 0.5:
        return [("    private int ", tag, " = ", str(rng.randrange(1000)), ";")]
    return [("    private static final String ", tag, " = ", f'"x;{tag}(y)"', ";")]


@dataclass
class _ClassDoc:
    lines: list[Line]
    members: list[tuple[int, int, str]]  # (first line, end line, kind)


def _class_doc(rng: random.Random, name: str, n_members: int, stmts: tuple[int, int]) -> _ClassDoc:
    lines: list[Line] = [
        ("package bench.gen;",),
        ("",),
        ("import java.util.List;",),
        ("import java.util.Map;",),
        ("",),
        (f"public class {name} {{",),
    ]
    members: list[tuple[int, int, str]] = []
    for i in range(n_members):
        lines.append(("",))
        start = len(lines)
        if i % 5 == 4:
            lines.extend(_field(rng, f"f{i}"))
            kind = "field"
        else:
            lines.extend(_method(rng, f"m{i}", rng.randint(*stmts)))
            kind = "method"
        members.append((start, len(lines), kind))
    lines.append(("}",))
    return _ClassDoc(lines, members)


def _call_lines(lines: list[Line], start: int, end: int) -> list[int]:
    return [i for i in range(start, end) if len(lines[i]) == 7]


def _span_edit(rng: random.Random, lines: list[Line], i: int, span: int, side: str) -> str:
    old = lines[i][span]
    if span == _ARGS:
        return f"{old} + {side}{rng.randrange(1000)}"
    if span == _CALLEE:
        return f"{old}{side}{rng.randrange(1000)}"
    return old.replace("int", "long")  # _TYPE


def _edit_member(rng, doc: _ClassDoc, member: int, edits: Edits, side: str) -> None:
    start, end, kind = doc.members[member]
    if kind == "field":
        edits.spans[(start, 3)] = f"{doc.lines[start][3]} + {rng.randrange(1000)}"
        return
    i = rng.choice(_call_lines(doc.lines, start, end))
    span = rng.choice((_TYPE, _CALLEE, _ARGS))
    edits.spans[(i, span)] = _span_edit(rng, doc.lines, i, span, side)


def _both_sided(rng, doc: _ClassDoc, member: int, left: Edits, right: Edits, conflict: bool) -> None:
    """Edit one call line of method ``member`` on both sides: the same span
    (a true conflict) or spans that a separator keeps apart."""
    start, end, _ = doc.members[member]
    i = rng.choice(_call_lines(doc.lines, start, end))
    left.spans[(i, _ARGS)] = _span_edit(rng, doc.lines, i, _ARGS, "L")
    right_span = _ARGS if conflict else _CALLEE
    right.spans[(i, right_span)] = _span_edit(rng, doc.lines, i, right_span, "R")


def _case(base: list[Line], left: Edits, right: Edits, conflicts: int) -> MergeCase:
    reference = None if conflicts else render(apply_edits(base, left, right))
    return MergeCase(
        render(base),
        render(apply_edits(base, left)),
        render(apply_edits(base, right)),
        conflicts,
        reference,
    )


# -- large-class ------------------------------------------------------------


def large_class_case(rng: random.Random, n_members: int, plant_conflict: bool) -> MergeCase:
    """One class of ``n_members`` members; about 5% edited and 2% added per side.

    Edited and anchoring members are pairwise distinct, a few members are
    edited on both sides in separator-separated spans, and with
    ``plant_conflict`` one member is edited on both sides in the same span.
    """
    doc = _class_doc(rng, f"Large{n_members}", n_members, (2, 7))
    left, right = Edits(), Edits()
    n_edit = max(1, n_members // 20)
    n_add = max(1, n_members // 50)
    n_both = max(2, n_members // 400)
    methods = [m for m, (_, _, kind) in enumerate(doc.members) if kind == "method"]
    both = rng.sample(methods, n_both + plant_conflict)
    rest = rng.sample(
        sorted(set(range(n_members)) - set(both)), 2 * n_edit + 2 * n_add
    )
    it = iter(rest)
    for side, edits in (("L", left), ("R", right)):
        for _ in range(n_edit):
            _edit_member(rng, doc, next(it), edits, side)
        for k in range(n_add):
            anchor = doc.members[next(it)][1] - 1
            edits.inserts[anchor] = _added_method(f"add{side}{k}")
    for k, member in enumerate(both):
        _both_sided(rng, doc, member, left, right, conflict=k == n_both)
    return _case(doc.lines, left, right, int(plant_conflict))


# -- long-body --------------------------------------------------------------


def _long_method(rng: random.Random, tag: str, n_stmts: int) -> list[Line]:
    inner = "        "
    lines: list[Line] = [(f"    public void {tag}(int[] a{tag}, List<String> out{tag}) {{",)]
    for k in range(n_stmts):
        shape = k % 6
        if shape == 1:
            lines.append(
                (f'{inner}out{tag}.add("{tag}:{k}; (" + a{tag}[{k % 97}] + ")");',)
            )
        elif shape == 3:
            lines.append(
                (f"{inner}if (v{tag}_{k - 1} > {k}) {{ out{tag}.clear(); }} // {tag}.{k}",)
            )
        else:
            lines.append(
                _call(inner, "int", f"v{tag}_{k}", f"f{rng.randrange(9)}",
                      f"a{tag}[{k % 97}], {k}")
            )
    lines.append(("    }",))
    return lines


def long_body_case(rng: random.Random, n_stmts: int, planted: int) -> MergeCase:
    """Two methods of ``n_stmts`` statements each.

    About 3% of statements are edited on both sides in different
    separator-delimited spans, 2% per side on one side only, and
    ``planted`` statements on both sides in the same span (true conflicts).
    """
    lines: list[Line] = [
        ("package bench.gen;",),
        ("",),
        ("import java.util.List;",),
        ("",),
        (f"public class Body{n_stmts} {{",),
        ("",),
        ("    private int total;",),
    ]
    calls: list[int] = []
    for m in range(2):
        lines.append(("",))
        start = len(lines)
        lines.extend(_long_method(rng, f"run{m}", n_stmts))
        calls.extend(_call_lines(lines, start, len(lines)))
    lines.append(("}",))
    left, right = Edits(), Edits()
    n_both = max(1, 2 * n_stmts * 3 // 100)
    n_one = max(1, 2 * n_stmts * 2 // 100)
    # call lines sit at least two apart, so every pick is separated from the
    # next by a stable line even in the marked (one separator per line) text
    it = iter(rng.sample(calls[::2], n_both + 2 * n_one + planted))
    for _ in range(n_both):
        i = next(it)
        left.spans[(i, _ARGS)] = _span_edit(rng, lines, i, _ARGS, "L")
        right.spans[(i, _CALLEE)] = _span_edit(rng, lines, i, _CALLEE, "R")
    for side, edits in (("L", left), ("R", right)):
        for _ in range(n_one):
            i = next(it)
            span = rng.choice((_TYPE, _CALLEE, _ARGS))
            edits.spans[(i, span)] = _span_edit(rng, lines, i, span, side)
    for _ in range(planted):
        i = next(it)
        left.spans[(i, _ARGS)] = _span_edit(rng, lines, i, _ARGS, "L")
        right.spans[(i, _ARGS)] = _span_edit(rng, lines, i, _ARGS, "R")
    return _case(lines, left, right, planted)


# -- divergent --------------------------------------------------------------


def _plain_line(tag: str, k: int, rng: random.Random) -> Line:
    return _call("        ", "int", f"{tag}{k}", f"f{rng.randrange(9)}", f"{k}, {tag}")


def divergent_case(rng: random.Random, n_lines: int, fraction: float, conflict: bool) -> MergeCase:
    """Left rewrites a contiguous ``fraction`` of the lines with new ones;
    right edits about 2% of the lines elsewhere, or with ``conflict`` also
    once inside the rewritten block."""
    base = [_plain_line("b", k, rng) for k in range(n_lines)]
    width = max(1, int(n_lines * fraction))
    start = rng.randrange(n_lines - width + 1)
    end = start + width
    left, right = Edits(), Edits()
    left.blocks[start] = (end, [_plain_line("n", k, rng) for k in range(width)])
    outside = [
        k for k in range(n_lines) if k < start - _MARGIN or k >= end + _MARGIN
    ]
    n_scattered = max(1, n_lines // 50)
    for k in rng.sample(outside, min(n_scattered, len(outside))):
        right.spans[(k, _ARGS)] = _span_edit(rng, base, k, _ARGS, "R")
    conflicts = 0
    if conflict or not right.spans:
        k = rng.randrange(start, end)
        right.spans[(k, _ARGS)] = _span_edit(rng, base, k, _ARGS, "R")
        conflicts = 1
    return _case(base, left, right, conflicts)


# -- replay -----------------------------------------------------------------

ONE_SIDED = "one-sided"
DISJOINT = "disjoint"
BOTH_ADD = "both-add"
SEPARATOR = "separator"
TRUE_CONFLICT = "true-conflict"

# per-kind outcome: conflicts per engine, and the classification of each pair
# (unstructured:sesame, semistructured:sesame) under the harness's rules
REPLAY_EXPECT = {
    ONE_SIDED: ((0, 0, 0), ("agree", "agree")),
    DISJOINT: ((0, 0, 0), ("agree", "agree")),
    BOTH_ADD: ((1, 0, 0), ("afp-m", "agree")),
    SEPARATOR: ((1, 1, 0), ("afp-m", "afp-m")),
    TRUE_CONFLICT: ((1, 1, 1), ("unclassified", "unclassified")),
}


@dataclass
class ReplayFile:
    kind: str
    base: bytes
    left: bytes
    right: bytes
    merge: bytes


def replay_file(rng: random.Random, n_members: int, kind: str, name: str) -> ReplayFile:
    """A small class edited per ``kind``; ``merge`` is the recorded result."""
    doc = _class_doc(rng, name, n_members, (2, 6))
    left, right = Edits(), Edits()
    methods = [m for m, (_, _, kind_) in enumerate(doc.members) if kind_ == "method"]
    if kind == ONE_SIDED:
        side, edits = rng.choice((("L", left), ("R", right)))
        _edit_member(rng, doc, rng.choice(methods), edits, side)
    elif kind == DISJOINT:
        # members at least two apart keep the edited lines _MARGIN apart
        a = rng.randrange(len(methods) - 2)
        b = rng.randrange(a + 2, len(methods))
        _edit_member(rng, doc, methods[a], left, "L")
        _edit_member(rng, doc, methods[b], right, "R")
    elif kind == BOTH_ADD:
        anchor = doc.members[-1][1] - 1
        left.inserts[anchor] = _added_method(f"{name}AddL")
        right.inserts[anchor] = _added_method(f"{name}AddR")
    else:
        _both_sided(rng, doc, rng.choice(methods), left, right, kind == TRUE_CONFLICT)
    if kind == TRUE_CONFLICT:
        merged = apply_edits(doc.lines, left)
    else:
        merged = apply_edits(doc.lines, left, right)
    return ReplayFile(
        kind,
        render(doc.lines),
        render(apply_edits(doc.lines, left)),
        render(apply_edits(doc.lines, right)),
        render(merged),
    )
