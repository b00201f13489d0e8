"""Shallow declaration parsing for Java-like sources.

Builds a declaration tree that stops at class members: packages, imports,
type declarations, fields, methods, constructors, initializer blocks, enum
constants, and annotation members.  Bodies and headers are kept as
verbatim byte spans, so printing a tree reproduces the source exactly;
anything the shallow grammar cannot place raises ParseError, which callers
treat as a signal to fall back to plain textual merging.

Scanning is bracket-balanced and lexer-aware: braces, parentheses, and
separators inside literals or comments never influence structure.  Each
file is scanned through one code view, a copy of its bytes in which
comment bytes read as blanks and literal bytes as NUL, so compiled ``re``
patterns and ``find`` calls on the view see only code; ``lex_states``
makes it.  A byte order mark at the start of the file is insignificant,
and a package declaration, then imports, then types is the only order
accepted (JLS 7.3).

A declaration's key is its kind and identifier.  A package or import is
identified by its text with whitespace runs made one blank, a type or enum
constant by its name, a field by the names it declares, an initializer by
``#n`` (n initializers precede it in its type), and a method, constructor
or annotation member by ``name(T1,T2)``: the last header word before its
parameter list, then each parameter's type as written, less generic
sections, annotations with their arguments, ``final`` and the parameter's
own name.  Both parts are read from the code view, so comments and
whitespace only separate tokens, and a literal is never part of a key.

Most members have a plain head, which one compiled match over the code
view reads whole (``_plain_member``): modifiers, maybe a type (dotted
words, then ``[]`` pairs), the name, and then either a parameter list of
``Type name`` pairs and a code '{' or ';', or, for a field, maybe '=' and
an initializer free of ``{ } ( ) < @ ,``, and a ';'.  No word in a type,
the name or a parameter is a modifier or ``class``, ``interface`` or
``enum``.  The match keys the member as the token loop would: a field by
its name, a method by ``name(T1,T2)`` with each type less its blanks.  A
head named after its enclosing type (maybe a constructor's) and every
other head (annotations, generics, ``final`` or annotated parameters,
varargs, ``throws``, several declarators, a nested type) is read token by
token (``_parse_member``).

The versions of one merge are parsed with one member table
(``parse_versions``).  The first parse leaves in it its bytes and view
and, in file order, the offset, end, context (the enclosing type's
name, and whether that is an ``@interface``) and node of each field,
method, constructor and annotation member.  A later version finds the runs
of those members that its text repeats (``_repeats``): it looks for a
member by its header text, and from one whose whole text follows, it
compares spans of the first version that double, then halve, to find
where the run ends, never past a member that does not start where the one
before it ends.  Each run's view is one slice of the first version's; the
text between runs gets its view from one ``lex_states`` call on that text
joined.  This equals lexing the version whole, because every cut falls
right after a code byte other than '/': a run ends on a member's code '}'
or ';', and each stretch of lexed text that a run follows is checked, in
its view, to end on such a byte (from the first one that does not, the
rest of the version is lexed whole).  Lexing that restarts there
reads what follows as lexing the whole file does (see ``lexer``).  Where
the later parse reaches a run's start in a type of the same context, it
takes the run's nodes, the first version's own, and goes on at its end: a
member's parse reads only its own bytes and context, through the same
view, so parsing it again would give an equal node.  The trees thus share
member nodes, so none is changed once the table holds it: a stray ';' after
a member makes a new node.  Types and initializers are never taken, and a
member that both later versions add alike is parsed in each.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass, field, replace

from .lexer import lex_states


class ParseError(ValueError):
    """Input not representable by the shallow declaration grammar."""


class DuplicateDeclarationError(ParseError):
    """Two sibling declarations share a matching key."""


MODIFIER_WORDS = frozenset(
    {
        "public", "protected", "private", "static", "final", "abstract",
        "synchronized", "native", "strictfp", "transient", "volatile",
        "default", "sealed",
    }
)
_TYPE_KEYWORDS = frozenset({"class", "interface", "enum"})

# whitespace, and a byte order mark at the start of the file
_WS_RUN = re.compile(rb"(?:\A\xef\xbb\xbf)?[ \t\r\n\x0b\x0c]*")
# an identifier byte; in valid Java, a non-ASCII byte in code is part of one
_ID = rb"[A-Za-z0-9_$\x80-\xff]"
_WORD = re.compile(_ID + rb"*")
# what a member header reacts to: words and the punctuation below
_HEADER_TOKEN = re.compile(rb"(" + _ID + rb"+)|[@<>()=,;{}]")
_TYPE_HEADER_TOKEN = re.compile(rb"[(){;]")
# a plain member head (see the module docstring), by group: its name, then
# for a method its parameter list and the '{' or ';' that ends it
_MODIFIER = b"|".join(sorted(w.encode() for w in MODIFIER_WORDS))
_PLAIN_WORD = rb"(?!(?:%s|class|interface|enum)(?!%s))%s+" % (_MODIFIER, _ID, _ID)
# a type and the blanks after it, which only a closing ']' may leave out
_PLAIN_TYPE = rb"%s(?:\s*\.\s*%s)*(?:\s*\[\s*\])*(?:\s|(?<=\]))\s*" % (
    (_PLAIN_WORD,) * 2
)
_PLAIN_PARAM = _PLAIN_TYPE + _PLAIN_WORD + rb"\s*"
_PLAIN_MEMBER = re.compile(
    rb"(?:(?:%s)\s+)*(?:%s)?(%s)\s*(?:\((\s*(?:%s(?:,\s*%s)*)?)\)\s*([{;])"
    rb"|(?:=[^;{}()<@,]*)?;)"
    % (_MODIFIER, _PLAIN_TYPE, _PLAIN_WORD, _PLAIN_PARAM, _PLAIN_PARAM)
)
_ID_BYTES = bytes(c for c in range(256) if re.fullmatch(_ID, bytes((c,))))
# what a method key reads in its parameter list, by group: the '(' of an
# annotation's arguments (an annotation without them matches no group), a
# name (maybe qualified), dots, an opening bracket, a closing one, a comma
_PARAM_TOKEN = re.compile(
    rb"@\s*%(id)s+(?:\s*\.\s*%(id)s+)*(\s*\()?|(%(id)s+(?:\.%(id)s+)*)"
    rb"|(\.+)|([(<\[{])|([)>\]}])|(,)" % {b"id": _ID}
)
_ARGUMENTS, _NAME, _DOTS, _OPENER, _CLOSER, _COMMA_TOKEN = range(1, 7)

_AT, _DOT, _COMMA, _SEMI, _EQ = b"@.,;="
_LPAREN, _RPAREN, _LBRACE, _RBRACE, _LT, _GT = b"(){}<>"
_BRACKETS = {_LPAREN: re.compile(rb"[()]"), _LBRACE: re.compile(rb"[{}]")}

ORDERED_KINDS = frozenset({"package", "import"})


@dataclass(slots=True)
class DeclNode:
    kind: str
    identifier: str
    header_text: bytes = b""
    body_text: bytes = b""
    children: list["DeclNode"] = field(default_factory=list)

    def text(self) -> bytes:
        if not self.children:
            return self.header_text + self.body_text
        parts: list[bytes] = []
        self._print(parts)
        return b"".join(parts)

    def _print(self, parts: list[bytes]) -> None:
        parts.append(self.header_text)
        for child in self.children:
            child._print(parts)
        parts.append(self.body_text)

    def key(self) -> tuple[str, str]:
        return (self.kind, self.identifier)


class MemberTable:
    """What the first parse of one merge leaves for the parses after it.

    ``data`` and ``view`` are its bytes and code view.  ``starts``,
    ``ends``, ``contexts`` and ``nodes`` give, in file order, the offset,
    end, context ``(enclosing type, in an @interface)`` and node of each
    member it parsed, types and initializers aside.
    ``breaks`` lists, in order, each member that does not start where the
    one before it ends; from one to the next, members form a stretch.
    """

    __slots__ = ("data", "view", "starts", "ends", "contexts", "nodes", "breaks")

    def __init__(self) -> None:
        self.data = b""
        self.view: bytes | None = None
        self.starts, self.ends, self.breaks, self.contexts, self.nodes = [], [], [], [], []


def parse_units(source: bytes, members: MemberTable | None = None) -> DeclNode:
    """Parse a compilation unit into its root node.

    ``members`` is a member table shared with other parses (see
    ``parse_versions``); by default the parse has a table of its own.
    Raises ParseError for unsupported shapes, and for declarations nested
    too deeply for the recursive parser or the round-trip print.
    """
    try:
        root = _Parser(source, MemberTable() if members is None else members).parse()
        printed = root.text()
    except RecursionError:
        raise ParseError("declarations nested too deeply") from None
    if printed != source:
        raise ParseError("parsed tree does not reproduce the source")
    return root


def parse_versions(*sources: bytes) -> list[DeclNode]:
    """Parse the versions of one merge with one shared member table.

    Each tree, or the first ParseError, is the one ``parse_units`` gives
    for that source alone.  Each version after the first takes the members
    it repeats from the first, as the first version's own nodes with their
    lexing, and lexes and parses only the rest.
    """
    members = MemberTable()
    return [parse_units(source, members) for source in sources]


def _follows(data: bytes, at: int, node: DeclNode) -> bool:
    """Whether the text of the member ``node`` follows at ``at``."""
    return data.startswith(node.header_text, at) and data.startswith(
        node.body_text, at + len(node.header_text)
    )


def _find_head(data: bytes, head: bytes, lo: int, hi: int) -> int:
    """First offset in [lo, hi) at which ``head`` starts in ``data``, or -1."""
    return data.find(head, lo, hi + len(head) - 1)


def _extend(data: bytes, at: int, table: MemberTable, j: int) -> int:
    """One past the last member of the longest run of j's stretch that
    starts with member j, whose text follows at ``at``, and that ``data``
    repeats there.  Spans past the run so far are compared: one member,
    then twice as many each time, and once one differs, half as many."""
    starts, ends, breaks = table.starts, table.ends, table.breaks
    b = bisect_right(breaks, j)
    stop = breaks[b] if b < len(breaks) else len(starts)
    first, shift = memoryview(table.data), at - starts[j]
    good, bad, step = j + 1, stop + 1, 1  # members j..good-1 repeat; bad-1 not
    while bad - good > 1:
        mid = min(good + step, (good + bad) // 2)
        if data.startswith(first[ends[good - 1]:ends[mid - 1]], ends[good - 1] + shift):
            good, step = mid, 2 * step
        else:
            bad = mid
    return good


def _repeats(data: bytes, table: MemberTable) -> list[tuple[int, int, int]]:
    """Runs of the table's first version's members that ``data`` repeats:
    ``(at, j, k)`` where the members j to k - 1, one stretch in the first
    version, repeat at offset ``at``.

    The walk takes the first version's members in order.  Where the next
    one does not follow the last run, it resumes at that member or the one
    after it, whichever has its head (its header text) start first, looked
    for in windows that start one member long and double; a member is
    looked for only before the head of the one after it.  So a member that
    is gone or edited costs a scan about as long as the text before its
    successor.  A member whose head is found but whose text does not follow
    is passed over; from one whose text follows, ``_extend`` finds the run.
    Failed searches may scan ``len(data)`` offsets in all; then it stops.
    """
    starts, ends, nodes = table.starts, table.ends, table.nodes
    n = budget = len(data)

    def search(k: int, lo: int, hi: int) -> int:
        nonlocal budget
        hi = min(hi, lo + budget)
        at = _find_head(data, nodes[k].header_text, lo, hi)
        if at < 0:
            budget -= hi - lo
        return at

    def resume(j: int, lo: int) -> tuple[int, int]:
        """Member j or j + 1, whichever's head starts first at or after
        ``lo``, and where; ``(j + 2, -1)`` if neither is found."""
        width = ends[j] - starts[j]
        while lo < n and budget > 0:
            hi = min(n, lo + width)
            after = search(j + 1, lo, hi) if j + 1 < len(nodes) else -1
            at = search(j, lo, hi if after < 0 else after)
            if at >= 0:
                return j, at
            if after >= 0:
                return j + 1, after
            lo, width = hi, 2 * width
        return j + 2, -1

    runs: list[tuple[int, int, int]] = []
    pos = lo = j = 0  # pos: end of the last run; lo: where searches start
    while j < len(nodes) and budget > 0:
        at = pos
        if lo != pos or not _follows(data, pos, nodes[j]):
            j, at = resume(j, lo)
            if at < 0:
                continue
            if not _follows(data, at, nodes[j]):
                lo, j = at + 1, j + 1
                continue
        k = _extend(data, at, table, j)
        runs.append((at, j, k))
        pos = lo = at + ends[k - 1] - starts[j]
        j = k
    return runs


def _lex_reusing(
    data: bytes, table: MemberTable
) -> tuple[bytes, dict[int, tuple[int, int]]]:
    """The code view ``lex_states(data)``, for a later version of the
    table's first one, and a map from the offset of each run of members it
    repeats (see ``_repeats``) to the run's ``(j, k)``.

    A run's view is one slice of the first version's; the text between
    runs, the gaps, is lexed by one call on the gaps joined.  A gap followed
    by a run must end on a byte that its view keeps, other than a blank, NUL
    or '/', so that no literal or comment crosses into the run (see
    ``lexer``); from the first gap that does not, the rest of ``data`` is
    lexed whole and its runs are dropped.
    """
    runs = _repeats(data, table)
    starts, ends = table.starts, table.ends
    spans = [(starts[j], ends[k - 1]) for _, j, k in runs]  # in the first version
    run_ends = [at + b - a for (at, _, _), (a, b) in zip(runs, spans)]
    gaps = list(zip([0] + run_ends, [at for at, _, _ in runs] + [len(data)]))
    text = memoryview(data)
    view = lex_states(b"".join([text[a:b] for a, b in gaps]))
    off = 0
    for i, (a, b) in enumerate(gaps[:-1]):
        if a < b and (view[off + b - a - 1] != data[b - 1] or data[b - 1] in b" \0/"):
            del runs[i:], spans[i:]
            gaps[i:] = [(a, len(data))]
            view = view[:off] + lex_states(data[a:])
            break
        off += b - a
    view, first_view = memoryview(view), memoryview(table.view)
    parts, off = [], 0
    for (a, b), (s, e) in zip(gaps, spans + [(0, 0)]):  # no run after the last gap
        parts += (view[off:off + b - a], first_view[s:e])
        off += b - a
    return b"".join(parts), {at: (j, k) for at, j, k in runs}


class _Parser:
    def __init__(self, data: bytes, members: MemberTable) -> None:
        self.data = data
        self.members = members
        self.first = members.view is None  # the first parse fills the table
        if self.first:
            self.view = lex_states(data)
            members.data, members.view = data, self.view
            self.runs: dict[int, tuple[int, int]] = {}
        else:
            self.view, self.runs = _lex_reusing(data, members)
        self.n = len(data)

    def parse(self) -> DeclNode:
        children: list[DeclNode] = []
        pos = 0
        while True:
            sig = self._skip_insignificant(pos)
            if sig >= self.n:
                break
            node, pos = self._parse_top_level(pos, sig)
            if children and (node.kind == "package" or (
                node.kind == "import" and children[-1].kind == "type"
            )):
                raise ParseError(f"{node.kind} declaration out of order at byte {sig}")
            children.append(node)
        _check_duplicates(children)
        return DeclNode("compilation-unit", "", b"", self.data[pos:], children=children)

    # -- shared low-level scanning ------------------------------------

    def _skip_insignificant(self, i: int) -> int:
        """First index at or after i that is neither a comment nor code
        whitespace, nor the byte order mark at the start of the file."""
        return _WS_RUN.match(self.view, i).end()

    def _read_word(self, i: int) -> tuple[str, int]:
        m = _WORD.match(self.view, i)
        return m.group().decode("latin-1"), m.end()

    def _match_delim(self, i: int) -> int:
        """Index of the bracket closing the '(' or '{' at i (code context
        only); brackets of the other kind are not looked at."""
        view = self.view
        opener = view[i]
        depth = 0
        for m in _BRACKETS[opener].finditer(view, i):
            k = m.start()
            if view[k] == opener:
                depth += 1
            else:
                depth -= 1
                if depth == 0:
                    return k
        raise ParseError("unbalanced delimiters at end of input")

    def _skip_annotation(self, i: int) -> int:
        """Skip ``@Qualified.Name`` plus optional argument list; i is at '@'."""
        i = self._skip_insignificant(i + 1)
        word, i = self._read_word(i)
        if not word:
            raise ParseError("dangling '@'")
        while True:
            j = self._skip_insignificant(i)
            if j < self.n and self.view[j] == _DOT:
                j = self._skip_insignificant(j + 1)
                word, i = self._read_word(j)
                if not word:
                    raise ParseError("dangling '.' in annotation name")
            else:
                break
        j = self._skip_insignificant(i)
        if j < self.n and self.view[j] == _LPAREN:
            return self._match_delim(j) + 1
        return i

    # -- top level ------------------------------------------------------

    def _parse_top_level(self, start: int, sig: int) -> tuple[DeclNode, int]:
        i = sig
        while True:
            i = self._skip_insignificant(i)
            if i >= self.n:
                raise ParseError("unexpected end of input at top level")
            if self.data[i] == _AT:
                peek = self._skip_insignificant(i + 1)
                word, _ = self._read_word(peek)
                if word == "interface":
                    return self._parse_type(start, peek, "type", annotation=True)
                i = self._skip_annotation(i)
                continue
            word, after = self._read_word(i)
            if not word:
                raise ParseError(f"unsupported top-level construct at byte {i}")
            if word in ("package", "import"):
                end = self._absorb_semicolons(self._find_code_char(after, _SEMI) + 1)
                text = self.data[sig:end]
                ident = " ".join(text.decode("latin-1").split())
                return DeclNode(word, ident, self.data[start:end]), end
            if word in _TYPE_KEYWORDS:
                return self._parse_type(start, i, "type")
            if word in MODIFIER_WORDS or word == "non":
                # "non-sealed" reads as word, '-', word
                i = after
                if word == "non" and self.data[i:i + 1] == b"-":
                    i += 1
                continue
            raise ParseError(f"unsupported top-level declaration near {word!r}")

    def _find_code_char(self, i: int, wanted: int) -> int:
        k = self.view.find(wanted, i)
        if k < 0:
            raise ParseError(f"missing {chr(wanted)!r}")
        return k

    # -- type declarations ----------------------------------------------

    def _parse_type(
        self, start: int, kw_pos: int, kind: str, annotation: bool = False
    ) -> tuple[DeclNode, int]:
        """Parse the type whose keyword is at kw_pos.

        ``annotation`` marks an ``@interface``.  Callers read a code '@'
        as a token of its own before the word after it, so they are the
        ones that see it; a '@' in a comment or literal is not code.
        """
        word, i = self._read_word(kw_pos)
        is_enum = word == "enum"
        i = self._skip_insignificant(i)
        name, i = self._read_word(i)
        if not name:
            raise ParseError("type declaration without a name")
        brace = self._find_body_brace(i)
        header = self.data[start:brace + 1]
        if is_enum:
            children, tail_start, close = self._parse_enum_body(brace + 1, name)
        else:
            children, tail_start, close = self._parse_members(
                brace + 1, name, annotation
            )
        end = self._absorb_semicolons(close + 1)
        _check_duplicates(children)
        body = self.data[tail_start:end]
        return DeclNode("type", name, header, body, children=children), end

    def _find_body_brace(self, i: int) -> int:
        """First '{' in code context at paren depth 0 (skips annotations)."""
        depth = 0
        view = self.view
        for m in _TYPE_HEADER_TOKEN.finditer(view, i):
            c = view[m.start()]
            if c == _LPAREN:
                depth += 1
            elif c == _RPAREN:
                depth -= 1
            elif depth == 0:
                if c == _LBRACE:
                    return m.start()
                raise ParseError("type declaration without a body")
        raise ParseError("missing '{' of type body")

    def _absorb_semicolons(self, end: int) -> int:
        """Consume whitespace-then-';' runs directly after a declaration.

        Comments end the run.  ``end`` always follows a code '}' or ';', so
        the whitespace after it is code too.
        """
        while True:
            k = _WS_RUN.match(self.data, end).end()
            if k < self.n and self.view[k] == _SEMI:
                end = k + 1
            else:
                return end

    # -- enum bodies --------------------------------------------------------

    def _parse_enum_body(
        self, pos: int, enclosing: str
    ) -> tuple[list[DeclNode], int, int]:
        """Constants (possibly with argument lists and bodies), then members."""
        constants: list[DeclNode] = []
        while True:
            sig = self._skip_insignificant(pos)
            if sig >= self.n:
                raise ParseError("unterminated enum body")
            if self.view[sig] == _RBRACE:
                return constants, pos, sig
            if self.view[sig] == _SEMI:
                if not constants:
                    raise ParseError("enum body starting with ';'")
                last = constants[-1]
                last.header_text += self.data[pos:sig + 1]
                pos = sig + 1
                break
            node, end = self._parse_enum_constant(pos, sig)
            constants.append(node)
            pos = end
        members, tail_start, close = self._parse_members(pos, enclosing, False)
        return constants + members, tail_start, close

    def _parse_enum_constant(self, start: int, sig: int) -> tuple[DeclNode, int]:
        i = sig
        view = self.view
        while i < self.n and view[i] == _AT:
            i = self._skip_insignificant(self._skip_annotation(i))
        name, i = self._read_word(i)
        if not name:
            raise ParseError(f"expected enum constant near byte {sig}")
        j = self._skip_insignificant(i)
        if j < self.n and view[j] == _LPAREN:
            i = self._match_delim(j) + 1
            j = self._skip_insignificant(i)
        if j < self.n and view[j] == _LBRACE:
            i = self._match_delim(j) + 1
            j = self._skip_insignificant(i)
        if j < self.n and view[j] == _COMMA:
            i = j + 1
        return DeclNode("enum-constant", name, self.data[start:i]), i

    # -- members ----------------------------------------------------------

    def _parse_members(
        self, pos: int, enclosing: str, in_annotation: bool
    ) -> tuple[list[DeclNode], int, int]:
        """Parse members until the closing '}'.

        Returns (children, tail_start, close_brace_index): the parent keeps
        data[tail_start:close+1...] as its residual body text.
        """
        data, view, members = self.data, self.view, self.members
        starts, ends = members.starts, members.ends
        context = (enclosing, in_annotation)
        children: list[DeclNode] = []
        counters = {"initializer": 0}
        while True:
            sig = self._skip_insignificant(pos)
            if sig >= self.n:
                raise ParseError("unterminated type body")
            if view[sig] == _RBRACE:
                return children, pos, sig
            if view[sig] == _SEMI:
                if not children:
                    raise ParseError("stray ';' at start of type body")
                last = children[-1]  # maybe shared: a new node replaces it
                children[-1] = replace(last, body_text=last.body_text + data[pos:sig + 1])
                pos = sig + 1
                continue
            run = self.runs.get(pos)
            if run is not None and members.contexts[run[0]] == context:
                j, k = run
                children += members.nodes[j:k]
                pos += ends[k - 1] - starts[j]
                continue
            node, end = self._parse_member(pos, sig, enclosing, in_annotation, counters)
            if self.first and node.kind not in ("type", "initializer"):
                if not ends or ends[-1] != pos:
                    members.breaks.append(len(starts))
                starts.append(pos)
                ends.append(end)
                members.contexts.append(context)
                members.nodes.append(node)
            children.append(node)
            pos = end

    def _parse_member(
        self, start: int, sig: int, enclosing: str, in_annotation: bool,
        counters: dict[str, int],
    ) -> tuple[DeclNode, int]:
        plain = self._plain_member(start, sig, enclosing, in_annotation)
        if plain is not None:
            return plain
        data, view = self.data, self.view
        i = sig
        words: list[str] = []
        paren_depth = angle_depth = 0
        seen_eq = False
        name = ""  # the word before the parameter list
        signature: str | None = None  # the key, once the list is read
        while True:
            # comments, literals and other punctuation change no state here
            m = _HEADER_TOKEN.search(view, i)
            if m is None:
                raise ParseError("unexpected end of input in member")
            i = m.start()
            word = m.group(1)
            if word is not None:
                word = word.decode("latin-1")
                if (
                    word in _TYPE_KEYWORDS
                    and paren_depth == 0
                    and not seen_eq
                    and signature is None
                ):
                    return self._parse_type(start, i, "type")
                if (
                    not seen_eq
                    and angle_depth == 0
                    and paren_depth == 0
                    and signature is None
                ):
                    words.append(word)
                i = m.end()
                continue
            c = view[i]
            if c == _AT and paren_depth == 0 and not seen_eq and signature is None:
                peek = self._skip_insignificant(i + 1)
                word, _ = self._read_word(peek)
                if word == "interface":
                    return self._parse_type(start, peek, "type", annotation=True)
                i = self._skip_annotation(i)
                continue
            if c == _LT and signature is None and not seen_eq:
                angle_depth += 1
            elif c == _GT and angle_depth > 0:
                angle_depth -= 1
            elif c == _LPAREN:
                if paren_depth == 0 and not seen_eq and signature is None:
                    close_pos = self._match_delim(i)
                    name = words[-1] if words else ""
                    signature = self._signature(name, i, close_pos)
                    i = close_pos + 1
                    continue
                paren_depth += 1
            elif c == _RPAREN:
                paren_depth -= 1
            elif c == _EQ and paren_depth == 0:
                seen_eq = True
            elif (
                c == _COMMA
                and paren_depth == 0
                and angle_depth == 0
                and signature is None
            ):
                seen_eq = False
                words.append(",")
            elif c == _SEMI and paren_depth == 0:
                return self._finish_bodyless(
                    start, sig, i, words, signature, in_annotation
                ), i + 1
            elif c == _LBRACE and paren_depth == 0:
                if seen_eq:
                    i = self._match_delim(i) + 1
                    continue
                close = self._match_delim(i)
                significant = [w for w in words if w not in MODIFIER_WORDS]
                if signature is None and not significant:
                    ident = f"#{counters['initializer']}"
                    counters["initializer"] += 1
                    node = DeclNode(
                        "initializer", ident,
                        data[start:i + 1], data[i + 1:close + 1],
                    )
                    return node, close + 1
                if signature is None:
                    raise ParseError(
                        f"brace-bodied member without parameter list near byte {i}"
                    )
                kind = _method_kind(significant, name, enclosing, in_annotation)
                node = DeclNode(
                    kind, signature, data[start:i + 1], data[i + 1:close + 1]
                )
                return node, close + 1
            i += 1

    def _plain_member(
        self, start: int, sig: int, enclosing: str, in_annotation: bool
    ) -> tuple[DeclNode, int] | None:
        """The member at ``sig`` and its end, if its head is plain (see the
        module docstring); otherwise None, and the caller reads it token by
        token."""
        m = _PLAIN_MEMBER.match(self.view, sig)
        if m is None:
            return None
        name = m[1].decode("latin-1")
        if name == enclosing:  # maybe a constructor
            return None
        data, end = self.data, m.end()
        if m[2] is None:  # a field of one declarator
            return DeclNode("field", name, data[start:end]), end
        # each parameter is a type and a name: drop the name and the blanks
        types = b",".join([
            b"".join(param.rstrip().rstrip(_ID_BYTES).split())
            for param in m[2].split(b",")
        ])
        key = f"{name}({types.decode('latin-1')})"
        kind = "annotation-member" if in_annotation else "method"
        if m[3] == b";":
            return DeclNode(kind, key, data[start:end]), end
        close = self._match_delim(end - 1)
        return DeclNode(kind, key, data[start:end], data[end:close + 1]), close + 1

    def _finish_bodyless(
        self, start, sig, semi, words, signature, in_annotation
    ) -> DeclNode:
        text = self.data[start:semi + 1]
        if signature is not None:
            kind = "annotation-member" if in_annotation else "method"
            return DeclNode(kind, signature, text)
        names = _field_names(words)
        if not names:
            raise ParseError(f"could not read field declarator near byte {sig}")
        return DeclNode("field", ",".join(names), text)

    # -- signatures -------------------------------------------------------

    def _signature(self, name: str, open_pos: int, close_pos: int) -> str:
        """Matching key of the method ``name`` whose parameter list runs
        from the '(' at open_pos to the ')' at close_pos: ``name(T1,T2)``.

        One pass over the code view keeps one ``(<[{`` depth and ends a
        parameter at each comma of depth 0.  A parameter's type is its
        names, dots and ``[]`` outside generic sections, less ``final`` and
        its last name, the parameter's own, unless that is its only name.
        Annotations with their arguments, comments and whitespace never
        reach the key, and neither does a parameter that leaves nothing.
        """
        types: list[bytes] = []
        kept: list[bytes] = []  # the current parameter's tokens
        name_at = depth = 0  # name_at: index of its last name in kept
        generic = -1  # the depth just outside the generic section read
        skip_to = 0  # the end of the annotation arguments last read
        for m in _PARAM_TOKEN.finditer(self.view, open_pos + 1, close_pos):
            if m.start() < skip_to:
                continue
            kind = m.lastindex
            if kind == _OPENER:
                if generic < 0:
                    if m.group() == b"<":
                        generic = depth
                    elif m.group() == b"[":
                        kept.append(b"[")
                depth += 1
            elif kind == _CLOSER:
                if depth:
                    depth -= 1
                if depth == generic:
                    generic = -1
                elif generic < 0 and m.group() == b"]":
                    kept.append(b"]")
            elif kind == _COMMA_TOKEN:
                if depth == 0:
                    types.append(_without_name(kept, name_at))
                    kept, name_at = [], 0
            elif kind == _ARGUMENTS:
                skip_to = self._match_delim(m.end() - 1) + 1
            elif generic >= 0:
                continue
            elif kind == _NAME:
                if m.group() != b"final":
                    name_at = len(kept)
                    kept.append(m.group())
            elif kind == _DOTS:
                kept.append(m.group())
        types.append(_without_name(kept, name_at))
        return f"{name}({b','.join(t for t in types if t).decode('latin-1')})"


def _without_name(kept: list[bytes], name_at: int) -> bytes:
    if name_at:
        del kept[name_at]
    return b"".join(kept)


def _method_kind(
    significant: list[str], name: str, enclosing: str, in_annotation: bool
) -> str:
    """Kind of a brace-bodied member; ``significant`` is its header's words
    other than modifiers, up to the parameter list."""
    if in_annotation:
        return "annotation-member"
    if name == enclosing and significant in ([], [name]):
        return "constructor"
    return "method"


def _field_names(words: list[str]) -> list[str]:
    groups: list[list[str]] = [[]]
    for w in words:
        if w == ",":
            groups.append([])
        else:
            groups[-1].append(w)
    names: list[str] = []
    for idx, group in enumerate(groups):
        bare = [w for w in group if w not in MODIFIER_WORDS]
        if not bare:
            return []
        names.append(bare[-1] if idx == 0 else bare[0])
    return names


def _check_duplicates(children: list[DeclNode]) -> None:
    seen: set[tuple[str, str]] = set()
    for child in children:
        key = child.key()
        if key in seen:
            raise DuplicateDeclarationError(
                f"duplicate {child.kind} declaration: {child.identifier!r}"
            )
        seen.add(key)
