"""A Turtle subset with quoted triples.

Supported: ``@prefix``/``PREFIX`` declarations, triples with ``;`` and ``,``
continuation, ``a``, prefixed names, labeled blank nodes, literals (with
bare integer/decimal/double/boolean shorthand), and ``<< s p o >>`` quoted
triples in subject or object position. No collections, no ``[...]`` blank
node syntax, no multi-line strings.

Parsing is content-based: a document denotes a triple set, so repeated
triples collapse, a quoted triple binds to the ground statement with that
content (created on demand, the lexicographically least sid when several
match), and the enclosing triple becomes an assertion about it.
"""

from __future__ import annotations

import re
from typing import Callable, Iterator

from ..datatypes import LANG_TAG, RDF_LANG_STRING, XSD_STRING, Literal
from ..errors import ParseError
from ..statements import Term
from ..store import Store
from ..terms import NAME, SID_IRI_PREFIX, BlankNode, Iri, LocalId, SidRef
from ..views import RDF_TYPE, QuotedTriple, RdfStarGraph, shorten_iri
from .common import (
    _ANY_TOKEN,
    _END,
    _IRI_TOKEN,
    _NODE_TOKEN,
    BARE_LITERAL,
    PN_PREFIX,
    SID_RESERVED,
    Cursor,
    TermReader,
    _renamed,
    bare_literal,
    escape_iri,
    escape_string,
    raw_lines,
    render_term,
    scan_blank,
    scan_iri_text,
    scan_string_body,
    store_renames,
)

_PNAME = re.compile(f"(?:{PN_PREFIX.pattern})?:(?:{NAME.pattern})?")
_WORD = re.compile(r"[A-Za-z]+")
_SPACE = re.compile(r"[ \t\r]*")
#: A statement on one line, ``S P O .`` or ``<< S P O >> P O .``, of
#: escape-free tokens one or more spaces or tabs apart.
_LINE = re.compile(rf"[ \t]*(?:<<[ \t]+({_NODE_TOKEN})[ \t]+({_IRI_TOKEN})[ \t]+({_ANY_TOKEN})[ \t]+>>"
                   rf"|({_NODE_TOKEN}))[ \t]+({_IRI_TOKEN})[ \t]+({_ANY_TOKEN}){_END}")


def _tokenize(text: str, whole_line: Callable[[str], bool]) -> Iterator[tuple]:
    """The document's tokens, ``(kind, value, line, column)``, one at a
    time; no token spans a line. After the last one, ``eof`` repeats.

    A line at a statement start (the document's first token, or the one
    after a ``.``) goes to ``whole_line`` first, and yields no token when
    that reads it."""
    kind = None
    for lineno, line in raw_lines(text):
        if kind in (None, ".") and whole_line(line):
            continue
        cur = Cursor(line, lineno)
        pos = 0
        while True:
            pos = cur.pos = _SPACE.match(line, pos).end()
            if pos == len(line) or line[pos] == "#":
                break
            c = line[pos]
            value = None
            if c == "<":
                if line.startswith("<<", pos):
                    kind, end = "<<", pos + 2
                else:
                    kind, value = "iri", scan_iri_text(cur)
                    end = cur.pos
            elif c == '"':
                kind, value = "string", scan_string_body(cur)
                end = cur.pos
            elif line.startswith(">>", pos):
                kind, end = ">>", pos + 2
            elif c == "@":
                m = LANG_TAG.match(line, pos + 1)
                # after a string, "@prefix" and "@base" start language tags
                directive = line.startswith(("@prefix", "@base"), pos)
                if m and (not directive or kind == "string"):
                    kind, value, end = "lang", m.group(0), m.end()
                elif line.startswith("@prefix", pos):
                    kind, end = "@prefix", pos + len("@prefix")
                elif directive:
                    cur.fail("base declarations are not supported; use absolute IRIs")
                else:
                    cur.fail("bad language tag or directive")
            elif line.startswith("^^", pos):
                kind, end = "^^", pos + 2
            elif line.startswith("_:", pos):
                kind, value = "blank", scan_blank(cur)
                end = cur.pos
            elif c in "+-.0123456789" and (m := BARE_LITERAL.match(line, pos)):
                kind, value, end = "number", m.group(0), m.end()
            elif c in "+-" and line.startswith(".", pos + 1):
                cur.fail("bad number")
            elif c in ".;,":
                kind, end = c, pos + 1
            elif m := _PNAME.match(line, pos):
                kind, value, end = "pname", m.group(0), m.end()
            elif m := _WORD.match(line, pos):
                word, end = m.group(0), m.end()
                if word == "a":
                    kind = "a"
                elif word in ("true", "false"):
                    kind, value = "boolean", word
                elif word.upper() == "PREFIX":
                    kind = "PREFIX"
                elif word.upper() == "BASE":
                    cur.fail("BASE is not supported")
                else:
                    cur.fail(f"unexpected word {word!r}")
            else:
                cur.fail(f"unexpected character {c!r}")
            yield kind, value, lineno, pos + 1
            pos = end
    eof = ("eof", None, lineno, len(line) + 1)
    while True:
        yield eof


# A new triple's index, or a blank node, is in no stored statement: a blank
# label the store holds is renamed apart, and one it does not is in none.
_UNSTORED = (int, BlankNode)


class _Parser:
    """Reads the triples of a document, one token ahead, without touching
    the store.

    A triple already in the store stands for its least sid. A new one is
    recorded once, in ``new``, and stands for its index there until
    :meth:`Store.insert_new` gives it a sid. IRIs and prefixed names are
    read once per distinct text; a prefix declaration forgets the names.
    A statement line :meth:`line` reads as a whole is read through a
    :class:`TermReader`, each distinct token once. Blank labels are kept as
    written, to be renamed after the last token.
    """

    def __init__(self, text: str, store: Store):
        self.store = store
        self.stored = len(store) > 0  # an empty store matches nothing
        self.prefixes: dict[str, str] = {}
        self.iris: dict[str, Iri] = {}
        self.pnames: dict[str, Iri] = {}
        self.blanks: set[str] = set()
        self.reader = TermReader()
        self.new: list[tuple] = []
        self.made: dict[tuple, SidRef | int] = {}
        self.tokens = _tokenize(text, self.line)
        self.tok = next(self.tokens)

    def next(self) -> tuple:
        tok = self.tok
        self.tok = next(self.tokens)
        return tok

    def fail(self, tok: tuple, msg: str):
        raise ParseError(msg, line=tok[2], column=tok[3])

    def expect(self, kind: str) -> tuple:
        tok = self.next()
        if tok[0] != kind:
            self.fail(tok, f"expected {kind!r}, found {tok[0]!r}")
        return tok

    def line(self, text: str) -> bool:
        """Read a statement line :data:`_LINE` matches, inner triple first,
        and say whether it did. A line with a token the scanners refuse is
        left to the token path, which reports it where it always has."""
        m = _LINE.fullmatch(text)
        if m is None:
            return False
        terms = []
        for token in m.groups():
            if token is not None:
                if (t := self.reader.term(token)) is None:
                    return False
                terms.append(t)
        if len(terms) == 5:  # << S P O >> P O
            terms = [self.stmt(*terms[:3]), *terms[3:]]
        self.stmt(*terms)
        return True

    # --- grammar ---------------------------------------------------------

    def parse(self) -> None:
        while True:
            kind = self.tok[0]
            if kind == "eof":
                return
            if kind == "@prefix":
                self.next()
                self.prefix_declaration(terminated=True)
            elif kind == "PREFIX":
                self.next()
                self.prefix_declaration(terminated=False)
            else:
                self.triples()

    def prefix_declaration(self, terminated: bool) -> None:
        name = self.expect("pname")
        if not name[1].endswith(":"):
            self.fail(name, "prefix declarations take a bare 'label:'")
        iri = self.expect("iri")
        self.prefixes[name[1][:-1]] = iri[1]
        self.pnames.clear()
        if terminated:
            self.expect(".")

    def triples(self) -> None:
        subject = self.node(allow_literal=False)
        while True:
            verb = self.verb()
            while True:
                obj = self.node(allow_literal=True)
                self.stmt(subject, verb, obj)
                if self.tok[0] == ",":
                    self.next()
                    continue
                break
            if self.tok[0] == ";":
                while self.tok[0] == ";":
                    self.next()
                if self.tok[0] in (".", "eof"):
                    break
                continue
            break
        self.expect(".")

    def verb(self) -> Term:
        tok = self.next()
        if tok[0] == "a":
            return RDF_TYPE
        if tok[0] in ("iri", "pname"):
            return self.term_iri(tok)
        self.fail(tok, "expected a predicate")

    def term_iri(self, tok: tuple) -> Iri:
        """An IRI or prefixed name in a triple: the sid namespace is refused
        there (a datatype may name it)."""
        iri = self.to_iri(tok) if tok[0] == "iri" else self.expand(tok)
        if iri.text.startswith(SID_IRI_PREFIX):
            self.fail(tok, SID_RESERVED)
        return iri

    def to_iri(self, tok: tuple) -> Iri:
        iri = self.iris.get(tok[1])
        if iri is None:
            try:
                iri = self.iris[tok[1]] = Iri(tok[1])
            except ValueError as e:
                self.fail(tok, str(e))
        return iri

    def expand(self, tok: tuple) -> Iri:
        iri = self.pnames.get(tok[1])
        if iri is None:
            prefix, local = tok[1].split(":", 1)
            if prefix not in self.prefixes:
                self.fail(tok, f"undeclared prefix {prefix!r}:")
            try:
                iri = self.pnames[tok[1]] = Iri(self.prefixes[prefix] + local)
            except ValueError as e:
                self.fail(tok, str(e))
        return iri

    def literal_suffix(self, lexical: str, tok: tuple) -> Literal:
        try:
            if self.tok[0] == "lang":
                return Literal(lexical, RDF_LANG_STRING, self.next()[1])
            if self.tok[0] == "^^":
                self.next()
                dt_tok = self.next()
                if dt_tok[0] == "iri":
                    dt = self.to_iri(dt_tok)
                elif dt_tok[0] == "pname":
                    dt = self.expand(dt_tok)
                else:
                    self.fail(dt_tok, "expected a datatype IRI")
                return Literal(lexical, dt)
            return Literal(lexical, XSD_STRING)
        except ValueError as e:
            self.fail(tok, str(e))

    def node(self, allow_literal: bool) -> Term:
        tok = self.next()
        kind = tok[0]
        if kind in ("iri", "pname"):
            return self.term_iri(tok)
        if kind == "blank":
            self.blanks.add(tok[1].label)
            return tok[1]
        if kind == "<<":
            return self.quoted()
        if not allow_literal:
            self.fail(tok, "a literal cannot appear here")
        if kind == "string":
            return self.literal_suffix(tok[1], tok)
        if kind in ("number", "boolean"):
            return bare_literal(tok[1])
        self.fail(tok, "expected a term")

    def quoted(self) -> SidRef | int:
        """The quoted triple whose ``<<`` was just read. Nested ones are read
        with an explicit stack: the subject and verb read so far of each."""
        stack: list[list] = [[]]
        while True:
            if self.tok[0] == "<<":
                self.next()
                stack.append([])
                continue
            term = self.node(allow_literal=bool(stack[-1]))
            while len(stack[-1]) == 2:
                s, p = stack.pop()
                self.expect(">>")
                term = self.stmt(s, p, term)
                if not stack:
                    return term
            stack[-1] += (term, self.verb())

    def stmt(self, s, p: Term, o) -> SidRef | int:
        key = (s, p, o)
        n = len(self.new)
        made = self.made.setdefault(key, n)
        # every index already there is below n, so this n went in: the key is new
        if made is n:
            existing = None
            if self.stored and not isinstance(s, _UNSTORED) and not isinstance(o, _UNSTORED):
                existing = self.store.sids_by_content(s, p, o)
            if existing:
                made = self.made[key] = SidRef(existing[0])
            else:
                self.new.append(key)
        return made


def parse_turtle_star(text: str, store: Store | None = None) -> Store:
    """Parse the Turtle-star subset; see the module docstring for semantics.

    All or nothing: on error the store is left unchanged.
    """
    store = store if store is not None else Store()
    parser = _Parser(text, store)
    parser.parse()
    new = parser.new
    if renames := store_renames(store, parser.blanks | parser.reader.blank_labels()):
        new = [(_renamed(s, renames), p, _renamed(o, renames)) for s, p, o in new]
    store.insert_new(new)
    return store


# --- serialization --------------------------------------------------------


def _render_literal(lit: Literal, prefixes: dict[str, str]) -> str:
    if bare_literal(lit.lexical) == lit:
        return lit.lexical
    if lit.language is None and lit.datatype != XSD_STRING:
        return f'"{escape_string(lit.lexical)}"^^{_render_iri(lit.datatype, prefixes)}'
    return render_term(lit)


def _render_iri(iri: Iri, prefixes: dict[str, str]) -> str:
    text = iri.text
    # a prefixed name's local part is empty or fits the name rule
    fits = {label: base for label, base in prefixes.items()
            if text.startswith(base) and (text == base or NAME.fullmatch(text, len(base)))}
    return shorten_iri(iri, fits) if fits else f"<{escape_iri(text)}>"


def _is_rdf_type(p) -> bool:
    """``p == RDF_TYPE``, without the dataclass ``__eq__`` call."""
    return type(p) is Iri and p.text == RDF_TYPE.text


def _render_node(t, prefixes: dict[str, str], memo: dict) -> str:
    """Text of one node, rendered once per distinct object and ``memo``,
    which is keyed by ``id`` and so holds only while the graph lives; a
    quoted triple's from its parts' text."""
    text = memo.get(id(t))
    if text is not None:
        return text
    if isinstance(t, QuotedTriple):
        s = _render_node(t.s, prefixes, memo)
        p = "a" if _is_rdf_type(t.p) else _render_node(t.p, prefixes, memo)
        o = _render_node(t.o, prefixes, memo)
        text = f"<< {s} {p} {o} >>"
    elif isinstance(t, Iri):
        text = _render_iri(t, prefixes)
    elif isinstance(t, BlankNode):
        text = f"_:{t.label}"
    elif isinstance(t, Literal):
        text = _render_literal(t, prefixes)
    elif isinstance(t, LocalId):
        raise ValueError("local identifiers must be exposed before serialization")
    else:
        raise ValueError(f"not serializable here: {t!r}")
    memo[id(t)] = text
    return text


def serialize_turtle_star(graph: RdfStarGraph, prefixes: dict[str, str] | None = None) -> str:
    """Sorted, deterministic text for an RDF-star view, under the prefixes Turtle can read.

    Each node is rendered once: a quoted triple from its parts' text.
    """
    prefixes = {label: iri for label, iri in (prefixes or {}).items()
                if not label or PN_PREFIX.fullmatch(label)}
    lines = [f"@prefix {label}: <{escape_iri(iri)}> ." for label, iri in sorted(prefixes.items())]
    if lines:
        lines.append("")
    memo: dict = {}
    for s, p, o in graph.sorted():
        ps = "a" if _is_rdf_type(p) else _render_node(p, prefixes, memo)
        lines.append(f"{_render_node(s, prefixes, memo)} {ps} {_render_node(o, prefixes, memo)} .")
    return "".join(line + "\n" for line in lines)
