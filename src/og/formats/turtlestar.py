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

from ..datatypes import LANG_TAG, RDF_LANG_STRING, XSD_STRING, Literal
from ..errors import ParseError
from ..statements import Term
from ..store import Store
from ..terms import NAME, BlankNode, Iri, LocalId, SidRef
from ..views import RDF_TYPE, QuotedTriple, RdfStarGraph, shorten_iri
from .common import (
    BARE_LITERAL,
    PN_PREFIX,
    Cursor,
    bare_literal,
    escape_iri,
    escape_string,
    render_term,
    scan_blank,
    scan_iri_text,
    scan_string_body,
    store_renames,
)

_PNAME = re.compile(f"(?:{PN_PREFIX.pattern})?:(?:{NAME.pattern})?")
_WORD = re.compile(r"[A-Za-z]+")
_SPACE = re.compile(r"[ \t\r]*")


class _Token:
    __slots__ = ("kind", "value", "line", "col")

    def __init__(self, kind, value, line, col):
        self.kind = kind
        self.value = value
        self.line = line
        self.col = col


def _tokenize(text: str) -> list[_Token]:
    """Tokens of the document; no token spans a line."""
    tokens: list[_Token] = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        cur = Cursor(line, lineno)
        while True:
            pos = cur.pos = _SPACE.match(line, cur.pos).end()
            if pos == len(line) or line[pos] == "#":
                break
            c = line[pos]
            value = None
            if line.startswith("<<", pos) or line.startswith(">>", pos):
                kind, end = line[pos:pos + 2], pos + 2
            elif c == "<":
                kind, value = "iri", scan_iri_text(cur)
                end = cur.pos
            elif c == '"':
                kind, value = "string", scan_string_body(cur)
                end = cur.pos
            elif c == "@":
                m = LANG_TAG.match(line, pos + 1)
                # after a string, "@prefix" and "@base" start language tags
                directive = line.startswith(("@prefix", "@base"), pos)
                if m and (not directive or tokens and tokens[-1].kind == "string"):
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
                kind, value = "blank", scan_blank(cur).label
                end = cur.pos
            elif c in "+-.0123456789" and (m := BARE_LITERAL.match(line, pos)):
                kind, value, end = "number", m.group(0), m.end()
            elif c in "+-" and line.startswith(".", pos + 1):
                cur.fail("bad number")
            elif c in ".;,":
                kind, end = c, pos + 1
            elif m := _PNAME.match(line, pos):
                kind, value, end = "pname", tuple(m.group(0).split(":", 1)), m.end()
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
            tokens.append(_Token(kind, value, lineno, pos + 1))
            cur.pos = end
    tokens.append(_Token("eof", None, lineno, len(line) + 1))
    return tokens


class _Parser:
    """Reads the triples of a token list without touching the store.

    A triple already in the store stands for its least sid. A new one is
    recorded once, in ``new``, and stands for its index there until
    :meth:`Store.insert_new` gives it a sid.
    """

    def __init__(self, tokens: list[_Token], store: Store):
        self.tokens = tokens
        self.i = 0
        self.store = store
        self.prefixes: dict[str, str] = {}
        self.renames = store_renames(store, {t.value for t in tokens if t.kind == "blank"})
        self.new: list[tuple] = []
        self.made: dict[tuple, SidRef | int] = {}

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def next(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def fail(self, tok: _Token, msg: str):
        raise ParseError(msg, line=tok.line, column=tok.col)

    def expect(self, kind: str) -> _Token:
        tok = self.next()
        if tok.kind != kind:
            self.fail(tok, f"expected {kind!r}, found {tok.kind!r}")
        return tok

    # --- grammar ---------------------------------------------------------

    def parse(self) -> None:
        while True:
            tok = self.peek()
            if tok.kind == "eof":
                return
            if tok.kind == "@prefix":
                self.next()
                self.prefix_declaration(terminated=True)
            elif tok.kind == "PREFIX":
                self.next()
                self.prefix_declaration(terminated=False)
            else:
                self.triples()

    def prefix_declaration(self, terminated: bool) -> None:
        name = self.expect("pname")
        if name.value[1] != "":
            self.fail(name, "prefix declarations take a bare 'label:'")
        iri = self.expect("iri")
        self.prefixes[name.value[0]] = iri.value
        if terminated:
            self.expect(".")

    def triples(self) -> None:
        subject = self.node(allow_literal=False)
        while True:
            verb = self.verb()
            while True:
                obj = self.node(allow_literal=True)
                self.stmt(subject, verb, obj)
                if self.peek().kind == ",":
                    self.next()
                    continue
                break
            if self.peek().kind == ";":
                while self.peek().kind == ";":
                    self.next()
                if self.peek().kind in (".", "eof"):
                    break
                continue
            break
        self.expect(".")

    def verb(self) -> Term:
        tok = self.next()
        if tok.kind == "a":
            return RDF_TYPE
        if tok.kind == "iri":
            return self.to_iri(tok)
        if tok.kind == "pname":
            return self.expand(tok)
        self.fail(tok, "expected a predicate")

    def to_iri(self, tok: _Token) -> Iri:
        try:
            return Iri(tok.value)
        except ValueError as e:
            self.fail(tok, str(e))

    def expand(self, tok: _Token) -> Iri:
        prefix, local = tok.value
        if prefix not in self.prefixes:
            self.fail(tok, f"undeclared prefix {prefix!r}:")
        try:
            return Iri(self.prefixes[prefix] + local)
        except ValueError as e:
            self.fail(tok, str(e))

    def literal_suffix(self, lexical: str, tok: _Token) -> Literal:
        try:
            if self.peek().kind == "lang":
                return Literal(lexical, RDF_LANG_STRING, self.next().value)
            if self.peek().kind == "^^":
                self.next()
                dt_tok = self.next()
                if dt_tok.kind == "iri":
                    dt = self.to_iri(dt_tok)
                elif dt_tok.kind == "pname":
                    dt = self.expand(dt_tok)
                else:
                    self.fail(dt_tok, "expected a datatype IRI")
                return Literal(lexical, dt)
            return Literal(lexical, XSD_STRING)
        except ValueError as e:
            self.fail(tok, str(e))

    def node(self, allow_literal: bool) -> Term:
        tok = self.next()
        if tok.kind == "iri":
            return self.to_iri(tok)
        if tok.kind == "pname":
            return self.expand(tok)
        if tok.kind == "blank":
            return BlankNode(self.renames.get(tok.value, tok.value))
        if tok.kind == "<<":
            return self.quoted()
        if not allow_literal:
            self.fail(tok, "a literal cannot appear here")
        if tok.kind == "string":
            return self.literal_suffix(tok.value, tok)
        if tok.kind in ("number", "boolean"):
            return bare_literal(tok.value)
        self.fail(tok, "expected a term")

    def quoted(self) -> SidRef | int:
        """The quoted triple whose ``<<`` was just read. Nested ones are read
        with an explicit stack: the subject and verb read so far of each."""
        stack: list[list] = [[]]
        while True:
            if self.peek().kind == "<<":
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
        if key not in self.made:
            existing = self.store.sids_by_content(s, p, o)
            self.made[key] = SidRef(existing[0]) if existing else len(self.new)
            if not existing:
                self.new.append(key)
        return self.made[key]


def parse_turtle_star(text: str, store: Store | None = None) -> Store:
    """Parse the Turtle-star subset; see the module docstring for semantics.

    All or nothing: on error the store is left unchanged.
    """
    store = store if store is not None else Store()
    parser = _Parser(_tokenize(text), store)
    parser.parse()
    store.insert_new(parser.new)
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


def _render_node(t, prefixes: dict[str, str], memo: dict) -> str:
    """Text of one node, rendered once per distinct object and ``memo``,
    which is keyed by ``id`` and so holds only while the graph lives; a
    quoted triple's from its parts' text."""
    text = memo.get(id(t))
    if text is not None:
        return text
    if isinstance(t, QuotedTriple):
        s = _render_node(t.s, prefixes, memo)
        p = "a" if t.p == RDF_TYPE else _render_node(t.p, prefixes, memo)
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
        ps = "a" if p == RDF_TYPE else _render_node(p, prefixes, memo)
        lines.append(f"{_render_node(s, prefixes, memo)} {ps} {_render_node(o, prefixes, memo)} .")
    return "".join(line + "\n" for line in lines)
