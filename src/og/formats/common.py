"""Shared term lexing and rendering for the text formats.

Both line formats use the same term tokens: ``<iri>``, ``_:label``, quoted
literals with ``@lang`` or ``^^<datatype>`` suffixes. The OG-NQ dialect adds
two: ``local:"text"`` for local identifiers and ``urn:og:sid:`` IRIs read
back as sid references. Turtle-star reads its IRIs, strings and blank nodes
with the same scanners, and shares the bare-literal rule, the prefix-label
rule and the renaming of blank labels apart from a store's.
"""

from __future__ import annotations

import re
from typing import Callable, Iterator

from ..datatypes import (
    LANG_TAG,
    RDF_LANG_STRING,
    XSD_BOOLEAN,
    XSD_DECIMAL,
    XSD_DOUBLE,
    XSD_INTEGER,
    XSD_STRING,
    Literal,
)
from ..errors import ParseError
from ..statements import Term, rename_apart
from ..store import Store
from ..terms import (
    NAME,
    SID_IRI_PREFIX,
    BlankNode,
    Iri,
    LocalId,
    SidRef,
    parse_sid_text,
    sid_from_iri_text,
)

#: The error for an ``urn:og:sid:`` IRI where a format has no sid references.
SID_RESERVED = f"the {SID_IRI_PREFIX} namespace is reserved"

_ECHAR = {"t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f",
          '"': '"', "'": "'", "\\": "\\"}
_LOCAL_MARK = 'local:"'
_HEX = re.compile(r"[0-9A-Fa-f]+")

#: The label of a prefixed name: Turtle's PN_PREFIX cut down to ASCII, which
#: may also start with ``_`` (a lone ``_`` marks a blank node) or end in ``.``.
PN_PREFIX = re.compile(r"[A-Za-z][A-Za-z0-9_.\-]*|_[A-Za-z0-9_.\-]+")

#: Turtle's INTEGER, DECIMAL, DOUBLE and boolean shorthand, one group each.
BARE_LITERAL = re.compile(
    r"(?P<double>[+-]?(?:[0-9]+\.[0-9]*|\.?[0-9]+)[eE][+-]?[0-9]+)"
    r"|(?P<decimal>[+-]?[0-9]*\.[0-9]+)"
    r"|(?P<integer>[+-]?[0-9]+)"
    r"|(?P<boolean>true|false)"
)
_BARE_DATATYPE = {"double": XSD_DOUBLE, "decimal": XSD_DECIMAL,
                  "integer": XSD_INTEGER, "boolean": XSD_BOOLEAN}


def bare_literal(token: str) -> Literal | None:
    """The literal a bare Turtle token denotes, or None if it is not one."""
    m = BARE_LITERAL.fullmatch(token)
    return Literal(token, _BARE_DATATYPE[m.lastgroup]) if m else None


class Cursor:
    """A position inside one line of input, for error reporting."""

    __slots__ = ("text", "pos", "line")

    def __init__(self, text: str, line: int):
        self.text = text
        self.pos = 0
        self.line = line

    def fail(self, message: str):
        raise ParseError(message, line=self.line, column=self.pos + 1)

    def at_end(self) -> bool:
        return self.pos >= len(self.text)

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def expect(self, token: str) -> None:
        if not self.text.startswith(token, self.pos):
            self.fail(f"expected {token!r}")
        self.pos += len(token)


def _scan_uchar(cur: Cursor) -> str:
    # cur.pos sits on the character after the backslash
    kind = cur.peek()
    width = 4 if kind == "u" else 8
    start = cur.pos + 1
    hexpart = cur.text[start:start + width]
    if len(hexpart) != width or not _HEX.fullmatch(hexpart) or int(hexpart, 16) > 0x10FFFF:
        cur.fail(f"bad \\{kind} escape")
    cur.pos = start + width
    return chr(int(hexpart, 16))


_IRI_RUN = re.compile(r'[^\x00-\x20"{}|^`\\>]*')
_STRING_RUN = re.compile(r'[^"\\]*')


def scan_iri_text(cur: Cursor) -> str:
    cur.expect("<")
    text = cur.text
    end = _IRI_RUN.match(text, cur.pos).end()
    if text.startswith(">", end):  # no escapes
        start, cur.pos = cur.pos, end + 1
        return text[start:end]
    out = []
    while True:
        end = _IRI_RUN.match(text, cur.pos).end()
        out.append(text[cur.pos:end])
        cur.pos = end
        if end == len(text):
            cur.fail("unterminated IRI")
        c = text[end]
        if c == ">":
            cur.pos += 1
            return "".join(out)
        if c != "\\":
            cur.fail(f"character {c!r} must be escaped inside an IRI")
        cur.pos += 1
        if cur.peek() not in ("u", "U"):
            cur.fail("only \\u and \\U escapes are allowed in IRIs")
        out.append(_scan_uchar(cur))


def scan_string_body(cur: Cursor) -> str:
    cur.expect('"')
    text = cur.text
    out = []
    while True:
        end = _STRING_RUN.match(text, cur.pos).end()
        out.append(text[cur.pos:end])
        cur.pos = end
        if end == len(text):
            cur.fail("unterminated string")
        if text[end] == '"':
            cur.pos += 1
            return "".join(out)
        cur.pos += 1
        e = cur.peek()
        if e in ("u", "U"):
            out.append(_scan_uchar(cur))
        elif e in _ECHAR:
            out.append(_ECHAR[e])
            cur.pos += 1
        else:
            cur.fail(f"unknown escape \\{e}")


def scan_blank(cur: Cursor) -> BlankNode:
    """``_:`` and the longest label the name rule allows (so a trailing dot
    is left for the statement terminator)."""
    cur.expect("_:")
    m = NAME.match(cur.text, cur.pos)
    if not m:
        cur.fail("bad blank node label")
    cur.pos = m.end()
    return BlankNode(m.group())


def scan_literal(cur: Cursor) -> Literal:
    lexical = scan_string_body(cur)
    if cur.peek() == "@":
        cur.pos += 1
        m = LANG_TAG.match(cur.text, cur.pos)
        if not m:
            cur.fail("bad language tag")
        cur.pos = m.end()
        return Literal(lexical, RDF_LANG_STRING, m.group(0))
    if cur.text.startswith("^^", cur.pos):
        cur.pos += 2
        dt_text = scan_iri_text(cur)
        try:
            return Literal(lexical, Iri(dt_text))
        except ValueError as e:
            cur.fail(str(e))
    return Literal(lexical, XSD_STRING)


def scan_term(cur: Cursor, *, ognq: bool = False) -> Term:
    """One term token at the cursor; ``ognq`` reads the OG-NQ dialect."""
    c = cur.peek()
    if c == "<":
        start_col = cur.pos + 1
        text = scan_iri_text(cur)
        if text.startswith(SID_IRI_PREFIX):
            if not ognq:
                raise ParseError(SID_RESERVED, line=cur.line, column=start_col)
            try:
                return SidRef(sid_from_iri_text(text))
            except ValueError:
                raise ParseError(f"malformed sid IRI: {text!r}",
                                 line=cur.line, column=start_col) from None
        try:
            return Iri(text)
        except ValueError as e:
            raise ParseError(str(e), line=cur.line, column=start_col) from None
    if c == "_":
        return scan_blank(cur)
    if c == '"':
        return scan_literal(cur)
    if ognq and cur.text.startswith(_LOCAL_MARK, cur.pos):
        cur.pos += len(_LOCAL_MARK) - 1
        try:
            return LocalId(scan_string_body(cur))
        except ValueError as e:
            cur.fail(str(e))
    cur.fail("expected a term")


def end_of_statement(cur: Cursor) -> None:
    """Consume the closing ``.`` plus trailing whitespace or comment."""
    cur.skip_ws()
    cur.expect(".")
    cur.skip_ws()
    if not cur.at_end() and cur.peek() != "#":
        cur.fail("unexpected content after '.'")


# Escape-free term tokens, built from the scanners' own rules. Each token of
# a line ends where its scanner stops: nothing matched here can continue into
# the space, tab or statement end that must follow it.
_IRI_TOKEN = f"<{_IRI_RUN.pattern}>"
_NODE_TOKEN = f"{_IRI_TOKEN}|_:{NAME.pattern}"
_ANY_TOKEN = f'{_NODE_TOKEN}|"{_STRING_RUN.pattern}"(?:@{LANG_TAG.pattern}|\\^\\^{_IRI_TOKEN})?'
_END = r"[ \t]*\.[ \t]*(?:#.*)?"
_NT_LINE = re.compile(rf"[ \t]*({_NODE_TOKEN})[ \t]+({_IRI_TOKEN})[ \t]+({_ANY_TOKEN}){_END}")
_OGNQ_TERM = f'({_ANY_TOKEN}|local:"{_STRING_RUN.pattern}")'
_OGNQ_LINE = re.compile(rf"[ \t]*{_OGNQ_TERM}[ \t]+{_OGNQ_TERM}[ \t]+{_OGNQ_TERM}"
                        rf"[ \t]+(<{re.escape(SID_IRI_PREFIX)}{_IRI_RUN.pattern}>){_END}")


class TermReader:
    """Reads the terms of one parse call's statement lines, each distinct
    token once: a dict from token text to term lives as long as the reader.

    :meth:`line` reads a line of escape-free tokens, one space or tab apart,
    with one regex, an N-Triples line by its positions (node, IRI, any term)
    and an OG-NQ line as three terms and its sid. A token that is not yet in
    the dict is scanned at its own column, so a bad one fails as the
    scanners make it fail anywhere; only a term read without error is kept.
    Any other line is for the caller to read with :meth:`scan`. A caller
    with its own line regex reads each whole token with :meth:`term`. Equal
    terms spelled apart (escaped and not) are kept as one object.
    """

    __slots__ = ("ognq", "pattern", "tokens", "terms")

    def __init__(self, *, ognq: bool = False):
        self.ognq = ognq
        self.pattern = _OGNQ_LINE if ognq else _NT_LINE
        self.tokens: dict[str, Term] = {}
        self.terms: dict[Term, Term] = {}  # one object per distinct term

    def scan(self, cur: Cursor) -> Term:
        """:func:`scan_term` at the cursor, as the one object of its term."""
        t = scan_term(cur, ognq=self.ognq)
        return self.terms.setdefault(t, t)

    def term(self, token: str) -> Term | None:
        """The term of one whole escape-free token, scanned the first time and
        then read from the dict; None, and nothing kept, when the scanner
        refuses it."""
        t = self.tokens.get(token)
        if t is None:
            try:
                t = self.tokens[token] = self.scan(Cursor(token, 0))
            except ParseError:
                return None
        return t

    def line(self, text: str, lineno: int) -> list | None:
        """The line's three terms, and an OG-NQ line's sid; None when the line
        is not one the regex reads."""
        m = self.pattern.fullmatch(text)
        if m is None:
            return None
        tokens = self.tokens
        parts = []
        for i in (1, 2, 3):
            t = tokens.get(m.group(i))
            if t is None:
                cur = Cursor(text, lineno)
                cur.pos = m.start(i)
                t = tokens[m.group(i)] = self.scan(cur)
            parts.append(t)
        if self.ognq:
            # the sid's token is its references' too: they share one UUID
            ref = tokens.get(m.group(4))
            if ref is None:
                try:
                    ref = tokens[m.group(4)] = SidRef(parse_sid_text(m.group(4)[len(SID_IRI_PREFIX) + 1:-1]))
                except ValueError:
                    cur = Cursor(text, lineno)
                    cur.pos = m.start(4)
                    scan_term(cur, ognq=True)  # raises the scanner's error for a malformed sid IRI
            parts.append(ref.sid)
        return parts

    def blank_labels(self) -> set[str]:
        """The labels of every blank node read so far."""
        return {t.label for t in self.terms if type(t) is BlankNode}


# --- rendering -----------------------------------------------------------


_ESCAPE = {_ECHAR[e]: "\\" + e for e in 'tnr"\\'}
_STRING_UNSAFE = re.compile(r'[\x00-\x1f"\\\x7f]')
_IRI_UNSAFE = re.compile(r'[\x00-\x20<>"{}|^`\\\x7f]')


def _uchar(m: re.Match) -> str:
    return f"\\u{ord(m.group()):04X}"


def escape_string(s: str) -> str:
    return _STRING_UNSAFE.sub(lambda m: _ESCAPE.get(m.group()) or _uchar(m), s)


def escape_iri(s: str) -> str:
    return _IRI_UNSAFE.sub(_uchar, s)


def render_term(t: Term, *, ognq: bool = False) -> str:
    """Canonical token for a term (OG-NQ's when ``ognq``); ValueError if it has none."""
    if isinstance(t, Iri):
        if ognq and t.text.startswith(SID_IRI_PREFIX):
            raise ValueError(f"the {SID_IRI_PREFIX} namespace is reserved for sid references")
        return f"<{escape_iri(t.text)}>"
    if isinstance(t, SidRef):
        if not ognq:
            raise ValueError("sid references are not representable in this format")
        return f"<{SID_IRI_PREFIX}{t.sid}>"
    if isinstance(t, BlankNode):
        return f"_:{t.label}"
    if isinstance(t, LocalId):
        if not ognq:
            raise ValueError("local identifiers are not representable in this format")
        return f'local:"{escape_string(t.text)}"'
    if isinstance(t, Literal):
        body = f'"{escape_string(t.lexical)}"'
        if t.language is not None:
            return f"{body}@{t.language}"
        if t.datatype == XSD_STRING:
            return body
        return f"{body}^^<{escape_iri(t.datatype.text)}>"
    raise ValueError(f"not a term: {t!r}")


def term_renderer(*, ognq: bool = False) -> Callable[[Term], str]:
    """:func:`render_term` for the length of one serializer call: each
    distinct term object is rendered once. The memo is keyed by ``id``, so
    it holds only while the caller holds every term it renders (the store
    or graph being serialized does); nothing is stored when rendering fails."""
    memo: dict[int, str] = {}

    def render(t: Term) -> str:
        text = memo.get(id(t))
        if text is None:
            text = memo[id(t)] = render_term(t, ognq=ognq)
        return text

    return render


def store_renames(store: Store, labels: set[str]) -> dict[str, str]:
    """Renames keeping a document's blank labels apart from the store's."""
    existing = store.blank_labels()
    return rename_apart([label for label in labels if label in existing], existing, labels)


def _renamed(t: Term, renames: dict[str, str]) -> Term:
    """The term, with its blank label renamed when ``renames`` holds it."""
    if isinstance(t, BlankNode) and t.label in renames:
        return BlankNode(renames[t.label])
    return t


def raw_lines(text: str) -> Iterator[tuple[int, str]]:
    """(1-based line number, line) for every line of the text, one at a time,
    so no list of the document's lines is built."""
    start, lineno = 0, 0
    while start <= len(text):
        end = text.find("\n", start)
        if end < 0:
            end = len(text)
        lineno += 1
        yield lineno, text[start:end]
        start = end + 1


def split_lines(text: str) -> Iterator[tuple[int, str]]:
    """(1-based line number, content) pairs, skipping blanks and comments."""
    for lineno, line in raw_lines(text):
        if line.endswith("\r"):
            line = line[:-1]
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            yield lineno, line
