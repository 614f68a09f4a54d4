"""OG-NQ, the native lossless format.

Looks like N-Quads, but the fourth position is the statement's own sid
rendered as an ``urn:og:sid:`` IRI, so identity survives a round trip
byte-for-byte. Sid IRIs in the first or third position are sid references;
``local:"text"`` tokens carry local identifiers. One statement per line,
terminated by `` .``; ``#`` lines are comments; UTF-8 throughout.

Forward references are fine: lines may mention sids defined further down.
"""

from __future__ import annotations

import re

from ..errors import ParseError
from ..statements import Statement, Term
from ..store import Store
from ..terms import SID_IRI_PREFIX, SidRef
from .common import (
    _ANY_TOKEN,
    _END,
    _IRI_RUN,
    _LOCAL_MARK,
    _SID_TOKEN,
    _STRING_RUN,
    Cursor,
    TermReader,
    blank_renamer,
    scan_term,
    split_lines,
    term_renderer,
)

#: A statement on one line, three terms and a sid IRI, of escape-free tokens
#: one or more spaces or tabs apart.
_TERM = f'({_ANY_TOKEN}|{_LOCAL_MARK}{_STRING_RUN.pattern}")'
_LINE = re.compile(rf"[ \t]*{_TERM}[ \t]+{_TERM}[ \t]+{_TERM}"
                   rf"[ \t]+({re.escape(_SID_TOKEN)}{_IRI_RUN.pattern}>){_END}")


def parse_ognq(text: str, store: Store | None = None) -> Store:
    """Parse OG-NQ text, preserving sids exactly.

    Appends into ``store`` when given (blank labels are document-scoped and
    renamed apart from the store's). Duplicate sids and malformed lines raise
    ParseError; unresolvable sid references raise DanglingSidError.
    """
    store = store if store is not None else Store()
    parsed: list[Statement] = []
    seen: set[int] = set()  # the sids' integers
    reader = TermReader(_LINE, ognq=True)
    for lineno, line in split_lines(text):
        src, label, value, ref = reader.line(line) or reader.scan_line(line, lineno, (None,) * 4)
        if not isinstance(ref, SidRef):
            raise ParseError("the fourth position must be the statement's sid IRI", line=lineno)
        sid = ref.sid
        if sid.int in seen or sid in store:
            raise ParseError(f"duplicate sid {sid}", line=lineno)
        seen.add(sid.int)
        try:
            parsed.append(Statement(src, label, value, sid))
        except Exception as e:
            raise ParseError(str(e), line=lineno) from None
    if rename := blank_renamer(store, reader.blank_labels()):
        parsed = [_renamed(st, rename) for st in parsed]
    store.add_statements(parsed)
    return store


def _renamed(st: Statement, rename) -> Statement:
    """The statement with its blank nodes renamed; itself when none is."""
    src, value = rename(st.src), rename(st.value)
    return st if src is st.src and value is st.value else Statement(src, st.label, value, st.sid)


def serialize_ognq(store: Store) -> str:
    """One line per statement in sid order; inverse of :func:`parse_ognq`.

    Each distinct term other than a sid reference is rendered once per call."""
    render = term_renderer(ognq=True)

    def token(t: Term) -> str:
        return f"<{SID_IRI_PREFIX}{t.sid}>" if type(t) is SidRef else render(t)

    return "".join(f"{token(st.src)} {render(st.label)} {token(st.value)} <{SID_IRI_PREFIX}{st.sid}> .\n"
                   for st in store.statements())


def parse_term_text(token: str) -> Term:
    """A single term in OG-NQ token syntax (used by rules files and the CLI)."""
    cur = Cursor(token.strip(), 1)
    term = scan_term(cur, ognq=True)
    if not cur.at_end():
        raise ParseError(f"trailing content after term: {token!r}")
    return term
