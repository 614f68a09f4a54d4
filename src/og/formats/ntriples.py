"""Plain N-Triples.

The lossy, maximally portable route: parsing mints fresh sids (identity is
not expressible here), serializing writes a triple set in canonical sorted
order. Comments and blank lines are tolerated; errors carry line and column.
"""

from __future__ import annotations

import re

from ..errors import ParseError
from ..statements import Term
from ..store import Store
from ..terms import BlankNode, Iri
from ..views import RdfGraph
from .common import (
    _ANY_TOKEN,
    _END,
    _IRI_TOKEN,
    _NODE_TOKEN,
    Cursor,
    TermReader,
    blank_renamer,
    end_of_statement,
    split_lines,
    term_renderer,
)

#: A triple on one line, a node, an IRI and any term, of escape-free tokens
#: one or more spaces or tabs apart.
_LINE = re.compile(rf"[ \t]*({_NODE_TOKEN})[ \t]+({_IRI_TOKEN})[ \t]+({_ANY_TOKEN}){_END}")


def parse_ntriples(text: str, store: Store | None = None) -> Store:
    """Parse N-Triples into ground statements under fresh sids."""
    store = store if store is not None else Store()
    triples: list[list[Term]] = []
    reader = TermReader(_LINE)
    for lineno, line in split_lines(text):
        triple = reader.line(line)
        if triple is None:
            cur = Cursor(line, lineno)
            cur.skip_ws()
            col = cur.pos + 1
            s = reader.scan(cur)
            if not isinstance(s, (Iri, BlankNode)):
                raise ParseError("subject must be an IRI or blank node", line=lineno, column=col)
            cur.skip_ws()
            col = cur.pos + 1
            p = reader.scan(cur)
            if not isinstance(p, Iri):
                raise ParseError("predicate must be an IRI", line=lineno, column=col)
            cur.skip_ws()
            triple = [s, p, reader.scan(cur)]
            end_of_statement(cur)
        triples.append(triple)

    if rename := blank_renamer(store, reader.blank_labels()):
        triples = [[rename(s), p, rename(o)] for s, p, o in triples]
    store.insert_new(triples)
    return store


def serialize_ntriples(graph: RdfGraph) -> str:
    """Canonical N-Triples for a plain-RDF view, sorted, one triple per line;
    each distinct term is rendered once per call."""
    render = term_renderer()
    return "".join(f"{render(s)} {render(p)} {render(o)} .\n" for s, p, o in graph.sorted())
