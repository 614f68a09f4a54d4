"""Plain N-Triples.

The lossy, maximally portable route: parsing mints fresh sids (identity is
not expressible here), serializing writes a triple set in canonical sorted
order. Comments and blank lines are tolerated; errors carry line and column.
"""

from __future__ import annotations

import re

from ..statements import Term
from ..store import Store
from ..terms import BlankNode, Iri
from ..views import RdfGraph
from .common import (
    _ANY_TOKEN,
    _END,
    _IRI_TOKEN,
    _NODE_TOKEN,
    TermReader,
    blank_renamer,
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
        triples.append(reader.line(line) or reader.scan_line(line, lineno, (
            ((Iri, BlankNode), "subject must be an IRI or blank node"), (Iri, "predicate must be an IRI"), None)))

    if rename := blank_renamer(store, reader.blank_labels()):
        triples = [[rename(s), p, rename(o)] for s, p, o in triples]
    store.insert_new(triples)
    return store


def serialize_ntriples(graph: RdfGraph) -> str:
    """Canonical N-Triples for a plain-RDF view, sorted, one triple per line;
    each distinct term is rendered once per call."""
    render = term_renderer()
    return "".join(f"{render(s)} {render(p)} {render(o)} .\n" for s, p, o in graph.sorted())
