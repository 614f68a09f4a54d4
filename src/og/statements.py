"""Statements, patterns, and the total order over terms."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Container, Iterable, Union

from .datatypes import Literal
from .errors import PositionError
from .terms import BlankNode, Iri, LocalId, Sid, SidRef

Term = Union[Iri, LocalId, BlankNode, SidRef, Literal]

#: Graph names are IRIs or local identifiers.
GraphId = Union[Iri, LocalId]


def term_key(t: Term) -> tuple:
    """Sort key realizing the total order over terms.

    Variants rank Iri < LocalId < BlankNode < SidRef < Literal; within a
    variant the order is lexicographic (sid references by integer, which is
    their text order; literals by datatype IRI, lexical form, language tag).
    """
    if isinstance(t, Iri):
        return (0, t.text)
    if isinstance(t, LocalId):
        return (1, t.text)
    if isinstance(t, BlankNode):
        return (2, t.label)
    if isinstance(t, SidRef):
        return (3, t.sid.int)
    if isinstance(t, Literal):
        return (4, t.datatype.text, t.lexical, t.language or "")
    raise TypeError(f"not a term: {t!r}")


def _check_positions(src, label, value, where: str) -> None:
    if src is not None and isinstance(src, Literal):
        raise PositionError(f"{where}: a literal cannot be a statement source")
    if label is not None and not isinstance(label, (Iri, LocalId)):
        raise PositionError(f"{where}: labels must be IRIs or local identifiers")


@dataclass(frozen=True, slots=True)
class Statement:
    """One edge of the graph: ``src -label-> value``, identified by ``sid``.

    The sid is the statement's global identity; it is never derived from the
    content, so content-identical statements with distinct sids (multi-edges)
    coexist.
    """

    src: Term
    label: Term
    value: Term
    sid: Sid

    def __post_init__(self):
        _check_positions(self.src, self.label, self.value, "statement")

    @property
    def content(self) -> tuple[Term, Term, Term]:
        return (self.src, self.label, self.value)


def is_ground(statement: Statement) -> bool:
    """True when neither source nor value references another statement."""
    return not (isinstance(statement.src, SidRef) or isinstance(statement.value, SidRef))


def blank_labels(statements: Iterable[Statement]) -> set[str]:
    """Labels of the blank nodes in source or value position."""
    return {
        t.label
        for st in statements
        for t in (st.src, st.value)
        if isinstance(t, BlankNode)
    }


def rename_apart(labels: Iterable[str], *taken: Container[str]) -> dict[str, str]:
    """A fresh ``label_k`` for each label, with the least k that no ``taken``
    container holds; the containers are only asked ``in``.

    No two labels get the same name, since the digits after its last ``_``
    fix the label a name was made from.
    """
    renames = {}
    for label in labels:
        k = 1
        while any(f"{label}_{k}" in t for t in taken):
            k += 1
        renames[label] = f"{label}_{k}"
    return renames


def referenced_sids(statement: Statement) -> set[Sid]:
    """Sids this statement's source or value point at."""
    out = set()
    if isinstance(statement.src, SidRef):
        out.add(statement.src.sid)
    if isinstance(statement.value, SidRef):
        out.add(statement.value.sid)
    return out


@dataclass(frozen=True, slots=True)
class StatementPattern:
    """A statement with wildcards; None matches anything in that position."""

    src: Term | None = None
    label: Term | None = None
    value: Term | None = None
    sid: Sid | None = None

    def __post_init__(self):
        _check_positions(self.src, self.label, self.value, "pattern")

    def matches(self, st: Statement) -> bool:
        return (
            (self.src is None or self.src == st.src)
            and (self.label is None or self.label == st.label)
            and (self.value is None or self.value == st.value)
            and (self.sid is None or self.sid == st.sid)
        )
