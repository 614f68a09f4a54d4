"""Term taxonomy and statement identifiers.

Every datum in a store is a statement ``src -label-> value`` carrying a
globally unique identifier (sid). Terms come in five variants: IRIs, local
identifiers (the property-graph style of naming), blank nodes, references to
other statements by sid, and literals (defined in :mod:`og.datatypes`).
"""

from __future__ import annotations

import re
import uuid
from dataclasses import dataclass
from operator import attrgetter
from typing import Container

Sid = uuid.UUID
#: Sort key of sids: the integer ``UUID.__lt__`` compares (and the store's indexes hold).
sid_key = attrgetter("int")

#: Reserved namespace for rendering sids as IRIs on RDF-only surfaces.
SID_IRI_PREFIX = "urn:og:sid:"
#: The error for an ``urn:og:sid:`` IRI in a statement: sids are referenced
#: as SidRef terms, and the namespace is kept for their IRI form.
SID_RESERVED = f"the {SID_IRI_PREFIX} namespace is reserved"

_SCHEME = re.compile(r"^[A-Za-z][A-Za-z0-9+.\-]*:")
#: A blank node label, and the local part of a Turtle prefixed name (Turtle's
#: BLANK_NODE_LABEL and PN_LOCAL, cut down to ASCII). Unanchored, for scanners.
NAME = re.compile(r"[A-Za-z0-9_](?:[A-Za-z0-9_.\-]*[A-Za-z0-9_])?")
_LOCAL_UNSAFE = re.compile(r"[<>\s]")
_SID_TEXT = re.compile(r"[0-9a-f]{8}-[0-9a-f]{4}-[0-9a-f]{4}-[0-9a-f]{4}-[0-9a-f]{12}")


@dataclass(frozen=True, slots=True)
class Iri:
    """An absolute IRI."""

    text: str

    def __post_init__(self):
        if not _SCHEME.match(self.text):
            raise ValueError(f"not an absolute IRI: {self.text!r}")


@dataclass(frozen=True, slots=True)
class LocalId:
    """A store-local identifier, the way property-graph sources name things.

    Verbatim text, not subject to IRI syntax; views may expose it as an IRI
    under a configured namespace.
    """

    text: str

    def __post_init__(self):
        if not self.text:
            raise ValueError("local identifier must be non-empty")
        if _LOCAL_UNSAFE.search(self.text):
            raise ValueError(f"local identifier contains '<', '>' or whitespace: {self.text!r}")


@dataclass(frozen=True, slots=True)
class BlankNode:
    """A document-scoped anonymous node."""

    label: str

    def __post_init__(self):
        if not NAME.fullmatch(self.label):
            raise ValueError(f"bad blank node label: {self.label!r}")


@dataclass(frozen=True, slots=True)
class SidRef:
    """A reference to another statement by its sid."""

    sid: Sid


def sid_text(sid: Sid) -> str:
    """Canonical text form: lowercase hyphenated hex."""
    return str(sid)


def parse_sid_text(text: str) -> Sid:
    """Strict inverse of :func:`sid_text` (rejects uppercase and variants)."""
    if not _SID_TEXT.fullmatch(text):
        raise ValueError(f"not a canonical sid: {text!r}")
    return uuid.UUID(text)


def sid_iri(sid: Sid) -> Iri:
    return Iri(SID_IRI_PREFIX + str(sid))


def sid_from_iri_text(text: str) -> Sid | None:
    """The sid encoded in an ``urn:og:sid:`` IRI, or None for other IRIs."""
    if not text.startswith(SID_IRI_PREFIX):
        return None
    return parse_sid_text(text[len(SID_IRI_PREFIX):])


class SidFactory:
    """Issues sids that stay unique for the lifetime of one store.

    Random (uuid4) by default. With a seed, sids are sequential starting at
    seed+1 so runs are reproducible; seed 0 issues
    00000000-0000-0000-0000-000000000001 first. :meth:`fresh` skips the sids
    its caller still holds (their integers, ``taken``: a store passes its sid
    index) and the reserved ones (integers; a store reserves the sids of
    deleted statements), so a sid is never reused after deletion and a
    seeded counter never re-issues an identifier loaded from a file.
    """

    def __init__(self, seed: int | None = None):
        self._counter = seed
        self._reserved: set[int] = set()

    def __copy__(self) -> "SidFactory":
        out = SidFactory(self._counter)
        out._reserved = set(self._reserved)
        return out

    def reserve(self, sid: Sid) -> None:
        self._reserved.add(sid.int)

    def skip(self, taken: Container[int]) -> None:
        """Move a seeded counter past the integers of ``taken`` that directly
        follow it. :meth:`fresh` issues the same sids, as long as those stay
        taken or reserved, but walks none of them."""
        n = self._counter
        if n is not None:
            while n + 1 in taken:
                n += 1
            self._counter = n

    def fresh(self, taken: Container[int] = ()) -> Sid:
        while True:
            if self._counter is None:
                sid = uuid.uuid4()
                if sid.int not in taken and sid.int not in self._reserved:
                    return sid
                continue
            # walk on integers: only a free one becomes a UUID
            self._counter += 1
            if self._counter not in taken and self._counter not in self._reserved:
                return uuid.UUID(int=self._counter)
