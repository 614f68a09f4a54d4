"""The unified in-memory statement store.

One store holds plain edges and statements about statements side by side.
Ground statements never reference other statements; assertions do, via
SidRef terms, and may only reference sids already present (so the reference
structure is acyclic by construction). Deleting a statement either cascades
over everything that references it or is refused while references remain.

Graph membership is ordinary data: ``SidRef(sid) -urn:og:inGraph-> g``.
Views know to treat that label specially; the store does not.
"""

from __future__ import annotations

import copy
from enum import Enum
from typing import Iterable, Iterator

from .errors import (
    DanglingSidError,
    NotFoundError,
    PositionError,
    ReferencedSidError,
    SidCollisionError,
)
from .statements import (
    GraphId,
    Statement,
    StatementPattern,
    is_ground,
    referenced_sids,
    term_key,
)
from .terms import Iri, LocalId, Sid, SidFactory, SidRef

#: Reserved label for graph-membership assertions.
IN_GRAPH = Iri("urn:og:inGraph")


class DeletePolicy(Enum):
    CASCADE = "cascade"
    RESTRICT = "restrict"


class Store:
    """Mutable statement store with sid, content, and reverse-reference indexes."""

    def __init__(self, seed: int | None = None):
        self._by_sid: dict[Sid, Statement] = {}
        self._by_content: dict[tuple, set[Sid]] = {}
        self._referrers: dict[Sid, set[Sid]] = {}
        self._sids = SidFactory(seed)

    # --- basics ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._by_sid)

    def __contains__(self, sid: Sid) -> bool:
        return sid in self._by_sid

    def __iter__(self) -> Iterator[Statement]:
        return iter(self.statements())

    def statements(self) -> list[Statement]:
        """All statements in sid order."""
        return [self._by_sid[s] for s in sorted(self._by_sid)]

    def get(self, sid: Sid) -> Statement | None:
        return self._by_sid.get(sid)

    def fresh_sid(self) -> Sid:
        """A sid unique for this store's lifetime (never recycled)."""
        return self._sids.fresh()

    def referrers(self, sid: Sid) -> set[Sid]:
        """Sids of assertions that reference the given sid directly."""
        return set(self._referrers.get(sid, ()))

    def copy(self) -> "Store":
        """A content-equal store that goes on issuing sids where this one is."""
        out = Store()
        out._sids = copy.copy(self._sids)
        out.add_statements(self._by_sid.values())
        return out

    # --- insertion ------------------------------------------------------

    def _install(self, st: Statement) -> None:
        self._by_sid[st.sid] = st
        self._by_content.setdefault(st.content, set()).add(st.sid)
        for ref in referenced_sids(st):
            self._referrers.setdefault(ref, set()).add(st.sid)
        self._sids.reserve(st.sid)

    def insert_ground(self, src, label, value) -> Sid:
        """Insert a plain edge under a fresh sid.

        Re-inserting identical content is a new statement (multi-edge), never
        a merge with an existing one.
        """
        if isinstance(src, SidRef) or isinstance(value, SidRef):
            raise PositionError("ground statements cannot reference other statements")
        st = Statement(src, label, value, self.fresh_sid())
        self._install(st)
        return st.sid

    def insert_assertion(self, src, label, value) -> Sid:
        """Insert a statement about statements; src and/or value is a SidRef."""
        refs = set()
        for t in (src, value):
            if isinstance(t, SidRef):
                refs.add(t.sid)
        if not refs:
            raise PositionError("an assertion must reference at least one statement")
        missing = [r for r in refs if r not in self._by_sid]
        if missing:
            raise DanglingSidError(f"assertion references absent sid(s): {sorted(map(str, missing))}")
        st = Statement(src, label, value, self.fresh_sid())
        self._install(st)
        return st.sid

    def add_statements(self, statements: Iterable[Statement]) -> None:
        """Install pre-built statements, keeping their sids.

        Accepts any order (references may arrive before their targets within
        the batch). Raises SidCollisionError when a sid is already taken and
        DanglingSidError when references cannot be resolved (absent or
        cyclic). Atomic: on error the store is left unchanged.
        """
        pending = list(statements)
        seen = set(self._by_sid)
        for st in pending:
            if st.sid in seen:
                raise SidCollisionError(f"sid already present: {st.sid}")
            seen.add(st.sid)
        # Resolve against a simulated sid set before touching the store.
        resolved = set(self._by_sid)
        ordered: list[Statement] = []
        while pending:
            stuck = []
            for st in pending:
                if all(r in resolved for r in referenced_sids(st)):
                    ordered.append(st)
                    resolved.add(st.sid)
                else:
                    stuck.append(st)
            if len(stuck) == len(pending):
                bad = sorted(str(st.sid) for st in stuck)
                raise DanglingSidError(f"unresolvable references (absent or cyclic) from: {bad}")
            pending = stuck
        for st in ordered:
            self._install(st)

    # --- deletion -------------------------------------------------------

    def _uninstall(self, st: Statement) -> None:
        del self._by_sid[st.sid]
        group = self._by_content.get(st.content)
        if group is not None:
            group.discard(st.sid)
            if not group:
                del self._by_content[st.content]
        for ref in referenced_sids(st):
            peers = self._referrers.get(ref)
            if peers is not None:
                peers.discard(st.sid)
                if not peers:
                    del self._referrers[ref]
        self._referrers.pop(st.sid, None)

    def delete_statement(self, sid: Sid, policy: DeletePolicy = DeletePolicy.CASCADE) -> int:
        """Delete a statement; returns how many statements were removed.

        CASCADE removes the transitive closure of statements referencing it;
        RESTRICT refuses (ReferencedSidError) while any reference remains.
        """
        if sid not in self._by_sid:
            raise NotFoundError(f"no statement with sid {sid}")
        if policy is DeletePolicy.RESTRICT:
            if self._referrers.get(sid):
                raise ReferencedSidError(f"sid {sid} is still referenced")
            self._uninstall(self._by_sid[sid])
            return 1
        closure = {sid}
        queue = [sid]
        while queue:
            for r in self._referrers.get(queue.pop(), ()):
                if r not in closure:
                    closure.add(r)
                    queue.append(r)
        for s in closure:
            self._uninstall(self._by_sid[s])
        return len(closure)

    # --- query ----------------------------------------------------------

    def match(self, pattern: StatementPattern) -> list[Statement]:
        """Statements matching the pattern, in sid order."""
        if pattern.sid is not None:
            st = self._by_sid.get(pattern.sid)
            return [st] if st is not None and pattern.matches(st) else []
        if pattern.src is not None and pattern.label is not None and pattern.value is not None:
            sids = self._by_content.get((pattern.src, pattern.label, pattern.value), set())
            return [self._by_sid[s] for s in sorted(sids)]
        return [st for st in self.statements() if pattern.matches(st)]

    def sids_by_content(self, src, label, value) -> list[Sid]:
        """Sids of statements with exactly this content, sorted."""
        return sorted(self._by_content.get((src, label, value), set()))

    # --- graph membership -----------------------------------------------

    def set_graph_membership(self, sid: Sid, graph: GraphId) -> Sid:
        """Record that the statement belongs to the named graph.

        Idempotent per (sid, graph): re-asserting returns the existing
        membership statement's sid.
        """
        if not isinstance(graph, (Iri, LocalId)):
            raise PositionError("graph names must be IRIs or local identifiers")
        if sid not in self._by_sid:
            raise NotFoundError(f"no statement with sid {sid}")
        existing = self.sids_by_content(SidRef(sid), IN_GRAPH, graph)
        if existing:
            return existing[0]
        return self.insert_assertion(SidRef(sid), IN_GRAPH, graph)

    def list_graphs(self) -> list[GraphId]:
        """Distinct graph names occurring in membership statements, sorted."""
        graphs = {
            st.value
            for st in self._by_sid.values()
            if st.label == IN_GRAPH and isinstance(st.value, (Iri, LocalId))
        }
        return sorted(graphs, key=term_key)
