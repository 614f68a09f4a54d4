"""The unified in-memory statement store.

One store holds plain edges and statements about statements side by side.
Ground statements never reference other statements; assertions do, via
SidRef terms, and may only reference sids already present (so the reference
structure is acyclic by construction). Deleting a statement either cascades
over everything that references it or is refused while references remain.

New statements get their sids from :meth:`Store.insert_new`, which checks a
whole batch before it issues one, so a refused insert keeps the next sid.

Graph membership is data, ``SidRef(sid) -urn:og:inGraph-> g``, and the store
treats that label specially: the node index skips statements under it,
:meth:`Store.list_graphs` lists their graphs, and
:meth:`Store.set_graph_membership` writes one per (sid, graph). References are
installed first and outlive their referrers, so the store records at install
whether the views hide a statement (:meth:`Store.hidden`) and its depth.
"""

from __future__ import annotations

import copy
from dataclasses import replace
from enum import Enum
from operator import attrgetter
from typing import Iterable, Iterator, KeysView, Sequence

from .datatypes import Literal
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
    Term,
    _check_positions,
    term_key,
)
from .terms import SID_IRI_PREFIX, SID_RESERVED, BlankNode, Iri, LocalId, Sid, SidFactory, SidRef

#: Reserved label for graph-membership assertions.
IN_GRAPH = Iri("urn:og:inGraph")


class DeletePolicy(Enum):
    CASCADE = "cascade"
    RESTRICT = "restrict"


class Store:
    """Mutable statement store with sid, content, source, node and
    reverse-reference indexes, and a label index, of each label's statements
    in sid order, that the first :meth:`match` by label builds (a
    :meth:`copy` starts without one).

    Iteration yields each statement after the statements it references,
    which is not in general sid order; :meth:`statements` lists in sid order.

    The indexes hold each sid as its integer, so no lookup by sid calls
    ``UUID.__hash__``; the public methods take and return ``UUID`` sids.
    """

    def __init__(self, seed: int | None = None):
        self._by_sid: dict[int, Statement] = {}
        # Group indexes: each maps a key to its one member, or to a set of
        # two or more (see _add).
        self._by_content: dict[tuple, int | set[int]] = {}
        self._referrers: dict[int, int | set[int]] = {}
        # statements by source, for every source that is not a SidRef
        self._by_src: dict[Term, int | set[int]] = {}
        # each label's statements by sid integer, in sid order but for the
        # labels in _unsorted; None until the first match by label builds it,
        # with _unsorted, so a store never asked by label allocates neither
        self._by_label: dict[Term, dict[int, Statement]] | None = None
        # occurrences of each node (source, or non-literal value) of the
        # ground statements outside graph membership
        self._nodes: dict[Term, int] = {}
        # occurrences of each blank label in source or value position
        self._blanks: dict[str, int] = {}
        # each assertion's quoting depth; the sids hidden from the views
        self._depth: dict[int, int] = {}
        self._hidden: set[int] = set()
        self._sids = SidFactory(seed)

    # --- basics ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._by_sid)

    def __contains__(self, sid: Sid) -> bool:
        return _key(sid) in self._by_sid

    def __iter__(self) -> Iterator[Statement]:
        """Each statement after the statements it references; the store must
        not change while the iterator is in use."""
        return iter(self._by_sid.values())

    def statements(self) -> list[Statement]:
        """All statements in sid order."""
        return [self._by_sid[s] for s in sorted(self._by_sid)]

    def get(self, sid: Sid) -> Statement | None:
        return self._by_sid.get(_key(sid))

    def fresh_sid(self) -> Sid:
        """A sid unique for this store's lifetime (never recycled)."""
        return self._sids.fresh(taken=self._by_sid)

    def referrers(self, sid: Sid) -> set[Sid]:
        """Sids of assertions that reference the given sid directly."""
        return {st.sid for st in self.referring(sid)}

    def referring(self, sid: Sid) -> list[Statement]:
        """The assertions that reference the given sid directly, in no fixed
        order; unlike :meth:`referrers`, with no sid hashed."""
        return [self._by_sid[r] for r in _members(self._referrers, _key(sid))]

    def depth(self, sid: Sid) -> int:
        """0 for a ground statement, else one more than its deepest reference."""
        return self._depth.get(_key(sid), 0)

    def hidden(self, sid: Sid) -> bool:
        """Whether the statement is a membership or references a hidden one."""
        return _key(sid) in self._hidden

    def blank_labels(self) -> KeysView[str]:
        """Labels of the blank nodes in source or value position (a live view)."""
        return self._blanks.keys()

    def copy(self) -> "Store":
        """A content-equal store that goes on issuing sids where this one is.

        It copies the indexes rather than installing the statements again:
        the two stores share their immutable statements and terms, and each
        group of two or more members is copied, so a change to one store
        never shows in the other."""
        out = Store()
        out._by_sid = self._by_sid.copy()  # in reference order, as __iter__ promises
        for name in ("_by_content", "_by_src", "_referrers"):
            index = getattr(self, name).copy()  # keeps each key's hash: no term __hash__ runs
            for key, group in index.items():
                if type(group) is set:
                    index[key] = group.copy()
            setattr(out, name, index)
        out._nodes = self._nodes.copy()
        out._blanks = self._blanks.copy()
        out._depth = self._depth.copy()
        out._hidden = self._hidden.copy()
        out._sids = copy.copy(self._sids)
        return out

    # --- insertion ------------------------------------------------------

    def _install(self, st: Statement) -> None:
        # the hot path of every load: _add's common case (a new key) and the node counts are inlined
        sid, src, label, value = st.sid.int, st.src, st.label, st.value
        self._by_sid[sid] = st
        key = (src, label, value)
        if self._by_content.setdefault(key, sid) is not sid:
            _add(self._by_content, key, sid)
        if self._by_label is not None:
            group = self._by_label.setdefault(label, {})
            if group and sid < next(reversed(group)):
                self._unsorted.add(label)
            group[sid] = st
        blanks = self._blanks
        if type(src) is BlankNode:
            blanks[src.label] = blanks.get(src.label, 0) + 1
        if type(value) is BlankNode:
            blanks[value.label] = blanks.get(value.label, 0) + 1
        if isinstance(src, SidRef) or isinstance(value, SidRef):
            self._install_assertion(st, sid)
            return
        if self._by_src.setdefault(src, sid) is not sid:
            _add(self._by_src, src, sid)
        if _is_membership(label):
            self._hidden.add(sid)
            return
        nodes = self._nodes
        nodes[src] = nodes.get(src, 0) + 1
        if not isinstance(value, Literal):
            nodes[value] = nodes.get(value, 0) + 1

    def _install_assertion(self, st: Statement, sid: int) -> None:
        refs = [t.sid.int for t in (st.src, st.value) if isinstance(t, SidRef)]
        for r in refs:
            _add(self._referrers, r, sid)
        if not isinstance(st.src, SidRef):
            _add(self._by_src, st.src, sid)
        self._depth[sid] = 1 + max(self._depth.get(r, 0) for r in refs)
        if _is_membership(st.label) or not self._hidden.isdisjoint(refs):
            self._hidden.add(sid)

    def insert_new(self, triples: Sequence[tuple]) -> list[Sid]:
        """Insert one statement per (src, label, value) under fresh sids, in order.

        A src or value that is an int stands for the statement at that index
        of ``triples``, which must be an earlier one. The whole batch is
        checked first (positions by the rule of :class:`Statement`, no
        ``urn:og:sid:`` IRI in any position, every SidRef present, every int
        an earlier index), so on error no sid is issued and the store is
        unchanged. Equal terms of the batch are stored as one object.
        Returns the new sids.
        """
        live = self._by_sid
        for i, (src, label, value) in enumerate(triples):
            _check_positions(src, label, value, "statement")
            for t in (src, label, value):
                if _sid_iri(t):
                    raise PositionError(SID_RESERVED)
                if isinstance(t, int) and not 0 <= t < i:
                    raise DanglingSidError(f"triple {i} refers to triple {t}, not an earlier one")
                if isinstance(t, SidRef) and _key(t.sid) not in live:
                    absent = {str(r.sid) for r in (src, value) if isinstance(r, SidRef) and _key(r.sid) not in live}
                    raise DanglingSidError(f"assertion references absent sid(s): {sorted(absent)}")
        sids: list[Sid] = []
        shared: dict[Term, Term] = {}  # one object per distinct term of the batch
        for src, label, value in triples:
            src = SidRef(sids[src]) if isinstance(src, int) else shared.setdefault(src, src)
            value = SidRef(sids[value]) if isinstance(value, int) else shared.setdefault(value, value)
            st = Statement(src, shared.setdefault(label, label), value, self.fresh_sid())
            self._install(st)
            sids.append(st.sid)
        return sids

    def insert_ground(self, src, label, value) -> Sid:
        """Insert a plain edge under a fresh sid.

        Re-inserting identical content is a new statement (multi-edge), never
        a merge with an existing one.
        """
        if isinstance(src, SidRef) or isinstance(value, SidRef):
            raise PositionError("ground statements cannot reference other statements")
        return self.insert_new(((src, label, value),))[0]

    def insert_assertion(self, src, label, value) -> Sid:
        """Insert a statement about statements; src and/or value is a SidRef."""
        if not (isinstance(src, SidRef) or isinstance(value, SidRef)):
            raise PositionError("an assertion must reference at least one statement")
        return self.insert_new(((src, label, value),))[0]

    def add_statements(self, statements: Iterable[Statement]) -> None:
        """Install pre-built statements, keeping their sids.

        Accepts any order (references may arrive before their targets within
        the batch). Raises SidCollisionError when a sid is already taken,
        PositionError for an ``urn:og:sid:`` IRI in any position (a literal's
        datatype may name it) and DanglingSidError when references cannot be
        resolved (absent or cyclic). Atomic: on error the store is left
        unchanged.
        """
        live = self._by_sid
        batch: dict[int, Statement] = {}
        for st in statements:
            sid = st.sid.int
            if sid in live or sid in batch:
                raise SidCollisionError(f"sid already present: {st.sid}")
            if _sid_iri(st.src) or _sid_iri(st.label) or _sid_iri(st.value):
                raise PositionError(SID_RESERVED)
            batch[sid] = st
        # Kahn's order over the references into the batch, before touching
        # the store. A statement goes in at its own place in the batch unless
        # it waits for a later one, so a batch in reference order keeps it.
        ordered: list[Statement] = []
        placed: set[int] = set()
        waiting: dict[int, list[Statement]] = {}
        blocked: dict[int, int] = {}
        for sid, st in batch.items():
            refs = [
                r
                for t in (st.src, st.value)
                if isinstance(t, SidRef) and (r := _key(t.sid)) not in live and r not in placed
            ]
            if refs:
                blocked[sid] = len(refs)
                for r in refs:
                    waiting.setdefault(r, []).append(st)
                continue
            ordered.append(st)
            placed.add(sid)
            ready = waiting.pop(sid, None) if waiting else None
            while ready:
                later = ready.pop().sid.int
                blocked[later] -= 1
                if not blocked[later]:
                    ordered.append(batch[later])
                    placed.add(later)
                    ready.extend(waiting.pop(later, ()))
        if len(ordered) < len(batch):
            bad = sorted(str(batch[sid].sid) for sid, n in blocked.items() if n)
            raise DanglingSidError(f"unresolvable references (absent or cyclic) from: {bad}")
        for st in ordered:
            self._install(st)
        # a live sid leaves only by deletion, which reserves it: skipping the
        # loaded run now leaves the first fresh sid nothing to walk
        self._sids.skip(live)

    # --- deletion -------------------------------------------------------

    def _uninstall(self, st: Statement) -> None:
        sid, src, label, value = st.sid.int, st.src, st.label, st.value
        del self._by_sid[sid]
        self._sids.reserve(st.sid)
        self._referrers.pop(sid, None)
        self._depth.pop(sid, None)
        self._hidden.discard(sid)
        for t in (src, value):
            if type(t) is BlankNode:
                n = self._blanks.pop(t.label) - 1
                if n:
                    self._blanks[t.label] = n
        _discard(self._by_content, (src, label, value), sid)
        if self._by_label is not None:
            group = self._by_label[label]
            del group[sid]
            if not group:
                del self._by_label[label]
                self._unsorted.discard(label)
        if isinstance(value, SidRef):
            _discard(self._referrers, value.sid.int, sid)
        if isinstance(src, SidRef):
            _discard(self._referrers, src.sid.int, sid)
            return
        _discard(self._by_src, src, sid)
        if isinstance(value, SidRef) or _is_membership(label):
            return
        for node in (src,) if isinstance(value, Literal) else (src, value):
            n = self._nodes.pop(node) - 1
            if n:
                self._nodes[node] = n

    def delete_statement(self, sid: Sid, policy: DeletePolicy = DeletePolicy.CASCADE) -> int:
        """Delete a statement; returns how many statements were removed.

        CASCADE removes the transitive closure of statements referencing it;
        RESTRICT refuses (ReferencedSidError) while any reference remains.
        """
        key = _key(sid)
        if key not in self._by_sid:
            raise NotFoundError(f"no statement with sid {sid}")
        if policy is DeletePolicy.RESTRICT:
            if key in self._referrers:
                raise ReferencedSidError(f"sid {sid} is still referenced")
            self._uninstall(self._by_sid[key])
            return 1
        closure = {key}
        queue = [key]
        while queue:
            for r in _members(self._referrers, queue.pop()):
                if r not in closure:
                    closure.add(r)
                    queue.append(r)
        for s in closure:
            self._uninstall(self._by_sid[s])
        return len(closure)

    # --- query ----------------------------------------------------------

    def match(self, pattern: StatementPattern) -> list[Statement]:
        """Statements matching the pattern, in sid order.

        Looks up by sid, by full content, by source or by label; a pattern
        with only a value scans the store and sorts what matches. The first
        pattern with a label and no source builds the label index in one
        walk of the store in sid order. Inserts keep each label's statements
        in sid order, except that a sid below its label's last one marks the
        label, and the next match by that label sorts its statements once.
        A value given with the label is compared through ``_FIELDS``.
        """
        if pattern.sid is not None:
            st = self.get(pattern.sid)  # by the sid's integer: match the rest without UUID.__eq__
            return [st] if st is not None and replace(pattern, sid=None).matches(st) else []
        if pattern.src is not None and pattern.label is not None and pattern.value is not None:
            sids = _members(self._by_content, (pattern.src, pattern.label, pattern.value))
            return [self._by_sid[s] for s in sorted(sids)]
        if isinstance(pattern.src, SidRef):
            sids = _members(self._referrers, _key(pattern.src.sid))
        elif pattern.src is not None:
            sids = _members(self._by_src, pattern.src)
        elif pattern.label is not None:
            label = pattern.label
            if self._by_label is None:
                self._by_label, self._unsorted = {}, set()
                for s in sorted(self._by_sid):
                    st = self._by_sid[s]
                    self._by_label.setdefault(st.label, {})[s] = st
            elif label in self._unsorted:
                self._unsorted.remove(label)
                self._by_label[label] = dict(sorted(self._by_label[label].items()))
            found = self._by_label.get(label, {}).values()
            if pattern.value is None:
                return list(found)
            kind = type(pattern.value)
            fields = _FIELDS.get(kind, _itself)
            want = fields(pattern.value)
            return [st for st in found if type(st.value) is kind and fields(st.value) == want]
        else:
            return sorted((st for st in self if pattern.matches(st)), key=lambda st: st.sid.int)
        found = (self._by_sid[s] for s in sorted(sids))
        return [st for st in found if pattern.matches(st)]

    def sids_by_content(self, src, label, value) -> list[Sid]:
        """Sids of statements with exactly this content, sorted."""
        return [self._by_sid[s].sid for s in sorted(_members(self._by_content, (src, label, value)))]

    def is_node(self, term: Term) -> bool:
        """Whether the term is a source, or a non-literal value, of some
        ground statement outside graph membership."""
        return term in self._nodes

    # --- graph membership -----------------------------------------------

    def set_graph_membership(self, sid: Sid, graph: GraphId) -> Sid:
        """Record that the statement belongs to the named graph.

        Idempotent per (sid, graph): re-asserting returns the existing
        membership statement's sid.
        """
        if not isinstance(graph, (Iri, LocalId)):
            raise PositionError("graph names must be IRIs or local identifiers")
        if sid not in self:
            raise NotFoundError(f"no statement with sid {sid}")
        existing = self.sids_by_content(SidRef(sid), IN_GRAPH, graph)
        if existing:
            return existing[0]
        return self.insert_assertion(SidRef(sid), IN_GRAPH, graph)

    def list_graphs(self) -> list[GraphId]:
        """Distinct graph names occurring in membership statements, sorted."""
        graphs = {st.value for st in self if _is_membership(st.label) and isinstance(st.value, (Iri, LocalId))}
        return sorted(graphs, key=term_key)


#: Each term type's defining fields, read by C-level getters: two terms are
#: equal when their types are the same and these are equal, so a match
#: compares values without the dataclass ``__eq__``.
_FIELDS = {
    Iri: attrgetter("text"),
    LocalId: attrgetter("text"),
    BlankNode: attrgetter("label"),
    SidRef: attrgetter("sid.int"),
    Literal: attrgetter("lexical", "datatype.text", "language"),
}


def _itself(term):
    return term


def _key(sid) -> int | None:
    """A sid's index key, its integer; None, which no index holds, for a non-sid."""
    return sid.int if isinstance(sid, Sid) else None


def _is_membership(label: Term) -> bool:
    """``label == IN_GRAPH``, without the dataclass ``__eq__`` call."""
    return type(label) is Iri and label.text == IN_GRAPH.text


def _sid_iri(t) -> bool:
    """A plain IRI in the ``urn:og:sid:`` namespace, which the store refuses:
    a statement is named only by a SidRef."""
    return type(t) is Iri and t.text.startswith(SID_IRI_PREFIX)


# Most keys of a group index have one member, and a set of one costs 216
# bytes, so a lone member is stored bare and a set holds two or more.


def _add(index: dict, key, member) -> None:
    group = index.setdefault(key, member)
    if group is member:
        return
    if type(group) is set:
        group.add(member)
    elif group != member:
        index[key] = {group, member}


def _discard(index: dict, key, member) -> None:
    group = index.get(key)
    if type(group) is set:
        group.discard(member)
        if len(group) == 1:
            index[key] = group.pop()
    elif group is not None and group == member:
        del index[key]


def _members(index: dict, key) -> set | tuple:
    group = index.get(key)
    if group is None:
        return ()
    return group if type(group) is set else (group,)
