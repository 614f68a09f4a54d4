"""Merging two stores under configurable identifier alignment.

The merge is asymmetric: statements of ``a`` are kept verbatim, statements of
``b`` are rewritten (identifier alignment, blank-node policy) and then added,
keeping their sids. A sid present in both stores is a copy when its content
matches and an error when it does not. Afterwards an edge-identity policy may
collapse content-identical ground statements.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Union

from .errors import BadTemplateError, ParseError, SidCollisionError
from .statements import Statement, Term, blank_labels, rename_apart, term_key
from .store import Store
from .terms import BlankNode, Iri, LocalId, Sid, SidRef


class BlankNodePolicy(Enum):
    RENAME_APART = "rename_apart"
    IDENTIFY_BY_LABEL = "identify_by_label"


class EdgeIdentity(Enum):
    DISTINCT = "distinct"
    COLLAPSE_IDENTICAL_CONTENT = "collapse_identical_content"
    COLLAPSE_IDENTICAL_CONTENT_AND_PROPERTIES = "collapse_identical_content_and_properties"


@dataclass(frozen=True)
class ExplicitPair:
    """Rewrite every occurrence of one term into another."""

    old: Term
    new: Term

    def __post_init__(self):
        if isinstance(self.old, SidRef) or isinstance(self.new, SidRef):
            raise ValueError("sid references cannot be aligned")


_ONE_SLOT = re.compile(r"([^{}]*)\{([^{}]*)\}([^{}]*)")


def _single_slot(pattern: str, role: str) -> tuple[str, str, str]:
    m = _ONE_SLOT.fullmatch(pattern)
    if m is None:
        raise BadTemplateError(f"{role} pattern must contain exactly one {{slot}}: {pattern!r}")
    return m.groups()


@dataclass(frozen=True)
class Template:
    """Produce an IRI from a matching LocalId via a one-slot pattern.

    ``match`` is matched against the LocalId text (``{slot}`` captures), the
    capture is substituted into ``produce``. Example: match ``{code}``,
    produce ``http://sws.geonames.org/country/{code}``.
    """

    match: str
    produce: str
    # ``match`` compiled once, capturing the slot, with the slot's name
    _parts: tuple[re.Pattern, str] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        prefix, slot, suffix = _single_slot(self.match, "match")
        if slot != _single_slot(self.produce, "produce")[1]:
            raise BadTemplateError(f"match and produce must share the slot name: {self.match!r} vs {self.produce!r}")
        regex = re.compile(re.escape(prefix) + "(.*)" + re.escape(suffix), re.DOTALL)
        object.__setattr__(self, "_parts", (regex, slot))

    def apply(self, local: LocalId) -> Iri | None:
        regex, slot = self._parts
        m = regex.fullmatch(local.text)
        if m is None:
            return None
        produced = self.produce.replace("{" + slot + "}", m[1])
        try:
            return Iri(produced)
        except ValueError as e:
            raise BadTemplateError(f"template produced an invalid IRI: {produced!r}") from e


IdMapping = Union[ExplicitPair, Template]


@dataclass
class MergeRules:
    id_mappings: list[IdMapping] = field(default_factory=list)
    blank_node_policy: BlankNodePolicy = BlankNodePolicy.RENAME_APART
    edge_identity: EdgeIdentity = EdgeIdentity.DISTINCT


@dataclass
class MergeReport:
    statements_in_a: int = 0
    statements_in_b: int = 0
    statements_out: int = 0
    identifiers_aligned: int = 0
    blank_nodes_renamed: int = 0
    edges_collapsed: int = 0


def apply_alignment(term: Term, rules: MergeRules) -> Term:
    """Rewrite one term; the first matching rule wins, sid references never match."""
    if isinstance(term, SidRef):
        return term
    for rule in rules.id_mappings:
        if isinstance(rule, ExplicitPair):
            if term == rule.old:
                return rule.new
        elif isinstance(term, LocalId):
            produced = rule.apply(term)
            if produced is not None:
                return produced
    return term


def merge(a: Store, b: Store, rules: MergeRules | None = None) -> tuple[Store, MergeReport]:
    """Merge ``b`` into a copy of ``a`` and report what happened.

    Copy detection runs before any rewriting, so merging a store with itself
    is the identity for every rules value. Blank labels that occur in copied
    statements keep their names (renaming their other occurrences would break
    co-reference with the copy); all other labels of ``b`` are renamed apart
    under RenameApart.
    """
    rules = rules or MergeRules()
    report = MergeReport(statements_in_a=len(a), statements_in_b=len(b))
    result = a.copy()

    b_statements = list(b)
    copies = {st.sid.int for st in b_statements if result.get(st.sid) == st}  # by the sid's integer

    renamed: dict[str, BlankNode] = {}  # each renamed node built once
    if rules.blank_node_policy is BlankNodePolicy.RENAME_APART:
        preserved = blank_labels(st for st in b_statements if st.sid.int in copies)
        b_labels = b.blank_labels()
        renames = rename_apart(b_labels - preserved, a.blank_labels(), b_labels)
        renamed = {label: BlankNode(new) for label, new in renames.items()}

    aligned: set[Term] = set()

    def rewrite(t: Term) -> Term:
        r = apply_alignment(t, rules)
        if r is not t and r != t:
            aligned.add(t)
            return r
        return renamed.get(t.label, t) if type(t) is BlankNode else t

    to_add: list[Statement] = []
    for st in b_statements:
        if st.sid.int in copies:
            continue
        rewritten = Statement(rewrite(st.src), rewrite(st.label), rewrite(st.value), st.sid)
        existing = result.get(st.sid)
        if existing is not None:
            if existing == rewritten:
                continue
            raise SidCollisionError(
                f"sid {st.sid} arrived with different content than the store holds"
            )
        to_add.append(rewritten)
    result.add_statements(to_add)

    report.identifiers_aligned = len(aligned)
    report.blank_nodes_renamed = len(renamed)

    if rules.edge_identity is EdgeIdentity.COLLAPSE_IDENTICAL_CONTENT:
        report.edges_collapsed = _collapse_identical_content(result)
    elif rules.edge_identity is EdgeIdentity.COLLAPSE_IDENTICAL_CONTENT_AND_PROPERTIES:
        report.edges_collapsed = _collapse_with_properties(result)

    report.statements_out = len(result)
    return result, report


def _content_groups(store: Store) -> list[list[Sid]]:
    """Content-identical ground statements, each group in sid order, the
    groups by their least sid (collapsing one group can change another's
    annotations, so the order is part of the result): the content index's
    groups of two or more whose key has no SidRef in source or value."""
    groups = [
        store.sids_by_content(*key)
        for key, members in store._by_content.items()
        if type(members) is set and type(key[0]) is not SidRef and type(key[2]) is not SidRef
    ]
    return sorted(groups, key=lambda g: g[0].int)  # the groups are disjoint


def _collapse_identical_content(store: Store) -> int:
    """Unify content-identical ground statements onto the least sid, in
    place; returns how many were folded away. The statements that reference
    a folded sid, directly or through others, go with it (so their sids are
    reserved, as its is) and come back with its references redirected."""
    groups = _content_groups(store)
    if not groups:
        return 0
    survivor = {loser.int: SidRef(group[0]) for group in groups for loser in group[1:]}
    touched = set(survivor)  # the losers and their referrers, by sid integer
    moved: list[Statement] = []
    for st in store:  # in reference order: a referrer after what it references
        if any(type(t) is SidRef and t.sid.int in touched for t in (st.src, st.value)):
            touched.add(st.sid.int)
            moved.append(st)

    def redirect(t: Term) -> Term:
        return survivor.get(t.sid.int, t) if type(t) is SidRef else t

    for group in groups:
        for loser in group[1:]:
            store.delete_statement(loser)
    store.add_statements(Statement(redirect(st.src), st.label, redirect(st.value), st.sid) for st in moved)
    return len(survivor)


def _filled(memo: dict, st: Statement, needs, make):
    """``memo`` of the statement, by its sid's integer, computing first the
    statements it needs with an explicit stack."""
    stack = [st]
    while stack:
        top = stack[-1]
        if top.sid.int in memo:
            stack.pop()
        elif missing := [s for s in needs(top) if s.sid.int not in memo]:
            stack.extend(missing)
        else:
            memo[top.sid.int] = make(stack.pop())
    return memo[st.sid.int]


class _AnnotationSignatures:
    """Sid-abstracted canonical forms of annotation trees, interned to ints.

    Two ground statements get equal signatures exactly when their annotation
    trees are isomorphic up to sid renaming (order-insensitive at each level).
    No signature nests, and no chain depth costs interpreter frames. Content
    signatures hold while their statement lives; node signatures depend on
    the referrers, so ``nodes`` is cleared after a delete.
    """

    def __init__(self, store: Store):
        self.store = store
        self.ids: dict[tuple, int] = {}
        # by the sid's integer, as the store keys its indexes
        self.contents: dict[int, int] = {}
        self.nodes: dict[int, int] = {}

    def _id(self, form: tuple) -> int:
        return self.ids.setdefault(form, len(self.ids))

    def _term(self, t: Term) -> int:
        if isinstance(t, SidRef):
            return self._id(("ref", _filled(self.contents, self.store.get(t.sid), self._references, self._content)))
        return self._id(("t",) + term_key(t))

    def _references(self, st: Statement) -> list[Statement]:
        return [self.store.get(t.sid) for t in (st.src, st.value) if isinstance(t, SidRef)]

    def _content(self, st: Statement) -> int:
        return self._id((self._term(st.src), self._term(st.label), self._term(st.value)))

    def _referring(self, st: Statement) -> list[Statement]:
        return self.store.referring(st.sid)

    def _node(self, st: Statement) -> int:
        here, at = SidRef(st.sid), self._id(("@",))
        return self._id(tuple(sorted(
            (at if r.src == here else self._term(r.src), self._term(r.label),
             at if r.value == here else self._term(r.value), self.nodes[r.sid.int])
            for r in self._referring(st)
        )))

    def node(self, sid: Sid) -> int:
        return _filled(self.nodes, self.store.get(sid), self._referring, self._node)


def _collapse_with_properties(store: Store) -> int:
    """Unify groups only when every member carries the same annotation tree.

    Losers are removed together with their (duplicate) trees via cascade; a
    shared assertion annotating both a loser and a survivor goes with the
    loser.
    """
    collapsed = 0
    signatures = _AnnotationSignatures(store)
    for group in _content_groups(store):
        if len({signatures.node(s) for s in group}) != 1:
            continue
        for loser in group[1:]:
            store.delete_statement(loser)
            signatures.nodes.clear()
        collapsed += len(group) - 1
    return collapsed


# --- rules files ----------------------------------------------------------


def load_rules(text: str) -> MergeRules:
    """Parse a JSON rules document.

    Shape: ``{"id_mappings": [{"pair": [old, new]} | {"template": {"match":
    ..., "produce": ...}}], "blank_node_policy": ..., "edge_identity": ...}``
    with pair terms written in OG-NQ term syntax.
    """
    from .formats.ognq import parse_term_text

    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"rules file is not valid JSON: {e.msg}", line=e.lineno) from e
    except RecursionError:
        raise ParseError("rules file nests too deeply") from None
    if not isinstance(doc, dict):
        raise ParseError("rules file must hold a JSON object")
    unknown = set(doc) - {"id_mappings", "blank_node_policy", "edge_identity"}
    if unknown:
        raise ParseError(f"unknown rules keys: {sorted(unknown)}")

    mappings: list[IdMapping] = []
    for i, entry in enumerate(doc.get("id_mappings", [])):
        if not isinstance(entry, dict) or len(entry) != 1:
            raise ParseError(f"id_mappings[{i}] must be a one-key object")
        if "pair" in entry:
            pair = entry["pair"]
            if not (isinstance(pair, list) and len(pair) == 2):
                raise ParseError(f"id_mappings[{i}].pair must be a two-element array")
            old, new = (parse_term_text(p) for p in pair)
            try:
                mappings.append(ExplicitPair(old, new))
            except ValueError as e:
                raise ParseError(f"id_mappings[{i}]: {e}") from e
        elif "template" in entry:
            t = entry["template"]
            if not (isinstance(t, dict) and set(t) == {"match", "produce"}):
                raise ParseError(f"id_mappings[{i}].template needs match and produce")
            mappings.append(Template(t["match"], t["produce"]))
        else:
            raise ParseError(f"id_mappings[{i}] must hold 'pair' or 'template'")

    def enum_of(cls, key, default):
        raw = doc.get(key)
        if raw is None:
            return default
        try:
            return cls(raw)
        except ValueError:
            raise ParseError(f"{key}: unknown value {raw!r}") from None

    return MergeRules(
        id_mappings=mappings,
        blank_node_policy=enum_of(BlankNodePolicy, "blank_node_policy", BlankNodePolicy.RENAME_APART),
        edge_identity=enum_of(EdgeIdentity, "edge_identity", EdgeIdentity.DISTINCT),
    )
