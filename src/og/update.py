"""Cross-model updates with explicit ambiguity policies.

The RDF-facing entry points address statements by their view-level triple,
which one store statement or several may stand behind (multi-edges collapse
in every reduced view). Rather than guessing, each operation takes a policy:
apply to every match, or refuse when the view hides more than one. The
LPG-facing entry points choose the conventional property-graph defaults
(edges multiply, properties overwrite).

Inputs are view-level terms: local identifiers may be given either directly
or in their exposed IRI form, interchangeably. Operations that error leave
the store untouched.
"""

from __future__ import annotations

from enum import Enum
from itertools import product

from .datatypes import RDF_LANG_STRING, XSD_STRING, Literal, coerce_lpg_value
from .errors import (
    AmbiguousTargetError,
    NotFoundError,
    PositionError,
    ReferencedSidError,
    UnknownEndpointError,
    UnsupportedValueError,
)
from .statements import Statement, StatementPattern, Term, term_key
from .store import DeletePolicy, Store
from .terms import BlankNode, Iri, LocalId, Sid, SidRef, parse_sid_text, sid_key
from .views import (
    DEFAULT_LOCAL_NS,
    LpgViewConfig,
    _display,
    _expose,
    _lpg_reading,
    _reading,
    expose_local_as_iri,
    local_from_iri,
)


class AmbiguityPolicy(Enum):
    """What to do when a view-level target names several statements."""

    ALL = "all"
    ERROR_IF_MULTIPLE = "error"


class InsertSemantics(Enum):
    """Whether inserting an already-visible triple is a no-op or a new edge."""

    SET = "set"
    MULTI = "multi"


def _spellings(t: Term, namespace: str) -> list[Term]:
    """The store terms whose exposed form equals that of ``t``: the exposed
    term, then the local identifier exposing as exactly it. Updates write the last."""
    exposed = _expose(t, namespace)
    local = local_from_iri(exposed, namespace) if isinstance(exposed, Iri) else None
    return [exposed] if local is None else [exposed, local]


def _ground_matches(store: Store, s: Term, p: Term, o: Term, namespace: str) -> list[Statement]:
    """Visible ground statements whose exposed triple is (s, p, o), in sid order."""
    return _matches(store, [_spellings(t, namespace) for t in (s, p, o)])


def _matches(store: Store, spelled: list[list[Term]]) -> list[Statement]:
    sids = {sid for content in product(*spelled) for sid in store.sids_by_content(*content)}
    found = (store.get(sid) for sid in sorted(sids, key=sid_key))
    return [st for st in found if _reading(store, st) == "ground"]


def _refuse_ambiguity(matches: list[Statement], policy: AmbiguityPolicy) -> None:
    """ERROR_IF_MULTIPLE refuses a triple that addresses several statements."""
    if policy is AmbiguityPolicy.ERROR_IF_MULTIPLE and len(matches) > 1:
        raise AmbiguousTargetError(
            f"triple addresses {len(matches)} statements: {[str(m.sid) for m in matches]}"
        )


def rdf_delete_triple(
    store: Store,
    s: Term,
    p: Term,
    o: Term,
    ambiguity: AmbiguityPolicy = AmbiguityPolicy.ALL,
    delete: DeletePolicy = DeletePolicy.CASCADE,
    namespace: str = DEFAULT_LOCAL_NS,
) -> int:
    """Delete the ground statements behind a view triple; returns statements removed.

    Zero matches is a no-op. Under RESTRICT, references anywhere in the
    match set abort the whole operation before any deletion.
    """
    matches = _ground_matches(store, s, p, o, namespace)
    if not matches:
        return 0
    _refuse_ambiguity(matches, ambiguity)
    if delete is DeletePolicy.RESTRICT:
        held = [str(st.sid) for st in matches if store.referrers(st.sid)]
        if held:
            raise ReferencedSidError(f"still referenced: {held}")
    return sum(store.delete_statement(st.sid, delete) for st in matches)


def rdf_insert_triple(
    store: Store,
    s: Term,
    p: Term,
    o: Term,
    semantics: InsertSemantics = InsertSemantics.SET,
    namespace: str = DEFAULT_LOCAL_NS,
) -> Sid | None:
    """Insert a ground statement for a view triple.

    SET returns None without touching the store when the triple is already
    visible; MULTI always adds another statement. An IRI that is exactly the
    exposure of a local identifier (:func:`~og.views.local_from_iri`) is
    stored as that identifier, and every other term as given, so the view
    shows the triple as given.
    """
    spelled = [_spellings(t, namespace) for t in (s, p, o)]
    if semantics is InsertSemantics.SET and _matches(store, spelled):
        return None
    return store.insert_ground(*(terms[-1] for terms in spelled))


def star_annotate(
    store: Store,
    s: Term,
    p: Term,
    o: Term,
    key: Term,
    value: Term,
    policy: AmbiguityPolicy = AmbiguityPolicy.ALL,
    namespace: str = DEFAULT_LOCAL_NS,
) -> list[Sid]:
    """Attach (key, value) as an assertion to the statement(s) behind a triple.

    Never creates the ground statement: zero targets raise NotFoundError, so
    annotation cannot smuggle unasserted triples into the store.
    """
    if not isinstance(key, (Iri, LocalId)):
        raise PositionError("annotation keys must be IRIs or local identifiers")
    if isinstance(value, SidRef):
        raise PositionError("annotation values cannot be sid references")
    matches = _ground_matches(store, s, p, o, namespace)
    if not matches:
        raise NotFoundError("no ground statement matches the triple")
    _refuse_ambiguity(matches, policy)
    key = _spellings(key, namespace)[-1]
    value = _spellings(value, namespace)[-1]
    return store.insert_new([(SidRef(st.sid), key, value) for st in matches])


# --- property-graph entry points ------------------------------------------


def _as_literal(value) -> Literal:
    return value if isinstance(value, Literal) else coerce_lpg_value(value)


def _name(text: str, what: str) -> LocalId:
    """The local identifier an edge label or property key stands for."""
    try:
        return LocalId(text)
    except ValueError as e:
        raise UnsupportedValueError(f"bad {what}: {e}") from None


def _vertex_terms(store: Store, vertex_id: str, cfg: LpgViewConfig) -> list[Term]:
    """Store terms behind a vertex id, least term first; empty for no vertex.

    Inverts :func:`_display`: a vertex id can only come from its local
    identifier, that identifier's exposure under the default namespace (the
    one IRI there that displays as local text), its blank node, or an IRI
    under a prefix or in full.
    """
    exposed = lambda text: expose_local_as_iri(LocalId(text), cfg.default_namespace)
    spellings = [(LocalId, vertex_id), (exposed, vertex_id), (Iri, vertex_id)]
    spellings += [
        (Iri, base + vertex_id[len(label) + 1:])
        for label, base in cfg.prefixes.items()
        if vertex_id.startswith(label + ":")
    ]
    if vertex_id.startswith("_:"):
        spellings.append((BlankNode, vertex_id[2:]))
    candidates = set()
    for make, text in spellings:
        try:
            candidates.add(make(text))
        except ValueError:
            pass
    found = [t for t in candidates if store.is_node(t) and _display(t, cfg) == vertex_id]
    return sorted(found, key=term_key)


def _vertex_term_for_new(vertex_id: str) -> Term:
    try:
        if vertex_id.startswith("_:"):
            return BlankNode(vertex_id[2:])
        return LocalId(vertex_id)
    except ValueError as e:
        raise UnknownEndpointError(f"cannot create a vertex with id {vertex_id!r}: {e}") from None


def lpg_add_edge(
    store: Store,
    source: str,
    target: str,
    label: str,
    properties: dict | None = None,
    auto_create: bool = False,
    config: LpgViewConfig | None = None,
) -> Sid:
    """Add an edge between two vertex ids; always a fresh edge statement.

    Endpoints must already be vertices of the property-graph view unless
    ``auto_create`` is set, in which case missing ones come into existence
    with the edge itself (and pick up the default label in views).
    """
    cfg = config or LpgViewConfig()
    ends = []
    for vid in (source, target):
        if not isinstance(vid, str):
            raise UnknownEndpointError(f"no vertex with id {vid!r}")
        terms = _vertex_terms(store, vid, cfg)
        if terms:
            ends.append(terms[0])
        elif auto_create:
            ends.append(_vertex_term_for_new(vid))
        else:
            raise UnknownEndpointError(f"no vertex with id {vid!r}")
    label = _name(label, "edge label")
    props = [(0, _name(k, "property key"), _as_literal(v)) for k, v in (properties or {}).items()]
    return store.insert_new([(ends[0], label, ends[1]), *props])[0]


def lpg_set_property(
    store: Store,
    element: str | Sid,
    key: str,
    value,
    config: LpgViewConfig | None = None,
) -> Sid:
    """Set a single-valued property on a vertex or edge (last write wins).

    Every existing statement that shows as this property is deleted (with
    cascade, taking its meta along) before the one new statement goes in,
    under the first one's label. Vertices are addressed by vertex id, edges
    by sid or canonical sid text (:func:`~og.terms.sid_text`). The value
    and key are checked before anything is deleted. On a vertex, a key that
    displays as a label predicate (``label``, or ``rdf:type`` as the
    configuration shows it) takes no string value, which the view would
    read as a vertex label: UnsupportedValueError.
    """
    cfg = config or LpgViewConfig()
    value = _as_literal(value)
    srcs = _vertex_terms(store, element, cfg) if isinstance(element, str) else []
    if srcs and value.datatype in (XSD_STRING, RDF_LANG_STRING) and key in {
        _display(t, cfg) for t in cfg.label_predicates
    }:
        raise UnsupportedValueError(f"a string under {key!r} would read as a vertex label")
    if not srcs:
        if isinstance(element, str):
            try:
                element = parse_sid_text(element)
            except ValueError:
                raise NotFoundError(f"no vertex or edge with id {element!r}") from None
        edge = store.get(element)
        if edge is None or _lpg_reading(store, edge, cfg) != "edge":
            raise NotFoundError(f"no edge with sid {element}")
        srcs = [SidRef(element)]
    sites = (st for t in srcs for st in store.match(StatementPattern(src=t)))
    old = [
        st
        for st in sorted(sites, key=lambda st: sid_key(st.sid))
        if isinstance(st.value, Literal)
        and _lpg_reading(store, st, cfg) in ("property", "assertion")
        and _display(st.label, cfg) == key
    ]
    label = old[0].label if old else _name(key, "property key")
    for st in old:
        store.delete_statement(st.sid, DeletePolicy.CASCADE)
    return store.insert_new([(srcs[0], label, value)])[0]
