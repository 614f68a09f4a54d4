"""Projections of one store into plain RDF, RDF-star, property graphs, and datasets.

Each view is a pure function of the store; none of them mutates it, and two
calls over the same store yield equal results. What a view cannot express it
either omits honestly (RDF hides statement identity, the LPG view tallies a
``dropped`` count) or encodes (reification, quoted triples).

Within one view call each distinct local identifier is exposed, and each IRI
displayed, once; the names live only as long as that call.

Graph-membership statements (label ``urn:og:inGraph``) are carrier data for
:func:`dataset_view` and are invisible as triples in every view, along with
any assertion whose reference closure touches one. The store records that
rule and the quoting depth at install (:meth:`Store.hidden`,
:meth:`Store.depth`), so no view works them out again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Iterator
from urllib.parse import quote, unquote

from .datatypes import RDF_LANG_STRING, XSD_STRING, CoercionTally, Literal, coerce_to_lpg
from .errors import NamespaceError, NestingOverflowError
from .statements import Statement, Term, is_ground, term_key
from .store import Store, _is_membership
from .terms import BlankNode, Iri, LocalId, Sid, SidRef, sid_iri

#: Namespace under which local identifiers are exposed to the RDF side.
DEFAULT_LOCAL_NS = "urn:og:local:"

#: Label given to vertices that carry no label statement.
DEFAULT_VERTEX_LABEL = "Vertex"

RDF_NS = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
RDF_TYPE = Iri(RDF_NS + "type")
RDF_STATEMENT = Iri(RDF_NS + "Statement")
RDF_SUBJECT = Iri(RDF_NS + "subject")
RDF_PREDICATE = Iri(RDF_NS + "predicate")
RDF_OBJECT = Iri(RDF_NS + "object")


# --- identifier exposure ------------------------------------------------


def expose_local_as_iri(local: LocalId, namespace: str = DEFAULT_LOCAL_NS) -> Iri:
    """Render a local identifier as an IRI (percent-encoded, injective).

    Raises NamespaceError when ``namespace`` does not make an absolute IRI.
    """
    try:
        return Iri(namespace + quote(local.text, safe=""))
    except ValueError:
        raise NamespaceError(f"namespace {namespace!r} makes no absolute IRI of {local.text!r}") from None


def local_from_iri(iri: Iri, namespace: str = DEFAULT_LOCAL_NS) -> LocalId | None:
    """Exact inverse of :func:`expose_local_as_iri`: the local identifier exposing as exactly ``iri``, else None."""
    if not iri.text.startswith(namespace):
        return None
    rest = iri.text[len(namespace):]
    text = unquote(rest)
    try:
        return LocalId(text) if quote(text, safe="") == rest else None
    except ValueError:
        return None


def shorten_iri(iri: Iri, prefixes: dict[str, str]) -> str:
    """Prefixed form under the longest matching prefix, else the full text."""
    matches = [label for label, base in prefixes.items() if iri.text.startswith(base)]
    if not matches:
        return iri.text
    # longest base wins; the least label breaks ties deterministically
    label = min(matches, key=lambda label: (-len(prefixes[label]), label))
    return f"{label}:{iri.text[len(prefixes[label]):]}"


def _expose(term: Term, namespace: str) -> Term:
    if isinstance(term, LocalId):
        return expose_local_as_iri(term, namespace)
    return term


def _once_per_call(name: Callable[[Term], Any], kind: type) -> Callable[[Term], Any]:
    """``name`` for the length of one view call: worked out once per distinct
    term of type ``kind`` (keyed by its text), called anew on any other term.
    The RDF views pass only local identifiers, and every other term through."""
    named: dict[str, Any] = {}

    def once(term: Term) -> Any:
        if type(term) is not kind:
            return name(term)
        if term.text not in named:
            named[term.text] = name(term)
        return named[term.text]

    return once


# --- shared statement analysis -------------------------------------------


def _analyze(store: Store) -> tuple[set[Sid], dict[Sid, int]]:
    """The visible sids and every statement's depth, as the store recorded them."""
    depth = {st.sid: store.depth(st.sid) for st in store}
    return {s for s in depth if not store.hidden(s)}, depth


def _reading(store: Store, st: Statement) -> str:
    """How the views read a statement: ``"ground"`` or ``"assertion"`` when
    they show it, else ``"membership"`` (graph data, which only
    :func:`dataset_view` reads) or ``"hidden"`` (an assertion whose
    references reach a membership). Every membership is hidden."""
    if store.hidden(st.sid):
        return "membership" if _is_membership(st.label) else "hidden"
    return "ground" if is_ground(st) else "assertion"


# --- plain RDF -----------------------------------------------------------


class RdfMode(Enum):
    HIDE = "hide"
    REIFY = "reify"


@dataclass(frozen=True)
class RdfGraph:
    """A set of plain RDF triples."""

    triples: frozenset[tuple]

    def __len__(self) -> int:
        return len(self.triples)

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.sorted())

    def sorted(self) -> list[tuple]:
        return sorted(self.triples, key=triple_key)


def rdf_view(store: Store, mode: RdfMode = RdfMode.HIDE, namespace: str = DEFAULT_LOCAL_NS) -> RdfGraph:
    """Project the store to plain RDF.

    HIDE keeps only ground statements as content-deduplicated triples:
    statement identity, multi-edges, and assertions all vanish. REIFY adds,
    for every ground statement some visible assertion references, the four
    classic reification triples under the statement's sid IRI, plus one
    triple per assertion with sid references rendered as sid IRIs.
    """
    triples: set[tuple] = set()
    iris: dict[int, Iri] = {}  # by sid integer
    expose = _once_per_call(lambda t: _expose(t, namespace), LocalId)

    def part(t: Term) -> Term:
        # a sid reference renders as its sid IRI; a ground target gets its
        # reification triples the first time
        if not isinstance(t, SidRef):
            return expose(t) if type(t) is LocalId else t
        iri = iris.get(t.sid.int)
        if iri is not None:
            return iri
        iri = iris[t.sid.int] = sid_iri(t.sid)
        target = store.get(t.sid)
        if is_ground(target):
            s, p, o = (expose(t) if type(t) is LocalId else t for t in target.content)
            triples.add((iri, RDF_TYPE, RDF_STATEMENT))
            triples.add((iri, RDF_SUBJECT, s))
            triples.add((iri, RDF_PREDICATE, p))
            triples.add((iri, RDF_OBJECT, o))
        return iri

    for st in store:
        reading = _reading(store, st)
        s, p, o = st.src, st.label, st.value
        if reading == "ground":
            triples.add((expose(s) if type(s) is LocalId else s, expose(p) if type(p) is LocalId else p,
                         expose(o) if type(o) is LocalId else o))
        elif reading == "assertion" and mode is RdfMode.REIFY:
            triples.add((part(s), expose(p) if type(p) is LocalId else p, part(o)))
    return RdfGraph(frozenset(triples))


# --- RDF-star ------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class QuotedTriple:
    """A triple used as a term, RDF-star style.

    Its flat sort key (:func:`triple_key`) and its hash are taken once, at
    construction, from its parts' own, so neither hashing, comparing nor
    sorting a nest goes below its first level, however deep it is. Two
    quoted triples are equal when their keys are. ``repr`` and pickling
    still recurse once per level.
    """

    s: Any = field(compare=False)
    p: Any = field(compare=False)
    o: Any = field(compare=False)
    _key: tuple = field(init=False, repr=False)
    _hash: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_key", (5, *_part_key(self.s), *_part_key(self.p), *_part_key(self.o)))
        object.__setattr__(self, "_hash", hash((self.s, self.p, self.o)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # rebuild through the constructor: a string's hash differs between processes
        return QuotedTriple, (self.s, self.p, self.o)


@dataclass(frozen=True)
class RdfStarGraph(RdfGraph):
    """A set of asserted triples whose subjects/objects may quote triples."""


def _part_key(t) -> tuple:
    """Flat key of one part: a quoted triple's own, else its term key."""
    return t._key if type(t) is QuotedTriple else term_key(t)


def triple_key(triple: tuple) -> tuple:
    """Deterministic sort key for (possibly quoted) triples.

    The key is one flat tuple: the term keys of the three parts in a row,
    with a quoted triple spelled ``5`` followed by the keys of its own
    parts. A term key's length is fixed by its leading tag, so no key is a
    prefix of another, and the order is the one of the nested tuples
    ``(key(s), key(p), key(o))``.
    """
    return (*_part_key(triple[0]), *_part_key(triple[1]), *_part_key(triple[2]))


def rdf_star_view(store: Store, namespace: str = DEFAULT_LOCAL_NS, max_depth: int = 32) -> RdfStarGraph:
    """Project the store to RDF-star.

    Ground statements collapse by content into asserted triples; assertions
    become triples whose sid references are replaced by the quoted triple of
    the referenced statement's content. The dimensional reduction is real:
    multi-edges become one triple and their annotations pool together.
    Equal quoted triples are one object, built once with its key and hash.
    Raises NestingOverflowError when quoting nests deeper than ``max_depth``.
    """
    rendered: dict[int, tuple] = {}  # by sid integer
    quoted: dict[tuple, QuotedTriple] = {}
    expose = _once_per_call(lambda t: _expose(t, namespace), LocalId)

    def part(t: Term):
        if not isinstance(t, SidRef):
            return expose(t) if type(t) is LocalId else t
        triple = rendered[t.sid.int]
        if triple not in quoted:
            quoted[triple] = QuotedTriple(*triple)
        return quoted[triple]

    for st in store:
        if store.hidden(st.sid):
            continue
        if store.depth(st.sid) > max_depth:
            raise NestingOverflowError(f"quoted-triple nesting exceeds {max_depth} (e.g. statement {st.sid})")
        label = st.label
        rendered[st.sid.int] = (part(st.src), expose(label) if type(label) is LocalId else label, part(st.value))
    return RdfStarGraph(frozenset(rendered.values()))


# --- labeled property graph ----------------------------------------------


@dataclass
class VertexProperty:
    """One property value with its meta-properties (annotations on the value)."""

    value: Any
    meta: dict[str, list[Any]] = field(default_factory=dict)


@dataclass
class Vertex:
    labels: list[str] = field(default_factory=list)
    properties: dict[str, list[VertexProperty]] = field(default_factory=dict)


@dataclass
class Edge:
    source: str
    target: str
    label: str
    properties: dict[str, list[Any]] = field(default_factory=dict)


@dataclass
class LpgGraph:
    """A property graph plus an honest tally of what would not fit.

    ``dropped`` counts statements the mapping cannot express (membership
    statements, assertions over assertions, node-valued annotations, and
    meta-properties when those are disabled). ``coercion`` counts lossy
    literal conversions such as dropped language tags.
    """

    vertices: dict[str, Vertex] = field(default_factory=dict)
    edges: dict[Sid, Edge] = field(default_factory=dict)
    dropped: int = 0
    coercion: CoercionTally = field(default_factory=CoercionTally)


@dataclass
class LpgViewConfig:
    """Tunables for the property-graph projection.

    ``label_predicates`` names the labels whose ground statements read as
    vertex labels rather than edges or properties. ``default_namespace``
    is the RDF exposure namespace read back: the exposure of a local
    identifier under it displays as that identifier's text, and any other
    IRI as :func:`shorten_iri` gives it.
    """

    label_predicates: frozenset = frozenset((RDF_TYPE, LocalId("label")))
    expose_meta_properties: bool = True
    default_namespace: str = DEFAULT_LOCAL_NS
    prefixes: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        self.label_predicates = frozenset(self.label_predicates)
        if not self.label_predicates:
            raise ValueError("label_predicates must not be empty")


def _display(term: Term, cfg: LpgViewConfig) -> str:
    """Vertex id / label / key text for a node or label term."""
    if isinstance(term, LocalId):
        return term.text
    if isinstance(term, BlankNode):
        return "_:" + term.label
    if isinstance(term, Iri):
        local = local_from_iri(term, cfg.default_namespace)
        return shorten_iri(term, cfg.prefixes) if local is None else local.text
    raise TypeError(f"no property-graph rendering for {term!r}")


def _lpg_reading(store: Store, st: Statement, cfg: LpgViewConfig) -> str:
    """How the property-graph view reads a statement: :func:`_reading`'s
    answer, with ``"ground"`` split into ``"label"``, ``"property"`` or
    ``"edge"``. The view drops a ``"membership"`` or ``"hidden"`` one."""
    reading = _reading(store, st)
    if reading != "ground":
        return reading
    if isinstance(st.value, Literal):
        text = st.value.datatype in (XSD_STRING, RDF_LANG_STRING)
        return "label" if text and st.label in cfg.label_predicates else "property"
    return "label" if st.label in cfg.label_predicates else "edge"


def lpg_view(store: Store, config: LpgViewConfig | None = None) -> LpgGraph:
    """Project the store to a labeled property graph.

    Nodes in ground statements become vertices; ground statements with node
    values become edges keyed by sid, with literal values vertex properties,
    and under a label predicate vertex labels. Literal-valued assertions
    over edge sids become edge properties, over vertex-property sids
    meta-properties. Everything else is counted in ``dropped``.
    """
    cfg = config or LpgViewConfig()
    g = LpgGraph()
    site_of: dict[int, Edge | VertexProperty] = {}  # edges and property sites, by sid integer
    display = _once_per_call(lambda t: _display(t, cfg), Iri)

    def vertex(term: Term) -> Vertex:
        vid = display(term)
        if vid not in g.vertices:
            g.vertices[vid] = Vertex()
        return g.vertices[vid]

    assertions: list[Statement] = []
    for st in store.statements():
        reading = _lpg_reading(store, st, cfg)
        if reading in ("membership", "hidden"):
            g.dropped += 1
            continue
        if reading == "assertion":
            assertions.append(st)
            continue
        v = vertex(st.src)
        if reading == "label":
            if isinstance(st.value, Literal):
                label = coerce_to_lpg(st.value, g.coercion)
            else:
                label = display(st.value)
                vertex(st.value)
            if label not in v.labels:
                v.labels.append(label)
        elif reading == "property":
            site = VertexProperty(coerce_to_lpg(st.value, g.coercion))
            v.properties.setdefault(display(st.label), []).append(site)
            site_of[st.sid.int] = site
        else:
            vertex(st.value)
            edge = Edge(display(st.src), display(st.value), display(st.label))
            g.edges[st.sid] = site_of[st.sid.int] = edge

    for st in assertions:
        if isinstance(st.src, SidRef) and isinstance(st.value, Literal):
            site = site_of.get(st.src.sid.int)
            if isinstance(site, Edge):
                site.properties.setdefault(display(st.label), []).append(
                    coerce_to_lpg(st.value, g.coercion)
                )
                continue
            if site is not None:
                if cfg.expose_meta_properties:
                    site.meta.setdefault(display(st.label), []).append(
                        coerce_to_lpg(st.value, g.coercion)
                    )
                else:
                    g.dropped += 1
                continue
        g.dropped += 1

    for v in g.vertices.values():
        if not v.labels:
            v.labels.append(DEFAULT_VERTEX_LABEL)
        v.properties = {k: v.properties[k] for k in sorted(v.properties)}
        for values in v.properties.values():
            for site in values:
                site.meta = {k: site.meta[k] for k in sorted(site.meta)}
    for e in g.edges.values():
        e.properties = {k: e.properties[k] for k in sorted(e.properties)}
    g.vertices = {k: g.vertices[k] for k in sorted(g.vertices)}
    return g


# --- datasets ------------------------------------------------------------


@dataclass(frozen=True)
class Dataset:
    """A default graph plus named graphs recovered from membership data."""

    default: RdfGraph
    named: dict[Term, RdfGraph]

    def graph_names(self) -> list[Term]:
        return sorted(self.named, key=term_key)


def dataset_view(store: Store, namespace: str = DEFAULT_LOCAL_NS) -> Dataset:
    """Split the HIDE-mode triples into named graphs by membership.

    A ground statement's triple lands in every graph it has a membership
    assertion for, and in the default graph when it has none. One walk reads
    both, as each membership follows its statement in reference order.
    Memberships appear in no graph, and memberships of memberships place nothing.
    """
    kept: dict[int, tuple] = {}  # each shown ground statement's triple, by sid integer
    placed: set[int] = set()
    named: dict[Term, set[tuple]] = {}
    expose = _once_per_call(lambda t: _expose(t, namespace), LocalId)
    for st in store:
        reading = _reading(store, st)
        s, p, o = st.src, st.label, st.value
        if reading == "ground":
            kept[st.sid.int] = (expose(s) if type(s) is LocalId else s, expose(p) if type(p) is LocalId else p,
                                expose(o) if type(o) is LocalId else o)
        elif (reading == "membership" and isinstance(s, SidRef) and s.sid.int in kept
              and isinstance(o, (Iri, LocalId))):
            named.setdefault(expose(o) if type(o) is LocalId else o, set()).add(kept[s.sid.int])
            placed.add(s.sid.int)
    return Dataset(
        default=RdfGraph(frozenset(t for sid, t in kept.items() if sid not in placed)),
        named={k: RdfGraph(frozenset(v)) for k, v in sorted(named.items(), key=lambda kv: term_key(kv[0]))},
    )
