"""Every serializer renders each distinct term once per call, and writes
what rendering every occurrence anew would.

The serializers keep their rendered text in a per-call memo keyed by the
term object's ``id``. Equal terms that are distinct objects get their own
entries with the same text, so the drawn stores mix statements sharing
term objects with statements built from fresh copies of equal terms.
"""

import copy
from collections import Counter

import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from strategies import stores

import og.formats.common as common
from og import (
    XSD_INTEGER,
    Iri,
    Literal,
    LocalId,
    RdfMode,
    SidRef,
    Store,
    UnsupportedValueError,
    dataset_view,
    lpg_view,
    parse_ognq,
    rdf_star_view,
    rdf_view,
    serialize_lpg_jsonl,
    serialize_ntriples,
    serialize_ognq,
    serialize_turtle_star,
)


@st.composite
def stores_of_twin_terms(draw):
    """A store, and another holding each of its statements twice: once as
    is and once under a fresh sid with every term a distinct, equal copy.
    Views then hold equal terms that are distinct objects."""
    store = draw(stores(membership_rate=0.3))
    if not draw(st.booleans()):
        return store
    twin = Store(seed=0)
    statements = store.statements()
    twin.add_statements(statements)
    copies = [copy.copy(t) for st_ in statements for t in st_.content]
    twin.insert_new([tuple(copies[i:i + 3]) for i in range(0, len(copies), 3)])
    return twin


@settings(max_examples=150, deadline=None)
@given(stores_of_twin_terms())
def test_every_serializer_writes_what_rendering_each_occurrence_writes(store):
    assert serialize_ognq(store) == oracles.ognq_text(store.statements())
    for mode in RdfMode:
        graph = rdf_view(store, mode)
        assert serialize_ntriples(graph) == oracles.ntriples_text(graph.triples)
    ds = dataset_view(store)
    for graph in [ds.default, *(ds.named[name] for name in ds.graph_names())]:
        assert serialize_ntriples(graph) == oracles.ntriples_text(graph.triples)
    star = rdf_star_view(store)
    assert serialize_turtle_star(star) == oracles.turtle_star_text(star.triples)
    g = lpg_view(store)
    try:
        want = oracles.lpg_jsonl_text(g)
    except ValueError:
        with pytest.raises(UnsupportedValueError):
            serialize_lpg_jsonl(g)
    else:
        assert serialize_lpg_jsonl(g) == want


def recurring_store() -> Store:
    """Terms that recur as sources, labels and values, under multi-edges,
    annotations and memberships, read back from OG-NQ so that equal terms
    are one object."""
    store = Store(seed=0)
    people = [LocalId(f"p{i}") for i in range(4)] + [Iri("http://example.org/q")]
    knows, since = LocalId("knows"), Iri("http://example.org/since")
    for i, a in enumerate(people):
        store.insert_ground(a, LocalId("label"), Literal("Person"))
        for b in people:
            edge = store.insert_ground(a, knows, b)
            store.insert_ground(a, knows, b)
            store.insert_assertion(SidRef(edge), since, Literal(str(2000 + i), XSD_INTEGER))
            store.set_graph_membership(edge, LocalId(f"g{i % 2}"))
    return parse_ognq(serialize_ognq(store))


@pytest.fixture
def rendered(monkeypatch) -> Counter:
    """Count the calls of ``render_term`` by the term rendered."""
    calls = Counter()
    render_term = common.render_term

    def counting(t, **kw):
        calls[t] += 1
        return render_term(t, **kw)

    monkeypatch.setattr(common, "render_term", counting)
    return calls


@pytest.mark.parametrize("serialize", [
    serialize_ognq,
    lambda s: serialize_ntriples(rdf_view(s)),
    lambda s: serialize_ntriples(rdf_view(s, RdfMode.REIFY)),
    lambda s: serialize_ntriples(next(iter(dataset_view(s).named.values()))),
], ids=["ognq", "hide", "reify", "dataset"])
def test_each_distinct_term_is_rendered_once_per_call(rendered, serialize):
    store = recurring_store()
    for _ in range(2):
        rendered.clear()
        serialize(store)
        assert rendered and max(rendered.values()) == 1
    # a sid reference, like the statement's own sid, is written without render_term
    assert not any(isinstance(t, SidRef) for t in rendered)


def test_a_term_that_fails_to_render_fails_each_time():
    render = common.term_renderer(ognq=True)
    reserved = Iri("urn:og:sid:00000000-0000-0000-0000-00000000beef")
    for _ in range(2):
        with pytest.raises(ValueError, match="reserved"):
            render(reserved)
