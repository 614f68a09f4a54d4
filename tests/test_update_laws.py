"""Every update shows in the views as its model says.

Each law is a hypothesis property over stores whose identifiers collide
across spellings, read back through the views:

- ``rdf_delete_triple`` removes exactly the triple from the RDF view (HIDE),
  and from the property-graph view exactly the edges and property sites of
  the statements behind it; the rest of that view is the view of the
  statements left.
- ``lpg_add_edge`` shows as the named edge in the property-graph view and
  as its exposed triple in HIDE.
- ``lpg_set_property`` replaces exactly the sites that show as the key, and
  refuses a string on a vertex under a key that shows as a label predicate.
"""

import oracles
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from strategies import PREFIXES, spelled_stores, spelled_terms
from test_exposure_inverse import EXPOSING, labels

from og import (
    Edge,
    Literal,
    LpgViewConfig,
    Store,
    UnsupportedValueError,
    VertexProperty,
    lpg_add_edge,
    lpg_set_property,
    lpg_view,
    rdf_delete_triple,
    rdf_view,
)
from og.views import _display, _lpg_reading, triple_key

#: Edge labels and property keys, none of them a label predicate's display.
NAMES = st.sampled_from(["knows", "a/b", "é", "since", "urn:z:a"])
VALUES = st.one_of(st.integers(-3, 3), st.sampled_from(["x", "y"]))


def config(namespace):
    return LpgViewConfig(default_namespace=namespace, prefixes=PREFIXES)


def with_twins(data, store, namespace, which=lambda st_: True):
    """The store, after up to three of its statements (of those ``which``
    picks) were inserted again, each as stored or with its terms in their
    exposed spelling, so that a triple or a property key often has several
    statements behind it."""
    statements = [st_ for st_ in store.statements() if which(st_)]
    if statements:
        for st_ in data.draw(st.lists(st.sampled_from(statements), max_size=3)):
            exposed = data.draw(st.booleans())
            store.insert_new([tuple(oracles.exposed(t, namespace) if exposed else t for t in st_.content)])
    return store


def property_sites(g):
    return sum(len(sites) for v in g.vertices.values() for sites in v.properties.values())


@settings(max_examples=150, deadline=None)
@given(data=st.data(), namespace=st.sampled_from(EXPOSING))
def test_a_delete_removes_exactly_the_triple_and_its_elements(data, namespace):
    store = with_twins(data, data.draw(spelled_stores(namespace)), namespace)
    cfg = config(namespace)
    statements = store.statements()
    hide = rdf_view(store, namespace=namespace).triples
    shown = sorted(hide, key=triple_key)
    any_triple = st.tuples(spelled_terms(namespace), labels(namespace), spelled_terms(namespace))
    s, p, o = data.draw(st.sampled_from(shown) | any_triple if shown else any_triple)
    targets = oracles.ground_matches(statements, s, p, o, namespace)
    doomed = set().union(*(oracles.cascade_closure(statements, t.sid) for t in targets))
    before = lpg_view(store, cfg)
    readings = [_lpg_reading(store, t, cfg) for t in targets]

    assert rdf_delete_triple(store, s, p, o, namespace=namespace) == len(doomed)
    exposed = tuple(oracles.exposed(t, namespace) for t in (s, p, o))
    assert rdf_view(store, namespace=namespace).triples == hide - {exposed}
    after = lpg_view(store, cfg)
    assert before.edges.keys() - after.edges.keys() == {t.sid for t, r in zip(targets, readings) if r == "edge"}
    assert after.edges == {sid: e for sid, e in before.edges.items() if sid in after.edges}
    assert property_sites(before) - property_sites(after) == readings.count("property")
    left = Store()
    left.add_statements(st_ for st_ in statements if st_.sid not in doomed)
    assert after == lpg_view(left, cfg)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), namespace=st.sampled_from(EXPOSING))
def test_an_added_edge_shows_as_the_named_edge_and_its_exposed_triple(data, namespace):
    store = with_twins(data, data.draw(spelled_stores(namespace)), namespace)
    cfg = config(namespace)
    ids = st.sampled_from(sorted(lpg_view(store, cfg).vertices) + ["new", "_:fresh"])
    source, target, label = data.draw(ids), data.draw(ids), data.draw(NAMES)
    properties = data.draw(st.dictionaries(NAMES, VALUES, max_size=2))
    hide = rdf_view(store, namespace=namespace).triples

    sid = lpg_add_edge(store, source, target, label, properties, auto_create=True, config=cfg)
    edge = lpg_view(store, cfg).edges[sid]
    assert edge == Edge(source, target, label, {k: [properties[k]] for k in sorted(properties)})
    st_ = store.get(sid)
    assert (_display(st_.src, cfg), _display(st_.value, cfg)) == (source, target)
    exposed = tuple(oracles.exposed(t, namespace) for t in st_.content)
    assert rdf_view(store, namespace=namespace).triples == hide | {exposed}


@settings(max_examples=150, deadline=None)
@given(data=st.data(), namespace=st.sampled_from(EXPOSING))
def test_setting_a_property_replaces_exactly_the_sites_of_its_key(data, namespace):
    store = data.draw(spelled_stores(namespace))
    store = with_twins(data, store, namespace, lambda st_: isinstance(st_.value, Literal))
    cfg = config(namespace)
    before = lpg_view(store, cfg)
    elements = sorted(before.vertices) + sorted(before.edges, key=lambda sid: sid.int)
    assume(elements)
    # mostly an element that shows a property
    shows = [e for e in elements if (before.vertices[e] if isinstance(e, str) else before.edges[e]).properties]
    element = data.draw(st.sampled_from(shows or elements) | st.sampled_from(elements))
    vertex = isinstance(element, str)
    shown = before.vertices[element].properties if vertex else before.edges[element].properties
    # a key that displays as a label predicate (as "label" and rdf:type do)
    predicates = {_display(t, cfg) for t in cfg.label_predicates}
    key = data.draw(st.sampled_from(sorted(shown) + ["since"]) | st.sampled_from(sorted(predicates)))
    value = data.draw(VALUES)

    if vertex and key in predicates and isinstance(value, str):
        # would show as a vertex label: refused before anything changes
        statements = store.statements()
        with pytest.raises(UnsupportedValueError):
            lpg_set_property(store, element, key, value, config=cfg)
        assert store.statements() == statements
        return
    lpg_set_property(store, element, key, value, config=cfg)
    after = lpg_view(store, cfg)
    if vertex:
        assert after.vertices[element].properties == {**shown, key: [VertexProperty(value)]}
        assert {k: v for k, v in after.vertices.items() if k != element} == {
            k: v for k, v in before.vertices.items() if k != element
        }
        assert after.edges == before.edges
    else:
        assert after.edges[element].properties == {**shown, key: [value]}
        assert {k: e for k, e in after.edges.items() if k != element} == {
            k: e for k, e in before.edges.items() if k != element
        }
        assert after.vertices == before.vertices
