"""One rule between a local identifier and its IRI.

``expose_local_as_iri`` is injective, and ``local_from_iri`` is its exact
inverse: it names a local identifier only for the one IRI that identifier
exposes as. Every view and update reads IRIs by that rule, so a node named
through one view is the same node in every other view and under every
update.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from strategies import NAMESPACES, plain_literals, spelled_stores, spelled_terms

from og import (
    Iri,
    LocalId,
    NamespaceError,
    NotFoundError,
    QuotedTriple,
    Store,
    expose_local_as_iri,
    lpg_add_edge,
    lpg_set_property,
    lpg_view,
    rdf_delete_triple,
    rdf_insert_triple,
    rdf_star_view,
    rdf_view,
    star_annotate,
)
from og.views import _expose, local_from_iri


def _exposes(namespace: str) -> bool:
    try:
        expose_local_as_iri(LocalId("a"), namespace)
    except NamespaceError:
        return False
    return True


#: The namespaces under which local identifiers have an IRI form.
EXPOSING = [ns for ns in NAMESPACES if _exposes(ns)]
NS = "urn:og:local:"


@settings(max_examples=300, deadline=None)
@given(data=st.data(), namespace=st.sampled_from(EXPOSING))
def test_local_from_iri_is_the_exact_inverse_of_exposure(data, namespace):
    term = data.draw(spelled_terms(namespace))
    if isinstance(term, Iri):
        local = local_from_iri(term, namespace)
        assert local is None or expose_local_as_iri(local, namespace) == term
    if isinstance(term, LocalId):
        assert local_from_iri(expose_local_as_iri(term, namespace), namespace) == term


labels = lambda namespace: spelled_terms(namespace).filter(lambda t: isinstance(t, (Iri, LocalId)))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), namespace=st.sampled_from(EXPOSING))
def test_a_set_insert_shows_as_given_and_deletes_as_given(data, namespace):
    store = data.draw(spelled_stores(namespace))
    s = data.draw(spelled_terms(namespace))
    p = data.draw(labels(namespace))
    o = data.draw(st.one_of(spelled_terms(namespace), plain_literals))
    shown = tuple(_expose(t, namespace) for t in (s, p, o))

    rdf_insert_triple(store, s, p, o, namespace=namespace)
    assert shown in rdf_view(store, namespace=namespace).triples

    size, next_sid = len(store), store.copy().fresh_sid()
    assert rdf_insert_triple(store, s, p, o, namespace=namespace) is None
    assert (len(store), store.copy().fresh_sid()) == (size, next_sid)

    assert rdf_delete_triple(store, s, p, o, namespace=namespace) >= 1
    assert shown not in rdf_view(store, namespace=namespace).triples


@settings(max_examples=150, deadline=None)
@given(data=st.data(), namespace=st.sampled_from(EXPOSING))
def test_an_annotation_of_an_inserted_triple_shows_as_one_quoting_triple(data, namespace):
    store = data.draw(spelled_stores(namespace))
    s = data.draw(spelled_terms(namespace))
    p = data.draw(labels(namespace))
    o = data.draw(st.one_of(spelled_terms(namespace), plain_literals))
    # no spelling names urn:og:inGraph, so the annotation is no membership
    key = data.draw(labels(namespace))
    value = data.draw(st.one_of(spelled_terms(namespace), plain_literals))
    shown = tuple(_expose(t, namespace) for t in (s, p, o))
    added = (QuotedTriple(*shown), _expose(key, namespace), _expose(value, namespace))

    rdf_insert_triple(store, s, p, o, namespace=namespace)
    before = rdf_star_view(store, namespace=namespace).triples
    assume(added not in before)
    star_annotate(store, s, p, o, key, value, namespace=namespace)
    assert rdf_star_view(store, namespace=namespace).triples == before | {added}


@pytest.mark.parametrize("rest", ["a/b", "a%2fb", "%41", ""])
def test_an_iri_that_is_no_exposure_names_no_local_identifier(rest):
    assert local_from_iri(Iri(NS + rest)) is None


def test_the_exposure_names_its_local_identifier():
    assert local_from_iri(Iri(NS + "a%2Fb")) == LocalId("a/b")


@pytest.mark.parametrize("rest", ["a/b", "a%2fb"])
def test_an_iri_that_is_no_exposure_is_stored_and_found_as_given(rest):
    store = Store(seed=0)
    triple = (Iri(NS + rest), Iri(NS + "knows"), Iri(NS + "B"))
    first = rdf_insert_triple(store, *triple)
    assert store.get(first).content == (Iri(NS + rest), LocalId("knows"), LocalId("B"))
    assert rdf_insert_triple(store, *triple) is None
    assert len(store) == 1
    assert rdf_view(store).triples == {triple}
    assert rdf_delete_triple(store, *triple) == 1
    assert len(store) == 0


def test_an_exposure_and_a_local_identifier_stay_one_node():
    store = Store(seed=0)
    rdf_insert_triple(store, LocalId("a/b"), LocalId("knows"), LocalId("B"))
    assert rdf_insert_triple(store, Iri(NS + "a%2Fb"), Iri(NS + "knows"), Iri(NS + "B")) is None
    assert rdf_delete_triple(store, Iri(NS + "a%2Fb"), LocalId("knows"), Iri(NS + "B")) == 1


def test_an_iri_that_is_no_exposure_is_its_own_vertex():
    store = Store(seed=0)
    store.insert_ground(LocalId("a/b"), LocalId("knows"), LocalId("B"))
    store.insert_ground(Iri(NS + "a/b"), LocalId("knows"), LocalId("B"))
    store.insert_ground(Iri(NS + "a%2Fb"), LocalId("knows"), LocalId("C"))
    subjects = {t[0] for t in rdf_view(store).triples}
    assert subjects == {Iri(NS + "a%2Fb"), Iri(NS + "a/b")}
    g = lpg_view(store)
    assert set(g.vertices) == {"a/b", NS + "a/b", "B", "C"}
    assert sorted(e.target for e in g.edges.values() if e.source == "a/b") == ["B", "C"]
    # an edge from either vertex attaches to that vertex's own node
    sid = lpg_add_edge(store, NS + "a/b", "C", "likes")
    assert store.get(sid).src == Iri(NS + "a/b")
    # vertex "a/b" is the local identifier and its exposure; the least term wins
    sid = lpg_add_edge(store, "a/b", "C", "likes")
    assert store.get(sid).src == Iri(NS + "a%2Fb")


def test_an_edge_is_addressed_by_its_sid_or_its_canonical_text_only():
    store = Store(seed=0xABC)  # a sid with hex letters, so upper case differs
    edge = store.insert_ground(LocalId("A"), LocalId("knows"), LocalId("B"))
    lpg_set_property(store, edge, "since", 2020)
    lpg_set_property(store, str(edge), "since", 2021)
    for spelling in ("{%s}" % edge, "urn:uuid:%s" % edge, edge.hex, str(edge).upper()):
        with pytest.raises(NotFoundError):
            lpg_set_property(store, spelling, "since", 2022)
    assert lpg_view(store).edges[edge].properties == {"since": [2021]}
