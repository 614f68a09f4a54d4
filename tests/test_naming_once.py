"""Each view names a term once per call, and no name outlives the call.

Within one call a view exposes each distinct local identifier once, and the
property-graph view displays each distinct IRI once. The names are kept by
the call alone: the namespace and the configuration are its arguments, so a
second call under others must name everything afresh.
"""

import random
from collections import Counter

import pytest

import og.views as views
import oracles
import randgen
from og import (
    XSD_INTEGER,
    Iri,
    Literal,
    LocalId,
    LpgViewConfig,
    NamespaceError,
    RdfMode,
    SidRef,
    Store,
    dataset_view,
    lpg_view,
    rdf_star_view,
    rdf_view,
)

NS = "urn:og:local:"
OTHER_NS = "http://example.org/id/"


def recurring_store() -> Store:
    """Local identifiers and IRIs that recur as sources, labels, values and
    graph names, under annotations, memberships and multi-edges."""
    store = Store(seed=0)
    people = [LocalId(f"p{i}") for i in range(4)] + [Iri(NS + "p9"), Iri("http://example.org/q")]
    knows, since, name = LocalId("knows"), LocalId("since"), Iri("http://example.org/name")
    for i, a in enumerate(people):
        store.insert_ground(a, name, Literal(f"person {i}"))
        store.insert_ground(a, LocalId("label"), Literal("Person"))
        for j, b in enumerate(people):
            if a == b:
                continue
            edge = store.insert_ground(a, knows, b)
            store.insert_assertion(SidRef(edge), since, Literal(str(2000 + i + j), XSD_INTEGER))
            store.insert_assertion(a, LocalId("said"), SidRef(edge))
            store.set_graph_membership(edge, LocalId(f"g{(i + j) % 2}"))
            store.set_graph_membership(edge, Iri(NS + "g2"))
        store.insert_ground(a, knows, people[0])  # a multi-edge, or a loop
    return store


def counted(monkeypatch, name: str) -> Counter:
    """Count the calls of ``og.views.<name>`` by their first argument."""
    calls = Counter()
    fn = getattr(views, name)

    def wrapper(term, *args):
        calls[term] += 1
        return fn(term, *args)

    monkeypatch.setattr(views, name, wrapper)
    return calls


RDF_VIEWS = {
    "hide": lambda store, ns: rdf_view(store, RdfMode.HIDE, ns),
    "reify": lambda store, ns: rdf_view(store, RdfMode.REIFY, ns),
    "rdf-star": lambda store, ns: rdf_star_view(store, ns),
    "dataset": lambda store, ns: dataset_view(store, ns),
}


@pytest.mark.parametrize("view", RDF_VIEWS, ids=str)
def test_an_rdf_view_exposes_each_local_identifier_once_per_call(monkeypatch, view):
    store = recurring_store()
    occurrences = sum(isinstance(t, LocalId) for st in store for t in st.content)
    calls = counted(monkeypatch, "expose_local_as_iri")
    for ns in (NS, OTHER_NS, NS):
        calls.clear()
        RDF_VIEWS[view](store, ns)
        assert calls and max(calls.values()) == 1
        assert sum(calls.values()) < occurrences
        assert LocalId("knows") in calls


def test_the_property_graph_view_displays_each_iri_once_per_call(monkeypatch):
    store = recurring_store()
    calls = counted(monkeypatch, "_display")
    for cfg in (LpgViewConfig(), LpgViewConfig(default_namespace=OTHER_NS, prefixes={"ex": "http://example.org/"})):
        calls.clear()
        lpg_view(store, cfg)
        iris = {t: n for t, n in calls.items() if isinstance(t, Iri)}
        assert iris and max(iris.values()) == 1
        assert Iri("http://example.org/name") in iris


def test_no_name_outlives_its_call():
    rng = random.Random(11)
    stores = [recurring_store()] + [randgen.random_store(rng, 40, membership_rate=0.3) for _ in range(40)]
    for store in stores:
        statements = store.statements()
        for ns in (NS, OTHER_NS, NS):
            assert rdf_view(store, namespace=ns).triples == oracles.hide_triples(statements, ns)
            ds = dataset_view(store, ns)
            default, named = oracles.dataset_placement(statements, ns)
            assert ds.default.triples == default
            assert {g: gr.triples for g, gr in ds.named.items()} == named
        # compared as text, since a NaN property value is unequal to itself
        plain, other = LpgViewConfig(), LpgViewConfig(default_namespace=OTHER_NS)
        first = repr(lpg_view(store, plain))
        lpg_view(store, other)
        assert repr(lpg_view(store, plain)) == first
    # the exposure of p9 under the default namespace names p9 there only
    store = stores[0]
    assert "p9" in lpg_view(store, plain).vertices
    assert NS + "p9" in lpg_view(store, other).vertices
    assert "p9" in lpg_view(store, plain).vertices


def test_a_namespace_error_still_comes_from_the_first_exposure():
    store = Store(seed=0)
    store.insert_ground(LocalId("a"), LocalId("p"), LocalId("a"))
    for view in RDF_VIEWS.values():
        with pytest.raises(NamespaceError):
            view(store, "")


@pytest.mark.parametrize("view", RDF_VIEWS, ids=str)
def test_an_rdf_view_passes_every_other_term_by(monkeypatch, view):
    # _expose runs once per distinct local identifier, and on nothing else
    store = recurring_store()
    local_ids = {t for st in store for t in st.content if isinstance(t, LocalId)}
    calls = counted(monkeypatch, "_expose")
    for ns in (NS, OTHER_NS):
        calls.clear()
        RDF_VIEWS[view](store, ns)
        assert LocalId("knows") in calls and set(calls) <= local_ids
        assert sum(calls.values()) == len(calls)
