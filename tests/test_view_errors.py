"""Errors the views and the LPG entry points raise on inputs they refuse,
and the one property-graph reading of a statement that they share."""

import sys

import pytest

from og import (
    IN_GRAPH,
    Literal,
    LocalId,
    LpgViewConfig,
    NamespaceError,
    NestingOverflowError,
    OgError,
    SidRef,
    Store,
    UnknownEndpointError,
    XSD_INTEGER,
    expose_local_as_iri,
    lpg_add_edge,
    lpg_set_property,
    lpg_view,
    rdf_star_view,
    rdf_view,
    serialize_ognq,
    serialize_turtle_star,
)
from og.views import _display


def quoting_chain(depth: int) -> Store:
    """One ground statement quoted ``depth`` levels deep."""
    store = Store(seed=0)
    sid = store.insert_ground(LocalId("a"), LocalId("p"), LocalId("b"))
    for i in range(depth):
        sid = store.insert_assertion(SidRef(sid), LocalId("q"), Literal(str(i), XSD_INTEGER))
    return store


class TestNestingBound:
    def test_deep_chain_raises_nesting_overflow_not_recursion_error(self):
        with pytest.raises(NestingOverflowError):
            rdf_star_view(quoting_chain(4000), max_depth=10**6)

    def test_chain_at_the_bound_renders_sorts_and_serializes(self):
        bound = sys.getrecursionlimit() // 4
        g = rdf_star_view(quoting_chain(bound), max_depth=10**6)
        assert len(g.sorted()) == bound + 1
        assert serialize_turtle_star(g).count("\n") == bound + 1
        with pytest.raises(NestingOverflowError):
            rdf_star_view(quoting_chain(bound + 1), max_depth=10**6)


class TestNamespace:
    def test_a_namespace_that_makes_no_iri_is_an_og_error(self):
        store = Store(seed=0)
        store.insert_ground(LocalId("a"), LocalId("p"), Literal("v"))
        with pytest.raises(NamespaceError) as err:
            rdf_view(store, namespace="")
        assert isinstance(err.value, OgError) and isinstance(err.value, ValueError)
        with pytest.raises(NamespaceError):
            expose_local_as_iri(LocalId("a"), "no-scheme")

    def test_a_literal_has_no_property_graph_text(self):
        with pytest.raises(TypeError, match="no property-graph rendering"):
            _display(Literal("x"), LpgViewConfig())


class TestLpgEntryPoints:
    def test_non_string_endpoint_with_auto_create_is_unknown(self):
        store = Store(seed=0)
        store.insert_ground(LocalId("B"), LocalId("label"), Literal("P"))
        before = serialize_ognq(store)
        with pytest.raises(UnknownEndpointError):
            lpg_add_edge(store, LocalId("A"), "B", "k", auto_create=True)
        assert serialize_ognq(store) == before
        assert store.fresh_sid().int == 2

    def test_set_property_keyed_like_a_membership_shows_on_the_vertex(self):
        store = Store(seed=0)
        store.insert_ground(LocalId("v"), LocalId("label"), Literal("P"))
        store.insert_ground(LocalId("v"), IN_GRAPH, Literal("x"))
        assert lpg_view(store).dropped == 1
        lpg_set_property(store, "v", IN_GRAPH.text, 5)
        g = lpg_view(store)
        assert [p.value for p in g.vertices["v"].properties[IN_GRAPH.text]] == [5]
        assert g.dropped == 1

    def test_set_property_keyed_like_a_membership_shows_on_the_edge(self):
        store = Store(seed=0)
        edge = store.insert_ground(LocalId("a"), LocalId("knows"), LocalId("b"))
        store.insert_assertion(SidRef(edge), IN_GRAPH, Literal("x"))
        lpg_set_property(store, edge, IN_GRAPH.text, 5)
        g = lpg_view(store)
        assert g.edges[edge].properties[IN_GRAPH.text] == [5]
        assert g.dropped == 1
