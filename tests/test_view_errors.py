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
    parse_turtle_star,
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
    def test_max_depth_alone_bounds_the_view(self):
        assert len(rdf_star_view(quoting_chain(300), max_depth=300)) == 301
        with pytest.raises(NestingOverflowError, match="nesting exceeds 300"):
            rdf_star_view(quoting_chain(301), max_depth=300)

    def test_a_chain_deeper_than_the_recursion_limit_views_sorts_and_serializes(self):
        depth = sys.getrecursionlimit() + 50
        store = quoting_chain(depth)
        g = rdf_star_view(store, max_depth=depth)
        assert len(g.sorted()) == depth + 1
        assert serialize_turtle_star(g).count("\n") == depth + 1
        assert rdf_star_view(store, max_depth=depth) == g

    def test_a_chain_above_the_old_cap_round_trips_through_turtle_star(self):
        g = rdf_star_view(quoting_chain(300), max_depth=300)
        assert rdf_star_view(parse_turtle_star(serialize_turtle_star(g)), max_depth=300) == g


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
