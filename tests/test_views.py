"""Projections of one store into RDF, RDF-star, LPG, and dataset shapes."""

import pytest
from hypothesis import given, settings

from og import (
    IN_GRAPH,
    BlankNode,
    Iri,
    Literal,
    LocalId,
    LpgViewConfig,
    NestingOverflowError,
    QuotedTriple,
    RdfMode,
    SidRef,
    Store,
    XSD_INTEGER,
    dataset_view,
    lpg_view,
    rdf_star_view,
    rdf_view,
    sid_iri,
)
from og.views import RDF_TYPE
from oracles import dataset_placement, hide_triples, reify_triples
from strategies import stores

NS = "urn:og:local:"


def iri(name):
    return Iri(NS + name)


class TestRdfHide:
    def test_toy_store_is_exactly_three_triples(self, toy_store):
        g = rdf_view(toy_store)
        assert g.triples == frozenset(
            {
                (iri("Alice"), iri("knows"), iri("Bob")),
                (iri("Alice"), iri("name"), Literal("Alice")),
                (iri("Bob"), iri("name"), Literal("Bob")),
            }
        )

    def test_multi_edges_deduplicate(self, multi_edge_store):
        g = rdf_view(multi_edge_store)
        assert g.triples == frozenset({(iri("Alice"), iri("knows"), iri("Bob"))})

    def test_membership_statements_are_invisible(self, toy_store):
        toy_store.set_graph_membership(toy_store.statements()[0].sid, Iri("urn:g:1"))
        assert len(rdf_view(toy_store).triples) == 3

    def test_assertions_over_memberships_are_invisible_too(self, toy_store):
        m = toy_store.set_graph_membership(toy_store.statements()[0].sid, Iri("urn:g:1"))
        toy_store.insert_assertion(SidRef(m), LocalId("addedBy"), Literal("me"))
        for g in (rdf_view(toy_store), rdf_view(toy_store, mode=RdfMode.REIFY), rdf_star_view(toy_store)):
            assert not any(t[2] == Literal("me") for t in g.triples)

    def test_custom_namespace(self, toy_store):
        g = rdf_view(toy_store, namespace="urn:mine:")
        assert (Iri("urn:mine:Alice"), Iri("urn:mine:knows"), Iri("urn:mine:Bob")) in g.triples

    @given(stores(membership_rate=0.2))
    @settings(max_examples=60)
    def test_matches_the_oracle(self, store):
        assert rdf_view(store).triples == hide_triples(store.statements())


class TestRdfReify:
    def test_toy_store_adds_reification_for_the_referenced_edge(self, toy_store):
        g = rdf_view(toy_store, mode=RdfMode.REIFY)
        node = sid_iri(toy_store.statements()[0].sid)
        rdf = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
        assert (node, Iri(rdf + "type"), Iri(rdf + "Statement")) in g.triples
        assert (node, Iri(rdf + "subject"), iri("Alice")) in g.triples
        assert (node, Iri(rdf + "predicate"), iri("knows")) in g.triples
        assert (node, Iri(rdf + "object"), iri("Bob")) in g.triples
        assert (node, iri("since"), Literal("2020", XSD_INTEGER)) in g.triples
        assert len(g.triples) == 8

    def test_unreferenced_statements_are_not_reified(self):
        st = Store(seed=0)
        st.insert_ground(LocalId("a"), LocalId("p"), LocalId("b"))
        assert rdf_view(st, mode=RdfMode.REIFY).triples == rdf_view(st).triples

    @given(stores(membership_rate=0.1))
    @settings(max_examples=60)
    def test_matches_the_oracle(self, store):
        assert rdf_view(store, mode=RdfMode.REIFY).triples == reify_triples(store.statements())


class TestRdfStar:
    def test_toy_store_is_exactly_four_triples(self, toy_store):
        g = rdf_star_view(toy_store)
        quoted = QuotedTriple(iri("Alice"), iri("knows"), iri("Bob"))
        assert g.triples == frozenset(
            {
                (iri("Alice"), iri("knows"), iri("Bob")),
                (iri("Alice"), iri("name"), Literal("Alice")),
                (iri("Bob"), iri("name"), Literal("Bob")),
                (quoted, iri("since"), Literal("2020", XSD_INTEGER)),
            }
        )

    def test_multi_edges_collapse_to_one_asserted_triple(self, multi_edge_store):
        g = rdf_star_view(multi_edge_store)
        quoted = QuotedTriple(iri("Alice"), iri("knows"), iri("Bob"))
        plain = [t for t in g.triples if not isinstance(t[0], QuotedTriple)]
        assert plain == [(iri("Alice"), iri("knows"), iri("Bob"))]
        annotations = {(t[1], t[2]) for t in g.triples if t[0] == quoted}
        assert annotations == {
            (iri("statedBy"), Literal("NYTimes")),
            (iri("since"), Literal("2020", XSD_INTEGER)),
            (iri("statedBy"), Literal("TheGuardian")),
            (iri("since"), Literal("2021", XSD_INTEGER)),
        }
        assert len(g.triples) == 5

    def test_assertions_over_assertions_nest(self, toy_store):
        since = toy_store.statements()[-1].sid
        toy_store.insert_assertion(SidRef(since), LocalId("certainty"), Literal("0.9"))
        g = rdf_star_view(toy_store)
        inner = QuotedTriple(iri("Alice"), iri("knows"), iri("Bob"))
        outer = QuotedTriple(inner, iri("since"), Literal("2020", XSD_INTEGER))
        assert (outer, iri("certainty"), Literal("0.9")) in g.triples

    def test_depth_limit(self):
        def chain(n):
            st = Store(seed=0)
            sid = st.insert_ground(LocalId("a"), LocalId("p"), LocalId("b"))
            for i in range(n):
                sid = st.insert_assertion(SidRef(sid), LocalId("q"), Literal(str(i), XSD_INTEGER))
            return st

        assert len(rdf_star_view(chain(32)).triples) == 33
        with pytest.raises(NestingOverflowError):
            rdf_star_view(chain(33))
        with pytest.raises(NestingOverflowError):
            rdf_star_view(chain(3), max_depth=2)

    def test_membership_stays_hidden(self, toy_store):
        toy_store.set_graph_membership(toy_store.statements()[0].sid, Iri("urn:g:1"))
        assert len(rdf_star_view(toy_store).triples) == 4


class TestLpg:
    def test_toy_store_shape(self, toy_store):
        g = lpg_view(toy_store)
        assert sorted(g.vertices) == ["Alice", "Bob"]
        assert g.vertices["Alice"].labels == ["Vertex"]  # default label
        assert [p.value for p in g.vertices["Alice"].properties["name"]] == ["Alice"]
        (edge,) = g.edges.values()
        assert (edge.source, edge.target, edge.label) == ("Alice", "Bob", "knows")
        assert edge.properties == {"since": [2020]}
        assert g.dropped == 0

    def test_edge_keys_are_the_ground_sids(self, multi_edge_store):
        g = lpg_view(multi_edge_store)
        ground = [s.sid for s in multi_edge_store.statements()[:2]]
        assert sorted(g.edges) == sorted(ground)

    def test_text_label_predicate(self):
        st = Store(seed=0)
        st.insert_ground(LocalId("v"), LocalId("label"), Literal("Hero"))
        g = lpg_view(st)
        assert g.vertices["v"].labels == ["Hero"]

    def test_node_valued_type_becomes_label_and_vertex(self):
        st = Store(seed=0)
        st.insert_ground(LocalId("v"), RDF_TYPE, Iri("http://example.org/Person"))
        g = lpg_view(st)
        assert "http://example.org/Person" in g.vertices["v"].labels
        assert "http://example.org/Person" in g.vertices

    def test_non_text_literal_under_label_predicate_is_a_property(self):
        st = Store(seed=0)
        st.insert_ground(LocalId("v"), LocalId("label"), Literal("7", XSD_INTEGER))
        g = lpg_view(st)
        assert g.vertices["v"].labels == ["Vertex"]
        assert [p.value for p in g.vertices["v"].properties["label"]] == [7]

    def test_meta_properties(self):
        st = Store(seed=0)
        p = st.insert_ground(LocalId("v"), LocalId("name"), Literal("x"))
        st.insert_assertion(SidRef(p), LocalId("source"), Literal("census"))
        g = lpg_view(st)
        (site,) = g.vertices["v"].properties["name"]
        assert site.meta == {"source": ["census"]}
        assert g.dropped == 0

    def test_label_predicates_must_not_be_empty(self):
        with pytest.raises(ValueError, match="label_predicates"):
            LpgViewConfig(label_predicates=())

    def test_meta_can_be_switched_off(self):
        st = Store(seed=0)
        p = st.insert_ground(LocalId("v"), LocalId("name"), Literal("x"))
        st.insert_assertion(SidRef(p), LocalId("source"), Literal("census"))
        g = lpg_view(st, LpgViewConfig(expose_meta_properties=False))
        (site,) = g.vertices["v"].properties["name"]
        assert site.meta == {}
        assert g.dropped == 1

    def test_inexpressible_assertions_are_counted(self):
        st = Store(seed=0)
        e = st.insert_ground(LocalId("a"), LocalId("knows"), LocalId("b"))
        st.insert_assertion(SidRef(e), LocalId("via"), LocalId("c"))  # node value on an edge
        g = lpg_view(st)
        assert g.dropped == 1
        assert "c" not in g.vertices  # only ground statements make vertices

    def test_meta_of_meta_is_dropped(self):
        st = Store(seed=0)
        p = st.insert_ground(LocalId("v"), LocalId("name"), Literal("x"))
        m = st.insert_assertion(SidRef(p), LocalId("source"), Literal("census"))
        st.insert_assertion(SidRef(m), LocalId("note"), Literal("deep"))
        assert lpg_view(st).dropped == 1

    def test_prefix_shortening(self):
        st = Store(seed=0)
        st.insert_ground(Iri("http://example.org/Alice"), LocalId("name"), Literal("A"))
        g = lpg_view(st, LpgViewConfig(prefixes={"ex": "http://example.org/"}))
        assert sorted(g.vertices) == ["ex:Alice"]
        assert sorted(lpg_view(st).vertices) == ["http://example.org/Alice"]

    def test_coercion_tally_is_reported(self):
        st = Store(seed=0)
        from og import RDF_LANG_STRING

        st.insert_ground(LocalId("v"), LocalId("name"), Literal("hi", RDF_LANG_STRING, language="en"))
        g = lpg_view(st)
        assert g.coercion.language_tags_dropped == 1


class TestDataset:
    def test_placement(self, toy_store):
        knows = toy_store.statements()[0].sid
        name_a = toy_store.statements()[1].sid
        toy_store.set_graph_membership(knows, Iri("urn:g:one"))
        toy_store.set_graph_membership(knows, LocalId("g2"))
        toy_store.set_graph_membership(name_a, Iri("urn:g:one"))
        ds = dataset_view(toy_store)
        knows_triple = (iri("Alice"), iri("knows"), iri("Bob"))
        assert ds.named[Iri("urn:g:one")].triples == frozenset(
            {knows_triple, (iri("Alice"), iri("name"), Literal("Alice"))}
        )
        assert ds.named[iri("g2")].triples == frozenset({knows_triple})
        assert ds.default.triples == frozenset({(iri("Bob"), iri("name"), Literal("Bob"))})

    def test_no_memberships_means_everything_default(self, toy_store):
        ds = dataset_view(toy_store)
        assert ds.named == {}
        assert ds.default.triples == rdf_view(toy_store).triples

    def test_memberships_of_memberships_place_nothing(self, toy_store):
        knows = toy_store.statements()[0].sid
        m = toy_store.set_graph_membership(knows, Iri("urn:g:one"))
        toy_store.set_graph_membership(m, Iri("urn:g:meta"))
        ds = dataset_view(toy_store)
        assert Iri("urn:g:meta") not in ds.named

    @pytest.mark.parametrize("graph", [Literal("urn:g:one"), BlankNode("g")])
    def test_a_graph_named_by_no_iri_or_local_id_places_nothing(self, toy_store, graph):
        knows = toy_store.statements()[0].sid
        toy_store.insert_assertion(SidRef(knows), IN_GRAPH, graph)
        ds = dataset_view(toy_store)
        assert ds.named == {}
        assert ds.default.triples == rdf_view(toy_store).triples
        assert dataset_placement(toy_store.statements()) == (ds.default.triples, {})

    def test_no_graph_contains_a_membership_triple(self, toy_store):
        knows = toy_store.statements()[0].sid
        toy_store.set_graph_membership(knows, Iri("urn:g:one"))
        ds = dataset_view(toy_store)
        for g in [ds.default, *ds.named.values()]:
            assert all(t[1] != IN_GRAPH for t in g.triples)

    @given(stores(membership_rate=0.3))
    @settings(max_examples=60)
    def test_matches_the_oracle(self, store):
        default, named = dataset_placement(store.statements())
        ds = dataset_view(store)
        assert ds.default.triples == default
        assert {g: gr.triples for g, gr in ds.named.items()} == named
        union = set(ds.default.triples)
        for gr in ds.named.values():
            union |= gr.triples
        assert union == rdf_view(store).triples


class TestGraphContainers:
    def test_iteration_follows_sorted_order(self, toy_store):
        g = rdf_view(toy_store)
        from og import triple_key

        assert list(g) == g.sorted() == sorted(g.triples, key=triple_key)
        # knows sorts after the two name triples only by predicate
        assert g.sorted()[0][0] == iri("Alice")
