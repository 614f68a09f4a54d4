"""Cross-model update operations: triple-level delete/insert, RDF-star
annotation, and direct LPG mutation."""

import uuid

import pytest

from og import (
    AmbiguityPolicy,
    AmbiguousTargetError,
    BlankNode,
    DeletePolicy,
    InsertSemantics,
    Iri,
    Literal,
    LocalId,
    NotFoundError,
    PositionError,
    ReferencedSidError,
    SidRef,
    Store,
    UnknownEndpointError,
    UnsupportedValueError,
    VertexProperty,
    XSD_BOOLEAN,
    XSD_INTEGER,
    lpg_add_edge,
    lpg_set_property,
    lpg_view,
    rdf_delete_triple,
    rdf_insert_triple,
    rdf_view,
    star_annotate,
)

ALICE = LocalId("Alice")
BOB = LocalId("Bob")
KNOWS = LocalId("knows")


class TestDeleteTriple:
    def test_all_cascade_removes_every_match_and_dependent(self, multi_edge_store):
        n = rdf_delete_triple(multi_edge_store, ALICE, KNOWS, BOB)
        assert n == 6
        assert multi_edge_store.statements() == []

    def test_single_match_cascades_annotations(self, toy_store):
        n = rdf_delete_triple(toy_store, ALICE, KNOWS, BOB)
        # the edge plus its since-annotation
        assert n == 2
        assert len(toy_store.statements()) == 2
        assert all(st.label == LocalId("name") for st in toy_store.statements())

    def test_error_if_multiple_is_atomic(self, multi_edge_store):
        before = set(multi_edge_store.statements())
        with pytest.raises(AmbiguousTargetError):
            rdf_delete_triple(
                multi_edge_store,
                ALICE,
                KNOWS,
                BOB,
                ambiguity=AmbiguityPolicy.ERROR_IF_MULTIPLE,
            )
        assert set(multi_edge_store.statements()) == before

    def test_restrict_refuses_referenced_targets(self, multi_edge_store):
        before = set(multi_edge_store.statements())
        with pytest.raises(ReferencedSidError):
            rdf_delete_triple(
                multi_edge_store, ALICE, KNOWS, BOB, delete=DeletePolicy.RESTRICT
            )
        assert set(multi_edge_store.statements()) == before

    def test_restrict_deletes_unreferenced_match(self):
        store = Store(seed=0)
        store.insert_ground(ALICE, LocalId("name"), Literal("Alice"))
        n = rdf_delete_triple(
            store,
            ALICE,
            LocalId("name"),
            Literal("Alice"),
            delete=DeletePolicy.RESTRICT,
        )
        assert n == 1
        assert store.statements() == []

    def test_no_match_returns_zero(self, multi_edge_store):
        assert rdf_delete_triple(multi_edge_store, ALICE, LocalId("hates"), BOB) == 0
        assert len(multi_edge_store.statements()) == 6

    def test_exposed_iri_spelling_is_interchangeable(self, multi_edge_store):
        n = rdf_delete_triple(
            multi_edge_store,
            Iri("urn:og:local:Alice"),
            Iri("urn:og:local:knows"),
            Iri("urn:og:local:Bob"),
        )
        assert n == 6

    def test_custom_namespace_changes_the_match(self, toy_store):
        # under a different namespace the exposed IRIs no longer line up
        n = rdf_delete_triple(
            toy_store,
            Iri("urn:og:local:Alice"),
            Iri("urn:og:local:knows"),
            Iri("urn:og:local:Bob"),
            namespace="urn:other:",
        )
        assert n == 0


class TestInsertTriple:
    def test_set_is_idempotent(self, toy_store):
        before = len(toy_store.statements())
        assert rdf_insert_triple(toy_store, ALICE, KNOWS, BOB) is None
        assert len(toy_store.statements()) == before

    def test_set_inserts_when_absent(self, toy_store):
        sid = rdf_insert_triple(toy_store, ALICE, LocalId("likes"), BOB)
        assert sid is not None
        st = toy_store.get(sid)
        assert (st.src, st.label, st.value) == (ALICE, LocalId("likes"), BOB)

    def test_set_matches_exposed_iri_spelling(self, toy_store):
        sid = rdf_insert_triple(toy_store, ALICE, LocalId("likes"), BOB)
        assert sid is not None
        again = rdf_insert_triple(
            toy_store, Iri("urn:og:local:Alice"), LocalId("likes"), BOB
        )
        assert again is None

    def test_multi_appends_every_call(self, toy_store):
        before = len(toy_store.statements())
        s1 = rdf_insert_triple(
            toy_store, ALICE, KNOWS, BOB, semantics=InsertSemantics.MULTI
        )
        s2 = rdf_insert_triple(
            toy_store, ALICE, KNOWS, BOB, semantics=InsertSemantics.MULTI
        )
        assert s1 is not None and s2 is not None and s1 != s2
        assert len(toy_store.statements()) == before + 2

    def test_inserted_triple_shows_in_the_view(self, toy_store):
        rdf_insert_triple(toy_store, ALICE, LocalId("likes"), BOB)
        triples = set(rdf_view(toy_store))
        expected = (
            Iri("urn:og:local:Alice"),
            Iri("urn:og:local:likes"),
            Iri("urn:og:local:Bob"),
        )
        assert expected in triples


class TestStarAnnotate:
    def test_all_annotates_every_matching_edge(self, multi_edge_store):
        sids = star_annotate(
            multi_edge_store,
            ALICE,
            KNOWS,
            BOB,
            LocalId("verified"),
            Literal("true", XSD_BOOLEAN),
        )
        assert len(sids) == 2
        targets = {multi_edge_store.get(s).src for s in sids}
        assert all(isinstance(t, SidRef) for t in targets)
        assert len(targets) == 2
        for s in sids:
            st = multi_edge_store.get(s)
            assert st.label == LocalId("verified")
            assert st.value == Literal("true", XSD_BOOLEAN)

    def test_annotations_surface_per_edge_in_lpg(self, multi_edge_store):
        star_annotate(
            multi_edge_store, ALICE, KNOWS, BOB, LocalId("w"), Literal("5", XSD_INTEGER)
        )
        graph = lpg_view(multi_edge_store)
        assert len(graph.edges) == 2
        for edge in graph.edges.values():
            assert edge.properties["w"] == [5]

    def test_error_if_multiple_is_atomic(self, multi_edge_store):
        before = set(multi_edge_store.statements())
        with pytest.raises(AmbiguousTargetError):
            star_annotate(
                multi_edge_store,
                ALICE,
                KNOWS,
                BOB,
                LocalId("v"),
                Literal("x"),
                policy=AmbiguityPolicy.ERROR_IF_MULTIPLE,
            )
        assert set(multi_edge_store.statements()) == before

    def test_missing_target_raises(self, toy_store):
        with pytest.raises(NotFoundError):
            star_annotate(
                toy_store, LocalId("nobody"), KNOWS, BOB, LocalId("k"), Literal("v")
            )

    def test_key_must_be_a_predicate_term(self, toy_store):
        with pytest.raises(PositionError):
            star_annotate(toy_store, ALICE, KNOWS, BOB, Literal("k"), Literal("v"))

    def test_value_must_not_reference_a_statement(self, toy_store):
        edge = toy_store.statements()[0].sid
        with pytest.raises(PositionError, match="sid references"):
            star_annotate(toy_store, ALICE, KNOWS, BOB, LocalId("k"), SidRef(edge))


class TestLpgAddEdge:
    @pytest.fixture
    def two_vertices(self):
        store = Store(seed=0)
        store.insert_ground(LocalId("A"), LocalId("name"), Literal("a"))
        store.insert_ground(LocalId("B"), LocalId("name"), Literal("b"))
        return store

    def test_edge_between_known_vertices(self, two_vertices):
        sid = lpg_add_edge(two_vertices, "A", "B", "knows", properties={"since": 2020})
        st = two_vertices.get(sid)
        assert (st.src, st.label, st.value) == (LocalId("A"), LocalId("knows"), LocalId("B"))
        edge = lpg_view(two_vertices).edges[sid]
        assert edge.properties == {"since": [2020]}

    def test_unknown_endpoint_rejected(self, two_vertices):
        with pytest.raises(UnknownEndpointError):
            lpg_add_edge(two_vertices, "A", "Z", "knows")

    def test_endpoints_are_display_strings_only(self, two_vertices):
        # passing a term object is not a vertex id
        with pytest.raises(UnknownEndpointError):
            lpg_add_edge(two_vertices, LocalId("A"), "B", "knows")

    def test_auto_create_makes_local_vertex(self, two_vertices):
        sid = lpg_add_edge(two_vertices, "A", "Z", "knows", auto_create=True)
        assert two_vertices.get(sid).value == LocalId("Z")
        assert "Z" in lpg_view(two_vertices).vertices

    def test_auto_create_blank_spelling(self, two_vertices):
        sid = lpg_add_edge(two_vertices, "A", "_:x", "sees", auto_create=True)
        assert two_vertices.get(sid).value == BlankNode("x")

    def test_unrepresentable_property_value_rejected(self, two_vertices):
        with pytest.raises(UnsupportedValueError):
            lpg_add_edge(two_vertices, "A", "B", "knows", properties={"p": object()})


    @pytest.mark.parametrize("properties", [{"w": object()}, {"ok": 1, "bad": object()}])
    def test_refused_edge_leaves_the_store_unchanged(self, two_vertices, properties):
        with pytest.raises(UnsupportedValueError):
            lpg_add_edge(two_vertices, "A", "B", "knows", properties=properties)
        assert len(two_vertices) == 2


class TestLpgSetProperty:
    def test_vertex_property_replaces_all_sites(self):
        store = Store(seed=0)
        store.insert_ground(LocalId("A"), LocalId("tag"), Literal("x"))
        store.insert_ground(LocalId("A"), LocalId("tag"), Literal("y"))
        store.insert_ground(LocalId("A"), LocalId("other"), Literal("keep"))
        lpg_set_property(store, "A", "tag", "z")
        vertex = lpg_view(store).vertices["A"]
        assert [p.value for p in vertex.properties["tag"]] == ["z"]
        assert [p.value for p in vertex.properties["other"]] == ["keep"]

    def test_replacement_drops_old_meta(self):
        store = Store(seed=0)
        site = store.insert_ground(LocalId("A"), LocalId("tag"), Literal("x"))
        store.insert_assertion(SidRef(site), LocalId("src"), Literal("census"))
        lpg_set_property(store, "A", "tag", "z")
        assert len(store.statements()) == 1
        props = lpg_view(store).vertices["A"].properties["tag"]
        assert [(p.value, p.meta) for p in props] == [("z", {})]

    def test_new_key_creates_property(self):
        store = Store(seed=0)
        store.insert_ground(LocalId("A"), LocalId("name"), Literal("a"))
        lpg_set_property(store, "A", "fresh", 7)
        assert [p.value for p in lpg_view(store).vertices["A"].properties["fresh"]] == [7]

    def test_edge_property_by_sid_and_by_text(self):
        store = Store(seed=0)
        store.insert_ground(LocalId("A"), LocalId("name"), Literal("a"))
        store.insert_ground(LocalId("B"), LocalId("name"), Literal("b"))
        edge = lpg_add_edge(store, "A", "B", "knows", properties={"since": 2020})
        lpg_set_property(store, edge, "since", 2021)
        assert lpg_view(store).edges[edge].properties == {"since": [2021]}
        lpg_set_property(store, str(edge), "since", 2022)
        assert lpg_view(store).edges[edge].properties == {"since": [2022]}

    def test_unknown_element_raises(self):
        store = Store(seed=0)
        store.insert_ground(LocalId("A"), LocalId("name"), Literal("a"))
        with pytest.raises(NotFoundError):
            lpg_set_property(store, "missing", "k", 1)

    def test_a_sid_that_names_no_edge_raises(self):
        store = Store(seed=0)
        prop = store.insert_ground(LocalId("A"), LocalId("name"), Literal("a"))
        before = store.statements()
        for element in (prop, str(prop), uuid.UUID(int=10**6)):
            with pytest.raises(NotFoundError, match="no edge with sid"):
                lpg_set_property(store, element, "k", 1)
        assert store.statements() == before

    def test_unrepresentable_value_rejected(self):
        store = Store(seed=0)
        store.insert_ground(LocalId("A"), LocalId("name"), Literal("a"))
        with pytest.raises(UnsupportedValueError):
            lpg_set_property(store, "A", "name", {"nested": 1})

    def test_a_string_under_a_label_predicate_key_is_refused_on_a_vertex(self):
        store = Store(seed=0)
        store.insert_ground(LocalId("a"), LocalId("label"), Literal("3", XSD_INTEGER))
        edge = store.insert_ground(LocalId("a"), LocalId("knows"), LocalId("b"))
        before = store.statements()
        for key in ("label", "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"):
            with pytest.raises(UnsupportedValueError, match="vertex label"):
                lpg_set_property(store, "a", key, "x")
        assert store.statements() == before
        # a number under the key, and a string on an edge, stay properties
        lpg_set_property(store, "a", "label", 4)
        lpg_set_property(store, edge, "label", "x")
        g = lpg_view(store)
        assert g.vertices["a"].labels == ["Vertex"] and g.vertices["a"].properties == {"label": [VertexProperty(4)]}
        assert g.edges[edge].properties == {"label": ["x"]}
