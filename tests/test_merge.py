"""Merging two stores: alignment, blank-node policies, edge identity."""

import importlib
import uuid

import pytest
from hypothesis import given, settings

from og import (
    BadTemplateError,
    BlankNode,
    BlankNodePolicy,
    EdgeIdentity,
    ExplicitPair,
    Iri,
    Literal,
    LocalId,
    MergeRules,
    ParseError,
    SidCollisionError,
    SidRef,
    Store,
    Template,
    XSD_INTEGER,
    load_rules,
    merge,
    referenced_sids,
)
from oracles import collapse_content
from strategies import stores


def blank_labels(store):
    return {
        t.label
        for st in store.statements()
        for t in (st.src, st.value)
        if isinstance(t, BlankNode)
    }


class TestDistinct:
    def test_merge_with_self_is_identity(self, toy_store):
        out, rep = merge(toy_store, toy_store)
        assert set(out.statements()) == set(toy_store.statements())
        assert rep.statements_out == 4
        assert rep.edges_collapsed == 0 and rep.identifiers_aligned == 0

    def test_disjoint_stores_union(self, toy_store):
        other = Store(seed=77)
        other.insert_ground(LocalId("x"), LocalId("p"), LocalId("y"))
        out, rep = merge(toy_store, other)
        assert rep.statements_out == 5
        assert rep.statements_in_a == 4 and rep.statements_in_b == 1

    def test_partial_overlap_keeps_copies_once(self, toy_store):
        other = toy_store.copy()
        other.insert_ground(LocalId("x"), LocalId("p"), LocalId("y"))
        out, rep = merge(toy_store, other)
        assert rep.statements_out == 5

    def test_same_sid_different_content_is_an_error(self):
        a, b = Store(seed=0), Store(seed=0)
        a.insert_ground(LocalId("a"), LocalId("p"), LocalId("b"))
        b.insert_ground(LocalId("x"), LocalId("q"), LocalId("y"))  # same seeded sid
        with pytest.raises(SidCollisionError):
            merge(a, b)

    @given(stores(max_statements=10))
    @settings(max_examples=40)
    def test_self_merge_is_always_identity(self, store):
        out, _ = merge(store, store)
        assert set(out.statements()) == set(store.statements())


class TestAlignment:
    def test_explicit_pair_rewrites_only_b(self):
        a = Store(seed=0)
        a.insert_ground(LocalId("bob"), LocalId("p"), Literal("keep"))
        b = Store(seed=9)
        b.insert_ground(LocalId("bob"), LocalId("q"), Literal("move"))
        rules = MergeRules(id_mappings=[ExplicitPair(LocalId("bob"), Iri("urn:who:Bob"))])
        out, rep = merge(a, b, rules)
        srcs = {st.src for st in out.statements()}
        assert LocalId("bob") in srcs  # a untouched
        assert Iri("urn:who:Bob") in srcs
        assert rep.identifiers_aligned == 1

    def test_a_sid_whose_content_agrees_once_aligned_is_no_collision(self):
        a, b = Store(seed=0), Store(seed=0)
        a.insert_ground(LocalId("bob"), LocalId("p"), Literal("x"))
        b.insert_ground(LocalId("robert"), LocalId("p"), Literal("x"))  # same seeded sid
        rules = MergeRules(id_mappings=[ExplicitPair(LocalId("robert"), LocalId("bob"))])
        out, rep = merge(a, b, rules)
        assert out.statements() == a.statements()
        assert (rep.statements_out, rep.identifiers_aligned) == (1, 1)
        with pytest.raises(SidCollisionError):
            merge(a, b)

    def test_template_rewrites_local_ids(self):
        a = Store(seed=0)
        b = Store(seed=9)
        b.insert_ground(LocalId("country-DE"), LocalId("p"), Literal("x"))
        b.insert_ground(LocalId("country-FR"), LocalId("p"), Literal("y"))
        rules = MergeRules(id_mappings=[Template("country-{code}", "urn:geo:{code}")])
        out, rep = merge(a, b, rules)
        assert {st.src for st in out.statements()} == {Iri("urn:geo:DE"), Iri("urn:geo:FR")}
        assert rep.identifiers_aligned == 2  # distinct pre-image terms

    def test_first_matching_rule_wins(self):
        b = Store(seed=9)
        b.insert_ground(LocalId("country-FR"), LocalId("p"), Literal("y"))
        rules = MergeRules(
            id_mappings=[
                ExplicitPair(LocalId("country-FR"), Iri("urn:geo:FRANCE")),
                Template("country-{code}", "urn:geo:{code}"),
            ]
        )
        out, _ = merge(Store(seed=0), b, rules)
        assert out.statements()[0].src == Iri("urn:geo:FRANCE")

    def test_templates_skip_non_local_terms(self):
        b = Store(seed=9)
        b.insert_ground(Iri("urn:x:country-DE"), LocalId("p"), Literal("x"))
        rules = MergeRules(id_mappings=[Template("country-{code}", "urn:geo:{code}")])
        out, rep = merge(Store(seed=0), b, rules)
        assert out.statements()[0].src == Iri("urn:x:country-DE")
        assert rep.identifiers_aligned == 0

    def test_template_validates_at_construction(self):
        with pytest.raises(BadTemplateError):
            Template("no-slot", "urn:x:{c}")
        with pytest.raises(BadTemplateError):
            Template("{a}{b}", "urn:x:{a}")
        with pytest.raises(BadTemplateError):
            Template("{a}", "urn:x:{b}")

    def test_bad_iri_from_substitution(self):
        b = Store(seed=9)
        b.insert_ground(LocalId("country-DE"), LocalId("p"), Literal("x"))
        rules = MergeRules(id_mappings=[Template("country-{code}", "not an iri {code}")])
        with pytest.raises(BadTemplateError):
            merge(Store(seed=0), b, rules)


class TestBlankNodes:
    def test_rename_apart_counts_and_coreference(self):
        a = Store(seed=0)
        a.insert_ground(BlankNode("n"), LocalId("p"), BlankNode("m"))
        b = Store(seed=9)
        b.insert_ground(BlankNode("n"), LocalId("p"), BlankNode("k"))
        b.insert_ground(BlankNode("n"), LocalId("q"), Literal("z"))
        out, rep = merge(a, b)
        assert len(blank_labels(out)) == len(blank_labels(a)) + len(blank_labels(b))
        assert rep.blank_nodes_renamed == 2
        # b's shared blank is still shared after the rename
        renamed = [st for st in out.statements() if st.label == LocalId("q")]
        sharing = [st for st in out.statements() if st.src == renamed[0].src]
        assert len(sharing) == 2

    def test_identify_by_label_unifies(self):
        a = Store(seed=0)
        a.insert_ground(BlankNode("n"), LocalId("p"), Literal("1", XSD_INTEGER))
        b = Store(seed=9)
        b.insert_ground(BlankNode("n"), LocalId("q"), Literal("2", XSD_INTEGER))
        out, rep = merge(a, b, MergeRules(blank_node_policy=BlankNodePolicy.IDENTIFY_BY_LABEL))
        assert blank_labels(out) == {"n"}
        assert rep.blank_nodes_renamed == 0

    def test_copies_keep_their_blank_labels(self, toy_store):
        a = Store(seed=0)
        a.insert_ground(BlankNode("n"), LocalId("p"), Literal("1", XSD_INTEGER))
        out, rep = merge(a, a)
        assert blank_labels(out) == {"n"}
        assert rep.blank_nodes_renamed == 0


class TestCollapse:
    def test_multi_edge_fixture_collapses_to_one_edge(self, multi_edge_store):
        out, rep = merge(multi_edge_store, Store(seed=99), MergeRules(edge_identity=EdgeIdentity.COLLAPSE_IDENTICAL_CONTENT))
        grounds = [st for st in out.statements() if st.label == LocalId("knows")]
        assert len(grounds) == 1
        survivor = grounds[0].sid
        refs = [st for st in out.statements() if SidRef(survivor) == st.src]
        assert len(refs) == 4  # all four annotations moved over
        assert rep.edges_collapsed == 1

    def test_survivor_is_the_least_sid(self, multi_edge_store):
        first_ground = multi_edge_store.statements()[0].sid
        out, _ = merge(multi_edge_store, Store(seed=99), MergeRules(edge_identity=EdgeIdentity.COLLAPSE_IDENTICAL_CONTENT))
        assert out.get(first_ground) is not None

    @given(stores(max_statements=12))
    @settings(max_examples=60)
    def test_matches_the_grouping_oracle(self, store):
        out, rep = merge(store, Store(seed=4242), MergeRules(edge_identity=EdgeIdentity.COLLAPSE_IDENTICAL_CONTENT))
        expected, losers = collapse_content(store.statements())
        assert set(out.statements()) == expected
        assert rep.edges_collapsed == losers
        # integrity survives the rewrite
        present = {s.sid for s in out.statements()}
        for st in out.statements():
            assert referenced_sids(st) <= present

    def test_content_and_properties_requires_identical_trees(self):
        a = Store(seed=0)
        e1 = a.insert_ground(LocalId("a"), LocalId("knows"), LocalId("b"))
        a.insert_assertion(SidRef(e1), LocalId("since"), Literal("2020", XSD_INTEGER))
        b = Store(seed=50)
        f1 = b.insert_ground(LocalId("a"), LocalId("knows"), LocalId("b"))
        b.insert_assertion(SidRef(f1), LocalId("since"), Literal("2020", XSD_INTEGER))
        out, rep = merge(a, b, MergeRules(edge_identity=EdgeIdentity.COLLAPSE_IDENTICAL_CONTENT_AND_PROPERTIES))
        assert rep.edges_collapsed == 1
        # the loser's duplicate annotation tree went with it
        assert len(out.statements()) == 2

    def test_one_divergent_member_blocks_the_group(self):
        a = Store(seed=0)
        e1 = a.insert_ground(LocalId("a"), LocalId("knows"), LocalId("b"))
        a.insert_assertion(SidRef(e1), LocalId("since"), Literal("2020", XSD_INTEGER))
        b = Store(seed=50)
        f1 = b.insert_ground(LocalId("a"), LocalId("knows"), LocalId("b"))
        b.insert_assertion(SidRef(f1), LocalId("since"), Literal("2020", XSD_INTEGER))
        f2 = b.insert_ground(LocalId("a"), LocalId("knows"), LocalId("b"))
        b.insert_assertion(SidRef(f2), LocalId("since"), Literal("2021", XSD_INTEGER))
        out, rep = merge(a, b, MergeRules(edge_identity=EdgeIdentity.COLLAPSE_IDENTICAL_CONTENT_AND_PROPERTIES))
        assert rep.edges_collapsed == 0
        assert len(out.statements()) == 6

    def test_distinct_keeps_every_edge(self, multi_edge_store):
        out, rep = merge(multi_edge_store, Store(seed=99))
        assert len(out.statements()) == 6 and rep.edges_collapsed == 0


class TestRulesFiles:
    def test_full_document(self):
        rules = load_rules(
            """
            {
              "id_mappings": [
                {"pair": ["local:\\"bob\\"", "<urn:who:Bob>"]},
                {"template": {"match": "country-{code}", "produce": "urn:geo:{code}"}}
              ],
              "blank_node_policy": "identify_by_label",
              "edge_identity": "collapse_identical_content"
            }
            """
        )
        assert rules.blank_node_policy is BlankNodePolicy.IDENTIFY_BY_LABEL
        assert rules.edge_identity is EdgeIdentity.COLLAPSE_IDENTICAL_CONTENT
        assert rules.id_mappings[0] == ExplicitPair(LocalId("bob"), Iri("urn:who:Bob"))
        assert rules.id_mappings[1] == Template("country-{code}", "urn:geo:{code}")

    def test_defaults(self):
        rules = load_rules("{}")
        assert rules == MergeRules()

    @pytest.mark.parametrize(
        "doc",
        [
            "{",
            "[]",
            '{"bogus": 1}',
            '{"edge_identity": "nope"}',
            '{"id_mappings": [{"pair": ["only-one"]}]}',
            '{"id_mappings": [{"both": 1, "keys": 2}]}',
            '{"id_mappings": [{"pair": ["<urn:og:sid:00000000-0000-0000-0000-000000000001>", "local:\\"x\\""]}]}',
            '{"id_mappings": [{"template": {"match": "x-{a}"}}]}',
            '{"id_mappings": [{"template": "x-{a}"}]}',
            '{"id_mappings": [{"other": 1}]}',
        ],
    )
    def test_malformed_documents(self, doc):
        with pytest.raises(ParseError):
            load_rules(doc)

    def test_bad_template_in_rules(self):
        with pytest.raises(BadTemplateError):
            load_rules('{"id_mappings": [{"template": {"match": "x", "produce": "y"}}]}')


class TestSeededIssuing:
    def test_collapse_goes_on_issuing_where_the_plain_merge_does(self):
        a = Store(seed=0)
        a.insert_ground(LocalId("A"), LocalId("knows"), LocalId("B"))
        a.insert_ground(LocalId("A"), LocalId("name"), Literal("a"))
        b = Store(seed=10)
        folded = b.insert_ground(LocalId("A"), LocalId("knows"), LocalId("B"))
        plain, _ = merge(a, b)
        collapsed, report = merge(a, b, MergeRules(edge_identity=EdgeIdentity.COLLAPSE_IDENTICAL_CONTENT))
        assert report.edges_collapsed == 1 and folded not in collapsed
        assert plain.fresh_sid() == collapsed.fresh_sid() == uuid.UUID(int=3)
        issued = [collapsed.fresh_sid() for _ in range(9)]
        # the folded statement's sid is never issued again
        assert issued == [uuid.UUID(int=n) for n in range(4, 14) if n != 11]


def test_a_template_parses_its_patterns_only_when_it_is_made(monkeypatch):
    module = importlib.import_module("og.merge")
    calls = []
    parse = module._single_slot
    monkeypatch.setattr(module, "_single_slot", lambda *args: calls.append(args) or parse(*args))
    rules = MergeRules(id_mappings=[Template("c-{code}", "urn:geo:{code}"), Template("{x}-z", "urn:z:{x}")])
    assert len(calls) == 4
    b = Store(seed=9)
    for n in range(20):
        b.insert_ground(LocalId(f"c-{n}"), LocalId("p"), LocalId(f"v{n}-z"))
    out, report = merge(Store(seed=0), b, rules)
    assert len(calls) == 4
    assert report.identifiers_aligned == 40
    assert Iri("urn:geo:3") in {st.src for st in out.statements()}
    assert rules.id_mappings[0] == Template("c-{code}", "urn:geo:{code}")
    assert repr(rules.id_mappings[0]) == "Template(match='c-{code}', produce='urn:geo:{code}')"
