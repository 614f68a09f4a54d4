"""Store behavior: insertion rules, integrity, deletion policies, lookup."""

import uuid

import pytest
from hypothesis import given, settings

from og import (
    DanglingSidError,
    DeletePolicy,
    IN_GRAPH,
    Iri,
    Literal,
    LocalId,
    PositionError,
    ReferencedSidError,
    SidCollisionError,
    SidRef,
    Statement,
    StatementPattern,
    Store,
    XSD_INTEGER,
    rdf_insert_triple,
    referenced_sids,
    serialize_ognq,
)
from oracles import cascade_closure
from strategies import stores


def seeded():
    return Store(seed=0)


class TestInsertGround:
    def test_each_insert_gets_a_fresh_sid(self):
        st = seeded()
        a = st.insert_ground(LocalId("x"), LocalId("p"), LocalId("y"))
        b = st.insert_ground(LocalId("x"), LocalId("p"), LocalId("y"))
        assert a != b
        assert len(st.statements()) == 2  # multi-edges are real duplicates

    def test_sid_refs_are_not_ground(self):
        st = seeded()
        e = st.insert_ground(LocalId("x"), LocalId("p"), LocalId("y"))
        with pytest.raises(PositionError):
            st.insert_ground(SidRef(e), LocalId("p"), LocalId("y"))
        with pytest.raises(PositionError):
            st.insert_ground(LocalId("x"), LocalId("p"), SidRef(e))

    def test_literal_cannot_be_a_source(self):
        with pytest.raises(PositionError):
            seeded().insert_ground(Literal("x"), LocalId("p"), LocalId("y"))

    def test_label_must_be_iri_or_local(self):
        st = seeded()
        with pytest.raises(PositionError):
            st.insert_ground(LocalId("x"), Literal("p"), LocalId("y"))
        from og import BlankNode

        with pytest.raises(PositionError):
            st.insert_ground(LocalId("x"), BlankNode("p"), LocalId("y"))


class TestInsertAssertion:
    def test_requires_at_least_one_ref(self):
        st = seeded()
        with pytest.raises(PositionError):
            st.insert_assertion(LocalId("x"), LocalId("p"), LocalId("y"))

    def test_target_must_exist(self):
        st = seeded()
        with pytest.raises(DanglingSidError):
            st.insert_assertion(SidRef(st.fresh_sid()), LocalId("p"), Literal("1", XSD_INTEGER))

    def test_refs_allowed_in_both_positions(self, toy_store):
        sids = [s.sid for s in toy_store.statements()]
        sid = toy_store.insert_assertion(SidRef(sids[0]), LocalId("sameAs"), SidRef(sids[1]))
        assert referenced_sids(toy_store.get(sid)) == {sids[0], sids[1]}


class TestAddStatements:
    def test_forward_references_resolve(self):
        st = seeded()
        a, b = st.fresh_sid(), st.fresh_sid()
        batch = [
            Statement(SidRef(b), LocalId("about"), Literal("x"), a),
            Statement(LocalId("s"), LocalId("p"), LocalId("o"), b),
        ]
        st.add_statements(batch)
        assert st.get(a) is not None and st.get(b) is not None

    def test_duplicate_sid_in_batch(self):
        st = seeded()
        sid = st.fresh_sid()
        batch = [
            Statement(LocalId("s"), LocalId("p"), LocalId("o"), sid),
            Statement(LocalId("s"), LocalId("q"), LocalId("o"), sid),
        ]
        with pytest.raises(SidCollisionError):
            st.add_statements(batch)

    def test_duplicate_sid_against_store_even_with_same_content(self):
        st = seeded()
        sid = st.insert_ground(LocalId("s"), LocalId("p"), LocalId("o"))
        with pytest.raises(SidCollisionError):
            st.add_statements([st.get(sid)])

    def test_cycle_is_rejected_and_store_untouched(self):
        st = seeded()
        base = st.insert_ground(LocalId("s"), LocalId("p"), LocalId("o"))
        x, y = st.fresh_sid(), st.fresh_sid()
        batch = [
            Statement(SidRef(base), LocalId("q"), Literal("1", XSD_INTEGER), x),
            Statement(SidRef(y), LocalId("q"), SidRef(y), y),  # self-cycle
        ]
        before = set(st.statements())
        with pytest.raises(DanglingSidError):
            st.add_statements(batch)
        assert set(st.statements()) == before

    def test_mutual_cycle_is_rejected(self):
        st = seeded()
        x, y = st.fresh_sid(), st.fresh_sid()
        batch = [
            Statement(SidRef(y), LocalId("p"), Literal("1", XSD_INTEGER), x),
            Statement(SidRef(x), LocalId("p"), Literal("2", XSD_INTEGER), y),
        ]
        with pytest.raises(DanglingSidError):
            st.add_statements(batch)


class TestCopy:
    def test_copy_issues_the_sid_the_original_would(self, toy_store):
        toy_store.delete_statement(toy_store.insert_ground(Iri("urn:x:a"), Iri("urn:x:p"), Literal("v")))
        copied = toy_store.copy()
        assert [st for st in copied] == [st for st in toy_store]
        assert copied.fresh_sid() == toy_store.fresh_sid()


class TestDelete:
    def test_cascade_counts_the_closure(self, toy_store):
        knows = toy_store.statements()[0].sid
        expected = cascade_closure(toy_store.statements(), knows)
        assert toy_store.delete_statement(knows, DeletePolicy.CASCADE) == len(expected) == 2
        assert all(toy_store.get(s) is None for s in expected)

    def test_restrict_refuses_referenced(self, toy_store):
        knows = toy_store.statements()[0].sid
        before = set(toy_store.statements())
        with pytest.raises(ReferencedSidError):
            toy_store.delete_statement(knows, DeletePolicy.RESTRICT)
        assert set(toy_store.statements()) == before

    def test_restrict_deletes_leaves(self, toy_store):
        leaf = toy_store.statements()[-1].sid  # the since-assertion
        assert toy_store.delete_statement(leaf, DeletePolicy.RESTRICT) == 1

    def test_delete_missing_sid(self, toy_store):
        from og import NotFoundError

        with pytest.raises(NotFoundError):
            toy_store.delete_statement(toy_store.fresh_sid())

    @given(stores(max_statements=12))
    @settings(max_examples=60)
    def test_cascade_matches_the_oracle(self, store):
        stmts = store.statements()
        if not stmts:
            return
        target = stmts[len(stmts) // 2].sid
        expected = cascade_closure(stmts, target)
        survivors = {s.sid for s in stmts} - expected
        assert store.delete_statement(target) == len(expected)
        assert {s.sid for s in store.statements()} == survivors


class TestLookup:
    def test_statements_are_sid_sorted(self, toy_store):
        sids = [s.sid for s in toy_store.statements()]
        assert sids == sorted(sids)

    def test_match_each_position(self, toy_store):
        alice = LocalId("Alice")
        assert len(toy_store.match(StatementPattern(src=alice))) == 2
        assert len(toy_store.match(StatementPattern(label=LocalId("name")))) == 2
        assert len(toy_store.match(StatementPattern(value=LocalId("Bob")))) == 1
        assert len(toy_store.match(StatementPattern())) == 4

    def test_a_label_and_value_match_wants_a_term_of_the_same_type(self):
        st = seeded()
        sid = st.insert_ground(LocalId("a"), LocalId("p"), Literal("5"))
        assert st.match(StatementPattern(label=LocalId("p"), value=5)) == []
        assert [s.sid for s in st.match(StatementPattern(label=LocalId("p"), value=Literal("5")))] == [sid]

    def test_sids_by_content_is_sorted(self, multi_edge_store):
        sids = multi_edge_store.sids_by_content(LocalId("Alice"), LocalId("knows"), LocalId("Bob"))
        assert len(sids) == 2 and sids == sorted(sids)

    def test_referrers(self, toy_store):
        knows = toy_store.statements()[0].sid
        since = toy_store.statements()[-1].sid
        assert toy_store.referrers(knows) == {since}
        assert toy_store.referrers(since) == set()
        assert toy_store.referring(knows) == [toy_store.get(since)]
        assert toy_store.referring(since) == []

    def test_copy_is_independent(self, toy_store):
        dup = toy_store.copy()
        dup.insert_ground(LocalId("x"), LocalId("p"), LocalId("y"))
        assert len(dup.statements()) == len(toy_store.statements()) + 1


class TestGraphMembership:
    def test_membership_is_an_ordinary_assertion(self, toy_store):
        target = toy_store.statements()[0].sid
        m = toy_store.set_graph_membership(target, Iri("urn:g:one"))
        st = toy_store.get(m)
        assert st.label == IN_GRAPH and st.src == SidRef(target)

    def test_idempotent_per_pair(self, toy_store):
        target = toy_store.statements()[0].sid
        m1 = toy_store.set_graph_membership(target, Iri("urn:g:one"))
        n = len(toy_store.statements())
        assert toy_store.set_graph_membership(target, Iri("urn:g:one")) == m1
        assert len(toy_store.statements()) == n

    def test_multiple_graphs_accumulate(self, toy_store):
        target = toy_store.statements()[0].sid
        toy_store.set_graph_membership(target, Iri("urn:g:one"))
        toy_store.set_graph_membership(target, LocalId("two"))
        assert toy_store.list_graphs() == [Iri("urn:g:one"), LocalId("two")]

    def test_graph_id_must_be_iri_or_local(self, toy_store):
        from og import BlankNode

        with pytest.raises(PositionError):
            toy_store.set_graph_membership(toy_store.statements()[0].sid, BlankNode("g"))

    def test_no_memberships_no_graphs(self, toy_store):
        assert toy_store.list_graphs() == []


class TestInvariantsUnderRandomStores:
    @given(stores())
    @settings(max_examples=60)
    def test_integrity_and_order(self, store):
        stmts = store.statements()
        sids = [s.sid for s in stmts]
        assert len(sids) == len(set(sids))
        assert sids == sorted(sids)
        present = set(sids)
        for s in stmts:
            assert referenced_sids(s) <= present


class TestBatchOrder:
    def test_reverse_chain_of_4k_installs(self):
        chain, prev = [], None
        for i in range(1, 4001):
            sid = uuid.UUID(int=i)
            src = LocalId("root") if prev is None else SidRef(prev)
            chain.append(Statement(src, LocalId("p"), Literal(str(i), XSD_INTEGER), sid))
            prev = sid
        store = seeded()
        store.add_statements(reversed(chain))
        assert store.statements() == chain
        assert store.fresh_sid() == uuid.UUID(int=4001)

    @pytest.mark.parametrize("kind", ["cyclic", "absent"])
    def test_refused_batch_leaves_the_store_byte_identical(self, toy_store, kind):
        x, y, z, ok = (uuid.UUID(int=n) for n in (100, 101, 102, 103))
        first = SidRef(y) if kind == "cyclic" else SidRef(uuid.UUID(int=999))
        batch = [
            Statement(LocalId("ok"), LocalId("p"), LocalId("q"), ok),
            Statement(SidRef(x), LocalId("on"), SidRef(z), y),
            Statement(first, LocalId("p"), SidRef(ok), x),
            Statement(LocalId("q"), LocalId("about"), SidRef(y), z),
        ]
        before = serialize_ognq(toy_store)
        issues_next = toy_store.copy().fresh_sid()
        with pytest.raises(DanglingSidError) as raised:
            toy_store.add_statements(batch)
        stuck = sorted(str(s) for s in (x, y, z))  # z waits on y, which waits on x
        assert str(raised.value) == f"unresolvable references (absent or cyclic) from: {stuck}"
        assert serialize_ognq(toy_store) == before
        assert toy_store.fresh_sid() == issues_next


class TestSidNamespace:
    """An ``urn:og:sid:`` IRI names a statement only as a SidRef, so no entry
    point stores one as a plain IRI (which OG-NQ could not write back); a
    literal's datatype may name the namespace."""

    RESERVED = Iri("urn:og:sid:00000000-0000-0000-0000-00000000beef")

    def entry_points(self, store, sid):
        r = self.RESERVED
        return {
            "insert_ground source": lambda: store.insert_ground(r, LocalId("p"), Literal("v")),
            "insert_ground label": lambda: store.insert_ground(LocalId("x"), r, Literal("v")),
            "insert_ground value": lambda: store.insert_ground(LocalId("x"), LocalId("p"), r),
            "insert_assertion": lambda: store.insert_assertion(SidRef(sid), LocalId("by"), r),
            "rdf_insert_triple": lambda: rdf_insert_triple(store, Iri("urn:x:s"), Iri("urn:x:p"), r),
            "add_statements": lambda: store.add_statements(
                [Statement(LocalId("ok"), LocalId("p"), LocalId("q"), uuid.UUID(int=100)),
                 Statement(SidRef(uuid.UUID(int=100)), LocalId("by"), r, uuid.UUID(int=101))]
            ),
        }

    @pytest.mark.parametrize("entry", ["insert_ground source", "insert_ground label", "insert_ground value",
                                       "insert_assertion", "rdf_insert_triple", "add_statements"])
    def test_a_sid_iri_is_refused_and_the_store_untouched(self, toy_store, entry):
        sid = toy_store.statements()[0].sid
        before = serialize_ognq(toy_store)
        issues_next = toy_store.copy().fresh_sid()
        with pytest.raises(PositionError, match="the urn:og:sid: namespace is reserved"):
            self.entry_points(toy_store, sid)[entry]()
        assert serialize_ognq(toy_store) == before
        assert toy_store.fresh_sid() == issues_next

    def test_a_datatype_may_name_the_namespace(self):
        store = seeded()
        store.insert_ground(LocalId("x"), LocalId("p"), Literal("v", Iri("urn:og:sid:type")))
        assert '"v"^^<urn:og:sid:type>' in serialize_ognq(store)
