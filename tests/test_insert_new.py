"""``Store.insert_new``, the one way in for statements under fresh sids, and
the entry points that go through it: a refused write keeps the store and
its next sid as they were."""

import uuid

import pytest

from og import (
    DanglingSidError,
    Iri,
    Literal,
    LocalId,
    PositionError,
    SidRef,
    Store,
    UnsupportedValueError,
    XSD_INTEGER,
    lpg_add_edge,
    lpg_set_property,
    rdf_insert_triple,
    serialize_ognq,
    star_annotate,
)
from og.cli import main

A, B, P = LocalId("a"), LocalId("b"), LocalId("p")


def sid(n: int) -> uuid.UUID:
    return uuid.UUID(int=n)


def one_statement_store() -> Store:
    store = Store(seed=0)
    store.insert_ground(A, P, B)
    return store


def assert_refused(store: Store, call, error) -> None:
    """``call(store)`` raises ``error`` and leaves the text and the next sid."""
    text, next_sid = serialize_ognq(store), store.copy().fresh_sid()
    with pytest.raises(error):
        call(store)
    assert serialize_ognq(store) == text
    assert store.copy().fresh_sid() == next_sid


class TestBatch:
    def test_ints_stand_for_earlier_triples_and_sids_come_in_order(self):
        store = one_statement_store()
        sids = store.insert_new([(A, P, B), (0, P, Literal("x")), (1, P, 0)])
        assert sids == [sid(2), sid(3), sid(4)]
        assert store.get(sid(3)).src == SidRef(sid(2))
        assert store.get(sid(4)).content == (SidRef(sid(3)), P, SidRef(sid(2)))

    def test_external_references_must_be_present(self):
        store = one_statement_store()
        assert store.insert_new([(SidRef(sid(1)), P, Literal("x"))]) == [sid(2)]
        assert_refused(store, lambda s: s.insert_new([(A, P, B), (SidRef(sid(9)), P, 0)]), DanglingSidError)

    @pytest.mark.parametrize("index", [1, 2, -1])
    def test_an_int_must_name_an_earlier_triple(self, index):
        batch = [(A, P, B), (index, P, Literal("x"))]
        assert_refused(one_statement_store(), lambda s: s.insert_new(batch), DanglingSidError)

    def test_a_bad_triple_late_in_the_batch_refuses_the_whole_batch(self):
        batch = [(A, P, B), (0, P, Literal("x")), (Literal("no"), P, B)]
        assert_refused(one_statement_store(), lambda s: s.insert_new(batch), PositionError)

    def test_empty_batch(self):
        store = one_statement_store()
        assert store.insert_new([]) == []
        assert store.copy().fresh_sid() == sid(2)


class TestRefusedInsertsKeepTheNextSid:
    def test_insert_ground_literal_source(self):
        assert_refused(
            one_statement_store(), lambda s: s.insert_ground(Literal("x"), P, B), PositionError
        )

    def test_insert_ground_literal_label(self):
        assert_refused(
            one_statement_store(), lambda s: s.insert_ground(A, Literal("p"), B), PositionError
        )

    def test_insert_assertion_absent_sid(self):
        store = one_statement_store()
        with pytest.raises(DanglingSidError, match=r"absent sid\(s\): \['00000000-0000-0000-0000-000000000009'\]"):
            store.insert_assertion(SidRef(sid(9)), P, Literal("x"))
        assert store.copy().fresh_sid() == sid(2)

    def test_rdf_insert_triple_literal_subject(self):
        assert_refused(
            one_statement_store(),
            lambda s: rdf_insert_triple(s, Literal("x"), Iri("urn:p"), Iri("urn:o")),
            PositionError,
        )

    def test_variant_checks_keep_their_messages(self):
        store = one_statement_store()
        with pytest.raises(PositionError, match="ground statements cannot reference"):
            store.insert_ground(SidRef(sid(1)), P, B)
        with pytest.raises(PositionError, match="must reference at least one statement"):
            store.insert_assertion(A, P, B)


class TestSeededSidsUnchanged:
    def test_edge_with_two_properties_then_annotation_of_a_multi_edge(self):
        store = Store(seed=0)
        knows = LocalId("knows")
        store.insert_ground(A, knows, B)
        store.insert_ground(A, knows, B)
        store.insert_ground(A, P, Literal("a"))
        edge = lpg_add_edge(store, "a", "b", "likes", {"since": 2020, "w": 0.5})
        assert edge == sid(4)
        assert [st.sid for st in store.statements() if st.src == SidRef(edge)] == [sid(5), sid(6)]
        assert star_annotate(store, A, knows, B, LocalId("by"), Literal("x")) == [sid(7), sid(8)]
        assert store.get(sid(7)).src == SidRef(sid(1))
        assert store.get(sid(8)).src == SidRef(sid(2))


class TestLpgSetPropertyChecksFirst:
    @pytest.fixture
    def store(self):
        """Vertex ``v`` with property ``name``, and an edge with ``since``."""
        store = Store(seed=0)
        store.insert_ground(LocalId("v"), LocalId("name"), Literal("Vee"))
        edge = store.insert_ground(LocalId("v"), LocalId("knows"), LocalId("w"))
        store.insert_assertion(SidRef(edge), LocalId("since"), Literal("2020", XSD_INTEGER))
        store.insert_ground(LocalId("w"), LocalId("name"), Literal("Dub"))
        return store

    @pytest.mark.parametrize("element", ["v", sid(2)])
    @pytest.mark.parametrize("key", ["name", "since"])
    def test_non_finite_value_deletes_nothing(self, store, element, key):
        assert_refused(
            store, lambda s: lpg_set_property(s, element, key, float("nan")), UnsupportedValueError
        )
        assert len(store) == 4

    @pytest.mark.parametrize("element", ["v", sid(2)])
    def test_bad_key_deletes_nothing(self, store, element):
        assert_refused(
            store, lambda s: lpg_set_property(s, element, "bad key", 1), UnsupportedValueError
        )

    def test_replacing_reuses_the_old_label_and_cascades(self, store):
        store.insert_assertion(SidRef(sid(1)), LocalId("by"), Literal("me"))
        new = lpg_set_property(store, "v", "name", "V")
        assert store.get(new).content == (LocalId("v"), LocalId("name"), Literal("V"))
        assert sid(1) not in store and sid(5) not in store
        new = lpg_set_property(store, sid(2), "since", 2021)
        assert store.get(new).content == (SidRef(sid(2)), LocalId("since"), Literal("2021", XSD_INTEGER))
        assert sid(3) not in store


class TestBadPropertyGraphNames:
    @pytest.mark.parametrize(
        "call",
        [
            lambda s: lpg_add_edge(s, "a", "b", "has space"),
            lambda s: lpg_add_edge(s, "a", "b", "ok", {"bad key": 1}),
            lambda s: lpg_set_property(s, "a", "bad key", 1),
        ],
        ids=["edge label", "edge property key", "set property key"],
    )
    def test_library_raises_og_error(self, call):
        assert_refused(one_statement_store(), call, UnsupportedValueError)

    @pytest.mark.parametrize(
        "args",
        [["--add-edge", "a", "b", "has space"], ["--set-property", "a", "bad key", "1"]],
        ids=["add-edge", "set-property"],
    )
    def test_cli_prints_one_error_line(self, tmp_path, capsys, args):
        path = tmp_path / "s.ognq"
        path.write_text(serialize_ognq(one_statement_store()), encoding="utf-8")
        assert main(["mutate", str(path), *args, "-o", str(tmp_path / "out.ognq")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
