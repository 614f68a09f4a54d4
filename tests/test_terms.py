import uuid

import pytest
from hypothesis import given
from hypothesis import strategies as st

from og import (
    BlankNode,
    Iri,
    Literal,
    LocalId,
    SID_IRI_PREFIX,
    SidFactory,
    SidRef,
    parse_sid_text,
    sid_from_iri_text,
    sid_iri,
    sid_text,
    term_key,
)
from og.terms import sid_key
from strategies import blank_nodes, iris, local_ids


FIRST_SEEDED = uuid.UUID("00000000-0000-0000-0000-000000000001")


class TestValidation:
    def test_iri_accepts_absolute(self):
        assert Iri("urn:x:1").text == "urn:x:1"
        assert Iri("http://example.org/a#b").text == "http://example.org/a#b"
        # only the scheme shape is validated; serializers escape the rest
        assert Iri("urn:x:a b").text == "urn:x:a b"

    @pytest.mark.parametrize("bad", ["", "rel/ative", "no-scheme", "has space:x", "a<b:c"])
    def test_iri_rejects(self, bad):
        with pytest.raises(ValueError):
            Iri(bad)

    def test_local_id_accepts_odd_but_legal_text(self):
        for ok in ['a', 'a.b', 'x-y', 'ä', '"', "a:b"]:
            assert LocalId(ok).text == ok

    @pytest.mark.parametrize("bad", ["", "a b", "a\tb", "a\nb", "a<b", "a>b", " "])
    def test_local_id_rejects(self, bad):
        with pytest.raises(ValueError):
            LocalId(bad)

    def test_blank_node_label_required(self):
        assert BlankNode("n1").label == "n1"
        with pytest.raises(ValueError):
            BlankNode("")

    def test_terms_are_hashable_and_frozen(self):
        t = Iri("urn:x:1")
        assert hash(t) == hash(Iri("urn:x:1"))
        with pytest.raises(AttributeError):
            t.text = "urn:x:2"


class TestSidText:
    def test_round_trip(self):
        sid = uuid.uuid4()
        assert parse_sid_text(sid_text(sid)) == sid

    def test_iri_form(self):
        sid = FIRST_SEEDED
        iri = sid_iri(sid)
        assert iri.text == SID_IRI_PREFIX + "00000000-0000-0000-0000-000000000001"
        assert sid_from_iri_text(iri.text) == sid

    def test_foreign_iri_maps_to_none(self):
        assert sid_from_iri_text("urn:x:nope") is None

    def test_malformed_uuid_under_the_prefix_is_an_error(self):
        with pytest.raises(ValueError):
            sid_from_iri_text(SID_IRI_PREFIX + "not-a-uuid")
        with pytest.raises(ValueError):
            parse_sid_text("garbage")

    def test_the_whole_text_is_the_sid(self):
        with pytest.raises(ValueError, match="not a canonical sid"):
            parse_sid_text(sid_text(FIRST_SEEDED) + "\n")


class TestSidFactory:
    def test_seeded_sequence_is_the_counter(self):
        f = SidFactory(seed=0)
        assert f.fresh() == FIRST_SEEDED
        assert f.fresh() == uuid.UUID("00000000-0000-0000-0000-000000000002")

    def test_same_seed_same_sequence(self):
        a, b = SidFactory(seed=7), SidFactory(seed=7)
        assert [a.fresh() for _ in range(5)] == [b.fresh() for _ in range(5)]

    def test_reserve_prevents_reuse(self):
        f = SidFactory(seed=0)
        f.reserve(FIRST_SEEDED)
        assert f.fresh() != FIRST_SEEDED

    def test_unseeded_is_unique(self):
        f = SidFactory()
        out = {f.fresh() for _ in range(100)}
        assert len(out) == 100


class TestOrdering:
    def test_kind_ranks(self):
        sid = uuid.uuid4()
        ordered = [Iri("urn:x:1"), LocalId("a"), BlankNode("b"), SidRef(sid), Literal("x")]
        assert sorted(reversed(ordered), key=term_key) == ordered

    def test_a_non_term_has_no_key(self):
        with pytest.raises(TypeError, match="not a term: 5"):
            term_key(5)

    @given(iris, iris)
    def test_key_equal_iff_terms_equal(self, a, b):
        assert (term_key(a) == term_key(b)) == (a == b)

    @given(local_ids, blank_nodes)
    def test_locals_before_blanks(self, l, b):
        assert term_key(l) < term_key(b)

    @given(st.one_of(
        st.lists(st.uuids(version=4)),
        st.lists(st.integers(0, 2**128 - 1).map(lambda n: uuid.UUID(int=n))),
        st.integers(0, 2**64).flatmap(
            lambda start: st.permutations([uuid.UUID(int=start + i) for i in range(12)])
        ),
    ))
    def test_the_sid_key_orders_as_uuids_and_as_their_text(self, sids):
        by_key = sorted(sids, key=sid_key)
        assert by_key == sorted(sids) == sorted(sids, key=str)
        refs = [SidRef(s) for s in sids]
        assert [r.sid for r in sorted(refs, key=term_key)] == by_key
