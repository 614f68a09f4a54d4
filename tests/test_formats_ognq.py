"""The sid-carrying wire format: lossless, order-insensitive, line-based."""

import uuid

import pytest
from hypothesis import given, settings

from og import (
    BlankNode,
    DanglingSidError,
    Iri,
    Literal,
    LocalId,
    ParseError,
    RDF_LANG_STRING,
    SidRef,
    Store,
    XSD_INTEGER,
    parse_ognq,
    parse_term_text,
    serialize_ognq,
)
from og.formats.common import render_term
from strategies import stores

TOY_DOC = """\
local:"Alice" local:"knows" local:"Bob" <urn:og:sid:00000000-0000-0000-0000-000000000001> .
local:"Alice" local:"name" "Alice" <urn:og:sid:00000000-0000-0000-0000-000000000002> .
local:"Bob" local:"name" "Bob" <urn:og:sid:00000000-0000-0000-0000-000000000003> .
<urn:og:sid:00000000-0000-0000-0000-000000000001> local:"since" "2020"^^<http://www.w3.org/2001/XMLSchema#integer> <urn:og:sid:00000000-0000-0000-0000-000000000004> .
"""


class TestSerialize:
    def test_toy_store_golden(self, toy_store):
        assert serialize_ognq(toy_store) == TOY_DOC

    def test_statements_come_out_in_sid_order(self, toy_store):
        lines = serialize_ognq(toy_store).splitlines()
        assert [l.rsplit("<urn:og:sid:", 1)[1][:36] for l in lines] == [
            f"00000000-0000-0000-0000-{n:012d}" for n in (1, 2, 3, 4)
        ]

    def test_reserved_namespace_refuses_plain_iris(self):
        # the store refuses such an IRI (tests/test_store.py::TestSidNamespace),
        # so the renderer's own refusal is checked on the term
        with pytest.raises(ValueError):
            render_term(Iri("urn:og:sid:00000000-0000-0000-0000-00000000beef"), ognq=True)

    @pytest.mark.parametrize(
        "term,message",
        [
            (SidRef(uuid.UUID(int=1)), "sid references are not representable"),
            (LocalId("a"), "local identifiers are not representable"),
            (5, "not a term"),
        ],
    )
    def test_other_formats_have_no_token_for_some_terms(self, term, message):
        with pytest.raises(ValueError, match=message):
            render_term(term)


class TestParse:
    def test_toy_document(self, toy_store):
        assert set(parse_ognq(TOY_DOC).statements()) == set(toy_store.statements())

    def test_comments_and_blank_lines(self):
        doc = "# heading\n\n" + TOY_DOC
        assert len(parse_ognq(doc).statements()) == 4

    def test_forward_references(self):
        doc = (
            '<urn:og:sid:00000000-0000-0000-0000-000000000002> local:"q" "x"'
            " <urn:og:sid:00000000-0000-0000-0000-000000000001> .\n"
            'local:"a" local:"p" local:"b" <urn:og:sid:00000000-0000-0000-0000-000000000002> .\n'
        )
        st = parse_ognq(doc)
        assert len(st.statements()) == 2

    def test_duplicate_sid_reports_the_line(self):
        line = 'local:"a" local:"p" local:"b" <urn:og:sid:00000000-0000-0000-0000-000000000001> .\n'
        with pytest.raises(ParseError) as e:
            parse_ognq(line * 2)
        assert e.value.line == 2

    def test_dangling_reference(self):
        doc = (
            '<urn:og:sid:00000000-0000-0000-0000-00000000dead> local:"p" "x"'
            " <urn:og:sid:00000000-0000-0000-0000-000000000001> .\n"
        )
        with pytest.raises(DanglingSidError):
            parse_ognq(doc)

    def test_literal_subject_is_rejected(self):
        with pytest.raises(ParseError) as e:
            parse_ognq('"lit" local:"p" "x" <urn:og:sid:00000000-0000-0000-0000-000000000002> .\n')
        assert e.value.line == 1

    def test_junk_reports_position(self):
        with pytest.raises(ParseError) as e:
            parse_ognq(TOY_DOC + "JUNK\n")
        assert e.value.line == 5

    def test_document_blanks_are_renamed_apart_from_store_blanks(self):
        base = Store(seed=5)
        base.insert_ground(BlankNode("n"), LocalId("p"), Literal("old"))
        parse_ognq('_:n local:"q" "new" <urn:og:sid:00000000-0000-0000-0000-000000000009> .\n', store=base)
        labels = {
            t.label for s in base.statements() for t in (s.src, s.value) if isinstance(t, BlankNode)
        }
        assert labels == {"n", "n_1"}

    def test_escapes_round_trip(self):
        st = Store(seed=0)
        st.insert_ground(LocalId('has"quote'), LocalId("p"), Literal("line\nbreak\tand\\slash"))
        st.insert_ground(LocalId("x"), LocalId("p"), Literal("ünïcode", RDF_LANG_STRING, language="de"))
        again = parse_ognq(serialize_ognq(st))
        assert set(again.statements()) == set(st.statements())


class TestRoundTrip:
    @given(stores(membership_rate=0.15))
    @settings(max_examples=80)
    def test_parse_of_serialize_is_the_identity(self, store):
        again = parse_ognq(serialize_ognq(store))
        assert set(again.statements()) == set(store.statements())

    @given(stores(max_statements=8))
    @settings(max_examples=40)
    def test_serialization_is_stable(self, store):
        text = serialize_ognq(store)
        assert serialize_ognq(parse_ognq(text)) == text


class TestTermText:
    @pytest.mark.parametrize(
        "token,expected",
        [
            ("<urn:x:1>", Iri("urn:x:1")),
            ('local:"a"', LocalId("a")),
            ("_:b1", BlankNode("b1")),
            ('"lit"@en', Literal("lit", RDF_LANG_STRING, language="en")),
            ('"1"^^<http://www.w3.org/2001/XMLSchema#integer>', Literal("1", XSD_INTEGER)),
        ],
    )
    def test_token_shapes(self, token, expected):
        assert parse_term_text(token) == expected

    def test_sid_iris_become_refs(self):
        t = parse_term_text("<urn:og:sid:00000000-0000-0000-0000-000000000001>")
        assert isinstance(t, SidRef)

    @pytest.mark.parametrize("bad", ["garbage", '"unterminated', "<urn:x:1> extra", ""])
    def test_rejects_with_diagnostics(self, bad):
        with pytest.raises(ParseError):
            parse_term_text(bad)
