"""Plain N-Triples: import always mints fresh sids, export is canonical."""

import pytest
from hypothesis import given, settings

from og import (
    Iri,
    Literal,
    ParseError,
    RDF_LANG_STRING,
    Store,
    XSD_INTEGER,
    parse_ntriples,
    rdf_view,
    serialize_ntriples,
)
from strategies import stores

TOY_NT = """\
<urn:og:local:Alice> <urn:og:local:knows> <urn:og:local:Bob> .
<urn:og:local:Alice> <urn:og:local:name> "Alice" .
<urn:og:local:Bob> <urn:og:local:name> "Bob" .
"""


class TestParse:
    def test_basic_triples(self):
        st = parse_ntriples(TOY_NT)
        assert len(st.statements()) == 3
        assert all(s.sid for s in st.statements())

    def test_blank_subjects_and_comments(self):
        st = parse_ntriples('# c\n_:n <urn:x:p> "v"@en .\n')
        (s,) = st.statements()
        assert s.value == Literal("v", RDF_LANG_STRING, language="en")

    def test_typed_literals(self):
        st = parse_ntriples('<urn:x:a> <urn:x:p> "5"^^<http://www.w3.org/2001/XMLSchema#integer> .\n')
        assert st.statements()[0].value == Literal("5", XSD_INTEGER)

    def test_each_parse_minted_fresh_sids(self):
        a = parse_ntriples(TOY_NT)
        b = parse_ntriples(TOY_NT)
        assert {s.sid for s in a.statements()}.isdisjoint({s.sid for s in b.statements()})

    @pytest.mark.parametrize(
        "doc,line",
        [
            ("<urn:x:a> <urn:x:p> .\n", 1),
            ('"lit" <urn:x:p> <urn:x:o> .\n', 1),
            ("<urn:x:a> _:b <urn:x:o> .\n", 1),
            ('<urn:x:a> <urn:x:p> "v"\n', 1),
            ("<urn:x:a> <urn:x:p> <urn:x:o> .\nJUNK\n", 2),
        ],
    )
    def test_malformed_lines_report_position(self, doc, line):
        with pytest.raises(ParseError) as e:
            parse_ntriples(doc)
        assert e.value.line == line
        assert e.value.column is not None

    @pytest.mark.parametrize(
        "doc,message,column",
        [
            ('<urn:a> <urn:b> "x\\uD800y" .\n', "bad \\u escape", 20),
            ('<urn:a> <urn:b> "\\uD83D\\uDE00" .\n', "bad \\u escape", 19),
            ("<urn:a\\uDFFF> <urn:b> <urn:c> .\n", "bad \\u escape", 8),
            ('<urn:a> <urn:b> "\\U0000DC00" .\n', "bad \\U escape", 19),
        ],
    )
    def test_an_escaped_surrogate_is_refused_at_its_escape(self, doc, message, column):
        with pytest.raises(ParseError) as e:
            parse_ntriples(doc)
        assert (str(e.value).split(" (line")[0], e.value.line, e.value.column) == (message, 1, column)

    def test_a_character_beyond_the_basic_plane_is_written_with_one_escape(self):
        (st,) = parse_ntriples('<urn:a> <urn:b> "\\U0001F600" .\n').statements()
        assert st.value == Literal("\U0001F600")


class TestSerialize:
    def test_toy_view_golden(self, toy_store):
        assert serialize_ntriples(rdf_view(toy_store)) == TOY_NT

    def test_lines_are_sorted(self, toy_store):
        lines = serialize_ntriples(rdf_view(toy_store)).splitlines()
        assert lines == sorted(lines)

    @given(stores(membership_rate=0.1))
    @settings(max_examples=60)
    def test_import_export_is_a_fixpoint(self, store):
        # after one hide-project-serialize cycle the text is stable
        text = serialize_ntriples(rdf_view(store))
        again = serialize_ntriples(rdf_view(parse_ntriples(text)))
        assert again == text
