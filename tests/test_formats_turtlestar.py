"""Turtle subset with quoted triples; content-keyed against the store."""

import uuid

import pytest
from hypothesis import given, settings

from og import (
    Iri,
    Literal,
    LocalId,
    ParseError,
    QuotedTriple,
    RdfStarGraph,
    SidRef,
    Store,
    XSD_BOOLEAN,
    XSD_DECIMAL,
    XSD_DOUBLE,
    XSD_INTEGER,
    XSD_STRING,
    parse_ntriples,
    parse_turtle_star,
    rdf_star_view,
    serialize_ognq,
    serialize_turtle_star,
)
from strategies import stores

TOY_TTLS = """\
<urn:og:local:Alice> <urn:og:local:knows> <urn:og:local:Bob> .
<urn:og:local:Alice> <urn:og:local:name> "Alice" .
<urn:og:local:Bob> <urn:og:local:name> "Bob" .
<< <urn:og:local:Alice> <urn:og:local:knows> <urn:og:local:Bob> >> <urn:og:local:since> 2020 .
"""


class TestParse:
    def test_bare_literal_shorthands(self):
        st = parse_turtle_star('<urn:x:a> <urn:x:p> 5, 5.5, 5.5E0, true, "s" .\n')
        datatypes = {s.value.datatype for s in st.statements()}
        assert datatypes == {XSD_INTEGER, XSD_DECIMAL, XSD_DOUBLE, XSD_BOOLEAN, XSD_STRING}

    def test_prefixes_and_keyword_a(self):
        doc = "PREFIX ex: <urn:x:>\n@prefix : <urn:y:> .\nex:s a :T ; ex:p \"v\" ;\n.\n"
        st = parse_turtle_star(doc)
        labels = {s.label for s in st.statements()}
        assert Iri("http://www.w3.org/1999/02/22-rdf-syntax-ns#type") in labels
        assert {s.src for s in st.statements()} == {Iri("urn:x:s")}
        assert Iri("urn:y:T") in {s.value for s in st.statements()}

    def test_semicolon_and_comma_lists(self):
        st = parse_turtle_star('<urn:x:s> <urn:x:p> "a", "b" ; <urn:x:q> "c" .\n')
        assert len(st.statements()) == 3

    def test_set_semantics(self):
        st = parse_turtle_star('<urn:x:a> <urn:x:p> "v" .\n<urn:x:a> <urn:x:p> "v" .\n')
        assert len(st.statements()) == 1

    def test_quoted_triple_annotates_existing_statement(self):
        st = Store(seed=0)
        e1 = st.insert_ground(Iri("urn:x:a"), Iri("urn:x:k"), Iri("urn:x:b"))
        st.insert_ground(Iri("urn:x:a"), Iri("urn:x:k"), Iri("urn:x:b"))
        parse_turtle_star('<< <urn:x:a> <urn:x:k> <urn:x:b> >> <urn:x:since> 2020 .\n', store=st)
        annotations = [s for s in st.statements() if isinstance(s.src, SidRef)]
        assert len(annotations) == 1
        assert annotations[0].src.sid == e1  # bound to the least of the two sids

    def test_quoted_triple_creates_missing_statement(self):
        st = parse_turtle_star('<< <urn:x:a> <urn:x:k> <urn:x:b> >> <urn:x:since> 2020 .\n')
        kinds = sorted(type(s.src).__name__ for s in st.statements())
        assert kinds == ["Iri", "SidRef"]

    def test_nested_quotes(self):
        doc = '<< << <urn:x:a> <urn:x:k> <urn:x:b> >> <urn:x:since> 2020 >> <urn:x:sure> true .\n'
        st = parse_turtle_star(doc)
        assert len(st.statements()) == 3

    def test_blank_labels_survive_on_a_fresh_store(self):
        st = parse_turtle_star("_:n <urn:x:p> _:m .\n")
        (s,) = st.statements()
        assert (s.src.label, s.value.label) == ("n", "m")

    @pytest.mark.parametrize(
        "doc,needle",
        [
            ('ex:s <urn:x:p> "v" .\n', "undeclared prefix"),
            ("@base <urn:x:> .\n", "base"),
            ("BASE <urn:x:>\n", "BASE"),
            ('"lit" <urn:x:p> <urn:x:o> .\n', "literal"),
            ("<urn:x:s> <urn:x:p> .\n", "term"),
            ("<urn:x:s> <urn:x:p> (1 2) .\n", ""),
            ("<< <urn:x:a> <urn:x:k> >> <urn:x:p> 1 .\n", ""),
            ("<urn:x:s> <urn:x:p> +.x .\n", "bad number"),
            ("@prefix ex:a <urn:x:> .\n", "bare 'label:'"),
            ("@prefix ex: <rel/> .\nex:s <urn:x:p> 1 .\n", "absolute"),
            ('<urn:x:s> <urn:x:p> "v"^^"t" .\n', "expected a datatype IRI"),
            ("<urn:x:s> <urn:x:p> <urn:x:o> @prefix ex: <urn:x:> .\n", "found 'prefix' (line 1, column 31)"),
            ("<urn:x:s> <urn:x:p> <urn:x:o> PREFIX ex: <urn:x:>\n", "found 'prefix' (line 1, column 31)"),
            ('<urn:a> <urn:b> "x\\uD800y" .\n', "bad \\u escape (line 1, column 20)"),
            ('<< <urn:a> <urn:b> "\\uDE00\\uD83D" >> <urn:p> 1 .\n', "bad \\u escape (line 1, column 22)"),
            ("@prefix ex: <urn:x\\U0000D800> .\n", "bad \\U escape (line 1, column 20)"),
        ],
    )
    def test_rejections_carry_position(self, doc, needle):
        with pytest.raises(ParseError) as e:
            parse_turtle_star(doc)
        assert needle in str(e.value)
        assert e.value.line is not None


SID = "urn:og:sid:00000000-0000-0000-0000-000000000001"


class TestSidNamespace:
    """Sid IRIs name statements only in OG-NQ: Turtle-star refuses one in a
    triple at parse time, as N-Triples does, rather than store what
    ``serialize_ognq`` cannot write."""

    @pytest.mark.parametrize(
        "line, column",
        [
            (f"<{SID}> <urn:x:p> <urn:x:o> .", 1),
            (f"<urn:x:s> <{SID}> <urn:x:o> .", 11),
            (f"<urn:x:s> <urn:x:p> <{SID}> .", 21),
        ],
    )
    def test_refused_like_ntriples(self, line, column):
        for parse in (parse_turtle_star, parse_ntriples):
            store = Store(seed=0)
            with pytest.raises(ParseError) as e:
                parse(f'<urn:x:a> <urn:x:p> "1" .\n{line}\n', store)
            assert (str(e.value), e.value.line, e.value.column) == (
                f"the urn:og:sid: namespace is reserved (line 2, column {column})", 2, column)
            assert len(store) == 0

    @pytest.mark.parametrize(
        "doc, line, column",
        [
            (f"<urn:x:s> <urn:x:p> <urn:x:o> , <{SID}> .\n", 1, 33),
            (f"<urn:x:s> <urn:x:p> <{SID[:-1]}\\u0031> .\n", 1, 21),
            (f"<< <urn:x:s> <urn:x:p> <{SID}> >> <urn:x:q> 1 .\n", 1, 24),
            (f"<urn:x:s> <urn:x:p> << <urn:x:s> <{SID}> 1 >> .\n", 1, 34),
            ("PREFIX sid: <urn:og:sid:>\n<urn:x:s> <urn:x:p> sid:x .\n", 2, 21),
            ("@prefix sid: <urn:og:sid:> .\nsid:x a <urn:x:T> .\n", 2, 1),
        ],
    )
    def test_refused_in_quoted_triples_and_prefixed_names(self, doc, line, column):
        with pytest.raises(ParseError) as e:
            parse_turtle_star(doc)
        assert (str(e.value), e.value.line, e.value.column) == (
            f"the urn:og:sid: namespace is reserved (line {line}, column {column})", line, column)

    def test_a_datatype_may_name_the_namespace(self):
        line = f'<urn:x:s> <urn:x:p> "v"^^<{SID}> .\n'
        want = Literal("v", Iri(SID))
        assert parse_ntriples(line).statements()[0].value == want
        assert parse_turtle_star(line).statements()[0].value == want
        assert want in {st.value for st in parse_turtle_star(line.replace(" .", ' , "w" .'))}


class TestAtomicParse:
    @pytest.mark.parametrize(
        "doc",
        [
            "<urn:x:a> <urn:x:p> _:n .\n<urn:x:a> <urn:x:p> <urn:x:b c> .\n",
            "<< <urn:x:a> <urn:x:p> 1 >> <urn:x:q> _:m .\nex:a <urn:x:p> 1 .\n",
        ],
    )
    @pytest.mark.parametrize("filled", [False, True])
    def test_a_failed_parse_leaves_the_store_unchanged(self, doc, filled):
        store, twin = Store(seed=0), Store(seed=0)
        if filled:
            for st in (store, twin):
                parse_turtle_star("_:n <urn:x:p> <urn:x:a> .\n<urn:x:a> <urn:x:p> 1 .\n", st)
        before = serialize_ognq(store)
        with pytest.raises(ParseError) as e:
            parse_turtle_star(doc, store)
        assert e.value.line == 2
        assert serialize_ognq(store) == before
        assert store.fresh_sid() == twin.fresh_sid()


class TestSerialize:
    def test_toy_view_golden(self, toy_store):
        assert serialize_turtle_star(rdf_star_view(toy_store)) == TOY_TTLS

    def test_prefixes_header(self, toy_store):
        out = serialize_turtle_star(rdf_star_view(toy_store), prefixes={"og": "urn:og:local:"})
        assert out.startswith("@prefix og: <urn:og:local:> .\n\n")
        assert "og:Alice og:knows og:Bob .\n" in out
        assert "<< og:Alice og:knows og:Bob >> og:since 2020 .\n" in out

    def test_unsafe_suffixes_fall_back_to_full_iris(self):
        g = RdfStarGraph(triples=frozenset({(Iri("urn:x:a/b"), Iri("urn:x:p"), Literal("v"))}))
        out = serialize_turtle_star(g, prefixes={"x": "urn:x:"})
        assert "<urn:x:a/b>" in out  # '/' is not a safe local-name character

    def test_non_canonical_numbers_keep_their_lexical_form(self):
        st = Store(seed=0)
        st.insert_ground(Iri("urn:x:a"), Iri("urn:x:p"), Literal("0020", XSD_INTEGER))
        out = serialize_turtle_star(rdf_star_view(st))
        assert out == "<urn:x:a> <urn:x:p> 0020 .\n"
        back = parse_turtle_star(out)
        assert back.statements()[0].value == Literal("0020", XSD_INTEGER)

    @pytest.mark.parametrize("lexical", ["5.e3", "5.E0"])
    def test_bare_doubles_read_back_unchanged(self, lexical):
        lit = Literal(lexical, XSD_DOUBLE)
        g = RdfStarGraph(triples=frozenset({(Iri("urn:x:a"), Iri("urn:x:p"), lit)}))
        out = serialize_turtle_star(g)
        assert out == f"<urn:x:a> <urn:x:p> {lexical} .\n"
        assert parse_turtle_star(out).statements()[0].value == lit

    def test_unexposed_local_ids_are_refused(self):
        g = RdfStarGraph(triples=frozenset({(LocalId("a"), Iri("urn:x:p"), Literal("v"))}))
        with pytest.raises(ValueError):
            serialize_turtle_star(g)

    def test_sid_references_and_quoted_local_ids_are_refused(self):
        ref = SidRef(uuid.UUID(int=1))
        for triple in [
            (ref, Iri("urn:x:p"), Literal("v")),
            (QuotedTriple(Iri("urn:x:a"), Iri("urn:x:p"), ref), Iri("urn:x:q"), Literal("v")),
            (QuotedTriple(LocalId("a"), Iri("urn:x:p"), Literal("v")), Iri("urn:x:q"), Literal("v")),
        ]:
            with pytest.raises(ValueError):
                serialize_turtle_star(RdfStarGraph(triples=frozenset({triple})))


class TestRoundTrip:
    @given(stores(membership_rate=0.1))
    @settings(max_examples=60)
    def test_parse_serialize_parse_is_stable(self, store):
        text = serialize_turtle_star(rdf_star_view(store))
        once = parse_turtle_star(text)
        assert rdf_star_view(once).triples == rdf_star_view(store).triples
        again = parse_turtle_star(serialize_turtle_star(rdf_star_view(once)))
        assert rdf_star_view(again).triples == rdf_star_view(once).triples
