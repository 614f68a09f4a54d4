"""Term rules shared by the text formats: bare literals, scanner errors and
blank-label rename-apart."""

import pytest

from og import (
    BlankNode,
    Iri,
    Literal,
    ParseError,
    Store,
    XSD_BOOLEAN,
    XSD_DECIMAL,
    XSD_DOUBLE,
    XSD_INTEGER,
    parse_ntriples,
    parse_ognq,
    parse_turtle_star,
)
from og.formats.common import bare_literal

P = Iri("urn:x:p")


class TestBareLiteral:
    @pytest.mark.parametrize(
        "token,datatype",
        [
            ("5", XSD_INTEGER), ("-07", XSD_INTEGER), ("+0", XSD_INTEGER),
            ("5.5", XSD_DECIMAL), (".5", XSD_DECIMAL), ("-.5", XSD_DECIMAL),
            ("5.5E0", XSD_DOUBLE), ("5.e3", XSD_DOUBLE), (".5e-3", XSD_DOUBLE), ("5E+3", XSD_DOUBLE),
            ("true", XSD_BOOLEAN), ("false", XSD_BOOLEAN),
        ],
    )
    def test_turtle_shorthand(self, token, datatype):
        assert bare_literal(token) == Literal(token, datatype)

    @pytest.mark.parametrize("token", ["", "5.", "+", "e3", "5e", "1.2.3", "5\n", "True", "INF", "NaN", "٣", " 5"])
    def test_anything_else_is_not_bare(self, token):
        assert bare_literal(token) is None


def _parse(fmt: str, triples: list[tuple[str, str]], store: Store) -> None:
    """Parse blank-node triples ``_:s <urn:x:q> _:o`` in one of the text formats."""
    lines = [f"_:{s} <urn:x:q> _:{o}" for s, o in triples]
    if fmt == "ognq":
        lines = [f"{line} <urn:og:sid:00000000-0000-0000-0000-{900 + i:012d}>" for i, line in enumerate(lines)]
    parse = {"ognq": parse_ognq, "ntriples": parse_ntriples, "ttls": parse_turtle_star}[fmt]
    parse("".join(line + " .\n" for line in lines), store)


class TestRenameApart:
    @pytest.mark.parametrize("fmt", ["ognq", "ntriples", "ttls"])
    @pytest.mark.parametrize(
        "in_store,doc,want",
        [
            (["x"], [("b", "b_1")], [("b", "b_1")]),
            (["b"], [("b", "b_1")], [("b_2", "b_1")]),
            (["b", "b_1"], [("b", "b_1")], [("b_2", "b_1_1")]),
            (["b", "b_2"], [("b", "c"), ("c", "b_1")], [("b_3", "c"), ("c", "b_1")]),
            (["a", "c"], [("c", "a"), ("a", "a_1")], [("c_1", "a_2"), ("a_2", "a_1")]),
        ],
    )
    def test_formats_rename_alike(self, fmt, in_store, doc, want):
        store = Store(seed=0)
        for label in in_store:
            store.insert_ground(BlankNode(label), P, Literal("x"))
        before = {st.content for st in store.statements()}
        _parse(fmt, doc, store)
        added = {st.content for st in store.statements()} - before
        assert added == {(BlankNode(s), Iri("urn:x:q"), BlankNode(o)) for s, o in want}


class TestScannerErrors:
    @pytest.mark.parametrize(
        "term,message,column",
        [
            ("<urn:x:a b>", "character ' ' must be escaped inside an IRI", 29),
            ("<urn:x:\\n>", "only \\u and \\U escapes are allowed in IRIs", 29),
            ("<urn:x:a", "unterminated IRI", 29),
            ('"a\\qb"', "unknown escape \\q", 24),
            ('"\\u00"', "bad \\u escape", 23),
        ],
    )
    def test_formats_report_the_offending_column(self, term, message, column):
        for parse in (parse_ntriples, parse_turtle_star):
            with pytest.raises(ParseError) as e:
                parse(f"<urn:x:s> <urn:x:p> {term}\n")
            assert (str(e.value).split(" (line")[0], e.value.line, e.value.column) == (message, 1, column)
