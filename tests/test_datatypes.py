"""Literal construction, validation tables, list folding, LPG coercion."""

import dataclasses
import math
import time
from decimal import Decimal

import pytest
from hypothesis import given
from hypothesis import strategies as st

from og import (
    CoercionTally,
    Iri,
    Literal,
    OG_LIST,
    ParseError,
    RDF_LANG_STRING,
    UnsupportedValueError,
    WrongDatatypeError,
    XSD_BOOLEAN,
    XSD_DATE,
    XSD_DATETIME,
    XSD_DECIMAL,
    XSD_DOUBLE,
    XSD_INTEGER,
    XSD_STRING,
    coerce_lpg_value,
    coerce_to_lpg,
    list_fold,
    list_unfold,
    validate,
)
from strategies import scalar_lists


class TestLiteralConstruction:
    def test_defaults_to_string(self):
        l = Literal("hi")
        assert l.datatype == XSD_STRING and l.language is None and l.well_typed

    def test_language_requires_lang_string(self):
        with pytest.raises(ValueError):
            Literal("x", XSD_STRING, language="en")

    def test_lang_string_requires_language(self):
        with pytest.raises(ValueError):
            Literal("x", RDF_LANG_STRING)

    def test_well_typed_is_derived(self):
        assert not Literal("zz", XSD_INTEGER).well_typed
        assert Literal("42", XSD_INTEGER).well_typed
        assert Literal("??", Iri("urn:x:odd")).well_typed  # unknown types trusted

    def test_equality_covers_all_fields(self):
        assert Literal("1", XSD_INTEGER) != Literal("1", XSD_DECIMAL)
        assert Literal("a", RDF_LANG_STRING, language="en") != Literal(
            "a", RDF_LANG_STRING, language="de"
        )

    def test_well_typed_is_derived_so_equality_and_hash_skip_it(self):
        compared = [f.name for f in dataclasses.fields(Literal) if f.compare]
        assert compared == ["lexical", "datatype", "language"]


# One row per line: (lexical, datatype, verdict). Covers the accepted grammar
# and the rejections around each of its edges.
VALIDATE_TABLE = [
    # integers
    ("0", XSD_INTEGER, True),
    ("-0", XSD_INTEGER, True),
    ("007", XSD_INTEGER, True),
    ("+5", XSD_INTEGER, True),
    ("-123456789012345678901234567890", XSD_INTEGER, True),
    ("1.0", XSD_INTEGER, False),
    ("1_000", XSD_INTEGER, False),
    ("", XSD_INTEGER, False),
    (" 1", XSD_INTEGER, False),
    ("+", XSD_INTEGER, False),
    ("0x10", XSD_INTEGER, False),
    # decimals
    ("5", XSD_DECIMAL, True),
    ("5.", XSD_DECIMAL, True),
    (".5", XSD_DECIMAL, True),
    ("-.5", XSD_DECIMAL, True),
    ("+5.25", XSD_DECIMAL, True),
    (".", XSD_DECIMAL, False),
    ("1e2", XSD_DECIMAL, False),
    ("1,5", XSD_DECIMAL, False),
    # doubles
    ("1.5E3", XSD_DOUBLE, True),
    ("-2.0e-2", XSD_DOUBLE, True),
    (".5e1", XSD_DOUBLE, True),
    ("1.", XSD_DOUBLE, True),
    ("5", XSD_DOUBLE, True),
    ("INF", XSD_DOUBLE, True),
    ("+INF", XSD_DOUBLE, True),
    ("-INF", XSD_DOUBLE, True),
    ("NaN", XSD_DOUBLE, True),
    ("inf", XSD_DOUBLE, False),
    ("nan", XSD_DOUBLE, False),
    ("Infinity", XSD_DOUBLE, False),
    ("1E", XSD_DOUBLE, False),
    ("E5", XSD_DOUBLE, False),
    # booleans: exactly four lexical forms
    ("true", XSD_BOOLEAN, True),
    ("false", XSD_BOOLEAN, True),
    ("1", XSD_BOOLEAN, True),
    ("0", XSD_BOOLEAN, True),
    ("TRUE", XSD_BOOLEAN, False),
    ("True", XSD_BOOLEAN, False),
    ("yes", XSD_BOOLEAN, False),
    ("", XSD_BOOLEAN, False),
    # dates, including the calendar and timezone edges
    ("2020-01-01", XSD_DATE, True),
    ("0000-01-01", XSD_DATE, True),
    ("-0500-01-01", XSD_DATE, True),
    ("2020-02-29", XSD_DATE, True),
    ("2000-02-29", XSD_DATE, True),
    ("2020-01-01Z", XSD_DATE, True),
    ("2020-01-01+05:00", XSD_DATE, True),
    ("2021-02-29", XSD_DATE, False),
    ("1900-02-29", XSD_DATE, False),
    ("2020-04-31", XSD_DATE, False),
    ("2020-13-01", XSD_DATE, False),
    ("2020-1-1", XSD_DATE, False),
    ("2020-01-01 ", XSD_DATE, False),
    # dateTimes, including the 24:00 special case
    ("2020-01-01T00:00:00", XSD_DATETIME, True),
    ("2020-01-01T12:30:59Z", XSD_DATETIME, True),
    ("2020-01-01T12:00:00.5-14:00", XSD_DATETIME, True),
    ("2020-01-01T24:00:00", XSD_DATETIME, True),
    ("2020-01-01T24:00:01", XSD_DATETIME, False),
    ("2020-01-01T23:59:60", XSD_DATETIME, False),
    ("2020-01-01T12:30", XSD_DATETIME, False),
    ("2020-01-01", XSD_DATETIME, False),
    ("2020-01-01T12:30:59+15:00", XSD_DATETIME, False),
    ("2020-01-01T12:30:59+14:01", XSD_DATETIME, False),
    # composite lists
    ("[]", OG_LIST, True),
    ("[1, 2]", OG_LIST, True),
    ("[1,2]", OG_LIST, True),
    ('["a"]', OG_LIST, True),
    ("[true, 1.5]", OG_LIST, True),
    ("[[1]]", OG_LIST, False),
    ("nope", OG_LIST, False),
    # strings accept anything
    ("", XSD_STRING, True),
    ("anything\n at all", XSD_STRING, True),
    # unknown datatypes are trusted
    ("??", Iri("urn:x:custom"), True),
    # a year of five digits or more has no leading zero
    ("01999-01-01", XSD_DATE, False),
    # the whole form, not the form up to a final newline
    ("1\n", XSD_INTEGER, False),
    ("1\n", XSD_DECIMAL, False),
    ("1\n", XSD_DOUBLE, False),
    ("2020-01-01\n", XSD_DATE, False),
    ("2020-01-01T00:00:00\n", XSD_DATETIME, False),
]


@pytest.mark.parametrize("lexical,datatype,expected", VALIDATE_TABLE)
def test_validate_table(lexical, datatype, expected):
    assert validate(lexical, datatype) is expected


class TestListFold:
    def test_golden_lexical_form(self):
        assert list_fold([1, 2, 3]).lexical == "[1, 2, 3]"
        assert list_fold([1, 2, 3]).datatype == OG_LIST

    def test_empty(self):
        assert list_fold([]).lexical == "[]"
        assert list_unfold(list_fold([])) == []

    def test_floats_render_with_a_fraction_digit(self):
        assert list_fold([0.0]).lexical == "[0.0]"
        assert list_fold([2.5, -1.25]).lexical == "[2.5, -1.25]"

    def test_strings_are_escaped(self):
        folded = list_fold(['a"b\\c'])
        assert folded.lexical == '["a\\"b\\\\c"]'
        assert list_unfold(folded) == ['a"b\\c']

    def test_decimals_are_canonicalized(self):
        assert list_fold([Decimal("1E+5")]).lexical == "[100000.0]"
        assert list_fold([Decimal("5")]).lexical == "[5.0]"

    def test_bool_and_int_stay_distinct(self):
        out = list_unfold(list_fold([True, 1]))
        assert out == [True, 1]
        assert [type(v) for v in out] == [bool, int]

    def test_nested_lists_are_rejected(self):
        with pytest.raises(UnsupportedValueError):
            list_fold([[1], 2])

    def test_non_finite_decimals_are_rejected(self):
        with pytest.raises(UnsupportedValueError, match="finite"):
            list_fold([Decimal("NaN")])

    def test_unfold_requires_the_list_datatype(self):
        with pytest.raises(WrongDatatypeError):
            list_unfold(Literal("[1]", XSD_STRING))

    def test_unfold_rejects_bad_lexical_with_a_diagnostic(self):
        with pytest.raises(ParseError):
            list_unfold(Literal("[1, 2", OG_LIST))

    @given(scalar_lists)
    def test_fold_unfold_inverse(self, xs):
        folded = list_fold(xs)
        out = list_unfold(folded)
        assert len(out) == len(xs)
        for orig, back in zip(xs, out):
            if isinstance(orig, float):
                assert back == Decimal(repr(orig))
            else:
                assert type(back) is type(orig)
                assert back == orig
        # refolding is byte-stable
        assert list_fold(out) == folded


# The list grammar, drawn: each item's spelling with the value it reads as.
LIST_ESCAPES = {'\\"': '"', "\\\\": "\\", "\\n": "\n", "\\r": "\r", "\\t": "\t"}
list_ws = st.lists(st.sampled_from([" ", "\t", "\n", "\r", "\r\n"]), max_size=3).map("".join)
digits = st.text("0123456789", min_size=1, max_size=6)


@st.composite
def list_items(draw):
    kind = draw(st.sampled_from(["text", "bool", "integer", "decimal"]))
    if kind == "text":
        plain = st.characters(exclude_categories=("Cs",), exclude_characters='"\\')
        parts = draw(st.lists(st.one_of(st.sampled_from(sorted(LIST_ESCAPES)), plain), max_size=8))
        return '"' + "".join(parts) + '"', "".join(LIST_ESCAPES.get(p, p) for p in parts)
    if kind == "bool":
        value = draw(st.booleans())
        return str(value).lower(), value
    sign = draw(st.sampled_from(["", "+", "-"]))
    if kind == "integer":
        text = sign + draw(digits)
        return text, int(text)
    whole, fraction = draw(st.one_of(
        st.tuples(digits, st.one_of(st.just(""), digits)),  # 1. and 1.5
        st.tuples(st.just(""), digits),  # .5
    ))
    text = f"{sign}{whole}.{fraction}"
    return text, Decimal(text)


@st.composite
def list_spellings(draw):
    items = draw(st.lists(list_items(), max_size=5))
    body = ",".join(draw(list_ws) + text + draw(list_ws) for text, _ in items) if items else draw(list_ws)
    return draw(list_ws) + "[" + body + "]" + draw(list_ws), [value for _, value in items]


def typed(values):
    return [(type(v), repr(v)) for v in values]


class TestListGrammar:
    @pytest.mark.parametrize(
        "text,values",
        [
            ("[]", []),
            (" \r\n[ \t\r\n]\n", []),
            ("[+1, 1., .5, -0.0, 007]", [1, Decimal("1."), Decimal(".5"), Decimal("-0.0"), 7]),
            ('["\\"", "\\\\", "\\n", "\\r", "\\t"]', ['"', "\\", "\n", "\r", "\t"]),
            ('[true,false , "a,b]"]', [True, False, "a,b]"]),
        ],
    )
    def test_spellings(self, text, values):
        assert typed(list_unfold(Literal(text, OG_LIST))) == typed(values)

    @given(list_spellings())
    def test_drawn_spellings_read_as_drawn(self, spelled):
        text, values = spelled
        literal = Literal(text, OG_LIST)
        assert validate(text, OG_LIST) and literal.well_typed
        assert typed(list_unfold(literal)) == typed(values)
        assert typed(coerce_to_lpg(literal)) == typed(float(v) if isinstance(v, Decimal) else v for v in values)

    @pytest.mark.parametrize(
        "text",
        ["[1, 2", "[1,]", "[,]", '["\\x"]', '["abc]', '["abc', "[1.2.3]", "[truex]", "[1] x", "", "[+]", "[.]"],
    )
    def test_corruptions_are_refused(self, text):
        assert validate(text, OG_LIST) is False
        with pytest.raises(ParseError) as e:
            list_unfold(Literal(text, OG_LIST))
        assert repr(text) in str(e.value)

    # Shapes that make a backtracking reader quadratic, each read well under
    # the bound in linear time.
    @pytest.mark.parametrize(
        "text,accepted",
        [
            ("[" + " " * 200_000 + "1" + " " * 200_000 + "x]", False),
            ("[" + ", ".join(["1"] * 100_000) + "]", True),
            ("[" + ", ".join(["1"] * 100_000), False),
            ('["' + "a" * 1_000_000 + '"]', True),
            ('["' + "a\\n" * 300_000, False),
            ("[" + "7" * 200_000 + "..]", False),
        ],
        ids=["whitespace-bomb", "100k-items", "100k-items-open", "1MB-string", "open-string", "digits-dot-dot"],
    )
    def test_reading_stays_linear(self, text, accepted):
        start = time.perf_counter()
        assert validate(text, OG_LIST) is accepted
        try:
            list_unfold(Literal(text, OG_LIST))
        except ParseError:
            assert not accepted
        assert time.perf_counter() - start < 2.0


class TestCoerceLpgValue:
    def test_native_scalars(self):
        assert coerce_lpg_value(True) == Literal("true", XSD_BOOLEAN)
        assert coerce_lpg_value(42) == Literal("42", XSD_INTEGER)
        assert coerce_lpg_value("x") == Literal("x", XSD_STRING)
        assert coerce_lpg_value(Decimal("1.5")) == Literal("1.5", XSD_DECIMAL)

    def test_bool_wins_over_int(self):
        # bool is an int subclass; the boolean branch must be checked first
        assert coerce_lpg_value(True).datatype == XSD_BOOLEAN

    def test_float_uses_repr(self):
        assert coerce_lpg_value(0.1) == Literal("0.1", XSD_DOUBLE)

    def test_non_finite_floats_are_rejected(self):
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(UnsupportedValueError):
                coerce_lpg_value(bad)

    def test_lists_fold(self):
        assert coerce_lpg_value([1, "a"]) == list_fold([1, "a"])
        with pytest.raises(UnsupportedValueError):
            coerce_lpg_value([[1]])

    def test_unsupported_objects(self):
        with pytest.raises(UnsupportedValueError):
            coerce_lpg_value(object())
        with pytest.raises(UnsupportedValueError):
            coerce_lpg_value(None)


class TestCoerceToLpg:
    def test_typed_values_come_back_native(self):
        t = CoercionTally()
        assert coerce_to_lpg(Literal("42", XSD_INTEGER), t) == 42
        assert coerce_to_lpg(Literal("true", XSD_BOOLEAN), t) is True
        assert coerce_to_lpg(Literal("1.5", XSD_DECIMAL), t) == 1.5
        assert coerce_to_lpg(Literal("INF", XSD_DOUBLE), t) == math.inf
        assert coerce_to_lpg(list_fold([1, Decimal("2.5"), "x"]), t) == [1, 2.5, "x"]
        assert t == CoercionTally()

    def test_language_tag_drops_to_text(self):
        t = CoercionTally()
        assert coerce_to_lpg(Literal("hi", RDF_LANG_STRING, language="en"), t) == "hi"
        assert t.language_tags_dropped == 1

    def test_ill_typed_drops_to_text(self):
        t = CoercionTally()
        assert coerce_to_lpg(Literal("zz", XSD_INTEGER), t) == "zz"
        assert t.ill_typed_as_text == 1
        assert coerce_to_lpg(Literal("1\n", XSD_INTEGER), t) == "1\n"
        assert t.ill_typed_as_text == 2

    def test_unknown_datatype_drops_to_text(self):
        t = CoercionTally()
        assert coerce_to_lpg(Literal("v", Iri("urn:x:custom")), t) == "v"
        assert t.other_as_text == 1
