r"""Literals, datatype validation, and the flat list literal.

The literal space is unified across the RDF and property-graph sides:

* RDF-style typed literals, including language-tagged strings. Ill-typed
  literals (lexical form outside the datatype's space) are storable; they
  carry ``well_typed = False`` instead of being rejected.
* A flat list datatype ``urn:og:List`` whose canonical lexical form is
  ``[e1, e2, ...]``. Lists hold scalars only (text, integer, decimal,
  boolean); nesting is not representable. Its lexical space, read by the one
  regex ``_LIST``::

      list   ::= ws "[" ws (item ws ("," ws item ws)*)? "]" ws
      item   ::= string | "true" | "false" | decimal
      string ::= '"' ([^"\\] | "\\" ["\\nrt])* '"'
      ws     ::= [ \t\r\n]*

  where ``decimal`` is the ``xsd:decimal`` rule and the five escapes stand
  for ``"``, ``\``, newline, carriage return and tab.

:func:`coerce_lpg_value` and :func:`coerce_to_lpg` translate between Python
values as a property graph sees them and literals as RDF sees them.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from decimal import Decimal

from .errors import ParseError, UnsupportedValueError, WrongDatatypeError
from .terms import Iri

XSD = "http://www.w3.org/2001/XMLSchema#"
XSD_STRING = Iri(XSD + "string")
XSD_INTEGER = Iri(XSD + "integer")
XSD_DECIMAL = Iri(XSD + "decimal")
XSD_DOUBLE = Iri(XSD + "double")
XSD_BOOLEAN = Iri(XSD + "boolean")
XSD_DATE = Iri(XSD + "date")
XSD_DATETIME = Iri(XSD + "dateTime")
RDF_LANG_STRING = Iri("http://www.w3.org/1999/02/22-rdf-syntax-ns#langString")

#: Reserved datatype IRI of the flat list literal.
OG_LIST = Iri("urn:og:List")

#: The datatype constants above by their text, so that parsed literals share them.
BUILT_IN = {dt.text: dt for dt in (XSD_STRING, XSD_INTEGER, XSD_DECIMAL, XSD_DOUBLE, XSD_BOOLEAN,
                                   XSD_DATE, XSD_DATETIME, RDF_LANG_STRING, OG_LIST)}

#: A language tag (Turtle's LANGTAG without the ``@``); unanchored.
LANG_TAG = re.compile(r"[A-Za-z]{1,8}(?:-[A-Za-z0-9]{1,8})*")
_INTEGER = re.compile(r"[+-]?[0-9]+")
#: The decimal rule, unanchored: ``xsd:decimal`` and a list's number item.
_DECIMAL_BODY = r"[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)"
_DECIMAL = re.compile(_DECIMAL_BODY)
_DOUBLE = re.compile(rf"{_DECIMAL_BODY}([eE][+-]?[0-9]+)?|[+-]?INF|NaN")
_DATE = re.compile(r"(-?[0-9]{4,})-([0-9]{2})-([0-9]{2})(Z|[+-][0-9]{2}:[0-9]{2})?")
_DATETIME = re.compile(
    r"(-?[0-9]{4,})-([0-9]{2})-([0-9]{2})"
    r"T([0-9]{2}):([0-9]{2}):([0-9]{2})(\.[0-9]+)?"
    r"(Z|[+-][0-9]{2}:[0-9]{2})?"
)


@dataclass(frozen=True, slots=True)
class Literal:
    """A typed literal value.

    ``language`` is present exactly when the datatype is rdf:langString.
    ``well_typed`` is derived at construction and never rejects: storing an
    ill-typed literal is allowed, views and coercions treat it as text.
    """

    lexical: str
    datatype: Iri = XSD_STRING
    language: str | None = None
    well_typed: bool = field(init=False, compare=False)

    def __post_init__(self):
        if self.language is not None:
            if self.datatype != RDF_LANG_STRING:
                raise ValueError("language tag requires the rdf:langString datatype")
            if not LANG_TAG.fullmatch(self.language):
                raise ValueError(f"bad language tag: {self.language!r}")
        elif self.datatype == RDF_LANG_STRING:
            raise ValueError("rdf:langString requires a language tag")
        object.__setattr__(self, "well_typed", validate(self.lexical, self.datatype))


def _days_in_month(year: int, month: int) -> int:
    if month in (1, 3, 5, 7, 8, 10, 12):
        return 31
    if month in (4, 6, 9, 11):
        return 30
    leap = year % 4 == 0 and (year % 100 != 0 or year % 400 == 0)
    return 29 if leap else 28


def _valid_year(text: str) -> bool:
    digits = text.lstrip("-")
    return len(digits) == 4 or not digits.startswith("0")


def _valid_zone(zone: str | None) -> bool:
    if zone is None or zone == "Z":
        return True
    hh, mm = int(zone[1:3]), int(zone[4:6])
    return (hh < 14 and mm <= 59) or (hh == 14 and mm == 0)


def _valid_date_parts(year: str, month: str, day: str) -> bool:
    if not _valid_year(year):
        return False
    m, d = int(month), int(day)
    return 1 <= m <= 12 and 1 <= d <= _days_in_month(int(year), m)


def validate(lexical: str, datatype: Iri) -> bool:
    """Whether the lexical form belongs to the datatype's lexical space.

    Unknown datatypes validate as True (no basis to reject).
    """
    if datatype in (XSD_STRING, RDF_LANG_STRING):
        return True
    if datatype == XSD_INTEGER:
        return bool(_INTEGER.fullmatch(lexical))
    if datatype == XSD_DECIMAL:
        return bool(_DECIMAL.fullmatch(lexical))
    if datatype == XSD_DOUBLE:
        return bool(_DOUBLE.fullmatch(lexical))
    if datatype == XSD_BOOLEAN:
        return lexical in ("true", "false", "1", "0")
    if datatype == XSD_DATE:
        m = _DATE.fullmatch(lexical)
        return bool(m) and _valid_date_parts(m[1], m[2], m[3]) and _valid_zone(m[4])
    if datatype == XSD_DATETIME:
        m = _DATETIME.fullmatch(lexical)
        if not m or not _valid_date_parts(m[1], m[2], m[3]) or not _valid_zone(m[8]):
            return False
        hh, mi, ss = int(m[4]), int(m[5]), int(m[6])
        if hh == 24:
            # midnight-at-end-of-day form: 24:00:00 with zero fraction only
            frac = m[7] or ".0"
            return mi == 0 and ss == 0 and set(frac[1:]) == {"0"}
        return hh <= 23 and mi <= 59 and ss <= 59
    if datatype == OG_LIST:
        return _LIST.fullmatch(lexical) is not None
    return True


# --- the flat list literal ---------------------------------------------

Scalar = str | int | bool | Decimal

_ESCAPES = {'"': '"', "\\": "\\", "n": "\n", "r": "\r", "t": "\t"}
_ESCAPE = {c: "\\" + e for e, c in _ESCAPES.items()}
_TEXT_UNSAFE = re.compile("[" + re.escape("".join(_ESCAPE)) + "]")
_UNESCAPE = re.compile(r"\\(.)")

# The list grammar of the module docstring. No two whitespace runs meet and
# the string body is unrolled, so a refused literal backtracks linearly.
_WS = r"[ \t\r\n]*"
_ITEM = (r'"[^"\\]*(?:\\[' + re.escape("".join(_ESCAPES)) + r'][^"\\]*)*"'
         + "|true|false|" + _DECIMAL_BODY)
_LIST = re.compile(rf"{_WS}\[{_WS}(?:(?:{_ITEM}){_WS}(?:,{_WS}(?:{_ITEM}){_WS})*)?\]{_WS}")
_LIST_ITEM = re.compile(_ITEM)


def _item_value(token: str) -> Scalar:
    if token[0] == '"':
        return _UNESCAPE.sub(lambda m: _ESCAPES[m[1]], token[1:-1])
    if token in ("true", "false"):
        return token == "true"
    return Decimal(token) if "." in token else int(token)


def _parse_list(text: str) -> list[Scalar]:
    if not _LIST.fullmatch(text):
        raise ParseError(f"malformed list literal {text!r}")
    # a whole-literal match leaves nothing between its items that starts one
    return [_item_value(m[0]) for m in _LIST_ITEM.finditer(text)]


def _canon_decimal(d: Decimal) -> str:
    if not d.is_finite():
        raise UnsupportedValueError("list decimals must be finite")
    if d == 0:
        return "0.0"
    s = format(d.normalize(), "f")
    if "." not in s:
        s += ".0"
    return s


def _canon_text(s: str) -> str:
    return '"' + _TEXT_UNSAFE.sub(lambda m: _ESCAPE[m.group()], s) + '"'


def _canon_element(e: Scalar) -> str:
    # bool first: it is an int subclass
    if isinstance(e, bool):
        return "true" if e else "false"
    if isinstance(e, int):
        return str(e)
    if isinstance(e, Decimal):
        return _canon_decimal(e)
    if isinstance(e, float):
        return _canon_decimal(Decimal(repr(e)))
    if isinstance(e, str):
        return _canon_text(e)
    raise UnsupportedValueError(f"list elements must be scalars, got {type(e).__name__}")


def list_fold(elements) -> Literal:
    """Fold scalars into a list literal in canonical lexical form.

    Canonical form: ``[e1, e2]`` with ", " separators, quoted and escaped
    text, canonical integers, decimals with at least one fraction digit, and
    ``true``/``false``. Floats are accepted and become decimal elements.
    """
    body = ", ".join(_canon_element(e) for e in elements)
    return Literal(f"[{body}]", OG_LIST)


def list_unfold(literal: Literal) -> list[Scalar]:
    """Parse a list literal back into its elements.

    Tolerates arbitrary whitespace between tokens; raises WrongDatatypeError
    for non-list literals and ParseError for lexical forms outside the
    grammar.
    """
    if literal.datatype != OG_LIST:
        raise WrongDatatypeError(f"expected {OG_LIST.text}, got {literal.datatype.text}")
    return _parse_list(literal.lexical)


# --- property-graph value coercion --------------------------------------


@dataclass
class CoercionTally:
    """Counts lossy steps taken while moving literals to the LPG side."""

    language_tags_dropped: int = 0
    ill_typed_as_text: int = 0
    other_as_text: int = 0


def coerce_lpg_value(value) -> Literal:
    """The literal a property-graph value denotes.

    Strings, booleans, integers, floats, and flat lists of those are
    supported; anything else (None, maps, nested lists, non-finite floats)
    raises UnsupportedValueError.
    """
    if isinstance(value, bool):
        return Literal("true" if value else "false", XSD_BOOLEAN)
    if isinstance(value, int):
        return Literal(str(value), XSD_INTEGER)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise UnsupportedValueError("non-finite numbers are not representable")
        return Literal(repr(value), XSD_DOUBLE)
    if isinstance(value, str):
        return Literal(value, XSD_STRING)
    if isinstance(value, Decimal):
        return Literal(_canon_decimal(value), XSD_DECIMAL)
    if isinstance(value, (list, tuple)):
        for e in value:
            if isinstance(e, (list, tuple, dict)):
                raise UnsupportedValueError("lists hold scalars only, no nesting")
        return list_fold(value)
    raise UnsupportedValueError(f"no property-graph reading for {type(value).__name__}")


def coerce_to_lpg(literal: Literal, tally: CoercionTally | None = None):
    """The Python value a literal shows on the property-graph side.

    Lossy cases are counted on ``tally`` when one is supplied: language tags
    are dropped, ill-typed literals and literals with no property-graph
    primitive (unknown datatypes, dates) flow through as their lexical text.
    """
    tally = tally if tally is not None else CoercionTally()
    if not literal.well_typed:
        tally.ill_typed_as_text += 1
        return literal.lexical
    if literal.language is not None:
        tally.language_tags_dropped += 1
        return literal.lexical
    dt = literal.datatype
    if dt == XSD_STRING:
        return literal.lexical
    if dt == XSD_INTEGER:
        return int(literal.lexical)
    if dt == XSD_BOOLEAN:
        return literal.lexical in ("true", "1")
    if dt in (XSD_DOUBLE, XSD_DECIMAL):
        # float() accepts every xsd:double form, INF and NaN included
        return float(literal.lexical)
    if dt == OG_LIST:
        return [float(e) if isinstance(e, Decimal) else e for e in _parse_list(literal.lexical)]
    tally.other_as_text += 1
    return literal.lexical
