"""Every surface syntax accepts exactly what the term types accept.

OG-NQ, N-Triples, Turtle-star and the ``og`` command line spell blank
labels, language tags and prefixed names by one rule each; these
properties draw texts rich in the characters at the edges of those rules.
"""

import string

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from og import (
    RDF_LANG_STRING,
    BlankNode,
    Iri,
    Literal,
    LocalId,
    ParseError,
    Store,
    parse_ntriples,
    parse_ognq,
    parse_turtle_star,
    rdf_star_view,
    serialize_turtle_star,
)
from og.cli import parse_cli_term
from og.formats.common import escape_string

EX = "http://ex.org/"
SID = "<urn:og:sid:00000000-0000-0000-0000-000000000001>"

# half the characters from the edges of the rules, half from plain names
texts = st.text(
    alphabet=st.sampled_from("aZ09_.-:/%#é ") | st.sampled_from(string.ascii_letters + string.digits),
    max_size=10,
)


def _built(make, *args):
    """The term ``make(*args)``, or None when the term type refuses it."""
    try:
        return make(*args)
    except ValueError:
        return None


def _object(parse, text: str):
    """The object of the single statement ``text`` parses to, or None."""
    try:
        store = parse(text)
    except ParseError:
        return None
    [statement] = store.statements()
    return statement.value


def _each_format(token: str) -> list:
    """The object ``token`` reads as in OG-NQ, N-Triples and Turtle-star."""
    return [
        _object(parse_ognq, f"<urn:x:s> <urn:x:p> {token} {SID} .\n"),
        _object(parse_ntriples, f"<urn:x:s> <urn:x:p> {token} .\n"),
        _object(parse_turtle_star, f"<urn:x:s> <urn:x:p> {token} .\n"),
    ]


@given(texts)
@example("a.b")
@example("a.")
@example("a-")
@example("é")
def test_blank_labels_parse_iff_blank_node_constructs(label):
    expected = _built(BlankNode, label)
    for term in _each_format(f"_:{label}"):
        if expected is None:
            assert term is None or term.label != label
        else:
            assert term == expected


@given(texts)
@example("en-US")
@example("en-")
@example("basement")
@example("prefix")
def test_language_tags_parse_iff_literal_constructs(tag):
    expected = _built(Literal, "v", RDF_LANG_STRING, tag)
    for term in _each_format(f'"v"@{tag}'):
        if expected is None:
            assert term is None or term.language != tag
        else:
            assert term == expected


@given(texts)
@example("")
@example("a b")
def test_local_ids_parse_iff_local_id_constructs(text):
    expected = _built(LocalId, text)
    assert _object(parse_ognq, f'<urn:x:s> <urn:x:p> local:"{escape_string(text)}" {SID} .\n') == expected


@given(texts)
@example("")
@example("a.b")
@example("a.")
def test_prefixed_names_written_read_back(local):
    iri = Iri(EX + local)
    store = Store()
    store.insert_ground(Iri("urn:x:s"), Iri("urn:x:p"), iri)
    text = serialize_turtle_star(rdf_star_view(store), {"ex": EX})
    assert _object(parse_turtle_star, text) == iri
    token = text.splitlines()[-1].split(" ", 2)[2][:-2]
    if token.startswith("ex:"):
        assert parse_cli_term(token, {"ex": EX}) == iri


@given(texts, texts)
@example("e x", "a")
@example("", "a")
def test_turtle_prefixes_read_back(label, local):
    iri = Iri(EX + local)
    store = Store()
    store.insert_ground(Iri("urn:x:s"), Iri("urn:x:p"), iri)
    assert _object(parse_turtle_star, serialize_turtle_star(rdf_star_view(store), {label: EX})) == iri


@pytest.mark.parametrize("token, local", [
    ("ex:a/b", "a/b"),
    ("ex:a:b", "a:b"),
    ("ex:%41", "%41"),
    ("ex:a#b", "a#b"),
    ("ex:.a", ".a"),
    ("e.x:a", "a"),
])
def test_cli_prefixed_names_take_any_local_part(token, local):
    prefixes = {"ex": EX, "e.x": EX}
    assert parse_cli_term(token, prefixes) == Iri(EX + local)


@pytest.mark.parametrize("token", ["ex:a\nb", "e x:a", ".ex:a", "-ex:a", "ey:a"])
def test_cli_prefixed_names_refused(token):
    with pytest.raises(ParseError):
        parse_cli_term(token, {"ex": EX, "e x": EX, ".ex": EX, "-ex": EX})


def test_cli_colon_names_a_local_identifier():
    assert parse_cli_term(":name", {}) == LocalId("name")
    with pytest.raises(ParseError, match="non-empty"):
        parse_cli_term(":", {})
    with pytest.raises(ParseError, match="empty term"):
        parse_cli_term("  ", {})



@pytest.mark.parametrize("local", ["a", "", "a.b"])
def test_cli_prefix_labels_may_start_with_underscore(local):
    turtle = f"@prefix _p: <{EX}> .\n<urn:x:s> <urn:x:p> _p:{local} .\n"
    assert parse_cli_term(f"_p:{local}", {"_p": EX}) == Iri(EX + local) == _object(parse_turtle_star, turtle)
    assert parse_cli_term("_:p", {"_p": EX}) == BlankNode("p")


@pytest.mark.parametrize("token", ["_p:a", "_x", "_"])
def test_cli_undeclared_underscore_tokens_refused(token):
    with pytest.raises(ParseError, match="cannot read term"):
        parse_cli_term(token, {"ex": EX})
