"""A parse, and each batch of ``Store.insert_new``, keeps one object per
distinct term, so a parsed store holds each term once however often the
document repeats it."""

import pytest

from og import (
    XSD_INTEGER,
    BlankNode,
    Iri,
    Literal,
    LocalId,
    LpgViewConfig,
    SidRef,
    Store,
    lpg_view,
    parse_lpg_jsonl,
    parse_ntriples,
    parse_ognq,
    parse_turtle_star,
    rdf_star_view,
    rdf_view,
    serialize_lpg_jsonl,
    serialize_ntriples,
    serialize_ognq,
    serialize_turtle_star,
)


def repeating_store() -> Store:
    store = Store(seed=0)
    people = [LocalId(f"p{i}") for i in range(3)] + [Iri("http://example.org/q"), BlankNode("b")]
    for i, a in enumerate(people):
        store.insert_ground(a, LocalId("name"), Literal("same name"))
        store.insert_ground(a, LocalId("age"), Literal("42", XSD_INTEGER))
        for b in people:
            if a != b:
                edge = store.insert_ground(a, LocalId("knows"), b)
                store.insert_assertion(SidRef(edge), LocalId("since"), Literal("2020", XSD_INTEGER))
    return store


def assert_each_term_is_one_object(store: Store) -> None:
    first = {}
    for st in store:
        for t in st.content:
            if not isinstance(t, SidRef):
                assert first.setdefault(t, t) is t, t
    assert len(first) < sum(1 for st in store for t in st.content if not isinstance(t, SidRef))


DOCUMENTS = {
    "ognq": (lambda s: serialize_ognq(s), parse_ognq),
    "ntriples": (lambda s: serialize_ntriples(rdf_view(s)), parse_ntriples),
    "turtle-star": (lambda s: serialize_turtle_star(rdf_star_view(s)), parse_turtle_star),
    "lpg-jsonl": (lambda s: serialize_lpg_jsonl(lpg_view(s, LpgViewConfig())), parse_lpg_jsonl),
}


@pytest.mark.parametrize("fmt", DOCUMENTS, ids=str)
def test_a_parsed_store_holds_each_term_once(fmt):
    write, parse = DOCUMENTS[fmt]
    assert_each_term_is_one_object(parse(write(repeating_store())))


def test_a_batch_stores_equal_terms_as_one_object():
    store = Store(seed=0)
    first, second = store.insert_new([
        (LocalId("a"), LocalId("p"), Literal("x")),
        (LocalId("a"), LocalId("p"), Literal("x")),
    ])
    one, two = store.get(first), store.get(second)
    assert all(x is y for x, y in zip(one.content, two.content))


INTEGER = f"<{XSD_INTEGER.text}>"
TYPED = {
    parse_ognq: f'''<urn:x:s> <urn:x:p> "1"^^{INTEGER} <urn:og:sid:00000000-0000-0000-0000-000000000001> .
<urn:x:s> <urn:x:p>  "2"^^{INTEGER}\t<urn:og:sid:00000000-0000-0000-0000-000000000002> .
''',
    parse_ntriples: f'''<urn:x:s> <urn:x:p> "1"^^{INTEGER} .
<urn:x:s> <urn:x:p> "2"^^{INTEGER}.
''',
    parse_turtle_star: f'''@prefix xsd: <{XSD_INTEGER.text[:-len("integer")]}> .
<urn:x:s> <urn:x:p> "1"^^{INTEGER} .
<urn:x:s> <urn:x:p> "2"^^xsd:integer, "3"^^{INTEGER} ; <urn:x:q> 4 .
''',
}


@pytest.mark.parametrize("parse", TYPED, ids=lambda p: p.__name__)
def test_a_parsed_datatype_is_the_built_in_constant(parse):
    """Every typed literal of a built-in datatype shares the constant, on the
    line path and on the token path alike."""
    store = parse(TYPED[parse], Store(seed=0))
    assert len(store) == (4 if parse is parse_turtle_star else 2)
    assert all(st.value.datatype is XSD_INTEGER for st in store)
