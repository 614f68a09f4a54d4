"""A parse into a non-empty store costs what the document holds.

On a store of 200 statements, one-line OG-NQ, N-Triples and Turtle-star
documents are parsed with ``Store.__iter__`` and ``Store.statements`` made to
raise and the sid index made to refuse a walk, so a parser that lists the
store (for example to find its blank labels) fails here instead of only
getting slower as the store grows. The blank labels must still be renamed
apart from the store's, and from the document's own.
"""

import pytest

from og import (
    BlankNode,
    Iri,
    Literal,
    LocalId,
    SidRef,
    StatementPattern,
    Store,
    parse_ntriples,
    parse_ognq,
    parse_turtle_star,
)

from test_update_complexity import _NoWalk

P = Iri("urn:p")
SID = "urn:og:sid:00000000-0000-4000-8000-00000000beef"


@pytest.fixture
def store(monkeypatch):
    store = Store(seed=0)
    for i in range(50):
        edge = store.insert_ground(BlankNode(f"x{i}"), P, LocalId(f"v{i}"))
        store.insert_assertion(SidRef(edge), LocalId("since"), Literal(str(i)))
        store.insert_ground(LocalId(f"v{i}"), P, BlankNode(f"y{i}"))
        store.insert_ground(LocalId(f"v{i}"), LocalId("name"), Literal(f"n{i}"))
    # x49's edge goes with its annotation, and x49 with it
    assert store.delete_statement(store.sids_by_content(BlankNode("x49"), P, LocalId("v49"))[0]) == 2
    store.insert_ground(BlankNode("x0_1"), P, LocalId("w"))
    store.insert_ground(LocalId("w"), LocalId("name"), Literal("w"))
    assert len(store) == 200

    def refuse(self):
        raise AssertionError("walked every statement of the store")

    monkeypatch.setattr(Store, "__iter__", refuse)
    monkeypatch.setattr(Store, "statements", refuse)
    store._by_sid = _NoWalk(store._by_sid)
    return store


def _parse(fmt, line, store):
    if fmt == "ognq":
        return parse_ognq(line.replace(" .", f" <{SID}> ."), store)
    return {"ntriples": parse_ntriples, "turtle": parse_turtle_star}[fmt](line, store)


@pytest.mark.parametrize("fmt", ["ognq", "ntriples", "turtle"])
@pytest.mark.parametrize(
    "line, src, value",
    [
        # x0 and x0_1 are the store's, y3 too: x0 -> x0_2, y3 -> y3_1
        ("_:x0 <urn:p> _:y3 .", "x0_2", "y3_1"),
        # x1_1 is the document's own, so x1 skips it; x1_1 stays
        ("_:x1 <urn:p> _:x1_1 .", "x1_2", "x1_1"),
        # labels the store does not hold, or no longer holds, keep their names
        ("_:fresh <urn:p> _:x49 .", "fresh", "x49"),
    ],
)
def test_one_line_parse(store, fmt, line, src, value):
    assert _parse(fmt, line, store) is store
    assert len(store) == 201
    found = store.match(StatementPattern(src=BlankNode(src), label=P))
    assert [st.value for st in found] == [BlankNode(value)]
    assert src in store.blank_labels() and value in store.blank_labels()
