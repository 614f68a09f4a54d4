"""One update touches only the statements it names.

On a store of 200 statements, every update entry point, the store's own
inserts, deletes, graph membership and fresh sids, ``match`` by sid and by
source, and a one-line parse of each format into the store run with
``Store.statements`` made to raise and the sid index made to refuse a walk,
so an operation that falls back to a full scan fails here instead of only
getting slower as the store grows. Once one match by label has built the
label index, ``match`` by label, with or without a value, and every update
entry point after it run under the same guard, and a match by label sorts
nothing but a label that an install put out of sid order, once.
"""

import uuid

import pytest

import og.store
from og import (
    AmbiguityPolicy,
    AmbiguousTargetError,
    DeletePolicy,
    InsertSemantics,
    Iri,
    Literal,
    LocalId,
    ReferencedSidError,
    SidRef,
    Statement,
    StatementPattern,
    Store,
    XSD_INTEGER,
    lpg_add_edge,
    lpg_set_property,
    parse_lpg_jsonl,
    parse_ntriples,
    parse_ognq,
    parse_turtle_star,
    rdf_delete_triple,
    rdf_insert_triple,
    star_annotate,
)

KNOWS, NAME = LocalId("knows"), LocalId("name")
VERTICES = 40


class _NoWalk(dict):
    """A sid index that answers lookups but refuses to be walked."""

    def _walk(self, *args):
        raise AssertionError("walked every statement of the store")

    __iter__ = keys = values = items = _walk


@pytest.fixture
def store(request, monkeypatch):
    store = Store(seed=0)
    for i in range(VERTICES):
        v, w = LocalId(f"v{i}"), LocalId(f"v{(i + 1) % VERTICES}")
        store.insert_ground(v, NAME, Literal(f"n{i}"))
        store.insert_ground(v, LocalId("label"), Literal("Person"))
        edge = store.insert_ground(v, KNOWS, w)
        store.insert_assertion(SidRef(edge), LocalId("since"), Literal(str(2000 + i), XSD_INTEGER))
        store.insert_ground(Iri(f"urn:og:local:v{i}"), LocalId("likes"), w)
    assert len(store) == 5 * VERTICES
    if getattr(request, "param", None) == "label-indexed":
        assert len(store.match(StatementPattern(label=KNOWS))) == VERTICES

    def refuse(self):
        raise AssertionError("Store.statements called")

    monkeypatch.setattr(Store, "statements", refuse)
    store._by_sid = _NoWalk(store._by_sid)
    return store


@pytest.mark.parametrize("policy", list(AmbiguityPolicy))
@pytest.mark.parametrize("delete", list(DeletePolicy))
def test_delete_triple(store, policy, delete):
    assert rdf_delete_triple(store, LocalId("v0"), LocalId("likes"), LocalId("v1"), policy, delete) == 1
    assert rdf_delete_triple(store, Iri("urn:og:local:v3"), NAME, Literal("n3"), policy, delete) == 1
    assert rdf_delete_triple(store, LocalId("v3"), NAME, Literal("n3"), policy, delete) == 0


@pytest.mark.parametrize("semantics", list(InsertSemantics))
def test_insert_triple(store, semantics):
    assert (rdf_insert_triple(store, LocalId("v1"), KNOWS, LocalId("v2"), semantics) is None) == (
        semantics is InsertSemantics.SET
    )
    assert rdf_insert_triple(store, LocalId("v1"), KNOWS, LocalId("v9"), semantics) is not None


@pytest.mark.parametrize("policy", list(AmbiguityPolicy))
def test_annotate(store, policy):
    assert len(star_annotate(store, LocalId("v5"), KNOWS, LocalId("v6"), LocalId("ok"), Literal("y"), policy)) == 1
    rdf_insert_triple(store, LocalId("v5"), KNOWS, LocalId("v6"), InsertSemantics.MULTI)
    if policy is AmbiguityPolicy.ERROR_IF_MULTIPLE:
        with pytest.raises(AmbiguousTargetError):
            star_annotate(store, LocalId("v5"), KNOWS, LocalId("v6"), LocalId("ok"), Literal("y"), policy)
    else:
        assert len(star_annotate(store, LocalId("v5"), KNOWS, LocalId("v6"), LocalId("ok"), Literal("y"), policy)) == 2


def test_add_edge(store):
    # each vertex is also spelled as its IRI, which is the least term
    sid = lpg_add_edge(store, "v1", "v7", "met", {"w": 1})
    assert store.get(sid).content == (Iri("urn:og:local:v1"), LocalId("met"), Iri("urn:og:local:v7"))
    sid = lpg_add_edge(store, "v1", "_:new", "met", auto_create=True)
    assert store.get(sid).value.label == "new"


def test_set_property(store):
    sid = lpg_set_property(store, "v2", "name", "Vee")
    assert store.get(sid).content == (Iri("urn:og:local:v2"), NAME, Literal("Vee"))
    edge = store.match(StatementPattern(src=LocalId("v2"), label=KNOWS))[0].sid
    for element in (edge, str(edge)):
        sid = lpg_set_property(store, element, "since", 1999)
        assert store.get(sid).content == (SidRef(edge), LocalId("since"), Literal("1999", XSD_INTEGER))


def test_store_inserts_and_lookups(store):
    sid = store.insert_ground(LocalId("v1"), NAME, Literal("again"))
    note = store.insert_assertion(SidRef(sid), LocalId("since"), Literal("2024"))
    edge, since = store.insert_new([(LocalId("v2"), KNOWS, LocalId("v9")), (0, LocalId("since"), Literal("y"))])
    assert store.get(since).src == SidRef(edge)
    assert store.match(StatementPattern(sid=note)) == [store.get(note)]
    assert store.match(StatementPattern(sid=note, label=NAME)) == []
    graph = Iri("urn:x:g")
    assert store.set_graph_membership(sid, graph) == store.set_graph_membership(sid, graph)
    assert store.fresh_sid() not in store


@pytest.mark.parametrize("policy", list(DeletePolicy))
def test_delete_statement(store, policy):
    name = store.match(StatementPattern(src=LocalId("v4"), label=NAME))[0].sid
    assert store.delete_statement(name, policy) == 1
    edge = store.match(StatementPattern(src=LocalId("v4"), label=KNOWS))[0].sid
    if policy is DeletePolicy.RESTRICT:
        with pytest.raises(ReferencedSidError):
            store.delete_statement(edge, policy)
    else:
        assert store.delete_statement(edge, policy) == 2


def test_parse_one_line_of_each_format(store):
    parse_ognq('local:"v1" local:"p" "x" <urn:og:sid:00000000-0000-0000-0000-0000000f0000> .\n', store)
    parse_ntriples('<urn:og:local:v1> <urn:x:p> _:b .\n', store)
    parse_turtle_star('<< <urn:og:local:v1> <urn:og:local:knows> <urn:og:local:v2> >> <urn:x:p> 1 .\n', store)
    parse_lpg_jsonl('{"type": "vertex", "id": "w", "labels": ["T"]}\n', store)
    # the quoted triple's IRIs match no stored content, so it is installed too
    assert len(store) == 5 * VERTICES + 5


def test_match_by_source(store):
    assert len(store.match(StatementPattern(src=LocalId("v4")))) == 3
    assert len(store.match(StatementPattern(src=Iri("urn:og:local:v4")))) == 1
    edge = store.match(StatementPattern(src=LocalId("v4"), label=KNOWS))[0].sid
    assert len(store.match(StatementPattern(src=SidRef(edge)))) == 1
    assert store.match(StatementPattern(src=LocalId("nobody"))) == []


# the first match by label walks the store to build the index, in the fixture
@pytest.mark.parametrize("store", ["label-indexed"], indirect=True)
def test_match_by_label(store):
    assert len(store.match(StatementPattern(label=NAME))) == VERTICES
    assert store.match(StatementPattern(label=NAME, value=Literal("n7")))[0].src == LocalId("v7")
    assert store.match(StatementPattern(label=LocalId("nothing"))) == []
    edge = store.match(StatementPattern(label=KNOWS, value=LocalId("v3")))[0].sid
    assert rdf_delete_triple(store, LocalId("v2"), KNOWS, LocalId("v3")) == 2
    assert rdf_insert_triple(store, LocalId("v2"), KNOWS, LocalId("v4")) is not None
    assert len(star_annotate(store, LocalId("v5"), KNOWS, LocalId("v6"), LocalId("since"), Literal("y"))) == 1
    met = lpg_add_edge(store, "v1", "v9", "met")
    lpg_set_property(store, "v8", "name", "Vee")
    lpg_set_property(store, met, "since", 1999)
    store.delete_statement(store.match(StatementPattern(label=LocalId("likes"), value=LocalId("v1")))[0].sid)
    assert store.match(StatementPattern(label=KNOWS, value=LocalId("v3"))) == []
    assert len(store.match(StatementPattern(label=KNOWS))) == VERTICES
    assert len(store.match(StatementPattern(label=LocalId("likes")))) == VERTICES - 1
    since = store.match(StatementPattern(label=LocalId("since")))
    assert edge not in {st.src.sid for st in since} and met in {st.src.sid for st in since}
    assert len(since) == VERTICES + 1
    assert len(store.match(StatementPattern(label=NAME, value=Literal("Vee")))) == 1


@pytest.mark.parametrize("store", ["label-indexed"], indirect=True)
def test_match_by_label_sorts_once_after_an_out_of_order_install(store, monkeypatch):
    """The label index keeps each label's statements in sid order, so a match
    by label sorts nothing; an install below its label's last sid costs the
    next match by that label one sort, and the match after it none."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return sorted(*args, **kwargs)

    monkeypatch.setattr(og.store, "sorted", counted, raising=False)

    def match(**pattern):
        calls.clear()
        found = store.match(StatementPattern(**pattern))
        return found, len(calls)

    found, sorts = match(label=KNOWS)
    assert sorts == 0 and len(found) == VERTICES
    assert match(label=NAME, value=Literal("n7"))[1] == 0
    store.insert_ground(LocalId("v0"), KNOWS, LocalId("v5"))  # a fresh sid, above every other
    assert match(label=KNOWS)[1] == 0
    store.add_statements([Statement(LocalId("v0"), KNOWS, LocalId("v9"), uuid.UUID(int=0))])
    found, sorts = match(label=KNOWS)
    assert sorts == 1 and found[0].sid == uuid.UUID(int=0) and len(found) == VERTICES + 2
    assert match(label=KNOWS) == (found, 0)
    assert match(label=KNOWS, value=LocalId("v9"))[1] == 0
