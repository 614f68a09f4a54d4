"""Quoted triples sort, hash and serialize in time linear in the output.

The order is checked against the nested sort key the flat one replaced,
and the cost of a chain at the nesting bound is counted in calls, not
timed.
"""

import pickle
import sys
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

import og.formats.turtlestar as turtlestar
import og.views as views
from og import (
    Literal,
    LocalId,
    QuotedTriple,
    RdfStarGraph,
    SidRef,
    Store,
    XSD_INTEGER,
    rdf_star_view,
    serialize_turtle_star,
    term_key,
    triple_key,
)

from randgen import random_store


def nested_part_key(t) -> tuple:
    """The sort key of a quoted triple before keys were flat: nested once per level."""
    if isinstance(t, QuotedTriple):
        return (5, nested_part_key(t.s), nested_part_key(t.p), nested_part_key(t.o))
    return term_key(t)


def nested_triple_key(triple: tuple) -> tuple:
    return tuple(nested_part_key(x) for x in triple)


def rebuilt(t):
    """An equal copy that shares no quoted-triple object with ``t``."""
    if isinstance(t, QuotedTriple):
        return QuotedTriple(rebuilt(t.s), rebuilt(t.p), rebuilt(t.o))
    return t


def quoted_parts(graph: RdfStarGraph) -> list[QuotedTriple]:
    out, todo = [], [x for triple in graph.triples for x in triple]
    while todo:
        t = todo.pop()
        if isinstance(t, QuotedTriple):
            out.append(t)
            todo += (t.s, t.p, t.o)
    return out


def quoting_chain(store: Store, depth: int, in_object: bool = False) -> None:
    """One ground statement quoted ``depth`` levels deep, as source or as value."""
    sid = store.insert_ground(LocalId("a"), LocalId("p"), LocalId("b"))
    for i in range(depth):
        if in_object:
            sid = store.insert_assertion(LocalId(f"s{i}"), LocalId("q"), SidRef(sid))
        else:
            sid = store.insert_assertion(SidRef(sid), LocalId("q"), Literal(str(i), XSD_INTEGER))


@st.composite
def star_graphs(draw) -> RdfStarGraph:
    """A mix of random stores, quoting chains with the quote as source or as
    value, and multi-edges whose equal-content quoted triples come from
    different sids."""
    rng = draw(st.randoms(use_true_random=False))
    store = random_store(rng, max_statements=draw(st.integers(0, 30)))
    for _ in range(draw(st.integers(0, 3))):
        quoting_chain(store, draw(st.integers(0, 12)), in_object=draw(st.booleans()))
    for _ in range(draw(st.integers(0, 2))):
        edges = [store.insert_ground(LocalId("x"), LocalId("knows"), LocalId("y")) for _ in range(2)]
        for edge in edges:
            since = store.insert_assertion(SidRef(edge), LocalId("since"), Literal(str(rng.randrange(3)), XSD_INTEGER))
            store.insert_assertion(SidRef(since), LocalId("by"), LocalId("z"))
    graph = rdf_star_view(store, max_depth=10**6)
    # some triples again as equal copies made outside the view
    copies = {tuple(map(rebuilt, triple)) for triple in graph.triples if rng.random() < 0.5}
    return RdfStarGraph(graph.triples | copies)


class TestOrder:
    @settings(max_examples=80, deadline=None)
    @given(star_graphs())
    def test_flat_keys_sort_like_nested_keys(self, graph):
        expected = sorted(graph.triples, key=nested_triple_key)
        assert graph.sorted() == expected
        assert sorted(graph.triples, key=triple_key) == expected
        assert serialize_turtle_star(graph) == serialize_turtle_star(
            RdfStarGraph(frozenset(tuple(map(rebuilt, triple)) for triple in graph.triples))
        )

    @settings(max_examples=80, deadline=None)
    @given(star_graphs())
    def test_equal_quoted_triples_hash_alike(self, graph):
        for q in quoted_parts(graph):
            copy = rebuilt(q)
            assert copy == q and copy is not q
            assert hash(copy) == hash(q) == hash((q.s, q.p, q.o))

    def test_the_view_builds_one_object_per_quoted_content(self):
        store = Store(seed=0)
        for _ in range(2):
            edge = store.insert_ground(LocalId("x"), LocalId("knows"), LocalId("y"))
            store.insert_assertion(SidRef(edge), LocalId("since"), Literal("1", XSD_INTEGER))
            store.insert_assertion(SidRef(edge), LocalId("by"), LocalId("z"))
        quoted = {id(q) for q in quoted_parts(rdf_star_view(store))}
        assert len(quoted) == 1

    def test_a_quoted_triple_keeps_its_repr_and_pickles(self):
        q = QuotedTriple(LocalId("a"), LocalId("p"), LocalId("b"))
        assert repr(q) == "QuotedTriple(s=LocalId(text='a'), p=LocalId(text='p'), o=LocalId(text='b'))"
        copy = pickle.loads(pickle.dumps(q))
        assert copy == q and hash(copy) == hash(q)


def test_sorting_and_serializing_a_chain_at_the_bound_is_linear(monkeypatch):
    store = Store(seed=0)
    quoting_chain(store, sys.getrecursionlimit() // 4)
    graph = rdf_star_view(store, max_depth=10**6)
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(views, "term_key", counted("term_key", views.term_key))
    monkeypatch.setattr(turtlestar, "_render_literal", counted("render", turtlestar._render_literal))
    graph.sorted()
    assert 0 < calls["term_key"] <= 5 * len(store)
    calls.clear()
    serialize_turtle_star(graph)
    assert 0 < calls["render"] <= len(store)
    assert 0 < calls["term_key"] <= 5 * len(store)
