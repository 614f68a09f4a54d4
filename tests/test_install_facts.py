"""The facts the store records at install: quoting depth, visibility and
blank labels.

Statements are immutable, references are installed before their referrers,
and a delete either cascades or is refused, so ``Store.depth`` and
``Store.hidden`` never need working out again. Whatever sequence of public
mutations built a store, they must equal the fixpoint oracles, a deleted
statement must leave no fact behind, and ``Store.blank_labels`` must list
exactly the labels of the statements left.
"""

import pytest
from hypothesis import given, settings

from og import IN_GRAPH, BlankNode, DeletePolicy, Literal, LocalId, RdfMode, SidRef, Store, rdf_star_view, rdf_view
from og.statements import blank_labels

import oracles
from test_reference_order import reordered_stores


def assert_facts_match_oracles(store: Store) -> None:
    statements = store.statements()
    depth = oracles.quoting_depth(statements)
    hidden = oracles.invisible_sids(statements)
    for st in statements:
        assert store.depth(st.sid) == depth[st.sid], st
        assert store.hidden(st.sid) == (st.sid in hidden), st
    # the store's tables key a sid by its integer
    live = {st.sid.int for st in statements}
    assert store._depth.keys() <= live and store._hidden <= live
    assert set(store.blank_labels()) == blank_labels(statements)


@given(reordered_stores())
@settings(max_examples=150, deadline=None)
def test_recorded_facts_equal_the_oracles(store):
    assert_facts_match_oracles(store)


def test_cascade_delete_drops_a_hidden_chain():
    store = Store(seed=0)
    a, p, b = LocalId("a"), LocalId("p"), LocalId("b")
    edge = store.insert_ground(a, p, b)
    member = store.set_graph_membership(edge, LocalId("g"))
    chain = [member]
    for i in range(3):
        chain.append(store.insert_assertion(SidRef(chain[-1]), LocalId("note"), Literal(str(i))))
    pair = store.insert_assertion(SidRef(edge), LocalId("see"), SidRef(chain[-1]))
    assert [store.depth(s) for s in chain + [pair]] == [1, 2, 3, 4, 5]
    assert all(store.hidden(s) for s in chain + [pair]) and not store.hidden(edge)
    assert_facts_match_oracles(store)

    assert store.delete_statement(member, DeletePolicy.CASCADE) == 5
    assert [st.sid for st in store] == [edge]
    for s in chain + [pair]:
        assert s.int not in store._depth and s.int not in store._hidden
    assert store.depth(edge) == 0 and not store.hidden(edge)
    assert_facts_match_oracles(store)


def test_a_ground_statement_under_the_membership_label_is_hidden():
    store = Store()
    sid = store.insert_ground(LocalId("a"), IN_GRAPH, LocalId("g"))
    note = store.insert_assertion(SidRef(sid), LocalId("note"), Literal("x"))
    assert store.hidden(sid) and store.hidden(note)
    assert store.depth(sid) == 0 and store.depth(note) == 1
    assert_facts_match_oracles(store)


def test_blank_labels_leave_with_their_last_statement():
    store = Store(seed=0)
    b = BlankNode("b")
    first = store.insert_ground(b, LocalId("p"), b)
    second = store.insert_ground(LocalId("a"), LocalId("p"), b)
    note = store.insert_assertion(SidRef(second), LocalId("by"), BlankNode("c"))
    assert set(store.blank_labels()) == {"b", "c"}
    store.delete_statement(first)
    assert set(store.blank_labels()) == {"b", "c"}
    store.delete_statement(second)
    assert note not in store and set(store.blank_labels()) == set()
    assert_facts_match_oracles(store)


@pytest.mark.parametrize(
    "view", [rdf_view, lambda s: rdf_view(s, RdfMode.REIFY), rdf_star_view], ids=["hide", "reify", "star"]
)
def test_views_walk_the_store_once(monkeypatch, view):
    store = Store(seed=0)
    edge = store.insert_ground(LocalId("a"), LocalId("p"), LocalId("b"))
    store.insert_assertion(SidRef(store.set_graph_membership(edge, LocalId("g"))), LocalId("n"), Literal("x"))
    store.insert_assertion(SidRef(edge), LocalId("since"), Literal("1"))
    walks = []
    walk = Store.__iter__

    def counted(self):
        walks.append(self)
        return walk(self)

    monkeypatch.setattr(Store, "__iter__", counted)
    assert len(view(store)) >= 1
    assert len(walks) == 1
