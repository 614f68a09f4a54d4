"""Only a ``UUID`` is a sid, and the store's point reads never hash one.

The store's indexes hold a sid as its integer and convert at the API
boundary. So a sid's integer, or its text, must still name no statement:
every public method treats anything but a ``UUID`` as an absent sid. And a
point read or a point update of a ground statement must make no
``UUID.__hash__`` or ``UUID.__eq__`` call, both of which are Python-level
methods that cost more than the int lookup behind them.
"""

import uuid

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from strategies import stores

from og import (
    DeletePolicy,
    Literal,
    LocalId,
    NotFoundError,
    SidFactory,
    SidRef,
    Statement,
    StatementPattern,
    Store,
)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_a_sids_integer_or_text_is_no_sid(data):
    store = data.draw(stores(membership_rate=0.3).filter(len))
    sid = data.draw(st.sampled_from([s.sid for s in store.statements()]))
    size = len(store)
    for x in (sid.int, str(sid)):
        assert store.get(x) is None
        assert x not in store
        assert store.depth(x) == 0
        assert store.hidden(x) is False
        assert store.referrers(x) == set()
        assert store.match(StatementPattern(sid=x)) == []
        assert store.match(StatementPattern(src=SidRef(x))) == []
        for policy in DeletePolicy:
            with pytest.raises(NotFoundError):
                store.delete_statement(x, policy)
        with pytest.raises(NotFoundError):
            store.set_graph_membership(x, LocalId("g"))
    assert len(store) == size and store.get(sid).sid == sid


def test_fresh_skips_a_callers_uuids_and_the_reserved_ones():
    factory = SidFactory(seed=0)
    factory.reserve(uuid.UUID(int=2))
    assert factory.fresh(taken={1}) == uuid.UUID(int=3)
    assert factory.fresh(taken={4}) == uuid.UUID(int=5)


def test_the_first_fresh_sid_after_a_seeded_load_builds_one_uuid(monkeypatch):
    # the counter walks past the 20k loaded sids on integers
    store = Store(seed=0)
    store.add_statements([Statement(LocalId("v"), LocalId("p"), Literal(str(i)), uuid.UUID(int=i))
                          for i in range(1, 20_001)])
    built = []
    init = uuid.UUID.__init__
    monkeypatch.setattr(uuid.UUID, "__init__", lambda self, *a, **kw: built.append(a or kw) or init(self, *a, **kw))
    sid = store.fresh_sid()
    monkeypatch.undo()
    assert len(built) <= 2
    assert sid == uuid.UUID(int=20_001) and store.fresh_sid() == uuid.UUID(int=20_002)


class _Counting(dict):
    """A sid index that counts the membership tests made of it."""

    tests = 0

    def __contains__(self, key):
        self.tests += 1
        return dict.__contains__(self, key)


def test_a_seeded_load_leaves_the_first_fresh_sid_nothing_to_walk():
    store = Store(seed=0)
    store.add_statements([Statement(LocalId("v"), LocalId("p"), Literal(str(i)), uuid.UUID(int=i))
                          for i in range(1, 20_001)])
    store._by_sid = _Counting(store._by_sid)
    assert store.fresh_sid() == uuid.UUID(int=20_001)
    assert store._by_sid.tests == 1


@pytest.mark.parametrize("loaded, deleted", [
    (range(1, 6), ()),
    (range(5, 0, -1), ()),  # out of sid order
    ((1, 2, 4, 5), ()),  # a gap
    (range(1, 6), (3, 5)),  # deleted sids stay reserved
    ((2, 3), ()),  # the counter's next sid is free
])
def test_a_seeded_store_issues_the_sids_a_walk_would(loaded, deleted):
    store = Store(seed=0)
    store.add_statements([Statement(LocalId("v"), LocalId("p"), Literal(str(i)), uuid.UUID(int=i)) for i in loaded])
    for i in deleted:
        store.delete_statement(uuid.UUID(int=i))
    copy = store.copy()
    want = [i for i in range(1, 12) if i not in set(loaded)][:4]
    assert [store.fresh_sid().int for _ in range(4)] == want
    assert [copy.fresh_sid().int for _ in range(4)] == want


@pytest.fixture
def ground_store():
    store = Store(seed=0)
    for i in range(30):
        store.insert_ground(LocalId(f"v{i % 5}"), LocalId(f"p{i % 3}"), LocalId(f"w{i}"))
    return store


def test_point_reads_make_no_uuid_hash_or_comparison(monkeypatch, ground_store):
    store = ground_store
    target, last = store.statements()[7], store.statements()[-1]
    probes = {
        "match by sid": lambda: store.match(StatementPattern(sid=target.sid)),
        "match by label, building the index": lambda: store.match(StatementPattern(label=LocalId("p1"))),
        "match by label": lambda: store.match(StatementPattern(label=LocalId("p2"))),
        "match by source": lambda: store.match(StatementPattern(src=LocalId("v1"))),
        "match by SidRef source": lambda: store.match(StatementPattern(src=SidRef(target.sid))),
        "statements": store.statements,
        "sids_by_content": lambda: store.sids_by_content(*target.content),
        "referrers": lambda: store.referrers(target.sid),
        "depth": lambda: store.depth(target.sid),
        "hidden": lambda: store.hidden(target.sid),
        "restrict delete": lambda: store.delete_statement(last.sid, DeletePolicy.RESTRICT),
        "insert_ground": lambda: store.insert_ground(LocalId("v1"), LocalId("p1"), LocalId("w1")),
    }
    calls = []
    hash_, eq = uuid.UUID.__hash__, uuid.UUID.__eq__
    monkeypatch.setattr(uuid.UUID, "__hash__", lambda self: calls.append("__hash__") or hash_(self))
    monkeypatch.setattr(uuid.UUID, "__eq__", lambda self, other: calls.append("__eq__") or eq(self, other))
    found = {}
    for name, probe in probes.items():
        calls.clear()
        found[name] = probe()
        assert calls == [], name
    calls.clear()
    assert len({target.sid}) == 1 and calls == ["__hash__"]  # the counters count
    monkeypatch.undo()
    assert found["match by sid"] == [target] and found["sids_by_content"] == [target.sid]
    assert len(found["match by label"]) == 10 and len(found["match by source"]) == 6
    assert found["restrict delete"] == 1 and store.get(found["insert_ground"]).src == LocalId("v1")
