"""The store's iteration contract, and the views that rest on it.

Iterating a store yields each statement after the statements it references.
The views walk the store once in that order, so on stores where it differs
from sid order (random sids, or explicit sids that fall as references nest)
each view must still equal the view of the same statements installed in sid
order, and the brute-force oracles.
"""

import itertools
import uuid
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from og import (
    DeletePolicy,
    EdgeIdentity,
    Iri,
    LocalId,
    MergeRules,
    RdfMode,
    ReferencedSidError,
    SidRef,
    Statement,
    Store,
    dataset_view,
    is_ground,
    lpg_view,
    merge,
    rdf_star_view,
    rdf_view,
    referenced_sids,
    serialize_ognq,
)
from og.views import _analyze

import oracles
from strategies import labels, literals, nodes

GRAPHS = [Iri("urn:g:one"), LocalId("g3")]
OPS = [
    "ground", "assert", "member", "cascade", "restrict", "batch",
    "copy", "merge", "collapse", "collapse_properties",
]


@st.composite
def reordered_stores(draw):
    """Stores built through the public mutators only, with random sids or
    explicit sids that decrease as statements reference earlier ones."""
    rng = draw(st.randoms(use_true_random=False))
    # unseeded stores draw their random sids from the example's own source,
    # so that hypothesis can replay and shrink an example; the low bits count,
    # so that no two stores share a sid, as with real uuid4
    issued = itertools.count()

    def uuid4():
        return uuid.UUID(int=rng.getrandbits(96) << 32 | next(issued), version=4)

    with mock.patch.object(uuid, "uuid4", uuid4):
        return _build(draw, rng)


def _build(draw, rng):
    store = Store() if draw(st.booleans()) else Store(seed=draw(st.integers(0, 100)))
    explicit = 1 << 100  # falls with each explicit sid

    def value():
        return draw(literals) if rng.random() < 0.5 else draw(nodes)

    def grow(s: Store, n: int):
        nonlocal explicit
        batch: list[Statement] = []
        for _ in range(n):
            sids = [x.sid for x in s] + [x.sid for x in batch]
            explicit -= 1
            if sids and rng.random() < 0.5:
                ref = SidRef(rng.choice(sids))
                other = SidRef(rng.choice(sids)) if rng.random() < 0.3 else value()
                src, val = (ref, other) if rng.random() < 0.7 else (draw(nodes), ref)
            else:
                src, val = draw(nodes), value()
            batch.append(Statement(src, draw(labels), val, uuid.UUID(int=explicit)))
        if rng.random() < 0.5:
            batch.reverse()
        else:
            rng.shuffle(batch)
        s.add_statements(batch)

    for op in draw(st.lists(st.sampled_from(OPS), min_size=1, max_size=10)):
        sids = [x.sid for x in store]
        if op == "ground" or (not sids and op in ("assert", "member", "cascade", "restrict")):
            store.insert_ground(draw(nodes), draw(labels), value())
        elif op == "assert":
            ref = SidRef(rng.choice(sids))
            if rng.random() < 0.5:
                store.insert_assertion(ref, draw(labels), value())
            else:
                store.insert_assertion(draw(nodes), draw(labels), ref)
        elif op == "member":
            store.set_graph_membership(rng.choice(sids), rng.choice(GRAPHS))
        elif op == "cascade":
            store.delete_statement(rng.choice(sids), DeletePolicy.CASCADE)
        elif op == "restrict":
            try:
                store.delete_statement(rng.choice(sids), DeletePolicy.RESTRICT)
            except ReferencedSidError:
                pass
        elif op == "batch":
            grow(store, draw(st.integers(1, 6)))
        elif op == "copy":
            store = store.copy()
        else:
            other = Store()
            ground = [x for x in store if is_ground(x)]
            for x in rng.sample(ground, min(len(ground), 2)):
                other.insert_ground(*x.content)  # content twins to collapse
            grow(other, draw(st.integers(0, 4)))
            identity = {
                "merge": EdgeIdentity.DISTINCT,
                "collapse": EdgeIdentity.COLLAPSE_IDENTICAL_CONTENT,
                "collapse_properties": EdgeIdentity.COLLAPSE_IDENTICAL_CONTENT_AND_PROPERTIES,
            }[op]
            store, _ = merge(store, other, MergeRules(edge_identity=identity))
    return store


def views(store: Store) -> dict:
    return {
        "hide": rdf_view(store, RdfMode.HIDE),
        "reify": rdf_view(store, RdfMode.REIFY),
        "star": rdf_star_view(store),
        "lpg": repr(lpg_view(store)),  # repr: NaN property values equal
        "dataset": dataset_view(store),
        "ognq": serialize_ognq(store),
    }


@given(reordered_stores())
@settings(max_examples=150, deadline=None)
def test_iteration_yields_each_statement_after_its_references(store):
    seen = set()
    for st_ in store:
        assert referenced_sids(st_) <= seen
        seen.add(st_.sid)
    assert seen == {x.sid for x in store.statements()} and len(seen) == len(store)


@given(reordered_stores())
@settings(max_examples=150, deadline=None)
def test_views_do_not_depend_on_install_order(store):
    in_sid_order = Store()
    in_sid_order.add_statements(store.statements())
    assert views(store) == views(in_sid_order)

    statements = store.statements()
    visible, _ = _analyze(store)
    assert visible == {x.sid for x in statements} - oracles.invisible_sids(statements)
    assert rdf_view(store).triples == oracles.hide_triples(statements)
    assert rdf_view(store, RdfMode.REIFY).triples == oracles.reify_triples(statements)
    ds = dataset_view(store)
    default, named = oracles.dataset_placement(statements)
    assert ds.default.triples == default
    assert {g: gr.triples for g, gr in ds.named.items()} == named


def test_collapse_with_properties_does_not_depend_on_install_order():
    # Collapsing one group deletes the assertion that makes the other
    # group's annotation trees equal, so the groups must be taken in one
    # fixed order (by least sid) and not in the order they were installed.
    x, y = (LocalId("a"), LocalId("p"), LocalId("b")), (LocalId("c"), LocalId("p"), LocalId("d"))
    sid = {name: uuid.UUID(int=n) for name, n in (("x1", 10), ("x2", 11), ("y1", 1), ("y2", 2))}
    statements = [Statement(*x, sid["x1"]), Statement(*x, sid["x2"]), Statement(*y, sid["y1"]), Statement(*y, sid["y2"])]
    r = LocalId("r")
    statements.append(Statement(SidRef(sid["x2"]), r, SidRef(sid["y2"]), uuid.UUID(int=20)))
    statements.append(Statement(SidRef(sid["x1"]), r, SidRef(sid["y1"]), uuid.UUID(int=21)))
    store, in_sid_order = Store(), Store()
    store.add_statements(statements)
    in_sid_order.add_statements(sorted(statements, key=lambda s: s.sid))
    rules = MergeRules(edge_identity=EdgeIdentity.COLLAPSE_IDENTICAL_CONTENT_AND_PROPERTIES)
    merged, report = merge(store, Store(), rules)
    twin, _ = merge(in_sid_order, Store(), rules)
    assert serialize_ognq(merged) == serialize_ognq(twin)
    assert report.edges_collapsed == 1 and sid["y2"] not in merged
