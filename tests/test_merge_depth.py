"""Collapsing with properties on deep and shared annotation chains."""

import threading

from og import EdgeIdentity, Literal, LocalId, MergeRules, SidRef, Store, merge

RULES = MergeRules(edge_identity=EdgeIdentity.COLLAPSE_IDENTICAL_CONTENT_AND_PROPERTIES)


def _edge(store: Store):
    return store.insert_ground(LocalId("a"), LocalId("p"), LocalId("b"))


def test_deep_annotation_chains_collapse():
    store = Store(seed=0)
    for _ in range(2):
        sid = _edge(store)
        for _ in range(2000):
            sid = store.insert_assertion(SidRef(sid), LocalId("k"), Literal("v"))
    out, report = merge(store, Store(), RULES)
    assert report.edges_collapsed == 1
    assert len(out) == 2001


def test_shared_double_reference_chain_collapses():
    store = Store(seed=0)
    q = store.insert_ground(LocalId("x"), LocalId("q"), LocalId("y"))
    for _ in range(64):
        q = store.insert_assertion(SidRef(q), LocalId("k"), SidRef(q))
    for _ in range(2):
        store.insert_assertion(SidRef(_edge(store)), LocalId("w"), SidRef(q))
    results = []
    # a signature that is exponential in the chain length fails here instead of hanging
    worker = threading.Thread(target=lambda: results.append(merge(store, Store(), RULES)), daemon=True)
    worker.start()
    worker.join(timeout=30)
    assert not worker.is_alive()
    [(out, report)] = results
    assert report.edges_collapsed == 1
    assert len(out) == len(store) - 2
