"""The store's indexed lookups against full-scan oracles.

Triple updates find their targets through the content index, vertex ids
resolve through the node index, ``match`` by source through the source and
reverse-reference indexes, and ``match`` by label through the label index,
which only a match by label builds and every later insert and delete keeps
up to date. Each must give what a scan of every statement gives, in the
same order and with the same chosen term, also when one identifier is
spelled several ways in one store.
"""

import contextlib
import copy
import uuid
from unittest import mock
from urllib.parse import unquote

import oracles
from hypothesis import given, settings
from hypothesis import strategies as st
from strategies import (
    NAMESPACES,
    PREFIXES,
    SPELLINGS,
    plain_literals,
    spelled,
    spelled_stores,
    spelled_terms,
)

from og import (
    IN_GRAPH,
    RDF_LANG_STRING,
    XSD_INTEGER,
    BlankNode,
    DeletePolicy,
    InsertSemantics,
    Iri,
    Literal,
    LocalId,
    LpgViewConfig,
    OgError,
    RdfMode,
    ReferencedSidError,
    SidRef,
    Statement,
    StatementPattern,
    Store,
    dataset_view,
    lpg_add_edge,
    lpg_set_property,
    lpg_view,
    merge,
    parse_lpg_jsonl,
    parse_ntriples,
    parse_ognq,
    parse_turtle_star,
    rdf_delete_triple,
    rdf_insert_triple,
    rdf_star_view,
    rdf_view,
    serialize_lpg_jsonl,
    serialize_ntriples,
    serialize_ognq,
    serialize_turtle_star,
    star_annotate,
)
from og.update import _ground_matches, _vertex_terms
from og.views import _display


def respellings(term, namespace):
    """The term, and every spelling of its text when it is a local
    identifier or an IRI under the namespace."""
    if isinstance(term, LocalId):
        text = term.text
    elif isinstance(term, Iri) and term.text.startswith(namespace):
        text = unquote(term.text[len(namespace):])
    else:
        return [term]
    return [term] + [t for t in (spelled(text, namespace, how) for how in SPELLINGS) if t is not None]


@st.composite
def position(draw, store, namespace, pick):
    """A query term: from a stored statement (possibly respelled) or new."""
    statements = store.statements()
    if statements and draw(st.booleans()):
        term = pick(draw(st.sampled_from(statements)))
        return draw(st.sampled_from(respellings(term, namespace)))
    return draw(st.one_of(spelled_terms(namespace), plain_literals))


# Under the empty namespace most local identifiers have no IRI form, and
# exposing one raises, so triple lookups are checked under the others.
EXPOSING = [ns for ns in NAMESPACES if ns]


@settings(max_examples=150, deadline=None)
@given(data=st.data(), namespace=st.sampled_from(EXPOSING))
def test_triple_targets_equal_the_scan(data, namespace):
    store = data.draw(spelled_stores(namespace))
    statements = store.statements()
    for _ in range(8):
        if statements and data.draw(st.booleans()):
            # one stored triple, each position respelled
            base = data.draw(st.sampled_from(statements))
            s, p, o = (data.draw(st.sampled_from(respellings(t, namespace))) for t in base.content)
        else:
            s = data.draw(position(store, namespace, lambda st_: st_.src))
            p = data.draw(position(store, namespace, lambda st_: st_.label))
            o = data.draw(position(store, namespace, lambda st_: st_.value))
        assert _ground_matches(store, s, p, o, namespace) == oracles.ground_matches(statements, s, p, o, namespace)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), namespace=st.sampled_from(NAMESPACES))
def test_vertex_terms_equal_the_scan(data, namespace):
    store = data.draw(spelled_stores(namespace))
    cfg = LpgViewConfig(default_namespace=namespace, prefixes=PREFIXES)
    expected = oracles.vertex_candidates(store.statements(), cfg)
    others = data.draw(st.lists(st.builds(lambda t: _display(t, cfg), spelled_terms(namespace)), max_size=6))
    for vid in list(expected) + others + ["_:", "ex:", "", "%"]:
        assert _vertex_terms(store, vid, cfg) == expected.get(vid, [])


@settings(max_examples=150, deadline=None)
@given(data=st.data(), namespace=st.sampled_from(NAMESPACES))
def test_partial_match_equals_the_scan(data, namespace):
    store = data.draw(spelled_stores(namespace))
    statements = store.statements()
    # the sids in the store, and one that is in no store
    refs = st.sampled_from([s.sid for s in statements] + [uuid.UUID(int=10**6)]).map(SidRef)
    for _ in range(6):
        src = data.draw(st.one_of(st.none(), refs, position(store, namespace, lambda st_: st_.src)))
        label = data.draw(st.one_of(st.none(), position(store, namespace, lambda st_: st_.label)))
        value = data.draw(st.one_of(st.none(), refs, position(store, namespace, lambda st_: st_.value)))
        if isinstance(src, Literal):
            src = None
        if label is not None and not isinstance(label, (Iri, LocalId)):
            label = None
        pattern = StatementPattern(src=src, label=label, value=value)
        assert store.match(pattern) == oracles.pattern_matches(statements, pattern)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), namespace=st.sampled_from(NAMESPACES))
def test_indexes_after_deletions_equal_a_fresh_build(data, namespace):
    store = data.draw(spelled_stores(namespace))
    fresh = Store()
    fresh.add_statements(store.statements())
    copied = store.copy()
    for built in (store, fresh, copied):
        built.match(StatementPattern(label=IN_GRAPH))
    for other in (fresh, copied):
        for index in ("_by_content", "_referrers", "_by_src", "_nodes", "_by_label"):
            assert getattr(store, index) == getattr(other, index), index


def assert_label_matches_equal_the_scan(store):
    statements = store.statements()
    patterns = {StatementPattern(label=LocalId("absent"))}
    for st_ in statements:
        patterns |= {StatementPattern(label=st_.label), StatementPattern(label=st_.label, value=st_.value)}
    for pattern in patterns:
        assert store.match(pattern) == oracles.pattern_matches(statements, pattern), pattern


@st.composite
def batches(draw, store, namespace):
    """Triples for ``insert_new``: stored or new terms, some referring to a
    stored statement or to an earlier triple of the batch."""
    sids = [s.sid for s in store.statements()]
    triples = []
    for i in range(draw(st.integers(1, 3))):
        refs = [SidRef(s) for s in sids] + list(range(i))
        ref = st.sampled_from(refs) if refs else spelled_terms(namespace)
        src = draw(st.one_of(spelled_terms(namespace), ref))
        label = draw(position(store, namespace, lambda st_: st_.label).filter(lambda t: isinstance(t, (Iri, LocalId))))
        value = draw(st.one_of(position(store, namespace, lambda st_: st_.value), ref))
        triples.append((src, label, value))
    return triples


@settings(max_examples=100, deadline=None)
@given(data=st.data(), namespace=st.sampled_from(EXPOSING))
def test_label_index_upkeep_equals_the_scan(data, namespace):
    store = data.draw(spelled_stores(namespace))
    store.match(StatementPattern(label=LocalId("label")))
    assert_label_matches_equal_the_scan(store)
    cfg = LpgViewConfig(default_namespace=namespace, prefixes=PREFIXES)
    for _ in range(data.draw(st.integers(1, 6))):
        statements = store.statements()
        step = data.draw(st.sampled_from(["insert", "delete", "rdf", "lpg"] if statements else ["insert"]))
        if step == "insert":
            store.insert_new(data.draw(batches(store, namespace)))
        elif step == "delete":
            store.delete_statement(data.draw(st.sampled_from(statements)).sid, DeletePolicy.CASCADE)
        elif step == "rdf":
            triple = data.draw(st.sampled_from(statements)).content
            try:
                rdf_insert_triple(store, *triple, InsertSemantics.MULTI, namespace)
                star_annotate(store, *triple, LocalId("note"), Literal("n"), namespace=namespace)
                rdf_delete_triple(store, *triple, namespace=namespace)
            except OgError:
                pass  # a triple with a sid reference has no ground statement
        else:
            src = data.draw(st.sampled_from(statements)).src
            vertex = "_:new" if isinstance(src, SidRef) else _display(src, cfg)
            try:
                lpg_add_edge(store, vertex, "_:new", "met", {"w": 1}, auto_create=True, config=cfg)
                lpg_set_property(store, vertex, data.draw(st.sampled_from(["label", "w", "name"])), 7, cfg)
            except OgError:
                pass  # the source is no vertex of the view
        assert_label_matches_equal_the_scan(store)


@st.composite
def lower_statements(draw, store, namespace):
    """One to three new statements, each under an absent sid below the last
    sid of its label's statements, so each lands before that label's last
    statement; a source or value may reference a stored statement."""
    statements = store.statements()
    taken = {s.sid.int for s in statements}
    refs = st.sampled_from([SidRef(s.sid) for s in statements])
    out = []
    for _ in range(draw(st.integers(1, 3))):
        label = draw(st.sampled_from(statements)).label
        last = max(s.sid.int for s in statements if s.label == label)
        k = draw(st.integers(0, max(last - 1, 0)))
        while k in taken and k:
            k -= 1
        if k in taken:
            continue
        taken.add(k)
        src = draw(st.one_of(spelled_terms(namespace), refs))
        value = draw(st.one_of(position(store, namespace, lambda st_: st_.value), refs))
        out.append(Statement(src, label, value, uuid.UUID(int=k)))
    return out


@settings(max_examples=100, deadline=None)
@given(data=st.data(), namespace=st.sampled_from(NAMESPACES))
def test_label_matches_stay_in_sid_order_after_out_of_order_installs(data, namespace):
    """The label index keeps each label's statements in sid order through
    uuid4 sids, loads and parses of sids below a label's last one, and
    cascade deletes: every label and label+value match equals the scan, in
    the same order, on the read that sorts a group and on the read after."""
    store = Store()  # unseeded: insert_new issues uuid4 sids
    store.add_statements(data.draw(spelled_stores(namespace)).statements())
    store.match(StatementPattern(label=LocalId("label")))
    # uuid4 from a drawn generator, so that a failing example replays
    rng = data.draw(st.randoms(use_true_random=False))

    def uuid4():
        return uuid.UUID(int=rng.getrandbits(128), version=4)

    for _ in range(data.draw(st.integers(1, 6))):
        statements = store.statements()
        step = data.draw(st.sampled_from(["insert", "add", "parse", "delete"] if statements else ["insert"]))
        if step == "insert":
            with mock.patch("uuid.uuid4", uuid4):
                store.insert_new(data.draw(batches(store, namespace)))
        elif step == "add":
            store.add_statements(data.draw(lower_statements(store, namespace)))
        elif step == "parse":
            parse_ognq(oracles.ognq_text(data.draw(lower_statements(store, namespace))), store)
        else:
            store.delete_statement(data.draw(st.sampled_from(statements)).sid, DeletePolicy.CASCADE)
        assert_label_matches_equal_the_scan(store)
        assert not store._unsorted  # every label was read, so the next reads find each group sorted
        assert_label_matches_equal_the_scan(store)


#: Every index of the store, as a fresh build of its statements makes it.
INDEXES = ("_by_sid", "_by_content", "_referrers", "_by_src", "_by_label", "_nodes", "_blanks", "_depth", "_hidden")


def assert_indexes_equal_a_fresh_build(store):
    fresh = Store()
    fresh.add_statements(store.statements())
    if store._by_label is not None:
        fresh.match(StatementPattern(label=IN_GRAPH))
    for index in INDEXES:
        assert getattr(store, index) == getattr(fresh, index), index


def update(data, store, namespace):
    """One drawn update: an insert, a delete under either policy, a graph
    membership, or an LPG edge or property update."""
    statements = store.statements()
    step = data.draw(st.sampled_from(["insert", "delete", "member", "lpg"] if statements else ["insert"]))
    if step == "insert":
        store.insert_new(data.draw(batches(store, namespace)))
    elif step == "delete":
        try:
            store.delete_statement(data.draw(st.sampled_from(statements)).sid, data.draw(st.sampled_from(DeletePolicy)))
        except ReferencedSidError:
            pass
    elif step == "member":
        graph = data.draw(st.sampled_from([Iri("urn:g:one"), LocalId("g2")]))
        store.set_graph_membership(data.draw(st.sampled_from(statements)).sid, graph)
    else:
        cfg = LpgViewConfig(default_namespace=namespace, prefixes=PREFIXES)
        src = data.draw(st.sampled_from(statements)).src
        vertex = "_:new" if isinstance(src, SidRef) else _display(src, cfg)
        try:
            lpg_add_edge(store, vertex, "_:new", "met", {"w": 1}, auto_create=True, config=cfg)
            lpg_set_property(store, vertex, data.draw(st.sampled_from(["label", "w", "name"])), 7, cfg)
        except OgError:
            pass  # the source is no vertex of the view


@settings(max_examples=100, deadline=None)
@given(data=st.data(), namespace=st.sampled_from(EXPOSING))
def test_a_copy_and_its_original_change_apart(data, namespace):
    """``Store.copy`` copies the indexes: after any updates to either store,
    each one's indexes are what a fresh build of its statements makes, the
    other's text is unchanged, and a copy issues the sid its store would."""
    store = data.draw(spelled_stores(namespace))
    if data.draw(st.booleans()):
        store.match(StatementPattern(label=IN_GRAPH))
    copied = store.copy()
    assert copied._by_label is None
    assert_indexes_equal_a_fresh_build(copied)
    for _ in range(data.draw(st.integers(1, 5))):
        for this, other in ((store, copied), (copied, store)):
            before = serialize_ognq(other)
            update(data, this, namespace)
            assert_indexes_equal_a_fresh_build(this)
            assert serialize_ognq(other) == before
            assert this.copy().fresh_sid() == this.fresh_sid()


def test_only_a_match_by_label_builds_the_label_index(multi_edge_store):
    """Loading, viewing, merging and updating a store leave it without a
    label index, so their memory does not grow by one."""
    store = multi_edge_store
    alice, knows, bob = store.statements()[0].content
    edge = store.statements()[0].sid
    store.set_graph_membership(edge, Iri("urn:g:one"))
    texts = {
        parse_ognq: serialize_ognq(store),
        parse_ntriples: serialize_ntriples(rdf_view(store)),
        parse_turtle_star: serialize_turtle_star(rdf_star_view(store)),
        parse_lpg_jsonl: serialize_lpg_jsonl(lpg_view(store)),
    }
    # a parse into a copy of the store appends to it, except OG-NQ's, whose sids it holds
    built = [parse(text) for parse, text in texts.items()]
    built += [parse(text, store.copy()) for parse, text in texts.items() if parse is not parse_ognq]
    built += [store.copy(), merge(store, built[0])[0]]
    rdf_view(store, RdfMode.REIFY)
    dataset_view(store)
    store.list_graphs()
    rdf_insert_triple(store, alice, knows, LocalId("Carol"))
    star_annotate(store, alice, knows, bob, LocalId("note"), Literal("n"))
    rdf_delete_triple(store, alice, knows, LocalId("Carol"))
    lpg_add_edge(store, "Alice", "Dave", "met", {"w": 1}, auto_create=True)
    lpg_set_property(store, "Alice", "name", "Al")
    lpg_set_property(store, edge, "since", 2019)
    store.match(StatementPattern(src=alice))
    store.delete_statement(edge)
    # nothing drops a built index, so one look at the end covers every step
    assert all(s._by_label is None for s in built + [store])
    store.match(StatementPattern(label=knows))
    assert store._by_label is not None and store.copy()._by_label is None


def test_a_match_by_label_and_value_calls_no_term_eq():
    """Values under one label are compared by type and defining fields, so
    terms of another type with the same text never match, and no term's
    dataclass ``__eq__`` runs."""
    store = Store(seed=0)
    p = LocalId("p")
    values = [
        Iri("urn:x"), LocalId("urn:x"), BlankNode("x"), Literal("urn:x"), Literal("1"),
        Literal("1", XSD_INTEGER), Literal("1", RDF_LANG_STRING, "en"), Literal("1", RDF_LANG_STRING, "de"),
    ]
    for value in values + values[:3]:
        store.insert_ground(LocalId("s"), p, value)
    edge = store.statements()[0].sid
    store.insert_assertion(SidRef(edge), p, SidRef(edge))
    statements = store.statements()
    store.match(StatementPattern(label=p))  # builds the label index, keyed by p itself
    # equal but distinct objects, and terms the store does not hold
    wanted = [copy.deepcopy(v) for v in values] + [SidRef(edge), SidRef(uuid.UUID(int=10**6)), Literal("2")]
    expected = [oracles.pattern_matches(statements, StatementPattern(label=p, value=v)) for v in wanted]
    refuse = mock.Mock(side_effect=AssertionError("a term __eq__ ran"))
    with contextlib.ExitStack() as patches:
        for kind in (Iri, LocalId, BlankNode, Literal, SidRef, uuid.UUID):
            patches.enter_context(mock.patch.object(kind, "__eq__", refuse))
        found = [store.match(StatementPattern(label=p, value=v)) for v in wanted]
    assert found == expected
    assert [len(f) for f in found] == [2, 2, 2, 1, 1, 1, 1, 1, 1, 0, 0]
