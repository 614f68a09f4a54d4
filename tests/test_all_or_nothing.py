"""Operations that error leave the store untouched, as one property.

Every public mutator, every parser into an existing store, and ``merge``
run on random seeded stores with arguments that are sometimes invalid: a
literal as source or label, an absent sid, a bad name, a non-finite value,
malformed text. Whenever one raises an OgError, the store's text and the
sid it issues next are what they were before the call.
"""

import uuid

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from og import (
    AmbiguityPolicy,
    DeletePolicy,
    InsertSemantics,
    OgError,
    SidRef,
    Statement,
    Store,
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
from og.merge import BlankNodePolicy, EdgeIdentity, MergeRules

from strategies import labels, literals, local_texts, nodes, scalars, stores

sources = st.one_of(nodes, nodes, literals)
label_terms = st.one_of(labels, labels, literals)
names = st.one_of(st.sampled_from(["name", "knows", "bad key", "", "a<b"]), local_texts)
lpg_values = st.one_of(scalars, st.sampled_from([float("nan"), float("inf"), None]))
absent_sids = st.integers(2**64, 2**100).map(lambda n: uuid.UUID(int=n))


def state(store: Store) -> tuple:
    return serialize_ognq(store), store.copy().fresh_sid()


def some_sid(data, store: Store):
    sids = [s.sid for s in store.statements()]
    if sids and data.draw(st.booleans()):
        return data.draw(st.sampled_from(sids))
    return data.draw(absent_sids)


def some_triple(data, store: Store) -> tuple:
    """The content of a statement of the store, or random terms."""
    if len(store) and data.draw(st.booleans()):
        return data.draw(st.sampled_from(store.statements())).content
    return data.draw(sources), data.draw(label_terms), data.draw(st.one_of(nodes, literals))


def some_vertex(data, store: Store) -> tuple[str, list[str]]:
    """A vertex id of the property-graph view with its property keys, or a random name."""
    vertices = lpg_view(store).vertices
    if vertices and data.draw(st.booleans()):
        vid = data.draw(st.sampled_from(sorted(vertices)))
        return vid, sorted(vertices[vid].properties)
    return data.draw(names), []


def some_text(data, other: Store, fmt: str) -> str:
    """``other`` in a format, sometimes cut short or with a bad line added."""
    try:
        text = {
            "ognq": lambda: serialize_ognq(other),
            "ntriples": lambda: serialize_ntriples(rdf_view(other)),
            "ttls": lambda: serialize_turtle_star(rdf_star_view(other)),
            "lpgjsonl": lambda: serialize_lpg_jsonl(lpg_view(other)),
        }[fmt]()
    except (OgError, ValueError):
        text = ""
    how = data.draw(st.sampled_from(["as is", "cut", "bad line"]))
    if how == "cut" and text:
        text = text[: data.draw(st.integers(0, len(text) - 1))]
    elif how == "bad line":
        text += data.draw(st.sampled_from(["<urn:a> <urn:b> .\n", "{\"type\": 1}\n", "<< >> .\n", "[" * 3000 + "\n"]))
    return text


def op_insert_ground(data, store):
    s, p, o = some_triple(data, store)
    return lambda: store.insert_ground(s, p, o)


def op_insert_assertion(data, store):
    ref = SidRef(some_sid(data, store))
    _, p, o = some_triple(data, store)
    return lambda: store.insert_assertion(ref, p, o)


def op_delete_statement(data, store):
    sid, policy = some_sid(data, store), data.draw(st.sampled_from(DeletePolicy))
    return lambda: store.delete_statement(sid, policy)


def op_set_graph_membership(data, store):
    sid, graph = some_sid(data, store), data.draw(st.one_of(labels, literals))
    return lambda: store.set_graph_membership(sid, graph)


def op_add_statements(data, store):
    batch = []
    for _ in range(data.draw(st.integers(1, 3))):
        s, p, o = some_triple(data, store)
        if data.draw(st.booleans()):
            o = SidRef(some_sid(data, store))
        sid = some_sid(data, store) if data.draw(st.booleans()) else data.draw(absent_sids)
        try:
            batch.append(Statement(s, p, o, sid))
        except OgError:
            pass
    return lambda: store.add_statements(batch)


def op_rdf_delete_triple(data, store):
    s, p, o = some_triple(data, store)
    ambiguity = data.draw(st.sampled_from(AmbiguityPolicy))
    delete = data.draw(st.sampled_from(DeletePolicy))
    return lambda: rdf_delete_triple(store, s, p, o, ambiguity, delete)


def op_rdf_insert_triple(data, store):
    s, p, o = some_triple(data, store)
    semantics = data.draw(st.sampled_from(InsertSemantics))
    return lambda: rdf_insert_triple(store, s, p, o, semantics)


def op_star_annotate(data, store):
    s, p, o = some_triple(data, store)
    key = data.draw(label_terms)
    value = SidRef(some_sid(data, store)) if data.draw(st.booleans()) else data.draw(literals)
    policy = data.draw(st.sampled_from(AmbiguityPolicy))
    return lambda: star_annotate(store, s, p, o, key, value, policy)


def op_lpg_add_edge(data, store):
    (source, _), (target, _) = some_vertex(data, store), some_vertex(data, store)
    label = data.draw(names)
    props = data.draw(st.dictionaries(names, lpg_values, max_size=2))
    auto_create = data.draw(st.booleans())
    return lambda: lpg_add_edge(store, source, target, label, props, auto_create)


def op_lpg_set_property(data, store):
    edges = lpg_view(store).edges
    if edges and data.draw(st.booleans()):
        element = data.draw(st.sampled_from(sorted(edges)))
        keys = sorted(edges[element].properties)
    else:
        element, keys = some_vertex(data, store)
    key = data.draw(st.sampled_from(keys)) if keys and data.draw(st.booleans()) else data.draw(names)
    value = data.draw(lpg_values)
    return lambda: lpg_set_property(store, element, key, value)


def op_parse(parse, fmt):
    def op(data, store):
        text = some_text(data, data.draw(stores(max_statements=6)), fmt)
        return lambda: parse(text, store)

    return op


OPERATIONS = {
    "insert_ground": op_insert_ground,
    "insert_assertion": op_insert_assertion,
    "delete_statement": op_delete_statement,
    "set_graph_membership": op_set_graph_membership,
    "add_statements": op_add_statements,
    "rdf_delete_triple": op_rdf_delete_triple,
    "rdf_insert_triple": op_rdf_insert_triple,
    "star_annotate": op_star_annotate,
    "lpg_add_edge": op_lpg_add_edge,
    "lpg_set_property": op_lpg_set_property,
    "parse_ognq": op_parse(parse_ognq, "ognq"),
    "parse_ntriples": op_parse(parse_ntriples, "ntriples"),
    "parse_turtle_star": op_parse(parse_turtle_star, "ttls"),
    "parse_lpg_jsonl": op_parse(parse_lpg_jsonl, "lpgjsonl"),
}


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(stores(membership_rate=0.2), st.sampled_from(sorted(OPERATIONS)), st.data())
def test_a_refused_operation_leaves_the_store_and_its_next_sid(store, name, data):
    call = OPERATIONS[name](data, store)
    before = state(store)
    try:
        call()
    except OgError:
        assert state(store) == before, name


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(stores(membership_rate=0.2), st.data())
def test_merge_leaves_both_inputs(a, data):
    if len(a) and data.draw(st.booleans()):
        # a sid of ``a`` arriving with other content is refused
        sid = data.draw(st.sampled_from(a.statements())).sid
        b = parse_ognq(f"<urn:x:other> <urn:x:p> \"{sid}\" <urn:og:sid:{sid}> .\n", Store(seed=0))
    else:
        b = data.draw(stores(max_statements=6))
    rules = MergeRules(
        blank_node_policy=data.draw(st.sampled_from(BlankNodePolicy)),
        edge_identity=data.draw(st.sampled_from(EdgeIdentity)),
    )
    before = state(a), state(b)
    try:
        merge(a, b, rules)
    except OgError:
        pass
    assert (state(a), state(b)) == before
