"""The store's indexed lookups against full-scan oracles.

Triple updates find their targets through the content index, vertex ids
resolve through the node index, and ``match`` by source through the
source and reverse-reference indexes. Each must give what a scan of every
statement gives, in the same order and with the same chosen term, also
when one identifier is spelled several ways in one store.
"""

import uuid
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
    Iri,
    Literal,
    LocalId,
    LpgViewConfig,
    SidRef,
    StatementPattern,
    Store,
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
    for index in ("_by_content", "_referrers", "_by_src", "_nodes"):
        assert getattr(store, index) == getattr(fresh, index), index
