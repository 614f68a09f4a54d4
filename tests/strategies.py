"""hypothesis strategies shared by the property tests."""

from __future__ import annotations

import re
from decimal import Decimal
from urllib.parse import quote

from hypothesis import strategies as st

from og import (
    IN_GRAPH,
    BlankNode,
    DeletePolicy,
    Iri,
    Literal,
    LocalId,
    RDF_LANG_STRING,
    SidRef,
    Store,
    XSD_BOOLEAN,
    XSD_DECIMAL,
    XSD_DOUBLE,
    XSD_INTEGER,
    XSD_STRING,
    list_fold,
)
from og.views import RDF_TYPE

# LocalId takes anything non-empty without whitespace or angle brackets.
local_texts = st.text(
    alphabet=st.characters(
        blacklist_categories=("Zs", "Zl", "Zp", "Cc", "Cs"),
        blacklist_characters="<>",
    ),
    min_size=1,
    max_size=10,
)
local_ids = st.builds(LocalId, local_texts)

iris = st.builds(Iri, st.from_regex(r"urn:[a-z]{1,4}:[A-Za-z0-9._~-]{1,10}", fullmatch=True))
blank_nodes = st.builds(BlankNode, st.from_regex(r"[A-Za-z][A-Za-z0-9_]{0,8}", fullmatch=True))

scalars = st.one_of(
    st.integers(min_value=-(10**9), max_value=10**9),
    st.booleans(),
    st.text(max_size=12),
    st.decimals(allow_nan=False, allow_infinity=False, places=3, min_value=-10**6, max_value=10**6),
)
scalar_lists = st.lists(scalars, max_size=6)

plain_literals = st.builds(Literal, st.text(max_size=15))
lang_literals = st.builds(
    lambda t, l: Literal(t, RDF_LANG_STRING, language=l),
    st.text(max_size=10),
    st.sampled_from(["en", "en-US", "de"]),
)
typed_literals = st.one_of(
    st.builds(lambda n: Literal(str(n), XSD_INTEGER), st.integers(-10**9, 10**9)),
    st.builds(lambda d: Literal(str(d), XSD_DECIMAL), st.decimals(allow_nan=False, allow_infinity=False, places=2, min_value=-10**4, max_value=10**4)),
    st.sampled_from([Literal("INF", XSD_DOUBLE), Literal("NaN", XSD_DOUBLE), Literal("1.5E0", XSD_DOUBLE)]),
    st.sampled_from([Literal("true", XSD_BOOLEAN), Literal("false", XSD_BOOLEAN)]),
    st.builds(list_fold, scalar_lists),
    # ill-typed on purpose; everything downstream must still carry it
    st.builds(lambda t: Literal(t, XSD_INTEGER), st.sampled_from(["x", "1 2", ""])),
)
literals = st.one_of(plain_literals, lang_literals, typed_literals)

nodes = st.one_of(local_ids, iris, blank_nodes)
labels = st.one_of(local_ids, iris)


@st.composite
def stores(draw, max_statements: int = 14, membership_rate: float = 0.0):
    rng = draw(st.randoms(use_true_random=False))
    store = Store(seed=draw(st.integers(0, 2**20)))
    n = draw(st.integers(0, max_statements))
    for _ in range(n):
        sids = [s.sid for s in store.statements()]
        if sids and rng.random() < 0.4:
            ref = SidRef(rng.choice(sids))
            pick = rng.random()
            if pick < 0.3:
                store.insert_assertion(ref, draw(labels), SidRef(rng.choice(sids)))
            elif pick < 0.6:
                store.insert_assertion(draw(nodes), draw(labels), ref)
            else:
                val = draw(literals) if rng.random() < 0.5 else draw(nodes)
                store.insert_assertion(ref, draw(labels), val)
        else:
            val = draw(literals) if rng.random() < 0.5 else draw(nodes)
            store.insert_ground(draw(nodes), draw(labels), val)
    if membership_rate > 0:
        graphs = [Iri("urn:g:one"), Iri("urn:g:two"), LocalId("g3")]
        for s in list(store.statements()):
            if rng.random() < membership_rate:
                store.set_graph_membership(s.sid, rng.choice(graphs))
    return store


# --- many spellings of one identifier --------------------------------------

#: Namespaces for local identifiers: the default, the empty one (every IRI
#: is then decoded), and one that holds a percent escape itself.
NAMESPACES = ["urn:og:local:", "", "urn:e%2Fx:"]
#: Prefixes of the property-graph display; "exa" is longer than "ex".
PREFIXES = {"ex": "http://ex.org/", "exa": "http://ex.org/a", "og": "urn:og:"}

# Few characters, so that different spellings of one text meet often: "/"
# and "é" are escaped by exposure, "%2F" and "%2f" read as "/" when decoded.
spelling_texts = st.lists(
    st.sampled_from(["a", "b", "/", "%2F", "%2f", "%", "é", " ", "x:"]), min_size=1, max_size=4
).map("".join)


def _lower_escapes(text: str) -> str:
    return re.sub(r"%[0-9A-F]{2}", lambda m: m.group().lower(), text)


def spelled(text: str, namespace: str, how: str):
    """``text`` as a term: a local identifier, or an IRI under the namespace
    with canonical, lowercase-hex or unescaped percent escapes, or under a
    prefix, or a blank node. None when the text cannot be that term."""
    makers = {
        "local": lambda: LocalId(text),
        "canonical": lambda: Iri(namespace + quote(text, safe="")),
        "lowercase": lambda: Iri(namespace + _lower_escapes(quote(text, safe=""))),
        "unescaped": lambda: Iri(namespace + text),
        "ex": lambda: Iri(PREFIXES["ex"] + text),
        "exa": lambda: Iri(PREFIXES["exa"] + text),
        "full": lambda: Iri("urn:z:" + text),
        "blank": lambda: BlankNode(text),
    }
    try:
        return makers[how]()
    except ValueError:
        return None


SPELLINGS = ["local", "canonical", "lowercase", "unescaped", "ex", "exa", "full", "blank"]


@st.composite
def spelled_terms(draw, namespace: str):
    """A node or label term in one of the spellings, never None."""
    term = spelled(draw(spelling_texts), namespace, draw(st.sampled_from(SPELLINGS)))
    return term if term is not None else draw(st.sampled_from([LocalId("a"), BlankNode("b")]))


@st.composite
def spelled_stores(draw, namespace: str, max_statements: int = 16):
    """Stores whose nodes and labels collide across spellings, with
    assertions, memberships, ground statements under the membership label,
    and a few deletions so that the indexes have shrunk as well as grown."""
    store = Store(seed=0)
    rng = draw(st.randoms(use_true_random=False))
    labels = st.one_of(
        spelled_terms(namespace).filter(lambda t: isinstance(t, (Iri, LocalId))),
        st.sampled_from([LocalId("label"), RDF_TYPE, IN_GRAPH]),
    )
    for _ in range(draw(st.integers(0, max_statements))):
        sids = [s.sid for s in store.statements()]
        value = draw(st.one_of(spelled_terms(namespace), plain_literals))
        if sids and rng.random() < 0.3:
            ref = SidRef(rng.choice(sids))
            if rng.random() < 0.5:
                store.insert_assertion(ref, draw(labels), value)
            else:
                store.insert_assertion(draw(spelled_terms(namespace)), draw(labels), ref)
        else:
            store.insert_ground(draw(spelled_terms(namespace)), draw(labels), value)
    if len(store):
        for sid in draw(st.lists(st.sampled_from([s.sid for s in store.statements()]), max_size=3)):
            if sid in store:
                store.delete_statement(sid, DeletePolicy.CASCADE)
    return store
