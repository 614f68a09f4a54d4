"""Seeded inputs for the benchmark, and the documents written from them.

Everything here is built from ``random.Random(seed)`` and the benchmark's own
writers, never from the program's serializers, so a change to a serializer
cannot change the inputs that the parsers are timed on.
"""

from __future__ import annotations

import json
import random
import uuid
from collections import Counter
from dataclasses import dataclass, field

import oracles
from og import (
    DEFAULT_LOCAL_NS,
    IN_GRAPH,
    XSD_DECIMAL,
    XSD_INTEGER,
    BlankNode,
    Iri,
    Literal,
    LocalId,
    SidRef,
    Statement,
)

LABEL = LocalId("label")
KINDS = ["Person", "Org", "Place"]
EDGE_LABELS = [LocalId("knows"), LocalId("likes"), LocalId("worksAt")]
PROP_KEYS = [LocalId("name"), LocalId("age"), LocalId("score")]
ANNOT_KEYS = [LocalId("since"), LocalId("weight")]
META_KEY = LocalId("source")
DEEP_KEY = LocalId("certainty")
GRAPHS = [Iri(f"urn:og:graph:g{k}") for k in range(8)]

# Share of each record kind, by statement count.  Every kind of the
# property-graph reading appears: labels, properties, edges (some of them
# multi-edges), edge annotations, meta-properties, memberships, and a few
# assertions over assertions that every reduced view has to drop.
_MIX = [
    ("vertex", 10),
    ("property", 22),
    ("edge", 26),
    ("multi_edge", 3),
    ("annotation", 15),
    ("meta", 8),
    ("membership", 12),
    ("deep", 4),
]
_BLANK_SHARE = 0.05
_ESCAPE_SHARE = 0.02


@dataclass
class Records:
    """A generated store: statements in sid order plus the roles they play."""

    statements: list[Statement] = field(default_factory=list)
    vertices: list = field(default_factory=list)
    vertex_labels: dict = field(default_factory=dict)   # term -> [kind text]
    edges: list = field(default_factory=list)           # sids of ground node-valued statements
    props: list = field(default_factory=list)           # sids of literal-valued vertex properties
    annotations: list = field(default_factory=list)     # sids of literal annotations on edges
    memberships: set = field(default_factory=set)       # (edge sid, graph)

    def by_sid(self) -> dict:
        return {st.sid: st for st in self.statements}


def sid_of(i: int) -> uuid.UUID:
    return uuid.UUID(int=i)


def _literal(rng: random.Random, key: LocalId) -> Literal:
    if key.text == "age":
        return Literal(str(rng.randrange(1, 100)), XSD_INTEGER)
    if key.text == "score":
        return Literal(f"{rng.randrange(1000)}.{rng.randrange(100):02d}", XSD_DECIMAL)
    text = f"n{rng.randrange(10**6)}"
    if rng.random() < _ESCAPE_SHARE:
        text += ' "quoted" back\\slash'
    return Literal(text)


def make_records(n: int, seed: int, first_sid: int = 1) -> Records:
    """About ``n`` statements in sid order, every reference pointing backwards."""
    rng = random.Random(seed)
    rec = Records()
    kinds = [k for k, _ in _MIX]
    weights = [w for _, w in _MIX]
    by_content: dict = {}
    next_sid = first_sid

    def emit(src, label, value) -> uuid.UUID:
        nonlocal next_sid
        st = Statement(src, label, value, sid_of(next_sid))
        next_sid += 1
        rec.statements.append(st)
        return st.sid

    def new_vertex():
        i = len(rec.vertices)
        term = BlankNode(f"b{i}") if rng.random() < _BLANK_SHARE else LocalId(f"v{i}")
        kind = rng.choice(KINDS)
        rec.vertices.append(term)
        rec.vertex_labels[term] = [kind]
        emit(term, LABEL, Literal(kind))

    while len(rec.statements) < 4:
        new_vertex()
    while len(rec.statements) < n:
        kind = rng.choices(kinds, weights)[0]
        if kind == "vertex":
            new_vertex()
        elif kind == "property":
            key = rng.choice(PROP_KEYS)
            rec.props.append(emit(rng.choice(rec.vertices), key, _literal(rng, key)))
        elif kind == "edge" or (kind == "multi_edge" and not rec.edges):
            content = (rng.choice(rec.vertices), rng.choice(EDGE_LABELS), rng.choice(rec.vertices))
            sid = emit(*content)
            rec.edges.append(sid)
            by_content[sid] = content
        elif kind == "multi_edge":
            content = by_content[rng.choice(rec.edges)]
            sid = emit(*content)
            rec.edges.append(sid)
            by_content[sid] = content
        elif kind == "annotation" and rec.edges:
            key = rng.choice(ANNOT_KEYS)
            value = Literal(str(rng.randrange(1990, 2030)), XSD_INTEGER)
            rec.annotations.append(emit(SidRef(rng.choice(rec.edges)), key, value))
        elif kind == "meta" and rec.props:
            emit(SidRef(rng.choice(rec.props)), META_KEY, Literal(f"src{rng.randrange(50)}"))
        elif kind == "membership" and rec.edges:
            pair = (rng.choice(rec.edges), rng.choice(GRAPHS))
            if pair not in rec.memberships:
                rec.memberships.add(pair)
                emit(SidRef(pair[0]), IN_GRAPH, pair[1])
        elif kind == "deep" and rec.annotations:
            emit(SidRef(rng.choice(rec.annotations)), DEEP_KEY, Literal(rng.choice(["high", "low"])))
    return rec


# --- the benchmark's own writers ---------------------------------------------


def _esc(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _literal_token(lit: Literal) -> str:
    body = f'"{_esc(lit.lexical)}"'
    if lit.language is not None:
        return f"{body}@{lit.language}"
    if lit.datatype.text.endswith("#string"):
        return body
    return f"{body}^^<{lit.datatype.text}>"


def ognq_token(t) -> str:
    if isinstance(t, Iri):
        return f"<{t.text}>"
    if isinstance(t, LocalId):
        return f'local:"{_esc(t.text)}"'
    if isinstance(t, BlankNode):
        return f"_:{t.label}"
    if isinstance(t, SidRef):
        return f"<urn:og:sid:{t.sid}>"
    return _literal_token(t)


def exposed(t):
    """A term as the RDF views show it, by ``tests/oracles.py``."""
    return oracles.exposed(t, DEFAULT_LOCAL_NS)


def rdf_token(t) -> str:
    """N-Triples / Turtle token of a term as the RDF side sees it."""
    return ognq_token(exposed(t))


def write_ognq(statements) -> str:
    return "".join(
        f"{ognq_token(st.src)} {ognq_token(st.label)} {ognq_token(st.value)} <urn:og:sid:{st.sid}> .\n"
        for st in statements
    )


def ground(rec: Records) -> list[Statement]:
    return [st for st in rec.statements if not isinstance(st.src, SidRef) and not isinstance(st.value, SidRef)]


def write_ntriples(rec: Records) -> tuple[str, Counter]:
    """One line per ground statement (multi-edges repeat) and the expected contents."""
    lines, want = [], Counter()
    for st in ground(rec):
        lines.append(f"{rdf_token(st.src)} {rdf_token(st.label)} {rdf_token(st.value)} .\n")
        want[(exposed(st.src), exposed(st.label), exposed(st.value))] += 1
    return "".join(lines), want


def write_turtle_star(rec: Records) -> tuple[str, set]:
    """Distinct ground triples, then one quoted-triple line per edge annotation
    and meta-property; returns the text and the expected statement contents."""
    by_sid = rec.by_sid()
    lines, want = [], set()
    for st in ground(rec):
        c = (exposed(st.src), exposed(st.label), exposed(st.value))
        if c not in want:
            want.add(c)
            lines.append(f"{rdf_token(st.src)} {rdf_token(st.label)} {rdf_token(st.value)} .\n")
    for st in rec.statements:
        if not isinstance(st.src, SidRef) or st.label == IN_GRAPH:
            continue
        target = by_sid[st.src.sid]
        if isinstance(target.src, SidRef):
            continue
        quoted = f"<< {rdf_token(target.src)} {rdf_token(target.label)} {rdf_token(target.value)} >>"
        c = ((exposed(target.src), exposed(target.label), exposed(target.value)), exposed(st.label), st.value)
        if c not in want:
            want.add(c)
            lines.append(f"{quoted} {rdf_token(st.label)} {rdf_token(st.value)} .\n")
    return "".join(lines), want


def _json_value(lit: Literal):
    return int(lit.lexical) if lit.datatype == XSD_INTEGER else lit.lexical


def vertex_id(t) -> str:
    return "_:" + t.label if isinstance(t, BlankNode) else t.text


def write_lpg_jsonl(rec: Records) -> tuple[str, int]:
    """The property-graph reading as JSONL; returns the text and the number of
    statements a parse of it installs."""
    by_sid = rec.by_sid()
    meta: dict = {}
    edge_props: dict = {}
    for st in rec.statements:
        if isinstance(st.src, SidRef) and st.label == META_KEY:
            meta.setdefault(st.src.sid, []).append(st.value.lexical)
        elif isinstance(st.src, SidRef) and st.label in ANNOT_KEYS:
            edge_props.setdefault(st.src.sid, {}).setdefault(st.label.text, []).append(int(st.value.lexical))
    props: dict = {t: {} for t in rec.vertices}
    for sid in rec.props:
        st = by_sid[sid]
        site = _json_value(st.value)
        if sid in meta:
            site = {"value": site, "meta": {META_KEY.text: meta[sid]}}
        props[st.src].setdefault(st.label.text, []).append(site)
    lines = []
    count = 0
    for t in rec.vertices:
        obj = {"type": "vertex", "id": vertex_id(t), "labels": rec.vertex_labels[t]}
        if props[t]:
            obj["properties"] = props[t]
        lines.append(json.dumps(obj))
        count += 1 + sum(len(v) for v in props[t].values())
        count += sum(len(s["meta"][META_KEY.text]) for v in props[t].values() for s in v if isinstance(s, dict))
    for sid in rec.edges:
        st = by_sid[sid]
        obj = {"type": "edge", "id": f"e{sid.int}", "label": st.label.text,
               "from": vertex_id(st.src), "to": vertex_id(st.value)}
        if sid in edge_props:
            obj["properties"] = edge_props[sid]
        lines.append(json.dumps(obj))
        count += 1 + sum(len(v) for v in edge_props.get(sid, {}).values())
    return "".join(line + "\n" for line in lines), count


# --- adversarial shapes --------------------------------------------------------


def reference_chain(n: int, seed, first_sid: int = 1) -> list[Statement]:
    """A ground root and ``n - 1`` assertions, each about the one before it."""
    rng = random.Random(seed)
    out = [Statement(LocalId(f"root{rng.randrange(10**6):06d}"), LocalId("p"), Literal("0"), sid_of(first_sid))]
    for k in range(1, n):
        out.append(Statement(SidRef(out[-1].sid), LocalId("next"), Literal(f"x{rng.randrange(10**6):06d}"),
                             sid_of(first_sid + k)))
    return out


def multi_edge_store(copies: int, background: int, seed: int) -> tuple[list[Statement], tuple]:
    """``copies`` statements of one triple, each annotated alike, beside
    ``background`` distinct ground statements; returns them and the triple."""
    rng = random.Random(seed)
    out = [Statement(LocalId(f"u{i}"), LocalId("name"), Literal(f"n{rng.randrange(10**6)}"), sid_of(i + 1))
           for i in range(background)]
    triple = (LocalId(f"A{rng.randrange(100)}"), LocalId("knows"), LocalId(f"B{rng.randrange(100)}"))
    since = Literal(str(rng.randrange(1990, 2030)), XSD_INTEGER)
    sid = background
    for _ in range(copies):
        edge = sid_of(sid + 1)
        out.append(Statement(*triple, edge))
        out.append(Statement(SidRef(edge), LocalId("since"), since, sid_of(sid + 2)))
        sid += 2
    return out, triple


def blank_statements(k: int, seed: int, first_sid: int, label: LocalId) -> list[Statement]:
    """``k`` statements over the blank labels b0..b(k-1), in seeded order."""
    rng = random.Random(seed)
    order = list(range(k))
    rng.shuffle(order)
    return [Statement(BlankNode(f"b{i}"), label, BlankNode(f"b{order[i]}"), sid_of(first_sid + j))
            for j, i in enumerate(order)]
