"""Brute-force reference implementations the real code is checked against.

Everything in here trades speed for obviousness: plain fixpoint loops over
statement lists, no indexes, no early exits. Each function is small enough
to audit by eye, which is the whole point.
"""

from __future__ import annotations

import json

from og import (
    IN_GRAPH,
    BlankNode,
    Iri,
    Literal,
    LocalId,
    ParseError,
    SidRef,
    Statement,
    expose_local_as_iri,
    is_ground,
    referenced_sids,
    sid_iri,
    term_key,
)
from og.datatypes import LANG_TAG, RDF_LANG_STRING
from og.formats.common import (
    BARE_LITERAL,
    Cursor,
    bare_literal,
    end_of_statement,
    render_term,
    scan_blank,
    scan_iri_text,
    scan_string_body,
    scan_term,
)
from og.terms import sid_key
from og.views import QuotedTriple, _display

RDF_NS = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
RDF_TYPE = Iri(RDF_NS + "type")
RDF_STATEMENT = Iri(RDF_NS + "Statement")
RDF_SUBJECT = Iri(RDF_NS + "subject")
RDF_PREDICATE = Iri(RDF_NS + "predicate")
RDF_OBJECT = Iri(RDF_NS + "object")


def cascade_closure(statements, target):
    """Sids that must disappear when `target` is deleted with cascade.

    Fixpoint: anything referencing a doomed sid is doomed too.
    """
    doomed = {target}
    changed = True
    while changed:
        changed = False
        for st in statements:
            if st.sid not in doomed and referenced_sids(st) & doomed:
                doomed.add(st.sid)
                changed = True
    return doomed


def invisible_sids(statements):
    """Membership statements plus everything transitively referencing one."""
    hidden = {st.sid for st in statements if st.label == IN_GRAPH}
    changed = True
    while changed:
        changed = False
        for st in statements:
            if st.sid not in hidden and referenced_sids(st) & hidden:
                hidden.add(st.sid)
                changed = True
    return hidden


def quoting_depth(statements):
    """Quoting depth of every statement: 0 for a ground one, else one more
    than its deepest reference. Fixpoint: raise depths until none changes."""
    depth = {st.sid: 0 for st in statements}
    changed = True
    while changed:
        changed = False
        for st in statements:
            d = max((depth[r] + 1 for r in referenced_sids(st)), default=0)
            if d != depth[st.sid]:
                depth[st.sid] = d
                changed = True
    return depth


def exposed(term, namespace):
    if isinstance(term, LocalId):
        return expose_local_as_iri(term, namespace)
    return term


def hide_triples(statements, namespace="urn:og:local:"):
    """Expected rdf_view(Hide): one triple per visible ground statement."""
    hidden = invisible_sids(statements)
    out = set()
    for st in statements:
        if st.sid in hidden or not is_ground(st):
            continue
        out.add((exposed(st.src, namespace), exposed(st.label, namespace), exposed(st.value, namespace)))
    return frozenset(out)


def reify_triples(statements, namespace="urn:og:local:"):
    """Expected rdf_view(Reify).

    Hide triples, plus the four classic reification triples for every ground
    statement some visible assertion points at, plus one triple per visible
    assertion with its sid references rendered as sid IRIs.
    """
    hidden = invisible_sids(statements)
    by_sid = {st.sid: st for st in statements}

    def render(term):
        if isinstance(term, SidRef):
            return sid_iri(term.sid)
        return exposed(term, namespace)

    out = set(hide_triples(statements, namespace))
    pointed_at = set()
    for st in statements:
        if st.sid in hidden or is_ground(st):
            continue
        out.add((render(st.src), render(st.label), render(st.value)))
        for ref in referenced_sids(st):
            target = by_sid[ref]
            if is_ground(target):
                pointed_at.add(ref)
    for sid in pointed_at:
        st = by_sid[sid]
        node = sid_iri(sid)
        out.add((node, RDF_TYPE, RDF_STATEMENT))
        out.add((node, RDF_SUBJECT, exposed(st.src, namespace)))
        out.add((node, RDF_PREDICATE, exposed(st.label, namespace)))
        out.add((node, RDF_OBJECT, exposed(st.value, namespace)))
    return frozenset(out)


def dataset_placement(statements, namespace="urn:og:local:"):
    """Expected dataset_view placement as (default, {graph_iri: triples}).

    A ground statement's triple lands in every graph it has a first-order
    membership for, and in the default graph when it has none. Memberships
    of memberships, and memberships whose value is neither an IRI nor a
    local identifier, place nothing.
    """
    hidden = invisible_sids(statements)
    by_sid = {st.sid: st for st in statements}
    member_of: dict = {}
    for st in statements:
        if st.label != IN_GRAPH or not isinstance(st.src, SidRef) or not isinstance(st.value, (Iri, LocalId)):
            continue
        target = by_sid.get(st.src.sid)
        if target is None or target.label == IN_GRAPH:
            continue
        member_of.setdefault(st.src.sid, set()).add(exposed(st.value, namespace))

    default = set()
    named: dict = {}
    for st in statements:
        if st.sid in hidden or not is_ground(st):
            continue
        triple = (exposed(st.src, namespace), exposed(st.label, namespace), exposed(st.value, namespace))
        graphs = member_of.get(st.sid)
        if not graphs:
            default.add(triple)
        else:
            for g in graphs:
                named.setdefault(g, set()).add(triple)
    return frozenset(default), {g: frozenset(ts) for g, ts in named.items()}


def collapse_content(statements):
    """Expected CollapseIdenticalContent result on a merged statement set.

    Ground statements with identical (src, label, value) fold into the
    least sid of their group; every SidRef anywhere is rewritten to the
    survivor. Returns (expected statement set, eliminated ground count).
    """
    groups: dict = {}
    for st in statements:
        if is_ground(st):
            groups.setdefault((st.src, st.label, st.value), []).append(st.sid)
    redirect = {}
    losers = 0
    for sids in groups.values():
        keep = min(sids)
        for sid in sids:
            if sid != keep:
                redirect[sid] = keep
                losers += 1

    def rewrite(term):
        if isinstance(term, SidRef) and term.sid in redirect:
            return SidRef(redirect[term.sid])
        return term

    out = set()
    for st in statements:
        if st.sid in redirect:
            continue
        out.add(type(st)(rewrite(st.src), st.label, rewrite(st.value), st.sid))
    return out, losers


def lpg_shape(graph):
    """Canonical, sid-free form of an LpgGraph for multiset comparison.

    Edge sids are fresh on every parse, so round trips are compared on
    this shape rather than on raw equality. repr() keeps 1 and True and
    1.0 apart.
    """

    def vals(values):
        return tuple(sorted(repr(v) for v in values))

    def props(properties):
        return tuple(sorted((k, vals(v)) for k, v in properties.items()))

    def full_props(properties):
        out = []
        for key, sites in properties.items():
            for site in sites:
                meta = tuple(sorted((mk, vals(mv)) for mk, mv in site.meta.items()))
                out.append((key, repr(site.value), meta))
        return tuple(sorted(out))

    vertices = tuple(
        sorted((vid, tuple(sorted(v.labels)), full_props(v.properties)) for vid, v in graph.vertices.items())
    )
    edges = tuple(
        sorted((e.source, e.target, e.label, props(e.properties)) for e in graph.edges.values())
    )
    return vertices, edges


def ground_matches(statements, s, p, o, namespace="urn:og:local:"):
    """Expected target of a view-level triple update, in the order given.

    Every visible ground statement whose exposed triple is (s, p, o).
    """
    want = (exposed(s, namespace), exposed(p, namespace), exposed(o, namespace))
    return [
        st
        for st in statements
        if is_ground(st)
        and st.label != IN_GRAPH
        and (exposed(st.src, namespace), exposed(st.label, namespace), exposed(st.value, namespace)) == want
    ]


def vertex_candidates(statements, cfg):
    """Expected store terms behind each vertex id, least term first.

    A node is the source, or the non-literal value, of a ground statement
    outside graph membership; its vertex id is its property-graph display.
    """
    found: dict = {}
    for st in statements:
        if not is_ground(st) or st.label == IN_GRAPH:
            continue
        nodes = [st.src]
        if not isinstance(st.value, Literal):
            nodes.append(st.value)
        for t in nodes:
            found.setdefault(_display(t, cfg), set()).add(t)
    return {vid: sorted(terms, key=term_key) for vid, terms in found.items()}


def pattern_matches(statements, pattern):
    """Expected Store.match result: the matching statements, in the order given."""
    return [st for st in statements if pattern.matches(st)]


# --- serialized text: every occurrence rendered anew ------------------------


def ognq_text(statements):
    """Expected serialize_ognq: every term rendered with render_term, in sid order."""
    lines = []
    for st in sorted(statements, key=lambda st: sid_key(st.sid)):
        parts = [render_term(t, ognq=True) for t in st.content] + [render_term(sid_iri(st.sid))]
        lines.append(" ".join(parts) + " .\n")
    return "".join(lines)


def nested_key(t):
    """The nested form of views.triple_key's order: term keys, a quoted
    triple ``(5, key(s), key(p), key(o))``, a triple the tuple of its three."""
    if isinstance(t, tuple):
        return tuple(map(nested_key, t))
    if isinstance(t, QuotedTriple):
        return (5, nested_key(t.s), nested_key(t.p), nested_key(t.o))
    return term_key(t)


def ntriples_text(triples):
    """Expected serialize_ntriples: every term rendered with render_term, in nested_key order."""
    return "".join(" ".join(map(render_term, t)) + " .\n" for t in sorted(triples, key=nested_key))


def turtle_star_text(triples):
    """Expected serialize_turtle_star without prefixes, in nested_key order:
    ``a`` for rdf:type, bare numbers and booleans, quoted triples spelled out."""

    def node(t):
        if isinstance(t, QuotedTriple):
            return f"<< {node(t.s)} {verb(t.p)} {node(t.o)} >>"
        if isinstance(t, Literal) and bare_literal(t.lexical) == t:
            return t.lexical
        return render_term(t)

    def verb(p):
        return "a" if p == RDF_TYPE else node(p)

    return "".join(f"{node(s)} {verb(p)} {node(o)} .\n" for s, p, o in sorted(triples, key=nested_key))


def lpg_jsonl_text(graph):
    """Expected serialize_lpg_jsonl: one ``json.dumps`` per element. A key
    holds its one value bare, or an array of them; a value with meta is an
    object; a list value always sits in an array."""

    def wrap(values):
        return values[0] if len(values) == 1 and not isinstance(values[0], list) else list(values)

    def site(s):
        return {"value": s.value, "meta": {k: wrap(vs) for k, vs in s.meta.items()}} if s.meta else s.value

    objs = []
    for vid, v in graph.vertices.items():
        obj = {"type": "vertex", "id": vid, "labels": list(v.labels)}
        if v.properties:
            obj["properties"] = {k: wrap([site(s) for s in sites]) for k, sites in v.properties.items()}
        objs.append(obj)
    for sid, e in graph.edges.items():
        obj = {"type": "edge", "id": str(sid), "label": e.label, "from": e.source, "to": e.target}
        if e.properties:
            obj["properties"] = {k: wrap(vs) for k, vs in e.properties.items()}
        objs.append(obj)
    return "".join(json.dumps(obj, ensure_ascii=False, allow_nan=False) + "\n" for obj in objs)


# --- parsed text: every token read with a cursor ----------------------------


def _statement_lines(text):
    """(line number, Cursor) for each line that is not blank or a comment."""
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line[:-1] if line.endswith("\r") else line
        if line.strip() and not line.strip().startswith("#"):
            yield lineno, Cursor(line, lineno)


def ognq_statements(text):
    """Expected parse_ognq statements, blank labels not yet renamed apart:
    every term of every line scanned where it stands, none remembered."""
    out = []
    for lineno, cur in _statement_lines(text):
        terms = []
        for _ in range(4):
            cur.skip_ws()
            terms.append(scan_term(cur, ognq=True))
        end_of_statement(cur)
        if not isinstance(terms[3], SidRef):
            raise ParseError("the fourth position must be the statement's sid IRI", line=lineno)
        if any(st.sid == terms[3].sid for st in out):
            raise ParseError(f"duplicate sid {terms[3].sid}", line=lineno)
        try:
            out.append(Statement(*terms[:3], terms[3].sid))
        except Exception as e:
            raise ParseError(str(e), line=lineno) from None
    return out


def ntriples_triples(text):
    """Expected parse_ntriples triples, blank labels not yet renamed apart:
    every term scanned where it stands, its position checked at its column."""
    out = []
    for lineno, cur in _statement_lines(text):
        triple = []
        for kinds, what in (((Iri, BlankNode), "subject must be an IRI or blank node"),
                            ((Iri,), "predicate must be an IRI"), (object, "")):
            cur.skip_ws()
            col = cur.pos + 1
            t = scan_term(cur)
            if not isinstance(t, kinds):
                raise ParseError(what, line=lineno, column=col)
            triple.append(t)
        end_of_statement(cur)
        out.append(tuple(triple))
    return out


def turtle_star_triples(text):
    """Expected parse_turtle_star content, for documents whose tokens are
    spaced apart (a literal's suffix aside): prefix declarations, and triples
    with ``;``, ``,``, ``a``, quoted triples and bare numbers and booleans.
    Every triple, quoted ones included, as nested tuples, in the order they
    are read, blank labels not yet renamed apart. The whole document is
    tokenized with the cursor scanners first."""
    tokens = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        cur = Cursor(line.rstrip("\r"), lineno)
        while True:
            cur.skip_ws()
            if cur.at_end() or cur.peek() == "#":
                break
            rest = cur.text[cur.pos:]
            number = BARE_LITERAL.match(rest) if rest[0] in "+-0123456789" else None
            if rest[:2] in ("<<", ">>", "^^") or rest[0] in ".;,":
                tok = rest[:2] if rest[:2] in ("<<", ">>", "^^") else rest[0]
                cur.pos += len(tok)
            elif rest[0] == "<":
                tok = ("iri", scan_iri_text(cur))
            elif rest[0] == '"':
                tok = ("string", scan_string_body(cur))
            elif rest[0] == "@" and tokens and tokens[-1][0] == "string":
                tok = ("lang", LANG_TAG.match(rest, 1).group())
                cur.pos += 1 + len(tok[1])
            elif rest[0] == "_":
                tok = ("blank", scan_blank(cur))
            else:
                word = rest.split()[0]
                if number or word in ("true", "false"):
                    word = number.group() if number else word
                    tok = ("literal", bare_literal(word))
                elif word in ("a", "@prefix", "PREFIX"):
                    tok = word
                else:
                    tok = ("pname", word.split(":", 1))
                cur.pos += len(word)
            tokens.append(tok)

    tokens.reverse()
    prefixes, triples = {}, []

    def iri(tok):
        return Iri(tok[1]) if tok[0] == "iri" else Iri(prefixes[tok[1][0]] + tok[1][1])

    def verb():
        tok = tokens.pop()
        return RDF_TYPE if tok == "a" else iri(tok)

    def node():
        tok = tokens.pop()
        if tok == "<<":
            quoted = (node(), verb(), node())
            assert tokens.pop() == ">>"
            triples.append(quoted)
            return quoted
        if tok[0] in ("blank", "literal"):
            return tok[1]
        if tok[0] != "string":
            return iri(tok)
        if tokens[-1][0] == "lang":
            return Literal(tok[1], RDF_LANG_STRING, tokens.pop()[1])
        if tokens[-1] == "^^":
            tokens.pop()
            return Literal(tok[1], iri(tokens.pop()))
        return Literal(tok[1])

    while tokens:
        if tokens[-1] in ("@prefix", "PREFIX"):
            keyword, (label, _), base = tokens.pop(), tokens.pop()[1], tokens.pop()[1]
            prefixes[label] = base
            if keyword == "@prefix":
                assert tokens.pop() == "."
            continue
        subject = node()
        while True:
            predicate = verb()
            triples.append((subject, predicate, node()))
            while tokens[-1] == ",":
                tokens.pop()
                triples.append((subject, predicate, node()))
            if tokens.pop() == ".":
                break
    return triples
