"""Line-delimited JSON for property graphs.

One JSON object per line. Vertices: ``{"type": "vertex", "id": …,
"labels": […], "properties": {…}}``. Edges: ``{"type": "edge", "id": …,
"label": …, "from": …, "to": …, "properties": {…}}``. A property maps a
key to one value, to ``{"value": …, "meta": {…}}``, or to an array of
those; an array nested one level deeper is a single list-literal value,
so ``"xs": [1, 2]`` is two values and ``"xs": [[1, 2]]`` is one list.

Parsing is two-pass, so edges may precede the vertices they connect, but
both endpoints must be declared somewhere in the document. Ids are names,
not statement identifiers: every parse run issues fresh sids. A vertex
with no labels, no properties, and no incident edges would leave no
statement behind, so it gets the default label statement instead.
"""

from __future__ import annotations

import json
import re

from ..datatypes import Literal, coerce_lpg_value
from ..errors import ParseError, UnknownEndpointError, UnsupportedValueError
from ..store import Store
from ..terms import LocalId, sid_text
from ..views import DEFAULT_VERTEX_LABEL, LpgGraph, VertexProperty

_LABEL = LocalId("label")

_VERTEX_KEYS = {"type", "id", "labels", "properties"}
_EDGE_KEYS = {"type", "id", "label", "from", "to", "properties"}


def _no_constants(token: str):
    raise ValueError(f"{token} is not valid JSON here")


_SCALARS = (str, int, float, bool)
_SURROGATE = re.compile("[\ud800-\udfff]")


def _holds_surrogate(doc) -> bool:
    """Whether a key or string of a decoded line holds a surrogate: a lone
    ``\\ud800`` escape decodes to one, a valid pair to one character."""
    todo = [doc]
    while todo:
        x = todo.pop()
        if isinstance(x, dict):
            todo += [*x, *x.values()]
        elif isinstance(x, list):
            todo += x
        elif isinstance(x, str) and _SURROGATE.search(x):
            return True
    return False


class _Terms:
    """The ``LocalId``s and scalar ``Literal``s of one parse call, each
    distinct one built once; only a term built without error is kept."""

    def __init__(self):
        self.locals: dict[str, LocalId] = {}
        self.values: dict[object, Literal] = {}

    def local(self, text, what: str, lineno: int) -> LocalId:
        if not isinstance(text, str):
            raise ParseError(f"{what} must be a string", line=lineno)
        term = self.locals.get(text)
        if term is None:
            try:
                term = self.locals[text] = LocalId(text)
            except ValueError as e:
                raise ParseError(f"bad {what}: {e}", line=lineno)
        return term

    def value(self, raw) -> Literal:
        """:func:`coerce_lpg_value` of a JSON value; a list is not kept."""
        kind = type(raw)
        if kind not in _SCALARS:
            return coerce_lpg_value(raw)
        # True, 1 and 1.0 are equal keys, and so are 0.0 and -0.0: key by
        # type, and a float by its repr; a string, never equal to a tuple, by itself
        key = raw if kind is str else (kind, repr(raw) if kind is float else raw)
        lit = self.values.get(key)
        if lit is None:
            lit = self.values[key] = coerce_lpg_value(raw)
        return lit


def _value_entries(raw, lineno: int, allow_meta: bool) -> list[tuple[object, dict]]:
    """Split a property's JSON value into (value, meta) pairs.

    A top-level array is a multi-valued property; list literals sit one
    level deeper.
    """
    items = raw if isinstance(raw, list) else [raw]
    out = []
    for item in items:
        if isinstance(item, dict):
            if not allow_meta:
                raise ParseError("meta objects cannot nest", line=lineno)
            if "value" not in item or not set(item) <= {"value", "meta"}:
                raise ParseError('property objects take "value" and optional "meta"', line=lineno)
            meta = item.get("meta", {})
            if not isinstance(meta, dict):
                raise ParseError('"meta" must be an object', line=lineno)
            out.append((item["value"], meta))
        else:
            out.append((item, {}))
    return out


def _property_triples(batch: list[tuple], terms: _Terms, subject, raw_props, lineno: int) -> None:
    """Append a property map's triples about ``subject`` (a term, or the
    batch index of an edge) to the batch, each value's meta after it."""
    if not isinstance(raw_props, dict):
        raise ParseError('"properties" must be an object', line=lineno)
    for key, raw in raw_props.items():
        pred = terms.local(key, "property key", lineno)
        for value, meta in _value_entries(raw, lineno, allow_meta=True):
            site = len(batch)
            batch.append((subject, pred, terms.value(value)))
            for mk, mraw in meta.items():
                mpred = terms.local(mk, "meta key", lineno)
                for mv, _ in _value_entries(mraw, lineno, allow_meta=False):
                    batch.append((site, mpred, terms.value(mv)))


def parse_lpg_jsonl(text: str, store: Store | None = None) -> Store:
    """Parse a property-graph document; see the module docstring for shapes.

    All or nothing: on error the store is left unchanged.
    """
    store = store if store is not None else Store()
    decode = json.JSONDecoder(parse_constant=_no_constants).decode  # one decoder per call
    docs: list[tuple[int, dict]] = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        try:
            if line.startswith("\ufeff"):  # refused as json.loads refuses it
                raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", line, 0)
            doc = decode(line)
        except (ValueError, RecursionError) as e:
            raise ParseError(str(e), line=lineno)
        if "\\u" in line and _holds_surrogate(doc):
            raise ParseError("a string holds a lone surrogate", line=lineno)
        if not isinstance(doc, dict):
            raise ParseError("each line must be a JSON object", line=lineno)
        if doc.get("type") not in ("vertex", "edge"):
            raise ParseError('"type" must be "vertex" or "edge"', line=lineno)
        docs.append((lineno, doc))

    batch: list[tuple] = []
    terms = _Terms()
    vertices: dict[str, LocalId] = {}
    anchored: set[str] = set()
    for lineno, doc in docs:
        if doc["type"] != "vertex":
            continue
        extra = set(doc) - _VERTEX_KEYS
        if extra:
            raise ParseError(f"unknown vertex keys: {sorted(extra)}", line=lineno)
        if "id" not in doc:
            raise ParseError('vertices need an "id"', line=lineno)
        term = terms.local(doc["id"], "vertex id", lineno)
        if term.text in vertices:
            raise ParseError(f"duplicate vertex id {term.text!r}", line=lineno)
        vertices[term.text] = term
        labels = doc.get("labels", [])
        if not isinstance(labels, list) or any(not isinstance(x, str) for x in labels):
            raise ParseError('"labels" must be an array of strings', line=lineno)
        for lbl in dict.fromkeys(labels):
            batch.append((term, _LABEL, terms.value(lbl)))
        props = doc.get("properties", {})
        _property_triples(batch, terms, term, props, lineno)
        if labels or props:
            anchored.add(term.text)

    edge_ids: set[str] = set()
    for lineno, doc in docs:
        if doc["type"] != "edge":
            continue
        extra = set(doc) - _EDGE_KEYS
        if extra:
            raise ParseError(f"unknown edge keys: {sorted(extra)}", line=lineno)
        for needed in ("id", "label", "from", "to"):
            if needed not in doc:
                raise ParseError(f'edges need a "{needed}"', line=lineno)
        if not isinstance(doc["id"], str):
            raise ParseError("edge id must be a string", line=lineno)
        if doc["id"] in edge_ids:
            raise ParseError(f"duplicate edge id {doc['id']!r}", line=lineno)
        edge_ids.add(doc["id"])
        label = terms.local(doc["label"], "edge label", lineno)
        ends = []
        for key in ("from", "to"):
            name = doc[key]
            if not isinstance(name, str) or name not in vertices:
                raise UnknownEndpointError(
                    f"edge {doc['id']!r} (line {lineno}) references undeclared vertex {name!r}"
                )
            ends.append(vertices[name])
            anchored.add(name)
        edge = len(batch)
        batch.append((ends[0], label, ends[1]))
        _property_triples(batch, terms, edge, doc.get("properties", {}), lineno)

    for vid, term in vertices.items():
        if vid not in anchored:
            batch.append((term, _LABEL, terms.value(DEFAULT_VERTEX_LABEL)))
    store.insert_new(batch)
    return store


# --- serialization --------------------------------------------------------


def _wrap_values(values: list) -> object:
    """Bare scalar when single-valued; otherwise an array (lists always nest)."""
    if len(values) == 1 and not isinstance(values[0], list):
        return values[0]
    return list(values)


def _one_site(site: VertexProperty):
    if site.meta:
        return {
            "value": site.value,
            "meta": {k: _wrap_values(vs) for k, vs in site.meta.items()},
        }
    return site.value


def serialize_lpg_jsonl(graph: LpgGraph) -> str:
    """One JSON line per vertex, then per edge, in view order."""
    dumps = json.JSONEncoder(ensure_ascii=False, allow_nan=False).encode

    def encode(obj: dict) -> str:
        try:
            return dumps(obj)
        except ValueError:  # the encoder refuses NaN and ±inf, in lists too
            raise UnsupportedValueError("non-finite numbers have no JSON form") from None

    lines = []
    for vid, v in graph.vertices.items():
        obj: dict = {"type": "vertex", "id": vid, "labels": list(v.labels)}
        if v.properties:
            obj["properties"] = {
                k: _wrap_values([_one_site(s) for s in sites]) for k, sites in v.properties.items()
            }
        lines.append(encode(obj))
    for sid, e in graph.edges.items():
        obj = {"type": "edge", "id": sid_text(sid), "label": e.label, "from": e.source, "to": e.target}
        if e.properties:
            obj["properties"] = {k: _wrap_values(vs) for k, vs in e.properties.items()}
        lines.append(encode(obj))
    return "".join(line + "\n" for line in lines)
