"""LPG exchange format: one JSON object per line, vertices before edges."""

import json

import pytest
from hypothesis import given, settings

from og import (
    CoercionTally,
    LpgGraph,
    ParseError,
    Store,
    UnknownEndpointError,
    UnsupportedValueError,
    Vertex,
    VertexProperty,
    lpg_view,
    parse_lpg_jsonl,
    serialize_lpg_jsonl,
    serialize_ognq,
)
from oracles import lpg_shape
from strategies import stores

TOY_JSONL = """\
{"type": "vertex", "id": "Alice", "labels": ["Vertex"], "properties": {"name": "Alice"}}
{"type": "vertex", "id": "Bob", "labels": ["Vertex"], "properties": {"name": "Bob"}}
{"type": "edge", "id": "00000000-0000-0000-0000-000000000001", "label": "knows", "from": "Alice", "to": "Bob", "properties": {"since": 2020}}
"""


class TestParse:
    def test_property_value_shapes(self):
        doc = (
            '{"type": "vertex", "id": "v", "labels": ["Thing"], "properties": '
            '{"tags": ["a", "b"], "coords": [[1, 2]], "name": {"value": "x", "meta": {"src": "census"}}}}\n'
        )
        g = lpg_view(parse_lpg_jsonl(doc))
        vx = g.vertices["v"]
        assert sorted(p.value for p in vx.properties["tags"]) == ["a", "b"]  # two sites
        assert [p.value for p in vx.properties["coords"]] == [[1, 2]]  # one list value
        (name,) = vx.properties["name"]
        assert name.value == "x" and name.meta == {"src": ["census"]}

    def test_edges_make_assertions_on_the_edge_sid(self):
        doc = (
            '{"type": "vertex", "id": "a"}\n{"type": "vertex", "id": "b"}\n'
            '{"type": "edge", "id": "e1", "label": "k", "from": "a", "to": "b", "properties": {"w": 2}}\n'
        )
        st = parse_lpg_jsonl(doc)
        assert len(st.statements()) == 2  # the edge plus its property assertion
        g = lpg_view(st)
        (edge,) = g.edges.values()
        assert edge.properties == {"w": [2]}

    def test_lonely_vertices_get_the_default_label(self):
        st = parse_lpg_jsonl('{"type": "vertex", "id": "lonely"}\n')
        assert len(st.statements()) == 1  # one synthesized label statement
        assert lpg_view(st).vertices["lonely"].labels == ["Vertex"]

    def test_anchored_vertices_are_not_padded(self):
        doc = '{"type": "vertex", "id": "v", "properties": {"name": "x"}}\n'
        st = parse_lpg_jsonl(doc)
        assert len(st.statements()) == 1  # the property anchors it; label comes from the view
        assert lpg_view(st).vertices["v"].labels == ["Vertex"]

    def test_edge_endpoints_anchor_their_vertices(self):
        doc = (
            '{"type": "vertex", "id": "a"}\n{"type": "vertex", "id": "b"}\n'
            '{"type": "edge", "id": "e", "label": "k", "from": "a", "to": "b"}\n'
        )
        st = parse_lpg_jsonl(doc)
        assert len(st.statements()) == 1  # just the edge

    @pytest.mark.parametrize(
        "line,error,needle",
        [
            ('{"type": "vertex"}', ParseError, '"id"'),
            ('{"type": "vertex", "id": "has space"}', ParseError, "vertex id"),
            ('{"type": "nope", "id": "x"}', ParseError, "vertex"),
            ('{"type": "vertex", "id": "a", "bogus": 1}', ParseError, "bogus"),
            ("not json", ParseError, ""),
            ('["array"]', ParseError, "object"),
            ('{"type": "vertex", "id": "a", "properties": {"p": NaN}}', ParseError, "NaN"),
            (
                '{"type": "vertex", "id": "a", "properties": {"p": {"value": 1, "meta": {"m": {"value": 2}}}}}',
                ParseError,
                "nest",
            ),
            ('{"type": "edge", "id": "e", "label": "k", "from": "a", "to": "b"}', UnknownEndpointError, "undeclared"),
        ],
    )
    def test_malformed_lines(self, line, error, needle):
        with pytest.raises(error) as e:
            parse_lpg_jsonl(line + "\n")
        assert needle in str(e.value)
        assert "line 1" in str(e.value)

    def test_duplicate_ids_report_their_line(self):
        with pytest.raises(ParseError) as e:
            parse_lpg_jsonl('{"type": "vertex", "id": "a"}\n{"type": "vertex", "id": "a"}\n')
        assert "line 2" in str(e.value)


class TestSerialize:
    def test_toy_view_golden(self, toy_store):
        assert serialize_lpg_jsonl(lpg_view(toy_store)) == TOY_JSONL

    def test_every_line_is_strict_json(self, multi_edge_store):
        for line in serialize_lpg_jsonl(lpg_view(multi_edge_store)).splitlines():
            obj = json.loads(line)
            assert obj["type"] in ("vertex", "edge")

    def test_single_values_are_bare_and_lists_nest(self):
        doc = '{"type": "vertex", "id": "v", "properties": {"one": 1, "many": [1, 2], "list": [[1, 2]]}}\n'
        out = serialize_lpg_jsonl(lpg_view(parse_lpg_jsonl(doc, store=Store(seed=0))))
        obj = json.loads(out)
        assert obj["properties"]["one"] == 1
        assert obj["properties"]["many"] == [1, 2]
        assert obj["properties"]["list"] == [[1, 2]]

    def test_non_finite_values_are_refused(self):
        g = LpgGraph(
            vertices={"v": Vertex(labels=["Vertex"], properties={"p": [VertexProperty(float("inf"), {})]})},
            edges={},
            dropped=0,
            coercion=CoercionTally(),
        )
        with pytest.raises(UnsupportedValueError):
            serialize_lpg_jsonl(g)


class TestRoundTrip:
    def test_toy_cycle_preserves_the_shape(self, toy_store):
        g = lpg_view(toy_store)
        again = lpg_view(parse_lpg_jsonl(serialize_lpg_jsonl(g)))
        assert lpg_shape(again) == lpg_shape(g)

    def test_seeded_cycle_is_byte_stable(self):
        doc = (
            '{"type": "vertex", "id": "v", "labels": ["T"], "properties": '
            '{"tags": ["a", "b"], "name": {"value": "x", "meta": {"src": "census"}}}}\n'
        )
        text = serialize_lpg_jsonl(lpg_view(parse_lpg_jsonl(doc, store=Store(seed=1))))
        twice = serialize_lpg_jsonl(lpg_view(parse_lpg_jsonl(text, store=Store(seed=2))))
        assert twice == text

    @given(stores(max_statements=12))
    @settings(max_examples=60)
    def test_view_shape_survives_the_wire(self, store):
        from hypothesis import assume

        g = lpg_view(store)
        try:
            text = serialize_lpg_jsonl(g)
        except UnsupportedValueError:
            # INF/NaN property values cannot cross strict JSON; documented refusal
            assume(False)
        again = lpg_view(parse_lpg_jsonl(text))
        assert lpg_shape(again) == lpg_shape(g)


class TestAllOrNothing:
    VERTEX = '{"type": "vertex", "id": "Carol", "labels": ["P"], "properties": {"age": 3}}\n'

    @pytest.mark.parametrize(
        "line, error",
        [
            ('{"type": "edge", "id": "e", "label": "k", "from": "Carol", "to": "Zed"}', UnknownEndpointError),
            ('{"type": "vertex", "id": "Dan", "labels": "P"}', ParseError),
            ('{"type": "vertex", "id": "Dan", "properties": {"p": {"value": {"x": 1}}}}', UnsupportedValueError),
        ],
    )
    def test_refused_document_leaves_the_store_and_its_counter(self, toy_store, line, error):
        before = serialize_ognq(toy_store)
        issues_next = toy_store.copy().fresh_sid()
        with pytest.raises(error):
            parse_lpg_jsonl(self.VERTEX + line + "\n", toy_store)
        assert serialize_ognq(toy_store) == before
        assert toy_store.fresh_sid() == issues_next
