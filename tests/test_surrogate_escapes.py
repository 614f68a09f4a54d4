"""No escape lets a surrogate into the store: every parser refuses a
document that escapes one alone, and what any of them accepts every
serializer writes as UTF-8. Through ``og load``, a refusal is an ``error:``
line with exit 1, and the ``-o`` target keeps its old bytes."""

import io
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from og import ParseError
from og.cli import main
from og.formats import (
    parse_lpg_jsonl,
    parse_ntriples,
    parse_ognq,
    parse_turtle_star,
    serialize_lpg_jsonl,
    serialize_ntriples,
    serialize_ognq,
    serialize_turtle_star,
)
from og.views import RdfMode, dataset_view, lpg_view, rdf_star_view, rdf_view
from strategies import surrogate_documents

PARSERS = {"ntriples": parse_ntriples, "ognq": parse_ognq, "ttls": parse_turtle_star, "lpgjsonl": parse_lpg_jsonl}
OLD = b"old bytes\n"


def written(store) -> list[str]:
    return [
        serialize_ognq(store),
        serialize_ntriples(rdf_view(store)),
        serialize_ntriples(rdf_view(store, RdfMode.REIFY)),
        serialize_ntriples(dataset_view(store).default),
        serialize_turtle_star(rdf_star_view(store)),
        serialize_lpg_jsonl(lpg_view(store)),
    ]


@pytest.mark.parametrize("fmt", sorted(PARSERS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_a_parse_refuses_or_every_writer_writes_utf8(fmt, data):
    doc = data.draw(surrogate_documents(fmt))
    try:
        store = PARSERS[fmt](doc)
    except ParseError:
        return
    for text in written(store):
        text.encode("utf-8")


@pytest.mark.parametrize("fmt", sorted(PARSERS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_a_load_writes_utf8_or_keeps_the_old_bytes(fmt, data):
    doc = data.draw(surrogate_documents(fmt))
    with tempfile.TemporaryDirectory() as d:
        src, out = Path(d, "in"), Path(d, "out.ognq")
        src.write_text(doc, encoding="utf-8")
        out.write_bytes(OLD)
        err = io.StringIO()
        with redirect_stderr(err), redirect_stdout(io.StringIO()):
            code = main(["load", str(src), "--format", fmt, "-o", str(out)])
        if code == 0:
            out.read_bytes().decode("utf-8")
        else:
            assert code == 1 and err.getvalue().startswith("error:")
            assert out.read_bytes() == OLD
        assert sorted(os.listdir(d)) == ["in", "out.ognq"]
