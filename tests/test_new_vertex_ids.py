"""``lpg_add_edge`` refuses a new vertex id that no term can carry."""

import pytest

from og import LocalId, Store, UnknownEndpointError, lpg_add_edge, serialize_ognq
from og.cli import main


@pytest.mark.parametrize("vertex_id", ["a b", "", "_:"])
@pytest.mark.parametrize("end", ["source", "target"])
def test_invalid_new_vertex_id_refused(vertex_id, end):
    store = Store(seed=0)
    store.insert_ground(LocalId("Bob"), LocalId("name"), LocalId("B"))
    before = serialize_ognq(store)
    ends = (vertex_id, "Bob") if end == "source" else ("Bob", vertex_id)
    with pytest.raises(UnknownEndpointError):
        lpg_add_edge(store, *ends, "likes", auto_create=True)
    assert serialize_ognq(store) == before
    assert str(store.fresh_sid()) == "00000000-0000-0000-0000-000000000002"


def test_invalid_new_vertex_id_through_cli(tmp_path, capsys):
    store = Store(seed=0)
    store.insert_ground(LocalId("Bob"), LocalId("name"), LocalId("B"))
    path = tmp_path / "g.ognq"
    path.write_text(serialize_ognq(store), encoding="utf-8")
    out = tmp_path / "out.ognq"
    argv = ["mutate", str(path), "--add-edge", "a b", "Bob", "likes", "--auto-create", "-o", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()
