import os
from pathlib import Path

import pytest

from og import Literal, LocalId, SidRef, Store, XSD_INTEGER

# child interpreters (``python -m og.cli``) import og from this checkout too
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


@pytest.fixture
def toy_store():
    """Alice knows Bob since 2020, with a name on each vertex.

    Seeded so the four sids are the counter values 1 through 4.
    """
    st = Store(seed=0)
    alice, bob = LocalId("Alice"), LocalId("Bob")
    knows = st.insert_ground(alice, LocalId("knows"), bob)
    st.insert_ground(alice, LocalId("name"), Literal("Alice"))
    st.insert_ground(bob, LocalId("name"), Literal("Bob"))
    st.insert_assertion(SidRef(knows), LocalId("since"), Literal("2020", XSD_INTEGER))
    return st


@pytest.fixture
def multi_edge_store():
    """Two parallel knows-edges, each carrying its own statedBy and since."""
    st = Store(seed=0)
    alice, bob, knows = LocalId("Alice"), LocalId("Bob"), LocalId("knows")
    e1 = st.insert_ground(alice, knows, bob)
    e2 = st.insert_ground(alice, knows, bob)
    st.insert_assertion(SidRef(e1), LocalId("statedBy"), Literal("NYTimes"))
    st.insert_assertion(SidRef(e1), LocalId("since"), Literal("2020", XSD_INTEGER))
    st.insert_assertion(SidRef(e2), LocalId("statedBy"), Literal("TheGuardian"))
    st.insert_assertion(SidRef(e2), LocalId("since"), Literal("2021", XSD_INTEGER))
    return st
