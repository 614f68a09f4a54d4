"""Each consolidated rule keeps its one home in ``src/og``.

Percent-encoding is the rule between a local identifier and its IRI, so
``quote`` and ``unquote`` are called only by ``views.expose_local_as_iri``
and its exact inverse ``views.local_from_iri``. Sid text is read only by
``terms.py``, so ``uuid.UUID`` appears nowhere else. The sources are read
with ``ast``, never run.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "og"
SOURCES = sorted(SRC.rglob("*.py"))
PERCENT_HOMES = {("views.py", "expose_local_as_iri"), ("views.py", "local_from_iri")}


def uses(path: Path):
    """(file, enclosing top-level function or None, name) for each call of
    ``quote``/``unquote`` and each ``uuid.UUID`` or imported ``UUID``."""
    name = str(path.relative_to(SRC))
    tree = ast.parse(path.read_text(), str(path))
    scopes = [(node, None) for node in tree.body]
    while scopes:
        node, scope = scopes.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and scope is None:
            scope = node.name
        if isinstance(node, ast.Call):
            func = node.func
            called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if called in ("quote", "unquote"):
                yield name, scope, called
        if isinstance(node, ast.Attribute) and node.attr == "UUID":
            yield name, scope, "UUID"
        if isinstance(node, ast.ImportFrom) and node.module == "uuid":
            yield name, scope, "UUID"
        scopes += [(child, scope) for child in ast.iter_child_nodes(node)]


FOUND = [use for path in SOURCES for use in uses(path)]


def test_percent_encoding_lives_in_exposure_and_its_inverse():
    strays = sorted({(f, scope) for f, scope, what in FOUND if what != "UUID"} - PERCENT_HOMES)
    assert not strays, f"quote/unquote called outside exposure and its inverse: {strays}"


def test_the_check_sees_both_homes():
    assert {(f, scope) for f, scope, what in FOUND if what != "UUID"} == PERCENT_HOMES


def test_sid_text_is_read_only_in_terms():
    strays = sorted({f for f, _, what in FOUND if what == "UUID"} - {"terms.py"})
    assert not strays, f"uuid.UUID used outside terms.py: {strays}"


def test_only_views_imports_urllib():
    importers = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            modules = [node.module] if isinstance(node, ast.ImportFrom) else []
            modules += [alias.name for alias in node.names] if isinstance(node, ast.Import) else []
            if any((m or "").split(".")[0] == "urllib" for m in modules):
                importers.add(str(path.relative_to(SRC)))
    assert importers == {"views.py"}
