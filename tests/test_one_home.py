"""Each consolidated rule keeps its one home in ``src/og``.

Percent-encoding is the rule between a local identifier and its IRI, so
``quote`` and ``unquote`` are called only by ``views.expose_local_as_iri``
and its exact inverse ``views.local_from_iri``. Sid text is read only by
``terms.py``, so ``uuid.UUID`` appears nowhere else. How the views read a
statement is ``views._reading``'s answer, so in the views and updates no
other function combines ``store.hidden``, ``is_ground`` and
``_is_membership``. Quoting depth is bounded by ``max_depth`` alone, so no
function in the views or the Turtle-star module calls itself. The sources
are read with ``ast``, never run.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "og"
SOURCES = sorted(SRC.rglob("*.py"))
PERCENT_HOMES = {("views.py", "expose_local_as_iri"), ("views.py", "local_from_iri")}

READING_TESTS = ("hidden", "is_ground", "_is_membership")
#: ``_reading``; the views that need only visibility or depth; and REIFY's
#: check that a referenced statement is ground, in ``rdf_view``'s ``part``
READING_HOMES = {
    ("views.py", "_reading"),
    ("views.py", "_analyze"),
    ("views.py", "rdf_star_view"),
    ("views.py", "rdf_view.part"),
}


def uses(path: Path):
    """(file, dotted enclosing function or None, name) for each call of
    ``quote``/``unquote`` or of a reading test, and each ``uuid.UUID`` or
    imported ``UUID``."""
    name = str(path.relative_to(SRC))
    tree = ast.parse(path.read_text(), str(path))
    scopes = [(node, None) for node in tree.body]
    while scopes:
        node, scope = scopes.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name if scope is None else f"{scope}.{node.name}"
        if isinstance(node, ast.Call):
            func = node.func
            called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if called in ("quote", "unquote", *READING_TESTS):
                yield name, scope, called
        if isinstance(node, ast.Attribute) and node.attr == "UUID":
            yield name, scope, "UUID"
        if isinstance(node, ast.ImportFrom) and node.module == "uuid":
            yield name, scope, "UUID"
        scopes += [(child, scope) for child in ast.iter_child_nodes(node)]


FOUND = [use for path in SOURCES for use in uses(path)]
#: the reading tests called in the views and updates
READINGS = [use for use in FOUND if use[2] in READING_TESTS and use[0] in ("views.py", "update.py")]


def test_percent_encoding_lives_in_exposure_and_its_inverse():
    strays = sorted({(f, scope) for f, scope, what in FOUND if what in ("quote", "unquote")} - PERCENT_HOMES)
    assert not strays, f"quote/unquote called outside exposure and its inverse: {strays}"


def test_the_check_sees_both_homes():
    assert {(f, scope) for f, scope, what in FOUND if what in ("quote", "unquote")} == PERCENT_HOMES


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


def test_only_the_reading_and_its_named_exceptions_test_visibility():
    found = {(f, scope) for f, scope, what in READINGS}
    strays = sorted(found - READING_HOMES)
    assert not strays, f"a reading test outside views._reading: {strays}"


def test_the_reading_check_sees_every_home():
    assert {(f, scope) for f, scope, what in READINGS} == READING_HOMES
    assert {what for f, scope, what in READINGS if scope == "_reading"} == set(READING_TESTS)


#: the modules that walk quoted triples, which nest as deep as the data does
RECURSION_FREE = ("views.py", "formats/turtlestar.py")


def self_calls(source: str):
    """Names of the functions in ``source`` that call themselves: by name,
    or a method through ``self``."""
    tree = ast.parse(source)
    methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body}
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            func = node.func if isinstance(node, ast.Call) else None
            if id(fn) in methods:
                hit = (isinstance(func, ast.Attribute) and func.attr == fn.name
                       and isinstance(func.value, ast.Name) and func.value.id == "self")
            else:
                hit = isinstance(func, ast.Name) and func.id == fn.name
            if hit:
                yield fn.name
                break


def test_the_self_call_check_sees_a_function_and_a_method():
    source = "def f(x):\n    return f(x)\nclass C:\n    def next(self):\n        return next(self.it)\n" \
             "    def g(self):\n        return self.g()\n"
    assert list(self_calls(source)) == ["f", "g"]


def test_no_function_walking_quoted_triples_calls_itself():
    strays = sorted((name, fn) for name in RECURSION_FREE for fn in self_calls((SRC / name).read_text()))
    assert not strays, f"a function that recurses once per level of quoting: {strays}"
