"""Each parser reads what the cursor-only oracles read, token for token.

The parsers read each distinct token once per call (OG-NQ and N-Triples
through ``formats.common.TermReader``, Turtle-star through it on a whole
statement line and through its own memo of IRIs and prefixed names on its
token path) and Turtle-star streams its tokens. The documents here mix what
could tell them apart from ``tests/oracles.py``, which scans every token
where it stands: escaped and escape-free spellings of one term, repeated
tokens, spacing the line regex does not read, prefixes redeclared
mid-document, blank labels that collide with the store's, and for
Turtle-star lines the line regex would read but the token path must.
"""

import uuid
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from og import (
    XSD_BOOLEAN,
    XSD_INTEGER,
    XSD_STRING,
    BlankNode,
    Iri,
    Literal,
    LocalId,
    ParseError,
    SidRef,
    Statement,
    Store,
    parse_ntriples,
    parse_ognq,
    parse_turtle_star,
)
from og.datatypes import RDF_LANG_STRING
from og.formats.common import escape_string, store_renames
from og.views import RDF_TYPE

IRIS = [Iri("urn:x:a"), Iri("http://ex.org/p1"), Iri("http://ex.org/a/b2"), Iri("urn:x:café")]
BLANKS = [BlankNode("b0"), BlankNode("b1"), BlankNode("b0_1"), BlankNode("x.y")]
LITERALS = [Literal("n1"), Literal('say "hi"\tnow'), Literal("chat", RDF_LANG_STRING, "fr"),
            Literal("42", XSD_INTEGER), Literal("-7", XSD_INTEGER), Literal("")]
LOCALS = [LocalId("v1"), LocalId("naïve")]


def _escaped(text: str, at: int) -> str:
    """The text with its character at ``at`` written as a \\u escape."""
    at %= len(text)
    return text[:at] + f"\\u{ord(text[at]):04X}" + text[at + 1:]


def spellings(t) -> list[str]:
    """Every token these documents write for a term of a line format."""
    if isinstance(t, Iri):
        return [f"<{t.text}>", f"<{_escaped(t.text, 0)}>", f"<{_escaped(t.text, -1)}>"]
    if isinstance(t, BlankNode):
        return [f"_:{t.label}"]
    if isinstance(t, LocalId):
        return [f'local:"{t.text}"', f'local:"{_escaped(t.text, 1)}"']
    if isinstance(t, SidRef):
        return [f"<urn:og:sid:{t.sid}>", f"<urn:og:sid:{_escaped(str(t.sid), 3)}>"]
    body = escape_string(t.lexical)
    bodies = [body] + ([_escaped(t.lexical, 0).replace('"', '\\"')] if t.lexical else [])
    if t.language:
        return [f'"{b}"@{t.language}' for b in bodies]
    if t.datatype == XSD_STRING:
        return [f'"{b}"' for b in bodies] + [f'"{body}"^^<{XSD_STRING.text}>']
    return [f'"{b}"^^<{t.datatype.text}>' for b in bodies] + [f'"{body}"^^<{_escaped(t.datatype.text, 2)}>']


SPACES = [" ", " ", " ", "\t", "  "]
ENDS = [" .", " .", ".", "\t. ", " . # end"]


@st.composite
def lines_of(draw, rows: list[list]) -> str:
    """A document of one line per row, each token drawn from its spellings,
    with comments, blank lines and CRLF endings between them."""
    out = []
    for row in rows:
        tokens = [draw(st.sampled_from(spellings(t))) for t in row]
        line = tokens[0]
        for tok in tokens[1:]:
            # no space after an IRI or string is still a line the scanners read
            space = draw(st.sampled_from(SPACES + ([""] if line[-1] in '>"' else [])))
            line += space + tok
        line = draw(st.sampled_from(["", "  "])) + line + draw(st.sampled_from(ENDS))
        out.append(line + draw(st.sampled_from(["\n", "\n", "\r\n", "\n# note\n", "\n\n"])))
    return "".join(out)


def seeded_store() -> Store:
    """A store whose blank labels collide with the documents'."""
    store = Store(seed=0)
    for label in ("b0", "b1", "x.y"):
        store.insert_ground(BlankNode(label), Iri("urn:x:a"), Literal("s"))
    return store


def renamed(t, renames):
    if isinstance(t, BlankNode):
        return BlankNode(renames.get(t.label, t.label))
    if isinstance(t, tuple):
        return tuple(renamed(x, renames) for x in t)
    return t


def labels_of(terms) -> set[str]:
    found = set()
    for t in terms:
        if isinstance(t, BlankNode):
            found.add(t.label)
        elif isinstance(t, tuple):
            found |= labels_of(t)
    return found


def same_outcome(parse, oracle):
    """The oracle's value once the parse has run too; None when both raised
    the same ParseError, message, line and column."""
    try:
        want = oracle()
    except ParseError as e:
        with pytest.raises(ParseError) as got:
            parse()
        assert (str(got.value), got.value.line, got.value.column) == (str(e), e.line, e.column)
        return None
    parse()
    return want


# --- OG-NQ -------------------------------------------------------------------


@st.composite
def ognq_rows(draw):
    n = draw(st.integers(1, 10))
    sids = [uuid.UUID(int=1000 + i) for i in range(n)]
    rows = []
    for i, sid in enumerate(sids):
        earlier = [SidRef(s) for s in sids[:i]]
        src = draw(st.sampled_from(IRIS + BLANKS + LOCALS + earlier))
        label = draw(st.sampled_from(IRIS + LOCALS))
        value = draw(st.sampled_from(IRIS + BLANKS + LOCALS + LITERALS + earlier))
        rows.append([src, label, value, SidRef(sid)])
    return rows


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_parse_ognq_reads_what_the_cursor_reads(data):
    doc = data.draw(lines_of(data.draw(ognq_rows())))
    store = seeded_store()
    before = set(store.statements())
    want = same_outcome(lambda: parse_ognq(doc, store), lambda: oracles.ognq_statements(doc))
    if want is not None:
        renames = store_renames(seeded_store(), labels_of(t for st in want for t in st.content))
        assert set(store.statements()) - before == {
            Statement(renamed(st.src, renames), st.label, renamed(st.value, renames), st.sid) for st in want}


# --- N-Triples ---------------------------------------------------------------


@st.composite
def ntriples_rows(draw):
    return draw(st.lists(st.tuples(st.sampled_from(IRIS + BLANKS), st.sampled_from(IRIS),
                                   st.sampled_from(IRIS + BLANKS + LITERALS)).map(list), min_size=1, max_size=10))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_parse_ntriples_reads_what_the_cursor_reads(data):
    doc = data.draw(lines_of(data.draw(ntriples_rows())))
    store = seeded_store()
    size = len(store)
    want = same_outcome(lambda: parse_ntriples(doc, store), lambda: oracles.ntriples_triples(doc))
    if want is not None:
        renames = store_renames(seeded_store(), labels_of(t for triple in want for t in triple))
        assert [st.content for st in store.statements()[size:]] == [renamed(t, renames) for t in want]


# --- a bad token, first or after its neighbours are remembered ---------------

#: (format, bad line): lexical errors, and tokens the line regex reads but
#: the scanner or the position refuses.
BAD = [
    ("ognq", '<noscheme> <urn:x:a> "v"'),
    ("ognq", '<urn:x:a> <urn:x:a> "v"@1x'),
    ("ognq", '<urn:x:a> <urn:x:a> "bad \\q escape"'),
    ("ognq", "<urn:x:a> <urn:x:a> <urn:og:sid:nope>"),
    ("ognq", '"n1" <urn:x:a> <urn:x:a>'),
    ("ognq", '<urn:x:a> _:b0 "n1"'),
    ("ognq", '<urn:x:a> <urn:x:a> "n1"^^<noscheme>'),
    ("ognq", '<urn:x:a> <urn:x:a> "n1"^^<http://www.w3.org/1999/02/22-rdf-syntax-ns#langString>'),
    ("ognq", "<urn:x:a> <urn:x:a> <a b>"),
    ("ognq", 'local:"" <urn:x:a> "n1"'),
    ("ntriples", '"n1" <urn:x:a> <urn:x:a>'),
    ("ntriples", "<urn:x:a> _:b0 <urn:x:a>"),
    ("ntriples", '<urn:x:a> "n1" <urn:x:a>'),
    ("ntriples", "<urn:x:a> <urn:x:a> <urn:og:sid:00000000-0000-0000-0000-000000000001>"),
    ("ntriples", "<urn:x:a> <urn:x:a> <noscheme>"),
    ("ntriples", '<urn:x:a> <urn:x:a> "\\u00ZZ"'),
    ("ntriples", "_:1.  <urn:x:a> <urn:x:a>"),
]
GOOD = {
    "ognq": ['<urn:x:a> <urn:x:a> "n1"', "<noscheme:x> <urn:x:a> _:b0", 'local:"v1" <urn:x:a> "v"'],
    "ntriples": ['<urn:x:a> <urn:x:a> "n1"', "_:b0 <urn:x:a> <urn:x:a>", '<urn:x:a> <urn:x:a> "n1"^^<noscheme:x>'],
}
PARSE = {"ognq": (parse_ognq, oracles.ognq_statements), "ntriples": (parse_ntriples, oracles.ntriples_triples)}


def _numbered(fmt: str, lines: list[str]) -> str:
    if fmt == "ntriples":
        return "".join(f"{line} .\n" for line in lines)
    return "".join(f"{line} <urn:og:sid:{uuid.UUID(int=500 + i)}> .\n" for i, line in enumerate(lines))


@pytest.mark.parametrize("fmt, bad", BAD, ids=str)
def test_a_bad_token_fails_alike_at_its_first_and_a_later_occurrence(fmt, bad):
    parse, oracle = PARSE[fmt]
    good = GOOD[fmt]
    for lines in ([bad] + good, good + [bad], good + [bad] + good + [bad]):
        doc = _numbered(fmt, lines)
        with pytest.raises(ParseError) as want:
            oracle(doc)
        store = Store(seed=0)
        with pytest.raises(ParseError) as got:
            parse(doc, store)
        assert (str(got.value), got.value.line, got.value.column) == (str(want.value), want.value.line, want.value.column)
        assert got.value.line == lines.index(bad) + 1
        assert len(store) == 0


def test_a_token_good_in_one_position_is_checked_again_in_another():
    # the literal is remembered as an object, then read as a subject
    doc = '<urn:x:a> <urn:x:a> "n1" .\n"n1" <urn:x:a> <urn:x:a> .\n'
    with pytest.raises(ParseError) as e:
        parse_ntriples(doc)
    assert (e.value.line, e.value.column) == (2, 1) and "subject" in str(e.value)


# --- Turtle-star -------------------------------------------------------------

BASES = ["http://ex.org/", "http://ex.org/a/", "urn:x:"]
TTL_LITERALS = LITERALS + [Literal("true", XSD_BOOLEAN)]


@st.composite
def ttl_terms(draw, depth: int):
    """A subject or object: a node, a literal, or a quoted triple."""
    pick = draw(st.integers(0, 9 if depth else 8))
    if pick <= 4:
        return draw(st.sampled_from(IRIS + BLANKS))
    if pick <= 8:
        return draw(st.sampled_from(TTL_LITERALS))
    return (draw(st.sampled_from(IRIS + BLANKS)), draw(st.sampled_from(IRIS + [RDF_TYPE])),
            draw(ttl_terms(depth - 1)))


@st.composite
def ttl_documents(draw):
    """Subject blocks with ``;`` and ``,``, and prefix (re)declarations
    between them; each term spelled as the prefixes of its place allow."""
    prefixes: dict[str, str] = {}

    def iri(t: Iri) -> str:
        fits = [f"{label}:{t.text[len(base):]}" for label, base in prefixes.items()
                if t.text.startswith(base) and t.text[len(base):].isascii() and t.text[len(base):].isalnum()]
        return draw(st.sampled_from(fits + spellings(t)))

    def term(t) -> str:
        if isinstance(t, tuple):
            return f"<< {term(t[0])} {verb(t[1])} {term(t[2])} >>"
        if isinstance(t, Iri):
            return iri(t)
        if isinstance(t, Literal) and t.datatype in (XSD_INTEGER, XSD_BOOLEAN):  # bare too
            return draw(st.sampled_from([t.lexical, *spellings(t)]))
        return draw(st.sampled_from(spellings(t)))

    def verb(p: Iri) -> str:
        return draw(st.sampled_from(["a", iri(p)])) if p == RDF_TYPE else iri(p)

    out = []
    for _ in range(draw(st.integers(1, 8))):
        if draw(st.booleans()):
            label, base = draw(st.sampled_from(["ex", "p1"])), draw(st.sampled_from(BASES))
            prefixes[label] = base
            out.append(draw(st.sampled_from([f"@prefix {label}: <{base}> .", f"PREFIX {label}: <{base}>"])))
        subject = draw(ttl_terms(1).filter(lambda t: not isinstance(t, Literal)))
        block = term(subject)
        for i in range(draw(st.integers(1, 2))):
            p = draw(st.sampled_from(IRIS + [RDF_TYPE]))
            objects = [term(o) for o in draw(st.lists(ttl_terms(2), min_size=1, max_size=2))]
            block += (" ; " if i else " ") + verb(p) + " " + " , ".join(objects)
        out.append(block + " .")
    return "".join(line + draw(st.sampled_from(["\n", "\r\n", "\n\n"])) for line in out)


def nested(store: Store, t):
    """A term with each sid reference replaced by its target's nested content."""
    if isinstance(t, SidRef):
        return tuple(nested(store, x) for x in store.get(t.sid).content)
    return t


def ttl_store() -> Store:
    """Colliding blank labels, and content the documents may quote or repeat."""
    store = seeded_store()
    edge = store.insert_ground(Iri("urn:x:a"), Iri("http://ex.org/p1"), Literal("n1"))
    store.insert_assertion(SidRef(edge), Iri("urn:x:a"), Literal("42", XSD_INTEGER))
    store.insert_ground(BlankNode("b0_1"), RDF_TYPE, Iri("urn:x:a"))
    return store


def reads_as_the_oracle(doc: str) -> None:
    want = oracles.turtle_star_triples(doc)
    store = ttl_store()
    before = [tuple(nested(store, t) for t in st.content) for st in store.statements()]
    parse_turtle_star(doc, store)
    renames = store_renames(ttl_store(), labels_of(want))
    expected = [t for t in dict.fromkeys(renamed(t, renames) for t in want) if t not in before]
    got = [tuple(nested(store, t) for t in st.content) for st in store.statements()]
    assert got == before + expected


@settings(max_examples=150, deadline=None)
@given(doc=ttl_documents())
def test_parse_turtle_star_reads_what_the_cursor_reads(doc):
    reads_as_the_oracle(doc)


def test_a_redeclared_prefix_reads_its_names_anew():
    doc = ("@prefix ex: <urn:a:> .\nex:s ex:p ex:o .\n"
           "PREFIX ex: <urn:b:>\nex:s ex:p ex:o .\n")
    store = parse_turtle_star(doc)
    assert Counter(st.content for st in store) == Counter(
        [(Iri("urn:a:s"), Iri("urn:a:p"), Iri("urn:a:o")), (Iri("urn:b:s"), Iri("urn:b:p"), Iri("urn:b:o"))])


def test_turtle_star_reports_the_first_error_in_reading_order():
    # the tokens are read as the grammar asks for them, so a grammar error
    # on line 1 is found before a bad token on line 2
    with pytest.raises(ParseError) as e:
        parse_turtle_star('<urn:x:a> "lit" <urn:x:b> .\n<urn:x:a> <urn:x:b> "bad \\q" .\n')
    assert (e.value.line, e.value.column) == (1, 11) and "predicate" in str(e.value)


# --- Turtle-star's line path -------------------------------------------------

SID_IRI = Iri(f"urn:og:sid:{uuid.UUID(int=1)}")
SID_RESERVED = "the urn:og:sid: namespace is reserved"
#: a datatype may name the sid namespace; a term may not
LINE_LITERALS = TTL_LITERALS + [Literal("n1", SID_IRI)]
LINE_SPACES = [" ", " ", "\t", "  "]
#: statement ends; a space before the dot keeps a bare literal apart from it
LINE_ENDS = [" .", " .", "\t. ", " . # end", "  .#x"]
#: (token, message, offset of the error's column in the token, object only)
BAD_TOKENS = [
    ("<rel>", "not an absolute IRI: 'rel'", 0, False),
    (f"<{SID_IRI.text}>", SID_RESERVED, 0, False),
    (f"<{_escaped(SID_IRI.text, 12)}>", SID_RESERVED, 0, False),
    ("sid:x", SID_RESERVED, 0, False),
    ('"x"^^<foo>', "not an absolute IRI: 'foo'", 5, True),
    (f'"x"^^<{RDF_LANG_STRING.text}>', "rdf:langString requires a language tag", 0, True),
]


def kind_of(token: str) -> str:
    """The token path's name for a term token's kind."""
    return {"<": "iri", "_": "blank", '"': "string"}[token[0]]


@st.composite
def statement_line(draw, row: list[str], ended: bool = True) -> tuple[str, list[int], int | None]:
    """The row's tokens spaced apart, and when ``ended`` a dot after them:
    the line, each token's column, and the dot's column."""
    line = draw(st.sampled_from(["", "  "]))
    columns = []
    for i, token in enumerate(row):
        line += draw(st.sampled_from(LINE_SPACES)) if i else ""
        columns.append(len(line) + 1)
        line += token
    if not ended:
        return line, columns, None
    end = draw(st.sampled_from(LINE_ENDS))
    return line + end, columns, len(line) + end.index(".") + 1


@st.composite
def line_documents(draw):
    """Statement lines the line regex reads (``S P O .`` and ``<< S P O >>
    P O .``) among continuations, prefix lines, escapes, prefixed names,
    bare literals, comments and CRLF; and at most one fault: a bad token on
    a statement line, or a statement line mid-statement (after ``,``, ``;``
    or a ``PREFIX`` with no IRI). Returns the document and, for a fault,
    the error as (message, line, column)."""
    lines: list[str] = []
    error = None

    def spelled(t) -> str:
        if draw(st.integers(0, 3)):  # mostly escape-free, as the line regex reads it
            return spellings(t)[0]
        options = spellings(t)
        if isinstance(t, Iri) and t.text.startswith("urn:x:") and t.text[6:].isascii():
            options.append("ex:" + t.text[6:])
        if isinstance(t, Literal) and t.datatype in (XSD_INTEGER, XSD_BOOLEAN):
            options.append(t.lexical)
        return draw(st.sampled_from(options))

    def node() -> str:
        return spelled(draw(st.sampled_from(IRIS + BLANKS)))

    def iri() -> str:
        p = draw(st.sampled_from(IRIS + [RDF_TYPE]))
        return draw(st.sampled_from(["a", spelled(p)])) if p == RDF_TYPE else spelled(p)

    def obj() -> str:
        return spelled(draw(st.sampled_from(IRIS + BLANKS + LINE_LITERALS)))

    def row(quoted: bool) -> list[str]:
        if quoted:
            return ["<<", node(), iri(), obj(), ">>", iri(), obj()]
        return [node(), iri(), obj()]

    def add(line: str) -> int:
        lines.append(line + draw(st.sampled_from(["\n", "\n", "\r\n"])))
        return len(lines)

    lines.append("@prefix ex: <urn:x:> .\n")
    for _ in range(draw(st.integers(1, 8))):
        block = draw(st.sampled_from(["line", "line", "line", "continued", "prefix", "comment"]))
        if block == "line":
            add(draw(statement_line(row(draw(st.booleans()))))[0])
        elif block == "continued":
            add(draw(statement_line([node(), iri(), obj(), ";"], ended=False))[0])
            add(draw(statement_line([iri(), obj(), ","], ended=False))[0])
            add(draw(statement_line([obj()]))[0])
        elif block == "prefix":
            base = draw(st.sampled_from(["urn:x:", "http://ex.org/"]))
            add(draw(st.sampled_from([f"@prefix p1: <{base}> .", f"PREFIX p1: <{base}>"])))
        else:
            add(draw(st.sampled_from(["", "# a comment", "  "])))
    fault = draw(st.sampled_from([None, "token", "token", "comma", "semicolon", "prefix"]))
    if fault == "token":
        token, message, offset, object_only = draw(st.sampled_from(BAD_TOKENS))
        if token.startswith("sid:"):
            add(draw(st.sampled_from(["@prefix sid: <urn:og:sid:> .", "PREFIX sid: <urn:og:sid:>"])))
        tokens = row(draw(st.booleans()))
        places = [i for i, t in enumerate(tokens) if t not in ("<<", ">>") and (not object_only or
                  i == len(tokens) - 1 or tokens[i + 1] == ">>")]
        at = draw(st.sampled_from(places))
        tokens[at] = token
        line, columns, _ = draw(statement_line(tokens))
        error = (message, add(line), columns[at] + offset)
    elif fault in ("comma", "semicolon"):
        # a statement continued by a line of three terms: the token path
        # reads its first term(s) into the statement and stops at the next
        head = [node(), iri(), obj(), "," if fault == "comma" else ";"]
        add(draw(statement_line(head, ended=False))[0])
        first = spellings(draw(st.sampled_from(IRIS + (BLANKS if fault == "semicolon" else []))))[0]
        tokens = [first, spellings(draw(st.sampled_from(IRIS)))[0],
                  spellings(draw(st.sampled_from(IRIS + BLANKS + LINE_LITERALS)))[0]]
        line, columns, _ = draw(statement_line(tokens))
        lineno = add(line)
        if fault == "comma":
            error = ("expected '.', found 'iri'", lineno, columns[1])
        elif first.startswith("_"):
            error = ("expected a predicate", lineno, columns[0])
        else:
            error = (f"expected '.', found {kind_of(tokens[2])!r}", lineno, columns[2])
    elif fault == "prefix":
        # the line's first term is the prefix's IRI, the rest a statement
        add("PREFIX p2:")
        tokens = [spellings(draw(st.sampled_from(IRIS + BLANKS)))[0], spellings(draw(st.sampled_from(IRIS)))[0],
                  spellings(draw(st.sampled_from(IRIS + BLANKS + LINE_LITERALS)))[0]]
        line, columns, dot = draw(statement_line(tokens))
        lineno = add(line)
        if tokens[0].startswith("_"):
            error = ("expected 'iri', found 'blank'", lineno, columns[0])
        elif not tokens[2].startswith("<"):
            error = ("expected a predicate", lineno, columns[2])
        else:
            error = ("expected a term", lineno, dot)
    if error is not None and draw(st.booleans()):
        add(draw(statement_line(row(False)))[0])  # never read
    return "".join(lines), error


@settings(max_examples=300, deadline=None)
@given(case=line_documents())
def test_turtle_star_reads_a_statement_line_as_its_tokens_read_it(case):
    doc, error = case
    if error is None:
        reads_as_the_oracle(doc)
        return
    message, line, column = error
    store = ttl_store()
    size = len(store)
    with pytest.raises(ParseError) as e:
        parse_turtle_star(doc, store)
    assert (str(e.value), e.value.line, e.value.column) == (f"{message} (line {line}, column {column})", line, column)
    assert len(store) == size


@pytest.mark.parametrize("doc", [
    "<urn:x:a> <urn:x:p> <urn:x:o> .\n",
    "<< <urn:x:a> <urn:x:p> _:b0 >> <urn:x:q> \"v\"@en . # note\n",
])
def test_a_statement_line_is_read_whole(doc, monkeypatch):
    """No token of a line the line regex reads reaches the token path."""
    from og.formats import turtlestar

    seen = []
    real = turtlestar._tokenize

    def tokenize(text, whole_line):
        for tok in real(text, whole_line):
            seen.append(tok)
            yield tok

    monkeypatch.setattr(turtlestar, "_tokenize", tokenize)
    parse_turtle_star(doc + doc)
    assert [tok[0] for tok in seen] == ["eof"]
