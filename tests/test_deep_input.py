"""Nesting deeper than the interpreter's recursion limit: accepted input
parses, rejected input fails with ParseError, never RecursionError."""

import sys

import pytest

from og import ParseError, Store, load_rules, parse_lpg_jsonl, parse_turtle_star
from og.cli import main

DEEP_JSON = "[" * 100_000


def nested_turtle(depth: int) -> str:
    return "<< " * depth + "<urn:a> <urn:p> <urn:b>" + " >> <urn:p> <urn:b>" * depth + " .\n"


def test_turtle_star_reads_quoting_deeper_than_the_recursion_limit():
    depth = sys.getrecursionlimit() + 100
    store = parse_turtle_star(nested_turtle(depth), Store(seed=0))
    assert len(store) == depth + 1


def test_turtle_star_errors_inside_nested_quoting_keep_their_column():
    text = nested_turtle(3).replace("<urn:b> >> <urn:p> <urn:b> >>", "<urn:b> >> <urn:p> >>", 1)
    with pytest.raises(ParseError, match="expected a term") as raised:
        parse_turtle_star(text)
    assert raised.value.column == text.index(">> <urn:p> >>") + len(">> <urn:p> ") + 1


def test_og_load_of_deep_turtle_star(tmp_path, capsys):
    path = tmp_path / "deep.ttls"
    path.write_text(nested_turtle(sys.getrecursionlimit() + 100), encoding="utf-8")
    assert main(["load", str(path), "--seed", "0"]) == 0
    assert capsys.readouterr().out.count("\n") == sys.getrecursionlimit() + 101


def test_lpg_jsonl_deep_array_is_a_parse_error_with_its_line():
    text = '{"type": "vertex", "id": "a"}\n' + DEEP_JSON + "\n"
    with pytest.raises(ParseError) as raised:
        parse_lpg_jsonl(text)
    assert raised.value.line == 2


def test_rules_file_deep_array_is_a_parse_error():
    with pytest.raises(ParseError):
        load_rules(DEEP_JSON)


def test_cli_prefixes_deep_array_is_an_error_line(tmp_path, capsys):
    store = tmp_path / "s.ognq"
    store.write_text("", encoding="utf-8")
    prefixes = tmp_path / "prefixes.json"
    prefixes.write_text(DEEP_JSON, encoding="utf-8")
    assert main(["stats", str(store), "--prefixes", str(prefixes)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
