"""Batch CLI: drives og.cli.main in-process, plus one subprocess smoke test."""

import os
import subprocess
import sys

import pytest

from og import LocalId, SidRef, Store, parse_ognq, rdf_view, serialize_ognq
from og.cli import main

TOY_DOC = """\
local:"Alice" local:"knows" local:"Bob" <urn:og:sid:00000000-0000-0000-0000-000000000001> .
local:"Alice" local:"name" "Alice" <urn:og:sid:00000000-0000-0000-0000-000000000002> .
local:"Bob" local:"name" "Bob" <urn:og:sid:00000000-0000-0000-0000-000000000003> .
<urn:og:sid:00000000-0000-0000-0000-000000000001> local:"since" "2020"^^<http://www.w3.org/2001/XMLSchema#integer> <urn:og:sid:00000000-0000-0000-0000-000000000004> .
"""

MULTI_DOC = """\
local:"Alice" local:"knows" local:"Bob" <urn:og:sid:00000000-0000-0000-0000-000000000001> .
local:"Alice" local:"knows" local:"Bob" <urn:og:sid:00000000-0000-0000-0000-000000000002> .
<urn:og:sid:00000000-0000-0000-0000-000000000001> local:"statedBy" "NYTimes" <urn:og:sid:00000000-0000-0000-0000-000000000003> .
<urn:og:sid:00000000-0000-0000-0000-000000000001> local:"since" "2020"^^<http://www.w3.org/2001/XMLSchema#integer> <urn:og:sid:00000000-0000-0000-0000-000000000004> .
<urn:og:sid:00000000-0000-0000-0000-000000000002> local:"statedBy" "TheGuardian" <urn:og:sid:00000000-0000-0000-0000-000000000005> .
<urn:og:sid:00000000-0000-0000-0000-000000000002> local:"since" "2021"^^<http://www.w3.org/2001/XMLSchema#integer> <urn:og:sid:00000000-0000-0000-0000-000000000006> .
"""


@pytest.fixture
def toy_file(tmp_path):
    path = tmp_path / "toy.ognq"
    path.write_text(TOY_DOC, encoding="utf-8")
    return str(path)


@pytest.fixture
def multi_file(tmp_path):
    path = tmp_path / "multi.ognq"
    path.write_text(MULTI_DOC, encoding="utf-8")
    return str(path)


class TestView:
    def test_rdf_golden(self, toy_file, capsys):
        assert main(["view", toy_file, "--as", "rdf"]) == 0
        out = capsys.readouterr().out
        assert out == (
            '<urn:og:local:Alice> <urn:og:local:knows> <urn:og:local:Bob> .\n'
            '<urn:og:local:Alice> <urn:og:local:name> "Alice" .\n'
            '<urn:og:local:Bob> <urn:og:local:name> "Bob" .\n'
        )

    def test_rdfstar_includes_quoted_triple(self, toy_file, capsys):
        assert main(["view", toy_file, "--as", "rdfstar"]) == 0
        out = capsys.readouterr().out
        assert (
            "<< <urn:og:local:Alice> <urn:og:local:knows> <urn:og:local:Bob> >> "
            "<urn:og:local:since> 2020 ." in out
        )
        assert len(out.splitlines()) == 4

    def test_reified_line_count(self, toy_file, capsys):
        assert main(["view", toy_file, "--as", "rdf-reified"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 8
        assert any("rdf-syntax-ns#Statement" in line for line in lines)

    def test_lpg_jsonl_and_dropped_on_stderr(self, toy_file, capsys):
        assert main(["view", toy_file, "--as", "lpg"]) == 0
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert len(lines) == 3
        assert captured.err.strip() == "dropped=0"
        assert (
            '{"type": "edge", "id": "00000000-0000-0000-0000-000000000001", '
            '"label": "knows", "from": "Alice", "to": "Bob", '
            '"properties": {"since": 2020}}' in lines
        )

    def test_dataset_sections(self, tmp_path, capsys):
        doc = (
            'local:"Alice" local:"knows" local:"Bob" <urn:og:sid:00000000-0000-0000-0000-000000000001> .\n'
            'local:"Bob" local:"name" "Bob" <urn:og:sid:00000000-0000-0000-0000-000000000002> .\n'
            '<urn:og:sid:00000000-0000-0000-0000-000000000001> <urn:og:inGraph> <urn:g:one> <urn:og:sid:00000000-0000-0000-0000-000000000003> .\n'
        )
        path = tmp_path / "ds.ognq"
        path.write_text(doc, encoding="utf-8")
        assert main(["view", str(path), "--as", "dataset"]) == 0
        out = capsys.readouterr().out
        assert out == (
            "# default graph\n"
            '<urn:og:local:Bob> <urn:og:local:name> "Bob" .\n'
            "# graph <urn:g:one>\n"
            "<urn:og:local:Alice> <urn:og:local:knows> <urn:og:local:Bob> .\n"
        )

    def test_dataset_header_present_even_when_empty(self, tmp_path, capsys):
        path = tmp_path / "empty.ognq"
        path.write_text("", encoding="utf-8")
        assert main(["view", str(path), "--as", "dataset"]) == 0
        assert capsys.readouterr().out.startswith("# default graph\n")

    def test_namespace_flag(self, toy_file, capsys):
        assert main(["view", toy_file, "--as", "rdf", "--namespace", "urn:other:"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == (
            "<urn:other:Alice> <urn:other:knows> <urn:other:Bob> ."
        )

    def test_namespace_env(self, toy_file, capsys, monkeypatch):
        monkeypatch.setenv("OG_DEFAULT_NS", "urn:env:")
        assert main(["view", toy_file, "--as", "rdf"]) == 0
        assert "<urn:env:Alice>" in capsys.readouterr().out

    def test_prefixes_shorten_lpg_ids(self, tmp_path, capsys):
        doc = (
            '<http://example.org/Alice> local:"name" "Alice" '
            "<urn:og:sid:00000000-0000-0000-0000-000000000001> .\n"
        )
        path = tmp_path / "iri.ognq"
        path.write_text(doc, encoding="utf-8")
        pfx = tmp_path / "prefixes.json"
        pfx.write_text('{"ex": "http://example.org/"}', encoding="utf-8")
        assert main(["view", str(path), "--as", "lpg", "--prefixes", str(pfx)]) == 0
        assert '"id": "ex:Alice"' in capsys.readouterr().out

    def test_view_roundtrips_through_load(self, toy_file, tmp_path, capsys):
        # rdf output is valid N-Triples the loader accepts again
        assert main(["view", toy_file, "--as", "rdf"]) == 0
        nt = capsys.readouterr().out
        path = tmp_path / "echo.nt"
        path.write_text(nt, encoding="utf-8")
        assert main(["load", str(path), "--format", "ntriples", "-o", str(tmp_path / "echo.ognq")]) == 0
        assert main(["view", str(tmp_path / "echo.ognq"), "--as", "rdf"]) == 0
        assert capsys.readouterr().out == nt


class TestStats:
    def test_toy_counts(self, toy_file, capsys):
        assert main(["stats", toy_file]) == 0
        assert capsys.readouterr().out == (
            "statements=4\n"
            "ground=3\n"
            "assertions=1\n"
            "graphs=0\n"
            "lpg_vertices=2\n"
            "lpg_edges=1\n"
            "lpg_dropped=0\n"
        )


class TestMutate:
    def test_delete_all_cascade(self, multi_file, tmp_path, capsys):
        out_path = tmp_path / "out.ognq"
        rc = main(
            [
                "mutate",
                multi_file,
                "--delete-triple",
                'local:"Alice"',
                'local:"knows"',
                'local:"Bob"',
                "-o",
                str(out_path),
            ]
        )
        assert rc == 0
        assert capsys.readouterr().out == "affected=6\n"
        assert out_path.read_text(encoding="utf-8") == ""

    def test_delete_ambiguity_error_exit_2(self, multi_file, tmp_path, capsys):
        out_path = tmp_path / "out.ognq"
        rc = main(
            [
                "mutate",
                multi_file,
                "--delete-triple",
                'local:"Alice"',
                'local:"knows"',
                'local:"Bob"',
                "--ambiguity",
                "error",
                "-o",
                str(out_path),
            ]
        )
        assert rc == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert not out_path.exists()

    def test_delete_restrict_on_a_referenced_statement_exit_1(self, multi_file, tmp_path, capsys):
        out_path = tmp_path / "out.ognq"
        rc = main(
            [
                "mutate",
                multi_file,
                "--delete-triple",
                'local:"Alice"',
                'local:"knows"',
                'local:"Bob"',
                "--delete",
                "restrict",
                "-o",
                str(out_path),
            ]
        )
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "still referenced" in captured.err
        assert not out_path.exists()
        # without -o the store goes to standard output only on success
        assert main(["mutate", multi_file, "--delete-triple", 'local:"Alice"', 'local:"knows"',
                     'local:"Bob"', "--delete", "restrict"]) == 1
        assert capsys.readouterr().out == ""
        assert open(multi_file, encoding="utf-8").read() == MULTI_DOC

    def test_insert_set_existing_affects_nothing(self, toy_file, tmp_path, capsys):
        out_path = tmp_path / "out.ognq"
        rc = main(
            [
                "mutate",
                toy_file,
                "--insert-triple",
                'local:"Alice"',
                'local:"knows"',
                'local:"Bob"',
                "-o",
                str(out_path),
            ]
        )
        assert rc == 0
        assert capsys.readouterr().out == "affected=0\n"
        assert out_path.read_text(encoding="utf-8") == TOY_DOC

    def test_insert_multi_appends(self, toy_file, tmp_path, capsys):
        out_path = tmp_path / "out.ognq"
        rc = main(
            [
                "mutate",
                toy_file,
                "--insert-triple",
                'local:"Alice"',
                'local:"knows"',
                'local:"Bob"',
                "--insert",
                "multi",
                "-o",
                str(out_path),
            ]
        )
        assert rc == 0
        assert capsys.readouterr().out == "affected=1\n"
        text = out_path.read_text(encoding="utf-8")
        assert len(text.splitlines()) == 5

    def test_annotate_writes_assertion(self, toy_file, tmp_path, capsys):
        out_path = tmp_path / "out.ognq"
        rc = main(
            [
                "mutate",
                toy_file,
                "--annotate",
                'local:"Alice"',
                'local:"knows"',
                'local:"Bob"',
                'local:"verified"',
                '"true"^^<http://www.w3.org/2001/XMLSchema#boolean>',
                "-o",
                str(out_path),
            ]
        )
        assert rc == 0
        assert capsys.readouterr().out == "affected=1\n"
        text = out_path.read_text(encoding="utf-8")
        assert len(text.splitlines()) == 5
        assert 'local:"verified"' in text

    def test_add_edge_with_properties(self, toy_file, tmp_path, capsys):
        out_path = tmp_path / "out.ognq"
        rc = main(
            [
                "mutate",
                toy_file,
                "--add-edge",
                "Alice",
                "Bob",
                "likes",
                "--property",
                "since=2020",
                "--property",
                'note="hello"',
                "-o",
                str(out_path),
            ]
        )
        assert rc == 0
        # the edge plus two property assertions
        assert capsys.readouterr().out == "affected=3\n"
        text = out_path.read_text(encoding="utf-8")
        assert 'local:"Alice" local:"likes" local:"Bob"' in text
        assert 'local:"note" "hello"' in text

    def test_colon_terms_insert_local_identifiers(self, tmp_path, capsys):
        path = tmp_path / "d.ognq"
        path.write_text("", encoding="utf-8")
        assert main(["mutate", str(path), "--seed", "0", "--insert-triple", ":a", ":p", ":b"]) == 0
        assert capsys.readouterr().out == (
            'local:"a" local:"p" local:"b" <urn:og:sid:00000000-0000-0000-0000-000000000001> .\n'
            "affected=1\n"
        )

    def test_add_edge_unknown_endpoint(self, toy_file, capsys):
        rc = main(["mutate", toy_file, "--add-edge", "Alice", "Nobody", "likes"])
        assert rc == 1
        assert "no vertex with id 'Nobody'" in capsys.readouterr().err

    def test_add_edge_auto_create(self, toy_file, tmp_path, capsys):
        out_path = tmp_path / "out.ognq"
        rc = main(
            [
                "mutate",
                toy_file,
                "--add-edge",
                "Alice",
                "Walter",
                "likes",
                "--auto-create",
                "-o",
                str(out_path),
            ]
        )
        assert rc == 0
        assert 'local:"Walter"' in out_path.read_text(encoding="utf-8")

    def test_set_property_coerces_value(self, toy_file, tmp_path, capsys):
        out_path = tmp_path / "out.ognq"
        rc = main(
            ["mutate", toy_file, "--set-property", "Alice", "age", "33", "-o", str(out_path)]
        )
        assert rc == 0
        assert capsys.readouterr().out == "affected=1\n"
        assert (
            '"33"^^<http://www.w3.org/2001/XMLSchema#integer>'
            in out_path.read_text(encoding="utf-8")
        )

    def test_without_out_dumps_store_then_affected(self, toy_file, capsys):
        rc = main(
            [
                "mutate",
                toy_file,
                "--insert-triple",
                'local:"X"',
                'local:"p"',
                'local:"Y"',
            ]
        )
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == "affected=1"
        assert len(lines) == 6
        assert any('local:"X" local:"p" local:"Y"' in line for line in lines)

    def test_affected_counts_symmetric_difference(self, toy_file, tmp_path, capsys):
        # a delete that removes two statements and nothing else
        out_path = tmp_path / "out.ognq"
        rc = main(
            [
                "mutate",
                toy_file,
                "--delete-triple",
                'local:"Alice"',
                'local:"knows"',
                'local:"Bob"',
                "-o",
                str(out_path),
            ]
        )
        assert rc == 0
        assert capsys.readouterr().out == "affected=2\n"
        assert len(out_path.read_text(encoding="utf-8").splitlines()) == 2


class TestMergeCommand:
    def test_report_lines(self, toy_file, tmp_path, capsys):
        out_path = tmp_path / "merged.ognq"
        rc = main(["merge", toy_file, toy_file, "-o", str(out_path)])
        assert rc == 0
        assert capsys.readouterr().out == (
            "statements_in_a=4\n"
            "statements_in_b=4\n"
            "statements_out=4\n"
            "identifiers_aligned=0\n"
            "blank_nodes_renamed=0\n"
            "edges_collapsed=0\n"
        )
        assert out_path.read_text(encoding="utf-8") == TOY_DOC

    def test_rules_file(self, toy_file, tmp_path, capsys):
        rules = tmp_path / "rules.json"
        rules.write_text(
            '{"id_mappings": [{"pair": ["local:\\"Bob\\"", "local:\\"Robert\\""]}]}',
            encoding="utf-8",
        )
        out_path = tmp_path / "merged.ognq"
        second = tmp_path / "b.ognq"
        second.write_text(
            'local:"Bob" local:"age" "44"^^<http://www.w3.org/2001/XMLSchema#integer> '
            "<urn:og:sid:00000000-0000-0000-0000-000000000009> .\n",
            encoding="utf-8",
        )
        rc = main(["merge", toy_file, str(second), "--rules", str(rules), "-o", str(out_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "identifiers_aligned=1" in out
        text = out_path.read_text(encoding="utf-8")
        assert 'local:"Robert" local:"age"' in text
        # the anchor store is never rewritten
        assert 'local:"Bob" local:"name"' in text

    def test_bad_rules_file(self, toy_file, tmp_path, capsys):
        rules = tmp_path / "rules.json"
        rules.write_text("not json", encoding="utf-8")
        rc = main(["merge", toy_file, toy_file, "--rules", str(rules)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestLoad:
    def test_formats_inferred_from_extension(self, tmp_path, capsys):
        ttls = tmp_path / "g.ttls"
        ttls.write_text(
            "@prefix ex: <urn:og:local:> .\n"
            "ex:Alice ex:knows ex:Bob .\n"
            "<< ex:Alice ex:knows ex:Bob >> ex:since 2020 .\n",
            encoding="utf-8",
        )
        out_path = tmp_path / "out.ognq"
        rc = main(["load", str(ttls), "--seed", "7", "-o", str(out_path)])
        assert rc == 0
        store = parse_ognq(out_path.read_text(encoding="utf-8"))
        assert len(store.statements()) == 2

    def test_seeded_load_is_byte_deterministic(self, tmp_path):
        ttls = tmp_path / "g.ttls"
        ttls.write_text("@prefix ex: <urn:x:> .\nex:a ex:p ex:b .\n", encoding="utf-8")
        out_a = tmp_path / "a.ognq"
        out_b = tmp_path / "b.ognq"
        assert main(["load", str(ttls), "--seed", "7", "-o", str(out_a)]) == 0
        assert main(["load", str(ttls), "--seed", "7", "-o", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_multiple_inputs_accumulate(self, toy_file, tmp_path, capsys):
        nt = tmp_path / "extra.nt"
        nt.write_text("<urn:x:a> <urn:x:p> <urn:x:b> .\n", encoding="utf-8")
        out_path = tmp_path / "out.ognq"
        rc = main(["load", toy_file, str(nt), "-o", str(out_path)])
        assert rc == 0
        store = parse_ognq(out_path.read_text(encoding="utf-8"))
        assert len(store.statements()) == 5

    def test_explicit_format_overrides(self, tmp_path, capsys):
        # N-Triples text in an oddly named file
        path = tmp_path / "data.txt"
        path.write_text("<urn:x:a> <urn:x:p> <urn:x:b> .\n", encoding="utf-8")
        rc = main(["load", str(path), "--format", "ntriples", "-o", str(tmp_path / "o.ognq")])
        assert rc == 0


class TestErrors:
    def test_parse_error_exit_1(self, tmp_path, capsys):
        path = tmp_path / "bad.ognq"
        path.write_text("garbage\n", encoding="utf-8")
        rc = main(["view", str(path), "--as", "rdf"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error:" in err and "line 1" in err

    def test_missing_file_exit_1(self, capsys):
        rc = main(["view", "/nonexistent/x.ognq", "--as", "rdf"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_usage_error_exit_1(self, toy_file, capsys):
        rc = main(["view", toy_file, "--as", "bogus"])
        assert rc == 1

    def test_no_arguments_exit_1(self, capsys):
        assert main([]) == 1

    def test_bad_prefixes_file_exit_1(self, toy_file, tmp_path, capsys):
        pfx = tmp_path / "bad.json"
        pfx.write_text("not json", encoding="utf-8")
        rc = main(["view", toy_file, "--as", "lpg", "--prefixes", str(pfx)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_help_exit_0(self, capsys):
        assert main(["--help"]) == 0
        assert "usage: og" in capsys.readouterr().out


class TestRefusals:
    """Each refused command exits 1 with an ``error:`` line and writes no
    output file, or leaves the one it names with its old bytes."""

    @staticmethod
    def refused(argv, tmp_path, capsys, needle, old=None):
        out_path = tmp_path / "out.ognq"
        if old is not None:
            out_path.write_bytes(old)
        files = sorted(tmp_path.iterdir())
        assert main(argv + ["-o", str(out_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and needle in err
        assert (out_path.read_bytes() if out_path.exists() else None) == old
        assert sorted(tmp_path.iterdir()) == files

    def test_one_format_serves_every_input(self, tmp_path, capsys):
        good, bad = tmp_path / "good.txt", tmp_path / "bad.txt"
        good.write_text("<urn:x:a> <urn:x:p> <urn:x:b> .\n", encoding="utf-8")
        bad.write_text("garbage\n", encoding="utf-8")
        self.refused(["load", str(good), str(bad), "--format", "ntriples"], tmp_path, capsys, "bad.txt")

    def test_a_format_it_cannot_infer(self, tmp_path, capsys):
        path = tmp_path / "data.txt"
        path.write_text("<urn:x:a> <urn:x:p> <urn:x:b> .\n", encoding="utf-8")
        self.refused(["load", str(path)], tmp_path, capsys, "cannot infer")

    def test_input_and_format_counts_differ(self, toy_file, tmp_path, capsys):
        argv = ["load", toy_file, toy_file, toy_file, "--format", "ognq", "--format", "ognq"]
        self.refused(argv, tmp_path, capsys, "3 inputs but 2 --format values")

    def test_a_property_without_equals(self, toy_file, tmp_path, capsys):
        argv = ["mutate", toy_file, "--add-edge", "Alice", "Bob", "likes", "--property", "w"]
        self.refused(argv, tmp_path, capsys, "key=value")

    def test_a_property_value_that_is_no_literal(self, toy_file, tmp_path, capsys):
        argv = ["mutate", toy_file, "--add-edge", "Alice", "Bob", "likes", "--property", "w=<urn:x:w>"]
        self.refused(argv, tmp_path, capsys, "must be literals")

    def test_a_bad_namespace(self, toy_file, tmp_path, capsys):
        self.refused(["view", toy_file, "--as", "rdf", "--namespace", "no scheme"], tmp_path, capsys, "bad namespace")

    @pytest.mark.parametrize("table", ['{"ex": 1}', '["urn:x:"]'])
    def test_a_prefix_table_that_is_no_string_map(self, toy_file, tmp_path, capsys, table):
        pfx = tmp_path / "prefixes.json"
        pfx.write_text(table, encoding="utf-8")
        argv = ["view", toy_file, "--as", "lpg", "--prefixes", str(pfx)]
        self.refused(argv, tmp_path, capsys, "prefix tables map labels to IRI strings")

    SURROGATES = {
        "sur.nt": ('<urn:a> <urn:b> "x\\uD800y" .\n', "bad \\u escape (line 1, column 20)"),
        "sur.ttls": ('<urn:a> <urn:b> "\\uD83D\\uDE00" .\n', "bad \\u escape (line 1, column 19)"),
        "sur.ognq": ('local:"a" local:"b" "\\U0000DFFF" <urn:og:sid:00000000-0000-0000-0000-000000000001> .\n',
                     "bad \\U escape (line 1, column 23)"),
        "sur.jsonl": ('{"type":"vertex","id":"v","properties":{"k":"\\ud800"}}\n',
                      "a string holds a lone surrogate (line 1)"),
    }

    @pytest.mark.parametrize("name", sorted(SURROGATES))
    @pytest.mark.parametrize("old", [None, b"old bytes\n"])
    def test_an_escaped_surrogate(self, tmp_path, capsys, name, old):
        text, needle = self.SURROGATES[name]
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        self.refused(["load", str(path)], tmp_path, capsys, f"{path}: {needle}", old)

    @pytest.mark.parametrize("old", [None, b"old bytes\n"])
    def test_an_input_that_is_not_utf8(self, tmp_path, capsys, old):
        path = tmp_path / "bad.nt"
        path.write_bytes(b"\xff")
        self.refused(["load", str(path)], tmp_path, capsys, f"{path}: 'utf-8' codec can't decode", old)

    def test_a_rules_file_that_is_not_utf8(self, toy_file, tmp_path, capsys):
        rules = tmp_path / "rules.json"
        rules.write_bytes(b"{\xff}")
        argv = ["merge", toy_file, toy_file, "--rules", str(rules)]
        self.refused(argv, tmp_path, capsys, f"{rules}: 'utf-8' codec can't decode", b"old bytes\n")

    @pytest.mark.parametrize("old", [None, b"old bytes\n"])
    def test_an_output_with_no_utf8_form(self, toy_file, tmp_path, capsys, old):
        pfx = tmp_path / "p.json"
        pfx.write_text('{"ex": "urn:x\\ud800"}', encoding="utf-8")
        argv = ["mutate", toy_file, "--insert-triple", "<urn:a>", "<urn:p>", "ex:c", "--prefixes", str(pfx)]
        self.refused(argv, tmp_path, capsys, "cannot write the output as UTF-8", old)

    @pytest.mark.parametrize("old", [None, b"old bytes\n"])
    def test_quoting_deeper_than_the_view_allows(self, tmp_path, capsys, old):
        store = Store(seed=0)
        sid = store.insert_ground(LocalId("a"), LocalId("p"), LocalId("b"))
        for i in range(33):
            sid = store.insert_assertion(SidRef(sid), LocalId("q"), LocalId(f"v{i}"))
        path, out = tmp_path / "s.ognq", tmp_path / "out.ttls"
        path.write_text(serialize_ognq(store), encoding="utf-8")
        if old is not None:
            out.write_bytes(old)
        files = sorted(tmp_path.iterdir())
        assert main(["view", str(path), "--as", "rdfstar", "-o", str(out)]) == 1
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert captured.out == "" and len(err) == 1
        assert err[0].startswith("error: quoted-triple nesting exceeds 32")
        assert (out.read_bytes() if out.exists() else None) == old
        assert sorted(tmp_path.iterdir()) == files

    def test_a_failed_replace_keeps_the_old_bytes(self, toy_file, tmp_path, capsys, monkeypatch):
        def refuse(src, dst):
            raise OSError("replace refused")

        monkeypatch.setattr(os, "replace", refuse)
        self.refused(["load", toy_file], tmp_path, capsys, "replace refused", b"old bytes\n")


class TestOutputFile:
    def test_a_replaced_file_keeps_its_mode(self, toy_file, tmp_path):
        out = tmp_path / "out.ognq"
        out.write_text("old\n")
        out.chmod(0o640)
        assert main(["load", toy_file, "-o", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == TOY_DOC
        assert out.stat().st_mode & 0o777 == 0o640

    def test_a_new_file_gets_the_mode_the_umask_gives(self, toy_file, tmp_path):
        out = tmp_path / "new.ognq"
        umask = os.umask(0o027)
        try:
            assert main(["load", toy_file, "-o", str(out)]) == 0
        finally:
            os.umask(umask)
        assert out.stat().st_mode & 0o777 == 0o640
        assert sorted(p.name for p in tmp_path.iterdir()) == ["new.ognq", "toy.ognq"]

    def test_a_symlink_keeps_its_place_and_its_target_is_replaced(self, toy_file, tmp_path):
        real, link = tmp_path / "real.ognq", tmp_path / "link.ognq"
        real.write_text("old\n")
        link.symlink_to(real.name)
        assert main(["load", toy_file, "-o", str(link)]) == 0
        assert link.is_symlink() and real.read_text(encoding="utf-8") == TOY_DOC
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.ognq", "real.ognq", "toy.ognq"]

    def test_a_pipe_is_written_in_place(self, toy_file, tmp_path):
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # lets the writer open without blocking
        try:
            assert main(["load", toy_file, "-o", str(fifo)]) == 0
            assert os.read(reader, 1 << 16).decode("utf-8") == TOY_DOC
        finally:
            os.close(reader)
        assert fifo.is_fifo()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fifo", "toy.ognq"]


class TestSubprocess:
    def test_console_script_runs(self, toy_file):
        proc = subprocess.run(
            [sys.executable, "-m", "og.cli", "stats", toy_file],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("statements=4\n")
