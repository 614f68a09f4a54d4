"""The ``og`` command: batch load, convert, merge, mutate, inspect.

Pipeline style: every subcommand reads files and writes a file (or standard
output), no sessions. Reports and counts go to standard output as
``key=value`` lines; diagnostics go to the error stream. Exit codes: 0 on
success, 1 on any general error, 2 when an update is refused as ambiguous,
so scripts can tell "can't" from "won't guess".

Term arguments for ``mutate`` take the wire-format tokens (``<iri>``,
``"text"``, ``"1"^^<…integer>``, ``local:"name"``, ``_:b``) plus the usual
conveniences: bare integers/decimals/doubles/booleans, ``:name`` for a
local identifier, and ``prefix:name`` under ``--prefixes``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields
from pathlib import Path

from .datatypes import Literal
from .errors import AmbiguousTargetError, OgError, ParseError
from .formats import (
    parse_lpg_jsonl,
    parse_ntriples,
    parse_ognq,
    parse_term_text,
    parse_turtle_star,
    serialize_lpg_jsonl,
    serialize_ntriples,
    serialize_ognq,
    serialize_turtle_star,
)
from .formats.common import PN_PREFIX, bare_literal, render_term
from .merge import MergeRules, load_rules, merge
from .statements import Term, is_ground
from .store import DeletePolicy, Store
from .terms import Iri, LocalId
from .update import (
    AmbiguityPolicy,
    InsertSemantics,
    lpg_add_edge,
    lpg_set_property,
    rdf_delete_triple,
    rdf_insert_triple,
    star_annotate,
)
from .views import (
    DEFAULT_LOCAL_NS,
    LpgViewConfig,
    RdfMode,
    dataset_view,
    lpg_view,
    rdf_star_view,
    rdf_view,
)

_FORMATS = ("ognq", "ntriples", "ttls", "lpgjsonl")
_EXT_FORMAT = {".ognq": "ognq", ".nt": "ntriples", ".ttls": "ttls", ".jsonl": "lpgjsonl"}
_PARSERS = {
    "ognq": parse_ognq,
    "ntriples": parse_ntriples,
    "ttls": parse_turtle_star,
    "lpgjsonl": parse_lpg_jsonl,
}

def parse_cli_term(token: str, prefixes: dict[str, str]) -> Term:
    """One mutate-argument term; see the module docstring for the syntax."""
    token = token.strip()
    if not token:
        raise ParseError("empty term")
    if token[0] in '<"' or token.startswith(("_:", 'local:"')):
        return parse_term_text(token)
    bare = bare_literal(token)
    if bare is not None:
        return bare
    try:
        if token.startswith(":"):
            return LocalId(token[1:])
        label, colon, local = token.partition(":")
        # a prefix label, then any local part on one line
        if colon and PN_PREFIX.fullmatch(label) and label in prefixes and "\n" not in local:
            return Iri(prefixes[label] + local)
    except ValueError as e:
        raise ParseError(str(e)) from None
    raise ParseError(f"cannot read term {token!r}")


# --- shared plumbing ------------------------------------------------------


def _read_text(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _write_out(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _parse_file(path: str, fmt: str, store: Store) -> Store:
    try:
        return _PARSERS[fmt](_read_text(path), store)
    except ParseError as e:
        raise ParseError(f"{path}: {e}") from None


def _load_ognq(path: str, seed: int | None) -> Store:
    return _parse_file(path, "ognq", Store(seed))


def _resolve_config(args) -> tuple[str, dict[str, str]]:
    namespace = args.namespace or os.environ.get("OG_DEFAULT_NS") or DEFAULT_LOCAL_NS
    try:
        Iri(namespace)
    except ValueError as e:
        raise OgError(f"bad namespace: {e}")
    prefixes: dict[str, str] = {}
    if args.prefixes:
        try:
            data = json.loads(_read_text(args.prefixes))
        except (ValueError, RecursionError) as e:
            raise ParseError(f"{args.prefixes}: {e}") from None
        if not isinstance(data, dict) or not all(
            isinstance(k, str) and isinstance(v, str) for k, v in data.items()
        ):
            raise ParseError(f"{args.prefixes}: prefix tables map labels to IRI strings")
        prefixes = data
    return namespace, prefixes


def _lpg_config(namespace: str, prefixes: dict[str, str]) -> LpgViewConfig:
    return LpgViewConfig(default_namespace=namespace, prefixes=prefixes)


# --- subcommands ----------------------------------------------------------


def cmd_load(args, namespace: str, prefixes: dict[str, str]) -> int:
    fmts = list(args.format or [])
    if len(fmts) == 1 and len(args.inputs) > 1:
        fmts = fmts * len(args.inputs)
    if not fmts:
        fmts = []
        for path in args.inputs:
            ext = Path(path).suffix
            if ext not in _EXT_FORMAT:
                raise OgError(f"cannot infer a format for {path!r}; pass --format")
            fmts.append(_EXT_FORMAT[ext])
    if len(fmts) != len(args.inputs):
        raise OgError(f"{len(args.inputs)} inputs but {len(fmts)} --format values")
    store = Store(args.seed)
    for path, fmt in zip(args.inputs, fmts):
        _parse_file(path, fmt, store)
    _write_out(serialize_ognq(store), args.out)
    return 0


def cmd_view(args, namespace: str, prefixes: dict[str, str]) -> int:
    store = _load_ognq(args.input, args.seed)
    kind = args.view_as
    if kind == "rdf":
        text = serialize_ntriples(rdf_view(store, RdfMode.HIDE, namespace))
    elif kind == "rdf-reified":
        text = serialize_ntriples(rdf_view(store, RdfMode.REIFY, namespace))
    elif kind == "rdfstar":
        text = serialize_turtle_star(rdf_star_view(store, namespace), prefixes)
    elif kind == "lpg":
        g = lpg_view(store, _lpg_config(namespace, prefixes))
        text = serialize_lpg_jsonl(g)
        print(f"dropped={g.dropped}", file=sys.stderr)
    else:
        ds = dataset_view(store, namespace)
        parts = ["# default graph\n", serialize_ntriples(ds.default)]
        for name in ds.graph_names():
            parts.append(f"# graph {render_term(name)}\n")
            parts.append(serialize_ntriples(ds.named[name]))
        text = "".join(parts)
    _write_out(text, args.out)
    return 0


def cmd_merge(args, namespace: str, prefixes: dict[str, str]) -> int:
    a = _load_ognq(args.a, args.seed)
    b = _load_ognq(args.b, None)
    if args.rules:
        try:
            rules = load_rules(_read_text(args.rules))
        except ParseError as e:
            raise ParseError(f"{args.rules}: {e}") from None
    else:
        rules = MergeRules()
    merged, report = merge(a, b, rules)
    _write_out(serialize_ognq(merged), args.out)
    for f in fields(report):
        print(f"{f.name}={getattr(report, f.name)}")
    return 0


def _literal_value(raw: str, prefixes: dict[str, str]) -> Literal:
    value = parse_cli_term(raw, prefixes)
    if not isinstance(value, Literal):
        raise OgError(f"property values must be literals, got {raw!r}")
    return value


def _edge_properties(pairs: list[str], prefixes: dict[str, str]) -> dict[str, Literal]:
    props: dict[str, Literal] = {}
    for pair in pairs:
        if "=" not in pair:
            raise OgError(f"--property takes key=value, got {pair!r}")
        key, raw = pair.split("=", 1)
        props[key] = _literal_value(raw, prefixes)
    return props


def cmd_mutate(args, namespace: str, prefixes: dict[str, str]) -> int:
    store = _load_ognq(args.input, args.seed)
    term = lambda t: parse_cli_term(t, prefixes)
    ambiguity = AmbiguityPolicy(args.ambiguity)
    delete = DeletePolicy(args.delete)
    semantics = InsertSemantics(args.insert)

    before = {st.sid for st in store}
    if args.delete_triple:
        s, p, o = map(term, args.delete_triple)
        rdf_delete_triple(store, s, p, o, ambiguity, delete, namespace)
    elif args.insert_triple:
        s, p, o = map(term, args.insert_triple)
        rdf_insert_triple(store, s, p, o, semantics, namespace)
    elif args.annotate:
        s, p, o, key, value = map(term, args.annotate)
        star_annotate(store, s, p, o, key, value, ambiguity, namespace)
    elif args.add_edge:
        source, target, label = args.add_edge
        lpg_add_edge(
            store,
            source,
            target,
            label,
            _edge_properties(args.property or [], prefixes),
            args.auto_create,
            _lpg_config(namespace, prefixes),
        )
    else:
        element, key, raw = args.set_property
        lpg_set_property(store, element, key, _literal_value(raw, prefixes), _lpg_config(namespace, prefixes))
    after = {st.sid for st in store}

    _write_out(serialize_ognq(store), args.out)
    print(f"affected={len(before ^ after)}")
    return 0


def cmd_stats(args, namespace: str, prefixes: dict[str, str]) -> int:
    store = _load_ognq(args.input, args.seed)
    ground = sum(1 for st in store if is_ground(st))
    g = lpg_view(store, _lpg_config(namespace, prefixes))
    print(f"statements={len(store)}")
    print(f"ground={ground}")
    print(f"assertions={len(store) - ground}")
    print(f"graphs={len(store.list_graphs())}")
    print(f"lpg_vertices={len(g.vertices)}")
    print(f"lpg_edges={len(g.edges)}")
    print(f"lpg_dropped={g.dropped}")
    return 0


# --- argument wiring ------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None, help="deterministic sid issuing")
    common.add_argument("--namespace", default=None, help="default namespace (env OG_DEFAULT_NS)")
    common.add_argument("--prefixes", default=None, help="JSON file mapping prefix labels to IRIs")

    parser = argparse.ArgumentParser(prog="og", description="unified graph store tool")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("load", parents=[common], help="parse inputs into one store, write OG-NQ")
    p.add_argument("inputs", nargs="+")
    p.add_argument("--format", action="append", choices=_FORMATS,
                   help="input format; repeatable, inferred from extensions when absent")
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(func=cmd_load)

    p = sub.add_parser("view", parents=[common], help="project an OG-NQ store into a view")
    p.add_argument("input")
    p.add_argument("--as", dest="view_as", required=True,
                   choices=("rdf", "rdf-reified", "rdfstar", "lpg", "dataset"))
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(func=cmd_view)

    p = sub.add_parser("merge", parents=[common], help="merge two OG-NQ stores under rules")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--rules", default=None, help="JSON rules file")
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(func=cmd_merge)

    p = sub.add_parser("mutate", parents=[common], help="apply one update operation")
    p.add_argument("input")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--delete-triple", nargs=3, metavar=("S", "P", "O"))
    group.add_argument("--insert-triple", nargs=3, metavar=("S", "P", "O"))
    group.add_argument("--annotate", nargs=5, metavar=("S", "P", "O", "KEY", "VALUE"))
    group.add_argument("--add-edge", nargs=3, metavar=("FROM", "TO", "LABEL"))
    group.add_argument("--set-property", nargs=3, metavar=("ELEMENT", "KEY", "VALUE"))
    p.add_argument("--ambiguity", choices=[m.value for m in AmbiguityPolicy], default="all")
    p.add_argument("--delete", choices=[m.value for m in DeletePolicy], default="cascade")
    p.add_argument("--insert", choices=[m.value for m in InsertSemantics], default="set")
    p.add_argument("--property", action="append", metavar="KEY=VALUE",
                   help="edge property for --add-edge; repeatable")
    p.add_argument("--auto-create", action="store_true",
                   help="create missing endpoints for --add-edge")
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(func=cmd_mutate)

    p = sub.add_parser("stats", parents=[common], help="print store counts")
    p.add_argument("input")
    p.set_defaults(func=cmd_stats)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on usage errors; that code is reserved for ambiguity
        return 0 if not e.code else 1
    try:
        namespace, prefixes = _resolve_config(args)
        return args.func(args, namespace, prefixes)
    except AmbiguousTargetError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (OgError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
