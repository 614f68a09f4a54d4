"""The four workloads: inputs, one round of operations, and output checks.

Each workload builds its inputs in ``setup()`` and then runs identical
rounds.  Every call into the program goes through ``self.call(name, side,
fn, ...)``: it is timed on its own, its time counts towards the round's
``read`` or ``write`` sum, and an exception it raises counts as a failed
operation and gives ``FAILED``, never a value the program could return.
Checks run between calls, outside every timed region, against values the
benchmark computes apart from the program: its generator
records, its own shadow model, or the brute-force functions of
``tests/oracles.py``.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from collections import Counter, deque
from pathlib import Path

import gen
import oracles
from og import (
    IN_GRAPH,
    XSD_INTEGER,
    AmbiguityPolicy,
    BlankNode,
    EdgeIdentity,
    Literal,
    LocalId,
    MergeRules,
    QuotedTriple,
    RdfMode,
    SidRef,
    Statement,
    StatementPattern,
    Store,
    dataset_view,
    lpg_add_edge,
    lpg_set_property,
    lpg_view,
    merge,
    parse_lpg_jsonl,
    parse_ntriples,
    parse_ognq,
    parse_turtle_star,
    rdf_delete_triple,
    rdf_insert_triple,
    rdf_star_view,
    rdf_view,
    serialize_lpg_jsonl,
    serialize_ntriples,
    serialize_ognq,
    serialize_turtle_star,
    star_annotate,
)

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"

#: Base sizes; ``scale`` multiplies them (the smoke test runs at a sliver).
SIZES = {
    "convert": 50_000,
    "updates": 50_000,
    "chain": 2_000,
    "quote_depth": 200,
    "multi_copies": 4_000,
    "multi_background": 2_000,
    "blanks": 10_000,
    "cli": 10_000,
}


#: The quoting chains of ``shapes``.  A single serialization of one varies
#: by about a tenth within a run; with four, ``read_s`` spread by 9-13%
#: between runs, and with eight by 4-6.5%.
QUOTE_CHAINS = 8


def size(name: str, scale: float) -> int:
    return max(8, int(SIZES[name] * scale))


#: What ``Workload.call`` returns for a call that raised.
FAILED = object()


class CheckFailed(Exception):
    pass


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


class Workload:
    #: Whether the host-speed timer may sample while a call runs (see spans.py).
    sample_during = True

    def __init__(self, rec, seed: int, scale: float):
        self.rec = rec
        self.seed = seed
        self.scale = scale
        self.attempted = 0
        self.failed = 0

    def call(self, name: str, side: str, fn, *args, **kwargs):
        """One timed operation; returns its result, or ``FAILED`` when it raised."""
        self.attempted += 1
        try:
            with self.rec.timed(name, side, self.sample_during):
                return fn(*args, **kwargs)
        except Exception as e:  # the benchmark counts every failure and goes on
            self.failed += 1
            print(f"# {name} failed: {type(e).__name__}: {e}", file=sys.stderr)
            return FAILED

    def finish(self):
        """Checks that need the whole run, after the last round."""

    def close(self):
        """Remove what the workload wrote to disk."""


# --- convert -------------------------------------------------------------------


def expected_star(statements) -> set:
    """RDF-star triples of a store in sid order: every visible statement, with
    the statements it refers to rendered as quoted triples."""
    hidden = oracles.invisible_sids(statements)
    rendered: dict = {}

    def part(t):
        return QuotedTriple(*rendered[t.sid]) if isinstance(t, SidRef) else gen.exposed(t)

    for st in statements:  # sid order puts every target first
        rendered[st.sid] = (part(st.src), gen.exposed(st.label), part(st.value))
    return {rendered[st.sid] for st in statements if st.sid not in hidden}


class Convert(Workload):
    """Parse four documents of one store, then project and serialize it six ways."""

    def setup(self):
        n = size("convert", self.scale)
        self.records = gen.make_records(n, self.seed)
        self.ognq = gen.write_ognq(self.records.statements)
        self.nt, self.nt_want = gen.write_ntriples(self.records)
        self.ttl, self.ttl_want = gen.write_turtle_star(self.records)
        self.jsonl, self.jsonl_count = gen.write_lpg_jsonl(self.records)
        self.expected = None

    def round(self):
        p = {}
        for name, fn, doc in (
            ("formats.parse_ognq", parse_ognq, self.ognq),
            ("formats.parse_ntriples", parse_ntriples, self.nt),
            ("formats.parse_turtle_star", parse_turtle_star, self.ttl),
            ("formats.parse_lpg_jsonl", parse_lpg_jsonl, self.jsonl),
        ):
            p[name] = self.call(name, "write", fn, doc)
        self.installed = sum(len(s) for s in p.values() if s is not FAILED)
        store = p["formats.parse_ognq"]
        out = {}
        if store is not FAILED:
            out = {
                "rdf": self.export("rdf", store, rdf_view, "views.rdf_view",
                                   serialize_ntriples, "formats.serialize_ntriples"),
                "rdf_reify": self.export("rdf_reify", store, lambda s: rdf_view(s, RdfMode.REIFY),
                                         "views.rdf_view_reify", serialize_ntriples, "formats.serialize_ntriples_reify"),
                "rdf_star": self.export("rdf_star", store, rdf_star_view, "views.rdf_star_view",
                                        serialize_turtle_star, "formats.serialize_turtle_star"),
                "lpg": self.export("lpg", store, lpg_view, "views.lpg_view",
                                   serialize_lpg_jsonl, "formats.serialize_lpg_jsonl"),
                "dataset": self.export("dataset", store, dataset_view, "views.dataset_view",
                                       serialize_dataset, "formats.serialize_dataset"),
                "ognq": self.export("ognq", store, None, None, serialize_ognq, "formats.serialize_ognq"),
            }
        self.check(p, out)
        self.outputs = out

    def export(self, name, store, view, view_span, serializer, serializer_span):
        """One projection with its serializer, timed as one read operation."""

        def run():
            v = store
            if view is not None:
                with self.rec.timed(view_span):
                    v = view(store)
            with self.rec.timed(serializer_span):
                return v, serializer(v)

        return self.call("export." + name, "read", run)

    def check(self, parsed, out):
        recs = self.records
        if self.expected is None:
            sts = recs.statements
            default, named = oracles.dataset_placement(sts)
            self.expected = {
                "hide": oracles.hide_triples(sts),
                "reify": oracles.reify_triples(sts),
                "star": expected_star(sts),
                "default": default,
                "named": named,
                "dropped": sum(1 for st in sts if st.label in (IN_GRAPH, gen.DEEP_KEY)),
            }
        want = self.expected

        def ok(name):
            return out.get(name, FAILED) is not FAILED

        s = parsed["formats.parse_ognq"]
        if s is not FAILED:
            expect(set(s.statements()) == set(recs.statements), "parse_ognq statements differ from the generator's")
        s = parsed["formats.parse_ntriples"]
        if s is not FAILED:
            expect(Counter(st.content for st in s.statements()) == self.nt_want, "parse_ntriples contents")
        s = parsed["formats.parse_turtle_star"]
        if s is not FAILED:
            got = set()
            for st in s.statements():
                if isinstance(st.src, SidRef):
                    got.add((s.get(st.src.sid).content, st.label, st.value))
                else:
                    got.add(st.content)
            expect(len(s) == len(self.ttl_want) and got == self.ttl_want, "parse_turtle_star contents")
        s = parsed["formats.parse_lpg_jsonl"]
        if s is not FAILED:
            expect(len(s) == self.jsonl_count, "parse_lpg_jsonl statement count")
        if ok("rdf"):
            g, text = out["rdf"]
            expect(g.triples == want["hide"] and text.count("\n") == len(g), "rdf_view")
        if ok("rdf_reify"):
            g, text = out["rdf_reify"]
            expect(g.triples == want["reify"] and text.count("\n") == len(g), "rdf_view REIFY")
        if ok("rdf_star"):
            g, text = out["rdf_star"]
            expect(g.triples == want["star"] and text.count("\n") == len(g), "rdf_star_view")
        if ok("lpg"):
            g, text = out["lpg"]
            expect(len(g.vertices) == len(recs.vertices) and len(g.edges) == len(recs.edges)
                   and g.dropped == want["dropped"]
                   and text.count("\n") == len(g.vertices) + len(g.edges), "lpg_view")
        if ok("dataset"):
            ds, text = out["dataset"]
            expect(ds.default.triples == want["default"]
                   and {k: v.triples for k, v in ds.named.items()} == want["named"], "dataset_view")
        if ok("ognq"):
            expect(out["ognq"][1] == self.ognq, "serialize_ognq(parse_ognq(doc)) != doc")


def serialize_dataset(ds) -> str:
    parts = [serialize_ntriples(ds.default)]
    parts.extend(serialize_ntriples(ds.named[name]) for name in ds.graph_names())
    return "".join(parts)


# --- updates -------------------------------------------------------------------


class Shadow:
    """What the store should hold, kept by the benchmark without the program."""

    def __init__(self, records):
        self.ground = Counter()   # exposed content of every ground statement
        self.by_src = Counter()   # ground statements per source term
        self.by_label = Counter()  # ground statements per label
        self.size = len(records.statements)
        by_sid = records.by_sid()
        refs = Counter(st.src.sid for st in records.statements if isinstance(st.src, SidRef))
        self.props: dict = {}       # (vertex, key) -> [(literal, statements hanging off it)]
        self.edge_notes: dict = {}  # (edge sid, key) -> [statements hanging off each note]
        for st in records.statements:
            if not isinstance(st.src, SidRef):
                self.add_ground(st.content)
        for sid in records.props:
            st = by_sid[sid]
            self.props.setdefault((st.src, st.label.text), []).append((st.value, refs[sid]))
        for sid in records.annotations:
            st = by_sid[sid]
            self.edge_notes.setdefault((st.src.sid, st.label.text), []).append(refs[sid])

    def add_ground(self, content, k: int = 1):
        self.ground[tuple(gen.exposed(t) for t in content)] += k
        self.by_src[content[0]] += k
        self.by_label[content[1]] += k

    def triples(self) -> frozenset:
        return frozenset(c for c, n in self.ground.items() if n > 0)


class Updates(Workload):
    """Point updates through the RDF and the property-graph entry points,
    with partial-pattern reads between them, on a store that stays near its
    starting size."""

    # Kinds per round.  Within a class no kind's share ends at 50% or 90%
    # (RDF 27/27/45%, LPG thirds), so neither pooled percentile falls on the
    # boundary between two kinds.  Each delete removes one triple that an
    # insert or an added edge queued, so the store stays near its size.
    RDF_INSERT, RDF_ANNOTATE, RDF_DELETE = 3, 3, 5
    LPG_EDGE, LPG_VERTEX_PROP, LPG_EDGE_PROP = 2, 2, 2
    MATCH_SRC, MATCH_LABEL = 6, 6
    assert RDF_DELETE == RDF_INSERT + LPG_EDGE

    def setup(self):
        n = size("updates", self.scale)
        self.records = gen.make_records(n, self.seed)
        self.store = Store(seed=n)
        self.store.add_statements(self.records.statements)
        self.shadow = Shadow(self.records)
        self.rng = random.Random(self.seed + 1)
        self.fresh = 0
        self.affected = 0
        # [content, statements its delete removes]; each round deletes as many
        # triples as it adds, so twice that many keeps the queue from running dry
        self.queue = deque()
        for _ in range(2 * self.RDF_DELETE):
            content = self.fresh_content()
            self.store.insert_ground(*content)
            self.shadow.add_ground(content)
            self.shadow.size += 1
            self.queue.append([content, 1])

    def fresh_content(self):
        self.fresh += 1
        v = self.records.vertices
        return (self.rng.choice(v), LocalId(f"rel{self.fresh}"), self.rng.choice(v))

    def plan(self) -> list[str]:
        ops = (["rdf_insert"] * self.RDF_INSERT + ["rdf_annotate"] * self.RDF_ANNOTATE
               + ["rdf_delete"] * self.RDF_DELETE + ["lpg_edge"] * self.LPG_EDGE
               + ["lpg_vertex_prop"] * self.LPG_VERTEX_PROP + ["lpg_edge_prop"] * self.LPG_EDGE_PROP
               + ["match_src"] * self.MATCH_SRC + ["match_label"] * self.MATCH_LABEL)
        self.rng.shuffle(ops)
        return ops

    def round(self):
        for op in self.plan():
            getattr(self, op)()
            expect(len(self.store) == self.shadow.size, f"store size after {op}")

    def rdf_insert(self):
        content = self.fresh_content()
        view = [gen.exposed(t) for t in content]
        sid = self.call("update.rdf_insert_triple", "write", rdf_insert_triple, self.store, *view)
        if sid is not FAILED:
            expect(sid is not None, "rdf_insert_triple inserted nothing for a fresh triple")
            expect(self.store.get(sid) == Statement(*content, sid), "rdf_insert_triple result")
            self.shadow.add_ground(content)
            self.shadow.size += 1
            self.affected += 1
            self.queue.append([content, 1])

    def rdf_annotate(self):
        expect(bool(self.queue), "no queued triple left to annotate: earlier inserts failed")
        item = self.rng.choice(self.queue)
        view = [gen.exposed(t) for t in item[0]]
        value = Literal(f"n{self.rng.randrange(10**6)}")
        sids = self.call("update.star_annotate", "write", star_annotate, self.store, *view,
                         LocalId("note"), value, AmbiguityPolicy.ALL)
        if sids is not FAILED:
            expect(len(sids) == 1, "star_annotate result")
            item[1] += 1
            self.shadow.size += 1
            self.affected += 1

    def rdf_delete(self):
        expect(bool(self.queue), "no queued triple left to delete: earlier inserts failed")
        content, removed = self.queue.popleft()
        view = [gen.exposed(t) for t in content]
        n = self.call("update.rdf_delete_triple", "write", rdf_delete_triple, self.store, *view)
        if n is not FAILED:
            expect(n == removed, f"rdf_delete_triple removed {n}, expected {removed}")
            self.shadow.add_ground(content, -1)
            self.shadow.size -= removed
            self.affected += removed

    def lpg_edge(self):
        src, label, dst = self.fresh_content()
        w = self.rng.randrange(100)
        sid = self.call("update.lpg_add_edge", "write", lpg_add_edge, self.store,
                        gen.vertex_id(src), gen.vertex_id(dst), label.text, {"w": w})
        if sid is not FAILED:
            expect(sid is not None and self.store.get(sid) == Statement(src, label, dst, sid), "lpg_add_edge result")
            self.shadow.add_ground((src, label, dst))
            self.shadow.size += 2
            self.affected += 2
            self.queue.append([(src, label, dst), 2])

    def lpg_vertex_prop(self):
        vertex = self.rng.choice(self.records.vertices)
        key = self.rng.choice(gen.PROP_KEYS)
        value = self.rng.randrange(10**6)
        sid = self.call("update.lpg_set_property_vertex", "write", lpg_set_property, self.store,
                        gen.vertex_id(vertex), key.text, value)
        if sid is not FAILED:
            lit = Literal(str(value), XSD_INTEGER)
            expect(sid is not None and self.store.get(sid) == Statement(vertex, key, lit, sid),
                   "lpg_set_property (vertex) result")
            for old, hanging in self.shadow.props.get((vertex, key.text), []):
                self.shadow.add_ground((vertex, key, old), -1)
                self.shadow.size -= 1 + hanging
                self.affected += 1 + hanging
            self.shadow.props[(vertex, key.text)] = [(lit, 0)]
            self.shadow.add_ground((vertex, key, lit))
            self.shadow.size += 1
            self.affected += 1

    def lpg_edge_prop(self):
        edge = self.rng.choice(self.records.edges)
        key = self.rng.choice(gen.ANNOT_KEYS)
        value = self.rng.randrange(1990, 2030)
        sid = self.call("update.lpg_set_property_edge", "write", lpg_set_property, self.store, edge, key.text, value)
        if sid is not FAILED:
            lit = Literal(str(value), XSD_INTEGER)
            expect(sid is not None and self.store.get(sid) == Statement(SidRef(edge), key, lit, sid),
                   "lpg_set_property (edge) result")
            removed = sum(1 + h for h in self.shadow.edge_notes.get((edge, key.text), []))
            self.shadow.size += 1 - removed
            self.affected += 1 + removed
            self.shadow.edge_notes[(edge, key.text)] = [0]

    def match_src(self):
        vertex = self.rng.choice(self.records.vertices)
        got = self.call("store.match_src", "read", self.store.match, StatementPattern(src=vertex))
        if got is not FAILED:
            expect(len(got) == self.shadow.by_src[vertex], "match by source")

    def match_label(self):
        label = self.rng.choice(gen.EDGE_LABELS + gen.PROP_KEYS + [gen.LABEL])
        got = self.call("store.match_label", "read", self.store.match, StatementPattern(label=label))
        if got is not FAILED:
            expect(len(got) == self.shadow.by_label[label], "match by label")

    def finish(self):
        expect(rdf_view(self.store).triples == self.shadow.triples(), "rdf_view after the updates")


# --- shapes --------------------------------------------------------------------


class Shapes(Workload):
    """One input per quadratic or recursive path: a reverse-ordered reference
    chain, deep quoting chains, a heavily multi-edged triple, and blank
    labels that collide with a store's."""

    def setup(self):
        s, seed = self.scale, self.seed
        self.chain = gen.reference_chain(size("chain", s), seed)
        self.chain_doc = gen.write_ognq(reversed(self.chain))
        self.quotes = []
        for k in range(QUOTE_CHAINS):
            chain = gen.reference_chain(size("quote_depth", s), f"{seed}-quote-{k}", first_sid=1 + k * 10**6)
            store = Store()
            store.add_statements(chain)
            self.quotes.append((store, set(expected_turtle_lines(chain))))
        self.multi, self.triple = gen.multi_edge_store(size("multi_copies", s), size("multi_background", s), seed + 2)
        k = size("blanks", s)
        self.blank_a = gen.blank_statements(k, seed + 3, 1, LocalId("p"))
        self.blank_doc = gen.write_ognq(gen.blank_statements(k, seed + 4, k + 1, LocalId("q")))
        self.blank_b = Store()
        self.blank_b.add_statements(gen.blank_statements(k, seed + 5, 2 * k + 1, LocalId("r")))
        self.blank_a_store = Store()
        self.blank_a_store.add_statements(self.blank_a)

    def round(self):
        with self.rec.timed("shapes.fwdref_load"):
            store = self.call("shapes.parse_ognq_chain", "write", parse_ognq, self.chain_doc)
        if store is not FAILED:
            expect(set(store.statements()) == set(self.chain), "reverse chain load")

        for store, lines in self.quotes:
            with self.rec.timed("shapes.deep_quote"):
                g = self.call("shapes.rdf_star_view", "read", rdf_star_view, store, max_depth=2 * len(store))
                text = FAILED if g is FAILED else self.call("shapes.serialize_turtle_star", "read", serialize_turtle_star, g)
            if text is not FAILED:
                expect(set(text.splitlines()) == lines and len(g) == len(lines), "deep quoting")

        self.multi_edge()
        self.blank_merge()

    def multi_edge(self):
        store = Store()
        store.add_statements(self.multi)
        copies = sum(1 for st in self.multi if st.content == self.triple)
        rules = MergeRules(edge_identity=EdgeIdentity.COLLAPSE_IDENTICAL_CONTENT_AND_PROPERTIES)
        with self.rec.timed("shapes.multi_edge"):
            sids = self.call("shapes.star_annotate", "write", star_annotate, store, *self.triple,
                             LocalId("by"), Literal("x"), AmbiguityPolicy.ALL)
            merged = self.call("merge.collapse_properties", "write", merge, store, Store(), rules)
            removed = self.call("shapes.rdf_delete_triple", "write", rdf_delete_triple, store, *self.triple,
                                AmbiguityPolicy.ALL)
        background = len(self.multi) - 2 * copies
        if sids is not FAILED:
            expect(len(sids) == copies, "star_annotate over the multi-edge")
        if merged is not FAILED and sids is not FAILED:
            result, report = merged
            expect(report.edges_collapsed == copies - 1 and len(result) == background + 3, "collapse with properties")
        if removed is not FAILED and sids is not FAILED:
            expect(removed == 3 * copies and len(store) == background, "rdf_delete_triple over the multi-edge")

    def blank_merge(self):
        base = Store()
        base.add_statements(self.blank_a)
        k = len(self.blank_a)
        with self.rec.timed("shapes.blank_merge"):
            parsed = self.call("shapes.parse_ognq_blanks", "write", parse_ognq, self.blank_doc, base)
            merged = self.call("merge.rename_apart", "write", merge, self.blank_a_store, self.blank_b)
        if parsed is not FAILED:
            renamed = {st.src.label for st in parsed.statements() if st.label == LocalId("q")}
            expect(len(parsed) == 2 * k and renamed == {f"b{i}_1" for i in range(k)}, "parse into a store with the labels")
        if merged is not FAILED:
            result, report = merged
            expect(report.blank_nodes_renamed == k and len(result) == 2 * k, "merge with rename_apart")


def expected_turtle_lines(chain) -> list[str]:
    """Turtle-star text of a reference chain, one line per statement."""
    lines, quoted = [], {}
    for st in chain:
        s = quoted[st.src.sid] if isinstance(st.src, SidRef) else gen.rdf_token(st.src)
        quoted[st.sid] = f"<< {s} {gen.rdf_token(st.label)} {gen.rdf_token(st.value)} >>"
        lines.append(f"{s} {gen.rdf_token(st.label)} {gen.rdf_token(st.value)} .")
    return lines


# --- cli -----------------------------------------------------------------------


def og_command(*args) -> list[str]:
    return [sys.executable, "-m", "og.cli", *map(str, args)]


class Cli(Workload):
    """A fixed script of ``og`` commands, one child process at a time."""

    sample_during = False

    def setup(self):
        n = size("cli", self.scale)
        self.dir = OUT / f"cli-{self.seed}"
        self.dir.mkdir(parents=True, exist_ok=True)
        d = self.dir
        self.records = gen.make_records(n, self.seed)
        other = gen.make_records(n, self.seed + 1, first_sid=n + 1)
        (d / "data.ognq").write_text(gen.write_ognq(self.records.statements))
        (d / "other.ognq").write_text(gen.write_ognq(other.statements))
        jsonl, self.jsonl_count = gen.write_lpg_jsonl(self.records)
        (d / "data.jsonl").write_text(jsonl)
        (d / "rules.json").write_text(json.dumps({"blank_node_policy": "rename_apart"}))
        self.other = other
        self.script = self.make_script()
        self.expected = None
        run = subprocess.run(og_command("--help"), cwd=ROOT, capture_output=True, text=True)
        expect(run.returncode == 0, "warm-up og call")

    def make_script(self):
        d, rng, recs = self.dir, random.Random(self.seed + 2), self.records
        by_sid = recs.by_sid()
        tok = gen.ognq_token
        target = by_sid[rng.choice(recs.edges)]
        annotated = by_sid[rng.choice(recs.edges)]
        a, b = rng.choice(recs.vertices), rng.choice(recs.vertices)
        self.mutations = {"target": target, "annotated": annotated, "prop_vertex": rng.choice(recs.vertices)}
        data = d / "data.ognq"
        return [
            ("load", "write", ["load", data, d / "data.jsonl", "--seed", 7, "-o", d / "loaded.ognq"]),
            *[(f"view_{k}", "read", ["view", data, "--as", k, "-o", d / f"view-{k}.txt"])
              for k in ("rdf", "rdf-reified", "rdfstar", "lpg", "dataset")],
            ("mutate_insert", "write", ["mutate", data, "--insert-triple", tok(a), 'local:"cliRel"', tok(b),
                                        "-o", d / "m.ognq"]),
            ("mutate_delete", "write", ["mutate", data, "--delete-triple", *map(tok, target.content),
                                        "-o", d / "m.ognq"]),
            ("mutate_annotate", "write", ["mutate", data, "--annotate", *map(tok, annotated.content),
                                          'local:"note"', '"x"', "-o", d / "m.ognq"]),
            ("mutate_add_edge", "write", ["mutate", data, "--add-edge", gen.vertex_id(a), gen.vertex_id(b), "cliEdge",
                                          "--property", "w=5", "-o", d / "m.ognq"]),
            ("mutate_set_property", "write", ["mutate", data, "--set-property",
                                              gen.vertex_id(self.mutations["prop_vertex"]), "name", "7",
                                              "-o", d / "m.ognq"]),
            ("stats", "read", ["stats", data]),
            ("merge", "write", ["merge", data, d / "other.ognq", "--rules", d / "rules.json", "-o", d / "merged.ognq"]),
        ]

    def round(self):
        for name, side, args in self.script:
            run = self.call("cli." + name, side, subprocess.run, og_command(*args), cwd=ROOT,
                            capture_output=True, text=True)
            if run is not FAILED:
                self.check(name, run)

    def expectations(self) -> dict:
        """Per command: the key=value lines and output line count it should give."""
        recs, sts = self.records, self.records.statements
        n = len(sts)
        by_sid = recs.by_sid()
        ground = [st for st in sts if not isinstance(st.src, SidRef)]
        default, named = oracles.dataset_placement(sts)
        hangs_off = Counter(st.src.sid for st in sts if isinstance(st.src, SidRef))
        target = self.mutations["target"]
        annotated = self.mutations["annotated"]
        v = self.mutations["prop_vertex"]
        old_names = [st for st in ground if st.src == v and st.label == LocalId("name")]
        deleted = [st.sid for st in ground if st.content == target.content]
        closure = set()
        for sid in deleted:
            closure |= oracles.cascade_closure(sts, sid)
        other_blanks = {t.label for st in self.other.statements for t in (st.src, st.value) if isinstance(t, BlankNode)}
        dropped = sum(1 for st in sts if st.label in (IN_GRAPH, gen.DEEP_KEY))
        return {
            "load": ({}, n + self.jsonl_count),
            "view_rdf": ({}, len(oracles.hide_triples(sts))),
            "view_rdf-reified": ({}, len(oracles.reify_triples(sts))),
            "view_rdfstar": ({}, len(expected_star(sts))),
            "view_lpg": ({}, len(recs.vertices) + len(recs.edges)),
            "view_dataset": ({}, 1 + len(default) + sum(1 + len(t) for t in named.values())),
            "mutate_insert": ({"affected": 1}, n + 1),
            "mutate_delete": ({"affected": len(closure)}, n - len(closure)),
            "mutate_annotate": ({"affected": sum(1 for st in ground if st.content == annotated.content)}, None),
            "mutate_add_edge": ({"affected": 2}, n + 2),
            "mutate_set_property": ({"affected": 1 + sum(1 + hangs_off[st.sid] for st in old_names)}, None),
            "stats": ({
                "statements": n,
                "ground": len(ground),
                "assertions": n - len(ground),
                "graphs": len({g for _, g in recs.memberships}),
                "lpg_vertices": len(recs.vertices),
                "lpg_edges": len(recs.edges),
                "lpg_dropped": dropped,
            }, None),
            "merge": ({
                "statements_in_a": n,
                "statements_in_b": len(self.other.statements),
                "statements_out": n + len(self.other.statements),
                "identifiers_aligned": 0,
                "blank_nodes_renamed": len(other_blanks),
                "edges_collapsed": 0,
            }, n + len(self.other.statements)),
        }

    def check(self, name: str, run):
        if self.expected is None:
            self.expected = self.expectations()
        expect(run.returncode == 0, f"og {name} exited {run.returncode}: {run.stderr.strip()}")
        pairs, lines = self.expected[name]
        got = dict(line.split("=", 1) for line in run.stdout.splitlines() if "=" in line)
        expect(got == {k: str(v) for k, v in pairs.items()}, f"og {name} printed {got}, expected {pairs}")
        if lines is not None:
            out = dict(self.script_outputs())[name]
            expect(out.read_text().count("\n") == lines, f"og {name} wrote the wrong number of lines")

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def script_outputs(self):
        for name, _, args in self.script:
            if "-o" in args:
                yield name, Path(args[args.index("-o") + 1])


WORKLOADS = {"convert": Convert, "updates": Updates, "shapes": Shapes, "cli": Cli}
