"""The traced run: per-layer figures from spans around each call into a layer.

Every workload's traced run measures the same layer profile: one round of
``convert`` and enough rounds of ``updates`` to give each update class at
least 100 samples (both at 10k statements), one round of ``shapes`` and of
``cli``, and a few probes of single store, view and lexer calls.  The
workload named on the command line only chooses whose rounds the tracing
overhead is reported for: the extra time of one span against an untraced
call, times the spans of those rounds, over their timed seconds.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
import tracemalloc

import gen
from og import LocalId, Store, parse_term_text
from og.views import _analyze
from workloads import Cli, Convert, Shapes, Updates, size

#: Profile sizes relative to the timed runs: convert and updates at 10k.
SCALES = {"convert": 0.2, "updates": 0.2, "shapes": 1.0, "cli": 1.0}
UPDATE_SAMPLES = 100
RDF_CLASS = ("update.rdf_insert_triple", "update.star_annotate", "update.rdf_delete_triple")
LPG_CLASS = ("update.lpg_add_edge", "update.lpg_set_property_vertex", "update.lpg_set_property_edge")
PROBES = 1000


def sizes(scale: float) -> dict:
    return {
        "convert": size("convert", scale * SCALES["convert"]),
        "updates": size("updates", scale * SCALES["updates"]),
        "cli": size("cli", scale * SCALES["cli"]),
    }


def run(rec, seed: int, scale: float):
    """Run the profile; returns (metrics, {workload: instance})."""
    ran = {}
    for name, cls in (("convert", Convert), ("updates", Updates), ("shapes", Shapes), ("cli", Cli)):
        w = cls(rec, seed, scale * SCALES[name])
        w.setup()
        rec.take_sums()
        w.traced_rounds = []  # (spans, timed seconds) per round
        while True:
            spans = len(rec.spans)
            w.round()
            w.traced_rounds.append((len(rec.spans) - spans, sum(rec.take_sums()[0].values())))
            counts = [sum(len(rec.samples.get(k, ())) for k in names) for names in (RDF_CLASS, LPG_CLASS)]
            if name != "updates" or min(counts) >= UPDATE_SAMPLES * scale:
                break
        ran[name] = w
    probe_store(rec, ran["convert"].records)
    probe_cli_startup(rec)
    return metrics(rec, ran), ran


def probe_store(rec, records) -> None:
    sts = records.statements
    for _ in range(3):
        with rec.timed("store.add_statements"):
            Store().add_statements(sts)
    store = Store(seed=len(sts))
    store.add_statements(sts)
    for _ in range(5):
        with rec.timed("store.statements"):
            store.statements()
        with rec.timed("store.list_graphs"):
            store.list_graphs()
    for _ in range(3):
        with rec.timed("views.analyze"):
            _analyze(store)
    contents = [st.content for st in sts[:PROBES]]
    with rec.timed("store.sids_by_content_x1000"):
        for c in contents:
            store.sids_by_content(*c)
    fresh = [(st.src, LocalId(f"probe{i}"), st.src) for i, st in enumerate(sts[:PROBES])
             if not hasattr(st.src, "sid")]
    with rec.timed("store.insert_ground_x1000"):
        for c in fresh:
            store.insert_ground(*c)
    rec.probe_sizes = {"sids_by_content": len(contents), "insert_ground": len(fresh)}
    tokens = [gen.ognq_token(t) for st in sts[:PROBES] for t in (st.src, st.label, st.value)]
    tokens += [f"<urn:og:sid:{st.sid}>" for st in sts[:PROBES]]
    rec.probe_sizes["lex"] = len(tokens)
    with rec.timed("formats.lex_tokens"):
        for t in tokens:
            parse_term_text(t)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        held = Store()
        held.add_statements(sts)
        rec.bytes_per_stmt = (tracemalloc.get_traced_memory()[0] - before) / len(sts)
    finally:
        tracemalloc.stop()


def probe_cli_startup(rec) -> None:
    for _ in range(5):
        with rec.timed("cli.startup"):
            subprocess.run([sys.executable, "-c", "import og.cli"], check=True)


def p90(values) -> float:
    return statistics.quantiles(values, n=10)[8]


def metrics(rec, ran) -> dict:
    own = rec.self_times()

    def ms(name):
        return statistics.median(own[name]) * 1e3

    def total_ms(name):
        return statistics.median(rec.samples[name]) * 1e3

    def pooled(names):
        return [v * 1e3 for n in names for v in rec.samples[n]]

    conv, upd = ran["convert"], ran["updates"]
    out = conv.outputs
    m = {f"formats.{k}_ms": ms(f"formats.{k}") for k in (
        "parse_ognq", "parse_ntriples", "parse_turtle_star", "parse_lpg_jsonl",
        "serialize_ognq", "serialize_ntriples", "serialize_turtle_star", "serialize_lpg_jsonl")}
    m.update({f"views.{k}_ms": ms(f"views.{k}") for k in (
        "analyze", "rdf_view", "rdf_view_reify", "rdf_star_view", "lpg_view", "dataset_view")})
    parse_s = sum(rec.samples[f"formats.parse_{k}"][0] for k in ("ognq", "ntriples", "turtle_star", "lpg_jsonl"))
    export_s = sum(rec.samples[f"export.{k}"][0] for k in ("rdf", "rdf_reify", "rdf_star", "lpg", "dataset", "ognq"))
    m["convert.load_stmts_per_s"] = conv.installed / parse_s
    m["convert.export_stmts_per_s"] = len(conv.records.statements) * 6 / export_s
    m.update({
        "views.rdf_triples": len(out["rdf"][0]),
        "views.rdf_reified_triples": len(out["rdf_reify"][0]),
        "views.rdfstar_triples": len(out["rdf_star"][0]),
        "views.lpg_vertices": len(out["lpg"][0].vertices),
        "views.lpg_edges": len(out["lpg"][0].edges),
        "views.lpg_dropped": out["lpg"][0].dropped,
        "views.named_graphs": len(out["dataset"][0].named),
    })
    m.update({
        "store.add_statements_ms": ms("store.add_statements"),
        "store.insert_ground_us": ms("store.insert_ground_x1000") * 1e3 / rec.probe_sizes["insert_ground"],
        "store.statements_ms": ms("store.statements"),
        "store.match_src_ms": ms("store.match_src"),
        "store.match_label_ms": ms("store.match_label"),
        "store.list_graphs_ms": ms("store.list_graphs"),
        "store.sids_by_content_us": ms("store.sids_by_content_x1000") * 1e3 / rec.probe_sizes["sids_by_content"],
        "store.bytes_per_stmt": rec.bytes_per_stmt,
        "formats.lex_term_us": ms("formats.lex_tokens") * 1e3 / rec.probe_sizes["lex"],
    })
    m.update({n + "_ms": ms(n) for n in RDF_CLASS + LPG_CLASS})
    rdf, lpg = pooled(RDF_CLASS), pooled(LPG_CLASS)
    m.update({
        "update.rdf_p50_ms": statistics.median(rdf),
        "update.rdf_p90_ms": p90(rdf),
        "update.lpg_p50_ms": statistics.median(lpg),
        "update.lpg_p90_ms": p90(lpg),
        "update.samples_per_class": min(len(rdf), len(lpg)),
        "update.statements_affected": upd.affected,
        "merge.rename_apart_ms": ms("merge.rename_apart"),
        "merge.collapse_properties_ms": ms("merge.collapse_properties"),
    })
    m.update({f"shapes.{k}_ms": total_ms(f"shapes.{k}") for k in ("fwdref_load", "deep_quote", "multi_edge", "blank_merge")})
    m.update({
        "cli.startup_ms": ms("cli.startup"),
        "cli.load_ms": ms("cli.load"),
        "cli.view_ms": statistics.median(pooled([f"cli.view_{k}" for k in ("rdf", "rdf-reified", "rdfstar", "lpg", "dataset")])),
        "cli.mutate_ms": statistics.median(pooled([f"cli.mutate_{k}" for k in ("insert", "delete", "annotate", "add_edge", "set_property")])),
        "cli.stats_ms": ms("cli.stats"),
        "cli.merge_ms": ms("cli.merge"),
    })
    return m


def overhead_pct(w, span_cost_us: float) -> float:
    """Percent that span bookkeeping adds to the timed calls of a workload's
    traced rounds.  A traced round timed against an untraced one measures the
    host's drift instead (see README), so the cost per span is taken from
    many empty calls and multiplied out."""
    spans = sum(n for n, _ in w.traced_rounds)
    seconds = sum(s for _, s in w.traced_rounds)
    return spans * span_cost_us * 1e-6 / seconds * 100


def span_cost_us(rec, n: int = 10_000) -> float:
    """Microseconds one span adds to a timed call, from ``n`` empty calls each way."""
    spans = len(rec.spans)
    cost = {}
    for tracing in (False, True):
        rec.tracing = tracing
        start = time.perf_counter()
        for _ in range(n):
            with rec.timed("trace.empty"):
                pass
        cost[tracing] = time.perf_counter() - start
    rec.tracing = True
    del rec.spans[spans:]
    del rec.samples["trace.empty"]
    return (cost[True] - cost[False]) / n * 1e6
