#!/usr/bin/env python3
"""Layered benchmark of og.

    python3 bench/run.py --workload convert|updates|shapes|cli --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports ``og`` from ``src/`` and the
oracles from ``tests/``, and writes only under ``bench/out/``.  It starts
itself again in a fresh interpreter with ``PYTHONHASHSEED`` pinned, so the
set and frozenset orders that the views and serializers sort, and the
points where garbage collection runs, depend only on the operation list.
Every ``og`` child process of the ``cli`` workload inherits the same value.
The worker pins itself to one CPU and scales its time metrics by a
calibration loop timed on that CPU (see spans.py).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: with ``--trace 0``
the end-to-end metrics of BENCHMARK.json, with ``--trace 1`` its per-layer
metrics.  See bench/README.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HASH_SEED = "0"
BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
#: Set-up runs this many times per run; setup_s is their median.
SETUPS = 3
#: The worker is killed after this long, so a run ends within 180 s.
TIMEOUT_S = 170


def parse_args(argv, spec):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", type=float, default=1.0,
                   help="multiply every input size (the smoke test runs at a sliver)")
    return p.parse_args(argv)


def respawn(argv) -> int:
    """Run the worker in a fresh interpreter with the pinned hash seed."""
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))  # so `finally` stops the worker
    proc = subprocess.Popen([sys.executable, str(Path(__file__).resolve()), *argv], env=env,
                            start_new_session=True)
    try:
        return proc.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"benchmark: no result within {TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def cpu_s(children: bool) -> float:
    if not children:
        return time.process_time()
    r = resource.getrusage(resource.RUSAGE_CHILDREN)
    return r.ru_utime + r.ru_stime


def timed_run(cls, args, log) -> tuple[bool, int, int, dict]:
    from spans import Recorder
    from workloads import CheckFailed

    rec = Recorder(normalize=True)
    setups, setups_raw = [], []
    for _ in range(SETUPS):
        w = cls(rec, args.seed, args.scale)
        with rec.timed("setup", "setup", cls.sample_during):
            w.setup()
        scaled, raw = rec.take_sums()
        setups.append(scaled["setup"])
        setups_raw.append(raw["setup"])
    rounds, rounds_raw = [], []
    correct = True
    children = args.workload == "cli"
    cpu0, wall0 = cpu_s(children), time.perf_counter()
    try:
        while not rounds or time.perf_counter() - wall0 < args.seconds:
            gc.collect()
            w.round()
            scaled, raw = rec.take_sums()
            rounds.append(scaled)
            rounds_raw.append(raw)
        cpu, wall = cpu_s(children) - cpu0, time.perf_counter() - wall0
        w.finish()
    except CheckFailed as e:
        print(f"benchmark: output check failed: {e}", file=sys.stderr)
        correct = False
        cpu, wall = cpu_s(children) - cpu0, time.perf_counter() - wall0
    w.close()
    if not rounds:
        raise SystemExit(1)
    log.update(setups_s=setups, setups_raw_s=setups_raw, rounds=rounds, rounds_raw=rounds_raw,
               rounds_wall_s=wall, rounds_cpu_s=cpu, samples=rec.samples)
    metrics = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(children),
        "read_s": statistics.median(r["read"] for r in rounds),
        "write_s": statistics.median(r["write"] for r in rounds),
    }
    return correct, w.attempted, w.failed, metrics


def traced_run(cls, args, log) -> tuple[bool, int, int, dict]:
    import layers
    from spans import Recorder
    from workloads import OUT, CheckFailed

    rec = Recorder(tracing=True)
    try:
        metrics, ran = layers.run(rec, args.seed, args.scale)
        metrics["trace.span_cost_us"] = layers.span_cost_us(rec)
        metrics["trace.overhead_pct"] = layers.overhead_pct(ran[args.workload], metrics["trace.span_cost_us"])
    except CheckFailed as e:
        print(f"benchmark: output check failed: {e}", file=sys.stderr)
        raise SystemExit(1)
    for w in ran.values():
        w.close()
    metrics["trace.spans"] = len(rec.spans)
    OUT.mkdir(exist_ok=True)
    rec.dump(OUT / f"spans-{args.workload}-{args.seed}.json")
    log.update(profile_sizes=layers.sizes(args.scale))
    attempted = sum(w.attempted for w in ran.values())
    failed = sum(w.failed for w in ran.values())
    return True, attempted, failed, metrics


def worker(args, spec) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(BENCH), str(ROOT / "tests")]
    from spans import pin_to_one_cpu

    pin_to_one_cpu()
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    from workloads import OUT, WORKLOADS

    log = {"workload": args.workload, "seed": args.seed, "hash_seed": HASH_SEED, "scale": args.scale}
    run = traced_run if args.trace else timed_run
    correct, attempted, failed, values = run(WORKLOADS[args.workload], args, log)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    OUT.mkdir(exist_ok=True)
    log["metrics"] = metrics
    (OUT / f"{args.workload}-{args.seed}-trace{args.trace}.json").write_text(json.dumps(log, indent=1))
    if "rounds_wall_s" in log:
        print(f"# workload={args.workload} seed={args.seed} hash_seed={HASH_SEED} rounds={len(log['rounds'])} "
              f"cpu/wall={log['rounds_cpu_s'] / log['rounds_wall_s']:.3f}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def main(argv) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(argv, spec)
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        return respawn(argv)
    return worker(args, spec)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
