"""Smoke test of the benchmark: every workload, timed and traced, at a sliver
of its size.  Run it from the root of a checkout with

    python3 -m pytest bench/test_smoke.py      or      python3 bench/test_smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCALE = "0.02"


def run_bench(workload: str, trace: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "0.5", "--trace", str(trace), "--scale", SCALE]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_every_workload_and_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            result = run_bench(w["name"], trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
            assert set(result["metrics"]) == {m["name"] for m in spec[kind]}
            for m in spec[kind]:
                assert result["metrics"][m["name"]]["unit"] == m["unit"]
            if trace == 0:
                assert all(v["value"] > 0 for v in result["metrics"].values())


if __name__ == "__main__":
    test_every_workload_and_metric()
    print("ok")
