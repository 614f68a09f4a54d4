"""Timing of calls into the program: host-speed normalization and spans.

Every timed call goes through :meth:`Recorder.timed`, which adds the call's
time to per-name samples and, for an operation, to its round's ``read`` or
``write`` sum.

The host this benchmark was written on is a shared 2-vCPU virtual machine
whose speed drifts by up to a third over seconds to tens of seconds, on each
vCPU on its own (two busy loops on the two vCPUs do not slow down together).
So the timed runs pin themselves to one CPU and time a fixed calibration
loop on it: four times before and four times after each operation, and every
``TICK_S`` seconds while it runs (from a timer signal; not for child
processes, which share the CPU).  The operation's time, less the ticks
inside it, is scaled by ``K_REF_S`` over the mean calibration time, so each
figure reads in seconds of a host where one calibration loop takes
``K_REF_S``.  Raw times are kept beside the scaled ones.

A traced run keeps a span (name, start, end, parent) for every timed call,
in memory, and writes the spans out once the run is over.  It does not
calibrate, so its figures are raw, and the span bookkeeping falls inside
each call's measured time; empty calls timed with and without a span give
the cost of one span.  The spans sit at the benchmark's own call sites,
so a span's self time is its duration minus the spans nested in it, and
nothing inside the program is instrumented.
"""

from __future__ import annotations

import gc
import json
import os
import signal
import statistics
import time
from contextlib import contextmanager

#: Seconds one calibration loop takes on the reference host, fast state.
K_REF_S = 0.0006
TICK_S = 0.01
EDGE_LOOPS = 4


def calibration_loop() -> float:
    """Seconds of a fixed slice of pure-Python dict, tuple and str work,
    timed with garbage collection off so the program's heap cannot reach it."""
    was_enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    d: dict = {}
    for i in range(1500):
        k = (i % 97, str(i % 13))
        d[k] = d.get(k, 0) + 1
    elapsed = time.perf_counter() - start
    if was_enabled:
        gc.enable()
    return elapsed


def pin_to_one_cpu() -> None:
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class Recorder:
    def __init__(self, tracing: bool = False, normalize: bool = False):
        self.tracing = tracing
        self.normalize = normalize
        self.sums: dict[str, float] = {}
        self.raw_sums: dict[str, float] = {}
        self.samples: dict[str, list[float]] = {}
        self.spans: list[tuple[str, float, float, int]] = []
        self._open: list[int] = []
        self._ticks: list[float] = []
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame) -> None:
        self._ticks.append(calibration_loop())

    @contextmanager
    def timed(self, name: str, side: str | None = None, sample_during: bool = True):
        """Time the body.  An operation names the per-round sum (``side``) it
        counts towards; ``sample_during`` is false for calls that wait on a
        child process on the same CPU."""
        calibrate = self.normalize and side is not None
        if calibrate:
            loops = [calibration_loop() for _ in range(EDGE_LOOPS)]
            self._ticks = []
            if sample_during:
                signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        start = time.perf_counter()
        if self.tracing:
            index = len(self.spans)
            self.spans.append((name, start, 0.0, self._open[-1] if self._open else -1))
            self._open.append(index)
        try:
            yield
        finally:
            if calibrate:
                signal.setitimer(signal.ITIMER_REAL, 0)
            if self.tracing:
                self._open.pop()
                self.spans[index] = (name, start, time.perf_counter(), self.spans[index][3])
            elapsed = time.perf_counter() - start
            raw = elapsed
            if calibrate:
                ticks = self._ticks
                loops += ticks + [calibration_loop() for _ in range(EDGE_LOOPS)]
                raw = elapsed - sum(ticks)
                elapsed = raw * K_REF_S / statistics.fmean(loops)
            self.samples.setdefault(name, []).append(elapsed)
            if side is not None:
                self.sums[side] = self.sums.get(side, 0.0) + elapsed
                self.raw_sums[side] = self.raw_sums.get(side, 0.0) + raw

    def take_sums(self) -> tuple[dict[str, float], dict[str, float]]:
        """The scaled and the raw sums since the last call."""
        out = (self.sums, self.raw_sums)
        self.sums, self.raw_sums = {}, {}
        return out

    def self_times(self) -> dict[str, list[float]]:
        """Seconds of self time per span name, one entry per span."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list[float]] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            out.setdefault(name, []).append(end - start - child[i])
        return out

    def dump(self, path) -> None:
        rows = [{"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans]
        path.write_text(json.dumps(rows))
