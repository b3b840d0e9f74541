#!/usr/bin/env python3
"""Run one benchmark workload against the befs sources of this checkout.

    python3 perfbench/run.py --workload measure_memory --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones, measured untraced; with ``--trace 1``
they are the per-layer ones, from a traced run of a fixed number of rounds,
together with the tracing overhead against the same rounds untraced.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import json
import math
import os
import shutil
import signal
import statistics
import struct
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOAD_NAMES = ("measure_memory", "enforce_loopback", "report_log")
SETUP_REPEATS = 9
TRACE_ROUNDS = 5


def pin_to_one_cpu() -> None:
    """Keep the process, and every thread it starts later, on one CPU.

    The loopback workload hands each connection between the client and the
    harness thread; left to the scheduler, that handoff moved connects/s by
    tens of percent from one process to the next.
    """
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[-1]})


class PeakRss:
    """Highest resident set size seen while the block runs.

    A SIGALRM timer samples ``/proc/self/statm`` every few milliseconds in
    the main thread, so no extra thread competes with the program for the
    interpreter lock; ``ru_maxrss`` would not do, as it holds set-up's peak.
    """

    def __init__(self, interval_s: float = 0.005) -> None:
        self.interval_s = interval_s
        self.page = os.sysconf("SC_PAGE_SIZE")
        self.fd = os.open("/proc/self/statm", os.O_RDONLY)
        self.start = self.peak = self.now()

    def now(self) -> int:
        return int(os.pread(self.fd, 128, 0).split()[1]) * self.page

    def _sample(self, signum, frame) -> None:
        self.peak = max(self.peak, self.now())

    def __enter__(self) -> "PeakRss":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample(None, None)
        os.close(self.fd)


def release_free_memory() -> None:
    """Collect, then hand freed heap pages back, so set-up leaves no slack."""
    gc.collect()
    try:
        malloc_trim = ctypes.CDLL("libc.so.6").malloc_trim
    except (OSError, AttributeError):
        return
    malloc_trim.argtypes = [ctypes.c_size_t]
    malloc_trim.restype = ctypes.c_int
    malloc_trim(0)


# The reference mix: a fixed piece of pure-Python work of the kinds befs
# does (integer arithmetic, JSON round trips of small dicts, packing bytes
# into frozen dataclasses). A shared host can change speed by tens of percent
# from minute to minute, and the befs operations slow with it, so every time
# the benchmark reports is scaled by REFERENCE_S over the mean of the mix's
# time just before and just after: the figures read as if the mix took 4 ms.
REFERENCE_S = 0.004
_ROWS = [{"id": i, "name": "srv-%04d" % i, "suites": list(range(i % 7, i % 7 + 6)),
          "ok": i % 3 == 0} for i in range(150)]


@dataclass(frozen=True)
class _Packed:
    index: int
    raw: bytes
    head: tuple


def _reference_mix() -> int:
    total = 0
    for i in range(30000):
        total += i * i % 7
    for row in json.loads(json.dumps(_ROWS, sort_keys=True)):
        total += sum(row["suites"]) + len(row["name"])
    for i in range(600):
        raw = struct.pack(">HH", i, i * 3) + b"x" * (i % 9)
        packed = _Packed(i, raw, tuple(raw[:4]))
        total += len({"index": packed.index, "n": len(packed.raw), "s": set(packed.head)})
    return total


def reference_seconds() -> float:
    """Median of three timings of the reference mix, in seconds."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        _reference_mix()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def set_up(args, workdir: Path, repeats: int, quiet=contextlib.nullcontext):
    """Build the workload ``repeats`` times; keep the last, time each.

    Returns the workload and each set-up's wall seconds with the mean of the
    reference timed before and after it.
    """
    from workloads import WORKLOADS

    times = []
    workload = None
    for _ in range(repeats):
        if workload is not None:
            workload.close()
        workload = WORKLOADS[args.workload](args.seed, workdir, quiet=quiet)
        before = reference_seconds()
        start = time.perf_counter()
        workload.set_up()
        elapsed = time.perf_counter() - start
        times.append((elapsed, (before + reference_seconds()) / 2))
    return workload, times


def end_to_end(args, workdir: Path) -> tuple[dict, int, int, list[str]]:
    workload, setups = set_up(args, workdir, SETUP_REPEATS)
    try:
        workload.run_round()  # warm-up: lazy imports, caches, file handles
        # Objects kept from set-up are frozen so the collector does not walk
        # them again on every full collection inside the timed part.
        release_free_memory()
        gc.freeze()
        # Per-round figures only, so the benchmark's own bookkeeping does not
        # grow with the number of operations and show in peak_rss_mb.
        rounds = []  # (items/s, p50, p99, {label: p50}), unscaled
        references = [reference_seconds()]
        operations = attempted = failed = 0
        with PeakRss() as rss:
            start = time.perf_counter()
            while True:
                done = workload.run_round()
                references.append(reference_seconds())
                ordered = sorted(done.durations)
                by_label = {}
                for label, d in zip(done.labels, done.durations):
                    by_label.setdefault(label, []).append(d)
                rounds.append((
                    done.items / sum(ordered),
                    statistics.median(ordered),
                    ordered[math.ceil(0.99 * len(ordered)) - 1],  # nearest rank
                    {label: statistics.median(v) for label, v in by_label.items()},
                ))
                operations += len(ordered)
                attempted += done.attempted
                failed += done.failed
                if time.perf_counter() - start >= args.seconds:
                    break
    finally:
        workload.close()
    # Each round is scaled by the mean of the reference timed before and after it.
    scales = [2 * REFERENCE_S / (a + b) for a, b in zip(references, references[1:])]
    round_rates = [rate / scale for (rate, *_), scale in zip(rounds, scales)]
    round_p50s = [p50 * scale for (_, p50, *_), scale in zip(rounds, scales)]
    round_p99s = [p99 * scale for (_, _, p99, _), scale in zip(rounds, scales)]
    label_p50s: dict[str, list[float]] = {}
    for (*_, labels), scale in zip(rounds, scales):
        for label, p50 in labels.items():
            label_p50s.setdefault(label, []).append(p50 * scale)
    setup_scaled = [t * REFERENCE_S / reference for t, reference in setups]
    metrics = {
        "setup_s": (statistics.median(setup_scaled), "s"),
        "items_per_s": (statistics.median(round_rates), "1/s"),
        "op_p50_ms": (1e3 * statistics.median(round_p50s), "ms"),
        "op_p99_ms": (1e3 * statistics.median(round_p99s), "ms"),
        "peak_rss_mb": (rss.peak / 1e6, "MB"),
    }
    per_round = operations // len(round_rates)
    notes = workload.notes + [
        "rounds %d of %d operations" % (len(round_rates), per_round),
        "reference mix median %.4f ms (times below and above are scaled to %.1f ms)" % (
            1e3 * statistics.median(references), 1e3 * REFERENCE_S),
        "unscaled: setup_s %.4f, items_per_s %.2f" % (
            statistics.median(t for t, _ in setups), statistics.median(r[0] for r in rounds)),
        "setup_s runs %s" % " ".join("%.4f" % t for t in setup_scaled),
        "rss_growth_mb %.3f (peak %.3f MB over %.3f MB at the start of the timed part)" % (
            (rss.peak - rss.start) / 1e6, rss.peak / 1e6, rss.start / 1e6),
    ]
    for label, values in label_p50s.items():
        notes.append("%s p50_ms %.4f (median over rounds)" % (label, 1e3 * statistics.median(values)))
    return metrics, attempted, failed, notes


def per_layer(args, workdir: Path) -> tuple[dict, int, int, list[str]]:
    from spans import Tracer, layer_metrics

    tracer = Tracer()
    tracer.install()
    try:
        workload, _ = set_up(args, workdir, 1, quiet=tracer.paused)
    finally:
        tracer.uninstall()
    try:
        workload.run_round()  # warm-up, untraced
        release_free_memory()
        gc.freeze()
        pairs = []  # (untraced, traced) scaled seconds
        references = [reference_seconds()]
        attempted = failed = 0
        # Untraced and traced rounds alternate, so a drift in the host's
        # speed falls on both alike.
        for _ in range(TRACE_ROUNDS):
            pair = []
            for traced in (False, True):
                if traced:
                    tracer.install()
                try:
                    done = workload.run_round()
                finally:
                    if traced:
                        tracer.uninstall()
                references.append(reference_seconds())
                scale = 2 * REFERENCE_S / (references[-2] + references[-1])
                pair.append(sum(done.durations) * scale)
                attempted += done.attempted
                failed += done.failed
            pairs.append(pair)
    finally:
        workload.close()
    overhead = 100.0 * statistics.median(t / u - 1.0 for u, t in pairs)
    path = OUT / ("spans-%s-s%d.tsv" % (args.workload, args.seed))
    tracer.write(path)
    metrics = layer_metrics(tracer.spans, overhead, statistics.median(references))
    notes = ["%d spans written to %s" % (len(tracer.spans), path.relative_to(ROOT)),
             "tracing overhead %.1f%% (median of %d pairs; %.4f s traced vs %.4f s untraced)"
             % (overhead, len(pairs), sum(t for _, t in pairs), sum(u for u, _ in pairs))]
    return metrics, attempted, failed, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "befs" / "__init__.py").is_file():
        print("perfbench: no befs sources at %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    pin_to_one_cpu()
    OUT.mkdir(exist_ok=True)
    workdir = OUT / ("%s-s%d-p%d" % (args.workload, args.seed, os.getpid()))
    workdir.mkdir()
    try:
        measure = per_layer if args.trace else end_to_end
        metrics, attempted, failed, notes = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for note in notes:
        print(note)
    for name, (value, unit) in metrics.items():
        print("%-48s %14.6f %s" % (name, value, unit))
    print(json.dumps({
        "correct": attempted > 0 and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
