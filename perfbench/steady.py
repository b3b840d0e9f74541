#!/usr/bin/env python3
"""Check that the benchmark repeats: two sets of runs per workload.

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --runs 5 --workloads enforce_loopback

Each run is a fresh process of ``run.py`` with its own seed; the first set
uses seeds 1..N and the second 101..100+N. For every metric the command
prints both sets' quartiles, the spread (interquartile distance over the
median) and whether the sets agree within the bound in ``BENCHMARK.json``:
each spread within the bound, and the second median within the bound of the
first, either way. Every run must also report ``correct`` with no failed
operation. It exits 1 if any check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SECOND_SET_SEED = 101


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise SystemExit("%s seed %d exited %d:\n%s" % (workload, seed, done.returncode, done.stderr))
    return json.loads(done.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> tuple[float, float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3, (q3 - q1) / median if median else float("inf")


def compare(sets: list[list[dict]], metrics: dict[str, dict]) -> tuple[list[str], bool]:
    """Report lines for two sets of results of one workload, and whether they agree."""
    lines = ["%-14s %-6s %12s %12s %12s %8s %6s %s" % (
        "metric", "set", "q1", "median", "q3", "spread", "bound", "verdict")]
    ok = True
    for name, meta in metrics.items():
        bound = meta["bound"]
        rows = [summary([r["metrics"][name]["value"] for r in runs]) for runs in sets]
        for label, (q1, median, q3, spread) in zip(("first", "second"), rows):
            steady = spread <= bound
            ok = ok and steady
            lines.append("%-14s %-6s %12.5g %12.5g %12.5g %8.4f %6.2f %s" % (
                name, label, q1, median, q3, spread, bound,
                "steady" if steady else "SPREAD ABOVE BOUND"))
        change = rows[1][1] / rows[0][1] - 1.0
        agree = abs(change) <= bound
        ok = ok and agree
        lines.append("%-14s second median is %+.2f%% off the first: %s" % (
            name, 100 * change, "agrees" if agree else "DISAGREES"))
    runs = sets[0] + sets[1]
    clean = all(r["correct"] and r["failed"] == 0 for r in runs)
    ok = ok and clean
    lines.append("operations: %d attempted, %d failed, %s" % (
        sum(r["attempted"] for r in runs), sum(r["failed"] for r in runs),
        "every run correct" if clean else "NOT CORRECT"))
    return lines, ok


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    results: dict[str, list[list[dict]]] = {}
    ok = True
    for workload in args.workloads.split(","):
        sets = []
        for first_seed in (1, SECOND_SET_SEED):
            runs = []
            for seed in range(first_seed, first_seed + args.runs):
                start = time.perf_counter()
                runs.append(run_once(workload, seed, args.seconds, 0))
                print("%s seed %d: %.1f s" % (workload, seed, time.perf_counter() - start),
                      file=sys.stderr)
            sets.append(runs)
        results[workload] = sets
        lines, agree = compare(sets, metrics)
        print("\n%s (%d runs per set)" % (workload, args.runs))
        print("\n".join(lines))
        ok = ok and agree
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / ("steady-%d.json" % time.time())
    path.write_text(json.dumps(results), encoding="utf-8")
    print("\nraw results in %s; %s" % (path.relative_to(ROOT), "all steady" if ok else "NOT STEADY"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
