#!/usr/bin/env python3
"""Handshake-latency comparison of the three client modes.

Runs the bench against a fleet of servers that only speak non-FS suites,
so every mode walks its full ladder: 1, 2, and 3 attempts. A fixed
injected delay per handshake makes the attempt counts visible in wall
time. Also times the parallel variant, which should track the
single-attempt mode rather than the ladder depth.
"""

import argparse
import statistics
import sys
import time

from befs.client import PolicyConfig, PolicyMode, connect, latency_bench
from befs.fleetsim import Archetype, FleetSpec, LatencyModel, Transport, generate_fleet, serve


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--servers", type=int, default=20)
    parser.add_argument("--repetitions", type=int, default=5)
    parser.add_argument("--latency-ms", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--timeout", type=float, default=2.0)
    args = parser.parse_args()

    fleet = generate_fleet(
        FleetSpec(size=args.servers, seed=args.seed, mix={Archetype.NONFS_ONLY: 1.0})
    )
    latency = LatencyModel(base_ms=args.latency_ms)
    with serve(fleet, Transport.IN_MEMORY, latency=latency) as harness:
        report = latency_bench(
            harness.addresses,
            repetitions=args.repetitions,
            connector=harness.connector(),
            timeout_s=args.timeout,
        )
        parallel_walls = {}
        for mode in (PolicyMode.BEFS, PolicyMode.BESAFE):
            cfg = PolicyConfig(mode=mode, parallel=True, timeout_s=args.timeout)
            walls = []
            for address in harness.addresses:
                for _ in range(args.repetitions):
                    start = time.perf_counter()
                    outcome = connect(address, cfg, connector=harness.connector())
                    walls.append(time.perf_counter() - start)
                    assert outcome.connected
            parallel_walls[mode] = statistics.mean(walls)

    print("%-10s %8s %10s %10s %10s %9s"
          % ("mode", "samples", "max_ms", "min_ms", "avg_ms", "attempts"))
    for mode, stats in report.per_mode.items():
        print("%-10s %8d %10.3f %10.3f %10.3f %9.2f"
              % (mode.name, stats.samples, stats.max_s * 1e3, stats.min_s * 1e3,
                 stats.avg_s * 1e3, stats.attempts_avg))
    base = report.per_mode[PolicyMode.DEFAULT].avg_s
    for mode, stats in report.per_mode.items():
        print("%s/DEFAULT avg ratio: %.2f" % (mode.name, stats.avg_s / base))
    for mode, wall in parallel_walls.items():
        print("parallel %-7s avg %.3f ms (%.2fx DEFAULT)"
              % (mode.name, wall * 1e3, wall / base))
    return 0


if __name__ == "__main__":
    sys.exit(main())
