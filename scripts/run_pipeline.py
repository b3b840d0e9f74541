#!/usr/bin/env python3
"""Full measurement pipeline against a simulated fleet.

Generates a fleet covering every archetype, scans it, inspects the
non-FS selectors, prints the aggregate table, and cross-checks every
classification against the fleet's own ground truth.
"""

import argparse
import sys

from befs.fleetsim import (
    Archetype,
    FleetSpec,
    LatencyModel,
    Transport,
    expected_for_server,
    generate_fleet,
    serve,
)
from befs.inspection import inspect_all, scan
from befs.report import (
    RecordStore,
    aggregate,
    inspection_record_to_dict,
    render_text,
    scan_record_to_dict,
)

FULL_MIX = {a: 1 / 6 for a in Archetype}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--size", type=int, default=180)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--transport", choices=("memory", "socket"), default="memory")
    parser.add_argument("--timeout", type=float, default=0.3)
    parser.add_argument("--concurrency", type=int, default=32)
    parser.add_argument("--store", help="also append records to this log")
    parser.add_argument("--campaign", default="pipeline")
    args = parser.parse_args()

    spec = FleetSpec(size=args.size, seed=args.seed, mix=FULL_MIX)
    fleet = generate_fleet(spec)
    transport = Transport.IN_MEMORY if args.transport == "memory" else Transport.LOOPBACK_SOCKET
    with serve(fleet, transport, latency=LatencyModel()) as harness:
        by_address = {server.address: server for server in fleet}
        scanned = scan(
            harness.addresses,
            timeout_s=args.timeout,
            concurrency=args.concurrency,
            connector=harness.connector(),
            seed=args.seed,
        )
        inspections = inspect_all(
            scanned,
            args.timeout,
            args.concurrency,
            connector=harness.connector(),
            seed=args.seed,
        )

    if args.store:
        with RecordStore(args.store) as store:
            for rec in scanned:
                store.append(scan_record_to_dict(rec, campaign=args.campaign))
            for rec in inspections:
                store.append(inspection_record_to_dict(rec, campaign=args.campaign))

    mismatches = 0
    for rec in inspections:
        want = expected_for_server(by_address[rec.address])
        got = (rec.classification, rec.prior_suite_ae, rec.lose_ae)
        expected = (want.classification, want.prior_suite_ae, want.lose_ae)
        if got != expected:
            mismatches += 1
            print("MISMATCH %s: got %s want %s" % (rec.address, got, expected))

    print(render_text(aggregate(scanned, inspections, campaign=args.campaign)))
    print("servers: %d  scanned: %d  inspected: %d  misclassified: %d"
          % (len(fleet), len(scanned), len(inspections), mismatches))
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
