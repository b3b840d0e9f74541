#!/usr/bin/env python3
"""Adversary-model sweep for the fallback policies.

For each man-in-the-middle or colluding-server model, runs the BEFS
client across an FS-capable fleet and reports how often the adversary
wins (silent downgrade), is stopped by the user gate, or is exposed by
the fallback signal.
"""

import argparse
import functools
import sys

from befs import wire
from befs.client import (
    ALWAYS_ABORT,
    FallbackStyle,
    PolicyConfig,
    PolicyMode,
    SessionStatus,
    connect,
)
from befs.fleetsim import (
    ActiveDropper,
    Archetype,
    DiscriminatoryServer,
    FleetSpec,
    Transport,
    generate_fleet,
    serve,
)
from befs.handshake import AttemptKind, handshake_attempt
from befs.suites import DEFAULT, FALLBACK_SIGNAL


def fs_capable_fleet(size: int, seed: int):
    return generate_fleet(
        FleetSpec(
            size=size,
            seed=seed,
            mix={
                Archetype.FS_PREFERRING: 0.5,
                Archetype.FS_SUPPORTING_NONFS_PREFERRING: 0.5,
            },
        )
    )


def rate(label: str, hits: int, total: int) -> None:
    print("%-56s %3d/%3d (%.1f%%)" % (label, hits, total, 100.0 * hits / total))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--size", type=int, default=40)
    parser.add_argument("--seed", type=int, default=9)
    parser.add_argument("--timeout", type=float, default=0.05)
    args = parser.parse_args()

    def run_all(fleet, adversary, style, user=None):
        outcomes = []
        with serve(fleet, Transport.IN_MEMORY, adversary=adversary) as harness:
            cfg = PolicyConfig(mode=PolicyMode.BEFS, fallback=style, timeout_s=args.timeout)
            for address in harness.addresses:
                kw = {} if user is None else {"user": user}
                outcomes.append(
                    connect(address, cfg, connector=harness.connector(), **kw)
                )
        return outcomes

    # a dropper erases FS-only offers; silent clients land on non-FS
    fleet = generate_fleet(
        FleetSpec(size=args.size, seed=args.seed,
                  mix={Archetype.FS_SUPPORTING_NONFS_PREFERRING: 1.0})
    )
    outs = run_all(fleet, ActiveDropper, FallbackStyle.SILENT)
    rate("dropper + silent: downgraded to non-FS",
         sum(o.connected and not o.fs for o in outs), len(outs))
    outs = run_all(fleet, ActiveDropper, FallbackStyle.INTERACTIVE, user=ALWAYS_ABORT)
    rate("dropper + interactive(abort): connections refused",
         sum(o.status is SessionStatus.ABORTED_BY_USER for o in outs), len(outs))

    # weak discrimination reorders but honors the offer, so BEFS holds
    outs = run_all(fs_capable_fleet(args.size, args.seed + 1), DiscriminatoryServer,
                   FallbackStyle.SILENT)
    rate("weak discriminator + BEFS: still forward secure",
         sum(o.connected and o.fs for o in outs), len(outs))

    # strong discrimination rejects FS-only offers outright; downgrade
    # needs servers that have a non-FS suite to be steered onto
    strong = functools.partial(DiscriminatoryServer, strong=True)
    steerable = generate_fleet(
        FleetSpec(size=args.size, seed=args.seed + 2,
                  mix={Archetype.FS_SUPPORTING_NONFS_PREFERRING: 1.0})
    )
    outs = run_all(steerable, strong, FallbackStyle.SILENT)
    rate("strong discriminator + silent: downgraded to non-FS",
         sum(o.connected and not o.fs for o in outs), len(outs))
    outs = run_all(fs_capable_fleet(args.size, args.seed + 2), strong,
                   FallbackStyle.INTERACTIVE, user=ALWAYS_ABORT)
    rate("strong discriminator + interactive(abort): refused",
         sum(o.status is SessionStatus.ABORTED_BY_USER for o in outs), len(outs))

    # honest FS servers refuse any offer carrying the fallback signal
    fleet = fs_capable_fleet(args.size, args.seed + 3)
    with serve(fleet, Transport.IN_MEMORY) as harness:
        refused = 0
        for address in harness.addresses:
            attempt = handshake_attempt(
                harness.connector(), address, DEFAULT.suites + (FALLBACK_SIGNAL,), args.timeout
            )
            refused += (
                attempt.kind is AttemptKind.REJECTED
                and attempt.alert is not None
                and attempt.alert.description == wire.INAPPROPRIATE_FALLBACK
            )
    rate("signaled fallback refused by honest FS servers", refused, len(fleet))
    return 0


if __name__ == "__main__":
    sys.exit(main())
