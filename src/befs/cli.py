"""Command-line front end.

Subcommands: scan, inspect, connect, bench, fleet, report. Machine
output (JSON, one object per line where record-shaped) goes to stdout;
tables and diagnostics go to stderr, so pipelines can consume stdout
unfiltered.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import signal
import sys
import threading
from contextlib import contextmanager, nullcontext

from .client import (
    ALWAYS_PROCEED,
    FallbackStyle,
    PolicyConfig,
    PolicyMode,
    SessionStatus,
    connect,
    latency_bench,
)
from .fleetsim import (
    BindFailure,
    InvalidSpec,
    Transport,
    archetype_counts,
    generate_fleet,
    load_fleet_spec,
    serve,
    truth_records,
)
from .handshake import TcpConnector
from .inspection import inspect_all, scan
from .metadata import (
    EmptyDataset,
    IoFailure,
    device_type,
    load_addresses,
    parse_address,
    split_address,
)
from .report import (
    RecordStore,
    SchemaMismatch,
    aggregate,
    inspection_record_to_dict,
    render_text,
    scan_record_to_dict,
    scans_and_inspections,
    session_record_to_dict,
)

_USER_ERRORS = (InvalidSpec, IoFailure, EmptyDataset, BindFailure, SchemaMismatch)


def _emit(data: dict) -> None:
    sys.stdout.write(json.dumps(data, sort_keys=True) + "\n")


def _note(text: str) -> None:
    sys.stderr.write(text + "\n")


class TerminalDecisions:
    """Asks fallback questions on the controlling terminal."""

    def approve_fallback(self, description: str) -> bool:
        sys.stderr.write(description + " [y/N] ")
        sys.stderr.flush()
        try:
            answer = input()
        except EOFError:
            return False
        return answer.strip().lower() in ("y", "yes")


# -- argument plumbing ---------------------------------------------------------


def _at_least_one(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1, got %d" % value)
    return value


def _positive(text: str) -> float:
    value = float(text)
    if not 0 < value < math.inf:  # false for NaN too
        raise argparse.ArgumentTypeError("must be positive and finite, got %s" % text)
    return value


def _add_source_options(p: argparse.ArgumentParser) -> None:
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--input", help="address file, one host[:port] or IPv4[:port] per line")
    group.add_argument("--fleet-spec", help="serve a simulated fleet in-process and target it")
    p.add_argument(
        "--transport",
        choices=("memory", "socket"),
        default="memory",
        help="fleet transport for --fleet-spec runs; --input always dials real TCP",
    )


def _add_handshake_options(p: argparse.ArgumentParser, concurrency: bool = True) -> None:
    p.add_argument("--timeout", type=_positive, default=5.0, help="per-connection timeout, seconds")
    if concurrency:
        p.add_argument(
            "--concurrency", type=_at_least_one, default=50,
            help="workers, the calling thread included; at most this many handshakes in flight",
        )
        p.add_argument(
            "--rate-limit", type=_positive, default=None,
            help="global cap on new connections per second",
        )
    p.add_argument("--sni", choices=("on", "off"), default="on",
                   help="send the hostname extension where the target is a hostname")
    p.add_argument("--seed", type=int, default=0, help="deterministic handshake randomness")


def _add_store_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--store", help="append records to this log file")
    p.add_argument("--campaign", default="", help="campaign tag stamped on records")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="befs",
        description="Measure whether servers select forward-secure ciphersuites, "
        "and connect with enforcement-first client policies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_scan = sub.add_parser("scan", help="one default-offer handshake per address")
    _add_source_options(p_scan)
    _add_handshake_options(p_scan)
    _add_store_options(p_scan)

    p_inspect = sub.add_parser(
        "inspect", help="scan, then run the three-step inspection on non-FS selectors"
    )
    _add_source_options(p_inspect)
    _add_handshake_options(p_inspect)
    _add_store_options(p_inspect)

    p_connect = sub.add_parser("connect", help="single policy-driven connection over TCP")
    p_connect.add_argument("address", help="host[:port], port defaults to 443")
    p_connect.add_argument("--mode", choices=("default", "befs", "besafe"), default="befs")
    p_connect.add_argument(
        "--fallback", choices=("silent", "interactive", "signaled", "parallel"),
        default="silent",
        help="how a failed rung widens the offer: silently, after a terminal prompt, or "
        "with TLS_FALLBACK_SCSV (RFC 7507) appended; a real server that speaks TLS 1.3 "
        "refuses every signaled rung, one whose maximum is TLS 1.2 never does. "
        "parallel races every rung at once and keeps the strongest",
    )
    _add_handshake_options(p_connect, concurrency=False)
    _add_store_options(p_connect)

    p_bench = sub.add_parser("bench", help="per-mode handshake latency table")
    _add_source_options(p_bench)
    p_bench.add_argument("--repetitions", type=_at_least_one, default=1)
    _add_handshake_options(p_bench, concurrency=False)

    p_fleet = sub.add_parser("fleet", help="validate, describe, or serve a fleet spec")
    p_fleet.add_argument("--spec", required=True, help="fleet spec JSON file")
    p_fleet.add_argument("--serve", action="store_true",
                         help="bind loopback listeners and block until interrupted")
    p_fleet.add_argument("--addresses-out", help="write served addresses here, one per line")
    p_fleet.add_argument("--truth-out", help="write ground-truth records here, one JSON per line")
    p_fleet.add_argument("--campaign", default="", help="campaign tag for truth records")

    p_report = sub.add_parser("report", help="aggregate stored records into the nested table")
    p_report.add_argument("--store", required=True, help="record log to read")
    p_report.add_argument("--campaign", default=None, help="only records with this tag")
    p_report.add_argument("--device-meta", help="ip<TAB>label file for device typing")

    return parser


@contextmanager
def _targets(args):
    """Yield (addresses, connector) for --input or --fleet-spec runs."""
    if args.fleet_spec:
        spec = load_fleet_spec(args.fleet_spec)
        fleet = generate_fleet(spec)
        transport = (
            Transport.IN_MEMORY if args.transport == "memory" else Transport.LOOPBACK_SOCKET
        )
        with serve(fleet, transport, latency=spec.latency, seed=spec.seed) as harness:
            yield harness.addresses, harness.connector()
    else:
        yield load_addresses(args.input), TcpConnector()


# -- subcommands ---------------------------------------------------------------


def _store_for(args):
    """The --store log to enter in a ``with`` block; it yields None without one."""
    return RecordStore(args.store) if getattr(args, "store", None) else nullcontext()


def cmd_scan(args) -> int:
    with _targets(args) as (addresses, connector):
        records = scan(
            addresses,
            timeout_s=args.timeout,
            concurrency=args.concurrency,
            connector=connector,
            sni=args.sni == "on",
            seed=args.seed,
            rate_limit=args.rate_limit,
        )
    responded = 0
    with _store_for(args) as store:
        for rec in records:
            data = scan_record_to_dict(rec, campaign=args.campaign)
            if store:
                store.append(data)
            _emit(data)
            responded += rec.selected_suite is not None
    _note("scan: %d addresses, %d responded" % (len(records), responded))
    return 0


def cmd_inspect(args) -> int:
    with _targets(args) as (addresses, connector):
        scanned = scan(
            addresses,
            timeout_s=args.timeout,
            concurrency=args.concurrency,
            connector=connector,
            sni=args.sni == "on",
            seed=args.seed,
            rate_limit=args.rate_limit,
        )
        inspections = inspect_all(
            scanned,
            args.timeout,
            args.concurrency,
            connector=connector,
            sni=args.sni == "on",
            seed=args.seed,
            rate_limit=args.rate_limit,
        )
    histogram: dict[str, int] = {}
    with _store_for(args) as store:
        for rec in scanned:
            data = scan_record_to_dict(rec, campaign=args.campaign)
            if store:
                store.append(data)
        for rec in inspections:
            data = inspection_record_to_dict(rec, campaign=args.campaign)
            if store:
                store.append(data)
            _emit(data)
            histogram[rec.classification.name] = histogram.get(rec.classification.name, 0) + 1
    _note(
        "inspect: %d scanned, %d inspected" % (len(scanned), len(inspections))
    )
    for name in sorted(histogram):
        _note("  %-40s %d" % (name, histogram[name]))
    return 0


_EXIT_BY_STATUS = {
    SessionStatus.ABORTED_BY_USER: 20,
    SessionStatus.FAILED: 30,
}


def cmd_connect(args) -> int:
    try:
        address = parse_address(args.address)
    except ValueError as exc:
        _note("befs connect: bad address %r: %s" % (args.address, exc))
        return 2
    cfg = PolicyConfig(
        mode=PolicyMode[args.mode.upper()],
        fallback=FallbackStyle[args.fallback.upper()],
        timeout_s=args.timeout,
    )
    user = TerminalDecisions() if cfg.fallback is FallbackStyle.INTERACTIVE else ALWAYS_PROCEED
    outcome = connect(
        address, cfg, user, connector=TcpConnector(), sni=args.sni == "on", seed=args.seed
    )
    data = session_record_to_dict(
        address, outcome, campaign=args.campaign, fallback=cfg.fallback
    )
    with _store_for(args) as store:
        if store:
            store.append(data)
    _emit(data)
    if outcome.status is SessionStatus.CONNECTED:
        _note(
            "connected: suite=0x%04X fs=%s ae=%s after %d attempt(s)"
            % (outcome.suite, outcome.fs, outcome.ae, outcome.handshake_attempts)
        )
        return 0 if outcome.fs else 10
    _note("not connected: %s" % outcome.status.name)
    return _EXIT_BY_STATUS[outcome.status]


def cmd_bench(args) -> int:
    with _targets(args) as (addresses, connector):
        bench = latency_bench(
            addresses,
            repetitions=args.repetitions,
            connector=connector,
            timeout_s=args.timeout,
            sni=args.sni == "on",
            seed=args.seed,
        )
    _note("%-8s %8s %10s %10s %10s %9s" % ("mode", "samples", "max_s", "min_s", "avg_s", "attempts"))
    for mode, stats in bench.per_mode.items():
        _note(
            "%-8s %8d %10.5f %10.5f %10.5f %9.2f"
            % (mode.name, stats.samples, stats.max_s, stats.min_s, stats.avg_s, stats.attempts_avg)
        )
    if bench.excluded:
        _note("excluded (failed at least one mode): %s" % ", ".join(bench.excluded))
    _emit(
        {
            "repetitions": bench.repetitions,
            "responders": bench.responders,
            "excluded": list(bench.excluded),
            "modes": {mode.name: dataclasses.asdict(s) for mode, s in bench.per_mode.items()},
        }
    )
    return 0


def _wait_for_interrupt() -> None:
    stop = threading.Event()

    def handler(signum, frame):
        stop.set()

    previous = {}
    for sig in (signal.SIGINT, signal.SIGTERM):
        previous[sig] = signal.signal(sig, handler)
    try:
        stop.wait()
    finally:
        for sig, old in previous.items():
            signal.signal(sig, old)


def cmd_fleet(args) -> int:
    spec = load_fleet_spec(args.spec)
    fleet = generate_fleet(spec)
    counts = {a.value: n for a, n in archetype_counts(spec).items() if n}
    if args.truth_out:
        with open(args.truth_out, "w", encoding="utf-8") as fh:
            for row in truth_records(fleet, campaign=args.campaign):
                fh.write(json.dumps(row, sort_keys=True) + "\n")
    if not args.serve:
        _emit({"size": spec.size, "seed": spec.seed, "archetypes": counts})
        return 0
    with serve(fleet, Transport.LOOPBACK_SOCKET, latency=spec.latency, seed=spec.seed) as harness:
        lines = "\n".join(harness.addresses) + "\n"
        if args.addresses_out:
            with open(args.addresses_out, "w", encoding="utf-8") as fh:
                fh.write(lines)
        else:
            sys.stdout.write(lines)
            sys.stdout.flush()
        _note("fleet: serving %d endpoints on loopback, interrupt to stop" % len(fleet))
        _wait_for_interrupt()
    _note("fleet: stopped")
    return 0


def cmd_report(args) -> int:
    loaded = RecordStore(args.store).load(campaign=args.campaign)
    for err in loaded.errors:
        _note("report: skipped corrupt %s" % err)
    scans, inspections = scans_and_inspections(loaded.records)
    labels = None
    if args.device_meta:
        hosts = {split_address(r.address)[0] for r in scans if r.selected_suite is not None}
        labels = device_type(hosts, args.device_meta)
        coverage = len(labels) / len(hosts) if hosts else 1.0
        _note("report: device metadata coverage %.2f%%" % (100.0 * coverage))
    result = aggregate(scans, inspections, labels, campaign=args.campaign or "")
    sys.stderr.write(render_text(result))
    _emit(result.to_dict())
    return 0


_COMMANDS = {
    "scan": cmd_scan,
    "inspect": cmd_inspect,
    "connect": cmd_connect,
    "bench": cmd_bench,
    "fleet": cmd_fleet,
    "report": cmd_report,
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except _USER_ERRORS as exc:
        _note("befs %s: %s" % (args.command, exc))
        return 1


if __name__ == "__main__":
    sys.exit(main())
