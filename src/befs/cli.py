"""Command-line front end.

Subcommands: scan, inspect, connect, bench, fleet, report. Machine
output (JSON, one object per line where record-shaped) goes to stdout;
tables and diagnostics go to stderr, so pipelines can consume stdout
unfiltered.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
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
from .inspection import inspect_all, scan
from .metadata import (
    EmptyDataset,
    IoFailure,
    device_type,
    load_addresses,
    parse_address,
)
from .report import (
    RecordStore,
    SchemaMismatch,
    aggregate,
    decode_record,
    json_line,
    record_line,
    render_text,
    scans_and_inspections,
)

_USER_ERRORS = (InvalidSpec, IoFailure, EmptyDataset, BindFailure, SchemaMismatch)


def _emit(data: dict) -> None:
    sys.stdout.write(json_line(data))


def _note(text: str) -> None:
    sys.stderr.write(text + "\n")


def _ask_terminal(description: str) -> bool:
    """Asks a fallback question on the controlling terminal."""
    sys.stderr.write(description + " [y/N] ")
    sys.stderr.flush()
    try:
        answer = input()
    except EOFError:
        return False
    return answer.strip().lower() in ("y", "yes")


# -- argument plumbing ---------------------------------------------------------


# Each type function raises ArgumentTypeError, whose text argparse prints
# as it is; for a ValueError it would print the function's own name.


def _at_least_one(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("must be a whole number, got %r" % text) from None
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1, got %d" % value)
    return value


def _positive(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError("must be a number, got %r" % text) from None
    if not 0 < value < math.inf:  # false for NaN too
        raise argparse.ArgumentTypeError("must be positive and finite, got %s" % text)
    return value


def _timeout(text: str) -> float:
    value = _positive(text)
    if value > threading.TIMEOUT_MAX:  # the longest wait a socket or a lock takes
        raise argparse.ArgumentTypeError("must be at most %.0f s, got %s" % (threading.TIMEOUT_MAX, text))
    return value


def _add_source_options(p: argparse.ArgumentParser) -> None:
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--input", help="address file, one host[:port] or IPv4[:port] per line")
    group.add_argument("--fleet-spec", help="serve a simulated fleet in-process and target it")
    p.add_argument(
        "--transport",
        choices=[t.value for t in Transport],
        default="memory",
        help="fleet transport for --fleet-spec runs; --input always dials real TCP",
    )


def _add_handshake_options(p: argparse.ArgumentParser, concurrency: bool = True) -> None:
    p.add_argument("--timeout", type=_timeout, default=5.0, help="per-connection timeout, seconds")
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


def _measure_options(p: argparse.ArgumentParser) -> None:
    _add_source_options(p)
    _add_handshake_options(p)
    _add_store_options(p)


def _connect_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("address", help="host[:port], port defaults to 443")
    p.add_argument("--mode", choices=("default", "befs", "besafe"), default="befs")
    p.add_argument(
        "--fallback", choices=("silent", "interactive", "signaled", "parallel"),
        default="silent",
        help="how a failed rung widens the offer: silently, after a terminal prompt, or "
        "with TLS_FALLBACK_SCSV (RFC 7507) appended; a real server that speaks TLS 1.3 "
        "refuses every signaled rung, one whose maximum is TLS 1.2 never does. "
        "parallel sends every rung at once and keeps the strongest",
    )
    _add_handshake_options(p, concurrency=False)
    _add_store_options(p)


def _bench_options(p: argparse.ArgumentParser) -> None:
    _add_source_options(p)
    p.add_argument("--repetitions", type=_at_least_one, default=1)
    _add_handshake_options(p, concurrency=False)


def _fleet_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--spec", required=True, help="fleet spec JSON file")
    p.add_argument("--serve", action="store_true",
                   help="bind loopback listeners and block until interrupted")
    p.add_argument("--addresses-out", help="write served addresses here, one per line")
    p.add_argument("--truth-out", help="write ground-truth records here, one JSON per line")
    p.add_argument("--campaign", default="", help="campaign tag for truth records")


def _report_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--store", required=True, help="record log to read")
    p.add_argument("--campaign", default=None, help="only records with this tag")
    p.add_argument("--device-meta", help="ip<TAB>label file for device typing")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The befs parser, with the subparser of every command.

    It is built once per process and shared by every later call, so
    callers must not change it. An argparse parser is a web of reference
    cycles; built anew on each call, it would be garbage that only the
    cyclic collector frees, at a point that shifts from call to call.
    """
    parser = argparse.ArgumentParser(
        prog="befs",
        description="Measure whether servers select forward-secure ciphersuites, "
        "and connect with enforcement-first client policies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, add_options, _) in _COMMANDS.items():
        add_options(sub.add_parser(name, help=text))
    return parser


@contextmanager
def _targets(args):
    """Yield (addresses, connector) for --input or --fleet-spec runs."""
    if args.fleet_spec:
        spec = load_fleet_spec(args.fleet_spec)
        fleet = generate_fleet(spec)
        with serve(fleet, Transport(args.transport), latency=spec.latency,
                   seed=spec.seed) as harness:
            yield harness.addresses, harness.connector()
    else:
        from .loopback import TcpConnector  # sockets load only for a TCP target
        yield load_addresses(args.input), TcpConnector()


# -- subcommands ---------------------------------------------------------------


def _store_for(args):
    """The --store log to enter in a ``with`` block; it yields None without one."""
    return RecordStore(args.store) if getattr(args, "store", None) else nullcontext()


def cmd_measure(args) -> int:
    """``befs scan`` and ``befs inspect``: each address's records, stored in one write as it ends."""
    inspecting = args.command == "inspect"
    scanned = responded = 0
    histogram: dict[str, int] = {}
    with _targets(args) as (addresses, connector), _store_for(args) as store:

        def on_address(pair) -> None:
            nonlocal scanned, responded
            scan_rec, inspection = pair
            records = [scan_rec]
            if inspection is not None:
                records.append(inspection)
                name = inspection.classification.name
                histogram[name] = histogram.get(name, 0) + 1
            # Each line is encoded once: stdout gets the line the store wrote.
            lines = [store.append(rec, campaign=args.campaign, flush=rec is records[-1]) if store
                     else record_line(rec, args.campaign) for rec in records]
            for line in lines[1:] if inspecting else lines:
                sys.stdout.write(line)
            scanned += 1
            responded += scan_rec.selected_suite is not None

        measure = inspect_all if inspecting else scan
        on_result = on_address if inspecting else lambda rec: on_address((rec, None))
        measure(addresses, on_result, args.timeout, args.concurrency, connector=connector,
                sni=args.sni == "on", seed=args.seed, rate_limit=args.rate_limit)
    if not inspecting:
        _note("scan: %d addresses, %d responded" % (scanned, responded))
        return 0
    _note("inspect: %d scanned, %d inspected" % (scanned, sum(histogram.values())))
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
    user = _ask_terminal if cfg.fallback is FallbackStyle.INTERACTIVE else ALWAYS_PROCEED
    from .loopback import TcpConnector
    outcome = connect(
        address, cfg, user, connector=TcpConnector(), sni=args.sni == "on", seed=args.seed
    )
    with _store_for(args) as store:
        line = store.append if store else record_line
        sys.stdout.write(line(outcome, campaign=args.campaign))
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


def _write(path, chunks) -> None:
    """Write the text ``chunks`` to a new file at ``path``; IoFailure names the path."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise IoFailure("cannot write %s: %s" % (path, exc)) from exc


def cmd_fleet(args) -> int:
    if args.addresses_out and not args.serve:
        _note("befs fleet: --addresses-out needs --serve: no server has an address until served")
        return 2
    spec = load_fleet_spec(args.spec)

    def write_truth(fleet) -> None:
        if args.truth_out:
            _write(args.truth_out, map(json_line, truth_records(fleet, campaign=args.campaign)))

    if not args.serve:
        if args.truth_out:  # the summary alone needs no fleet drawn
            write_truth(generate_fleet(spec))
        counts = {a.value: n for a, n in archetype_counts(spec).items() if n}
        _emit({"size": spec.size, "seed": spec.seed, "archetypes": counts})
        return 0
    fleet = generate_fleet(spec)
    with serve(fleet, Transport.LOOPBACK_SOCKET, latency=spec.latency, seed=spec.seed) as harness:
        write_truth(fleet)  # serve has given each server its address
        lines = "\n".join(harness.addresses) + "\n"
        if args.addresses_out:
            _write(args.addresses_out, [lines])
        else:
            sys.stdout.write(lines)
            sys.stdout.flush()
        _note("fleet: serving %d endpoints on loopback, interrupt to stop" % len(fleet))
        _wait_for_interrupt()
    _note("fleet: stopped")
    return 0


def cmd_report(args) -> int:
    loaded = RecordStore(args.store).load(campaign=args.campaign, decode=decode_record)
    for err in loaded.errors:
        _note("report: skipped corrupt %s" % err)
    if args.campaign is not None and not loaded.records:
        _note("report: no records of campaign %r" % args.campaign)
    scans, inspections = scans_and_inspections(loaded.records)

    def device_labels(hosts) -> dict[str, str]:
        labels = device_type(hosts, args.device_meta)
        coverage = len(labels) / len(hosts) if hosts else 1.0
        _note("report: device metadata coverage %.2f%%" % (100.0 * coverage))
        return labels

    result = aggregate(scans, inspections, device_labels if args.device_meta else None,
                       campaign=args.campaign or "")
    if result.unmatched_inspections:
        _note("report: skipped %d inspection records with no non-FS scan of their address"
              % result.unmatched_inspections)
    sys.stderr.write(render_text(result))
    _emit(result.to_dict())
    return 0


# Each command: its help line, the function adding its options, and the function running it.
_COMMANDS = {
    "scan": ("one default-offer handshake per address", _measure_options, cmd_measure),
    "inspect": ("scan each address and, if it selected a non-FS suite, run the three-step "
                "inspection on it at once; records are stored as each address finishes",
                _measure_options, cmd_measure),
    "connect": ("single policy-driven connection over TCP", _connect_options, cmd_connect),
    "bench": ("per-mode handshake latency table", _bench_options, cmd_bench),
    "fleet": ("validate, describe, or serve a fleet spec", _fleet_options, cmd_fleet),
    "report": ("aggregate stored records into the nested table", _report_options, cmd_report),
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _COMMANDS[args.command][2](args)
    except _USER_ERRORS as exc:
        _note("befs %s: %s" % (args.command, exc))
        return 1


if __name__ == "__main__":
    sys.exit(main())
