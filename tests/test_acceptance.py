"""Acceptance gate: one test per stated criterion, at stated volume and
tolerance. Each prints a single PASS or FAIL line (visible with -s, or
in captured output) carrying the numbers that met the bound."""

import functools
import itertools
import math
import os
import random
import subprocess
import sys
import threading
import time
from pathlib import Path

import wire_reference as ref

from befs import wire
from befs.client import (
    ALWAYS_ABORT,
    ALWAYS_PROCEED,
    FallbackStyle,
    PolicyConfig,
    PolicyMode,
    SessionStatus,
    connect,
    latency_bench,
)
from befs.fleetsim import (
    ActiveDropper,
    Archetype,
    DiscriminatoryServer,
    FleetSpec,
    LatencyModel,
    SimServer,
    Transport,
    expected_for_server,
    generate_fleet,
    serve,
)
from befs.handshake import AttemptKind, handshake_attempt
from befs.inspection import (
    STABLE_CLASSES,
    Classification,
    ScanResultKind,
    inspect_all,
)
from befs.negotiate import SelectionRule, ServerPolicy, select
from befs.report import FS_NONAE_PICK_CLASSES, FS_SUPPORT_CLASSES, aggregate
from befs.suites import DEFAULT, DEFAULT_ORDER, FALLBACK_SIGNAL, FS_ONLY, is_fs
from befs.wire import TLS1_0, TLS1_1, TLS1_2

VERSIONS = (TLS1_0, TLS1_1, TLS1_2)
FS_UNIVERSE = tuple(s for s in DEFAULT_ORDER if is_fs(s))


def criterion(number: int, name: str):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            try:
                detail = fn()
            except BaseException:
                print("\nACCEPTANCE %d %s: FAIL" % (number, name))
                raise
            print("\nACCEPTANCE %d %s: PASS (%s)" % (number, name, detail))

        return run

    return wrap


def one_policy_server(policy: ServerPolicy) -> SimServer:
    return SimServer(
        server_id="srv-0",
        archetype=Archetype.FS_SUPPORTING_NONFS_PREFERRING,
        policy=policy,
        seed=1,
    )


def random_policy(rng: random.Random, force_fs: bool = False) -> ServerPolicy:
    supported = set(rng.sample(DEFAULT_ORDER, rng.randint(1, len(DEFAULT_ORDER))))
    if force_fs:
        supported.add(rng.choice(FS_UNIVERSE))
    preference = tuple(rng.sample(sorted(supported), len(supported)))
    versions = frozenset(rng.sample(VERSIONS, rng.randint(1, 3)))
    rule = rng.choice((SelectionRule.SERVER_PREFERENCE, SelectionRule.CLIENT_PREFERENCE))
    return ServerPolicy(preference, versions, rule)


# -- 1: negotiation oracle equivalence ------------------------------------------


def reference_select(policy: ServerPolicy, offer, client_max):
    """Independent list-walk oracle for the selection function."""
    eligible = [v for v in policy.versions if v <= client_max]
    if not eligible:
        return None
    version = max(eligible)
    if policy.selection_rule is SelectionRule.SERVER_PREFERENCE:
        for suite in policy.preference:
            if suite in offer:
                return version, suite
    else:
        for suite in offer:
            if suite in set(policy.preference):
                return version, suite
    return None


@criterion(1, "negotiation-oracle-equivalence")
def test_criterion_1_negotiation_oracle():
    rng = random.Random(0xACCE01)
    pairs = 10_000
    start = time.perf_counter()
    for _ in range(pairs):
        policy = random_policy(rng)
        offer = tuple(rng.sample(DEFAULT_ORDER, rng.randint(1, len(DEFAULT_ORDER))))
        client_max = rng.choice(VERSIONS)
        got = select(policy, offer, client_max)
        want = reference_select(policy, offer, client_max)
        if want is None:
            assert got is None, (policy, offer, client_max)
        else:
            assert got == want, (
                policy,
                offer,
                client_max,
            )
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, "oracle sweep took %.2fs" % elapsed
    return "%d pairs, 0 mismatches, %.2fs" % (pairs, elapsed)


# -- 2: BEFS best-effort guarantee ----------------------------------------------

ALL_STYLES = (FallbackStyle.SILENT, FallbackStyle.INTERACTIVE, FallbackStyle.SIGNALED)


def _befs_under_every_style(policy: ServerPolicy) -> list[bool]:
    """fs flag of a BEFS connect against this policy, one per fallback style."""
    server = one_policy_server(policy)
    flags = []
    with serve([server], Transport.IN_MEMORY) as harness:
        connector = harness.connector()
        for style in ALL_STYLES:
            cfg = PolicyConfig(mode=PolicyMode.BEFS, fallback=style, timeout_s=0.5)
            outcome = connect(
                harness.addresses[0], cfg, ALWAYS_PROCEED, connector=connector
            )
            assert outcome.connected, (policy, style, outcome)
            flags.append(outcome.fs)
    return flags


@criterion(2, "befs-best-effort")
def test_criterion_2_befs_best_effort():
    rng = random.Random(0xACCE02)
    policies = 10_000
    for _ in range(policies):
        policy = random_policy(rng, force_fs=True)
        assert all(_befs_under_every_style(policy)), policy

    # exhaustive sweep over every supported subset of a reduced universe
    reduced = (0xC02B, 0xC02F, 0xC013, 0x009C, 0x002F, 0x0035)
    subsets = 0
    for size in range(1, len(reduced) + 1):
        for subset in itertools.combinations(reduced, size):
            for preference in (subset, tuple(reversed(subset))):
                for rule in SelectionRule:
                    policy = ServerPolicy(preference, frozenset({TLS1_2}), rule)
                    flags = _befs_under_every_style(policy)
                    expects_fs = any(is_fs(s) for s in subset)
                    assert flags == [expects_fs] * len(ALL_STYLES), policy
                    subsets += 1
    return "%d random FS-capable policies x %d styles, %d exhaustive cases, 0 exceptions" % (
        policies,
        len(ALL_STYLES),
        subsets,
    )


# -- 3: heuristic classification fidelity ---------------------------------------


@criterion(3, "classification-fidelity")
def test_criterion_3_classification_fidelity():
    spec = FleetSpec(size=600, seed=33, mix={a: 1 / 6 for a in Archetype})
    fleet = generate_fleet(spec)
    per_class: dict[Archetype, int] = {}
    for server in fleet:
        per_class[server.archetype] = per_class.get(server.archetype, 0) + 1
    assert all(per_class[a] >= 100 for a in Archetype), per_class

    with serve(fleet, Transport.IN_MEMORY) as harness:
        by_address = {s.address: s for s in fleet}
        pairs = []
        inspect_all(harness.addresses, pairs.append, 0.2, 50, connector=harness.connector())
    records = [scanned for scanned, _ in pairs]
    inspections = [found for _, found in pairs if found is not None]

    # scan phase must agree with the selection oracle server by server
    for record in records:
        server = by_address[record.address]
        if server.archetype is Archetype.UNRESPONSIVE:
            assert record.result is ScanResultKind.TIMEOUT
        else:
            want = select(server.policy, DEFAULT.suites, TLS1_2)
            assert record.result is ScanResultKind.RESPONDED
            assert (record.negotiated_version, record.selected_suite) == want

    mismatches = 0
    for rec in inspections:
        want = expected_for_server(by_address[rec.address])
        if (rec.classification, rec.prior_suite_ae, rec.lose_ae) != (
            want.classification,
            want.prior_suite_ae,
            want.lose_ae,
        ):
            mismatches += 1
    assert mismatches == 0, "%d misclassifications" % mismatches

    # the aggregate table must equal a brute-force recount from ground truth
    report = aggregate(records, inspections)
    responding = [r for r in records if r.result is ScanResultKind.RESPONDED]
    non_fs = [r for r in responding if not is_fs(r.selected_suite)]
    oracle = [expected_for_server(by_address[r.address]) for r in non_fs]
    want_counts = {
        "responding": len(responding),
        "select_non_fs": len(non_fs),
        "stable": sum(o.classification in STABLE_CLASSES for o in oracle),
        "support_fs": sum(o.classification in FS_SUPPORT_CLASSES for o in oracle),
        "select_fs_non_ae": sum(o.classification in FS_NONAE_PICK_CLASSES for o in oracle),
        "support_fs_ae": sum(
            o.classification is Classification.STABLE_FS_NONAE_BUT_SUPPORTS_FS_AE
            for o in oracle
        ),
        "lose_ae": sum(o.lose_ae for o in oracle),
        "lose_ae_support_fs_ae": sum(
            o.lose_ae
            and o.classification is Classification.STABLE_FS_NONAE_BUT_SUPPORTS_FS_AE
            for o in oracle
        ),
    }
    got_levels = {
        "responding": report.responding,
        "select_non_fs": report.select_non_fs,
        "stable": report.stable,
        "support_fs": report.support_fs,
        "select_fs_non_ae": report.select_fs_non_ae,
        "support_fs_ae": report.support_fs_ae,
        "lose_ae": report.lose_ae,
        "lose_ae_support_fs_ae": report.lose_ae_support_fs_ae,
    }
    for name, want in want_counts.items():
        assert got_levels[name].count == want, (name, got_levels[name].count, want)

    # previous-level nesting rule, exactly
    chain = [
        (report.dataset_size, report.responding),
        (report.responding.count, report.select_non_fs),
        (report.select_non_fs.count, report.stable),
        (report.stable.count, report.support_fs),
        (report.support_fs.count, report.select_fs_non_ae),
        (report.select_fs_non_ae.count, report.support_fs_ae),
        (report.select_fs_non_ae.count, report.lose_ae),
        (report.lose_ae.count, report.lose_ae_support_fs_ae),
    ]
    for prev, level in chain:
        if prev == 0:
            assert level.pct is None
        else:
            assert level.pct == 100.0 * level.count / prev
    return "600 servers (>=100 per class), 0 misclassified, table equals truth recount"


# -- 4: adversary properties -----------------------------------------------------


def _connect_fleet(fleet, adversary, style, user=ALWAYS_PROCEED, timeout_s=0.02):
    outcomes = []
    with serve(fleet, Transport.IN_MEMORY, adversary=adversary) as harness:
        cfg = PolicyConfig(mode=PolicyMode.BEFS, fallback=style, timeout_s=timeout_s)
        for address in harness.addresses:
            outcomes.append(
                connect(address, cfg, user, connector=harness.connector())
            )
    return outcomes


@criterion(4, "adversary-properties")
def test_criterion_4_adversaries():
    size = 50
    steerable = lambda seed: generate_fleet(
        FleetSpec(size=size, seed=seed, mix={Archetype.FS_SUPPORTING_NONFS_PREFERRING: 1.0})
    )
    fs_capable = lambda seed: generate_fleet(
        FleetSpec(
            size=size,
            seed=seed,
            mix={
                Archetype.FS_PREFERRING: 0.4,
                Archetype.FS_SUPPORTING_NONFS_PREFERRING: 0.3,
                Archetype.FS_NONAE_ONLY: 0.3,
            },
        )
    )

    dropper = ActiveDropper
    outs = _connect_fleet(steerable(41), dropper, FallbackStyle.SILENT)
    assert all(o.connected and o.fs is False for o in outs)
    outs = _connect_fleet(steerable(41), dropper, FallbackStyle.INTERACTIVE, ALWAYS_ABORT)
    assert all(o.status is SessionStatus.ABORTED_BY_USER for o in outs)

    weak = DiscriminatoryServer
    outs = _connect_fleet(fs_capable(42), weak, FallbackStyle.SILENT)
    assert all(o.connected and o.fs is True for o in outs)

    strong = functools.partial(DiscriminatoryServer, strong=True)
    outs = _connect_fleet(steerable(43), strong, FallbackStyle.SILENT)
    assert all(o.connected and o.fs is False for o in outs)
    outs = _connect_fleet(steerable(43), strong, FallbackStyle.INTERACTIVE, ALWAYS_ABORT)
    assert all(o.status is SessionStatus.ABORTED_BY_USER for o in outs)

    # honest FS-supporting servers refuse signaled offers; non-FS complete them
    fleet = fs_capable(44)
    with serve(fleet, Transport.IN_MEMORY) as harness:
        refused = 0
        for address in harness.addresses:
            attempt = handshake_attempt(
                harness.connector(), address, DEFAULT.suites + (FALLBACK_SIGNAL,), 0.5
            )
            assert attempt.kind is AttemptKind.REJECTED
            assert attempt.alert is not None
            assert attempt.alert.description == wire.INAPPROPRIATE_FALLBACK
            refused += 1
    assert refused == size
    nonfs = generate_fleet(FleetSpec(size=10, seed=45, mix={Archetype.NONFS_ONLY: 1.0}))
    with serve(nonfs, Transport.IN_MEMORY) as harness:
        for address in harness.addresses:
            attempt = handshake_attempt(
                harness.connector(), address, DEFAULT.suites + (FALLBACK_SIGNAL,), 0.5
            )
            assert attempt.kind is AttemptKind.SELECTED
    return "dropper/weak/strong/signal each 100%% over %d-server fleets" % size


def test_adversary_sweep_script_runs_every_model():
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(root / "src"), os.environ.get("PYTHONPATH"))))}
    done = subprocess.run(
        [sys.executable, str(root / "scripts" / "run_adversaries.py"), "--size", "8"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 6, done.stdout
    assert all(line.endswith(" 8/  8 (100.0%)") for line in lines), done.stdout


# -- 5: attempt and latency structure --------------------------------------------


@criterion(5, "latency-structure")
def test_criterion_5_latency_structure():
    fleet = generate_fleet(FleetSpec(size=20, seed=55, mix={Archetype.NONFS_ONLY: 1.0}))
    latency = LatencyModel(base_ms=1.0)
    with serve(fleet, Transport.IN_MEMORY, latency=latency) as harness:
        report = latency_bench(
            harness.addresses, repetitions=5, connector=harness.connector(), timeout_s=2.0
        )
        stats = report.per_mode
        assert stats[PolicyMode.DEFAULT].attempts_avg == 1.0
        assert stats[PolicyMode.BEFS].attempts_avg == 2.0
        assert stats[PolicyMode.BESAFE].attempts_avg == 3.0
        base = stats[PolicyMode.DEFAULT].avg_s
        r2 = stats[PolicyMode.BEFS].avg_s / base
        r3 = stats[PolicyMode.BESAFE].avg_s / base
        assert 2 * 0.75 <= r2 <= 2 * 1.25, "BEFS/DEFAULT ratio %.2f" % r2
        assert 3 * 0.75 <= r3 <= 3 * 1.25, "BESAFE/DEFAULT ratio %.2f" % r3

        parallel_avg = {}
        for mode, rungs in ((PolicyMode.BEFS, 2), (PolicyMode.BESAFE, 3)):
            cfg = PolicyConfig(mode=mode, fallback=FallbackStyle.PARALLEL, timeout_s=2.0)
            walls = []
            for address in harness.addresses:
                start = time.perf_counter()
                outcome = connect(address, cfg, connector=harness.connector())
                walls.append(time.perf_counter() - start)
                assert outcome.connected and outcome.handshake_attempts == rungs
            parallel_avg[mode] = sum(walls) / len(walls)
        for mode, wall in parallel_avg.items():
            assert wall <= 1.5 * base, "parallel %s %.2fx DEFAULT" % (mode, wall / base)
    return "attempts 1/2/3, ratios %.2f/%.2f, parallel %.2fx/%.2fx of DEFAULT" % (
        r2,
        r3,
        parallel_avg[PolicyMode.BEFS] / base,
        parallel_avg[PolicyMode.BESAFE] / base,
    )


# -- 6: wire robustness -----------------------------------------------------------


def _random_client_hello(rng: random.Random) -> ref.ClientHelloMsg:
    """A hello of the reference codec, with any session id and extensions."""
    extensions = []
    for _ in range(rng.randint(0, 3)):
        extensions.append((rng.randrange(0x10000), rng.randbytes(rng.randint(0, 40))))
    return ref.ClientHelloMsg(
        legacy_version=rng.choice(VERSIONS),
        random=rng.randbytes(32),
        cipher_suites=tuple(rng.randrange(0x10000) for _ in range(rng.randint(1, 24))),
        session_id=rng.randbytes(rng.randint(0, 32)),
        extensions=tuple(extensions),
    )


@criterion(6, "wire-robustness")
def test_criterion_6_wire_robustness():
    rng = random.Random(0xACCE06)
    per_kind = 4_000

    for _ in range(per_kind):
        msg = _random_client_hello(rng)
        name = rng.randbytes(rng.randint(0, 20)).hex().encode("ascii")
        raw = wire.encode_client_hello(msg.legacy_version, msg.cipher_suites, msg.random, name)
        extensions = []
        assert wire.decode_client_hello(raw, extensions) == (msg.legacy_version, msg.cipher_suites)
        assert extensions == ([ref.sni_extension(name.decode("ascii"))] if name else [])
        extensions = []
        assert wire.decode_client_hello(ref.encode_client_hello(msg), extensions) == (
            msg.legacy_version, msg.cipher_suites)
        assert tuple(extensions) == msg.extensions

    for _ in range(per_kind):
        summary = ref.ServerHelloSummary(
            negotiated_version=rng.choice(VERSIONS),
            selected_suite=rng.randrange(0x10000),
            raw_extensions=rng.randbytes(rng.randint(0, 40)),
        )
        picked = (summary.negotiated_version, summary.selected_suite)
        raw = wire.encode_server_hello(*picked, rng.randbytes(32))
        assert wire.decode_server_hello(raw) == picked
        raw = ref.encode_server_hello(
            summary, random=rng.randbytes(32), session_id=rng.randbytes(rng.randint(0, 32))
        )
        assert wire.decode_server_hello(raw) == picked

    for _ in range(per_kind):
        alert = wire.AlertMsg(
            level=rng.choice((wire.AlertLevel.WARNING, wire.AlertLevel.FATAL)),
            description=rng.randrange(256),
        )
        assert wire.decode_alert(wire.encode_alert(alert)) == alert

    fuzz_inputs = 100_000
    crashes = 0
    decoders = (wire.decode_client_hello, wire.decode_server_hello, wire.decode_alert)
    for _ in range(fuzz_inputs):
        blob = rng.randbytes(rng.randint(0, 120))
        for decode in decoders:
            try:
                decode(blob)
            except wire.WireError:
                pass
            except Exception:
                crashes += 1
    assert crashes == 0

    # golden vector: a captured reference ClientHello
    with open("tests/fixtures/clienthello_openssl_tls12.hex", encoding="utf-8") as fh:
        blob = bytes.fromhex("".join(fh.read().split()))
    extensions = []
    version, suites = wire.decode_client_hello(blob, extensions)
    assert version == TLS1_2
    assert len(suites) == 15 and suites[0] == 0xC02C
    assert ref.sni_extension("example.com") in extensions
    return "%d round-trips, %d fuzz inputs, 0 failures, golden vector ok" % (
        3 * per_kind,
        fuzz_inputs,
    )


# -- 7: scanner discipline ---------------------------------------------------------


RESPONSIVE_MIX = {
    Archetype.FS_PREFERRING: 0.2,
    Archetype.FS_SUPPORTING_NONFS_PREFERRING: 0.2,
    Archetype.NONFS_ONLY: 0.2,
    Archetype.FS_NONAE_ONLY: 0.2,
    Archetype.LEGACY_PRE_TLS12: 0.2,
}


class _InFlight:
    """Wraps a connector; counts the exchanges in flight through it, with high-water mark."""

    def __init__(self, inner):
        self.inner = inner
        self.lock = threading.Lock()
        self.current = 0
        self.peak = 0

    def exchange(self, address, raw, timeout_s):
        with self.lock:
            self.current += 1
            self.peak = max(self.peak, self.current)
        try:
            return self.inner.exchange(address, raw, timeout_s)
        finally:
            with self.lock:
                self.current -= 1


def _run_1000(seed: int):
    spec = FleetSpec(size=1000, seed=seed, mix=RESPONSIVE_MIX)
    fleet = generate_fleet(spec)
    with serve(fleet, Transport.LOOPBACK_SOCKET) as harness:
        id_of = {server.address: server.server_id for server in fleet}
        pairs = []
        counted = _InFlight(harness.connector())
        inspect_all(harness.addresses, pairs.append, 5.0, 50, connector=counted)
        # The scanner's own count: the harness's in_flight holds a connection only
        # from accept to close, which a zero-latency reply makes one step.
        peak = max(counted.peak, harness.max_in_flight)
    records = [scanned for scanned, _ in pairs]
    inspections = [found for _, found in pairs if found is not None]
    scan_by_id = {id_of[r.address]: (r.result, r.selected_suite) for r in records}
    class_by_id = {id_of[r.address]: (r.classification, r.lose_ae) for r in inspections}
    return records, scan_by_id, class_by_id, peak


@criterion(7, "scanner-discipline")
def test_criterion_7_scanner_discipline():
    start = time.perf_counter()
    records, scans_a, classes_a, peak_a = _run_1000(seed=77)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, "first run took %.1fs" % elapsed
    assert len(records) == 1000
    assert len({r.address for r in records}) == 1000  # one record per address
    assert peak_a <= 50, "observed %d concurrent connections" % peak_a

    _, scans_b, classes_b, peak_b = _run_1000(seed=77)
    assert peak_b <= 50
    assert scans_a == scans_b
    assert classes_a == classes_b
    return "1000 servers in %.1fs, peak in-flight %d <= 50, rerun identical" % (
        elapsed,
        peak_a,
    )
