"""Scan pass, three-step inspection, and the step classifier."""

import collections
import sys
import threading
import time

import pytest

from befs import wire
from befs.fleetsim import (
    Archetype,
    FleetSpec,
    SimServer,
    Transport,
    expected_for_server,
    generate_fleet,
    policy_truth,
    serve,
    LatencyModel,
)
from befs.handshake import AttemptKind, AttemptResult
from befs.inspection import (
    Classification,
    InspectionRecord,
    RateLimiter,
    ScanRecord,
    ScanResultKind,
    STABLE_CLASSES,
    StepResult,
    classify_steps,
    inspect_all,
    inspect_one,
    needs_inspection,
    scan,
    scan_one,
)
from befs.negotiate import ServerPolicy
from befs.suites import ProfileKind

FULL_MIX = {
    Archetype.FS_PREFERRING: 1 / 6,
    Archetype.FS_SUPPORTING_NONFS_PREFERRING: 1 / 6,
    Archetype.NONFS_ONLY: 1 / 6,
    Archetype.FS_NONAE_ONLY: 1 / 6,
    Archetype.LEGACY_PRE_TLS12: 1 / 6,
    Archetype.UNRESPONSIVE: 1 / 6,
}


def harness_for(supported, preference, versions=frozenset({wire.TLS1_2})):
    policy = ServerPolicy(frozenset(supported), tuple(preference), versions)
    server = SimServer(
        server_id="srv-x",
        archetype=Archetype.FS_SUPPORTING_NONFS_PREFERRING,
        policy=policy,
        truth=policy_truth(policy),
        seed=0,
    )
    return serve([server], Transport.IN_MEMORY)


def step(kind_name, suite=None, profile=ProfileKind.DEFAULT):
    kind = AttemptKind[kind_name]
    return StepResult(profile, AttemptResult(kind=kind, suite=suite, version=wire.TLS1_2))


# -- classifier as a pure function -------------------------------------------


def test_classifier_timeout_and_error_h1():
    assert classify_steps(step("TIMEOUT"), None, None)[0] is Classification.TIMEOUT
    assert classify_steps(step("REJECTED"), None, None)[0] is Classification.ERROR_H1
    assert classify_steps(step("CONNECT_ERROR"), None, None)[0] is Classification.ERROR_H1


def test_classifier_changed_behavior():
    got = classify_steps(step("SELECTED", 0xC02F), None, None)
    assert got == (Classification.CHANGED_BEHAVIOR, False, False)


def test_classifier_no_fs_support():
    got = classify_steps(
        step("SELECTED", 0x002F), step("REJECTED", profile=ProfileKind.FS_ONLY), None
    )
    assert got == (Classification.STABLE_NO_FS_SUPPORT, False, False)


def test_classifier_supports_fs_ae():
    got = classify_steps(
        step("SELECTED", 0x009C),
        step("SELECTED", 0xC02F, ProfileKind.FS_ONLY),
        None,
    )
    assert got == (Classification.STABLE_SUPPORTS_FS_AE, True, False)


def test_classifier_fs_nonae_only_with_lose_ae():
    got = classify_steps(
        step("SELECTED", 0x009D),
        step("SELECTED", 0xC014, ProfileKind.FS_ONLY),
        step("REJECTED", profile=ProfileKind.FS_AE_ONLY),
    )
    assert got == (Classification.STABLE_SUPPORTS_FS_NONAE_ONLY, True, True)


def test_classifier_fs_nonae_only_without_lose_ae():
    got = classify_steps(
        step("SELECTED", 0x002F),
        step("SELECTED", 0xC013, ProfileKind.FS_ONLY),
        step("TIMEOUT", profile=ProfileKind.FS_AE_ONLY),
    )
    assert got == (Classification.STABLE_SUPPORTS_FS_NONAE_ONLY, False, False)


def test_classifier_nonae_pick_but_ae_supported():
    got = classify_steps(
        step("SELECTED", 0x0035),
        step("SELECTED", 0xC009, ProfileKind.FS_ONLY),
        step("SELECTED", 0xC02B, ProfileKind.FS_AE_ONLY),
    )
    assert got == (Classification.STABLE_FS_NONAE_BUT_SUPPORTS_FS_AE, False, False)


def test_classifier_missing_steps_raise():
    with pytest.raises(ValueError):
        classify_steps(step("SELECTED", 0x002F), None, None)
    with pytest.raises(ValueError):
        classify_steps(
            step("SELECTED", 0x002F), step("SELECTED", 0xC013, ProfileKind.FS_ONLY), None
        )


def test_classifier_off_profile_selection_is_step_failure():
    # server answered the FS-only offer with a non-FS suite: counts as failure
    got = classify_steps(
        step("SELECTED", 0x002F),
        step("SELECTED", 0x0035, ProfileKind.FS_ONLY),
        None,
    )
    assert got[0] is Classification.STABLE_NO_FS_SUPPORT


# -- scan ---------------------------------------------------------------------


def test_scan_record_invariant():
    with pytest.raises(ValueError):
        ScanRecord("a", 0.0, ScanResultKind.RESPONDED)
    with pytest.raises(ValueError):
        ScanRecord("a", 0.0, ScanResultKind.TIMEOUT, selected_suite=0xC02F)


def test_scan_counts_over_known_fleet():
    spec = FleetSpec(
        size=4, seed=2, mix={Archetype.NONFS_ONLY: 0.25, Archetype.FS_PREFERRING: 0.75}
    )
    fleet = generate_fleet(spec)
    with serve(fleet, Transport.IN_MEMORY) as h:
        records = scan(h.addresses, timeout_s=0.5, concurrency=4, connector=h.connector())
    assert len(records) == 4
    assert all(r.result is ScanResultKind.RESPONDED for r in records)
    non_fs = [r for r in records if needs_inspection(r)]
    assert len(non_fs) == 1


def test_scan_marks_unresponsive_as_timeout():
    fleet = generate_fleet(FleetSpec(size=1, seed=1, mix={Archetype.UNRESPONSIVE: 1.0}))
    with serve(fleet, Transport.IN_MEMORY) as h:
        rec = scan_one(h.addresses[0], 0.05, connector=h.connector())
    assert rec.result is ScanResultKind.TIMEOUT
    assert rec.selected_suite is None


def test_scan_requires_addresses_and_concurrency():
    fleet = generate_fleet(FleetSpec(size=1, seed=1, mix={Archetype.NONFS_ONLY: 1.0}))
    with serve(fleet, Transport.IN_MEMORY) as h:
        with pytest.raises(ValueError):
            scan([], connector=h.connector())
        with pytest.raises(ValueError):
            scan(h.addresses, concurrency=0, connector=h.connector())


@pytest.mark.parametrize("concurrency", [0, -5])
@pytest.mark.parametrize("entry", ["scan", "inspect_all"])
def test_concurrency_below_one_raises_before_any_work(entry, concurrency):
    connector = CountingConnector()
    nonfs = ScanRecord("srv-0000", 1.0, ScanResultKind.RESPONDED, 0x002F, wire.TLS1_2)
    calls = {
        "scan": [lambda: scan(["srv-0000", "srv-0001"], 0.01, concurrency,
                              connector=connector)],
        "inspect_all": [
            lambda: inspect_all([nonfs], 0.01, concurrency, connector=connector),
            lambda: inspect_all([], 0.01, concurrency, connector=connector),
        ],
    }[entry]
    for call in calls:
        with pytest.raises(ValueError, match="concurrency must be >= 1"):
            call()
    assert connector.calls == 0


def test_scan_one_record_per_address_in_input_order():
    fleet = generate_fleet(
        FleetSpec(size=30, seed=8, mix={Archetype.NONFS_ONLY: 0.5, Archetype.FS_PREFERRING: 0.5})
    )
    with serve(fleet, Transport.IN_MEMORY) as h:
        records = scan(h.addresses, timeout_s=0.5, concurrency=10, connector=h.connector())
    assert [r.address for r in records] == h.addresses


def test_concurrency_bound_is_respected_under_load():
    fleet = generate_fleet(FleetSpec(size=30, seed=4, mix={Archetype.FS_PREFERRING: 1.0}))
    with serve(fleet, Transport.IN_MEMORY, latency=LatencyModel(base_ms=20)) as h:
        scan(h.addresses, timeout_s=1.0, concurrency=5, connector=h.connector())
        assert 1 < h.max_in_flight <= 5


class CountingConnector:
    """Wraps a connector; counts exchanges per address and notes each thread."""

    def __init__(self, inner=None, raise_if=None, delay_s=0.0, error=RuntimeError):
        self.inner = inner
        self.raise_if = raise_if  # (address, thread) -> bool
        self.error = error
        self.delay_s = delay_s
        self.lock = threading.Lock()
        self.per_address = collections.Counter()
        self.threads = set()

    @property
    def calls(self):
        return sum(self.per_address.values())

    def exchange(self, address, raw, timeout_s, client):
        thread = threading.current_thread()
        with self.lock:
            self.per_address[address] += 1
            self.threads.add(thread)
        if self.raise_if is not None and self.raise_if(address, thread):
            raise self.error("connector broke on %s" % address)
        time.sleep(self.delay_s)
        if self.inner is None:
            raise TimeoutError("no answer")
        return self.inner.exchange(address, raw, timeout_s, client)


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_scan_error_stops_new_work(error):
    addresses = ["srv-%04d" % i for i in range(500)]
    connector = CountingConnector(
        raise_if=lambda address, _: address == addresses[0], error=error
    )
    with pytest.raises(error, match="srv-0000"):
        scan(addresses, timeout_s=0.01, concurrency=1, connector=connector)
    assert connector.calls == 1


def test_scan_error_on_a_helper_thread_stops_new_work_and_joins():
    addresses = ["srv-%04d" % i for i in range(500)]
    main = threading.current_thread()
    connector = CountingConnector(raise_if=lambda _, thread: thread is not main, delay_s=0.002)
    threads_before = threading.active_count()
    with pytest.raises(RuntimeError, match="connector broke"):
        scan(addresses, timeout_s=0.01, concurrency=4, connector=connector)
    assert connector.calls < 50
    assert threading.active_count() == threads_before  # every helper joined


def test_scan_and_inspect_under_contention():
    """More workers than cores, a tiny switch interval, a slow fleet."""
    concurrency = 16
    fleet = generate_fleet(
        FleetSpec(
            size=120,
            seed=12,
            mix={Archetype.NONFS_ONLY: 0.3, Archetype.FS_PREFERRING: 0.4,
                 Archetype.FS_SUPPORTING_NONFS_PREFERRING: 0.3},
        )
    )
    outcome = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with serve(fleet, Transport.IN_MEMORY, latency=LatencyModel(base_ms=2)) as h:
            connector = CountingConnector(h.connector())

            def run():
                scanned = scan(h.addresses, timeout_s=1.0, concurrency=concurrency,
                               connector=connector)
                outcome["scanned"] = scanned
                outcome["scan_exchanges"] = dict(connector.per_address)
                outcome["inspected"] = inspect_all(scanned, 1.0, concurrency,
                                                   connector=connector)

            worker = threading.Thread(target=run)
            worker.start()
            worker.join(timeout=60)
            assert not worker.is_alive()
            peak = h.max_in_flight
    finally:
        sys.setswitchinterval(interval)
    scanned = outcome["scanned"]
    assert [r.address for r in scanned] == h.addresses
    assert outcome["scan_exchanges"] == {a: 1 for a in h.addresses}
    targets = [r.address for r in scanned if needs_inspection(r)]
    assert targets
    assert [r.address for r in outcome["inspected"]] == targets
    assert 1 < peak <= concurrency


def test_concurrency_one_runs_every_exchange_on_the_calling_thread():
    fleet = generate_fleet(FleetSpec(size=20, seed=5, mix=FULL_MIX))
    with serve(fleet, Transport.IN_MEMORY) as h:
        connector = CountingConnector(h.connector())
        scanned = scan(h.addresses, timeout_s=0.01, concurrency=1, connector=connector)
        inspect_all(scanned, 0.01, 1, connector=connector)
    assert connector.calls > len(h.addresses)
    assert connector.threads == {threading.main_thread()}


# -- inspection ---------------------------------------------------------------


def test_inspect_one_fs_cbc_only_server():
    # supports one ECDHE CBC suite behind a preferred plain-RSA suite
    with harness_for({0xC013, 0x002F}, (0x002F, 0xC013)) as h:
        rec = inspect_one(h.addresses[0], 0.5, connector=h.connector())
    assert rec.classification is Classification.STABLE_SUPPORTS_FS_NONAE_ONLY
    assert not rec.prior_suite_ae and not rec.lose_ae
    assert rec.h1.attempt.suite == 0x002F
    assert rec.h2.attempt.suite == 0xC013
    assert rec.h3.attempt.kind is AttemptKind.REJECTED


def test_inspect_one_fs_ae_supporter_behind_rsa_gcm():
    with harness_for({0xC02F, 0x009C}, (0x009C, 0xC02F)) as h:
        rec = inspect_one(h.addresses[0], 0.5, connector=h.connector())
    assert rec.classification is Classification.STABLE_SUPPORTS_FS_AE
    assert rec.prior_suite_ae and not rec.lose_ae
    assert rec.h3 is None


def test_inspect_one_lose_ae_without_fs_ae_support():
    with harness_for({0x009D, 0xC014}, (0x009D, 0xC014)) as h:
        rec = inspect_one(h.addresses[0], 0.5, connector=h.connector())
    assert rec.classification is Classification.STABLE_SUPPORTS_FS_NONAE_ONLY
    assert rec.prior_suite_ae and rec.lose_ae


def test_inspect_one_nonae_pick_with_ae_available():
    # FS preference lists CBC before GCM, so guiding to FS picks non-AE
    # even though an FS+AE suite exists.
    with harness_for({0x0035, 0xC014, 0xC030}, (0x0035, 0xC014, 0xC030)) as h:
        rec = inspect_one(h.addresses[0], 0.5, connector=h.connector())
    assert rec.classification is Classification.STABLE_FS_NONAE_BUT_SUPPORTS_FS_AE
    assert rec.h3.attempt.suite == 0xC030


def test_inspect_one_no_fs_support():
    with harness_for({0x002F, 0x0035}, (0x0035, 0x002F)) as h:
        rec = inspect_one(h.addresses[0], 0.5, connector=h.connector())
    assert rec.classification is Classification.STABLE_NO_FS_SUPPORT
    assert rec.h2.attempt.kind is AttemptKind.REJECTED
    assert rec.h3 is None


def test_inspect_one_timeout_classification():
    fleet = generate_fleet(FleetSpec(size=1, seed=1, mix={Archetype.UNRESPONSIVE: 1.0}))
    with serve(fleet, Transport.IN_MEMORY) as h:
        rec = inspect_one(h.addresses[0], 0.05, connector=h.connector())
    assert rec.classification is Classification.TIMEOUT
    assert rec.h2 is None and rec.h3 is None


def test_inspection_record_recomputable_and_timestamped():
    with harness_for({0xC013, 0x002F}, (0x002F, 0xC013)) as h:
        rec = inspect_one(h.addresses[0], 0.5, connector=h.connector(), scanned_at=123.0)
    assert classify_steps(rec.h1, rec.h2, rec.h3) == (
        rec.classification,
        rec.prior_suite_ae,
        rec.lose_ae,
    )
    assert rec.scanned_at == 123.0
    assert rec.inspected_at >= 123.0 or rec.inspected_at > 0


def test_inspect_all_empty_when_everyone_selects_fs():
    fleet = generate_fleet(FleetSpec(size=5, seed=6, mix={Archetype.FS_PREFERRING: 1.0}))
    with serve(fleet, Transport.IN_MEMORY) as h:
        records = scan(h.addresses, timeout_s=0.5, concurrency=5, connector=h.connector())
        assert inspect_all(records, 0.5, 5, connector=h.connector()) == []


@pytest.mark.parametrize("transport", list(Transport))
def test_inspect_all_matches_ground_truth_across_archetypes(transport):
    fleet = generate_fleet(FleetSpec(size=120, seed=13, mix=FULL_MIX))
    with serve(fleet, transport) as h:
        by_address = {s.address: s for s in fleet}
        records = scan(h.addresses, timeout_s=0.5, concurrency=20, connector=h.connector())
        inspections = inspect_all(records, 0.5, 20, connector=h.connector())
    assert inspections  # the mix guarantees non-FS selectors exist
    for rec in inspections:
        expected = expected_for_server(by_address[rec.address])
        assert rec.classification is expected.classification
        assert rec.prior_suite_ae == expected.prior_suite_ae
        assert rec.lose_ae == expected.lose_ae
        # monotone disclosure: a successful h2 proves FS support
        if rec.h2 is not None and rec.h2.attempt.selected:
            assert by_address[rec.address].truth.supports_fs
        # stability semantics
        stable = rec.classification in STABLE_CLASSES
        assert stable == (
            rec.classification not in (Classification.CHANGED_BEHAVIOR, Classification.ERROR_H1, Classification.TIMEOUT)
        )


def test_inspect_rerun_is_classification_identical():
    fleet = generate_fleet(FleetSpec(size=40, seed=21, mix=FULL_MIX))
    with serve(fleet, Transport.IN_MEMORY) as h:
        records = scan(h.addresses, timeout_s=0.1, concurrency=10, connector=h.connector())
        first = inspect_all(records, 0.1, 10, connector=h.connector())
        second = inspect_all(records, 0.1, 10, connector=h.connector())
    key = lambda recs: {r.address: (r.classification, r.lose_ae) for r in recs}
    assert key(first) == key(second)


def test_rate_limiter_spaces_acquisitions():
    limiter = RateLimiter(200)
    start = time.perf_counter()
    for _ in range(5):
        limiter.acquire()
    assert time.perf_counter() - start >= 4 * (1 / 200) * 0.8


def test_rate_limiter_rejects_nonpositive():
    with pytest.raises(ValueError):
        RateLimiter(0)


class SniRecorder:
    """Records the SNI of each ClientHello, then answers like a timeout."""

    def __init__(self):
        self.seen = []

    def exchange(self, address, raw, timeout_s, client):
        self.seen.append(wire.extract_sni(wire.decode_client_hello(raw)))
        raise TimeoutError("recorded")


def test_scan_sends_the_host_as_sni_only_when_asked():
    recorder = SniRecorder()
    for address, sni in (("example.com:443", True), ("192.0.2.1:443", True),
                         ("example.com:443", False)):
        scan_one(address, 0.1, connector=recorder, sni=sni)
    assert recorder.seen == ["example.com", None, None]
