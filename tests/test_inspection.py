"""Scan pass, three-step inspection, and the step classifier."""

import collections
import sys
import threading
import time

import pytest
import wire_reference as ref

from befs import inspection, wire
from befs.fleetsim import (
    Archetype,
    FleetSpec,
    SimServer,
    Transport,
    expected_for_server,
    generate_fleet,
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


def harness_for(preference, versions=frozenset({wire.TLS1_2})):
    server = SimServer(
        server_id="srv-x",
        archetype=Archetype.FS_SUPPORTING_NONFS_PREFERRING,
        policy=ServerPolicy(preference, versions),
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
    records = []
    with serve(fleet, Transport.IN_MEMORY) as h:
        scan(h.addresses, records.append, timeout_s=0.5, concurrency=4, connector=h.connector())
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


def test_scan_marks_a_rejecting_server_and_an_empty_address_as_failed():
    # DHE only: the server shares no suite with the DEFAULT offer.
    with harness_for([0x0033]) as h:
        records = []
        scan([*h.addresses, "no-server"], records.append, 0.5, 1, connector=h.connector())
    assert [r.result for r in records] == [ScanResultKind.FAILED] * 2
    assert records[0].error_detail.startswith("REJECTED: handshake_failure")
    assert records[1].error_detail.startswith("CONNECT_ERROR: ")


def test_scan_requires_addresses_and_concurrency():
    fleet = generate_fleet(FleetSpec(size=1, seed=1, mix={Archetype.NONFS_ONLY: 1.0}))
    with serve(fleet, Transport.IN_MEMORY) as h:
        with pytest.raises(ValueError):
            scan([], [].append, connector=h.connector())
        with pytest.raises(ValueError):
            scan(h.addresses, [].append, concurrency=0, connector=h.connector())


@pytest.mark.parametrize("concurrency", [0, -5])
@pytest.mark.parametrize("entry", ["scan", "inspect_all"])
def test_concurrency_below_one_raises_before_any_work(entry, concurrency):
    connector = CountingConnector()
    emitted = []
    run = {"scan": scan, "inspect_all": inspect_all}[entry]
    for addresses in (["srv-0000", "srv-0001"], []):
        with pytest.raises(ValueError, match="concurrency must be >= 1"):
            run(addresses, emitted.append, 0.01, concurrency, connector=connector)
    assert connector.calls == 0
    assert emitted == []


def test_scan_one_record_per_address_in_input_order():
    fleet = generate_fleet(
        FleetSpec(size=30, seed=8, mix={Archetype.NONFS_ONLY: 0.5, Archetype.FS_PREFERRING: 0.5})
    )
    records = []
    with serve(fleet, Transport.IN_MEMORY) as h:
        scan(h.addresses, records.append, timeout_s=0.5, concurrency=10, connector=h.connector())
    assert [r.address for r in records] == h.addresses


def test_concurrency_bound_is_respected_under_load():
    fleet = generate_fleet(FleetSpec(size=30, seed=4, mix={Archetype.FS_PREFERRING: 1.0}))
    with serve(fleet, Transport.IN_MEMORY, latency=LatencyModel(base_ms=20)) as h:
        scan(h.addresses, [].append, timeout_s=1.0, concurrency=5, connector=h.connector())
        assert 1 < h.max_in_flight <= 5


class CountingConnector:
    """Wraps a connector; counts exchanges per address and notes each thread."""

    def __init__(self, inner=None, raise_if=None, delay_s=0.0, error=RuntimeError,
                 delay_if=lambda address: True):
        self.inner = inner
        self.raise_if = raise_if  # (address, thread) -> bool
        self.error = error
        self.delay_s = delay_s
        self.delay_if = delay_if
        self.lock = threading.Lock()
        self.per_address = collections.Counter()
        self.threads = set()

    @property
    def calls(self):
        return sum(self.per_address.values())

    def exchange(self, address, raw, timeout_s):
        thread = threading.current_thread()
        with self.lock:
            self.per_address[address] += 1
            self.threads.add(thread)
        if self.raise_if is not None and self.raise_if(address, thread):
            raise self.error("connector broke on %s" % address)
        if self.delay_if(address):
            time.sleep(self.delay_s)
        if self.inner is None:
            raise TimeoutError("no answer")
        return self.inner.exchange(address, raw, timeout_s)


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_scan_error_stops_new_work(error):
    addresses = ["srv-%04d" % i for i in range(500)]
    connector = CountingConnector(
        raise_if=lambda address, _: address == addresses[0], error=error
    )
    emitted = []
    with pytest.raises(error, match="srv-0000"):
        scan(addresses, emitted.append, timeout_s=0.01, concurrency=1, connector=connector)
    assert connector.calls == 1
    assert emitted == []


def test_scan_error_on_a_helper_thread_stops_new_work_and_joins():
    addresses = ["srv-%04d" % i for i in range(500)]
    main = threading.current_thread()
    connector = CountingConnector(raise_if=lambda _, thread: thread is not main, delay_s=0.002)
    threads_before = threading.active_count()
    with pytest.raises(RuntimeError, match="connector broke"):
        scan(addresses, [].append, timeout_s=0.01, concurrency=4, connector=connector)
    assert connector.calls < 50
    assert threading.active_count() == threads_before  # every helper joined


def run_on_caller_thread(call, timeout_s=30.0):
    """``call()`` on a thread named "caller"; what it raised, once it ended within the timeout."""
    raised = []

    def target():
        try:
            call()
        except BaseException as exc:  # handed to the test to check
            raised.append(exc)

    caller = threading.Thread(target=target, name="caller")
    caller.start()
    caller.join(timeout_s)
    assert not caller.is_alive()
    return raised[0] if raised else None


def test_a_held_head_address_lets_at_most_a_window_of_later_ones_start():
    concurrency = 4
    window = inspection._WINDOW_PER_WORKER * concurrency
    addresses = ["srv-%04d" % i for i in range(window + 400)]
    connector = CountingConnector(delay_s=0.3, delay_if=lambda address: address == addresses[0])
    started_at_emit = []  # exchanges begun when each record was emitted
    assert run_on_caller_thread(lambda: scan(
        addresses, lambda rec: started_at_emit.append(connector.calls), 0.01, concurrency,
        connector=connector)) is None
    assert len(started_at_emit) == len(addresses)
    # the head is emitted once its 0.3 s hold ends; until then the other
    # workers may run ahead only as far as the window
    assert concurrency <= started_at_emit[0] <= window


def test_a_helper_error_leaves_an_input_order_prefix_emitted_and_joins_every_helper():
    addresses = ["srv-%04d" % i for i in range(500)]
    connector = CountingConnector(
        raise_if=lambda address, thread: thread.name != "caller" and addresses.index(address) >= 40,
        delay_s=0.001,
    )
    emitted = []
    threads_before = threading.active_count()
    error = run_on_caller_thread(lambda: scan(
        addresses, emitted.append, timeout_s=0.01, concurrency=4, connector=connector))
    assert isinstance(error, RuntimeError) and "connector broke" in str(error)
    assert threading.active_count() == threads_before  # every helper joined
    got = [r.address for r in emitted]
    assert got == addresses[: len(got)]
    assert len(got) >= 40  # every address before the first failure was emitted
    assert len(got) < len(addresses)


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
                scanned, pairs = [], []
                scan(h.addresses, scanned.append, timeout_s=1.0, concurrency=concurrency,
                     connector=connector)
                outcome["scanned"] = scanned
                outcome["scan_exchanges"] = dict(connector.per_address)
                inspect_all(h.addresses, pairs.append, 1.0, concurrency, connector=connector)
                outcome["pairs"] = pairs

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
    assert [r.address for r, _ in outcome["pairs"]] == h.addresses
    assert [r.address for _, r in outcome["pairs"] if r is not None] == targets
    assert 1 < peak <= concurrency


def test_concurrency_one_runs_every_exchange_on_the_calling_thread():
    fleet = generate_fleet(FleetSpec(size=20, seed=5, mix=FULL_MIX))
    with serve(fleet, Transport.IN_MEMORY) as h:
        connector = CountingConnector(h.connector())
        inspect_all(h.addresses, [].append, 0.01, 1, connector=connector)
    assert connector.calls > len(h.addresses)
    assert connector.threads == {threading.main_thread()}


# -- inspection ---------------------------------------------------------------


def test_inspect_one_fs_cbc_only_server():
    # supports one ECDHE CBC suite behind a preferred plain-RSA suite
    with harness_for((0x002F, 0xC013)) as h:
        rec = inspect_one(h.addresses[0], 0.5, connector=h.connector())
    assert rec.classification is Classification.STABLE_SUPPORTS_FS_NONAE_ONLY
    assert not rec.prior_suite_ae and not rec.lose_ae
    assert rec.h1.attempt.suite == 0x002F
    assert rec.h2.attempt.suite == 0xC013
    assert rec.h3.attempt.kind is AttemptKind.REJECTED


def test_inspect_one_fs_ae_supporter_behind_rsa_gcm():
    with harness_for((0x009C, 0xC02F)) as h:
        rec = inspect_one(h.addresses[0], 0.5, connector=h.connector())
    assert rec.classification is Classification.STABLE_SUPPORTS_FS_AE
    assert rec.prior_suite_ae and not rec.lose_ae
    assert rec.h3 is None


def test_inspect_one_lose_ae_without_fs_ae_support():
    with harness_for((0x009D, 0xC014)) as h:
        rec = inspect_one(h.addresses[0], 0.5, connector=h.connector())
    assert rec.classification is Classification.STABLE_SUPPORTS_FS_NONAE_ONLY
    assert rec.prior_suite_ae and rec.lose_ae


def test_inspect_one_nonae_pick_with_ae_available():
    # FS preference lists CBC before GCM, so guiding to FS picks non-AE
    # even though an FS+AE suite exists.
    with harness_for((0x0035, 0xC014, 0xC030)) as h:
        rec = inspect_one(h.addresses[0], 0.5, connector=h.connector())
    assert rec.classification is Classification.STABLE_FS_NONAE_BUT_SUPPORTS_FS_AE
    assert rec.h3.attempt.suite == 0xC030


def test_inspect_one_no_fs_support():
    with harness_for((0x0035, 0x002F)) as h:
        rec = inspect_one(h.addresses[0], 0.5, connector=h.connector())
    assert rec.classification is Classification.STABLE_NO_FS_SUPPORT
    assert rec.h2.attempt.kind is AttemptKind.REJECTED
    assert rec.h3 is None


class OfferIgnoringServer:
    """Answers every ClientHello with a ServerHello for 0x002F, whatever it offered."""

    def exchange(self, address, raw, timeout_s):
        return wire.encode_server_hello(wire.TLS1_2, 0x002F, bytes(32))


def test_inspect_one_offer_ignoring_server_fails_h2_as_a_protocol_error():
    rec = inspect_one("srv-0", 0.5, connector=OfferIgnoringServer())
    assert rec.h1.attempt.kind is AttemptKind.SELECTED
    assert rec.h2.attempt.kind is AttemptKind.PROTOCOL_ERROR
    assert rec.h3 is None
    assert rec.classification is Classification.STABLE_NO_FS_SUPPORT


def test_inspect_one_timeout_classification():
    fleet = generate_fleet(FleetSpec(size=1, seed=1, mix={Archetype.UNRESPONSIVE: 1.0}))
    with serve(fleet, Transport.IN_MEMORY) as h:
        rec = inspect_one(h.addresses[0], 0.05, connector=h.connector())
    assert rec.classification is Classification.TIMEOUT
    assert rec.h2 is None and rec.h3 is None


def test_inspection_record_recomputable_and_timestamped():
    with harness_for((0x002F, 0xC013)) as h:
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
    pairs = []
    with serve(fleet, Transport.IN_MEMORY) as h:
        inspect_all(h.addresses, pairs.append, 0.5, 5, connector=h.connector())
    assert [r.address for r, _ in pairs] == h.addresses
    assert [found for _, found in pairs if found is not None] == []


@pytest.mark.parametrize("transport", list(Transport))
def test_inspect_all_matches_ground_truth_across_archetypes(transport):
    fleet = generate_fleet(FleetSpec(size=120, seed=13, mix=FULL_MIX))
    pairs = []
    with serve(fleet, transport) as h:
        by_address = {s.address: s for s in fleet}
        inspect_all(h.addresses, pairs.append, 0.5, 20, connector=h.connector())
    inspections = [found for _, found in pairs if found is not None]
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
    first, second = [], []
    with serve(fleet, Transport.IN_MEMORY) as h:
        inspect_all(h.addresses, first.append, 0.1, 10, connector=h.connector())
        inspect_all(h.addresses, second.append, 0.1, 10, connector=h.connector())
    key = lambda pairs: {r.address: (r.classification, r.lose_ae) for _, r in pairs if r is not None}
    assert key(first) == key(second)


def test_rate_limiter_spaces_acquisitions():
    limiter = RateLimiter(200)
    start = time.perf_counter()
    for _ in range(5):
        limiter.acquire()
    assert time.perf_counter() - start >= 4 * (1 / 200) * 0.8


@pytest.mark.parametrize("entry", [scan, inspect_all], ids=["scan", "inspect_all"])
def test_the_rate_limit_is_asked_once_per_handshake(entry, monkeypatch):
    acquired = []
    real_acquire = RateLimiter.acquire

    def counted(limiter):
        acquired.append(limiter)
        real_acquire(limiter)

    monkeypatch.setattr(RateLimiter, "acquire", counted)
    fleet = generate_fleet(FleetSpec(size=24, seed=8, mix=FULL_MIX))
    emitted = []
    with serve(fleet, Transport.IN_MEMORY) as h:
        entry(h.addresses, emitted.append, 0.02, 4, connector=h.connector(), rate_limit=5000)
    pairs = emitted if entry is inspect_all else [(scanned, None) for scanned in emitted]
    attempts = 0
    for scanned, inspected in pairs:
        attempts += 1
        if inspected is not None:
            attempts += sum(step is not None for step in (inspected.h1, inspected.h2, inspected.h3))
    assert len(pairs) == 24 and len(acquired) == attempts
    assert len(set(map(id, acquired))) == 1  # one limiter for every worker
    assert any(scanned.result is ScanResultKind.TIMEOUT for scanned, _ in pairs)
    if entry is inspect_all:
        assert any(inspected is not None for _, inspected in pairs)


@pytest.mark.parametrize("per_second", [1e-300, 1e-9])
def test_the_rate_limiter_never_asks_sleep_for_more_than_it_takes(per_second, monkeypatch):
    # The tenth of ten workers queued at 1e-9/s waits 1e10 s, past what
    # one time.sleep takes; here nothing really sleeps.
    asked = []

    def sleep(seconds):
        asked.append(seconds)
        raise InterruptedError

    monkeypatch.setattr(time, "sleep", sleep)
    limiter = RateLimiter(per_second)
    limiter.acquire()  # the first start waits for nothing
    for _ in range(10):
        with pytest.raises(InterruptedError):
            limiter.acquire()
    assert len(asked) == 10 and 0 < max(asked) <= threading.TIMEOUT_MAX


def test_rate_limiter_rejects_nonpositive():
    with pytest.raises(ValueError):
        RateLimiter(0)


class SniRecorder:
    """Records the SNI extension body of each ClientHello, then answers like a timeout."""

    def __init__(self):
        self.seen = []

    def exchange(self, address, raw, timeout_s):
        extensions = []
        wire.decode_client_hello(raw, extensions)
        self.seen.append(dict(extensions).get(wire.SNI_EXTENSION_TYPE))
        raise TimeoutError("recorded")


def test_scan_sends_the_host_as_sni_only_when_asked():
    recorder = SniRecorder()
    for address, sni in (("example.com:443", True), ("192.0.2.1:443", True),
                         ("example.com:443", False)):
        scan_one(address, 0.1, connector=recorder, sni=sni)
    assert recorder.seen == [ref.sni_extension("example.com")[1], None, None]


class HelloRecorder:
    """Wraps a connector; records the hello bytes of each exchange, per address."""

    def __init__(self, inner):
        self.inner = inner
        self.hellos = collections.defaultdict(list)

    def exchange(self, address, raw, timeout_s):
        self.hellos[address].append(raw)
        return self.inner.exchange(address, raw, timeout_s)


def test_every_handshake_of_an_inspected_address_has_its_own_hello():
    # a replayed hello (the scan's, sent again as h1) would tell the inspection apart
    fleet = generate_fleet(FleetSpec(size=30, seed=4, mix=FULL_MIX))
    with serve(fleet, Transport.IN_MEMORY) as h:
        recorder = HelloRecorder(h.connector())
        pairs = []
        inspect_all(h.addresses, pairs.append, timeout_s=0.01, concurrency=1, connector=recorder)
    inspected = [scanned.address for scanned, record in pairs if record is not None]
    assert inspected
    for address in inspected:
        hellos = recorder.hellos[address]
        assert len(hellos) >= 3  # the scan, then h1 and h2 at least
        assert len(set(hellos)) == len(hellos)
        assert len({ref.decode_client_hello(raw).random for raw in hellos}) == len(hellos)
