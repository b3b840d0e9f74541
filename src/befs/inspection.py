"""Measurement, one task per address: a scan, then heuristic inspection.

The scan sends the default offer once and records what the server
selects. A server that answered with a non-FS suite is then inspected,
in the same task, with up to three fresh handshakes (default offer,
FS-only offer, FS+AE-only offer); the pattern of selections and failures
classifies whether the server merely supports forward secrecy or
actually picks it, and whether guiding it to FS costs authenticated
encryption. Each address's records are handed on as soon as it and every
address before it are done, so a caller can store them while the run goes on.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from enum import Enum
from typing import Callable, Iterable, Optional

from .handshake import AttemptKind, AttemptResult, Connector, handshake_attempt, sleep_until
from .records import record
from .suites import DEFAULT, FS_AE_ONLY, FS_ONLY, ProfileKind, is_ae, is_fs


class ScanResultKind(Enum):
    RESPONDED = "RESPONDED"
    FAILED = "FAILED"
    TIMEOUT = "TIMEOUT"


@record
class ScanRecord:
    address: str
    timestamp: float
    result: ScanResultKind
    selected_suite: Optional[int] = None
    negotiated_version: Optional[int] = None
    error_detail: Optional[str] = None

    def __post_init__(self) -> None:
        if (self.result is ScanResultKind.RESPONDED) != (self.selected_suite is not None):
            raise ValueError("selected_suite present iff RESPONDED")


class Classification(Enum):
    CHANGED_BEHAVIOR = "CHANGED_BEHAVIOR"
    STABLE_NO_FS_SUPPORT = "STABLE_NO_FS_SUPPORT"
    STABLE_SUPPORTS_FS_AE = "STABLE_SUPPORTS_FS_AE"
    STABLE_SUPPORTS_FS_NONAE_ONLY = "STABLE_SUPPORTS_FS_NONAE_ONLY"
    STABLE_FS_NONAE_BUT_SUPPORTS_FS_AE = "STABLE_FS_NONAE_BUT_SUPPORTS_FS_AE"
    ERROR_H1 = "ERROR_H1"
    TIMEOUT = "TIMEOUT"


STABLE_CLASSES = frozenset(
    {
        Classification.STABLE_NO_FS_SUPPORT,
        Classification.STABLE_SUPPORTS_FS_AE,
        Classification.STABLE_SUPPORTS_FS_NONAE_ONLY,
        Classification.STABLE_FS_NONAE_BUT_SUPPORTS_FS_AE,
    }
)


@record
class StepResult:
    profile: ProfileKind
    attempt: AttemptResult

    @property
    def selected_fs(self) -> bool:
        return self.attempt.selected and is_fs(self.attempt.suite)

    @property
    def selected_fs_ae(self) -> bool:
        return self.selected_fs and is_ae(self.attempt.suite)


@record
class InspectionRecord:
    address: str
    h1: StepResult
    h2: Optional[StepResult]
    h3: Optional[StepResult]
    classification: Classification
    prior_suite_ae: bool
    lose_ae: bool
    scanned_at: Optional[float] = None
    inspected_at: float = 0.0


def classify_steps(
    h1: StepResult, h2: Optional[StepResult], h3: Optional[StepResult]
) -> tuple[Classification, bool, bool]:
    """(classification, prior_suite_ae, lose_ae) from the step results alone."""
    a1 = h1.attempt
    if a1.kind is AttemptKind.TIMEOUT:
        return Classification.TIMEOUT, False, False
    if not a1.selected:
        return Classification.ERROR_H1, False, False
    if is_fs(a1.suite):
        return Classification.CHANGED_BEHAVIOR, False, False
    prior_ae = is_ae(a1.suite)
    if h2 is None:
        raise ValueError("h1 selected non-FS but h2 is missing")
    # From inspect_one a SELECTED h2 is FS, since handshake_attempt turns a
    # pick outside the offer into PROTOCOL_ERROR; testing selected_fs, not
    # selected, keeps this total over hand-built steps.
    if not h2.selected_fs:
        return Classification.STABLE_NO_FS_SUPPORT, prior_ae, False
    if h2.selected_fs_ae:
        return Classification.STABLE_SUPPORTS_FS_AE, prior_ae, False
    lose_ae = prior_ae  # guided to FS, but the FS pick is not AEAD
    if h3 is None:
        raise ValueError("h2 selected FS+non-AE but h3 is missing")
    if not h3.selected_fs_ae:
        return Classification.STABLE_SUPPORTS_FS_NONAE_ONLY, prior_ae, lose_ae
    return Classification.STABLE_FS_NONAE_BUT_SUPPORTS_FS_AE, prior_ae, lose_ae


class RateLimiter:
    """Caps connection starts per second across worker threads."""

    def __init__(self, per_second: float) -> None:
        if per_second <= 0:
            raise ValueError("rate must be positive")
        self._interval = 1.0 / per_second
        self._lock = threading.Lock()
        self._next_free = time.perf_counter()

    def acquire(self) -> None:
        with self._lock:
            due = self._next_free
            self._next_free = max(due, time.perf_counter()) + self._interval
        sleep_until(due)  # a tiny rate, or a long queue, can ask for centuries


# Finished results held per worker while a silent server holds the head for
# its timeout: 256 covers a 5 s timeout over 20 ms addresses, at ~0.5 KB each.
_WINDOW_PER_WORKER = 256
_END = object()  # what a worker takes once the items run out


def _run_bounded(fn: Callable, items: Iterable, emit: Callable, concurrency: int) -> None:
    """``emit(fn(item))`` for every item in input order, ``fn`` at most ``concurrency`` at once.

    The calling thread is one of the workers and up to ``concurrency - 1``
    helper threads are the rest; a concurrency of 1 is a plain loop. Workers
    take the next item under a lock; whoever finishes the oldest pending
    item emits, under the lock, every result now in order. No worker takes
    an item ``_WINDOW_PER_WORKER * concurrency`` or more places past the
    oldest pending one: that bounds the results held, and makes one slow
    item stall the rest once the window behind it is full. The first
    exception, an interrupt included, stops every worker from taking a new
    item; it is raised once the helpers are joined, so what was emitted is
    a prefix.
    """
    if concurrency < 1:
        raise ValueError("concurrency must be >= 1")
    source = iter(items)
    first = list(itertools.islice(source, concurrency))
    if not first:
        raise ValueError("addresses must be non-empty")
    source = itertools.chain(first, source)
    if concurrency == 1:  # no other worker: no lock, window or wake-ups to keep
        for item in source:
            emit(fn(item))
        return
    window = _WINDOW_PER_WORKER * concurrency
    cond = threading.Condition(threading.Lock())
    finished: dict[int, object] = {}  # index -> result, not yet emitted
    errors: list[BaseException] = []
    taken = emitted = 0

    def work() -> None:
        nonlocal taken, emitted
        try:
            while True:
                with cond:
                    while not errors and taken - emitted >= window:
                        cond.wait()
                    item = _END if errors else next(source, _END)
                    if item is _END:
                        return
                    index = taken
                    taken += 1
                result = fn(item)
                with cond:
                    finished[index] = result
                    while emitted in finished:
                        emit(finished.pop(emitted))
                        emitted += 1
                    cond.notify_all()
        except BaseException as exc:  # re-raised in the caller below
            with cond:
                errors.append(exc)
                cond.notify_all()

    helpers = [threading.Thread(target=work) for _ in range(len(first) - 1)]
    for thread in helpers:
        thread.start()
    try:
        work()
    finally:
        for thread in helpers:
            thread.join()
    if errors:
        raise errors[0]


def _measure(task: Callable, addresses: Iterable[str], emit: Callable, concurrency: int,
             rate_limit: Optional[float], **options) -> None:
    """The body of scan and inspect_all: ``task(address, **options)`` per address."""
    limiter = RateLimiter(rate_limit) if rate_limit else None
    _run_bounded(functools.partial(task, limiter=limiter, **options), addresses, emit, concurrency)


def scan_one(
    address: str,
    timeout_s: float,
    *,
    connector: Connector,
    sni: bool,
    seed: int = 0,
    limiter: Optional[RateLimiter] = None,
) -> ScanRecord:
    if limiter is not None:
        limiter.acquire()
    a = handshake_attempt(connector, address, DEFAULT.suites, timeout_s, sni=sni, seed=seed,
                          label="scan")
    now = time.time()
    if a.selected:
        return ScanRecord(address, now, ScanResultKind.RESPONDED, a.suite, a.version)
    if a.kind is AttemptKind.TIMEOUT:
        return ScanRecord(address, now, ScanResultKind.TIMEOUT, error_detail=a.error)
    return ScanRecord(
        address, now, ScanResultKind.FAILED, error_detail="%s: %s" % (a.kind.value, a.error)
    )


def scan(
    addresses: Iterable[str],
    emit: Callable[[ScanRecord], None],
    timeout_s: float = 5.0,
    concurrency: int = 50,
    *,
    connector: Connector,
    sni: bool = True,
    seed: int = 0,
    rate_limit: Optional[float] = None,
) -> None:
    """One default-offer handshake per address; ``emit`` gets each record in input order."""
    _measure(scan_one, addresses, emit, concurrency, rate_limit,
             timeout_s=timeout_s, connector=connector, sni=sni, seed=seed)


def inspect_one(
    address: str,
    timeout_s: float = 5.0,
    *,
    connector: Connector,
    sni: bool,
    seed: int = 0,
    limiter: Optional[RateLimiter] = None,
    scanned_at: Optional[float] = None,
) -> InspectionRecord:
    """Run the three-step heuristic; each step is a fresh connection.

    Each step's label is its profile, so each of the address's hellos,
    the scan's ("scan") included, has its own random.
    """

    def run(profile: ProfileKind) -> StepResult:
        if limiter is not None:
            limiter.acquire()
        return StepResult(profile, handshake_attempt(
            connector, address, profile.suites, timeout_s, sni=sni, seed=seed, label=profile.value))

    h2: Optional[StepResult] = None
    h3: Optional[StepResult] = None
    h1 = run(DEFAULT)
    if h1.attempt.selected and not is_fs(h1.attempt.suite):
        h2 = run(FS_ONLY)
        if h2.selected_fs and not h2.selected_fs_ae:
            h3 = run(FS_AE_ONLY)
    classification, prior_ae, lose_ae = classify_steps(h1, h2, h3)
    return InspectionRecord(
        address=address,
        h1=h1,
        h2=h2,
        h3=h3,
        classification=classification,
        prior_suite_ae=prior_ae,
        lose_ae=lose_ae,
        scanned_at=scanned_at,
        inspected_at=time.time(),
    )


def needs_inspection(record: ScanRecord) -> bool:
    return record.result is ScanResultKind.RESPONDED and not is_fs(record.selected_suite)


def _scan_then_inspect(
    address: str, timeout_s: float, **options
) -> tuple[ScanRecord, Optional[InspectionRecord]]:
    scanned = scan_one(address, timeout_s, **options)
    if not needs_inspection(scanned):
        return scanned, None
    return scanned, inspect_one(address, timeout_s, scanned_at=scanned.timestamp, **options)


def inspect_all(
    addresses: Iterable[str],
    emit: Callable[[tuple[ScanRecord, Optional[InspectionRecord]]], None],
    timeout_s: float = 5.0,
    concurrency: int = 50,
    *,
    connector: Connector,
    sni: bool = True,
    seed: int = 0,
    rate_limit: Optional[float] = None,
) -> None:
    """Scan each address and inspect it if it selected a non-FS suite, one task per address.

    ``emit`` gets ``(scan record, inspection record or None)`` in input order.
    """
    _measure(_scan_then_inspect, addresses, emit, concurrency, rate_limit,
             timeout_s=timeout_s, connector=connector, sni=sni, seed=seed)
