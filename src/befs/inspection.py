"""Two-phase measurement: a wide scan, then per-server heuristic inspection.

The scan sends the default offer once per address and records what each
server selects.  Servers that answered with a non-FS suite are then
inspected with up to three fresh handshakes (default offer, FS-only
offer, FS+AE-only offer); the pattern of selections and failures
classifies whether the server merely supports forward secrecy or
actually picks it, and whether guiding it to FS costs authenticated
encryption.
"""

from __future__ import annotations

import functools
import threading
import time
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Optional, Sequence

from .handshake import AttemptKind, AttemptResult, Connector, handshake_attempt
from .suites import DEFAULT, FS_AE_ONLY, FS_ONLY, OfferProfile, ProfileKind, is_ae, is_fs


class ScanResultKind(Enum):
    RESPONDED = "RESPONDED"
    FAILED = "FAILED"
    TIMEOUT = "TIMEOUT"


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class StepResult:
    profile: ProfileKind
    attempt: AttemptResult

    @property
    def selected_fs(self) -> bool:
        return self.attempt.selected and is_fs(self.attempt.suite)

    @property
    def selected_fs_ae(self) -> bool:
        return self.selected_fs and is_ae(self.attempt.suite)


@dataclass(frozen=True)
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
            now = time.perf_counter()
            wait = self._next_free - now
            self._next_free = max(self._next_free, now) + self._interval
        if wait > 0:
            time.sleep(wait)


def _run_bounded(fn: Callable, items: Sequence, concurrency: int) -> list:
    """``fn(item)`` for every item, at most ``concurrency`` at once, in input order.

    The calling thread is one of the workers and ``concurrency - 1`` helper
    threads are the rest, so a concurrency of 1 starts no thread. Workers
    take the next index under a lock and write the result into that
    index's slot. The first exception, an interrupt included, stops every
    worker from taking a new item; it is raised here once the helpers have
    finished the items they hold and been joined.
    """
    if concurrency < 1:
        raise ValueError("concurrency must be >= 1")
    results = [None] * len(items)
    indices = iter(range(len(items)))
    lock = threading.Lock()
    errors: list[BaseException] = []

    def work() -> None:
        try:
            while True:
                with lock:
                    i = None if errors else next(indices, None)
                if i is None:
                    return
                results[i] = fn(items[i])
        except BaseException as exc:  # re-raised in the caller below
            errors.append(exc)

    helpers = [threading.Thread(target=work) for _ in range(min(concurrency, len(items)) - 1)]
    for thread in helpers:
        thread.start()
    try:
        work()
    finally:
        for thread in helpers:
            thread.join()
    if errors:
        raise errors[0]
    return results


def _attempt_profile(
    connector: Connector,
    address: str,
    profile: OfferProfile,
    timeout_s: float,
    sni: bool,
    seed: int,
    limiter: Optional[RateLimiter],
) -> StepResult:
    if limiter is not None:
        limiter.acquire()
    attempt = handshake_attempt(
        connector,
        address,
        profile.suites,
        timeout_s,
        sni=sni,
        seed=seed,
        label=profile.kind.value,
    )
    return StepResult(profile.kind, attempt)


def scan_one(
    address: str,
    timeout_s: float,
    *,
    connector: Connector,
    sni: bool = True,
    seed: int = 0,
    limiter: Optional[RateLimiter] = None,
) -> ScanRecord:
    step = _attempt_profile(connector, address, DEFAULT, timeout_s, sni, seed, limiter)
    now = time.time()
    a = step.attempt
    if a.selected:
        return ScanRecord(address, now, ScanResultKind.RESPONDED, a.suite, a.version)
    if a.kind is AttemptKind.TIMEOUT:
        return ScanRecord(address, now, ScanResultKind.TIMEOUT, error_detail=a.error)
    return ScanRecord(
        address, now, ScanResultKind.FAILED, error_detail="%s: %s" % (a.kind.value, a.error)
    )


def scan(
    addresses: Sequence[str],
    timeout_s: float = 5.0,
    concurrency: int = 50,
    *,
    connector: Connector,
    sni: bool = True,
    seed: int = 0,
    rate_limit: Optional[float] = None,
) -> list[ScanRecord]:
    """One default-offer handshake per address, concurrency-bounded."""
    if not addresses:
        raise ValueError("addresses must be non-empty")
    limiter = RateLimiter(rate_limit) if rate_limit else None
    one = functools.partial(
        scan_one, timeout_s=timeout_s, connector=connector, sni=sni, seed=seed, limiter=limiter
    )
    return _run_bounded(one, addresses, concurrency)


def inspect_one(
    address: str,
    timeout_s: float = 5.0,
    *,
    connector: Connector,
    sni: bool = True,
    seed: int = 0,
    limiter: Optional[RateLimiter] = None,
    scanned_at: Optional[float] = None,
) -> InspectionRecord:
    """Run the three-step heuristic; each step is a fresh connection."""

    def run(profile: OfferProfile) -> StepResult:
        return _attempt_profile(connector, address, profile, timeout_s, sni, seed, limiter)

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


def inspect_all(
    scan_output: Iterable[ScanRecord],
    timeout_s: float = 5.0,
    concurrency: int = 50,
    *,
    connector: Connector,
    sni: bool = True,
    seed: int = 0,
    rate_limit: Optional[float] = None,
) -> list[InspectionRecord]:
    """Inspect every scanned server that selected a non-FS suite."""
    targets = [r for r in scan_output if needs_inspection(r)]
    limiter = RateLimiter(rate_limit) if rate_limit else None

    def one(r: ScanRecord) -> InspectionRecord:
        return inspect_one(
            r.address,
            timeout_s,
            connector=connector,
            sni=sni,
            seed=seed,
            limiter=limiter,
            scanned_at=r.timestamp,
        )

    return _run_bounded(one, targets, concurrency)
