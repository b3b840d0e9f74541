"""Enforcement-first client policies with graded fallback.

The default client sends one wide offer and takes whatever the server
picks.  The best-effort policies instead start from the strongest offer
and widen only on failure: FS-only then default, or FS+AE-only then
FS-only then default.  Fallback can happen silently, behind a user
decision, or accompanied by a wire signal that lets honest capable
servers reject a downgrade they should never have seen.  The parallel
style instead sends every rung's hello before it reads any reply, all on
the calling thread, and keeps the strongest answer.
"""

from __future__ import annotations

import itertools
import time
from enum import Enum
from typing import Callable, Optional, Sequence

from .handshake import (
    AttemptResult, ConnectFailed, Connector, client_hello, handshake_attempt, read_reply,
)
from .records import record
from .suites import FALLBACK_SIGNAL, ProfileKind, is_ae, is_fs


class PolicyMode(Enum):
    DEFAULT = "DEFAULT"
    BEFS = "BEFS"
    BESAFE = "BESAFE"


class FallbackStyle(Enum):
    SILENT = "SILENT"
    INTERACTIVE = "INTERACTIVE"
    SIGNALED = "SIGNALED"
    PARALLEL = "PARALLEL"


class SessionStatus(Enum):
    CONNECTED = "CONNECTED"
    ABORTED_BY_USER = "ABORTED_BY_USER"
    FAILED = "FAILED"


@record
class PolicyConfig:
    mode: PolicyMode
    fallback: FallbackStyle = FallbackStyle.SILENT
    timeout_s: float = 5.0


LADDERS: dict[PolicyMode, tuple[ProfileKind, ...]] = {
    PolicyMode.DEFAULT: (ProfileKind.DEFAULT,),
    PolicyMode.BEFS: (ProfileKind.FS_ONLY, ProfileKind.DEFAULT),
    PolicyMode.BESAFE: (ProfileKind.FS_AE_ONLY, ProfileKind.FS_ONLY, ProfileKind.DEFAULT),
}


@record
class SessionOutcome:
    status: SessionStatus
    suite: Optional[int]
    fs: Optional[bool]
    ae: Optional[bool]
    fallback_depth: int
    handshake_attempts: int
    per_attempt_timings: tuple[float, ...]
    attempts: tuple[AttemptResult, ...] = ()
    mode: Optional[PolicyMode] = None
    address: str = ""
    fallback: Optional[FallbackStyle] = None

    def __post_init__(self) -> None:
        if self.status is SessionStatus.CONNECTED and self.suite is None:
            raise ValueError("CONNECTED requires a suite")

    @property
    def connected(self) -> bool:
        return self.status is SessionStatus.CONNECTED


def ALWAYS_PROCEED(description: str) -> bool:
    return True


def ALWAYS_ABORT(description: str) -> bool:
    return False


_FALLBACK_COSTS = {
    ProfileKind.FS_ONLY: "authenticated encryption no longer guaranteed",
    ProfileKind.DEFAULT: "forward secrecy no longer guaranteed",
}


def describe_fallback(address: str, next_profile: ProfileKind) -> str:
    return "%s: widen offer to %s (%s)?" % (
        address,
        next_profile.value,
        _FALLBACK_COSTS.get(next_profile, "weaker parameters possible"),
    )


def connect(
    address: str,
    cfg: PolicyConfig,
    user: Callable[[str], bool] = ALWAYS_PROCEED,
    *,
    connector: Connector,
    sni: bool = False,
    seed: int = 0,
    label: str = "",
) -> SessionOutcome:
    """Walk LADDERS[cfg.mode] from the strongest offer to the widest.

    Sequentially, each rung is tried only after the one before it failed,
    silently (SILENT), behind a user decision (INTERACTIVE) or with the
    fallback signal on the widened offer (SIGNALED). The user decision is
    ``user(describe_fallback(address, profile))``: true widens the offer,
    false ends the ladder as ABORTED_BY_USER. With PARALLEL, every
    rung's hello is sent (connector.send) before any reply is received
    (connector.receive), both in rung order on the calling thread, and
    the strongest selecting rung wins; a rung's ``elapsed_s`` runs from
    its send to its verdict. DEFAULT has a single rung, so it ignores the
    style. With ``sni``, the hello names the address's host (see
    client_hello). A ``label`` tells repeated connects to one address
    apart: each gets its own hello randoms. The outcome carries
    ``address`` and ``cfg.fallback``, so a stored session says how it ran.
    """
    ladder = LADDERS[cfg.mode]
    suffix = "/" + label if label else ""

    def rung(depth: int, profile: ProfileKind) -> tuple[tuple[int, ...], str]:  # offer, label
        signal = depth > 0 and cfg.fallback is FallbackStyle.SIGNALED
        return (profile.suites + (FALLBACK_SIGNAL,) if signal else profile.suites,
                "%s/%s/%d%s" % (cfg.mode.value, profile.value, depth, suffix))

    status, attempts = SessionStatus.FAILED, []
    if cfg.fallback is FallbackStyle.PARALLEL and len(ladder) > 1:
        # A failure is read in its handler: an exception kept past it holds
        # this frame in a cycle via its traceback (see handshake_attempt).
        pending = []  # (offer, start, what send returned or the attempt it failed) of each rung
        for depth, profile in enumerate(ladder):
            offer, rung_label = rung(depth, profile)
            raw = client_hello(address, offer, sni=sni, seed=seed, label=rung_label)
            start = time.perf_counter()
            try:
                sent = connector.send(address, raw, cfg.timeout_s)
            except (TimeoutError, ConnectFailed) as exc:
                sent = read_reply(exc, offer, cfg.timeout_s, start)
            pending.append((offer, start, sent))
        for offer, start, sent in pending:
            if not isinstance(sent, AttemptResult):  # else the send failed
                try:
                    sent = read_reply(connector.receive(sent), offer, cfg.timeout_s, start)
                except (TimeoutError, ConnectFailed) as exc:
                    sent = read_reply(exc, offer, cfg.timeout_s, start)
            attempts.append(sent)
    else:
        for depth, profile in enumerate(ladder):
            if depth > 0 and cfg.fallback is FallbackStyle.INTERACTIVE:
                if not user(describe_fallback(address, profile)):
                    status = SessionStatus.ABORTED_BY_USER
                    break
            offer, rung_label = rung(depth, profile)
            attempts.append(handshake_attempt(connector, address, offer, cfg.timeout_s, sni=sni,
                                              seed=seed, label=rung_label))
            if attempts[-1].selected:
                break
    # the strongest selecting rung wins; without one, report the last reached
    depth = next((d for d, a in enumerate(attempts) if a.selected), None)
    if depth is not None:
        status, suite = SessionStatus.CONNECTED, attempts[depth].suite
    else:
        depth, suite = len(attempts) - 1, None
    return SessionOutcome(
        status=status,
        suite=suite,
        fs=is_fs(suite) if suite is not None else None,
        ae=is_ae(suite) if suite is not None else None,
        fallback_depth=depth,
        handshake_attempts=len(attempts),
        per_attempt_timings=tuple(a.elapsed_s for a in attempts),
        attempts=tuple(attempts),
        mode=cfg.mode,
        address=address,
        fallback=cfg.fallback,
    )


@record
class ModeStats:
    max_s: float
    min_s: float
    avg_s: float
    attempts_avg: float
    samples: int


@record
class BenchReport:
    per_mode: dict[PolicyMode, ModeStats]
    repetitions: int
    responders: int
    excluded: tuple[str, ...]


BENCH_MODES = (PolicyMode.DEFAULT, PolicyMode.BEFS, PolicyMode.BESAFE)


def latency_bench(
    addresses: Sequence[str],
    repetitions: int = 1,
    *,
    connector: Connector,
    timeout_s: float = 5.0,
    sni: bool = True,
    seed: int = 0,
) -> BenchReport:
    """Back-to-back default/BEFS/BESAFE timings per address.

    Wall time wraps the full attempt ladder, connection setup included.
    Addresses that fail any mode are excluded from the aggregates and
    reported separately. With ``sni``, each address sends its own host
    name, as in ``scan``. Each repetition after the first is a labelled
    connect, so no hello is sent twice.
    """
    if repetitions < 1:
        raise ValueError("repetitions must be at least 1")
    kept: dict[PolicyMode, list[tuple[float, int]]] = {m: [] for m in BENCH_MODES}
    excluded: list[str] = []
    for address in addresses:
        samples = []  # (mode, wall, attempts) of this address
        for repetition, mode in itertools.product(range(repetitions), BENCH_MODES):
            cfg = PolicyConfig(mode=mode, timeout_s=timeout_s)
            label = "%d" % repetition if repetition else ""
            start = time.perf_counter()
            outcome = connect(address, cfg, connector=connector, sni=sni, seed=seed,
                              label=label)
            wall = time.perf_counter() - start
            if not outcome.connected:
                excluded.append(address)
                break
            samples.append((mode, wall, outcome.handshake_attempts))
        else:
            for mode, wall, attempts in samples:
                kept[mode].append((wall, attempts))
    per_mode = {}
    for mode, pairs in kept.items():
        if pairs:
            walls = [wall for wall, _ in pairs]
            per_mode[mode] = ModeStats(
                max_s=max(walls),
                min_s=min(walls),
                avg_s=sum(walls) / len(walls),
                attempts_avg=sum(attempts for _, attempts in pairs) / len(pairs),
                samples=len(pairs),
            )
    return BenchReport(
        per_mode=per_mode,
        repetitions=repetitions,
        responders=len(addresses) - len(excluded),
        excluded=tuple(excluded),
    )
