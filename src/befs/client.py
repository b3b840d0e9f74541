"""Enforcement-first client policies with graded fallback.

The default client sends one wide offer and takes whatever the server
picks.  The best-effort policies instead start from the strongest offer
and widen only on failure: FS-only then default, or FS+AE-only then
FS-only then default.  Fallback can happen silently, behind a user
decision, or accompanied by a wire signal that lets honest capable
servers reject a downgrade they should never have seen.  The parallel
style instead sends every rung at once, waits for all answers, and keeps
the strongest.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional, Protocol, Sequence

from .handshake import AttemptResult, Connector, handshake_attempt
from .suites import PROFILES, ProfileKind, is_ae, is_fs


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


@dataclass(frozen=True)
class PolicyConfig:
    mode: PolicyMode
    fallback: FallbackStyle = FallbackStyle.SILENT
    timeout_s: float = 5.0


LADDERS: dict[PolicyMode, tuple[ProfileKind, ...]] = {
    PolicyMode.DEFAULT: (ProfileKind.DEFAULT,),
    PolicyMode.BEFS: (ProfileKind.FS_ONLY, ProfileKind.DEFAULT),
    PolicyMode.BESAFE: (ProfileKind.FS_AE_ONLY, ProfileKind.FS_ONLY, ProfileKind.DEFAULT),
}


@dataclass(frozen=True)
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

    def __post_init__(self) -> None:
        if self.status is SessionStatus.CONNECTED and self.suite is None:
            raise ValueError("CONNECTED requires a suite")

    @property
    def connected(self) -> bool:
        return self.status is SessionStatus.CONNECTED


class UserDecisionSource(Protocol):
    def approve_fallback(self, description: str) -> bool: ...


class _ConstantDecision:
    def __init__(self, answer: bool) -> None:
        self._answer = answer

    def approve_fallback(self, description: str) -> bool:
        return self._answer


ALWAYS_PROCEED: UserDecisionSource = _ConstantDecision(True)
ALWAYS_ABORT: UserDecisionSource = _ConstantDecision(False)


class ScriptedDecisions:
    """Answers fallback prompts from a fixed script; overruns raise."""

    def __init__(self, answers: Iterable[bool]) -> None:
        self._answers = list(answers)
        self.prompts: list[str] = []

    def approve_fallback(self, description: str) -> bool:
        self.prompts.append(description)
        if not self._answers:
            raise RuntimeError("decision script exhausted at: %s" % description)
        return self._answers.pop(0)


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


# One pool for the parallel rungs of every connect: a pool per connect paid
# for starting its threads on each call, which alone could push a parallel
# connect past 1.5x a DEFAULT one. Threads start on first use.
_RUNG_POOL = ThreadPoolExecutor(
    max_workers=max(len(ladder) for ladder in LADDERS.values()),
    thread_name_prefix="befs-rung",
)


def connect(
    address: str,
    cfg: PolicyConfig,
    user: UserDecisionSource = ALWAYS_PROCEED,
    *,
    connector: Connector,
    sni: bool = False,
    tag: str = "",
    seed: int = 0,
) -> SessionOutcome:
    """Walk LADDERS[cfg.mode] from the strongest offer to the widest.

    Sequentially, each rung is tried only after the one before it failed,
    silently (SILENT), behind a user decision (INTERACTIVE) or with the
    fallback signal on the widened offer (SIGNALED). With PARALLEL, every
    rung is sent at once, all answers are awaited, and the strongest
    selecting rung wins. The rungs run on one module-wide pool sized for
    the longest ladder, so concurrent parallel connects share those
    workers and their rungs queue for a free one. DEFAULT has a single
    rung, so it ignores the style. With ``sni``, the hello names the
    address's host (see handshake_attempt).
    """
    ladder = LADDERS[cfg.mode]

    def attempt(depth: int, profile: ProfileKind, signal: bool = False) -> AttemptResult:
        return handshake_attempt(
            connector,
            address,
            PROFILES[profile].suites,
            cfg.timeout_s,
            sni=sni,
            tag=tag,
            seed=seed,
            label="%s/%s/%d" % (cfg.mode.value, profile.value, depth),
            signal_fallback=signal,
        )

    status = SessionStatus.FAILED
    if cfg.fallback is FallbackStyle.PARALLEL and len(ladder) > 1:
        futures = [_RUNG_POOL.submit(attempt, d, p) for d, p in enumerate(ladder)]
        attempts = [f.result() for f in futures]  # join-all barrier
    else:
        attempts = []
        for depth, profile in enumerate(ladder):
            if depth > 0 and cfg.fallback is FallbackStyle.INTERACTIVE:
                if not user.approve_fallback(describe_fallback(address, profile)):
                    status = SessionStatus.ABORTED_BY_USER
                    break
            result = attempt(depth, profile, cfg.fallback is FallbackStyle.SIGNALED and depth > 0)
            attempts.append(result)
            if result.selected:
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
    )


@dataclass(frozen=True)
class ModeStats:
    max_s: float
    min_s: float
    avg_s: float
    attempts_avg: float
    samples: int


@dataclass(frozen=True)
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
    name, as in ``scan``.
    """
    if repetitions < 1:
        raise ValueError("repetitions must be at least 1")
    walls: dict[PolicyMode, list[float]] = {m: [] for m in BENCH_MODES}
    attempts: dict[PolicyMode, list[int]] = {m: [] for m in BENCH_MODES}
    excluded: list[str] = []
    responders = 0
    for address in addresses:
        local_walls: dict[PolicyMode, list[float]] = {m: [] for m in BENCH_MODES}
        local_attempts: dict[PolicyMode, list[int]] = {m: [] for m in BENCH_MODES}
        ok = True
        for _ in range(repetitions):
            for mode in BENCH_MODES:
                cfg = PolicyConfig(mode=mode, timeout_s=timeout_s)
                start = time.perf_counter()
                outcome = connect(address, cfg, connector=connector, sni=sni, seed=seed)
                wall = time.perf_counter() - start
                if not outcome.connected:
                    ok = False
                    break
                local_walls[mode].append(wall)
                local_attempts[mode].append(outcome.handshake_attempts)
            if not ok:
                break
        if not ok:
            excluded.append(address)
            continue
        responders += 1
        for mode in BENCH_MODES:
            walls[mode].extend(local_walls[mode])
            attempts[mode].extend(local_attempts[mode])
    per_mode = {}
    for mode in BENCH_MODES:
        ws = walls[mode]
        if ws:
            per_mode[mode] = ModeStats(
                max_s=max(ws),
                min_s=min(ws),
                avg_s=sum(ws) / len(ws),
                attempts_avg=sum(attempts[mode]) / len(attempts[mode]),
                samples=len(ws),
            )
    return BenchReport(
        per_mode=per_mode,
        repetitions=repetitions,
        responders=responders,
        excluded=tuple(excluded),
    )
