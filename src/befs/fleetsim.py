"""Simulated server fleets with ground-truth labels.

Generates deterministic populations of negotiation policies across six
archetypes, serves them over an in-memory transport or real loopback
sockets, and wraps endpoints in channel/discriminatory adversaries.
Every truth label is recomputed from the policy itself, so tests always
have an independent oracle.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
import json
import math
import os
import random
import selectors
import socket
import sys
import threading
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterable, Iterator, Optional

from . import wire
from .handshake import ClientIdentity, ConnectFailed, TcpConnector
from .inspection import Classification
from .negotiate import NegotiationResult, SelectionRule, ServerPolicy, select
from .suites import (
    DEFAULT,
    DEFAULT_ORDER,
    FALLBACK_SIGNAL,
    FS_AE_ONLY,
    FS_ONLY,
    REGISTRY,
    is_ae,
    is_fs,
)


class InvalidSpec(Exception):
    """Fleet spec violates its invariants."""


class BindFailure(Exception):
    """Could not bind a loopback listener."""


class Archetype(Enum):
    FS_PREFERRING = "FS_PREFERRING"
    FS_SUPPORTING_NONFS_PREFERRING = "FS_SUPPORTING_NONFS_PREFERRING"
    NONFS_ONLY = "NONFS_ONLY"
    FS_NONAE_ONLY = "FS_NONAE_ONLY"
    LEGACY_PRE_TLS12 = "LEGACY_PRE_TLS12"
    UNRESPONSIVE = "UNRESPONSIVE"


class Transport(Enum):
    IN_MEMORY = "IN_MEMORY"
    LOOPBACK_SOCKET = "LOOPBACK_SOCKET"


@dataclass(frozen=True)
class LatencyModel:
    """Per-handshake delay: base plus uniform jitter, in milliseconds."""

    base_ms: float = 0.0
    jitter_ms: float = 0.0

    def __post_init__(self) -> None:
        for name in ("base_ms", "jitter_ms"):
            if not 0 <= getattr(self, name) <= sys.float_info.max:  # false for NaN too
                raise InvalidSpec("latency %s must be finite and non-negative" % name)

    def sample_s(self, rng: random.Random) -> float:
        delay = self.base_ms
        if self.jitter_ms:
            delay += rng.uniform(0.0, self.jitter_ms)
        return delay / 1000.0


@dataclass(frozen=True)
class FleetSpec:
    size: int
    seed: int
    mix: dict[Archetype, float]
    network_device_fraction: float = 0.0
    latency: LatencyModel = LatencyModel()

    def __post_init__(self) -> None:
        if self.size < 1:
            raise InvalidSpec("size must be >= 1")
        if not self.mix:
            raise InvalidSpec("mix must name at least one archetype")
        for arch, p in self.mix.items():
            if not isinstance(arch, Archetype):
                raise InvalidSpec("mix keys must be archetypes, got %r" % (arch,))
            if not 0 <= p <= 1:  # false for NaN too
                raise InvalidSpec("mix proportion for %s must be within [0, 1]" % arch.value)
        total = sum(self.mix.values())
        if abs(total - 1.0) > 1e-9:
            raise InvalidSpec("mix proportions sum to %g, expected 1" % total)
        if not 0.0 <= self.network_device_fraction <= 1.0:
            raise InvalidSpec("network_device_fraction must be within [0, 1]")


FLEET_SPEC_KEYS = {"size", "seed", "mix", "network_device_fraction", "latency"}


_NUMBER = (int, float)
_JSON_TYPE_NAMES = {dict: "an object", int: "an integer", _NUMBER: "a number"}


def _json(value, kind, what: str):
    """``value`` if it loaded from JSON as ``kind``; true and false are not numbers."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise InvalidSpec("%s must be %s, got %r" % (what, _JSON_TYPE_NAMES[kind], value))
    return value


def fleet_spec_from_dict(data: dict) -> FleetSpec:
    """Build a spec from the documented config keys.

    Keys: size (int), seed (int), mix (archetype name -> proportion),
    network_device_fraction (number, optional), latency
    ({base_ms, jitter_ms}, optional). FleetSpec and LatencyModel check
    the ranges.
    """
    unknown = set(_json(data, dict, "a fleet spec")) - FLEET_SPEC_KEYS
    if unknown:
        raise InvalidSpec("unknown fleet spec keys: %s" % ", ".join(sorted(unknown)))
    try:
        mix_raw = _json(data["mix"], dict, "mix")
        size = _json(data["size"], int, "size")
        seed = _json(data["seed"], int, "seed")
    except KeyError as exc:
        raise InvalidSpec("missing fleet spec key: %s" % exc) from exc
    mix = {}
    for name, p in mix_raw.items():
        try:
            arch = Archetype(name)
        except ValueError:
            raise InvalidSpec("unknown archetype %r" % name) from None
        mix[arch] = _json(p, _NUMBER, "mix proportion for %s" % name)
    lat = _json(data.get("latency", {}), dict, "latency")
    extra = set(lat) - {"base_ms", "jitter_ms"}
    if extra:
        raise InvalidSpec("unknown latency keys: %s" % ", ".join(sorted(extra)))
    fraction = data.get("network_device_fraction", 0.0)
    return FleetSpec(
        size=size,
        seed=seed,
        mix=mix,
        network_device_fraction=_json(fraction, _NUMBER, "network_device_fraction"),
        latency=LatencyModel(
            _json(lat.get("base_ms", 0.0), _NUMBER, "latency base_ms"),
            _json(lat.get("jitter_ms", 0.0), _NUMBER, "latency jitter_ms"),
        ),
    )


def load_fleet_spec(path: str) -> FleetSpec:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InvalidSpec("cannot read %s: %s" % (path, exc)) from exc
    except json.JSONDecodeError as exc:
        raise InvalidSpec("%s is not valid JSON: %s" % (path, exc)) from exc
    return fleet_spec_from_dict(data)


@dataclass(frozen=True)
class GroundTruth:
    supports_fs: bool
    supports_fs_ae: bool
    selects_fs_by_default: bool
    device_type: str = ""


def policy_truth(policy: ServerPolicy, device_type: str = "") -> GroundTruth:
    default_pick = select(policy, DEFAULT.suites, wire.TLS1_2)
    return GroundTruth(
        supports_fs=bool(policy.supported & set(FS_ONLY.suites)),
        supports_fs_ae=bool(policy.supported & set(FS_AE_ONLY.suites)),
        selects_fs_by_default=default_pick.selected and is_fs(default_pick.suite),
        device_type=device_type,
    )


@dataclass(frozen=True)
class ExpectedInspection:
    classification: Classification
    prior_suite_ae: bool = False
    lose_ae: bool = False


def expected_inspection(policy: ServerPolicy, client_max: int = wire.TLS1_2) -> ExpectedInspection:
    """Replay the three-profile decision tree against a known policy.

    This walks negotiate.select directly, independently of the live
    inspection path, so it serves as the classification oracle.
    """
    r1 = select(policy, DEFAULT.suites, client_max)
    if not r1.selected:
        return ExpectedInspection(Classification.ERROR_H1)
    if is_fs(r1.suite):
        return ExpectedInspection(Classification.CHANGED_BEHAVIOR)
    prior_ae = is_ae(r1.suite)
    r2 = select(policy, FS_ONLY.suites, client_max)
    if not r2.selected:
        return ExpectedInspection(Classification.STABLE_NO_FS_SUPPORT, prior_ae, False)
    if is_ae(r2.suite):
        return ExpectedInspection(Classification.STABLE_SUPPORTS_FS_AE, prior_ae, False)
    lose_ae = prior_ae
    r3 = select(policy, FS_AE_ONLY.suites, client_max)
    if not r3.selected:
        return ExpectedInspection(Classification.STABLE_SUPPORTS_FS_NONAE_ONLY, prior_ae, lose_ae)
    return ExpectedInspection(
        Classification.STABLE_FS_NONAE_BUT_SUPPORTS_FS_AE, prior_ae, lose_ae
    )


def expected_for_server(server: "SimServer") -> ExpectedInspection:
    if server.archetype is Archetype.UNRESPONSIVE:
        return ExpectedInspection(Classification.TIMEOUT)
    return expected_inspection(server.policy)


def expected_scan_selection(policy: ServerPolicy) -> NegotiationResult:
    return select(policy, DEFAULT.suites, wire.TLS1_2)


def server_random(seed: int, index: int, counter: int) -> bytes:
    """ServerHello random of server `index`'s `counter`-th hello in fleet `seed`.

    A hash, as the client's random is, so a server holds no RNG state and
    no two (seed, index, counter) triples share an input.
    """
    return hashlib.sha256(b"server|%d|%d|%d" % (seed, index, counter)).digest()


def answer_offer(
    policy: ServerPolicy,
    supports_fs: bool,
    honors_signal: bool,
    raw: bytes,
    next_random: Callable[[], bytes],
) -> bytes:
    """Honest server behavior for one ClientHello, as wire bytes."""
    try:
        ch = wire.decode_client_hello(raw)
    except wire.WireError:
        return wire.encode_alert(wire.AlertMsg(wire.AlertLevel.FATAL, wire.DECODE_ERROR))
    if honors_signal and supports_fs and FALLBACK_SIGNAL in ch.cipher_suites:
        # The client says this offer is a fallback; a server that could
        # have answered the stronger first flight refuses it.
        return wire.encode_alert(
            wire.AlertMsg(wire.AlertLevel.FATAL, wire.INAPPROPRIATE_FALLBACK)
        )
    res = select(policy, ch.cipher_suites, ch.legacy_version)
    if not res.selected:
        return wire.encode_alert(wire.AlertMsg(wire.AlertLevel.FATAL, wire.HANDSHAKE_FAILURE))
    summary = wire.ServerHelloSummary(res.version, res.suite)
    return wire.encode_server_hello(summary, random=next_random())


@dataclass(eq=False)
class SimServer:
    server_id: str
    archetype: Archetype
    policy: ServerPolicy
    truth: GroundTruth
    honors_fallback_signal: bool = True
    address: str = ""  # assigned when served
    # Fleet seed and position: with a count of hellos sent, they name
    # each ServerHello random (see server_random).
    seed: int = 0
    index: int = 0
    _hellos: Iterator[int] = field(default_factory=itertools.count, init=False, repr=False)

    def next_random(self) -> bytes:
        return server_random(self.seed, self.index, next(self._hellos))

    def respond(self, raw: bytes, client: ClientIdentity) -> Optional[bytes]:
        """Reply bytes, or None to stall the connection."""
        if self.archetype is Archetype.UNRESPONSIVE:
            return None
        return answer_offer(
            self.policy, self.truth.supports_fs, self.honors_fallback_signal, raw,
            self.next_random,
        )


FS_SUITES = list(FS_ONLY.suites)
FS_AE_SUITES = list(FS_AE_ONLY.suites)
FS_NONAE_SUITES = [cp for cp in FS_ONLY.suites if not is_ae(cp)]
NONFS_SUITES = [cp for cp in DEFAULT_ORDER if not is_fs(cp)]
NONFS_AE_SUITES = [cp for cp in NONFS_SUITES if is_ae(cp)]
NONFS_NONAE_SUITES = [cp for cp in NONFS_SUITES if not is_ae(cp)]
DHE_SUITES = [cp for cp in REGISTRY if cp not in DEFAULT_ORDER]
LEGACY_POOL = FS_NONAE_SUITES + NONFS_NONAE_SUITES  # nothing AEAD predates TLS 1.2 here

DEVICE_LABELS = (
    "DSL/cable modem",
    "broadband router",
    "firewall",
    "NAS",
    "IP camera",
    "printer",
)


def _versions(rng: random.Random) -> frozenset[int]:
    vs = {wire.TLS1_2}
    if rng.random() < 0.4:
        vs.add(wire.TLS1_1)
    if rng.random() < 0.3:
        vs.add(wire.TLS1_0)
    return frozenset(vs)


def _maybe_dhe(rng: random.Random) -> list[int]:
    if rng.random() < 0.25:
        return rng.sample(DHE_SUITES, rng.randint(1, len(DHE_SUITES)))
    return []


def _rule(rng: random.Random, allow_client_pref: bool) -> SelectionRule:
    if allow_client_pref and rng.random() < 0.2:
        return SelectionRule.CLIENT_PREFERENCE
    return SelectionRule.SERVER_PREFERENCE


def _shuffled(rng: random.Random, items: list[int]) -> list[int]:
    out = items[:]
    rng.shuffle(out)
    return out


def _fs_preferring(rng: random.Random) -> ServerPolicy:
    fs_part = rng.sample(FS_SUITES, rng.randint(1, len(FS_SUITES)))
    rest = rng.sample(NONFS_SUITES, rng.randint(0, len(NONFS_SUITES))) + _maybe_dhe(rng)
    pref = _shuffled(rng, fs_part) + _shuffled(rng, rest)
    return ServerPolicy(
        frozenset(pref), tuple(pref), _versions(rng), _rule(rng, allow_client_pref=True)
    )


def _fs_supporting_nonfs_preferring(rng: random.Random) -> ServerPolicy:
    fs_part = rng.sample(FS_SUITES, rng.randint(1, len(FS_SUITES)))
    nonfs_part = rng.sample(NONFS_SUITES, rng.randint(1, len(NONFS_SUITES)))
    front = _shuffled(rng, nonfs_part + _maybe_dhe(rng))
    pref = front + _shuffled(rng, fs_part)
    return ServerPolicy(frozenset(pref), tuple(pref), _versions(rng))


def _nonfs_only(rng: random.Random) -> ServerPolicy:
    pool = rng.sample(NONFS_SUITES, rng.randint(1, len(NONFS_SUITES))) + _maybe_dhe(rng)
    pref = _shuffled(rng, pool)
    return ServerPolicy(
        frozenset(pref), tuple(pref), _versions(rng), _rule(rng, allow_client_pref=True)
    )


def _fs_nonae_only(rng: random.Random) -> ServerPolicy:
    fs_cbc = rng.sample(FS_NONAE_SUITES, rng.randint(1, len(FS_NONAE_SUITES)))
    if rng.random() < 0.5:
        # AE suite preferred first: guiding this server to FS costs AE.
        head = rng.choice(NONFS_AE_SUITES)
    else:
        head = rng.choice(NONFS_NONAE_SUITES)
    rest = [cp for cp in NONFS_SUITES if cp != head]
    tail = rng.sample(rest, rng.randint(0, len(rest)))
    pref = [head] + _shuffled(rng, tail + _maybe_dhe(rng)) + _shuffled(rng, fs_cbc)
    return ServerPolicy(frozenset(pref), tuple(pref), _versions(rng))


def _legacy(rng: random.Random) -> ServerPolicy:
    pool = rng.sample(LEGACY_POOL, rng.randint(1, len(LEGACY_POOL)))
    if rng.random() < 0.25:
        pool += [0x0033]  # DHE CBC suite, plausible on old stacks
    pref = _shuffled(rng, pool)
    vs = rng.choice(
        [frozenset({wire.TLS1_0}), frozenset({wire.TLS1_1}), frozenset({wire.TLS1_0, wire.TLS1_1})]
    )
    return ServerPolicy(frozenset(pref), tuple(pref), vs, _rule(rng, allow_client_pref=True))


def _unresponsive(rng: random.Random) -> ServerPolicy:
    return ServerPolicy(frozenset({0x002F}), (0x002F,), frozenset({wire.TLS1_2}))


_BUILDERS: dict[Archetype, Callable[[random.Random], ServerPolicy]] = {
    Archetype.FS_PREFERRING: _fs_preferring,
    Archetype.FS_SUPPORTING_NONFS_PREFERRING: _fs_supporting_nonfs_preferring,
    Archetype.NONFS_ONLY: _nonfs_only,
    Archetype.FS_NONAE_ONLY: _fs_nonae_only,
    Archetype.LEGACY_PRE_TLS12: _legacy,
    Archetype.UNRESPONSIVE: _unresponsive,
}

# Forced-truth checks per archetype; generation re-rolls until they hold.
_ARCHETYPE_REQUIREMENTS: dict[Archetype, Callable[[GroundTruth], bool]] = {
    Archetype.FS_PREFERRING: lambda t: t.supports_fs and t.selects_fs_by_default,
    Archetype.FS_SUPPORTING_NONFS_PREFERRING: lambda t: t.supports_fs
    and not t.selects_fs_by_default,
    Archetype.NONFS_ONLY: lambda t: not t.supports_fs,
    Archetype.FS_NONAE_ONLY: lambda t: t.supports_fs
    and not t.supports_fs_ae
    and not t.selects_fs_by_default,
    Archetype.LEGACY_PRE_TLS12: lambda t: not t.supports_fs_ae,
    Archetype.UNRESPONSIVE: lambda t: True,
}


def archetype_counts(spec: FleetSpec) -> dict[Archetype, int]:
    """Largest-remainder apportionment of spec.size over the mix."""
    exact = {a: spec.size * p for a, p in spec.mix.items() if p > 0}
    counts = {a: math.floor(x) for a, x in exact.items()}
    shortfall = spec.size - sum(counts.values())
    by_remainder = sorted(exact, key=lambda a: (counts[a] - exact[a], a.value))
    for arch in by_remainder[:shortfall]:
        counts[arch] += 1
    return counts


def generate_fleet(spec: FleetSpec) -> list[SimServer]:
    rng = random.Random(spec.seed)
    counts = archetype_counts(spec)
    servers: list[SimServer] = []
    for arch in Archetype:  # fixed iteration order keeps generation deterministic
        for _ in range(counts.get(arch, 0)):
            build = _BUILDERS[arch]
            needs = _ARCHETYPE_REQUIREMENTS[arch]
            while True:
                policy = build(rng)
                truth = policy_truth(policy)
                if needs(truth):
                    break
            index = len(servers)
            servers.append(
                SimServer(
                    server_id="srv-%04d" % index,
                    archetype=arch,
                    policy=policy,
                    truth=truth,
                    seed=spec.seed,
                    index=index,
                )
            )
    device_count = round(spec.network_device_fraction * len(servers))
    for server in rng.sample(servers, device_count):
        label = rng.choice(DEVICE_LABELS)
        server.truth = GroundTruth(
            server.truth.supports_fs,
            server.truth.supports_fs_ae,
            server.truth.selects_fs_by_default,
            device_type=label,
        )
    return servers


# ---------------------------------------------------------------------------
# Adversaries


class AdversaryKind(Enum):
    PASSIVE = "PASSIVE"
    ACTIVE_DROPPER = "ACTIVE_DROPPER"
    DISCRIMINATORY_WEAK = "DISCRIMINATORY_WEAK"
    DISCRIMINATORY_STRONG = "DISCRIMINATORY_STRONG"


def offer_is_all_fs(ch: wire.ClientHelloMsg) -> bool:
    real = [s for s in ch.cipher_suites if s != FALLBACK_SIGNAL]
    return bool(real) and all(is_fs(s) for s in real)


@dataclass
class AdversaryConfig:
    kind: AdversaryKind
    # None matches every client.
    target_predicate: Optional[Callable[[ClientIdentity], bool]] = None

    def matches(self, client: ClientIdentity) -> bool:
        return self.target_predicate is None or self.target_predicate(client)


@dataclass(frozen=True)
class TranscriptEntry:
    address: str
    client: ClientIdentity
    request: bytes
    response: Optional[bytes]
    at: float


class PassiveTap:
    """Records every exchange, alters nothing."""

    def __init__(self, inner: SimServer):
        self.inner = inner
        self.transcript: list[TranscriptEntry] = []
        self._lock = threading.Lock()

    def respond(self, raw: bytes, client: ClientIdentity) -> Optional[bytes]:
        response = self.inner.respond(raw, client)
        entry = TranscriptEntry(self.inner.address, client, raw, response, time.time())
        with self._lock:
            self.transcript.append(entry)
        return response


class ActiveDropper:
    """Drops offers of only FS suites from matched clients; forwards the rest untouched."""

    def __init__(self, inner: SimServer, cfg: AdversaryConfig):
        self.inner = inner
        self.cfg = cfg
        self.dropped = 0

    def respond(self, raw: bytes, client: ClientIdentity) -> Optional[bytes]:
        try:
            ch = wire.decode_client_hello(raw)
        except wire.WireError:
            ch = None
        if ch is not None and self.cfg.matches(client) and offer_is_all_fs(ch):
            self.dropped += 1
            return None
        return self.inner.respond(raw, client)


def _non_fs_first(policy: ServerPolicy) -> ServerPolicy:
    front = [s for s in policy.preference if not is_fs(s)]
    back = [s for s in policy.preference if is_fs(s)]
    return ServerPolicy(
        policy.supported,
        tuple(front + back),
        policy.versions,
        SelectionRule.SERVER_PREFERENCE,
    )


class DiscriminatoryServer:
    """Semi-trusted server that steers matched clients toward non-FS.

    Weak form answers every offer honestly out of a non-FS-first
    preference; strong form additionally refuses offers that contain
    only FS suites.  Either form ignores the fallback signal: a server
    steering clients downward has no interest in policing downgrades.
    """

    def __init__(self, inner: SimServer, cfg: AdversaryConfig, strong: bool):
        self.inner = inner
        self.cfg = cfg
        self.strong = strong
        self._steered = _non_fs_first(inner.policy)

    def respond(self, raw: bytes, client: ClientIdentity) -> Optional[bytes]:
        if self.inner.archetype is Archetype.UNRESPONSIVE:
            return None
        if not self.cfg.matches(client):
            return self.inner.respond(raw, client)
        if self.strong:
            try:
                ch = wire.decode_client_hello(raw)
            except wire.WireError:
                return wire.encode_alert(wire.AlertMsg(wire.AlertLevel.FATAL, wire.DECODE_ERROR))
            if offer_is_all_fs(ch):
                return wire.encode_alert(
                    wire.AlertMsg(wire.AlertLevel.FATAL, wire.HANDSHAKE_FAILURE)
                )
        return answer_offer(
            self._steered,
            supports_fs=self.inner.truth.supports_fs,
            honors_signal=False,
            raw=raw,
            next_random=self.inner.next_random,
        )


def apply_adversary(endpoint, cfg: Optional[AdversaryConfig]):
    """Wrap one endpoint per the adversary config; None is identity."""
    if cfg is None:
        return endpoint
    if cfg.kind is AdversaryKind.PASSIVE:
        return PassiveTap(endpoint)
    if cfg.kind is AdversaryKind.ACTIVE_DROPPER:
        return ActiveDropper(endpoint, cfg)
    if cfg.kind is AdversaryKind.DISCRIMINATORY_WEAK:
        return DiscriminatoryServer(endpoint, cfg, strong=False)
    if cfg.kind is AdversaryKind.DISCRIMINATORY_STRONG:
        return DiscriminatoryServer(endpoint, cfg, strong=True)
    raise ValueError("unhandled adversary kind %r" % cfg.kind)


# ---------------------------------------------------------------------------
# Transports


class _Gauge:
    """Lock-protected in-flight connection counter with high-water mark."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.current = 0
        self.max_seen = 0

    def enter(self) -> None:
        with self._lock:
            self.current += 1
            if self.current > self.max_seen:
                self.max_seen = self.current

    def leave(self) -> None:
        with self._lock:
            self.current -= 1


class _MemoryConnector:
    def __init__(self, harness: "MemoryHarness") -> None:
        self._h = harness

    def exchange(
        self, address: str, raw: bytes, timeout_s: float, client: ClientIdentity
    ) -> bytes:
        h = self._h
        if h.stopped:
            raise ConnectFailed("harness stopped")
        endpoint = h.endpoints.get(address)
        if endpoint is None:
            raise ConnectFailed("no server at %s" % address)
        h.gauge.enter()
        try:
            reply = endpoint.respond(raw, client)
            delay_s = h.latency.sample_s(h.latency_rng)
            if reply is None or delay_s >= timeout_s:
                time.sleep(timeout_s)
                raise TimeoutError("no response from %s within %gs" % (address, timeout_s))
            if delay_s > 0:
                time.sleep(delay_s)
            return reply
        finally:
            h.gauge.leave()


class Harness:
    """What every running fleet shares: servers, endpoints, latency, gauge.

    Plain instance attributes, since the memory connector reads them on
    every handshake. Subclasses assign each server its address and add
    its endpoint, then provide connector().
    """

    def __init__(self, servers: Iterable[SimServer], latency: LatencyModel, seed: int) -> None:
        self.servers = list(servers)
        self.endpoints = {}
        self.latency = latency
        self.latency_rng = random.Random(seed ^ 0x1A7E)
        self.gauge = _Gauge()
        self.stopped = False

    @property
    def addresses(self) -> list[str]:
        return [s.address for s in self.servers]

    @property
    def address_of(self) -> dict[str, str]:
        return {s.server_id: s.address for s in self.servers}

    @property
    def max_in_flight(self) -> int:
        return self.gauge.max_seen

    def stop(self) -> None:
        self.stopped = True

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


class MemoryHarness(Harness):
    """Synchronous in-process fleet; addresses are the server ids."""

    def __init__(
        self,
        servers: Iterable[SimServer],
        *,
        adversary: Optional[AdversaryConfig] = None,
        latency: LatencyModel = LatencyModel(),
        seed: int = 0,
    ) -> None:
        super().__init__(servers, latency, seed)
        for server in self.servers:
            server.address = server.server_id
            self.endpoints[server.address] = apply_adversary(server, adversary)

    def connector(self) -> _MemoryConnector:
        return _MemoryConnector(self)


# sentinel stored in a connection slot once the server answered or stalled
_CONN_DONE = object()


class SocketHarness(Harness):
    """Loopback TCP fleet: one listener per server, one event-loop thread.

    The loop owns every socket; endpoint.respond runs inline (it is pure
    computation), and latency is applied by scheduling the reply rather
    than sleeping, so one thread serves the whole fleet.
    """

    def __init__(
        self,
        servers: Iterable[SimServer],
        *,
        adversary: Optional[AdversaryConfig] = None,
        latency: LatencyModel = LatencyModel(),
        seed: int = 0,
    ) -> None:
        super().__init__(servers, latency, seed)
        self._sel = selectors.DefaultSelector()
        self._listeners: list[socket.socket] = []
        self._conns: dict[socket.socket, list] = {}  # conn -> [endpoint, buffer|DONE]
        self._pending: list[tuple[float, int, socket.socket, bytes]] = []
        self._seq = 0
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._sel.register(self._wake_r, selectors.EVENT_READ, ("wake", None))
        try:
            for server in self.servers:
                sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
                try:
                    sock.bind(("127.0.0.1", 0))
                except OSError as exc:
                    sock.close()
                    raise BindFailure("bind failed after %d listeners: %s" % (len(self._listeners), exc)) from exc
                sock.listen(128)
                sock.setblocking(False)
                host, port = sock.getsockname()
                server.address = "%s:%d" % (host, port)
                endpoint = apply_adversary(server, adversary)
                self.endpoints[server.address] = endpoint
                self._listeners.append(sock)
                self._sel.register(sock, selectors.EVENT_READ, ("listen", endpoint))
        except BaseException:
            self._close_all()
            raise
        self._thread = threading.Thread(target=self._run, name="fleet-loop", daemon=True)
        self._thread.start()

    def connector(self) -> TcpConnector:
        return TcpConnector()

    def stop(self) -> None:
        if self.stopped:
            return
        self.stopped = True
        try:
            self._wake_w.send(b"x")
        except OSError:
            pass
        self._thread.join(timeout=10)
        self._close_all()

    def _close_all(self) -> None:
        for sock in self._listeners:
            try:
                self._sel.unregister(sock)
            except (KeyError, ValueError):
                pass
            sock.close()
        for conn in list(self._conns):
            self._drop_conn(conn)
        self._listeners.clear()
        try:
            self._sel.unregister(self._wake_r)
        except (KeyError, ValueError):
            pass
        self._wake_r.close()
        self._wake_w.close()
        self._sel.close()

    def _drop_conn(self, conn: socket.socket) -> None:
        if conn in self._conns:
            del self._conns[conn]
            self.gauge.leave()
        try:
            self._sel.unregister(conn)
        except (KeyError, ValueError):
            pass
        try:
            conn.close()
        except OSError:
            pass

    def _run(self) -> None:
        while not self.stopped:
            timeout = None
            if self._pending:
                timeout = max(0.0, self._pending[0][0] - time.perf_counter())
            for key, _ in self._sel.select(timeout):
                kind = key.data[0]
                if kind == "wake":
                    try:
                        self._wake_r.recv(64)
                    except OSError:
                        pass
                elif kind == "listen":
                    self._accept(key.fileobj, key.data[1])
                else:
                    self._readable(key.fileobj)
            now = time.perf_counter()
            while self._pending and self._pending[0][0] <= now:
                _, _, conn, payload = heapq.heappop(self._pending)
                if conn not in self._conns:
                    continue
                try:
                    conn.sendall(payload)
                except OSError:
                    pass
                self._drop_conn(conn)

    def _accept(self, listener: socket.socket, endpoint) -> None:
        try:
            conn, _peer = listener.accept()
        except OSError:
            return
        conn.setblocking(False)
        self._conns[conn] = [endpoint, bytearray()]
        self.gauge.enter()
        self._sel.register(conn, selectors.EVENT_READ, ("conn", None))

    def _readable(self, conn: socket.socket) -> None:
        slot = self._conns.get(conn)
        if slot is None:
            return
        try:
            chunk = conn.recv(4096)
        except BlockingIOError:
            return
        except OSError:
            self._drop_conn(conn)
            return
        if not chunk:
            self._drop_conn(conn)
            return
        if slot[1] is _CONN_DONE:
            return  # request already answered or deliberately stalled
        slot[1].extend(chunk)
        buf = slot[1]
        if len(buf) < 5:
            return
        total = 5 + int.from_bytes(buf[3:5], "big")
        if len(buf) < total:
            return
        raw = bytes(buf[:total])
        reply = slot[0].respond(raw, ClientIdentity())
        slot[1] = _CONN_DONE
        if reply is None:
            return  # stall: hold the connection open, client times out
        due = time.perf_counter() + self.latency.sample_s(self.latency_rng)
        self._seq += 1
        heapq.heappush(self._pending, (due, self._seq, conn, reply))


def serve(
    fleet: Iterable[SimServer],
    transport: Transport,
    *,
    adversary: Optional[AdversaryConfig] = None,
    latency: LatencyModel = LatencyModel(),
    seed: int = 0,
) -> Harness:
    """Running harness for the fleet; stop() or use as a context manager."""
    if transport is Transport.IN_MEMORY:
        return MemoryHarness(fleet, adversary=adversary, latency=latency, seed=seed)
    if transport is Transport.LOOPBACK_SOCKET:
        return SocketHarness(fleet, adversary=adversary, latency=latency, seed=seed)
    raise ValueError("unknown transport %r" % transport)


def truth_records(servers: Iterable[SimServer], campaign: str = "") -> list[dict]:
    """Ground-truth export, one line-delimited record per server."""
    out = []
    for s in servers:
        expected = expected_for_server(s)
        out.append(
            {
                "kind": "truth",
                "campaign": campaign,
                "server_id": s.server_id,
                "address": s.address,
                "archetype": s.archetype.value,
                "supports_fs": s.truth.supports_fs,
                "supports_fs_ae": s.truth.supports_fs_ae,
                "selects_fs_by_default": s.truth.selects_fs_by_default,
                "device_type": s.truth.device_type,
                "honors_fallback_signal": s.honors_fallback_signal,
                "expected_classification": expected.classification.value,
                "expected_prior_suite_ae": expected.prior_suite_ae,
                "expected_lose_ae": expected.lose_ae,
            }
        )
    return out
