"""Simulated server fleets with ground-truth labels.

Generates deterministic populations of negotiation policies across six
archetypes and serves them over an in-memory transport or real loopback
sockets. An adversary is the endpoint wrapper passed to ``serve``: it sees
only the ClientHello bytes, and the dropper and the discriminators target
clients by the hello's JA3 string (wire.fingerprint). A server stores
only what was drawn for it; every truth label is read off its policy
(policy_truth), so tests always have an independent oracle.
"""

from __future__ import annotations

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
from dataclasses import dataclass, field, fields
from enum import Enum
from typing import Callable, Iterable, Iterator, Optional, Protocol, Sequence

from . import wire
from .handshake import ConnectFailed, Connector, TcpConnector, sha256, sleep_until
from .inspection import Classification
from .negotiate import SelectionRule, ServerPolicy, select
from .records import record
from .suites import (
    AE_CODEPOINTS,
    DEFAULT,
    DEFAULT_ORDER,
    FALLBACK_SIGNAL,
    FS_AE_ONLY,
    FS_CODEPOINTS,
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
    IN_MEMORY = "memory"
    LOOPBACK_SOCKET = "socket"


@record
class LatencyModel:
    """Per-handshake delay: base plus uniform jitter, in milliseconds."""

    base_ms: float = 0.0
    jitter_ms: float = 0.0

    def __post_init__(self) -> None:
        for f in fields(self):
            if not 0 <= getattr(self, f.name) <= sys.float_info.max:  # false for NaN too
                raise InvalidSpec("latency %s must be finite and non-negative" % f.name)

    def sample_s(self, rng: random.Random) -> float:
        delay = self.base_ms
        if self.jitter_ms:
            delay += rng.uniform(0.0, self.jitter_ms)
        return delay / 1000.0


@record
class FleetSpec:
    size: int
    seed: int
    mix: dict[Archetype, float]
    network_device_fraction: float = 0.0
    latency: LatencyModel = LatencyModel()

    def __post_init__(self) -> None:
        if self.size < 1:
            raise InvalidSpec("size must be >= 1")
        if self.seed < 0:
            # random.Random(-n) seeds as random.Random(n) does: the two fleets would alias.
            raise InvalidSpec("seed must be >= 0")
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


FLEET_SPEC_KEYS = {f.name for f in fields(FleetSpec)}
_LATENCY_FIELDS = fields(LatencyModel)


_NUMBER = (int, float)
_JSON_TYPE_NAMES = {dict: "an object", int: "an integer", _NUMBER: "a number"}


def _json(value, kind, what: str):
    """``value`` if it loaded from JSON as ``kind``; true and false are not numbers."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise InvalidSpec("%s must be %s, got %r" % (what, _JSON_TYPE_NAMES[kind], value))
    return value


def _refuse_unknown_keys(mapping: dict, known: Iterable[str], what: str) -> None:
    unknown = set(mapping).difference(known)
    if unknown:  # a key that is not a string is unknown too, named by str()
        raise InvalidSpec("unknown %s keys: %s" % (what, ", ".join(sorted(map(str, unknown)))))


def fleet_spec_from_dict(data: dict) -> FleetSpec:
    """Build a spec from the documented config keys.

    Keys: size (int), seed (non-negative int), mix (archetype name -> proportion),
    network_device_fraction (number, optional), latency
    ({base_ms, jitter_ms}, optional). FleetSpec and LatencyModel check
    the ranges.
    """
    _refuse_unknown_keys(_json(data, dict, "a fleet spec"), FLEET_SPEC_KEYS, "fleet spec")
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
    _refuse_unknown_keys(lat, (f.name for f in _LATENCY_FIELDS), "latency")
    fraction = data.get("network_device_fraction", 0.0)
    return FleetSpec(
        size=size,
        seed=seed,
        mix=mix,
        network_device_fraction=_json(fraction, _NUMBER, "network_device_fraction"),
        latency=LatencyModel(**{
            f.name: _json(lat.get(f.name, f.default), _NUMBER, "latency " + f.name)
            for f in _LATENCY_FIELDS
        }),
    )


def load_fleet_spec(path: str) -> FleetSpec:
    """The spec in the UTF-8 JSON file at ``path``, BOM dropped; InvalidSpec names the file."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            data = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidSpec("cannot read %s: %s" % (path, exc)) from exc
    except json.JSONDecodeError as exc:
        raise InvalidSpec("%s is not valid JSON: %s" % (path, exc)) from exc
    return fleet_spec_from_dict(data)


@record
class GroundTruth:
    supports_fs: bool
    supports_fs_ae: bool
    selects_fs_by_default: bool
    device_type: str = ""


def policy_truth(policy: ServerPolicy, device_type: str = "") -> GroundTruth:
    """Ground truth read off ``policy`` alone; the drawn device label is passed through.

    FS support is in its suites, FS by default in its pick from a DEFAULT offer at TLS 1.2.
    """
    default_pick = select(policy, DEFAULT.suites, wire.TLS1_2)
    fs = FS_CODEPOINTS.intersection(policy.preference)
    return GroundTruth(
        supports_fs=bool(fs),
        supports_fs_ae=not fs.isdisjoint(AE_CODEPOINTS),
        selects_fs_by_default=default_pick is not None and is_fs(default_pick[1]),
        device_type=device_type,
    )


@record
class ExpectedInspection:
    classification: Classification
    prior_suite_ae: bool = False
    lose_ae: bool = False


def expected_inspection(policy: ServerPolicy) -> ExpectedInspection:
    """Replay the three-profile decision tree against a known policy.

    This walks negotiate.select directly, independently of the live
    inspection path, so it serves as the classification oracle.
    """
    r1 = select(policy, DEFAULT.suites, wire.TLS1_2)
    if r1 is None:
        return ExpectedInspection(Classification.ERROR_H1)
    if is_fs(r1[1]):
        return ExpectedInspection(Classification.CHANGED_BEHAVIOR)
    prior_ae = is_ae(r1[1])
    r2 = select(policy, FS_ONLY.suites, wire.TLS1_2)
    if r2 is None:
        return ExpectedInspection(Classification.STABLE_NO_FS_SUPPORT, prior_ae, False)
    if is_ae(r2[1]):
        return ExpectedInspection(Classification.STABLE_SUPPORTS_FS_AE, prior_ae, False)
    lose_ae = prior_ae
    if select(policy, FS_AE_ONLY.suites, wire.TLS1_2) is None:
        return ExpectedInspection(Classification.STABLE_SUPPORTS_FS_NONAE_ONLY, prior_ae, lose_ae)
    return ExpectedInspection(
        Classification.STABLE_FS_NONAE_BUT_SUPPORTS_FS_AE, prior_ae, lose_ae
    )


def expected_for_server(server: "SimServer") -> ExpectedInspection:
    if server.archetype is Archetype.UNRESPONSIVE:
        return ExpectedInspection(Classification.TIMEOUT)
    return expected_inspection(server.policy)


def server_random(seed: int, index: int, counter: int) -> bytes:
    """ServerHello random of server `index`'s `counter`-th hello in fleet `seed`.

    A hash, as the client's random is, so a server holds no RNG state and
    no two (seed, index, counter) triples share an input.
    """
    return sha256(b"server|%d|%d|%d" % (seed, index, counter)).digest()


# (legacy_version, cipher_suites) of a ClientHello, as wire.decode_client_hello reads it.
Offer = tuple[int, tuple[int, ...]]

_DECODE_ERROR_ALERT, _FALLBACK_ALERT, _HANDSHAKE_FAILURE_ALERT = (
    wire.encode_alert(wire.AlertMsg(wire.AlertLevel.FATAL, description))
    for description in (wire.DECODE_ERROR, wire.INAPPROPRIATE_FALLBACK, wire.HANDSHAKE_FAILURE)
)


def answer_offer(
    policy: ServerPolicy, honors_signal: bool, raw: bytes, next_random: Callable[[], bytes]
) -> bytes:
    """Honest server behavior for one ClientHello, as wire bytes."""
    try:
        version, suites = wire.decode_client_hello(raw)
    except wire.WireError:
        return _DECODE_ERROR_ALERT
    if (honors_signal and FALLBACK_SIGNAL in suites
            and not FS_CODEPOINTS.isdisjoint(policy.preference)):
        # The client says this offer is a fallback; a server that could
        # have answered the stronger first flight (it supports FS) refuses it.
        return _FALLBACK_ALERT
    picked = select(policy, suites, version)
    if picked is None:
        return _HANDSHAKE_FAILURE_ALERT
    return wire.encode_server_hello(*picked, next_random())


@dataclass(eq=False)
class SimServer:
    server_id: str
    archetype: Archetype
    policy: ServerPolicy
    honors_fallback_signal: bool = True
    device_type: str = ""  # the drawn network-device label; "" for none
    address: str = ""  # assigned when served
    # Fleet seed and position: with a count of hellos sent, they name
    # each ServerHello random (see server_random).
    seed: int = 0
    index: int = 0
    _hellos: Iterator[int] = field(default_factory=itertools.count, init=False, repr=False)
    # A declared field, not a cached_property: the instance dict keeps its shared keys.
    _truth: Optional[GroundTruth] = field(default=None, init=False, repr=False)

    @property
    def truth(self) -> GroundTruth:
        """policy_truth of its policy and device label, computed on first read, then kept."""
        if self._truth is None:
            self._truth = policy_truth(self.policy, self.device_type)
        return self._truth

    def next_random(self) -> bytes:
        return server_random(self.seed, self.index, next(self._hellos))

    def respond(self, raw: bytes) -> Optional[bytes]:
        """Reply bytes, or None to stall the connection."""
        if self.archetype is Archetype.UNRESPONSIVE:
            return None
        return answer_offer(self.policy, self.honors_fallback_signal, raw, self.next_random)


FS_SUITES = list(FS_ONLY.suites)
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


class _Draw:
    """The builders' draws, each the one random.Random makes, call for call.

    random.Random's randint, choice, sample and shuffle are Python layers
    over getrandbits; these make the same getrandbits calls without them,
    so a seed gives the fleet it gave through the stdlib methods. A policy
    therefore depends on getrandbits and random() only.
    """

    __slots__ = ("bits", "random")

    def __init__(self, rng: random.Random) -> None:
        self.bits = rng.getrandbits
        self.random = rng.random

    def below(self, n: int) -> int:
        """rng._randbelow(n): a uniform int in [0, n), by rejection."""
        k = n.bit_length()
        r = self.bits(k)
        while r >= n:
            r = self.bits(k)
        return r

    def choice(self, seq):
        return seq[self.below(len(seq))]

    def some(self, pop: list[int], low: int) -> list[int]:
        """rng.sample(pop, rng.randint(low, len(pop))), as a fresh list.

        Sample's pool branch, which the stdlib takes for any population of
        at most 21 items; every builder population is that small. Here and
        in shuffle the loop inlines below: a method call per item would cost
        more than the getrandbits call it wraps.
        """
        bits = self.bits
        n = len(pop)
        k = low + self.below(n - low + 1)
        pool = pop[:]
        out = []
        for m in range(n, n - k, -1):  # m items not yet chosen
            width = m.bit_length()
            j = bits(width)
            while j >= m:
                j = bits(width)
            out.append(pool[j])
            pool[j] = pool[m - 1]
        return out

    def shuffle(self, items: list) -> None:
        """rng.shuffle(items): in place, swapping from the top index down."""
        bits = self.bits
        for i in range(len(items) - 1, 0, -1):
            m = i + 1
            width = m.bit_length()
            j = bits(width)
            while j >= m:
                j = bits(width)
            items[i], items[j] = items[j], items[i]


# A policy's versions are one of these sets, shared by every server that draws it.
_LEGACY_VERSIONS = (
    frozenset({wire.TLS1_0}), frozenset({wire.TLS1_1}), frozenset({wire.TLS1_0, wire.TLS1_1})
)
_VERSIONS = {  # keyed by (adds TLS 1.1, adds TLS 1.0)
    (False, False): frozenset({wire.TLS1_2}),
    (True, False): frozenset({wire.TLS1_2, wire.TLS1_1}),
    (False, True): frozenset({wire.TLS1_2, wire.TLS1_0}),
    (True, True): frozenset({wire.TLS1_2, wire.TLS1_1, wire.TLS1_0}),
}


def _versions(draw: _Draw) -> frozenset[int]:
    adds_1_1 = draw.random() < 0.4  # drawn first: a seed's fleet depends on the order
    return _VERSIONS[adds_1_1, draw.random() < 0.3]


def _maybe_dhe(draw: _Draw) -> list[int]:
    if draw.random() < 0.25:
        return draw.some(DHE_SUITES, 1)
    return []


def _rule(draw: _Draw, allow_client_pref: bool) -> SelectionRule:
    if allow_client_pref and draw.random() < 0.2:
        return SelectionRule.CLIENT_PREFERENCE
    return SelectionRule.SERVER_PREFERENCE


def _fs_preferring(draw: _Draw) -> ServerPolicy:
    fs_part = draw.some(FS_SUITES, 1)
    rest = draw.some(NONFS_SUITES, 0) + _maybe_dhe(draw)
    draw.shuffle(fs_part)
    draw.shuffle(rest)
    return ServerPolicy(fs_part + rest, _versions(draw), _rule(draw, allow_client_pref=True))


def _fs_supporting_nonfs_preferring(draw: _Draw) -> ServerPolicy:
    fs_part = draw.some(FS_SUITES, 1)
    front = draw.some(NONFS_SUITES, 1) + _maybe_dhe(draw)
    draw.shuffle(front)
    draw.shuffle(fs_part)
    return ServerPolicy(front + fs_part, _versions(draw))


def _nonfs_only(draw: _Draw) -> ServerPolicy:
    pref = draw.some(NONFS_SUITES, 1) + _maybe_dhe(draw)
    draw.shuffle(pref)
    return ServerPolicy(pref, _versions(draw), _rule(draw, allow_client_pref=True))


def _fs_nonae_only(draw: _Draw) -> ServerPolicy:
    fs_cbc = draw.some(FS_NONAE_SUITES, 1)
    if draw.random() < 0.5:
        # AE suite preferred first: guiding this server to FS costs AE.
        head = draw.choice(NONFS_AE_SUITES)
    else:
        head = draw.choice(NONFS_NONAE_SUITES)
    tail = draw.some([cp for cp in NONFS_SUITES if cp != head], 0) + _maybe_dhe(draw)
    draw.shuffle(tail)
    draw.shuffle(fs_cbc)
    return ServerPolicy([head] + tail + fs_cbc, _versions(draw))


def _legacy(draw: _Draw) -> ServerPolicy:
    pool = draw.some(LEGACY_POOL, 1)
    if draw.random() < 0.25:
        pool.append(0x0033)  # DHE CBC suite, plausible on old stacks
    draw.shuffle(pool)
    vs = draw.choice(_LEGACY_VERSIONS)
    return ServerPolicy(pool, vs, _rule(draw, allow_client_pref=True))


_UNRESPONSIVE_POLICY = ServerPolicy((0x002F,), _VERSIONS[False, False])


def _unresponsive(draw: _Draw) -> ServerPolicy:
    return _UNRESPONSIVE_POLICY


# Each builder meets its archetype's ground truth by construction, as
# test_every_archetype_realizes_its_constraints checks.
_BUILDERS: dict[Archetype, Callable[[_Draw], ServerPolicy]] = {
    Archetype.FS_PREFERRING: _fs_preferring,
    Archetype.FS_SUPPORTING_NONFS_PREFERRING: _fs_supporting_nonfs_preferring,
    Archetype.NONFS_ONLY: _nonfs_only,
    Archetype.FS_NONAE_ONLY: _fs_nonae_only,
    Archetype.LEGACY_PRE_TLS12: _legacy,
    Archetype.UNRESPONSIVE: _unresponsive,
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
    draw = _Draw(rng)
    counts = archetype_counts(spec)
    servers: list[SimServer] = []
    for arch in Archetype:  # fixed iteration order keeps generation deterministic
        build = _BUILDERS[arch]
        for _ in range(counts.get(arch, 0)):
            index = len(servers)
            servers.append(SimServer(
                "srv-%04d" % index, arch, build(draw), seed=spec.seed, index=index
            ))
    # The whole fleet is the population here, so it may take sample's set branch.
    device_count = round(spec.network_device_fraction * len(servers))
    for server in rng.sample(servers, device_count):
        server.device_type = rng.choice(DEVICE_LABELS)
    return servers


# ---------------------------------------------------------------------------
# Adversaries


class Endpoint(Protocol):
    """What a served address runs: a SimServer or an adversary wrapping one."""

    def respond(self, raw: bytes) -> Optional[bytes]: ...


def offer_is_all_fs(suites: Sequence[int]) -> bool:
    real = [s for s in suites if s != FALLBACK_SIGNAL]
    return bool(real) and all(is_fs(s) for s in real)


def _read_hello(raw: bytes, targets: Optional[frozenset[str]]) -> Optional[tuple[Offer, bool]]:
    """``(offer, targeted)`` of one ClientHello from one parse, or None if it
    does not parse: its ``wire.decode_client_hello`` pair, and whether its
    fingerprint (wire.fingerprint) is a target. None targets all, so no
    extensions are collected and no fingerprint is taken."""
    extensions = None if targets is None else []
    try:
        offer = wire.decode_client_hello(raw, extensions)
    except wire.WireError:
        return None
    return offer, extensions is None or wire.fingerprint(*offer, extensions) in targets


@record
class TranscriptEntry:
    address: str
    request: bytes
    response: Optional[bytes]
    at: float


class PassiveTap:
    """Records every exchange, alters nothing."""

    def __init__(self, inner: SimServer):
        self.inner = inner
        self.address = inner.address  # Harness sets it before wrapping
        self.transcript: list[TranscriptEntry] = []
        self._lock = threading.Lock()

    def respond(self, raw: bytes) -> Optional[bytes]:
        response = self.inner.respond(raw)
        entry = TranscriptEntry(self.address, raw, response, time.time())
        with self._lock:
            self.transcript.append(entry)
        return response


class ActiveDropper:
    """Drops targeted offers of only FS suites (see _read_hello); forwards the rest untouched."""

    def __init__(self, inner: SimServer, targets: Optional[frozenset[str]] = None):
        self.inner = inner
        self.targets = targets
        self.dropped = 0

    def respond(self, raw: bytes) -> Optional[bytes]:
        hello = _read_hello(raw, self.targets)
        if hello is None:
            return self.inner.respond(raw)  # its stall or its decode_error alert
        offer, targeted = hello
        if targeted and offer_is_all_fs(offer[1]):
            self.dropped += 1
            return None
        return self.inner.respond(raw)


def _non_fs_first(policy: ServerPolicy) -> ServerPolicy:
    front = [s for s in policy.preference if not is_fs(s)]
    back = [s for s in policy.preference if is_fs(s)]
    return ServerPolicy(front + back, policy.versions, SelectionRule.SERVER_PREFERENCE)


class DiscriminatoryServer:
    """Semi-trusted server that steers targeted clients toward non-FS.

    A client is targeted by its hello's fingerprint (see _read_hello); the
    rest get the honest server. Weak form answers a targeted offer
    honestly out of a non-FS-first preference; strong form additionally
    refuses targeted offers of only FS suites. Either form ignores the
    fallback signal: a server steering clients downward has no interest
    in policing downgrades.
    """

    def __init__(self, inner: SimServer, strong: bool = False, targets: Optional[frozenset[str]] = None):
        self.inner = inner
        self.strong = strong
        self.targets = targets
        self._steered = _non_fs_first(inner.policy)

    def respond(self, raw: bytes) -> Optional[bytes]:
        hello = _read_hello(raw, self.targets)
        if hello is None or self.inner.archetype is Archetype.UNRESPONSIVE:
            return self.inner.respond(raw)  # its decode_error alert or its stall
        offer, targeted = hello
        if not targeted:
            return self.inner.respond(raw)  # its answer
        if self.strong and offer_is_all_fs(offer[1]):
            return _HANDSHAKE_FAILURE_ALERT
        return answer_offer(self._steered, False, raw, self.inner.next_random)


Adversary = Callable[[SimServer], Endpoint]


# ---------------------------------------------------------------------------
# Transports


class _MemoryConnector(Connector):
    """Answers at send; a reply is due its sampled delay later, a stall its timeout later."""

    def __init__(self, harness: "Harness") -> None:
        self._h = harness

    def send(self, address: str, raw: bytes, timeout_s: float) -> tuple:
        h = self._h
        if h.stopped:
            raise ConnectFailed("harness stopped")
        endpoint = h.endpoints.get(address)
        if endpoint is None:
            raise ConnectFailed("no server at %s" % address)
        reply, delay_s = h.answer(endpoint, raw)
        if reply is None or delay_s >= timeout_s:
            reply, delay_s = None, timeout_s
        h.enter()
        return address, reply, timeout_s, time.perf_counter() + delay_s if delay_s else 0.0

    def receive(self, sent: tuple) -> bytes:
        address, reply, timeout_s, due = sent
        try:
            if due:
                sleep_until(due)
            if reply is None:
                raise TimeoutError("no response from %s within %gs" % (address, timeout_s))
            return reply
        finally:
            self._h.leave()


class Harness:
    """A running fleet, in memory: an address is a server id, a handshake a call.

    Plain instance attributes, since the memory connector reads them on
    every handshake. Each server gets its address from _listen before the
    adversary, if any, wraps it. answer is the one place where either
    transport asks an endpoint for its reply and draws that reply's delay.
    in_flight counts the exchanges under way, max_in_flight its high-water mark.
    """

    def __init__(
        self,
        servers: Iterable[SimServer],
        *,
        adversary: Optional[Adversary] = None,
        latency: LatencyModel = LatencyModel(),
        seed: int = 0,
    ) -> None:
        self.endpoints: dict[str, Endpoint] = {}  # in serve order
        self.latency = latency
        self.latency_rng = random.Random(seed ^ 0x1A7E)
        self._lock = threading.Lock()
        self.in_flight = 0
        self.max_in_flight = 0
        self.stopped = False
        for server in servers:
            server.address = address = self._listen(server)
            self.endpoints[address] = adversary(server) if adversary else server

    @property
    def addresses(self) -> list[str]:
        return list(self.endpoints)

    def _listen(self, server: SimServer) -> str:
        """The address ``server`` is served at."""
        return server.server_id

    def connector(self) -> Connector:
        return _MemoryConnector(self)

    def answer(self, endpoint: Endpoint, raw: bytes) -> tuple[Optional[bytes], float]:
        """``endpoint``'s reply to the hello ``raw`` and the delay it is due
        after, in seconds; a stall is (None, 0.0) and draws no delay."""
        reply = endpoint.respond(raw)
        if reply is None:
            return None, 0.0
        return reply, self.latency.sample_s(self.latency_rng)

    def enter(self) -> None:
        with self._lock:
            self.in_flight += 1
            if self.in_flight > self.max_in_flight:
                self.max_in_flight = self.in_flight

    def leave(self) -> None:
        with self._lock:
            self.in_flight -= 1

    def stop(self) -> None:
        self.stopped = True

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


# Linux's option to hold a connection back from accept until data arrives
_DEFER_ACCEPT = getattr(socket, "TCP_DEFER_ACCEPT", None)
# Longest select wait: a reply due further ahead (a huge latency) would
# overflow the platform's timeout, so the loop wakes and waits again.
_MAX_WAIT_S = 1.0


class SocketHarness(Harness):
    """Loopback TCP fleet: one listener per server, one event-loop thread.

    The loop owns every socket; Harness.answer runs inline (it is pure
    computation), and latency is applied by scheduling the reply rather
    than sleeping, so one thread serves the whole fleet.

    The selector is the loop's only registry of sockets. A listener's key
    holds ("listen", address), a waiting connection's key its state:
    [endpoint, hello buffer], the buffer None once answered or stalled.

    Where the platform has TCP_DEFER_ACCEPT, a connection is accepted
    only once its hello is in, and the accept step reads it at once: a
    reply due now (zero sampled latency) is sent and the connection
    closed in that step. Only a connection that must wait (an incomplete
    hello, a stall or a delayed reply) is registered with the selector.
    in_flight counts a connection from accept to close.
    """

    def __init__(self, servers: Iterable[SimServer], **options) -> None:
        """``options`` as Harness takes them; the loop starts once every server listens."""
        self._sel = selectors.DefaultSelector()
        self._pending: list[tuple[float, int, socket.socket, bytes]] = []
        self._seq = 0
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._sel.register(self._wake_r, selectors.EVENT_READ, ("wake", None))
        try:
            super().__init__(servers, **options)
        except BaseException:
            self._close_all()
            raise
        self._thread = threading.Thread(target=self._run, name="fleet-loop", daemon=True)
        self._thread.start()

    def _listen(self, server: SimServer) -> str:
        """Bind a loopback listener for ``server`` and register it; its address."""
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            sock.bind(("127.0.0.1", 0))
        except OSError as exc:
            sock.close()
            raise BindFailure("bind failed after %d listeners: %s" % (len(self.endpoints), exc)) from exc
        if _DEFER_ACCEPT is not None:
            sock.setsockopt(socket.IPPROTO_TCP, _DEFER_ACCEPT, 1)
        sock.listen(128)
        sock.setblocking(False)
        address = "%s:%d" % sock.getsockname()
        self._sel.register(sock, selectors.EVENT_READ, ("listen", address))
        return address

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
        for key in list(self._sel.get_map().values()):
            if type(key.data) is list:  # a waiting connection
                self.leave()
            key.fileobj.close()  # the wake pair's read end among them
        self._wake_w.close()
        self._sel.close()

    def _close(self, conn: socket.socket, registered: bool) -> None:
        if registered:
            self._sel.unregister(conn)
        try:
            conn.close()
        except OSError:
            pass
        self.leave()

    def _run(self) -> None:
        while not self.stopped:
            timeout = None
            if self._pending:
                timeout = min(max(0.0, self._pending[0][0] - time.perf_counter()), _MAX_WAIT_S)
            for key, _ in self._sel.select(timeout):
                data = key.data
                if type(data) is list:
                    self._readable(key.fileobj, data, True)
                elif data[0] == "listen":
                    self._accept(key.fileobj, data[1])
                else:
                    try:
                        self._wake_r.recv(64)
                    except OSError:
                        pass
            now = time.perf_counter()
            while self._pending and self._pending[0][0] <= now:
                _, _, conn, payload = heapq.heappop(self._pending)
                self._reply(conn, payload, True)

    def _accept(self, listener: socket.socket, address: str) -> None:
        try:
            conn, _peer = listener.accept()
        except OSError:
            return
        conn.setblocking(False)
        self.enter()
        self._readable(conn, [self.endpoints[address], bytearray()], False)

    def _reply(self, conn: socket.socket, payload: bytes, registered: bool) -> None:
        try:
            conn.sendall(payload)
        except OSError:
            pass
        self._close(conn, registered)

    def _readable(self, conn: socket.socket, state: list, registered: bool) -> None:
        """Read what the client sent; register the connection, once, if it has to wait."""
        try:
            chunk = conn.recv(4096)
        except BlockingIOError:
            chunk = None
        except OSError:
            chunk = b""
        if chunk == b"":  # the client left: a reply still scheduled for it has no reader
            self._pending = [entry for entry in self._pending if entry[2] is not conn]
            heapq.heapify(self._pending)
            self._close(conn, registered)
            return
        buf = state[1]
        if chunk and buf is not None:  # None: the hello was already answered or stalled
            buf.extend(chunk)
            total = wire.record_size(buf)
            if total is not None and len(buf) >= total:
                reply, delay_s = self.answer(state[0], bytes(buf[:total]))
                state[1] = None
                if reply is not None:
                    if delay_s <= 0:
                        self._reply(conn, reply, registered)
                        return
                    self._seq += 1
                    heapq.heappush(self._pending, (time.perf_counter() + delay_s, self._seq, conn, reply))
        if not registered:  # an incomplete hello, a stall or a later reply: notice the client leaving
            self._sel.register(conn, selectors.EVENT_READ, state)


def serve(
    fleet: Iterable[SimServer],
    transport: Transport,
    *,
    adversary: Optional[Adversary] = None,
    latency: LatencyModel = LatencyModel(),
    seed: int = 0,
) -> Harness:
    """Running harness for the fleet; stop() or use as a context manager.

    ``adversary`` wraps each server into its served endpoint, e.g. PassiveTap
    or functools.partial(DiscriminatoryServer, strong=True).
    """
    if transport is Transport.IN_MEMORY:
        return Harness(fleet, adversary=adversary, latency=latency, seed=seed)
    if transport is Transport.LOOPBACK_SOCKET:
        return SocketHarness(fleet, adversary=adversary, latency=latency, seed=seed)
    raise ValueError("unknown transport %r" % transport)


def truth_records(servers: Iterable[SimServer], campaign: str = "") -> Iterator[dict]:
    """Ground-truth export, one line-delimited record per server, yielded as it is made."""
    for s in servers:
        expected = expected_for_server(s)
        yield {
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
