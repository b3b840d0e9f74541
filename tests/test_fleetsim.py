"""Fleet generation, honest serving, adversary wrappers, transports."""

import dataclasses
import functools
import gc
import hashlib
import itertools
import json
import os
import random
import socket
import threading
import time
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from befs import fleetsim, negotiate, wire
from befs.client import FallbackStyle, PolicyConfig, PolicyMode, connect
from befs.fleetsim import (
    ActiveDropper,
    Archetype,
    BindFailure,
    DiscriminatoryServer,
    FleetSpec,
    GroundTruth,
    Harness,
    InvalidSpec,
    LatencyModel,
    PassiveTap,
    SimServer,
    Transport,
    archetype_counts,
    expected_for_server,
    fleet_spec_from_dict,
    generate_fleet,
    load_fleet_spec,
    offer_is_all_fs,
    policy_truth,
    serve,
    server_random,
    truth_records,
)
from befs.handshake import AttemptKind, ConnectFailed, _client_random, handshake_attempt
from befs.loopback import SocketHarness, TcpConnector, read_record
from befs.negotiate import ServerPolicy
from befs.suites import DEFAULT, FALLBACK_SIGNAL, FS_AE_ONLY, FS_ONLY, REGISTRY, is_ae, is_fs
from befs.wire import TLS1_0, TLS1_1, TLS1_2


def make_ch_bytes(suites, version=TLS1_2):
    return wire.encode_client_hello(version, suites, bytes(32))


def make_server(preference, versions=frozenset({TLS1_2}), **kw):
    arch = kw.pop("archetype", Archetype.FS_SUPPORTING_NONFS_PREFERRING)
    return SimServer(
        server_id=kw.pop("server_id", "srv-test"),
        archetype=arch,
        policy=ServerPolicy(preference, versions),
        seed=1,
        **kw,
    )


def spec_with(size=60, seed=3, **mix_fracs):
    mix = {Archetype[k]: v for k, v in mix_fracs.items()}
    return FleetSpec(size=size, seed=seed, mix=mix)


# -- spec validation ---------------------------------------------------------


def test_spec_rejects_bad_size_and_mix():
    with pytest.raises(InvalidSpec):
        FleetSpec(size=0, seed=1, mix={Archetype.NONFS_ONLY: 1.0})
    with pytest.raises(InvalidSpec):
        FleetSpec(size=5, seed=1, mix={Archetype.NONFS_ONLY: 0.7})
    with pytest.raises(InvalidSpec):
        FleetSpec(size=5, seed=1, mix={Archetype.NONFS_ONLY: -0.5, Archetype.FS_PREFERRING: 1.5})
    with pytest.raises(InvalidSpec):
        FleetSpec(size=5, seed=1, mix={Archetype.NONFS_ONLY: 1.0}, network_device_fraction=1.5)
    with pytest.raises(InvalidSpec, match="mix must name at least one archetype"):
        FleetSpec(size=5, seed=1, mix={})


def test_a_negative_seed_is_refused():
    # random.Random(-5) seeds as random.Random(5): the two fleets would alias.
    with pytest.raises(InvalidSpec, match="seed"):
        FleetSpec(size=5, seed=-5, mix={Archetype.NONFS_ONLY: 1.0})
    with pytest.raises(InvalidSpec, match="seed"):
        fleet_spec_from_dict({"size": 5, "seed": -1, "mix": {"NONFS_ONLY": 1.0}})
    assert FleetSpec(size=5, seed=0, mix={Archetype.NONFS_ONLY: 1.0}).seed == 0


def test_spec_from_dict_and_file(tmp_path):
    data = {
        "size": 12,
        "seed": 9,
        "mix": {"NONFS_ONLY": 0.5, "FS_PREFERRING": 0.5},
        "network_device_fraction": 0.25,
        "latency": {"base_ms": 1.0, "jitter_ms": 0.5},
    }
    spec = fleet_spec_from_dict(data)
    assert spec.size == 12 and spec.latency.base_ms == 1.0
    path = tmp_path / "fleet.json"
    path.write_text(json.dumps(data))
    assert load_fleet_spec(str(path)) == spec
    with pytest.raises(InvalidSpec):
        fleet_spec_from_dict({**data, "mix": {"NOT_AN_ARCHETYPE": 1.0}})
    with pytest.raises(InvalidSpec):
        fleet_spec_from_dict({**data, "bogus": 1})
    with pytest.raises(InvalidSpec):
        fleet_spec_from_dict({"size": 3, "mix": {"NONFS_ONLY": 1.0}})
    with pytest.raises(InvalidSpec, match="unknown latency keys: delay_ms"):
        fleet_spec_from_dict({**data, "latency": {"base_ms": 1.0, "delay_ms": 2.0}})
    # keys that are not strings, which no JSON file holds but a caller's dict may
    with pytest.raises(InvalidSpec, match="^unknown fleet spec keys: 1, bogus$"):
        fleet_spec_from_dict({1: 2, **data, "bogus": 3})
    with pytest.raises(InvalidSpec, match="^unknown latency keys: None$"):
        fleet_spec_from_dict({**data, "latency": {None: None}})
    with pytest.raises(InvalidSpec, match="cannot read"):
        load_fleet_spec(str(tmp_path / "absent.json"))


def test_latency_jitter_draws_stay_in_range_and_repeat_with_the_seed():
    model = LatencyModel(base_ms=2.0, jitter_ms=3.0)
    first, second = ([model.sample_s(rng) for _ in range(200)]
                     for rng in (random.Random(7), random.Random(7)))
    assert first == second
    assert all(0.002 <= s <= 0.005 for s in first)
    assert len(set(first)) > 1


_JSON_JUNK = (st.none() | st.booleans() | st.text(max_size=3) | st.integers(-3, 3)
              | st.floats(allow_nan=True, allow_infinity=True) | st.lists(st.integers(), max_size=2))
_ARCHETYPE_NAMES = st.sampled_from([a.value for a in Archetype])


# The parts of a spec that _spec_dicts may make junk, one at most per spec.
_SPEC_PARTS = ["size", "seed", "mix", "proportion", "network_device_fraction", "latency",
               "base_ms", "jitter_ms"]


@st.composite
def _spec_dicts(draw):
    # Half the specs hold no junk, so about half the examples reach generate_fleet;
    # the rest put junk in one part each, so every refusal stays covered.
    junk = draw(st.none() | st.sampled_from(_SPEC_PARTS))

    def value(part, valid):
        return draw(_JSON_JUNK if part == junk else valid)

    weights = draw(st.dictionaries(_ARCHETYPE_NAMES, st.floats(0, 1), min_size=1))
    total = sum(weights.values())
    mix = {name: w / total if total else w for name, w in weights.items()}
    if junk == "proportion":
        mix[draw(st.sampled_from(sorted(mix)))] = draw(_JSON_JUNK)
    # Sizes below 1, negative seeds and negative latencies are junk's to draw.
    data = {"size": value("size", st.integers(1, 40)), "seed": value("seed", st.integers(min_value=0)),
            "mix": value("mix", st.just(mix))}
    if junk == "network_device_fraction" or draw(st.booleans()):
        data["network_device_fraction"] = value("network_device_fraction", st.floats(0, 1))
    if junk in ("latency", "base_ms", "jitter_ms") or draw(st.booleans()):
        keys = draw(st.sets(st.sampled_from(["base_ms", "jitter_ms"])))
        if junk in ("base_ms", "jitter_ms"):
            keys.add(junk)
        data["latency"] = value("latency", st.just({key: value(key, st.floats(0, 5))
                                                    for key in keys}))
    return data


@settings(max_examples=300, deadline=None)
@given(data=_spec_dicts())
def test_every_accepted_spec_yields_exactly_its_size(data):
    try:
        spec = fleet_spec_from_dict(data)
    except InvalidSpec:
        return
    assert len(generate_fleet(spec)) == spec.size == data["size"]


def test_archetype_counts_largest_remainder():
    spec = spec_with(size=10, NONFS_ONLY=0.5, FS_PREFERRING=0.5)
    assert archetype_counts(spec) == {Archetype.NONFS_ONLY: 5, Archetype.FS_PREFERRING: 5}
    third = spec_with(size=7, NONFS_ONLY=1 / 3, FS_PREFERRING=1 / 3, FS_NONAE_ONLY=1 / 3)
    counts = archetype_counts(third)
    assert sum(counts.values()) == 7
    assert sorted(counts.values()) == [2, 2, 3]


# -- generation --------------------------------------------------------------


def test_generation_is_deterministic():
    spec = spec_with(
        size=80, NONFS_ONLY=0.25, FS_PREFERRING=0.25, FS_NONAE_ONLY=0.25, LEGACY_PRE_TLS12=0.25
    )
    a = [(s.server_id, s.archetype, s.policy, s.truth) for s in generate_fleet(spec)]
    b = [(s.server_id, s.archetype, s.policy, s.truth) for s in generate_fleet(spec)]
    assert a == b


def _hellos(fleet, rounds=3):
    """Reply bytes of every server to `rounds` DEFAULT offers each, in a fixed order."""
    offer = make_ch_bytes(DEFAULT.suites)
    return [server.respond(offer) for _ in range(rounds) for server in fleet]


def test_server_hello_bytes_repeat_with_the_spec():
    spec = spec_with(size=40, FS_PREFERRING=0.5, NONFS_ONLY=0.5)
    assert _hellos(generate_fleet(spec)) == _hellos(generate_fleet(spec))


def test_server_answers_repeat_the_pinned_digest():
    # Every server of six mixed fleets answers four offers, server by server;
    # a stall hashes as b"-". Any change to a hello, an alert or a pick shows.
    hellos = [wire.encode_client_hello(TLS1_2, offer, bytes(32))
              for offer in (DEFAULT.suites, FS_ONLY.suites, FS_AE_ONLY.suites,
                            DEFAULT.suites + (FALLBACK_SIGNAL,))]
    digest = hashlib.sha256()
    for seed in range(6):
        fleet = generate_fleet(FleetSpec(size=60, seed=seed, mix={a: 1 / 6 for a in Archetype}))
        for server in fleet:
            for hello in hellos:
                digest.update(server.respond(hello) or b"-")
    assert digest.hexdigest() == (
        "573daf528250c9f3062d114898be2634c9c99ce492a676d717cae7b13640e4af")


def test_fleets_repeat_the_pinned_digest():
    # Every server's policy and ground truth, device label included, for six
    # mixed fleets. 240 servers take both of random.sample's branches in the
    # device draw: the set branch for 2 labels, the pool branch for 60.
    digest = hashlib.sha256()
    archetypes = list(Archetype)
    for seed in range(6):
        weights = [1 + (i + seed) % len(archetypes) for i in range(len(archetypes))]
        mix = {a: w / sum(weights) for a, w in zip(archetypes, weights)}
        for fraction in (0.01, 0.25):
            spec = FleetSpec(size=240, seed=seed, mix=mix, network_device_fraction=fraction)
            for s in generate_fleet(spec):
                p = s.policy
                row = (s.server_id, s.archetype.value, sorted(p.preference), p.preference,
                       sorted(p.versions), p.selection_rule.value, dataclasses.astuple(s.truth))
                digest.update(repr(row).encode() + b"\n")
    assert digest.hexdigest() == (
        "80ed5e8984d00970a103e5a957a1370035989089d4045d59ae611512c27927aa")


def test_a_drawn_server_holds_only_its_draw():
    # Paper scale is 10^7 servers, so a server keeps what was drawn for it
    # and shares every fleet-wide value: nothing derived, no per-server copy
    # of a version set that one of seven shared sets already holds.
    spec = FleetSpec(size=2000, seed=0, mix={a: 1 / 6 for a in Archetype},
                     network_device_fraction=0.25)
    tracemalloc.start()
    try:
        fleet = generate_fleet(spec)
        traced, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert traced / len(fleet) < 600  # bytes per server
    assert len({id(s.policy.versions) for s in fleet}) <= 7


# Every population a builder draws from; NONFS_SUITES[1:] stands for
# FS_NONAE_ONLY's tail, the non-FS suites less the head.
_POPULATIONS = [fleetsim.FS_SUITES, fleetsim.FS_NONAE_SUITES, fleetsim.NONFS_SUITES,
                fleetsim.NONFS_AE_SUITES, fleetsim.NONFS_NONAE_SUITES, fleetsim.DHE_SUITES,
                fleetsim.LEGACY_POOL, fleetsim.NONFS_SUITES[1:]]


@settings(max_examples=300)
@given(seed=st.integers(0, 2**64), pop=st.sampled_from(_POPULATIONS), low=st.sampled_from([0, 1]))
def test_draw_matches_random_random_call_for_call(seed, pop, low):
    # _Draw makes the getrandbits calls random.Random's methods make, so a
    # seed's fleet is the one the stdlib methods drew.
    assert len(pop) <= 21  # sample's pool branch, the one some follows
    mine, theirs = random.Random(seed), random.Random(seed)
    draw = fleetsim._Draw(mine)
    got = draw.some(pop, low)
    assert got == theirs.sample(pop, theirs.randint(low, len(pop)))
    mixed, expected = got + pop, got + pop
    draw.shuffle(mixed)
    theirs.shuffle(expected)
    assert mixed == expected
    assert draw.choice(pop) == theirs.choice(pop)
    assert draw.random() == theirs.random()
    assert mine.getstate() == theirs.getstate()


def test_server_randoms_differ_across_servers_and_attempts():
    fleet = generate_fleet(spec_with(size=40, FS_PREFERRING=0.5, NONFS_ONLY=0.5))
    replies = _hellos(fleet, rounds=3)
    randoms = [reply[11:43] for reply in replies]
    assert all(wire.decode_server_hello(reply) for reply in replies)
    assert len(set(randoms)) == len(randoms) == 3 * 40


def test_server_random_derivation_does_not_alias_across_seeds():
    # (seed << 20) ^ index gave (0, 2**20) and (1, 0) one RNG seed.
    assert server_random(0, 1 << 20, 0) != server_random(1, 0, 0)
    assert len({server_random(s, i, c) for s in (0, 1) for i in (0, 1) for c in (0, 1)}) == 8
    assert len(server_random(0, 0, 0)) == 32


@given(st.integers(min_value=0, max_value=1 << 200), st.integers(min_value=0, max_value=1 << 64),
       st.integers(min_value=0, max_value=1 << 64), st.text(), st.text())
@example(1 << 200, 1 << 64, 0, "b\u00fccher.example:443", "\u65e5\u672c\U0001f510")
def test_hello_randoms_are_sha256_of_their_documented_inputs(seed, index, n, address, label):
    # hashlib is the oracle: the README gives both formulas, and befs hashes
    # with CPython's built-in SHA-256 (handshake.sha256) instead.
    assert server_random(seed, index, n) == hashlib.sha256(
        b"server|%d|%d|%d" % (seed, index, n)).digest()
    assert _client_random(seed, address, label) == hashlib.sha256(
        ("%d|%s|%s" % (seed, address, label)).encode()).digest()


def test_all_nonfs_fleet_has_no_fs_support():
    fleet = generate_fleet(spec_with(size=4, NONFS_ONLY=1.0))
    assert len(fleet) == 4
    assert all(not s.truth.supports_fs for s in fleet)


def test_half_supporting_half_nonfs_mix():
    fleet = generate_fleet(spec_with(size=10, FS_SUPPORTING_NONFS_PREFERRING=0.5, NONFS_ONLY=0.5))
    hit = [s for s in fleet if s.truth.supports_fs and not s.truth.selects_fs_by_default]
    assert len(hit) == 5


FULL_MIX = dict(
    FS_PREFERRING=1 / 6,
    FS_SUPPORTING_NONFS_PREFERRING=1 / 6,
    NONFS_ONLY=1 / 6,
    FS_NONAE_ONLY=1 / 6,
    LEGACY_PRE_TLS12=1 / 6,
    UNRESPONSIVE=1 / 6,
)


def test_generating_a_fleet_negotiates_nothing(monkeypatch):
    # Ground truth is read off a policy when asked for, not during the draw.
    def refuse(*args):
        raise AssertionError("generate_fleet called negotiate.select")

    monkeypatch.setattr(fleetsim, "select", refuse)
    monkeypatch.setattr(negotiate, "select", refuse)
    mix = {a: 1 / 6 for a in Archetype}
    spec = FleetSpec(size=60, seed=3, mix=mix, network_device_fraction=0.5)
    assert len(generate_fleet(spec)) == 60


def test_every_archetype_realizes_its_constraints():
    fleet = generate_fleet(spec_with(size=180, **FULL_MIX))
    for s in fleet:
        t = s.truth
        if s.archetype is Archetype.FS_PREFERRING:
            assert t.supports_fs and t.selects_fs_by_default
        elif s.archetype is Archetype.FS_SUPPORTING_NONFS_PREFERRING:
            assert t.supports_fs and not t.selects_fs_by_default
        elif s.archetype is Archetype.NONFS_ONLY:
            assert not t.supports_fs
        elif s.archetype is Archetype.FS_NONAE_ONLY:
            assert t.supports_fs and not t.supports_fs_ae and not t.selects_fs_by_default
        elif s.archetype is Archetype.LEGACY_PRE_TLS12:
            assert s.policy.versions <= {TLS1_0, TLS1_1}
            assert not t.supports_fs_ae


def test_network_device_fraction_is_exact():
    spec = FleetSpec(
        size=40,
        seed=5,
        mix={Archetype.NONFS_ONLY: 1.0},
        network_device_fraction=0.25,
    )
    fleet = generate_fleet(spec)
    labeled = [s for s in fleet if s.truth.device_type]
    assert len(labeled) == 10


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=200)
def test_policy_truth_matches_brute_force(seed):
    rng = random.Random(seed)
    universe = sorted(REGISTRY)
    supported = rng.sample(universe, rng.randint(1, len(universe)))
    pref = supported[:]
    rng.shuffle(pref)
    truth = policy_truth(ServerPolicy(pref, frozenset({TLS1_2})))
    assert truth.supports_fs == any(is_fs(s) for s in supported)
    assert truth.supports_fs_ae == any(is_fs(s) and is_ae(s) for s in supported)
    first_pick = next((s for s in pref if s in set(DEFAULT.suites)), None)
    assert truth.selects_fs_by_default == (first_pick is not None and is_fs(first_pick))


# -- honest serving ----------------------------------------------------------


def test_default_offer_to_fs_preferring_yields_fs_suite():
    fleet = generate_fleet(spec_with(size=3, FS_PREFERRING=1.0))
    reply = fleet[0].respond(make_ch_bytes(DEFAULT.suites))
    _, suite = wire.decode_server_hello(reply)
    assert is_fs(suite)


def test_fs_offer_to_nonfs_server_yields_alert_40():
    server = make_server((0x002F,), archetype=Archetype.NONFS_ONLY)
    reply = server.respond(make_ch_bytes(FS_ONLY.suites))
    alert = wire.decode_alert(reply)
    assert alert.level is wire.AlertLevel.FATAL
    assert alert.description == wire.HANDSHAKE_FAILURE


def test_malformed_ch_yields_decode_error_alert():
    server = make_server((0x002F,))
    alert = wire.decode_alert(server.respond(b"\x16\x03\x03\x00\x02\x01\x00"))
    assert alert.description == wire.DECODE_ERROR


def test_unresponsive_server_stalls():
    server = make_server((0x002F,), archetype=Archetype.UNRESPONSIVE)
    assert server.respond(make_ch_bytes(DEFAULT.suites)) is None


def test_signal_honoring_fs_server_rejects_signaled_offer():
    server = make_server((0x002F, 0xC02F))
    signaled = make_ch_bytes(DEFAULT.suites + (FALLBACK_SIGNAL,))
    alert = wire.decode_alert(server.respond(signaled))
    assert alert.description == wire.INAPPROPRIATE_FALLBACK
    # same offer without the signal is answered
    _, suite = wire.decode_server_hello(server.respond(make_ch_bytes(DEFAULT.suites)))
    assert suite == 0x002F


def test_signal_ignored_when_server_lacks_fs_or_honor_flag():
    nonfs = make_server((0x002F,), archetype=Archetype.NONFS_ONLY)
    signaled = make_ch_bytes(DEFAULT.suites + (FALLBACK_SIGNAL,))
    assert wire.decode_server_hello(nonfs.respond(signaled))[1] == 0x002F
    dishonoring = make_server((0x002F, 0xC02F), honors_fallback_signal=False)
    assert wire.decode_server_hello(dishonoring.respond(signaled))[1] == 0x002F


def test_version_negotiation_respects_client_max():
    server = make_server((0x002F,), versions=frozenset({TLS1_0, TLS1_2}))
    version, _ = wire.decode_server_hello(server.respond(make_ch_bytes((0x002F,), version=TLS1_1)))
    assert version == TLS1_0


# -- adversaries -------------------------------------------------------------


def twin_servers(**kw):
    return make_server((0x002F, 0xC02F), **kw), make_server((0x002F, 0xC02F), **kw)


def test_passive_tap_forwards_unchanged_and_logs():
    plain, tapped_inner = twin_servers()
    tap = PassiveTap(tapped_inner)
    raw = make_ch_bytes(DEFAULT.suites)
    want = plain.respond(raw)
    got = tap.respond(raw)
    assert got == want
    assert len(tap.transcript) == 1
    entry = tap.transcript[0]
    assert entry.request == raw and entry.response == got


def test_dropper_drops_all_fs_offers_and_forwards_rest():
    plain, inner = twin_servers()
    dropper = ActiveDropper(inner)
    assert dropper.respond(make_ch_bytes(FS_ONLY.suites)) is None
    assert dropper.respond(make_ch_bytes(FS_ONLY.suites)) is None  # every one, not just the first
    raw = make_ch_bytes(DEFAULT.suites)
    assert dropper.respond(raw) == plain.respond(raw)
    assert dropper.dropped == 2


def test_targeted_dropper_forwards_other_clients_fs_offers():
    plain, inner = twin_servers()
    dropper = ActiveDropper(inner, targets=frozenset({fingerprint_of(FS_ONLY.suites)}))
    assert dropper.respond(make_ch_bytes(FS_ONLY.suites)) is None
    other = make_ch_bytes(FS_ONLY.suites[::-1])  # the same suites in another order
    assert dropper.respond(other) == plain.respond(other)
    assert dropper.dropped == 1


def test_offer_is_all_fs_ignores_signal_marker():
    assert offer_is_all_fs(FS_ONLY.suites + (FALLBACK_SIGNAL,))
    assert not offer_is_all_fs(DEFAULT.suites + (FALLBACK_SIGNAL,))
    assert not offer_is_all_fs((FALLBACK_SIGNAL,))


def fingerprint_of(suites):
    extensions = []
    offer = wire.decode_client_hello(make_ch_bytes(suites), extensions)
    return wire.fingerprint(*offer, extensions)


def weak_wrapped(targets=None):
    _, inner = twin_servers()
    return DiscriminatoryServer(inner, targets=targets)


def test_weak_discriminator_submits_to_fs_only_offer():
    weak = weak_wrapped(targets=frozenset({fingerprint_of(FS_ONLY.suites)}))
    _, suite = wire.decode_server_hello(weak.respond(make_ch_bytes(FS_ONLY.suites)))
    assert is_fs(suite)


def test_weak_discriminator_steers_default_offer_to_non_fs():
    # inner twin prefers non-FS already; use an FS-preferring inner instead
    inner = make_server((0xC02F, 0x002F))
    weak = DiscriminatoryServer(inner, targets=frozenset({fingerprint_of(DEFAULT.suites)}))
    victim = make_ch_bytes(DEFAULT.suites)
    other = make_ch_bytes(DEFAULT.suites[::-1])  # the same suites in another order
    assert wire.decode_server_hello(weak.respond(victim))[1] == 0x002F
    assert wire.decode_server_hello(weak.respond(other))[1] == 0xC02F


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=100)
def test_weak_discriminator_is_observationally_honest(seed):
    rng = random.Random(seed)
    weak = weak_wrapped()
    offer = tuple(rng.sample(sorted(REGISTRY), rng.randint(1, len(REGISTRY))))
    reply = weak.respond(make_ch_bytes(offer))
    try:
        _, suite = wire.decode_server_hello(reply)
    except wire.NotServerHello:
        assert not (set(offer) & set(weak.inner.policy.preference))
        return
    assert suite in set(offer) & set(weak.inner.policy.preference)


def test_strong_discriminator_rejects_all_fs_offers():
    _, inner = twin_servers()
    strong = DiscriminatoryServer(inner, strong=True)
    alert = wire.decode_alert(strong.respond(make_ch_bytes(FS_ONLY.suites)))
    assert alert.description == wire.HANDSHAKE_FAILURE
    _, suite = wire.decode_server_hello(strong.respond(make_ch_bytes(DEFAULT.suites)))
    assert not is_fs(suite)


def test_strong_discriminator_answers_untargeted_fs_offers_honestly():
    plain, inner = twin_servers()
    strong = DiscriminatoryServer(inner, strong=True, targets=frozenset({"771,47,,,"}))
    raw = make_ch_bytes(FS_ONLY.suites)
    assert strong.respond(raw) == plain.respond(raw)


def test_discriminators_answer_undecodable_hellos_with_decode_error():
    _, inner = twin_servers()
    for targets in (None, frozenset({"771,47,,,"})):
        strong = DiscriminatoryServer(inner, strong=True, targets=targets)
        alert = wire.decode_alert(strong.respond(b"\x16\x03\x03\x00\x02\x01\x00"))
        assert alert.description == wire.DECODE_ERROR


def test_discriminators_leave_an_unresponsive_server_stalled():
    inner = make_server((0xC02F, 0x002F), archetype=Archetype.UNRESPONSIVE)
    for strong in (False, True):
        wrapped = DiscriminatoryServer(inner, strong=strong)
        for suites in (DEFAULT.suites, FS_ONLY.suites):
            assert wrapped.respond(make_ch_bytes(suites)) is None
        assert wrapped.respond(b"\x16\x03\x03\x00\x02\x01\x00") is None


@pytest.mark.parametrize("targets", [None, frozenset({"771,47,,,"})], ids=["all", "targeted"])
@pytest.mark.parametrize("wrap", [
    ActiveDropper,
    DiscriminatoryServer,
    lambda inner, targets: DiscriminatoryServer(inner, strong=True, targets=targets),
], ids=["dropper", "weak", "strong"])
def test_adversaries_parse_each_hello_once(monkeypatch, wrap, targets):
    # The adversary parses a hello once to target it; it hands on only the
    # bytes, so the server that answers it, if one does, parses it once more.
    parses, answered = [], []
    parse, answer = wire.decode_client_hello, fleetsim.answer_offer
    monkeypatch.setattr(wire, "decode_client_hello",
                        lambda raw, *rest: parses.append(raw) or parse(raw, *rest))
    monkeypatch.setattr(fleetsim, "answer_offer",
                        lambda policy, honors, raw, *rest: answered.append(raw)
                        or answer(policy, honors, raw, *rest))
    inner = make_server((0xC02F, 0x002F))
    adversary = wrap(inner, targets=targets)
    hellos = [make_ch_bytes(suites) for suites in (
        DEFAULT.suites, FS_ONLY.suites, (0x002F,), DEFAULT.suites + (FALLBACK_SIGNAL,))]
    for raw in hellos:
        adversary.respond(raw)
    assert answered and len(set(answered)) == len(answered)
    assert parses == [copy for raw in hellos for copy in [raw] * (1 + answered.count(raw))]


def test_discriminators_ignore_fallback_signal():
    inner = make_server((0xC02F, 0x002F))
    strong = DiscriminatoryServer(inner, strong=True)
    signaled = make_ch_bytes(DEFAULT.suites + (FALLBACK_SIGNAL,))
    _, suite = wire.decode_server_hello(strong.respond(signaled))
    assert not is_fs(suite)


@pytest.mark.parametrize("transport", list(Transport))
def test_serve_wraps_each_server_in_the_adversary(transport):
    fleet = generate_fleet(spec_with(size=2, FS_PREFERRING=1.0))
    with serve(fleet, transport) as h:
        assert [h.endpoints[a] for a in h.addresses] == fleet
    with serve(fleet, transport, adversary=PassiveTap) as h:
        taps = [h.endpoints[a] for a in h.addresses]
        assert all(isinstance(t, PassiveTap) for t in taps)
        assert [t.inner for t in taps] == fleet


def test_a_tap_records_the_address_it_is_served_at():
    # The socket harness serves the same servers later and readdresses them.
    fleet = generate_fleet(spec_with(size=2, FS_PREFERRING=1.0))
    with serve(fleet, Transport.IN_MEMORY, adversary=PassiveTap) as memory, \
            serve(fleet, Transport.LOOPBACK_SOCKET):
        handshake_attempt(memory.connector(), "srv-0000", DEFAULT.suites, 0.5)
        assert [entry.address for entry in memory.endpoints["srv-0000"].transcript] == [
            "srv-0000"]


def test_a_fleet_served_on_both_transports_at_once_keeps_each_harness_addresses():
    fleet = generate_fleet(spec_with(size=2, FS_PREFERRING=1.0))
    with serve(fleet, Transport.IN_MEMORY) as memory, serve(fleet, Transport.LOOPBACK_SOCKET) as tcp:
        assert memory.addresses == [s.server_id for s in fleet]
        assert all(a.startswith("127.0.0.1:") for a in tcp.addresses)
        res = handshake_attempt(memory.connector(), memory.addresses[0], DEFAULT.suites, 0.5)
        assert res.selected and is_fs(res.suite)


def _strong_discriminator_outcomes(transport):
    """BEFS silent connects through a strong discriminator that targets BEFS's first rung."""
    fleet = generate_fleet(FleetSpec(size=30, seed=43, mix={Archetype.FS_SUPPORTING_NONFS_PREFERRING: 1.0}))
    befs_first_rung = fingerprint_of(FS_ONLY.suites)
    adversary = functools.partial(DiscriminatoryServer, strong=True, targets=frozenset({befs_first_rung}))
    cfg = PolicyConfig(PolicyMode.BEFS, FallbackStyle.SILENT, timeout_s=2.0)
    with serve(fleet, transport, adversary=adversary) as h:
        outs = [connect(a, cfg, connector=h.connector()) for a in h.addresses]
    return [(o.status, o.suite, o.fs, o.fallback_depth, tuple(a.kind for a in o.attempts))
            for o in outs]


def test_targeted_discriminator_acts_alike_on_both_transports():
    memory = _strong_discriminator_outcomes(Transport.IN_MEMORY)
    sockets = _strong_discriminator_outcomes(Transport.LOOPBACK_SOCKET)
    assert memory == sockets
    assert len(memory) == 30
    assert all(fs is False and kinds == (AttemptKind.REJECTED, AttemptKind.SELECTED)
               for _, _, fs, _, kinds in memory)


def test_both_transports_draw_the_same_delays_for_the_same_hellos(monkeypatch):
    """Harness.answer is the one rule: a reply draws its delay, a stall draws none."""
    draws = []
    sample = LatencyModel.sample_s
    monkeypatch.setattr(LatencyModel, "sample_s",
                        lambda model, rng: draws.append(sample(model, rng)) or draws[-1])
    fleet = generate_fleet(spec_with(size=20, FS_PREFERRING=0.7, UNRESPONSIVE=0.3))
    silent = [s for s in fleet if s.archetype is Archetype.UNRESPONSIVE]
    answering = [s for s in fleet if s not in silent]
    order = [s for pair in itertools.zip_longest(answering, silent) for s in pair if s]

    def served_draws(transport):
        draws.clear()
        with serve(fleet, transport, latency=LatencyModel(jitter_ms=2.0), seed=3) as h:
            assert type(h) is (Harness if transport is Transport.IN_MEMORY else SocketHarness)
            connector = h.connector()
            for server in order:  # one hello at a time
                handshake_attempt(connector, server.address, DEFAULT.suites, 0.1)
        return list(draws)

    memory = served_draws(Transport.IN_MEMORY)
    assert served_draws(Transport.LOOPBACK_SOCKET) == memory
    assert len(memory) == len(answering) == 14 and len(set(memory)) == 14


# -- transports --------------------------------------------------------------


def test_memory_transport_roundtrip_and_unknown_address():
    fleet = generate_fleet(spec_with(size=2, FS_PREFERRING=1.0))
    with serve(fleet, Transport.IN_MEMORY) as h:
        res = handshake_attempt(h.connector(), h.addresses[0], DEFAULT.suites, 0.5)
        assert res.selected and is_fs(res.suite)
        with pytest.raises(ConnectFailed):
            h.connector().exchange("nowhere", b"x", 0.5)
    res = handshake_attempt(h.connector(), h.addresses[0], DEFAULT.suites, 0.5)
    assert res.kind is AttemptKind.CONNECT_ERROR and res.error == "harness stopped"


def test_memory_transport_times_out_on_stall():
    fleet = generate_fleet(spec_with(size=1, UNRESPONSIVE=1.0))
    with serve(fleet, Transport.IN_MEMORY) as h:
        res = handshake_attempt(h.connector(), h.addresses[0], DEFAULT.suites, 0.05)
        assert res.kind.value == "TIMEOUT"


def test_memory_transport_waits_a_long_stall_in_parts(monkeypatch):
    # time.sleep refuses a wait near threading.TIMEOUT_MAX, a timeout the
    # CLI accepts; here nothing really sleeps.
    asked = []

    def sleep(seconds):
        asked.append(seconds)
        raise InterruptedError

    fleet = generate_fleet(spec_with(size=1, UNRESPONSIVE=1.0))
    with serve(fleet, Transport.IN_MEMORY) as h:
        sent = h.connector().send(h.addresses[0], b"", threading.TIMEOUT_MAX)
        monkeypatch.setattr(time, "sleep", sleep)
        with pytest.raises(InterruptedError):
            h.connector().receive(sent)
    assert asked == [1.0]


def test_memory_latency_slower_than_timeout_is_a_timeout():
    fleet = generate_fleet(spec_with(size=1, FS_PREFERRING=1.0))
    with serve(fleet, Transport.IN_MEMORY, latency=LatencyModel(base_ms=100)) as h:
        res = handshake_attempt(h.connector(), h.addresses[0], DEFAULT.suites, 0.05)
        assert res.kind.value == "TIMEOUT"


def test_socket_transport_end_to_end_and_clean_stop():
    fleet = generate_fleet(spec_with(size=5, FS_PREFERRING=0.6, NONFS_ONLY=0.4))
    with serve(fleet, Transport.LOOPBACK_SOCKET) as h:
        addr = h.addresses[0]
        assert addr.startswith("127.0.0.1:")
        res = handshake_attempt(h.connector(), addr, DEFAULT.suites, 2.0)
        assert res.selected
    # listeners are gone after stop
    res = handshake_attempt(h.connector(), addr, DEFAULT.suites, 0.5)
    assert res.kind.value in ("CONNECT_ERROR", "TIMEOUT")


def test_socket_transport_serves_alerts_and_stalls():
    fleet = generate_fleet(spec_with(size=4, NONFS_ONLY=0.5, UNRESPONSIVE=0.5))
    with serve(fleet, Transport.LOOPBACK_SOCKET) as h:
        nonfs = next(s for s in fleet if s.archetype is Archetype.NONFS_ONLY)
        res = handshake_attempt(h.connector(), nonfs.address, FS_ONLY.suites, 2.0)
        assert res.kind.value == "REJECTED"
        assert res.alert.description == wire.HANDSHAKE_FAILURE
        stalled = next(s for s in fleet if s.archetype is Archetype.UNRESPONSIVE)
        res = handshake_attempt(h.connector(), stalled.address, DEFAULT.suites, 0.2)
        assert res.kind.value == "TIMEOUT"


def test_socket_loop_survives_a_reply_due_past_the_platform_clock():
    # a finite latency too large for select's timeout: the reply never comes
    fleet = generate_fleet(spec_with(size=1, FS_PREFERRING=1.0))
    with serve(fleet, Transport.LOOPBACK_SOCKET, latency=LatencyModel(base_ms=1e300)) as h:
        for _ in range(2):
            res = handshake_attempt(h.connector(), h.addresses[0], DEFAULT.suites, 0.2)
            assert res.kind is AttemptKind.TIMEOUT
        assert h._thread.is_alive()
        start = time.perf_counter()
        h.stop()
        assert time.perf_counter() - start < 2.0
        assert not h._thread.is_alive()


def test_socket_loop_forgets_the_reply_of_a_client_that_left():
    # every reply is due long after the client gave up and closed
    fleet = generate_fleet(spec_with(size=1, FS_PREFERRING=1.0))
    with serve(fleet, Transport.LOOPBACK_SOCKET, latency=LatencyModel(base_ms=1e300)) as h:
        for _ in range(5):
            res = handshake_attempt(h.connector(), h.addresses[0], DEFAULT.suites, 0.1)
            assert res.kind is AttemptKind.TIMEOUT
        deadline = time.perf_counter() + 5.0
        while h.in_flight and time.perf_counter() < deadline:
            time.sleep(0.01)
        assert h.in_flight == 0
        h.stop()  # joins the loop thread, so what it left is final
        assert len(h._pending) == 0


class Raising:
    """An endpoint whose every answer raises."""

    def __init__(self, server):
        self.server = server

    def respond(self, raw):
        raise RuntimeError("endpoint of %s failed" % self.server.server_id)


def _open_fds():
    return set(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_an_endpoint_that_raises_ends_the_loop_and_stop_raises_it():
    fleet = generate_fleet(spec_with(size=2, FS_PREFERRING=1.0))
    before = _open_fds()
    h = serve(fleet, Transport.LOOPBACK_SOCKET, adversary=Raising)
    try:
        # the first hello's connection closes unanswered, then every listener
        results = [handshake_attempt(h.connector(), address, DEFAULT.suites, 5.0)
                   for address in h.addresses * 2]
    finally:
        with pytest.raises(RuntimeError, match="endpoint of srv-0000 failed"):
            h.stop()
    assert [res.kind for res in results] == [AttemptKind.CONNECT_ERROR] * 4
    assert not h._thread.is_alive()
    assert h.in_flight == 0
    assert _open_fds() <= before
    h.stop()  # raised once; a second stop has nothing to stop


def _count_registers(h, monkeypatch):
    """The connections the harness's loop registers with its selector from now on."""
    registered = []
    register = h._sel.register

    def counting(fileobj, events, data=None):
        key = register(fileobj, events, data)
        registered.append(fileobj)  # once the selector holds it
        return key

    monkeypatch.setattr(h._sel, "register", counting)
    return registered


def _waiting(h):
    """The connections the harness's selector holds: every key but the listeners and the wake end."""
    return [key.fileobj for key in h._sel.get_map().values() if type(key.data) is list]


def _wait_until(predicate, timeout_s=5.0):
    deadline = time.perf_counter() + timeout_s
    while not predicate() and time.perf_counter() < deadline:
        time.sleep(0.01)
    return predicate()


def _dial(address):
    host, port = address.rsplit(":", 1)
    return socket.create_connection((host, int(port)), timeout=5.0)


@pytest.mark.skipif(not hasattr(socket, "TCP_DEFER_ACCEPT"), reason="no TCP_DEFER_ACCEPT here")
def test_a_zero_latency_reply_leaves_in_the_accept_step(monkeypatch):
    fleet = generate_fleet(spec_with(size=2, FS_PREFERRING=0.5, NONFS_ONLY=0.5))
    with serve(fleet, Transport.LOOPBACK_SOCKET) as h:
        registered = _count_registers(h, monkeypatch)
        for i in range(20):
            res = handshake_attempt(h.connector(), h.addresses[i % 2], DEFAULT.suites, 2.0)
            assert res.selected
        assert registered == []
        assert h.max_in_flight == 1
        assert _wait_until(lambda: h.in_flight == 0)


def test_a_stalled_connection_waits_registered_until_the_client_leaves(monkeypatch):
    fleet = generate_fleet(spec_with(size=1, UNRESPONSIVE=1.0))
    with serve(fleet, Transport.LOOPBACK_SOCKET) as h:
        registered = _count_registers(h, monkeypatch)
        with _dial(h.addresses[0]) as client:
            client.sendall(make_ch_bytes(DEFAULT.suites))
            assert _wait_until(lambda: len(registered) == 1)
            assert _waiting(h) == registered
            assert h.max_in_flight == 1
        assert _wait_until(lambda: h.in_flight == 0)


def test_stop_closes_the_connections_still_waiting(monkeypatch):
    # one server stalls, the other's reply is due long after the test ends
    fleet = generate_fleet(spec_with(size=2, UNRESPONSIVE=0.5, FS_PREFERRING=0.5))
    assert {s.archetype for s in fleet} == {Archetype.UNRESPONSIVE, Archetype.FS_PREFERRING}
    with serve(fleet, Transport.LOOPBACK_SOCKET, latency=LatencyModel(base_ms=1e9)) as h:
        registered = _count_registers(h, monkeypatch)
        clients = [_dial(address) for address in h.addresses]
        try:
            for client in clients:
                client.sendall(make_ch_bytes(DEFAULT.suites))
            assert _wait_until(lambda: len(registered) == 2)
            waiting = _waiting(h)
            assert set(waiting) == set(registered)
            assert h.in_flight == 2 and len(h._pending) == 1
            h.stop()
            assert all(conn.fileno() == -1 for conn in waiting)
            assert h.in_flight == 0
            for client in clients:
                assert client.recv(1) == b""  # EOF, not a reply and not a timeout
        finally:
            for client in clients:
                client.close()
    del waiting
    gc.collect()  # a socket the loop left open would warn here, and the warning is an error


def test_a_failed_bind_closes_every_socket_opened_so_far(monkeypatch):
    bind = socket.socket.bind
    calls = []

    def third_fails(sock, address):
        calls.append(address)
        if len(calls) == 3:
            raise OSError("no port left")
        return bind(sock, address)

    monkeypatch.setattr(socket.socket, "bind", third_fails)
    fleet = generate_fleet(spec_with(size=4, FS_PREFERRING=1.0))
    with pytest.raises(BindFailure, match="^bind failed after 2 listeners: no port left$"):
        serve(fleet, Transport.LOOPBACK_SOCKET)
    gc.collect()  # a listener or wake socket left open would warn here, and the warning is an error


def test_a_hello_written_in_two_pieces_is_answered(monkeypatch):
    fleet = generate_fleet(spec_with(size=1, FS_PREFERRING=1.0))
    raw = make_ch_bytes(DEFAULT.suites)
    for split in (3, 5):  # inside the record header, and right after it
        with serve(fleet, Transport.LOOPBACK_SOCKET) as h:
            registered = _count_registers(h, monkeypatch)
            with _dial(h.addresses[0]) as client:
                client.sendall(raw[:split])
                time.sleep(0.05)
                client.sendall(raw[split:])
                _, suite = wire.decode_server_hello(read_record(client, time.perf_counter() + 5.0))
            assert is_fs(suite)
            assert len(registered) == 1  # the first piece alone is not a record: the connection waits


def test_socket_latency_delays_the_reply_and_the_reply_arrives():
    fleet = generate_fleet(spec_with(size=1, FS_PREFERRING=1.0))
    with serve(fleet, Transport.LOOPBACK_SOCKET, latency=LatencyModel(base_ms=30)) as h:
        for _ in range(3):
            res = handshake_attempt(h.connector(), h.addresses[0], DEFAULT.suites, 2.0)
            assert res.selected and is_fs(res.suite)
            assert res.elapsed_s >= 0.030
        assert _wait_until(lambda: h.in_flight == 0 and not h._pending)


def test_tcp_connector_dials_an_ipv4_literal_without_the_resolver(monkeypatch):
    fleet = generate_fleet(spec_with(size=1, FS_PREFERRING=1.0))
    with serve(fleet, Transport.LOOPBACK_SOCKET) as h:
        port = h.addresses[0].rsplit(":", 1)[1]

        def no_resolver(*args, **kwargs):
            raise OSError("resolver called")

        monkeypatch.setattr(socket, "getaddrinfo", no_resolver)
        assert handshake_attempt(TcpConnector(), "127.0.0.1:" + port, DEFAULT.suites, 2.0).selected
        res = handshake_attempt(TcpConnector(), "localhost:" + port, DEFAULT.suites, 2.0)
        assert res.kind is AttemptKind.CONNECT_ERROR and "resolver called" in res.error
        monkeypatch.undo()
        assert handshake_attempt(TcpConnector(), "localhost:" + port, DEFAULT.suites, 2.0).selected


def test_a_refused_literal_connect_fails_and_closes_its_socket(monkeypatch):
    with socket.create_server(("127.0.0.1", 0)) as free:
        port = free.getsockname()[1]
    made = []

    class Tracked(socket.socket):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(socket, "socket", Tracked)
    with pytest.raises(ConnectFailed, match="refused"):
        TcpConnector().exchange("127.0.0.1:%d" % port, b"x", 2.0)
    assert len(made) == 1 and made[0].fileno() == -1


@pytest.mark.parametrize("sent, kind, error", [
    (b"\x16\x03\x03", AttemptKind.PROTOCOL_ERROR, "truncated record header"),
    (b"", AttemptKind.CONNECT_ERROR, "connection closed before a full record"),
], ids=["inside-a-record", "before-any-byte"])
def test_a_peer_that_closes_early(sent, kind, error):
    with socket.create_server(("127.0.0.1", 0)) as listener:
        listener.settimeout(5.0)

        def send_and_close():
            conn, _ = listener.accept()
            with conn:
                read_record(conn, time.perf_counter() + 5.0)  # all of the hello, so the close is clean
                conn.sendall(sent)

        peer = threading.Thread(target=send_and_close)
        peer.start()
        address = "127.0.0.1:%d" % listener.getsockname()[1]
        res = handshake_attempt(TcpConnector(), address, DEFAULT.suites, 5.0)
        peer.join(5.0)
        assert not peer.is_alive()
    assert (res.kind, res.error) == (kind, error)


class CutReply:
    """Sends the first ``k`` bytes of the wrapped server's reply, then closes."""

    def __init__(self, inner, k):
        self.inner = inner
        self.k = k

    def respond(self, raw):
        return self.inner.respond(raw)[: self.k]


def test_the_two_transports_agree_on_a_cut_reply():
    fleet = generate_fleet(spec_with(size=1, FS_PREFERRING=1.0))
    got = {}
    for k in (0, 1, 3, 20):
        for transport in Transport:
            adversary = functools.partial(CutReply, k=k)
            with serve(fleet, transport, adversary=adversary) as h:
                res = handshake_attempt(h.connector(), h.addresses[0], DEFAULT.suites, 5.0)
            got[k, transport] = (res.kind, res.error)
    protocol_error = AttemptKind.PROTOCOL_ERROR
    for transport in Transport:
        assert got[0, transport] == (AttemptKind.CONNECT_ERROR,
                                     "connection closed before a full record")
        assert got[1, transport] == got[3, transport] == (protocol_error, "truncated record header")
        assert got[20, transport] == (protocol_error, "truncated record")


class SendsInstead:
    """Answers every hello with ``reply``, whatever the wrapped server would send."""

    def __init__(self, inner, reply):
        self.inner = inner
        self.reply = reply

    def respond(self, raw):
        return self.reply


@pytest.mark.parametrize("transport", list(Transport))
def test_a_reply_is_read_by_its_record_type(transport):
    fleet = generate_fleet(spec_with(size=1, FS_PREFERRING=1.0))
    warning = wire.AlertMsg(wire.AlertLevel.WARNING, wire.HANDSHAKE_FAILURE)
    cases = [
        (make_ch_bytes(DEFAULT.suites),
         AttemptKind.PROTOCOL_ERROR, "handshake type 1 is not server_hello", None),
        (b"\x17\x03\x03\x00\x04data",
         AttemptKind.PROTOCOL_ERROR, "content type 23 is not handshake", None),
        (wire.encode_alert(warning), AttemptKind.REJECTED, "handshake_failure", [1, 40]),
    ]
    for reply, kind, error, alert in cases:
        adversary = functools.partial(SendsInstead, reply=reply)
        with serve(fleet, transport, adversary=adversary) as h:
            res = handshake_attempt(h.connector(), h.addresses[0], DEFAULT.suites, 5.0)
        assert (res.kind, res.error, res.suite, res.version) == (kind, error, None, None)
        stored = None if res.alert is None else [res.alert.level.value, res.alert.description]
        assert stored == alert  # as a store line holds it


def test_truth_records_shape():
    fleet = generate_fleet(spec_with(size=6, FS_PREFERRING=0.5, NONFS_ONLY=0.5))
    recs = list(truth_records(fleet, campaign="c1"))
    assert len(recs) == 6
    for rec in recs:
        assert rec["kind"] == "truth" and rec["campaign"] == "c1"
        assert rec["archetype"] in {a.value for a in Archetype}
        assert isinstance(rec["supports_fs"], bool)
        assert "expected_classification" in rec


def test_expected_for_server_on_unresponsive():
    fleet = generate_fleet(spec_with(size=1, UNRESPONSIVE=1.0))
    assert expected_for_server(fleet[0]).classification.value == "TIMEOUT"
