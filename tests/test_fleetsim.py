"""Fleet generation, honest serving, adversary wrappers, transports."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from befs import wire
from befs.fleetsim import (
    AdversaryConfig,
    AdversaryKind,
    Archetype,
    BindFailure,
    FleetSpec,
    GroundTruth,
    InvalidSpec,
    LatencyModel,
    MemoryHarness,
    SimServer,
    Transport,
    apply_adversary,
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
from befs.handshake import ClientIdentity, ConnectFailed, handshake_attempt
from befs.negotiate import ServerPolicy
from befs.suites import DEFAULT, FALLBACK_SIGNAL, FS_ONLY, REGISTRY, is_fs
from befs.wire import TLS1_0, TLS1_1, TLS1_2

CLIENT = ClientIdentity(tag="t")


def make_ch_bytes(suites, version=TLS1_2):
    msg = wire.ClientHelloMsg(
        legacy_version=version, random=bytes(32), cipher_suites=tuple(suites)
    )
    return wire.encode_client_hello(msg)


def make_server(supported, preference, versions=frozenset({TLS1_2}), **kw):
    policy = ServerPolicy(frozenset(supported), tuple(preference), versions)
    arch = kw.pop("archetype", Archetype.FS_SUPPORTING_NONFS_PREFERRING)
    return SimServer(
        server_id=kw.pop("server_id", "srv-test"),
        archetype=arch,
        policy=policy,
        truth=policy_truth(policy),
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


_JSON_JUNK = (st.none() | st.booleans() | st.text(max_size=3) | st.integers(-3, 3)
              | st.floats(allow_nan=True, allow_infinity=True) | st.lists(st.integers(), max_size=2))
_ARCHETYPE_NAMES = st.sampled_from([a.value for a in Archetype])


@st.composite
def _spec_dicts(draw):
    def usually(valid):  # one value in five is junk
        return draw(_JSON_JUNK if draw(st.integers(0, 4)) == 0 else valid)

    weights = draw(st.dictionaries(_ARCHETYPE_NAMES, st.floats(0, 1), min_size=1))
    total = sum(weights.values())
    mix = {name: usually(st.just(w / total if total else w)) for name, w in weights.items()}
    data = {"size": usually(st.integers(-1, 40)), "seed": usually(st.integers()),
            "mix": usually(st.just(mix))}
    if draw(st.booleans()):
        data["network_device_fraction"] = usually(st.floats(0, 1))
    if draw(st.booleans()):
        data["latency"] = usually(st.dictionaries(
            st.sampled_from(["base_ms", "jitter_ms"]), st.floats(-1, 5) | _JSON_JUNK))
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
    return [server.respond(offer, CLIENT) for _ in range(rounds) for server in fleet]


def test_server_hello_bytes_repeat_with_the_spec():
    spec = spec_with(size=40, FS_PREFERRING=0.5, NONFS_ONLY=0.5)
    assert _hellos(generate_fleet(spec)) == _hellos(generate_fleet(spec))


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


def test_every_archetype_realizes_its_constraints():
    fleet = generate_fleet(spec_with(size=180, **FULL_MIX))
    for s in fleet:
        # stored truth is never stale
        assert s.truth == policy_truth(s.policy, s.truth.device_type)
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
    policy = ServerPolicy(frozenset(supported), tuple(pref), frozenset({TLS1_2}))
    truth = policy_truth(policy)
    assert truth.supports_fs == any(is_fs(s) for s in supported)
    assert truth.supports_fs_ae == any(
        is_fs(s) and REGISTRY[s].ae for s in supported
    )
    first_pick = next((s for s in pref if s in set(DEFAULT.suites)), None)
    assert truth.selects_fs_by_default == (first_pick is not None and is_fs(first_pick))


# -- honest serving ----------------------------------------------------------


def test_default_offer_to_fs_preferring_yields_fs_suite():
    fleet = generate_fleet(spec_with(size=3, FS_PREFERRING=1.0))
    reply = fleet[0].respond(make_ch_bytes(DEFAULT.suites), CLIENT)
    sh = wire.decode_server_hello(reply)
    assert is_fs(sh.selected_suite)


def test_fs_offer_to_nonfs_server_yields_alert_40():
    server = make_server({0x002F}, (0x002F,), archetype=Archetype.NONFS_ONLY)
    reply = server.respond(make_ch_bytes(FS_ONLY.suites), CLIENT)
    alert = wire.decode_alert(reply)
    assert alert.level is wire.AlertLevel.FATAL
    assert alert.description == wire.HANDSHAKE_FAILURE


def test_malformed_ch_yields_decode_error_alert():
    server = make_server({0x002F}, (0x002F,))
    alert = wire.decode_alert(server.respond(b"\x16\x03\x03\x00\x02\x01\x00", CLIENT))
    assert alert.description == wire.DECODE_ERROR


def test_unresponsive_server_stalls():
    server = make_server({0x002F}, (0x002F,), archetype=Archetype.UNRESPONSIVE)
    assert server.respond(make_ch_bytes(DEFAULT.suites), CLIENT) is None


def test_signal_honoring_fs_server_rejects_signaled_offer():
    server = make_server({0xC02F, 0x002F}, (0x002F, 0xC02F))
    signaled = make_ch_bytes(DEFAULT.suites + (FALLBACK_SIGNAL,))
    alert = wire.decode_alert(server.respond(signaled, CLIENT))
    assert alert.description == wire.INAPPROPRIATE_FALLBACK
    # same offer without the signal is answered
    sh = wire.decode_server_hello(server.respond(make_ch_bytes(DEFAULT.suites), CLIENT))
    assert sh.selected_suite == 0x002F


def test_signal_ignored_when_server_lacks_fs_or_honor_flag():
    nonfs = make_server({0x002F}, (0x002F,), archetype=Archetype.NONFS_ONLY)
    signaled = make_ch_bytes(DEFAULT.suites + (FALLBACK_SIGNAL,))
    assert wire.decode_server_hello(nonfs.respond(signaled, CLIENT)).selected_suite == 0x002F
    dishonoring = make_server({0xC02F, 0x002F}, (0x002F, 0xC02F), honors_fallback_signal=False)
    assert wire.decode_server_hello(dishonoring.respond(signaled, CLIENT)).selected_suite == 0x002F


def test_version_negotiation_respects_client_max():
    server = make_server({0x002F}, (0x002F,), versions=frozenset({TLS1_0, TLS1_2}))
    sh = wire.decode_server_hello(server.respond(make_ch_bytes((0x002F,), version=TLS1_1), CLIENT))
    assert sh.negotiated_version == TLS1_0


# -- adversaries -------------------------------------------------------------


def twin_servers(**kw):
    return make_server({0xC02F, 0x002F}, (0x002F, 0xC02F), **kw), make_server(
        {0xC02F, 0x002F}, (0x002F, 0xC02F), **kw
    )


def test_passive_tap_forwards_unchanged_and_logs():
    plain, tapped_inner = twin_servers()
    tap = apply_adversary(tapped_inner, AdversaryConfig(AdversaryKind.PASSIVE))
    raw = make_ch_bytes(DEFAULT.suites)
    want = plain.respond(raw, CLIENT)
    got = tap.respond(raw, CLIENT)
    assert got == want
    assert len(tap.transcript) == 1
    entry = tap.transcript[0]
    assert entry.request == raw and entry.response == got


def test_dropper_drops_all_fs_offers_and_forwards_rest():
    plain, inner = twin_servers()
    dropper = apply_adversary(inner, AdversaryConfig(AdversaryKind.ACTIVE_DROPPER))
    assert dropper.respond(make_ch_bytes(FS_ONLY.suites), CLIENT) is None
    assert dropper.respond(make_ch_bytes(FS_ONLY.suites), CLIENT) is None  # every one, not just the first
    raw = make_ch_bytes(DEFAULT.suites)
    assert dropper.respond(raw, CLIENT) == plain.respond(raw, CLIENT)
    assert dropper.dropped == 2


def test_offer_is_all_fs_ignores_signal_marker():
    ch = wire.decode_client_hello(make_ch_bytes(FS_ONLY.suites + (FALLBACK_SIGNAL,)))
    assert offer_is_all_fs(ch)
    ch = wire.decode_client_hello(make_ch_bytes(DEFAULT.suites + (FALLBACK_SIGNAL,)))
    assert not offer_is_all_fs(ch)


def weak_wrapped(target_tag="victim"):
    _, inner = twin_servers()
    cfg = AdversaryConfig(
        AdversaryKind.DISCRIMINATORY_WEAK,
        target_predicate=lambda c: c.tag == target_tag,
    )
    return apply_adversary(inner, cfg)


def test_weak_discriminator_submits_to_fs_only_offer():
    weak = weak_wrapped()
    victim = ClientIdentity(tag="victim")
    sh = wire.decode_server_hello(weak.respond(make_ch_bytes(FS_ONLY.suites), victim))
    assert is_fs(sh.selected_suite)


def test_weak_discriminator_steers_default_offer_to_non_fs():
    # inner twin prefers non-FS already; use an FS-preferring inner instead
    inner = make_server({0xC02F, 0x002F}, (0xC02F, 0x002F))
    cfg = AdversaryConfig(AdversaryKind.DISCRIMINATORY_WEAK, target_predicate=lambda c: c.tag == "v")
    weak = apply_adversary(inner, cfg)
    victim = ClientIdentity(tag="v")
    other = ClientIdentity(tag="w")
    assert wire.decode_server_hello(weak.respond(make_ch_bytes(DEFAULT.suites), victim)).selected_suite == 0x002F
    assert wire.decode_server_hello(weak.respond(make_ch_bytes(DEFAULT.suites), other)).selected_suite == 0xC02F


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=100)
def test_weak_discriminator_is_observationally_honest(seed):
    rng = random.Random(seed)
    weak = weak_wrapped(target_tag="v")
    victim = ClientIdentity(tag="v")
    offer = tuple(rng.sample(sorted(REGISTRY), rng.randint(1, len(REGISTRY))))
    reply = weak.respond(make_ch_bytes(offer), victim)
    try:
        sh = wire.decode_server_hello(reply)
    except wire.NotServerHello:
        assert not (set(offer) & weak.inner.policy.supported)
        return
    assert sh.selected_suite in set(offer) & weak.inner.policy.supported


def test_strong_discriminator_rejects_all_fs_offers():
    _, inner = twin_servers()
    strong = apply_adversary(
        inner, AdversaryConfig(AdversaryKind.DISCRIMINATORY_STRONG, target_predicate=lambda c: True)
    )
    alert = wire.decode_alert(strong.respond(make_ch_bytes(FS_ONLY.suites), CLIENT))
    assert alert.description == wire.HANDSHAKE_FAILURE
    sh = wire.decode_server_hello(strong.respond(make_ch_bytes(DEFAULT.suites), CLIENT))
    assert not is_fs(sh.selected_suite)


def test_discriminators_ignore_fallback_signal():
    inner = make_server({0xC02F, 0x002F}, (0xC02F, 0x002F))
    strong = apply_adversary(
        inner, AdversaryConfig(AdversaryKind.DISCRIMINATORY_STRONG, target_predicate=lambda c: True)
    )
    signaled = make_ch_bytes(DEFAULT.suites + (FALLBACK_SIGNAL,))
    sh = wire.decode_server_hello(strong.respond(signaled, CLIENT))
    assert not is_fs(sh.selected_suite)


def test_apply_adversary_none_is_identity():
    server, _ = twin_servers()
    assert apply_adversary(server, None) is server


# -- transports --------------------------------------------------------------


def test_memory_transport_roundtrip_and_unknown_address():
    fleet = generate_fleet(spec_with(size=2, FS_PREFERRING=1.0))
    with serve(fleet, Transport.IN_MEMORY) as h:
        res = handshake_attempt(h.connector(), h.addresses[0], DEFAULT.suites, 0.5)
        assert res.selected and is_fs(res.suite)
        with pytest.raises(ConnectFailed):
            h.connector().exchange("nowhere", b"x", 0.5, CLIENT)


def test_memory_transport_times_out_on_stall():
    fleet = generate_fleet(spec_with(size=1, UNRESPONSIVE=1.0))
    with serve(fleet, Transport.IN_MEMORY) as h:
        res = handshake_attempt(h.connector(), h.addresses[0], DEFAULT.suites, 0.05)
        assert res.kind.value == "TIMEOUT"


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


def test_truth_records_shape():
    fleet = generate_fleet(spec_with(size=6, FS_PREFERRING=0.5, NONFS_ONLY=0.5))
    recs = truth_records(fleet, campaign="c1")
    assert len(recs) == 6
    for rec in recs:
        assert rec["kind"] == "truth" and rec["campaign"] == "c1"
        assert rec["archetype"] in {a.value for a in Archetype}
        assert isinstance(rec["supports_fs"], bool)
        assert "expected_classification" in rec


def test_expected_for_server_on_unresponsive():
    fleet = generate_fleet(spec_with(size=1, UNRESPONSIVE=1.0))
    assert expected_for_server(fleet[0]).classification.value == "TIMEOUT"
