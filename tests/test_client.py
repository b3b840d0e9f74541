"""Client policy ladders: sequential fallback, parallel race, bench."""


import pytest
from hypothesis import given, settings, strategies as st

from befs import wire
from befs.client import (
    ALWAYS_ABORT,
    ALWAYS_PROCEED,
    BenchReport,
    FallbackStyle,
    LADDERS,
    PolicyConfig,
    PolicyMode,
    ScriptedDecisions,
    SessionStatus,
    connect,
    describe_fallback,
    latency_bench,
)
from befs.fleetsim import (
    AdversaryConfig,
    AdversaryKind,
    Archetype,
    FleetSpec,
    LatencyModel,
    SimServer,
    Transport,
    generate_fleet,
    policy_truth,
    serve,
)
from befs.handshake import AttemptKind
from befs.negotiate import SelectionRule, ServerPolicy
from befs.suites import DEFAULT_ORDER, FALLBACK_SIGNAL, PROFILES, ProfileKind

SEQUENTIAL_STYLES = (FallbackStyle.SILENT, FallbackStyle.INTERACTIVE, FallbackStyle.SIGNALED)


def one_server(supported, preference, *, rule=SelectionRule.SERVER_PREFERENCE,
               honors_signal=True, adversary=None):
    policy = ServerPolicy(
        frozenset(supported), tuple(preference), frozenset({wire.TLS1_2}), rule
    )
    server = SimServer(
        server_id="srv-0",
        archetype=Archetype.FS_SUPPORTING_NONFS_PREFERRING,
        policy=policy,
        truth=policy_truth(policy),
        honors_fallback_signal=honors_signal,
        seed=7,
    )
    return serve([server], Transport.IN_MEMORY, adversary=adversary)


def cfg_for(mode, style=FallbackStyle.SILENT, timeout_s=0.2):
    return PolicyConfig(mode=mode, fallback=style, timeout_s=timeout_s)


# -- BEFS, sequential ---------------------------------------------------------


@pytest.mark.parametrize("style", SEQUENTIAL_STYLES)
def test_befs_first_rung_wins_when_fs_supported(style):
    # server prefers plain RSA but the FS-only offer leaves it no choice
    with one_server({0xC02F, 0x009C}, (0x009C, 0xC02F)) as h:
        out = connect(h.addresses[0], cfg_for(PolicyMode.BEFS, style),
                      connector=h.connector())
    assert out.status is SessionStatus.CONNECTED
    assert out.fs is True
    assert out.handshake_attempts == 1
    assert out.fallback_depth == 0
    assert out.suite == 0xC02F


def test_befs_silent_fallback_on_nonfs_server():
    with one_server({0x002F, 0x0035}, (0x0035, 0x002F)) as h:
        out = connect(h.addresses[0], cfg_for(PolicyMode.BEFS),
                      connector=h.connector())
    assert out.connected and out.fs is False
    assert out.handshake_attempts == 2
    assert out.fallback_depth == 1
    assert out.attempts[0].kind is AttemptKind.REJECTED
    assert out.suite == 0x0035
    assert len(out.per_attempt_timings) == 2


def test_befs_interactive_abort_stops_before_second_attempt():
    with one_server({0x002F}, (0x002F,)) as h:
        out = connect(
            h.addresses[0],
            cfg_for(PolicyMode.BEFS, FallbackStyle.INTERACTIVE),
            ALWAYS_ABORT,
            connector=h.connector(),
        )
    assert out.status is SessionStatus.ABORTED_BY_USER
    assert out.handshake_attempts == 1  # only the FS-only try happened
    assert out.fallback_depth == 0
    assert out.suite is None


def test_befs_interactive_consent_proceeds_and_prompt_names_the_cost():
    user = ScriptedDecisions([True])
    with one_server({0x002F}, (0x002F,)) as h:
        out = connect(
            h.addresses[0],
            cfg_for(PolicyMode.BEFS, FallbackStyle.INTERACTIVE),
            user,
            connector=h.connector(),
        )
    assert out.connected and out.fs is False
    assert out.handshake_attempts == 2
    assert len(user.prompts) == 1
    assert "forward secrecy" in user.prompts[0]
    assert h.addresses[0] in user.prompts[0]


def test_scripted_decisions_exhaustion_raises():
    user = ScriptedDecisions([])
    with pytest.raises(RuntimeError):
        user.approve_fallback("x")


def test_describe_fallback_texts():
    assert "authenticated encryption" in describe_fallback("a", ProfileKind.FS_ONLY)
    assert "forward secrecy" in describe_fallback("a", ProfileKind.DEFAULT)


def test_befs_signaled_fallback_connects_against_nonfs_server():
    # a server with no FS support cannot be downgraded, so the honest
    # signal check does not fire and the widened offer succeeds
    with one_server({0x002F, 0x009C}, (0x009C, 0x002F)) as h:
        out = connect(
            h.addresses[0],
            cfg_for(PolicyMode.BEFS, FallbackStyle.SIGNALED),
            connector=h.connector(),
        )
    assert out.connected and out.fs is False
    assert out.suite == 0x009C


def test_signaled_fallback_is_refused_by_fs_capable_server_under_dropper():
    # the dropper suppresses the FS-only offer; the signaled retry then
    # reaches an FS-capable server, which refuses the marked downgrade
    adv = AdversaryConfig(kind=AdversaryKind.ACTIVE_DROPPER)
    with one_server({0xC02F, 0x009C}, (0x009C, 0xC02F), adversary=adv) as h:
        out = connect(
            h.addresses[0],
            cfg_for(PolicyMode.BEFS, FallbackStyle.SIGNALED, timeout_s=0.05),
            connector=h.connector(),
        )
    assert out.status is SessionStatus.FAILED
    assert [a.kind for a in out.attempts] == [AttemptKind.TIMEOUT, AttemptKind.REJECTED]
    assert out.attempts[1].alert.description == wire.INAPPROPRIATE_FALLBACK


def test_silent_fallback_is_downgraded_by_dropper_unnoticed():
    # same attack without the signal: the retry quietly lands on non-FS
    adv = AdversaryConfig(kind=AdversaryKind.ACTIVE_DROPPER)
    with one_server({0xC02F, 0x009C}, (0x009C, 0xC02F), adversary=adv) as h:
        out = connect(
            h.addresses[0],
            cfg_for(PolicyMode.BEFS, FallbackStyle.SILENT, timeout_s=0.05),
            connector=h.connector(),
        )
    assert out.connected and out.fs is False
    assert out.suite == 0x009C


# -- BESAFE, sequential -------------------------------------------------------


def test_besafe_one_attempt_when_fs_ae_supported():
    with one_server({0xC02B, 0x009D}, (0x009D, 0xC02B)) as h:
        out = connect(h.addresses[0], cfg_for(PolicyMode.BESAFE),
                      connector=h.connector())
    assert out.connected and out.fs is True and out.ae is True
    assert out.handshake_attempts == 1 and out.fallback_depth == 0


def test_besafe_two_attempts_when_only_cbc_fs_available():
    with one_server({0xC013, 0x002F}, (0x002F, 0xC013)) as h:
        out = connect(h.addresses[0], cfg_for(PolicyMode.BESAFE),
                      connector=h.connector())
    assert out.connected and out.fs is True and out.ae is False
    assert out.handshake_attempts == 2 and out.fallback_depth == 1
    assert out.suite == 0xC013


def test_besafe_three_attempts_on_nonfs_server_with_prompts():
    user = ScriptedDecisions([True, True])
    with one_server({0x0035}, (0x0035,)) as h:
        out = connect(
            h.addresses[0],
            cfg_for(PolicyMode.BESAFE, FallbackStyle.INTERACTIVE),
            user,
            connector=h.connector(),
        )
    assert out.connected and out.fs is False
    assert out.handshake_attempts == 3 and out.fallback_depth == 2
    assert len(user.prompts) == 2
    assert "authenticated encryption" in user.prompts[0]
    assert "forward secrecy" in user.prompts[1]


def test_default_mode_single_attempt():
    with one_server({0x002F}, (0x002F,)) as h:
        out = connect(h.addresses[0], cfg_for(PolicyMode.DEFAULT),
                      connector=h.connector())
    assert out.connected and out.handshake_attempts == 1 and out.fallback_depth == 0


def test_failed_when_nothing_overlaps():
    # TLS 1.0-only server rejects every offer at max version 1.2? No:
    # version negotiation still finds 1.0. Use an empty-overlap suite set.
    policy = ServerPolicy(
        frozenset({0x0033}), (0x0033,), frozenset({wire.TLS1_2})
    )
    server = SimServer(
        server_id="srv-0",
        archetype=Archetype.NONFS_ONLY,
        policy=policy,
        truth=policy_truth(policy),
        seed=3,
    )
    with serve([server], Transport.IN_MEMORY) as h:
        out = connect(h.addresses[0], cfg_for(PolicyMode.BEFS),
                      connector=h.connector())
    assert out.status is SessionStatus.FAILED
    assert out.handshake_attempts == 2
    assert out.suite is None and out.fs is None


# -- property: best effort and never-worse ------------------------------------


@st.composite
def server_policies(draw):
    supported = draw(st.sets(st.sampled_from(DEFAULT_ORDER), min_size=1, max_size=6))
    preference = tuple(draw(st.permutations(sorted(supported))))
    rule = draw(st.sampled_from(list(SelectionRule)))
    return ServerPolicy(frozenset(supported), preference, frozenset({wire.TLS1_2}), rule)


@settings(max_examples=60, deadline=None)
@given(policy=server_policies(), style=st.sampled_from(SEQUENTIAL_STYLES))
def test_policies_best_effort_and_never_worse(policy, style):
    truth = policy_truth(policy)
    server = SimServer(
        server_id="srv-0",
        archetype=Archetype.FS_SUPPORTING_NONFS_PREFERRING,
        policy=policy,
        truth=truth,
        seed=11,
    )
    with serve([server], Transport.IN_MEMORY) as h:
        conn = h.connector()
        base = connect(h.addresses[0], cfg_for(PolicyMode.DEFAULT), connector=conn)
        befs = connect(h.addresses[0], cfg_for(PolicyMode.BEFS, style),
                       ALWAYS_PROCEED, connector=conn)
        besafe = connect(h.addresses[0], cfg_for(PolicyMode.BESAFE, style),
                         ALWAYS_PROCEED, connector=conn)
    # supported suites come from the client's default offer, so every
    # ladder that reaches its widest rung unreproached must connect
    assert base.connected and befs.connected
    assert befs.fs == truth.supports_fs
    # lexicographic (fs, ae) never gets worse as the ladder gets stricter
    assert (befs.fs, befs.ae) >= (base.fs, base.ae)
    if (style is FallbackStyle.SIGNALED and truth.supports_fs
            and not truth.supports_fs_ae):
        # the server honors the signal and could have done FS itself, so
        # it refuses both signaled rungs: a hard failure, not weak crypto
        assert besafe.status is SessionStatus.FAILED
    else:
        assert besafe.connected
        assert besafe.fs == truth.supports_fs
        if truth.supports_fs:
            assert besafe.ae == truth.supports_fs_ae
        assert (besafe.fs, besafe.ae) >= (befs.fs, befs.ae)


# -- parallel variant ---------------------------------------------------------


def test_parallel_befs_prefers_strongest_rung():
    with one_server({0xC02F, 0x009C}, (0x009C, 0xC02F)) as h:
        out = connect(
            h.addresses[0], cfg_for(PolicyMode.BEFS, FallbackStyle.PARALLEL),
            connector=h.connector(),
        )
    assert out.connected and out.fs is True
    assert out.suite == 0xC02F
    assert out.handshake_attempts == 2  # both rungs always run
    assert out.fallback_depth == 0
    # the weaker rung did complete, with the server's preferred suite
    assert out.attempts[1].suite == 0x009C


def test_parallel_befs_on_nonfs_server():
    with one_server({0x002F}, (0x002F,)) as h:
        out = connect(
            h.addresses[0], cfg_for(PolicyMode.BEFS, FallbackStyle.PARALLEL),
            connector=h.connector(),
        )
    assert out.connected and out.fs is False
    assert out.handshake_attempts == 2 and out.fallback_depth == 1


def test_parallel_besafe_runs_three_rungs():
    with one_server({0xC013, 0x002F}, (0x002F, 0xC013)) as h:
        out = connect(
            h.addresses[0], cfg_for(PolicyMode.BESAFE, FallbackStyle.PARALLEL),
            connector=h.connector(),
        )
    assert out.connected and out.fs is True and out.ae is False
    assert out.handshake_attempts == 3 and out.fallback_depth == 1


def test_parallel_unresponsive_fails_with_all_rungs_accounted():
    fleet = generate_fleet(FleetSpec(size=1, seed=1, mix={Archetype.UNRESPONSIVE: 1.0}))
    with serve(fleet, Transport.IN_MEMORY) as h:
        out = connect(
            h.addresses[0], cfg_for(PolicyMode.BEFS, FallbackStyle.PARALLEL, timeout_s=0.05),
            connector=h.connector(),
        )
    assert out.status is SessionStatus.FAILED
    assert out.handshake_attempts == 2
    assert all(a.kind is AttemptKind.TIMEOUT for a in out.attempts)


def test_parallel_requires_flag_and_dispatch_honors_it():
    with one_server({0x002F}, (0x002F,)) as h:
        out = connect(h.addresses[0], cfg_for(PolicyMode.BEFS, FallbackStyle.PARALLEL),
                      connector=h.connector())
    assert out.connected and out.handshake_attempts == 2


@pytest.mark.parametrize("style", [FallbackStyle.SILENT, FallbackStyle.PARALLEL],
                         ids=["sequential", "parallel"])
@pytest.mark.parametrize("mode", list(PolicyMode))
def test_nonfs_fleet_walks_the_whole_ladder(mode, style):
    rungs = {PolicyMode.DEFAULT: 1, PolicyMode.BEFS: 2, PolicyMode.BESAFE: 3}[mode]
    assert len(LADDERS[mode]) == rungs
    fleet = generate_fleet(FleetSpec(size=3, seed=5, mix={Archetype.NONFS_ONLY: 1.0}))
    with serve(fleet, Transport.IN_MEMORY) as h:
        outs = [connect(a, cfg_for(mode, style), connector=h.connector())
                for a in h.addresses]
    for out in outs:
        assert out.connected and out.fs is False
        assert out.handshake_attempts == rungs
        assert out.fallback_depth == len(LADDERS[mode]) - 1
        assert out.mode is mode


def test_sequential_attempt_accounting():
    cases = [
        ({0xC02B}, (0xC02B,), PolicyMode.BESAFE, 1),
        ({0xC013}, (0xC013,), PolicyMode.BESAFE, 2),
        ({0x009C}, (0x009C,), PolicyMode.BESAFE, 3),
        ({0x009C}, (0x009C,), PolicyMode.BEFS, 2),
    ]
    for supported, pref, mode, expect in cases:
        with one_server(supported, pref) as h:
            out = connect(h.addresses[0], cfg_for(mode), connector=h.connector())
        assert out.connected
        assert out.handshake_attempts == expect
        assert out.fallback_depth == expect - 1
        assert len(out.per_attempt_timings) == expect


# -- servers that ignore the offer --------------------------------------------


class FixedReply:
    """Answers every ClientHello with the same bytes, whatever it offered."""

    def __init__(self, reply):
        self.reply = reply

    def exchange(self, address, raw, timeout_s, client):
        return self.reply


def server_hello(suite, version=wire.TLS1_2):
    return wire.encode_server_hello(wire.ServerHelloSummary(version, suite))


@pytest.mark.parametrize("mode", list(PolicyMode))
def test_offer_ignoring_server_cannot_pass_off_an_unoffered_pick(mode):
    depth = len(LADDERS[mode]) - 1
    # static RSA to every rung: only the widest, default offer contains it
    out = connect("srv-0", cfg_for(mode), connector=FixedReply(server_hello(0x002F)))
    assert out.connected and out.suite == 0x002F and out.fs is False
    assert out.fallback_depth == depth and out.handshake_attempts == depth + 1
    assert all(a.kind is AttemptKind.PROTOCOL_ERROR for a in out.attempts[:-1])
    # the fallback signal itself, or a version above TLS 1.2, never connects
    for reply in (server_hello(FALLBACK_SIGNAL), server_hello(0xC02F, 0x0304)):
        out = connect("srv-0", cfg_for(mode, FallbackStyle.SIGNALED),
                      connector=FixedReply(reply))
        assert out.status is SessionStatus.FAILED
        assert all(a.kind is AttemptKind.PROTOCOL_ERROR for a in out.attempts)


_SUITES = st.one_of(st.sampled_from(DEFAULT_ORDER + (FALLBACK_SIGNAL,)), st.integers(0, 0xFFFF))
_VERSIONS = st.one_of(st.sampled_from((wire.TLS1_0, wire.TLS1_2, 0x0304)),
                      st.integers(0, 0xFFFF))


@settings(max_examples=300, deadline=None)
@given(
    reply=st.one_of(st.binary(max_size=80), st.builds(server_hello, _SUITES, _VERSIONS)),
    mode=st.sampled_from(list(PolicyMode)),
    style=st.sampled_from(list(FallbackStyle)),
)
def test_no_reply_connects_on_an_unoffered_suite_or_version(reply, mode, style):
    out = connect("srv-0", cfg_for(mode, style), connector=FixedReply(reply))
    if out.connected:
        rung = LADDERS[mode][out.fallback_depth]
        assert out.suite in PROFILES[rung].suites
        assert out.attempts[out.fallback_depth].version <= wire.TLS1_2


# -- latency bench ------------------------------------------------------------


def test_bench_attempt_scaling_on_nonfs_fleet():
    fleet = generate_fleet(FleetSpec(size=3, seed=5, mix={Archetype.NONFS_ONLY: 1.0}))
    # latency large enough that per-attempt cost dominates scheduler noise
    with serve(fleet, Transport.IN_MEMORY, latency=LatencyModel(base_ms=15.0)) as h:
        report = latency_bench(h.addresses, repetitions=2, connector=h.connector(),
                               timeout_s=0.5)
    assert report.responders == 3 and report.excluded == ()
    stats = report.per_mode
    assert stats[PolicyMode.DEFAULT].attempts_avg == 1.0
    assert stats[PolicyMode.BEFS].attempts_avg == 2.0
    assert stats[PolicyMode.BESAFE].attempts_avg == 3.0
    # each extra rung pays one more injected round trip
    assert stats[PolicyMode.DEFAULT].avg_s < stats[PolicyMode.BEFS].avg_s
    assert stats[PolicyMode.BEFS].avg_s < stats[PolicyMode.BESAFE].avg_s
    assert stats[PolicyMode.DEFAULT].samples == 6


def test_bench_single_sample_stats_degenerate():
    with one_server({0xC02B}, (0xC02B,)) as h:
        report = latency_bench(h.addresses, connector=h.connector(), timeout_s=0.5)
    for mode, stats in report.per_mode.items():
        assert stats.samples == 1
        assert stats.max_s == stats.min_s == stats.avg_s
        assert stats.attempts_avg == 1.0  # FS+AE server: every ladder is one rung


def test_bench_excludes_failing_addresses():
    responsive = generate_fleet(
        FleetSpec(size=1, seed=2, mix={Archetype.FS_PREFERRING: 1.0})
    )
    dead = generate_fleet(FleetSpec(size=1, seed=3, mix={Archetype.UNRESPONSIVE: 1.0}))
    dead[0].server_id = "srv-dead"
    dead[0].address = ""
    with serve(responsive + dead, Transport.IN_MEMORY) as h:
        dead_addr = h.address_of["srv-dead"]
        report = latency_bench(h.addresses, connector=h.connector(), timeout_s=0.05)
    assert report.responders == 1
    assert report.excluded == (dead_addr,)
    assert isinstance(report, BenchReport)


class SniRecorder(FixedReply):
    """Answers like FixedReply and records (address, SNI) of each ClientHello."""

    def __init__(self, reply):
        super().__init__(reply)
        self.seen = set()

    def exchange(self, address, raw, timeout_s, client):
        self.seen.add((address, wire.extract_sni(wire.decode_client_hello(raw))))
        return self.reply


def test_bench_sends_each_address_its_own_sni():
    addresses = ["a.example:443", "b.example", "192.0.2.1:443"]
    for sni, names in ((True, ["a.example", "b.example", None]), (False, [None] * 3)):
        recorder = SniRecorder(server_hello(0xC02F))
        report = latency_bench(addresses, connector=recorder, timeout_s=0.5, sni=sni)
        assert report.responders == 3
        assert recorder.seen == set(zip(addresses, names))


@pytest.mark.parametrize("style", list(FallbackStyle))
def test_connect_sends_the_host_as_sni_only_when_asked(style):
    addresses = ["a.example:443", "b.example", "192.0.2.1:443"]
    for sni, names in ((True, ["a.example", "b.example", None]), (False, [None] * 3)):
        recorder = SniRecorder(server_hello(0x002F))  # only the widest rung connects
        for address in addresses:
            assert connect(address, cfg_for(PolicyMode.BESAFE, style), connector=recorder,
                           sni=sni).connected
        assert recorder.seen == set(zip(addresses, names))


def test_bench_refuses_zero_repetitions():
    recorder = SniRecorder(server_hello(0xC02F))
    with pytest.raises(ValueError):
        latency_bench(["a.example"], repetitions=0, connector=recorder)
    assert recorder.seen == set()
