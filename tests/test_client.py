"""Client policy ladders: sequential fallback, parallel race, bench."""

import gc
import operator
import threading
import time

import pytest
import wire_reference as ref
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
    SessionStatus,
    connect,
    describe_fallback,
    latency_bench,
)
from befs.fleetsim import (
    ActiveDropper,
    Archetype,
    FleetSpec,
    LatencyModel,
    PassiveTap,
    SimServer,
    Transport,
    generate_fleet,
    serve,
)
from befs.handshake import (
    AttemptKind, ConnectFailed, Connector, TcpConnector, handshake_attempt,
)
from befs.negotiate import SelectionRule, ServerPolicy
from befs.suites import DEFAULT_ORDER, FALLBACK_SIGNAL, ProfileKind

SEQUENTIAL_STYLES = (FallbackStyle.SILENT, FallbackStyle.INTERACTIVE, FallbackStyle.SIGNALED)


def one_server(preference, *, rule=SelectionRule.SERVER_PREFERENCE,
               honors_signal=True, adversary=None, transport=Transport.IN_MEMORY,
               latency=LatencyModel()):
    server = SimServer(
        server_id="srv-0",
        archetype=Archetype.FS_SUPPORTING_NONFS_PREFERRING,
        policy=ServerPolicy(preference, frozenset({wire.TLS1_2}), rule),
        honors_fallback_signal=honors_signal,
        seed=7,
    )
    return serve([server], transport, adversary=adversary, latency=latency)


def scripted(*answers):
    """A fallback decision giving ``answers`` in turn; ``.prompts`` records each question."""
    script = list(answers)

    def user(description):
        user.prompts.append(description)
        return script.pop(0)

    user.prompts = []
    return user


def cfg_for(mode, style=FallbackStyle.SILENT, timeout_s=0.2):
    return PolicyConfig(mode=mode, fallback=style, timeout_s=timeout_s)


# -- BEFS, sequential ---------------------------------------------------------


@pytest.mark.parametrize("style", SEQUENTIAL_STYLES)
def test_befs_first_rung_wins_when_fs_supported(style):
    # server prefers plain RSA but the FS-only offer leaves it no choice
    with one_server((0x009C, 0xC02F)) as h:
        out = connect(h.addresses[0], cfg_for(PolicyMode.BEFS, style),
                      connector=h.connector())
    assert out.status is SessionStatus.CONNECTED
    assert out.fs is True
    assert out.handshake_attempts == 1
    assert out.fallback_depth == 0
    assert out.suite == 0xC02F


def test_befs_silent_fallback_on_nonfs_server():
    with one_server((0x0035, 0x002F)) as h:
        out = connect(h.addresses[0], cfg_for(PolicyMode.BEFS),
                      connector=h.connector())
    assert out.connected and out.fs is False
    assert out.handshake_attempts == 2
    assert out.fallback_depth == 1
    assert out.attempts[0].kind is AttemptKind.REJECTED
    assert out.suite == 0x0035
    assert len(out.per_attempt_timings) == 2


def test_befs_interactive_abort_stops_before_second_attempt():
    with one_server((0x002F,)) as h:
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
    user = scripted(True)
    with one_server((0x002F,)) as h:
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
    # a decision that raises ends connect with its error: it is neither
    # consent nor an abort, and the widened offer is never sent
    user = scripted()
    sent = []
    with one_server((0x002F,)) as h:
        inner = h.connector()

        class Counting:
            def exchange(self, address, raw, timeout_s):
                sent.append(raw)
                return inner.exchange(address, raw, timeout_s)

        with pytest.raises(IndexError):
            connect(
                h.addresses[0],
                cfg_for(PolicyMode.BEFS, FallbackStyle.INTERACTIVE),
                user,
                connector=Counting(),
            )
    assert len(user.prompts) == 1
    assert len(sent) == 1  # only the FS-only hello


def test_describe_fallback_texts():
    assert "authenticated encryption" in describe_fallback("a", ProfileKind.FS_ONLY)
    assert "forward secrecy" in describe_fallback("a", ProfileKind.DEFAULT)


def test_befs_signaled_fallback_connects_against_nonfs_server():
    # a server with no FS support cannot be downgraded, so the honest
    # signal check does not fire and the widened offer succeeds
    with one_server((0x009C, 0x002F)) as h:
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
    with one_server((0x009C, 0xC02F), adversary=ActiveDropper) as h:
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
    with one_server((0x009C, 0xC02F), adversary=ActiveDropper) as h:
        out = connect(
            h.addresses[0],
            cfg_for(PolicyMode.BEFS, FallbackStyle.SILENT, timeout_s=0.05),
            connector=h.connector(),
        )
    assert out.connected and out.fs is False
    assert out.suite == 0x009C


# -- BESAFE, sequential -------------------------------------------------------


def test_besafe_one_attempt_when_fs_ae_supported():
    with one_server((0x009D, 0xC02B)) as h:
        out = connect(h.addresses[0], cfg_for(PolicyMode.BESAFE),
                      connector=h.connector())
    assert out.connected and out.fs is True and out.ae is True
    assert out.handshake_attempts == 1 and out.fallback_depth == 0


def test_besafe_two_attempts_when_only_cbc_fs_available():
    with one_server((0x002F, 0xC013)) as h:
        out = connect(h.addresses[0], cfg_for(PolicyMode.BESAFE),
                      connector=h.connector())
    assert out.connected and out.fs is True and out.ae is False
    assert out.handshake_attempts == 2 and out.fallback_depth == 1
    assert out.suite == 0xC013


def test_besafe_three_attempts_on_nonfs_server_with_prompts():
    user = scripted(True, True)
    with one_server((0x0035,)) as h:
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
    with one_server((0x002F,)) as h:
        out = connect(h.addresses[0], cfg_for(PolicyMode.DEFAULT),
                      connector=h.connector())
    assert out.connected and out.handshake_attempts == 1 and out.fallback_depth == 0


def test_failed_when_nothing_overlaps():
    # TLS 1.0-only server rejects every offer at max version 1.2? No:
    # version negotiation still finds 1.0. Use an empty-overlap suite set.
    server = SimServer(
        server_id="srv-0",
        archetype=Archetype.NONFS_ONLY,
        policy=ServerPolicy((0x0033,), frozenset({wire.TLS1_2})),
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
    return ServerPolicy(preference, frozenset({wire.TLS1_2}), rule)


@settings(max_examples=60, deadline=None)
@given(policy=server_policies(), style=st.sampled_from(SEQUENTIAL_STYLES))
def test_policies_best_effort_and_never_worse(policy, style):
    server = SimServer(
        server_id="srv-0",
        archetype=Archetype.FS_SUPPORTING_NONFS_PREFERRING,
        policy=policy,
        seed=11,
    )
    truth = server.truth
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
    with one_server((0x009C, 0xC02F)) as h:
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
    with one_server((0x002F,)) as h:
        out = connect(
            h.addresses[0], cfg_for(PolicyMode.BEFS, FallbackStyle.PARALLEL),
            connector=h.connector(),
        )
    assert out.connected and out.fs is False
    assert out.handshake_attempts == 2 and out.fallback_depth == 1


def test_parallel_besafe_runs_three_rungs():
    with one_server((0x002F, 0xC013)) as h:
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


class Refusing(Connector):
    """Fails every rung: ``step`` is "send" or "receive", and it raises a new ``error``."""

    def __init__(self, step, error):
        self.step, self.error = step, error

    def send(self, address, raw, timeout_s):
        if self.step == "send":
            raise self.error("no server at %s" % address)
        return ()

    def receive(self, sent):
        raise self.error("no reply")


@pytest.mark.parametrize("step", ["send", "receive"])
@pytest.mark.parametrize("error", [TimeoutError, ConnectFailed])
@pytest.mark.parametrize("fallback", [FallbackStyle.SILENT, FallbackStyle.PARALLEL])
def test_a_failed_rung_leaves_no_garbage_cycle(step, error, fallback):
    connector = Refusing(step, error)
    gc.collect()
    gc.disable()
    try:
        out = connect("a", cfg_for(PolicyMode.BESAFE, fallback), connector=connector)
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert out.status is SessionStatus.FAILED and out.handshake_attempts == 3
    assert unreachable == 0


def test_parallel_requires_flag_and_dispatch_honors_it():
    with one_server((0x002F,)) as h:
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
        ((0xC02B,), PolicyMode.BESAFE, 1),
        ((0xC013,), PolicyMode.BESAFE, 2),
        ((0x009C,), PolicyMode.BESAFE, 3),
        ((0x009C,), PolicyMode.BEFS, 2),
    ]
    for pref, mode, expect in cases:
        with one_server(pref) as h:
            out = connect(h.addresses[0], cfg_for(mode), connector=h.connector())
        assert out.connected
        assert out.handshake_attempts == expect
        assert out.fallback_depth == expect - 1
        assert len(out.per_attempt_timings) == expect


class ThreadRecorder:
    """Answers every hello with a static-RSA ServerHello and records the
    threads that sent and received each offer."""

    def __init__(self):
        self.threads = {}

    def send(self, address, raw, timeout_s):
        offer = wire.decode_client_hello(raw)[1]
        self.threads[offer] = [threading.get_ident()]
        return offer

    def receive(self, offer):
        self.threads[offer].append(threading.get_ident())
        return wire.encode_server_hello(wire.TLS1_2, 0x002F, bytes(32))


@pytest.mark.parametrize("mode", [PolicyMode.BEFS, PolicyMode.BESAFE])
def test_parallel_connect_runs_every_rung_on_the_calling_thread(mode):
    recorder = ThreadRecorder()
    threads = threading.active_count()
    out = connect("srv-0", cfg_for(mode, FallbackStyle.PARALLEL), connector=recorder)
    assert threading.active_count() == threads
    ladder = LADDERS[mode]
    assert out.connected and out.handshake_attempts == len(ladder)
    assert out.fallback_depth == len(ladder) - 1  # only the default offer holds 0x002F
    caller = threading.get_ident()
    assert recorder.threads == {profile.suites: [caller, caller] for profile in ladder}


BOTH_TRANSPORTS = pytest.mark.parametrize("transport", list(Transport), ids=lambda t: t.value)


@BOTH_TRANSPORTS
def test_parallel_besafe_waits_for_one_rungs_delay_not_the_sum(transport):
    with one_server((0x002F,), transport=transport, latency=LatencyModel(base_ms=50)) as h:
        start = time.perf_counter()
        out = connect(h.addresses[0], cfg_for(PolicyMode.BESAFE, FallbackStyle.PARALLEL),
                      connector=h.connector())
        wall = time.perf_counter() - start
    assert out.connected and out.handshake_attempts == 3
    assert all(a.elapsed_s >= 0.05 for a in out.attempts)
    assert wall < 0.1  # one rung after another would take 0.15 s


@BOTH_TRANSPORTS
def test_parallel_befs_behind_a_dropper_loses_only_the_dropped_rung(transport):
    # rung 0 waits out its timeout, so rung 1's reply, long arrived, is
    # received past its own deadline and must still be read
    with one_server((0x009C, 0xC02F), adversary=ActiveDropper, transport=transport) as h:
        out = connect(h.addresses[0],
                      cfg_for(PolicyMode.BEFS, FallbackStyle.PARALLEL, timeout_s=0.1),
                      connector=h.connector())
    assert [a.kind for a in out.attempts] == [AttemptKind.TIMEOUT, AttemptKind.SELECTED]
    assert out.connected and out.suite == 0x009C and out.fallback_depth == 1


@BOTH_TRANSPORTS
def test_parallel_hellos_arrive_in_rung_order(transport):
    with one_server((0x002F,), adversary=PassiveTap, transport=transport) as h:
        out = connect(h.addresses[0], cfg_for(PolicyMode.BESAFE, FallbackStyle.PARALLEL),
                      connector=h.connector())
        tap = h.endpoints[h.addresses[0]]
    assert out.connected
    offers = [wire.decode_client_hello(entry.request)[1] for entry in tap.transcript]
    assert offers == [profile.suites for profile in LADDERS[PolicyMode.BESAFE]]


class SocketRecorder(TcpConnector):
    """A TcpConnector that keeps each socket it opens."""

    def __init__(self):
        self.sockets = []

    def send(self, address, raw, timeout_s):
        sent = super().send(address, raw, timeout_s)
        self.sockets.append(sent[0])
        return sent


def test_parallel_ladder_closes_every_socket_it_opens():
    recorder = SocketRecorder()
    with one_server((0x009C, 0xC02F), adversary=ActiveDropper,
                    transport=Transport.LOOPBACK_SOCKET) as h:
        out = connect(h.addresses[0],
                      cfg_for(PolicyMode.BESAFE, FallbackStyle.PARALLEL, timeout_s=0.05),
                      connector=recorder)
    assert [a.kind for a in out.attempts][:2] == [AttemptKind.TIMEOUT] * 2  # receive raised
    assert len(recorder.sockets) == 3
    assert all(sock.fileno() == -1 for sock in recorder.sockets)


class HalfBuilt:
    def exchange(self, address, raw, timeout_s):
        return b""

    def send(self, address, raw, timeout_s):
        return b""


def test_both_transports_give_whole_connectors():
    with one_server((0x002F,)) as h:
        assert isinstance(h.connector(), Connector)
    assert isinstance(TcpConnector(), Connector)
    assert not isinstance(HalfBuilt(), Connector)  # no receive: no PARALLEL ladder


# -- servers that ignore the offer --------------------------------------------


class FixedReply:
    """Answers every ClientHello with the same bytes, whatever it offered."""

    def __init__(self, reply):
        self.reply = reply

    def exchange(self, address, raw, timeout_s):
        return self.reply

    def send(self, address, raw, timeout_s):
        return self.exchange(address, raw, timeout_s)

    def receive(self, sent):
        return sent


def server_hello(suite, version=wire.TLS1_2):
    return wire.encode_server_hello(version, suite, bytes(32))


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
        assert out.suite in rung.suites
        assert out.attempts[out.fallback_depth].version <= wire.TLS1_2


def test_an_empty_reply_is_a_connect_error():
    res = handshake_attempt(FixedReply(b""), "srv-0", ProfileKind.DEFAULT.suites, 0.5)
    assert (res.kind, res.error) == (AttemptKind.CONNECT_ERROR,
                                     "connection closed before a full record")
    assert res.alert is res.suite is res.version is None


def _former_reading(reply, offered):
    """``(kind, suite, version, alert, error)`` as handshake_attempt read a
    reply before it looked at the record type first: as a ServerHello, and
    as an alert once decode_server_hello raised NotServerHello."""
    version = suite = alert = error = None
    try:
        version, suite = wire.decode_server_hello(reply)
    except wire.NotServerHello:
        try:
            alert = wire.decode_alert(reply)
        except wire.WireError as exc:
            kind, error = AttemptKind.PROTOCOL_ERROR, str(exc)
        else:
            kind, error = AttemptKind.REJECTED, alert.description_name
    except wire.WireError as exc:
        kind, error = AttemptKind.PROTOCOL_ERROR, str(exc)
    else:
        if suite not in offered or suite == FALLBACK_SIGNAL:
            error = "server selected unoffered suite 0x%04X" % suite
        elif version > wire.TLS1_2:
            error = "server selected version 0x%04X above 0x%04X" % (version, wire.TLS1_2)
        if error is None:
            kind = AttemptKind.SELECTED
        else:
            kind, version, suite = AttemptKind.PROTOCOL_ERROR, None, None
    return kind, suite, version, alert, error


def _fleet_replies():
    """Each reply a small fleet of every archetype gives to each befs offer,
    signaled or not, and to a hello it cannot parse."""
    mix = {arch: 1 / len(Archetype) for arch in Archetype}
    replies = set()
    for server in generate_fleet(FleetSpec(size=24, seed=3, mix=mix)):
        for profile in ProfileKind:
            for offer in (profile.suites, profile.suites + (FALLBACK_SIGNAL,)):
                replies.add(server.respond(wire.encode_client_hello(wire.TLS1_2, offer, bytes(32))))
        replies.add(server.respond(b"\x16\x03\x03\x00\x02\x01\x00"))
    replies.discard(None)  # an unresponsive server's stall
    return sorted(replies)


def _record(content_type, body):
    return bytes((content_type, 3, 3)) + len(body).to_bytes(2, "big") + body


def _handshake(msg_type, body):
    return _record(wire.CONTENT_HANDSHAKE, bytes((msg_type,)) + len(body).to_bytes(3, "big") + body)


_RECORDS = st.one_of(
    st.binary(max_size=80),
    st.sampled_from(_fleet_replies()),
    st.builds(server_hello, _SUITES, _VERSIONS),
    st.builds(lambda level, description: _record(wire.CONTENT_ALERT, bytes((level, description))),
              st.integers(0, 3), st.integers(0, 0xFF)),
    st.builds(_record, st.one_of(st.sampled_from((21, 22, 23)), st.integers(0, 0xFF)),
              st.binary(max_size=40)),
    st.builds(_handshake, st.integers(0, 0xFF), st.binary(max_size=60)),
)
_REPLIES = st.one_of(
    _RECORDS,
    st.builds(lambda reply, k: reply[:k], _RECORDS, st.integers(0, 50)),
    st.builds(operator.add, _RECORDS, st.binary(min_size=1, max_size=20)),
)


@settings(max_examples=500, deadline=None)
@given(reply=_REPLIES, profile=st.sampled_from(list(ProfileKind)), signal=st.booleans())
def test_a_reply_reads_as_the_former_nested_reading_did(reply, profile, signal):
    offer = profile.suites + (FALLBACK_SIGNAL,) if signal else profile.suites
    got = handshake_attempt(FixedReply(reply), "srv-0", offer, 0.5)
    kind, suite, version, alert, error = _former_reading(reply, offer)
    if not reply:  # a verdict that moved: each connector used to give its own
        assert (got.kind, got.error) == (AttemptKind.CONNECT_ERROR,
                                         "connection closed before a full record")
        assert (kind, error) == (AttemptKind.PROTOCOL_ERROR, "truncated record header")
        return
    assert (got.kind, got.suite, got.version, got.alert) == (kind, suite, version, alert)
    if reply[0] != wire.CONTENT_ALERT and error == "content type %d is not alert" % reply[0]:
        # A complete record that is neither an alert nor a ServerHello is
        # now named by what it is.
        if reply[0] == wire.CONTENT_HANDSHAKE:
            error = "handshake type %d is not server_hello" % reply[5]
        else:
            error = "content type %d is not handshake" % reply[0]
    assert got.error == error


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
    with one_server((0xC02B,)) as h:
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
        dead_addr = dead[0].address
        report = latency_bench(h.addresses, connector=h.connector(), timeout_s=0.05)
    assert report.responders == 1
    assert report.excluded == (dead_addr,)
    assert isinstance(report, BenchReport)


def sni_bodies(addresses, names):
    """(address, server_name extension body) for each address's name, None for no name."""
    return {(a, ref.sni_extension(n)[1] if n else None) for a, n in zip(addresses, names)}


class SniRecorder(FixedReply):
    """Answers like FixedReply and records (address, SNI extension body) of each ClientHello."""

    def __init__(self, reply):
        super().__init__(reply)
        self.seen = set()

    def exchange(self, address, raw, timeout_s):
        extensions = []
        wire.decode_client_hello(raw, extensions)
        self.seen.add((address, dict(extensions).get(wire.SNI_EXTENSION_TYPE)))
        return self.reply


def test_bench_sends_each_address_its_own_sni():
    addresses = ["a.example:443", "b.example", "192.0.2.1:443"]
    for sni, names in ((True, ["a.example", "b.example", None]), (False, [None] * 3)):
        recorder = SniRecorder(server_hello(0xC02F))
        report = latency_bench(addresses, connector=recorder, timeout_s=0.5, sni=sni)
        assert report.responders == 3
        assert recorder.seen == sni_bodies(addresses, names)


@pytest.mark.parametrize("style", list(FallbackStyle))
def test_connect_sends_the_host_as_sni_only_when_asked(style):
    addresses = ["a.example:443", "b.example", "192.0.2.1:443"]
    for sni, names in ((True, ["a.example", "b.example", None]), (False, [None] * 3)):
        recorder = SniRecorder(server_hello(0x002F))  # only the widest rung connects
        for address in addresses:
            assert connect(address, cfg_for(PolicyMode.BESAFE, style), connector=recorder,
                           sni=sni).connected
        assert recorder.seen == sni_bodies(addresses, names)


class HelloRecorder:
    """Forwards each exchange to a connector and records the ClientHello bytes."""

    def __init__(self, inner):
        self.inner = inner
        self.hellos = []

    def exchange(self, address, raw, timeout_s):
        self.hellos.append(bytes(raw))
        return self.inner.exchange(address, raw, timeout_s)


def test_bench_repetitions_send_no_hello_twice():
    fleet = generate_fleet(FleetSpec(size=2, seed=1, mix={Archetype.FS_PREFERRING: 1.0}))
    with serve(fleet, Transport.IN_MEMORY) as h:
        runs = {}
        for repetitions in (1, 3):
            runs[repetitions] = HelloRecorder(h.connector())
            report = latency_bench(h.addresses, repetitions=repetitions,
                                   connector=runs[repetitions], timeout_s=0.5)
            assert report.responders == 2
    once, thrice = runs[1].hellos, runs[3].hellos
    assert len(thrice) == 3 * len(once) == 21
    assert len(set(thrice)) == 21
    # The first repetition sends the very hellos of a single-repetition bench.
    assert set(once) < set(thrice)


def test_bench_refuses_zero_repetitions():
    recorder = SniRecorder(server_hello(0xC02F))
    with pytest.raises(ValueError):
        latency_bench(["a.example"], repetitions=0, connector=recorder)
    assert recorder.seen == set()
