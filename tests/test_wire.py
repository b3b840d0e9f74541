"""Codec round-trips, framing arithmetic, and the captured golden vector.

Each hello has one writer and one reader in befs.wire. They are checked
against tests/wire_reference.py, the former message-object codec, which
reads and writes any session id, compression list and extension block:
the writer must give its bytes, and the reader must give its fields or
raise its error, type and message alike.

tests/fixtures/clienthello_openssl_tls12.hex is a ClientHello emitted by
an unmodified OpenSSL-backed client connecting to example.com; it anchors
the reader and the SNI encoding to an independent implementation.
"""

import pathlib

import pytest
import wire_reference as ref
from hypothesis import given, settings
from hypothesis import strategies as st

from befs import wire
from befs.handshake import AttemptKind, ConnectFailed, _client_random, handshake_attempt
from befs.metadata import split_address
from befs.suites import DEFAULT, FALLBACK_SIGNAL, REGISTRY
from befs.wire import (
    TLS1_0,
    TLS1_1,
    TLS1_2,
    AlertLevel,
    AlertMsg,
    MalformedRecord,
    NotAlert,
    NotClientHello,
    NotServerHello,
    OversizeMessage,
    decode_alert,
    decode_client_hello,
    decode_server_hello,
    encode_alert,
    encode_client_hello,
    encode_server_hello,
)

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

versions = st.sampled_from([TLS1_0, TLS1_1, TLS1_2])
suite_lists = st.lists(st.integers(0, 0xFFFF), min_size=1, max_size=40).map(tuple)
randoms = st.binary(min_size=32, max_size=32)
session_ids = st.binary(min_size=0, max_size=32)
compressions = st.lists(st.integers(0, 255), min_size=1, max_size=4).map(tuple)
extension_lists = st.lists(
    st.tuples(st.integers(0, 0xFFFF), st.binary(max_size=64)), max_size=5
).map(tuple)
server_names = st.text(st.characters(max_codepoint=127), max_size=64).map(str.encode)

client_hellos = st.builds(
    ref.ClientHelloMsg,
    legacy_version=versions,
    random=randoms,
    cipher_suites=suite_lists,
    session_id=session_ids,
    compression=compressions,
    extensions=extension_lists,
)

server_hellos = st.builds(
    ref.ServerHelloSummary,
    negotiated_version=st.integers(0, 0xFFFF),
    selected_suite=st.integers(0, 0xFFFF),
    raw_extensions=st.binary(max_size=64),
)

alerts = st.builds(
    AlertMsg,
    level=st.sampled_from(list(AlertLevel)),
    description=st.integers(0, 255),
)


def make_ch(suites=(0xC02B,), **kw):
    """A reference ClientHelloMsg."""
    kw.setdefault("legacy_version", TLS1_2)
    kw.setdefault("random", bytes(range(32)))
    return ref.ClientHelloMsg(cipher_suites=tuple(suites), **kw)


def read_client_hello(raw):
    """The one reader's ``(version, suites, extensions)`` of ``raw``."""
    extensions = []
    version, suites = decode_client_hello(raw, extensions)
    return version, suites, tuple(extensions)


@given(versions, suite_lists, randoms, server_names)
def test_client_hello_round_trip(version, suites, random, name):
    raw = encode_client_hello(version, suites, random, name)
    sni = (ref.sni_extension(name.decode("ascii")),) if name else ()
    assert read_client_hello(raw) == (version, suites, sni)
    assert decode_client_hello(raw) == (version, suites)
    assert raw == ref.encode_client_hello(ref.ClientHelloMsg(version, random, suites,
                                                             extensions=sni))


@given(client_hellos)
def test_the_reader_reads_each_reference_hello(msg):
    raw = ref.encode_client_hello(msg)
    assert read_client_hello(raw) == (msg.legacy_version, msg.cipher_suites, msg.extensions)
    assert ref.decode_client_hello(raw) == msg


@given(st.integers(0, 0xFFFF), st.integers(0, 0xFFFF), randoms)
def test_server_hello_round_trip(version, suite, random):
    raw = encode_server_hello(version, suite, random)
    assert decode_server_hello(raw) == (version, suite)
    assert raw == ref.encode_server_hello(ref.ServerHelloSummary(version, suite), random)


@given(server_hellos, randoms, session_ids)
def test_the_reader_reads_each_reference_server_hello(summary, random, session_id):
    raw = ref.encode_server_hello(summary, random, session_id)
    assert decode_server_hello(raw) == (summary.negotiated_version, summary.selected_suite)
    assert ref.decode_server_hello(raw) == summary


@given(alerts)
def test_alert_round_trip(alert):
    assert decode_alert(encode_alert(alert)) == alert


def test_minimal_ch_record_length_is_handshake_length_plus_4():
    raw = encode_client_hello(TLS1_2, (0xC02B,), bytes(range(32)))
    record_len = int.from_bytes(raw[3:5], "big")
    handshake_len = int.from_bytes(raw[6:9], "big")
    assert record_len == handshake_len + 4
    assert len(raw) == record_len + 5


def test_fourteen_suite_ch_has_length_field_28():
    raw = encode_client_hello(TLS1_2, DEFAULT.suites, bytes(range(32)))
    # cipher_suites length sits right after version+random+empty session id.
    offset = 5 + 4 + 2 + 32 + 1
    assert int.from_bytes(raw[offset : offset + 2], "big") == 28


def _golden():
    return bytes.fromhex((FIXTURES / "clienthello_openssl_tls12.hex").read_text().strip())


def test_golden_openssl_client_hello_decodes():
    raw = _golden()
    version, suites, extensions = read_client_hello(raw)
    assert version == TLS1_2
    assert len(suites) == 15
    assert suites[0] == 0xC02C
    assert 0xC02F in suites
    assert ref.sni_extension("example.com") in extensions
    msg = ref.decode_client_hello(raw)
    assert (msg.legacy_version, msg.cipher_suites, msg.extensions) == (version, suites, extensions)
    assert msg.session_id == b""
    assert msg.compression == (0,)


def test_sni_encoding_matches_golden_capture():
    golden_sni = next(body for etype, body in read_client_hello(_golden())[2] if etype == 0x0000)
    named = encode_client_hello(TLS1_2, (0xC02F,), bytes(32), b"example.com")
    assert read_client_hello(named)[2] == ((0x0000, golden_sni),)
    assert ref.sni_extension("example.com") == (0x0000, golden_sni)


def test_fingerprint_is_the_unhashed_ja3_string():
    suites = (0xC02F, 0x002F)
    assert wire.fingerprint(TLS1_2, suites, ()) == "771,49199-47,,,"
    named = encode_client_hello(TLS1_1, suites, bytes(32), b"a.example")
    version, suites, extensions = read_client_hello(named)
    assert wire.fingerprint(version, suites, extensions) == "770,49199-47,0,,"
    for raw in (named, _golden()):
        version, suites, extensions = read_client_hello(raw)
        assert wire.fingerprint(version, suites, extensions) == ref.fingerprint(
            ref.decode_client_hello(raw))


def test_alert_framing_is_seven_fixed_bytes():
    raw = encode_alert(AlertMsg(AlertLevel.FATAL, wire.HANDSHAKE_FAILURE))
    assert len(raw) == 7
    assert raw[0] == 21
    assert raw[3:5] == b"\x00\x02"
    assert raw[5] == 2
    assert raw[6] == 40


def test_decode_server_hello_ignores_trailing_messages():
    trailing = b"\x0b\x00\x00\x01\x00"  # bogus Certificate fragment
    raw = encode_server_hello(TLS1_2, 0xC02F, bytes(32))
    padded = raw[0:3] + (len(raw[5:]) + len(trailing)).to_bytes(2, "big") + raw[5:] + trailing
    assert decode_server_hello(padded) == (TLS1_2, 0xC02F)
    # a second full record after the first is ignored too
    assert decode_server_hello(raw + encode_alert(AlertMsg(AlertLevel.WARNING, 0))) == (
        TLS1_2, 0xC02F)


def test_decode_server_hello_on_alert_raises_not_server_hello():
    raw = encode_alert(AlertMsg(AlertLevel.FATAL, 40))
    with pytest.raises(NotServerHello):
        decode_server_hello(raw)


def test_decode_server_hello_truncated_raises_malformed():
    raw = encode_server_hello(TLS1_2, 0xC02F, bytes(32))
    with pytest.raises(MalformedRecord):
        decode_server_hello(raw[:-3])


def test_decode_client_hello_on_server_hello_raises():
    raw = encode_server_hello(TLS1_2, 0xC02F, bytes(32))
    with pytest.raises(NotClientHello):
        decode_client_hello(raw)


def test_decode_alert_on_handshake_raises():
    with pytest.raises(NotAlert):
        decode_alert(encode_client_hello(TLS1_2, (0xC02B,), bytes(32)))


def test_decode_alert_of_an_unknown_level_is_malformed():
    raw = encode_alert(AlertMsg(AlertLevel.FATAL, wire.HANDSHAKE_FAILURE))
    with pytest.raises(MalformedRecord, match="unknown alert level 3"):
        decode_alert(raw[:5] + b"\x03" + raw[6:])


def test_nonzero_compression_is_preserved_not_policed():
    raw = ref.encode_client_hello(make_ch(compression=(1, 0)))
    assert decode_client_hello(raw) == (TLS1_2, (0xC02B,))
    assert ref.decode_client_hello(raw).compression == (1, 0)


def test_unknown_suite_is_flagged_not_an_error():
    suite = decode_server_hello(encode_server_hello(TLS1_2, 0x4242, bytes(32)))[1]
    assert suite == 0x4242
    assert suite not in REGISTRY
    assert decode_server_hello(encode_server_hello(TLS1_2, 0xC02F, bytes(32)))[1] in REGISTRY


def test_oversize_extension_body_raises():
    with pytest.raises(OversizeMessage):
        encode_client_hello(TLS1_2, (0xC02B,), bytes(32), b"a" * 70000)
    with pytest.raises(OversizeMessage):
        ref.encode_client_hello(make_ch(extensions=((0x0010, b"\x00" * 70000),)))


def test_the_writer_refuses_what_the_reference_message_refuses():
    for version, suites, random in ((TLS1_2, (), bytes(32)), (0x0304, (1,), bytes(32)),
                                    (TLS1_2, (1,), bytes(31))):
        with pytest.raises(ValueError) as reference:
            ref.ClientHelloMsg(version, random, suites)
        with pytest.raises(ValueError, match=str(reference.value)):
            encode_client_hello(version, suites, random)


def test_decoded_invariant_violation_is_malformed_record():
    raw = bytearray(encode_client_hello(TLS1_2, (0xC02B,), bytes(32)))
    body_version_off = 5 + 4
    raw[body_version_off : body_version_off + 2] = b"\x03\x04"  # 1.3 code inside CH
    with pytest.raises(MalformedRecord):
        decode_client_hello(bytes(raw))


@given(st.binary(max_size=300))
def test_decoders_total_over_arbitrary_bytes(data):
    for dec in (decode_client_hello, read_client_hello, decode_server_hello, decode_alert):
        try:
            dec(data)
        except wire.WireError:
            pass


@given(client_hellos, st.integers(0, 200), st.integers(0, 255))
@settings(max_examples=200)
def test_single_byte_mutations_never_crash_decoder(msg, pos, val):
    raw = bytearray(ref.encode_client_hello(msg))
    raw[pos % len(raw)] = val
    try:
        read_client_hello(bytes(raw))
    except wire.WireError:
        pass


# -- the hello handshake_attempt sends against the reference encoder ------


class RecordingConnector:
    """Keeps every ClientHello sent and answers none of them."""

    def __init__(self):
        self.sent = []

    def exchange(self, address, raw, timeout_s):
        self.sent.append(raw)
        raise ConnectFailed("recording only")


def _reference_hello(version, suites, sni, random):
    extensions = (ref.sni_extension(sni),) if sni else ()
    return ref.encode_client_hello(ref.ClientHelloMsg(version, random, suites,
                                                      extensions=extensions))


def _address(sni):
    """An address whose host is ``sni``, or one that sends no SNI for None."""
    return "srv-1" if sni is None else sni + ":443"


def _sent_hello(version, offer, sni, signal):
    """The hello handshake_attempt sends, which is TLS 1.2; at another version,
    encode_client_hello of the same offer, random and name."""
    address = _address(sni)
    suites = offer + (FALLBACK_SIGNAL,) if signal else offer
    if version != TLS1_2:
        name = split_address(address)[2] if sni is not None else None
        return encode_client_hello(version, suites, _client_random(0, address, repr(suites)),
                                   name.encode("ascii") if name else b"")
    conn = RecordingConnector()
    res = handshake_attempt(conn, address, suites, 1.0, sni=sni is not None)
    assert res.kind is AttemptKind.CONNECT_ERROR
    (raw,) = conn.sent
    return raw


@given(
    offer=st.lists(st.integers(0, 0xFFFF), min_size=1, max_size=40).map(tuple),
    signal=st.booleans(),
    version=st.sampled_from(sorted(wire.SUPPORTED_VERSIONS)),
    sni=st.none() | st.text(st.characters(max_codepoint=127), max_size=255),
)
def test_handshake_attempt_sends_what_encode_client_hello_builds(offer, signal, version, sni):
    suites = offer + (FALLBACK_SIGNAL,) if signal else offer
    random = _client_random(0, _address(sni), repr(suites))
    # an IPv4 literal, or a host of only digits and dots, is never a server name
    name = sni if sni and not sni.replace(".", "").isdigit() else None
    assert _sent_hello(version, offer, sni, signal) == _reference_hello(version, suites, name, random)


@pytest.mark.parametrize(
    "version, offer, sni",
    [
        (TLS1_2, (), None),
        (0x0304, (0xC02F,), None),
        (0x0300, (0xC02F,), "example.com"),
        (TLS1_2, (0xC02F, 0x10000), None),
        (TLS1_2, (-1,), None),
        (TLS1_2, (0xC02F,), "exämple.com"),
        (TLS1_2, (), "exämple.com"),
        (TLS1_2, (0xC02F,), "a" * 65500),
        (TLS1_2, (0xC02F,), "a" * 65531),
        (TLS1_2, (0xC02F,), "a" * 65533),
        (TLS1_2, (0xC02F,), "a" * 70000),
    ],
    ids=["empty-offer", "tls13", "ssl3", "codepoint-above-u16", "negative-codepoint",
         "non-ascii-sni", "empty-offer-and-non-ascii-sni", "record-overflow",
         "extension-overflow", "name-list-overflow", "name-overflow"],
)
def test_bad_input_raises_the_same_type_on_both_paths(version, offer, sni):
    with pytest.raises(Exception) as reference:
        _reference_hello(version, offer, sni, bytes(32))
    with pytest.raises(Exception) as sent:
        _sent_hello(version, offer, sni, False)
    assert sent.type is reference.type


def _framed(msg_type, body):
    """A record holding one handshake message with `body`, every length exact."""
    hs = bytes([msg_type]) + len(body).to_bytes(3, "big") + body
    return b"\x16\x03\x03" + len(hs).to_bytes(2, "big") + hs


_CH_FIXED = 2 + 32 + 1 + 2 + 2 * len(DEFAULT.suites) + 2  # up to the end of compression
TRUNCATION_CASES = [
    # (decoder, whole record, body lengths that are complete messages)
    (decode_client_hello, encode_client_hello(TLS1_2, DEFAULT.suites, bytes(range(32))),
     {_CH_FIXED}),
    (decode_client_hello,
     ref.encode_client_hello(make_ch(suites=DEFAULT.suites,
                                     extensions=(ref.sni_extension("example.com"), (0x0017, b"")))),
     {_CH_FIXED}),
    (decode_server_hello,
     ref.encode_server_hello(ref.ServerHelloSummary(TLS1_2, 0xC02F, b"\xff\x01\x00\x01\x00"),
                             session_id=bytes(8)),
     set(range(2 + 32 + 1 + 8 + 3, 200))),
]


@pytest.mark.parametrize("decode, raw, complete", TRUNCATION_CASES, ids=["ch", "ch-sni", "sh"])
def test_every_truncation_is_a_malformed_record(decode, raw, complete):
    decode(raw)
    for n in range(len(raw)):  # the record itself is cut
        with pytest.raises(MalformedRecord):
            decode(raw[:n])
    handshake = raw[5:]
    for n in range(len(handshake)):  # a whole record holding a cut message
        with pytest.raises(MalformedRecord):
            decode(raw[:3] + n.to_bytes(2, "big") + handshake[:n])
    body = raw[9:]
    for n in range(len(body)):  # a whole message with a cut body
        if n in complete:
            decode(_framed(raw[5], body[:n]))
        else:
            with pytest.raises(MalformedRecord):
                decode(_framed(raw[5], body[:n]))


_BLOCK_EXTENSIONS = (ref.sni_extension("example.com"), (0x0017, b""), (0x000B, b"\x01\x00"))


def _extension_block_cuts():
    """A hello whose extension block is cut at each length short of the
    whole, its own length field saying where it ends: ``(n, record)``."""
    raw = ref.encode_client_hello(make_ch(suites=DEFAULT.suites, extensions=_BLOCK_EXTENSIONS))
    fixed, block = raw[9 : 9 + _CH_FIXED], raw[9 + _CH_FIXED + 2 :]
    for n in range(len(block)):
        yield n, _framed(wire.HS_CLIENT_HELLO, fixed + n.to_bytes(2, "big") + block[:n])


def test_every_cut_of_the_extension_block_is_a_malformed_record():
    whole, at = {0}, 0
    for _, ext_body in _BLOCK_EXTENSIONS:
        at += 4 + len(ext_body)
        whole.add(at)
    for n, cut in _extension_block_cuts():
        if n in whole:
            read_client_hello(cut)
        else:
            with pytest.raises(MalformedRecord):
                read_client_hello(cut)


def test_trailing_bytes_inside_a_hello_are_malformed():
    for name in (b"", b"example.com"):
        raw = encode_client_hello(TLS1_2, (0xC02B,), bytes(32), name)
        for extra in (b"\x00", b"\x00\x00\x00"):
            with pytest.raises(MalformedRecord):
                decode_client_hello(_framed(wire.HS_CLIENT_HELLO, raw[9:] + extra))


def test_alert_payload_must_be_two_bytes():
    for payload in (b"", b"\x02", b"\x02\x28\x00"):
        raw = bytes([wire.CONTENT_ALERT, 3, 3, 0, len(payload)]) + payload
        with pytest.raises(MalformedRecord):
            decode_alert(raw)


def test_inner_lengths_that_disagree_are_malformed():
    head = TLS1_2.to_bytes(2, "big") + bytes(32) + b"\x00"
    odd_suites = head + b"\x00\x03\xc0\x2f\x00" + b"\x01\x00"
    sni = encode_client_hello(TLS1_2, (0xC02B,), bytes(32), b"example.com")[9:]
    block_at = len(head) + 2 + 2 + 2
    short_block = sni[:block_at] + (len(sni) - block_at - 3).to_bytes(2, "big") + sni[block_at + 2 :]
    for body in (odd_suites, short_block):
        with pytest.raises(MalformedRecord):
            decode_client_hello(_framed(wire.HS_CLIENT_HELLO, body))


# -- the one reader of each hello against the reference decoder ----------------


def _outcome(decode, data):
    """What ``decode(data)`` gives: its value, or its error's type and message."""
    try:
        return decode(data)
    except wire.WireError as exc:
        return type(exc), str(exc)


def assert_client_hello_read_agrees(raw):
    """decode_client_hello accepts what the reference decoder accepts, with
    its version, suites and extensions (bodies as bytes), and raises the same
    error, type and message, for everything else; with or without collecting
    the extensions, and on ``raw`` as bytes and as a bytearray alike.
    Returns whether the hello was accepted."""
    outcomes = []
    for data in (bytes(raw), bytearray(raw)):
        want = _outcome(ref.decode_client_hello, data)
        if isinstance(want, ref.ClientHelloMsg):
            want = (want.legacy_version, want.cipher_suites, want.extensions)
        got = _outcome(read_client_hello, data)
        assert got == want
        assert _outcome(decode_client_hello, data) == want[:2]
        if isinstance(got[0], int):
            assert {type(body) for _, body in got[2]} <= {bytes}
        outcomes.append(got)
    assert outcomes[0] == outcomes[1]
    return isinstance(outcomes[0][0], int)


@given(st.binary(max_size=300) | st.binary(max_size=300).map(lambda b: _framed(1, b)))
def test_client_hello_read_agrees_on_arbitrary_bytes(data):
    assert_client_hello_read_agrees(data)


@given(client_hellos, st.integers(0, 200), st.integers(0, 255))
@settings(max_examples=200)
def test_client_hello_read_agrees_under_single_byte_mutations(msg, pos, val):
    raw = bytearray(ref.encode_client_hello(msg))
    assert assert_client_hello_read_agrees(bytes(raw))
    raw[pos % len(raw)] = val
    assert_client_hello_read_agrees(bytes(raw))


def _every_cut(raw):
    """Each cut of test_every_truncation_is_a_malformed_record, and the whole record."""
    yield raw
    yield from (raw[:n] for n in range(len(raw)))
    handshake = raw[5:]
    yield from (raw[:3] + n.to_bytes(2, "big") + handshake[:n] for n in range(len(handshake)))
    body = raw[9:]
    yield from (_framed(raw[5], body[:n]) for n in range(len(body)))


def test_client_hello_read_agrees_on_every_truncation_and_extension_block_cut():
    hellos = [raw for decode, raw, _ in TRUNCATION_CASES if decode is decode_client_hello]
    cuts = [cut for raw in hellos for cut in _every_cut(raw)]
    cuts += [cut for _, cut in _extension_block_cuts()]
    accepted = sum([assert_client_hello_read_agrees(cut) for cut in cuts])
    # The two whole hellos, the SNI hello's body cut after compression, and
    # the extension block cut at 0 and after its first and second extension.
    assert accepted == 6


def test_client_hello_read_rejects_each_field_rule_as_the_reference_does():
    body = ref.encode_client_hello(make_ch(suites=(0xC02F, 0x002F), session_id=bytes(4)))[9:]
    # version 0..2, random 2..34, session id 34..39, suites 39..45, compression 45..47
    variants = [
        (b"\x03\x04" + body[2:], "legacy_version must be a TLS 1.0-1.2 code"),
        (b"\x03\x00" + body[2:], "legacy_version must be a TLS 1.0-1.2 code"),
        (body[:34] + b"\x21" + bytes(33) + body[39:], "session_id must be 0-32 bytes"),
        (body[:39] + b"\x00\x00" + body[45:], "cipher_suites must be non-empty"),
        (body[:45] + b"\x00", "compression list must be non-empty"),
    ]
    for variant, message in variants:
        raw = _framed(wire.HS_CLIENT_HELLO, variant)
        with pytest.raises(MalformedRecord, match=message):
            decode_client_hello(raw)
        assert_client_hello_read_agrees(raw)


def assert_server_hello_read_agrees(raw):
    """decode_server_hello accepts what the reference decoder accepts, with
    its version and suite, and raises the same error, type and message, for
    everything else, on ``raw`` as bytes and as a bytearray alike. Returns
    whether the hello was accepted."""
    outcomes = []
    for data in (bytes(raw), bytearray(raw)):
        want = _outcome(ref.decode_server_hello, data)
        if isinstance(want, ref.ServerHelloSummary):
            want = (want.negotiated_version, want.selected_suite)
        got = _outcome(decode_server_hello, data)
        assert got == want
        outcomes.append(got)
    assert outcomes[0] == outcomes[1]
    return isinstance(outcomes[0][0], int)


@given(st.binary(max_size=300) | st.binary(max_size=300).map(lambda b: _framed(2, b)))
def test_server_hello_read_agrees_on_arbitrary_bytes(data):
    assert_server_hello_read_agrees(data)


@given(server_hellos, session_ids, st.integers(0, 200), st.integers(0, 255))
@settings(max_examples=200)
def test_server_hello_read_agrees_under_single_byte_mutations(summary, session_id, pos, val):
    raw = bytearray(ref.encode_server_hello(summary, session_id=session_id))
    assert assert_server_hello_read_agrees(bytes(raw))
    raw[pos % len(raw)] = val
    assert_server_hello_read_agrees(bytes(raw))


def test_server_hello_read_agrees_on_every_truncation():
    raw = next(raw for decode, raw, _ in TRUNCATION_CASES if decode is decode_server_hello)
    accepted = sum([assert_server_hello_read_agrees(cut) for cut in _every_cut(raw)])
    # The whole hello, and its body cut anywhere inside the extensions.
    assert accepted == 6


def test_encode_server_hello_for_every_version():
    random = bytes(range(32))
    for version in (0, TLS1_0, TLS1_1, TLS1_2, 0x0304, 0xFFFF):
        for suite in (0, 0x002F, 0xC02F, 0xFFFF):
            assert encode_server_hello(version, suite, random) == ref.encode_server_hello(
                ref.ServerHelloSummary(version, suite), random)


def test_encode_server_hello_refuses_a_random_of_another_length():
    for n in (0, 31, 33):
        with pytest.raises(ValueError, match="random must be exactly 32 bytes"):
            encode_server_hello(TLS1_2, 0xC02F, bytes(n))
