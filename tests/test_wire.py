"""Codec round-trips, framing arithmetic, and the captured golden vector.

tests/fixtures/clienthello_openssl_tls12.hex is a ClientHello emitted by
an unmodified OpenSSL-backed client connecting to example.com; it anchors
the decoder and the SNI encoding to an independent implementation.
"""

import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from befs import wire
from befs.handshake import AttemptKind, ConnectFailed, _client_random, handshake_attempt
from befs.suites import DEFAULT, FALLBACK_SIGNAL, REGISTRY
from befs.wire import (
    TLS1_0,
    TLS1_1,
    TLS1_2,
    AlertLevel,
    AlertMsg,
    ClientHelloMsg,
    MalformedRecord,
    NotAlert,
    NotClientHello,
    NotServerHello,
    OversizeMessage,
    ServerHelloSummary,
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

client_hellos = st.builds(
    ClientHelloMsg,
    legacy_version=versions,
    random=randoms,
    cipher_suites=suite_lists,
    session_id=session_ids,
    compression=compressions,
    extensions=extension_lists,
)

server_hellos = st.builds(
    ServerHelloSummary,
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
    kw.setdefault("legacy_version", TLS1_2)
    kw.setdefault("random", bytes(range(32)))
    return ClientHelloMsg(cipher_suites=tuple(suites), **kw)


@given(client_hellos)
def test_client_hello_round_trip(msg):
    assert decode_client_hello(encode_client_hello(msg)) == msg


@given(server_hellos)
def test_server_hello_round_trip(summary):
    assert decode_server_hello(encode_server_hello(summary)) == summary


@given(alerts)
def test_alert_round_trip(alert):
    assert decode_alert(encode_alert(alert)) == alert


def test_minimal_ch_record_length_is_handshake_length_plus_4():
    raw = encode_client_hello(make_ch())
    record_len = int.from_bytes(raw[3:5], "big")
    handshake_len = int.from_bytes(raw[6:9], "big")
    assert record_len == handshake_len + 4
    assert len(raw) == record_len + 5


def test_fourteen_suite_ch_has_length_field_28():
    raw = encode_client_hello(make_ch(suites=DEFAULT.suites))
    # cipher_suites length sits right after version+random+empty session id.
    offset = 5 + 4 + 2 + 32 + 1
    assert int.from_bytes(raw[offset : offset + 2], "big") == 28


def test_golden_openssl_client_hello_decodes():
    raw = bytes.fromhex((FIXTURES / "clienthello_openssl_tls12.hex").read_text().strip())
    msg = decode_client_hello(raw)
    assert msg.legacy_version == TLS1_2
    assert msg.session_id == b""
    assert msg.compression == (0,)
    assert len(msg.cipher_suites) == 15
    assert msg.cipher_suites[0] == 0xC02C
    assert 0xC02F in msg.cipher_suites
    assert wire.extract_sni(msg) == "example.com"


def test_sni_encoding_matches_golden_capture():
    raw = bytes.fromhex((FIXTURES / "clienthello_openssl_tls12.hex").read_text().strip())
    golden = decode_client_hello(raw)
    golden_sni = next(body for etype, body in golden.extensions if etype == 0x0000)
    assert wire.sni_extension("example.com") == (0x0000, golden_sni)


def test_extract_sni_absent_returns_none():
    assert wire.extract_sni(make_ch()) is None


def test_alert_framing_is_seven_fixed_bytes():
    raw = encode_alert(AlertMsg(AlertLevel.FATAL, wire.HANDSHAKE_FAILURE))
    assert len(raw) == 7
    assert raw[0] == 21
    assert raw[3:5] == b"\x00\x02"
    assert raw[5] == 2
    assert raw[6] == 40


def test_decode_server_hello_ignores_trailing_messages():
    sh = ServerHelloSummary(TLS1_2, 0xC02F)
    trailing = b"\x0b\x00\x00\x01\x00"  # bogus Certificate fragment
    raw = encode_server_hello(sh)
    padded = raw[0:3] + (len(raw[5:]) + len(trailing)).to_bytes(2, "big") + raw[5:] + trailing
    assert decode_server_hello(padded) == sh
    # a second full record after the first is ignored too
    assert decode_server_hello(raw + encode_alert(AlertMsg(AlertLevel.WARNING, 0))) == sh


def test_decode_server_hello_on_alert_raises_not_server_hello():
    raw = encode_alert(AlertMsg(AlertLevel.FATAL, 40))
    with pytest.raises(NotServerHello):
        decode_server_hello(raw)


def test_decode_server_hello_truncated_raises_malformed():
    raw = encode_server_hello(ServerHelloSummary(TLS1_2, 0xC02F))
    with pytest.raises(MalformedRecord):
        decode_server_hello(raw[:-3])


def test_decode_client_hello_on_server_hello_raises():
    raw = encode_server_hello(ServerHelloSummary(TLS1_2, 0xC02F))
    with pytest.raises(NotClientHello):
        decode_client_hello(raw)


def test_decode_alert_on_handshake_raises():
    with pytest.raises(NotAlert):
        decode_alert(encode_client_hello(make_ch()))


def test_nonzero_compression_is_preserved_not_policed():
    msg = make_ch(compression=(1, 0))
    assert decode_client_hello(encode_client_hello(msg)).compression == (1, 0)


def test_unknown_suite_is_flagged_not_an_error():
    sh = decode_server_hello(encode_server_hello(ServerHelloSummary(TLS1_2, 0x4242)))
    assert sh.selected_suite == 0x4242
    assert sh.selected_suite not in REGISTRY
    assert decode_server_hello(
        encode_server_hello(ServerHelloSummary(TLS1_2, 0xC02F))
    ).selected_suite in REGISTRY


def test_oversize_extension_body_raises():
    msg = make_ch(extensions=((0x0010, b"\x00" * 70000),))
    with pytest.raises(OversizeMessage):
        encode_client_hello(msg)


def test_invariants_rejected_at_construction():
    with pytest.raises(ValueError):
        make_ch(suites=())
    with pytest.raises(ValueError):
        ClientHelloMsg(legacy_version=0x0304, random=bytes(32), cipher_suites=(1,))
    with pytest.raises(ValueError):
        ClientHelloMsg(legacy_version=TLS1_2, random=bytes(31), cipher_suites=(1,))
    with pytest.raises(ValueError):
        make_ch(session_id=bytes(33))


def test_decoded_invariant_violation_is_malformed_record():
    raw = bytearray(encode_client_hello(make_ch()))
    body_version_off = 5 + 4
    raw[body_version_off : body_version_off + 2] = b"\x03\x04"  # 1.3 code inside CH
    with pytest.raises(MalformedRecord):
        decode_client_hello(bytes(raw))


@given(st.binary(max_size=300))
def test_decoders_total_over_arbitrary_bytes(data):
    for dec in (decode_client_hello, decode_server_hello, decode_alert):
        try:
            dec(data)
        except wire.WireError:
            pass


@given(client_hellos, st.integers(0, 200), st.integers(0, 255))
@settings(max_examples=200)
def test_single_byte_mutations_never_crash_decoder(msg, pos, val):
    raw = bytearray(encode_client_hello(msg))
    raw[pos % len(raw)] = val
    try:
        decode_client_hello(bytes(raw))
    except wire.WireError:
        pass


# -- the client's ClientHello template against the general encoder ---------


class RecordingConnector:
    """Keeps every ClientHello sent and answers none of them."""

    def __init__(self):
        self.sent = []

    def exchange(self, address, raw, timeout_s, client):
        self.sent.append(raw)
        raise ConnectFailed("recording only")


def _reference_hello(version, suites, sni, random):
    extensions = (wire.sni_extension(sni),) if sni else ()
    return encode_client_hello(ClientHelloMsg(version, random, suites, extensions=extensions))


def _address(sni):
    """An address whose host is ``sni``, or one that sends no SNI for None."""
    return "srv-1" if sni is None else sni + ":443"


def _sent_hello(version, offer, sni, signal):
    conn = RecordingConnector()
    res = handshake_attempt(conn, _address(sni), offer, 1.0, max_version=version,
                            sni=sni is not None, signal_fallback=signal)
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
    (decode_client_hello, encode_client_hello(make_ch(suites=DEFAULT.suites)), {_CH_FIXED}),
    (decode_client_hello,
     encode_client_hello(make_ch(suites=DEFAULT.suites,
                                 extensions=(wire.sni_extension("example.com"), (0x0017, b"")))),
     {_CH_FIXED}),
    (decode_server_hello,
     encode_server_hello(ServerHelloSummary(TLS1_2, 0xC02F, b"\xff\x01\x00\x01\x00"),
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


def test_every_cut_of_the_extension_block_is_a_malformed_record():
    extensions = (wire.sni_extension("example.com"), (0x0017, b""), (0x000B, b"\x01\x00"))
    raw = encode_client_hello(make_ch(suites=DEFAULT.suites, extensions=extensions))
    fixed, block = raw[9 : 9 + _CH_FIXED], raw[9 + _CH_FIXED + 2 :]
    whole, at = set(), 0
    for _, ext_body in extensions:
        at += 4 + len(ext_body)
        whole.add(at)
    for n in range(len(block)):  # the block's own length says where it ends
        cut = _framed(wire.HS_CLIENT_HELLO, fixed + n.to_bytes(2, "big") + block[:n])
        if n in whole or n == 0:
            decode_client_hello(cut)
        else:
            with pytest.raises(MalformedRecord):
                decode_client_hello(cut)


@given(st.binary(max_size=64))
def test_extract_sni_is_total(body):
    name = wire.extract_sni(make_ch(extensions=((wire.SNI_EXTENSION_TYPE, body),)))
    assert name is None or isinstance(name, str)


def test_extract_sni_of_a_cut_name_list_is_none():
    body = wire.sni_extension("example.com")[1]
    entries = body[2:]
    for n in range(len(entries)):  # the list length left whole, then cut to fit
        for cut in (body[: 2 + n], n.to_bytes(2, "big") + entries[:n]):
            assert wire.extract_sni(make_ch(extensions=((wire.SNI_EXTENSION_TYPE, cut),))) is None


def test_trailing_bytes_inside_a_hello_are_malformed():
    for extensions in ((), (wire.sni_extension("example.com"),)):
        raw = encode_client_hello(make_ch(extensions=extensions))
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
    sni = encode_client_hello(make_ch(extensions=(wire.sni_extension("example.com"),)))[9:]
    block_at = len(head) + 2 + 2 + 2
    short_block = sni[:block_at] + (len(sni) - block_at - 3).to_bytes(2, "big") + sni[block_at + 2 :]
    for body in (odd_suites, short_block):
        with pytest.raises(MalformedRecord):
            decode_client_hello(_framed(wire.HS_CLIENT_HELLO, body))
