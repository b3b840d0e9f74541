"""Bit-exact record and handshake codec for pre-1.3 TLS negotiation.

Covers exactly what negotiation observation needs: emit a ClientHello,
read back a ServerHello or a fatal alert, and the mirror images so a
simulated server can sit on the other end.  Decoders are total over
arbitrary byte strings: they return a value or raise a WireError
subclass, never anything else.

Record header is content_type(1) version(2) length(2); handshake header
is msg_type(1) length(3).  Extensions other than SNI are treated as
opaque (type, body) pairs.
"""

from __future__ import annotations

import functools
import struct
from enum import Enum
from typing import Optional

from .records import record

TLS1_0 = 0x0301
TLS1_1 = 0x0302
TLS1_2 = 0x0303

SUPPORTED_VERSIONS = frozenset({TLS1_0, TLS1_1, TLS1_2})

CONTENT_ALERT = 21
CONTENT_HANDSHAKE = 22
HS_CLIENT_HELLO = 1
HS_SERVER_HELLO = 2

# Alert description codes used by this toolkit.
HANDSHAKE_FAILURE = 40
DECODE_ERROR = 50
PROTOCOL_VERSION = 70
INAPPROPRIATE_FALLBACK = 86

ALERT_NAMES = {
    HANDSHAKE_FAILURE: "handshake_failure",
    DECODE_ERROR: "decode_error",
    PROTOCOL_VERSION: "protocol_version",
    INAPPROPRIATE_FALLBACK: "inappropriate_fallback",
}

SNI_EXTENSION_TYPE = 0x0000


class WireError(Exception):
    """Base for every codec failure."""


class OversizeMessage(WireError):
    """A length field would overflow its fixed width."""


class MalformedRecord(WireError):
    """Framing or field contents violate the format."""


class NotServerHello(WireError):
    """Record decoded, but it is not a ServerHello (try decode_alert)."""


class NotClientHello(WireError):
    """Record decoded, but it is not a ClientHello."""


class NotAlert(WireError):
    """Record decoded, but it is not an alert."""


class AlertLevel(Enum):
    WARNING = 1
    FATAL = 2


@record
class AlertMsg:
    level: AlertLevel
    description: int

    def __post_init__(self) -> None:
        if not isinstance(self.level, AlertLevel):
            raise ValueError("level must be an AlertLevel")
        if not 0 <= self.description <= 0xFF:
            raise ValueError("alert description must fit one byte")

    @property
    def description_name(self) -> str:
        return ALERT_NAMES.get(self.description, "alert_%d" % self.description)


@record
class ClientHelloMsg:
    legacy_version: int
    random: bytes
    cipher_suites: tuple[int, ...]
    session_id: bytes = b""
    compression: tuple[int, ...] = (0,)
    extensions: tuple[tuple[int, bytes], ...] = ()

    def __post_init__(self) -> None:
        if self.legacy_version not in SUPPORTED_VERSIONS:
            raise ValueError("legacy_version must be a TLS 1.0-1.2 code")
        if len(self.random) != 32:
            raise ValueError("random must be exactly 32 bytes")
        if not 0 <= len(self.session_id) <= 32:
            raise ValueError("session_id must be 0-32 bytes")
        if not self.cipher_suites:
            raise ValueError("cipher_suites must be non-empty")
        if min(self.cipher_suites) < 0 or max(self.cipher_suites) > 0xFFFF:
            raise ValueError("cipher suite codepoint out of range")
        if not self.compression:
            raise ValueError("compression list must be non-empty")
        if min(self.compression) < 0 or max(self.compression) > 0xFF:
            raise ValueError("compression method out of range")
        for etype, body in self.extensions:
            if not 0 <= etype <= 0xFFFF:
                raise ValueError("extension type out of range")
            if not isinstance(body, bytes):
                raise ValueError("extension body must be bytes")


@record
class ServerHelloSummary:
    negotiated_version: int
    selected_suite: int
    raw_extensions: bytes = b""

    def __post_init__(self) -> None:
        if not 0 <= self.negotiated_version <= 0xFFFF:
            raise ValueError("negotiated_version out of range")
        if not 0 <= self.selected_suite <= 0xFFFF:
            raise ValueError("selected_suite out of range")


def sni_extension(hostname: str) -> tuple[int, bytes]:
    """Build a server_name extension entry for one DNS hostname."""
    raw = hostname.encode("ascii")
    entry = b"\x00" + _u16(len(raw), "server name") + raw
    body = _u16(len(entry), "server_name list") + entry
    return (SNI_EXTENSION_TYPE, body)


def fingerprint(msg: ClientHelloMsg) -> str:
    """The hello's JA3 string (Althouse, Atkinson and Atkins, 2017), unhashed.

    Version, cipher suites and extension types in decimal, dash-joined
    within a field and comma-joined between fields: ``"771,49199-47,,,"``
    for a TLS 1.2 hello of two suites and no extensions. The last two
    fields, supported groups and EC point formats, stay empty: no befs
    hello carries either extension, and their bodies are opaque here.
    """
    suites = "-".join(map(str, msg.cipher_suites))
    types = "-".join(str(etype) for etype, _ in msg.extensions)
    return "%d,%s,%s,," % (msg.legacy_version, suites, types)


def _u16(v: int, what: str) -> bytes:
    if v > 0xFFFF:
        raise OversizeMessage("%s length %d overflows 2 bytes" % (what, v))
    return struct.pack(">H", v)


def _u24(v: int, what: str) -> bytes:
    if v > 0xFFFFFF:
        raise OversizeMessage("%s length %d overflows 3 bytes" % (what, v))
    return struct.pack(">I", v)[1:]


def _record(content_type: int, version: int, payload: bytes) -> bytes:
    return bytes([content_type]) + struct.pack(">H", version) + _u16(len(payload), "record") + payload


def _handshake(msg_type: int, body: bytes) -> bytes:
    return bytes([msg_type]) + _u24(len(body), "handshake") + body


def _extension_block(extensions: tuple[tuple[int, bytes], ...]) -> bytes:
    parts = []
    for etype, body in extensions:
        parts.append(struct.pack(">H", etype) + _u16(len(body), "extension") + body)
    blob = b"".join(parts)
    return _u16(len(blob), "extension block") + blob


def encode_client_hello(msg: ClientHelloMsg) -> bytes:
    body = struct.pack(">H", msg.legacy_version)
    body += msg.random
    body += bytes([len(msg.session_id)]) + msg.session_id
    body += _u16(2 * len(msg.cipher_suites), "cipher_suites")
    body += b"".join(struct.pack(">H", cp) for cp in msg.cipher_suites)
    body += bytes([len(msg.compression)]) + bytes(msg.compression)
    if msg.extensions:
        body += _extension_block(msg.extensions)
    return _record(CONTENT_HANDSHAKE, msg.legacy_version, _handshake(HS_CLIENT_HELLO, body))


# Record type, version, length; handshake type, length (u24 as u8 + u16);
# client_version.  The random follows at offset 11.
_CH_HEADER = struct.Struct(">BHHBBHH")
# Extension block length; server_name type, length; name list length;
# name type, length.
_SNI_HEADER = struct.Struct(">HHHHBH")


class ClientHelloTemplate:
    """The ClientHello of one offer, built and checked once.

    Construction applies ClientHelloMsg's rules to the offer and raises
    what ClientHelloMsg and encode_client_hello raise. Then
    ``encode(random, server_name)`` returns, byte for byte,
    ``encode_client_hello(ClientHelloMsg(legacy_version, random,
    cipher_suites, extensions=(sni_extension(host),) if host else ()))``
    for ``server_name = host.encode("ascii")``, and raises the same
    exception types, at the cost of one header pack.
    """

    __slots__ = ("legacy_version", "_tail")

    def __init__(self, legacy_version: int, cipher_suites: tuple[int, ...]) -> None:
        whole = encode_client_hello(ClientHelloMsg(legacy_version, bytes(32), cipher_suites))
        self.legacy_version = legacy_version
        self._tail = whole[43:]  # empty session id, suites, null compression

    def encode(self, random: bytes, server_name: bytes = b"") -> bytes:
        if len(random) != 32:
            raise ValueError("random must be exactly 32 bytes")
        n = len(server_name)
        body_len = 34 + len(self._tail) + (n + 11 if n else 0)
        # Every SNI length is below the record's, so this one check stands
        # for the overflow checks of encode_client_hello and sni_extension.
        if body_len + 4 > 0xFFFF:
            raise OversizeMessage("record length %d overflows 2 bytes" % (body_len + 4))
        head = _CH_HEADER.pack(CONTENT_HANDSHAKE, self.legacy_version, body_len + 4,
                               HS_CLIENT_HELLO, body_len >> 16, body_len & 0xFFFF,
                               self.legacy_version)
        if not n:
            return head + random + self._tail
        sni = _SNI_HEADER.pack(n + 9, SNI_EXTENSION_TYPE, n + 5, n + 3, 0, n)
        return b"".join((head, random, self._tail, sni, server_name))


@functools.cache
def _sh_layout(session_id_len: int) -> struct.Struct:
    """Record and handshake headers and server_version, as _CH_HEADER; then the
    random, the session id with its length, the suite and null compression."""
    return struct.Struct(">BHHBBHH32sB%dsHB" % session_id_len)


def encode_server_hello(
    summary: ServerHelloSummary,
    random: bytes = b"\x00" * 32,
    session_id: bytes = b"",
) -> bytes:
    if len(random) != 32:
        raise ValueError("random must be exactly 32 bytes")
    n = len(session_id)
    if n > 32:
        raise ValueError("session_id must be 0-32 bytes")
    body_len = 38 + n + len(summary.raw_extensions)
    if body_len + 4 > 0xFFFF:  # raise what the length fields' own checks raise
        _u24(body_len, "handshake")
        _u16(body_len + 4, "record")
    version = summary.negotiated_version
    head = _sh_layout(n).pack(CONTENT_HANDSHAKE, version, body_len + 4,
                              HS_SERVER_HELLO, body_len >> 16, body_len & 0xFFFF, version,
                              random, n, session_id, summary.selected_suite, 0)
    return head + summary.raw_extensions


def encode_alert(alert: AlertMsg) -> bytes:
    return _record(CONTENT_ALERT, TLS1_2, bytes([alert.level.value, alert.description]))


def _truncated(what: str) -> MalformedRecord:
    return MalformedRecord("truncated " + what)


def _record_end(data: bytes) -> int:
    """End of the first record, which starts at 0; trailing records are ignored."""
    if len(data) < 5:
        raise _truncated("record header")
    end = 5 + (data[3] << 8 | data[4])
    if end > len(data):
        raise _truncated("record")
    return end


def _handshake_end(data: bytes, msg_type: int, not_it: type[WireError], name: str) -> int:
    """End of the first handshake message's body, which starts at offset 9.

    Bytes after that message inside the record are ignored.
    """
    record_end = _record_end(data)
    if data[0] != CONTENT_HANDSHAKE:
        raise not_it("content type %d is not handshake" % data[0])
    if record_end < 9:
        raise _truncated("handshake header")
    end = 9 + (data[6] << 16 | data[7] << 8 | data[8])
    if end > record_end:
        raise _truncated("handshake body")
    if data[5] != msg_type:
        raise not_it("handshake type %d is not %s" % (data[5], name))
    return end


def _client_hello_fields(data: bytes, extensions: Optional[list]) -> tuple[int, int]:
    """Check a ClientHello record; return where its suites start and how many there are.

    Applies every framing rule and each ClientHelloMsg rule that bytes can
    break, with ClientHelloMsg's messages, and appends each extension's
    ``(type, body)`` to ``extensions`` unless that is None.
    """
    end = _handshake_end(data, HS_CLIENT_HELLO, NotClientHello, "client_hello")
    # client_version(2) random(32) session_id length(1) sit at 9..44.
    if end < 44:
        raise _truncated("client_hello")
    pos = 44 + data[43]
    if pos + 2 > end:
        raise _truncated("session_id and cipher_suites length")
    suites_len = data[pos] << 8 | data[pos + 1]
    if suites_len % 2:
        raise MalformedRecord("odd cipher_suites length")
    suites_at, pos = pos + 2, pos + 2 + suites_len
    if pos + 1 > end:
        raise _truncated("cipher_suites and compression length")
    compressions, pos = data[pos], pos + 1 + data[pos]
    if pos > end:
        raise _truncated("compression methods")
    if pos < end:
        if pos + 2 > end:
            raise _truncated("extensions length")
        block_end = pos + 2 + (data[pos] << 8 | data[pos + 1])
        if block_end > end:
            raise _truncated("extensions")
        pos += 2
        while pos < block_end:
            if pos + 4 > block_end:
                raise _truncated("extension header")
            etype, body_at = data[pos] << 8 | data[pos + 1], pos + 4
            pos = body_at + (data[pos + 2] << 8 | data[pos + 3])
            if pos > block_end:
                raise _truncated("extension body")
            if extensions is not None:
                extensions.append((etype, data[body_at:pos]))
    if pos != end:
        raise MalformedRecord("%d trailing bytes inside client_hello" % (end - pos))
    if (data[9] << 8 | data[10]) not in SUPPORTED_VERSIONS:
        raise MalformedRecord("legacy_version must be a TLS 1.0-1.2 code")
    if data[43] > 32:
        raise MalformedRecord("session_id must be 0-32 bytes")
    if not suites_len:
        raise MalformedRecord("cipher_suites must be non-empty")
    if not compressions:
        raise MalformedRecord("compression list must be non-empty")
    return suites_at, suites_len // 2


def decode_client_hello(data: bytes) -> ClientHelloMsg:
    data = bytes(data)  # so a bytearray's random, session id and extension bodies are bytes
    extensions: list[tuple[int, bytes]] = []
    suites_at, n_suites = _client_hello_fields(data, extensions)
    compression_at = suites_at + 2 * n_suites + 1
    # _client_hello_fields enforced every ClientHelloMsg rule, so this cannot raise.
    return ClientHelloMsg(
        legacy_version=data[9] << 8 | data[10],
        random=data[11:43],
        cipher_suites=struct.unpack_from(">%dH" % n_suites, data, suites_at),
        session_id=data[44 : suites_at - 2],
        compression=tuple(data[compression_at : compression_at + data[compression_at - 1]]),
        extensions=tuple(extensions),
    )


def read_offer(data: bytes) -> tuple[int, tuple[int, ...]]:
    """``(legacy_version, cipher_suites)`` of a ClientHello, for a server to answer.

    Accepts and rejects exactly what decode_client_hello does, raising the
    same errors, but builds no ClientHelloMsg.
    """
    suites_at, n_suites = _client_hello_fields(data, None)
    return data[9] << 8 | data[10], struct.unpack_from(">%dH" % n_suites, data, suites_at)


def _server_hello_fields(data: bytes) -> tuple[int, int]:
    """Check a ServerHello record; return where its suite sits and where its body ends."""
    end = _handshake_end(data, HS_SERVER_HELLO, NotServerHello, "server_hello")
    # server_version(2) random(32) session_id length(1) sit at 9..44; the
    # random and the session id are unused.
    if end < 44:
        raise _truncated("server_hello")
    pos = 44 + data[43]
    if pos + 3 > end:
        raise _truncated("session_id, cipher_suite and compression")
    return pos, end


def decode_server_hello(data: bytes) -> ServerHelloSummary:
    suite_at, end = _server_hello_fields(data)
    # Anything after the compression method is the extensions block, kept
    # verbatim.  Trailing handshake messages after the ServerHello lie
    # past `end` and are ignored by construction.  Two-byte fields always
    # fit ServerHelloSummary's ranges; the extensions are bytes, as the
    # summary is hashable, even when ``data`` is a bytearray.
    return ServerHelloSummary(data[9] << 8 | data[10], data[suite_at] << 8 | data[suite_at + 1],
                              bytes(data[suite_at + 3 : end]))


def read_server_hello(data: bytes) -> tuple[int, int]:
    """``(negotiated_version, selected_suite)`` of a ServerHello, for a client to classify.

    Accepts and rejects exactly what decode_server_hello does, raising the
    same errors, but builds no ServerHelloSummary.
    """
    suite_at, _ = _server_hello_fields(data)
    return data[9] << 8 | data[10], data[suite_at] << 8 | data[suite_at + 1]


def decode_alert(data: bytes) -> AlertMsg:
    end = _record_end(data)
    if data[0] != CONTENT_ALERT:
        raise NotAlert("content type %d is not alert" % data[0])
    if end != 7:
        raise MalformedRecord("alert payload must be exactly 2 bytes")
    level, description = data[5], data[6]
    if level not in (AlertLevel.WARNING.value, AlertLevel.FATAL.value):
        raise MalformedRecord("unknown alert level %d" % level)
    return AlertMsg(level=AlertLevel(level), description=description)
