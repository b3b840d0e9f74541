"""Bit-exact record and handshake codec for pre-1.3 TLS negotiation.

Covers exactly what negotiation observation needs, with one writer and
one reader for each message:

- ``encode_client_hello`` writes the ClientHello a client sends, and
  ``decode_client_hello`` reads one as ``(legacy_version,
  cipher_suites)``. On request the same parse also collects each
  extension as a ``(type, body)`` pair, which ``fingerprint`` needs.
- ``encode_server_hello`` writes the ServerHello a simulated server
  answers with, and ``decode_server_hello`` reads one as
  ``(negotiated_version, selected_suite)``.
- ``encode_alert`` and ``decode_alert`` write and read an ``AlertMsg``.

Readers are total over arbitrary byte strings: they return a value or
raise a WireError subclass, never anything else. Each reads the first
record and ignores whatever follows it.

Record header is content_type(1) version(2) length(2); handshake header
is msg_type(1) length(3). Extension bodies are opaque.
"""

from __future__ import annotations

import functools
import struct
from enum import Enum
from typing import Optional, Sequence

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
    """Record decoded, but it is not a ServerHello."""


class NotClientHello(WireError):
    """Record decoded, but it is not a ClientHello."""


class NotAlert(WireError):
    """Record decoded, but it is not an alert."""


class AlertLevel(Enum):
    WARNING = 1
    FATAL = 2


# decode_alert's level lookup: a dict get costs a tenth of calling AlertLevel(value).
_ALERT_LEVELS = {level.value: level for level in AlertLevel}


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


def fingerprint(legacy_version: int, cipher_suites: Sequence[int],
                extensions: Sequence[tuple[int, bytes]]) -> str:
    """A hello's JA3 string (Althouse, Atkinson and Atkins, 2017), unhashed,
    from the fields decode_client_hello reads.

    Version, cipher suites and extension types in decimal, dash-joined
    within a field and comma-joined between fields: ``"771,49199-47,,,"``
    for a TLS 1.2 hello of two suites and no extensions. The last two
    fields, supported groups and EC point formats, stay empty: no befs
    hello carries either extension, and their bodies are opaque here.
    """
    suites = "-".join(map(str, cipher_suites))
    types = "-".join(str(etype) for etype, _ in extensions)
    return "%d,%s,%s,," % (legacy_version, suites, types)


# Record type, version, length; handshake type, length (u24 as u8 + u16);
# client_version.  The random follows at offset 11.
_CH_HEADER = struct.Struct(">BHHBBHH")
# Extension block length; server_name type, length; name list length;
# name type, length.
_SNI_HEADER = struct.Struct(">HHHHBH")


@functools.lru_cache(maxsize=64)
def _client_hello_tail(legacy_version: int, cipher_suites: tuple[int, ...]) -> bytes:
    """What follows the random in each hello of one offer: an empty session
    id, the suites and null compression, the offer checked once. A campaign
    sends a handful of offers to every address, so the cache never holds an
    address or SNI and stays small at any campaign size."""
    if legacy_version not in SUPPORTED_VERSIONS:
        raise ValueError("legacy_version must be a TLS 1.0-1.2 code")
    if not cipher_suites:
        raise ValueError("cipher_suites must be non-empty")
    if min(cipher_suites) < 0 or max(cipher_suites) > 0xFFFF:
        raise ValueError("cipher suite codepoint out of range")
    n = len(cipher_suites)
    if 2 * n > 0xFFFF:
        raise OversizeMessage("cipher_suites length %d overflows 2 bytes" % (2 * n))
    return struct.pack(">BH%dHBB" % n, 0, 2 * n, *cipher_suites, 1, 0)


def encode_client_hello(legacy_version: int, cipher_suites: Sequence[int], random: bytes,
                        server_name: bytes = b"") -> bytes:
    """The ClientHello of one offer: an empty session id and null compression,
    and one server_name extension naming ``server_name`` (ASCII) unless it is empty.

    Raises ValueError for a version outside TLS 1.0-1.2, an empty offer, a
    codepoint outside two bytes or a random that is not 32 bytes, and
    OversizeMessage for a message whose lengths overflow their fields.
    """
    tail = _client_hello_tail(legacy_version, tuple(cipher_suites))
    if len(random) != 32:
        raise ValueError("random must be exactly 32 bytes")
    n = len(server_name)
    body_len = 34 + len(tail) + (n + 11 if n else 0)
    # Every SNI length is below the record's, so this one check stands for
    # the overflow checks of each length field.
    if body_len + 4 > 0xFFFF:
        raise OversizeMessage("record length %d overflows 2 bytes" % (body_len + 4))
    head = _CH_HEADER.pack(CONTENT_HANDSHAKE, legacy_version, body_len + 4,
                           HS_CLIENT_HELLO, body_len >> 16, body_len & 0xFFFF, legacy_version)
    if not n:
        return head + random + tail
    sni = _SNI_HEADER.pack(n + 9, SNI_EXTENSION_TYPE, n + 5, n + 3, 0, n)
    return b"".join((head, random, tail, sni, server_name))


# Record and handshake headers and server_version, as _CH_HEADER; then the
# random, an empty session id, the suite and null compression.
_SERVER_HELLO = struct.Struct(">BHHBBHH32sBHB")


def encode_server_hello(version: int, suite: int, random: bytes) -> bytes:
    """The ServerHello picking ``(version, suite)``, with an empty session id,
    null compression and no extensions."""
    if len(random) != 32:
        raise ValueError("random must be exactly 32 bytes")
    return _SERVER_HELLO.pack(CONTENT_HANDSHAKE, version, 42, HS_SERVER_HELLO, 0, 38, version,
                              random, 0, suite, 0)


def encode_alert(alert: AlertMsg) -> bytes:
    return struct.pack(">BHHBB", CONTENT_ALERT, TLS1_2, 2, alert.level.value, alert.description)


def _truncated(what: str) -> MalformedRecord:
    return MalformedRecord("truncated " + what)


def record_size(data: bytes) -> Optional[int]:
    """Size of the record that starts ``data``, its 5-byte header included,
    read off that header; None while fewer than 5 bytes are in."""
    if len(data) < 5:
        return None
    return 5 + (data[3] << 8 | data[4])


def _record_end(data: bytes) -> int:
    """End of the first record, which starts at 0; trailing records are ignored."""
    end = record_size(data)
    if end is None:
        raise _truncated("record header")
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


def decode_client_hello(
    data: bytes, extensions: Optional[list[tuple[int, bytes]]] = None
) -> tuple[int, tuple[int, ...]]:
    """``(legacy_version, cipher_suites)`` of a ClientHello record.

    Applies every framing rule and each field rule: a TLS 1.0-1.2 version,
    a session id of at most 32 bytes, and non-empty suites and compression.
    Appends each extension's ``(type, body)`` to ``extensions`` unless that
    is None, each body as bytes.
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
                extensions.append((etype, bytes(data[body_at:pos])))
    if pos != end:
        raise MalformedRecord("%d trailing bytes inside client_hello" % (end - pos))
    version = data[9] << 8 | data[10]
    if version not in SUPPORTED_VERSIONS:
        raise MalformedRecord("legacy_version must be a TLS 1.0-1.2 code")
    if data[43] > 32:
        raise MalformedRecord("session_id must be 0-32 bytes")
    if not suites_len:
        raise MalformedRecord("cipher_suites must be non-empty")
    if not compressions:
        raise MalformedRecord("compression list must be non-empty")
    return version, struct.unpack_from(">%dH" % (suites_len // 2), data, suites_at)


def decode_server_hello(data: bytes) -> tuple[int, int]:
    """``(negotiated_version, selected_suite)`` of a ServerHello record.

    The random, the session id and any extensions are not read; messages
    after the ServerHello are ignored.
    """
    end = _handshake_end(data, HS_SERVER_HELLO, NotServerHello, "server_hello")
    # server_version(2) random(32) session_id length(1) sit at 9..44.
    if end < 44:
        raise _truncated("server_hello")
    pos = 44 + data[43]
    if pos + 3 > end:
        raise _truncated("session_id, cipher_suite and compression")
    return data[9] << 8 | data[10], data[pos] << 8 | data[pos + 1]


def decode_alert(data: bytes) -> AlertMsg:
    end = _record_end(data)
    if data[0] != CONTENT_ALERT:
        raise NotAlert("content type %d is not alert" % data[0])
    if end != 7:
        raise MalformedRecord("alert payload must be exactly 2 bytes")
    level = _ALERT_LEVELS.get(data[5])
    if level is None:
        raise MalformedRecord("unknown alert level %d" % data[5])
    return AlertMsg(level, data[6])
