"""The former message-object hello codec, kept as the tests' reference.

befs reads and writes each hello with one function per direction in
``befs.wire``, shaped by what its callers read. This module keeps the
general codec that came before: a ClientHello and a ServerHello as whole
messages, with any session id, compression list and extensions. The
agreement, truncation, mutation and golden-vector tests compare the one
codec against it, so every input keeps an oracle: the same bytes, the
same fields and the same error type and message.

It is self-contained on purpose. It shares only the error classes and
the constants with ``befs.wire``, never a parsing or packing helper.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from befs.wire import (
    CONTENT_HANDSHAKE,
    HS_CLIENT_HELLO,
    HS_SERVER_HELLO,
    SNI_EXTENSION_TYPE,
    SUPPORTED_VERSIONS,
    MalformedRecord,
    NotClientHello,
    NotServerHello,
    OversizeMessage,
)


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class ServerHelloSummary:
    negotiated_version: int
    selected_suite: int
    raw_extensions: bytes = b""

    def __post_init__(self) -> None:
        if not 0 <= self.negotiated_version <= 0xFFFF:
            raise ValueError("negotiated_version out of range")
        if not 0 <= self.selected_suite <= 0xFFFF:
            raise ValueError("selected_suite out of range")


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


def sni_extension(hostname: str) -> tuple[int, bytes]:
    """A server_name extension entry for one DNS hostname."""
    raw = hostname.encode("ascii")
    entry = b"\x00" + _u16(len(raw), "server name") + raw
    return (SNI_EXTENSION_TYPE, _u16(len(entry), "server_name list") + entry)


def _extension_block(extensions: tuple[tuple[int, bytes], ...]) -> bytes:
    blob = b"".join(struct.pack(">H", etype) + _u16(len(body), "extension") + body
                    for etype, body in extensions)
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


def encode_server_hello(summary: ServerHelloSummary, random: bytes = bytes(32),
                        session_id: bytes = b"") -> bytes:
    if len(random) != 32:
        raise ValueError("random must be exactly 32 bytes")
    if len(session_id) > 32:
        raise ValueError("session_id must be 0-32 bytes")
    body = (struct.pack(">H", summary.negotiated_version) + random
            + bytes([len(session_id)]) + session_id
            + struct.pack(">HB", summary.selected_suite, 0) + summary.raw_extensions)
    return _record(CONTENT_HANDSHAKE, summary.negotiated_version, _handshake(HS_SERVER_HELLO, body))


def fingerprint(msg: ClientHelloMsg) -> str:
    """The unhashed JA3 string, groups and point formats left empty."""
    return "%d,%s,%s,," % (msg.legacy_version, "-".join(map(str, msg.cipher_suites)),
                           "-".join(str(etype) for etype, _ in msg.extensions))


def _truncated(what: str) -> MalformedRecord:
    return MalformedRecord("truncated " + what)


def _handshake_body(data: bytes, msg_type: int, not_it, name: str) -> tuple[int, int]:
    """Where the first handshake message's body starts (9) and ends."""
    if len(data) < 5:
        raise _truncated("record header")
    record_end = 5 + int.from_bytes(data[3:5], "big")
    if record_end > len(data):
        raise _truncated("record")
    if data[0] != CONTENT_HANDSHAKE:
        raise not_it("content type %d is not handshake" % data[0])
    if record_end < 9:
        raise _truncated("handshake header")
    end = 9 + int.from_bytes(data[6:9], "big")
    if end > record_end:
        raise _truncated("handshake body")
    if data[5] != msg_type:
        raise not_it("handshake type %d is not %s" % (data[5], name))
    return 9, end


def decode_client_hello(data: bytes) -> ClientHelloMsg:
    data = bytes(data)
    pos, end = _handshake_body(data, HS_CLIENT_HELLO, NotClientHello, "client_hello")
    if end < pos + 35:
        raise _truncated("client_hello")
    version = int.from_bytes(data[pos : pos + 2], "big")
    random = data[pos + 2 : pos + 34]
    sid_len = data[pos + 34]
    pos += 35
    session_id = data[pos : pos + sid_len]
    pos += sid_len
    if pos + 2 > end:
        raise _truncated("session_id and cipher_suites length")
    suites_len = int.from_bytes(data[pos : pos + 2], "big")
    if suites_len % 2:
        raise MalformedRecord("odd cipher_suites length")
    pos += 2
    suites = data[pos : pos + suites_len]
    pos += suites_len
    if pos + 1 > end:
        raise _truncated("cipher_suites and compression length")
    compression = tuple(data[pos + 1 : pos + 1 + data[pos]])
    pos += 1 + data[pos]
    if pos > end:
        raise _truncated("compression methods")
    extensions = []
    if pos < end:
        if pos + 2 > end:
            raise _truncated("extensions length")
        block_end = pos + 2 + int.from_bytes(data[pos : pos + 2], "big")
        if block_end > end:
            raise _truncated("extensions")
        pos += 2
        while pos < block_end:
            if pos + 4 > block_end:
                raise _truncated("extension header")
            etype = int.from_bytes(data[pos : pos + 2], "big")
            body_end = pos + 4 + int.from_bytes(data[pos + 2 : pos + 4], "big")
            if body_end > block_end:
                raise _truncated("extension body")
            extensions.append((etype, data[pos + 4 : body_end]))
            pos = body_end
    if pos != end:
        raise MalformedRecord("%d trailing bytes inside client_hello" % (end - pos))
    try:
        return ClientHelloMsg(version, random, struct.unpack(">%dH" % (suites_len // 2), suites),
                              session_id, compression, tuple(extensions))
    except ValueError as exc:
        raise MalformedRecord(str(exc)) from None


def decode_server_hello(data: bytes) -> ServerHelloSummary:
    pos, end = _handshake_body(data, HS_SERVER_HELLO, NotServerHello, "server_hello")
    if end < pos + 35:
        raise _truncated("server_hello")
    pos += 35 + data[pos + 34]
    if pos + 3 > end:
        raise _truncated("session_id, cipher_suite and compression")
    return ServerHelloSummary(int.from_bytes(data[9:11], "big"),
                              int.from_bytes(data[pos : pos + 2], "big"),
                              bytes(data[pos + 3 : end]))
