"""One handshake attempt: send a ClientHello, interpret what comes back.

A Connector abstracts the byte transport (in-memory fleet or TCP), so the
scanning, inspection, and policy engines share one attempt primitive.
Connections are one-shot: the exchange ends at the ServerHello or alert
and the transport closes; nothing past the first server flight matters
for negotiation observation.
"""

from __future__ import annotations

import hashlib
import socket
import time
from enum import Enum
from typing import Optional, Protocol, Sequence

from . import wire
from .metadata import split_address
from .records import record
from .suites import FALLBACK_SIGNAL


class ConnectFailed(Exception):
    """TCP connect refused or reset, or an unknown in-memory address or stopped harness."""


class Connector(Protocol):
    def exchange(self, address: str, raw: bytes, timeout_s: float) -> bytes: ...


class AttemptKind(Enum):
    SELECTED = "SELECTED"
    REJECTED = "REJECTED"
    TIMEOUT = "TIMEOUT"
    CONNECT_ERROR = "CONNECT_ERROR"
    PROTOCOL_ERROR = "PROTOCOL_ERROR"


@record
class AttemptResult:
    kind: AttemptKind
    suite: Optional[int] = None
    version: Optional[int] = None
    alert: Optional[wire.AlertMsg] = None
    error: Optional[str] = None
    elapsed_s: float = 0.0

    @property
    def selected(self) -> bool:
        return self.kind is AttemptKind.SELECTED


def _client_random(seed: int, address: str, label: str) -> bytes:
    # Deterministic 32-byte random: reproducible runs without locking a
    # shared RNG across scanner threads.
    material = "%d|%s|%s" % (seed, address, label)
    return hashlib.sha256(material.encode()).digest()


def handshake_attempt(
    connector: Connector,
    address: str,
    offer: Sequence[int],
    timeout_s: float,
    *,
    sni: bool = False,
    seed: int = 0,
    label: str = "",
) -> AttemptResult:
    """Send one TLS 1.2 ClientHello and classify the first server flight.

    With ``sni``, the hello carries the address's host name in the
    server_name extension; an IPv4 literal never does (split_address).
    The fallback signal, FALLBACK_SIGNAL, is a suite of ``offer`` as on
    the wire; a server that selects it is refused like any unoffered suite.

    The reply is read here, for every connector, by its first record's
    content type: no bytes at all is CONNECT_ERROR, an alert record is
    REJECTED (decode_alert), and any other record must be a ServerHello
    (decode_server_hello). A reply either reader refuses is PROTOCOL_ERROR.
    """
    offered = tuple(offer)
    name = split_address(address)[2] if sni else None
    server_name = name.encode("ascii") if name else b""
    raw = wire.encode_client_hello(
        wire.TLS1_2, offered, _client_random(seed, address, label or repr(offered)), server_name
    )
    version = suite = alert = error = None
    start = time.perf_counter()
    try:
        reply = connector.exchange(address, raw, timeout_s)
    except TimeoutError:
        kind, error = AttemptKind.TIMEOUT, "timed out after %gs" % timeout_s
    except ConnectFailed as exc:
        kind, error = AttemptKind.CONNECT_ERROR, str(exc)
    else:
        try:
            if not reply:
                kind, error = AttemptKind.CONNECT_ERROR, "connection closed before a full record"
            elif reply[0] == wire.CONTENT_ALERT:
                alert = wire.decode_alert(reply)
                kind, error = AttemptKind.REJECTED, alert.description_name
            else:
                version, suite = wire.decode_server_hello(reply)
                # A real client answers these with an illegal_parameter alert.
                if suite not in offered or suite == FALLBACK_SIGNAL:
                    error = "server selected unoffered suite 0x%04X" % suite
                elif version > wire.TLS1_2:
                    error = "server selected version 0x%04X above 0x%04X" % (version, wire.TLS1_2)
                if error is None:
                    kind = AttemptKind.SELECTED
                else:
                    kind, version, suite = AttemptKind.PROTOCOL_ERROR, None, None
        except wire.WireError as exc:
            kind, error = AttemptKind.PROTOCOL_ERROR, str(exc)
    return AttemptResult(kind, suite, version, alert, error, time.perf_counter() - start)


def read_record(sock: socket.socket, deadline: float) -> bytes:
    """Read one TLS record off a socket before the deadline.

    A peer that closes first leaves what arrived, which may be nothing:
    handshake_attempt reads a cut reply, or an empty one, as it reads the
    same reply over the memory transport.
    """
    buf = b""
    want = 5
    while True:
        remaining = deadline - time.perf_counter()
        if remaining <= 0:
            raise TimeoutError("record read deadline exceeded")
        sock.settimeout(remaining)
        chunk = sock.recv(4096)
        if not chunk:
            return buf
        buf += chunk
        if len(buf) >= 5:
            want = 5 + int.from_bytes(buf[3:5], "big")
        if len(buf) >= want:
            return buf[:want]


class TcpConnector:
    """Connector over real TCP; one connection per exchange.

    An IPv4 literal (a host split_address gives no SNI name) is dialled
    without a resolver call; a host name goes through
    socket.create_connection, which resolves it and tries each address.
    """

    def exchange(self, address: str, raw: bytes, timeout_s: float) -> bytes:
        host, port, name = split_address(address)
        if port is None:
            port = 443
        deadline = time.perf_counter() + timeout_s
        try:
            if host and name is None:  # an IPv4 literal: no resolver call
                sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
                try:
                    sock.settimeout(timeout_s)
                    sock.connect((host, port))
                except BaseException:
                    sock.close()
                    raise
            else:
                sock = socket.create_connection((host, port), timeout=timeout_s)
        except TimeoutError:
            raise
        except OSError as exc:
            raise ConnectFailed("connect %s failed: %s" % (address, exc)) from exc
        try:
            sock.sendall(raw)
            return read_record(sock, deadline)
        except TimeoutError:
            raise
        except OSError as exc:
            raise ConnectFailed("exchange with %s failed: %s" % (address, exc)) from exc
        finally:
            try:
                sock.close()
            except OSError:
                pass
