"""One handshake attempt: send a ClientHello, interpret what comes back.

A Connector abstracts the byte transport (in-memory fleet or TCP), so the
scanning, inspection, and policy engines share one attempt primitive.
Connections are one-shot: the exchange ends at the ServerHello or alert
and the transport closes; nothing past the first server flight matters
for negotiation observation.
"""

from __future__ import annotations

import functools
import hashlib
import socket
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Protocol, Sequence

from . import wire
from .metadata import split_address
from .suites import FALLBACK_SIGNAL


class ConnectFailed(Exception):
    """TCP connect refused/reset, or unknown in-memory address."""


@dataclass(frozen=True)
class ClientIdentity:
    """Who is asking, as far as a server endpoint can tell.

    tag is a client-supplied label carried by the in-memory transport;
    a socket endpoint sees an empty tag.
    """

    tag: str = ""


class Connector(Protocol):
    def exchange(
        self, address: str, raw: bytes, timeout_s: float, client: ClientIdentity
    ) -> bytes: ...


class AttemptKind(Enum):
    SELECTED = "SELECTED"
    REJECTED = "REJECTED"
    TIMEOUT = "TIMEOUT"
    CONNECT_ERROR = "CONNECT_ERROR"
    PROTOCOL_ERROR = "PROTOCOL_ERROR"


@dataclass(frozen=True)
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


# One checked ClientHello template per (max_version, offer). Scans send a
# handful of offers to every address, so the cache never holds an address
# or SNI and stays small at any campaign size.
_hello_template = functools.lru_cache(maxsize=64)(wire.ClientHelloTemplate)


def handshake_attempt(
    connector: Connector,
    address: str,
    offer: Sequence[int],
    timeout_s: float,
    *,
    max_version: int = wire.TLS1_2,
    sni: bool = False,
    tag: str = "",
    seed: int = 0,
    label: str = "",
    signal_fallback: bool = False,
) -> AttemptResult:
    """Send one ClientHello and classify the first server flight.

    With ``sni``, the hello carries the address's host name in the
    server_name extension; an IPv4 literal never does (split_address).
    """
    offered = tuple(offer)
    suites = offered + (FALLBACK_SIGNAL,) if signal_fallback else offered
    name = split_address(address)[2] if sni else None
    server_name = name.encode("ascii") if name else b""
    raw = _hello_template(max_version, suites).encode(
        _client_random(seed, address, label or repr(suites)), server_name
    )
    start = time.perf_counter()

    def done(**kw) -> AttemptResult:
        return AttemptResult(elapsed_s=time.perf_counter() - start, **kw)

    try:
        reply = connector.exchange(address, raw, timeout_s, ClientIdentity(tag=tag))
    except TimeoutError:
        return done(kind=AttemptKind.TIMEOUT, error="timed out after %gs" % timeout_s)
    except ConnectFailed as exc:
        return done(kind=AttemptKind.CONNECT_ERROR, error=str(exc))
    try:
        sh = wire.decode_server_hello(reply)
    except wire.NotServerHello:
        pass
    except wire.WireError as exc:
        return done(kind=AttemptKind.PROTOCOL_ERROR, error=str(exc))
    else:
        # A real client answers these with an illegal_parameter alert.
        if sh.selected_suite not in offered or sh.selected_suite == FALLBACK_SIGNAL:
            return done(kind=AttemptKind.PROTOCOL_ERROR,
                        error="server selected unoffered suite 0x%04X" % sh.selected_suite)
        if sh.negotiated_version > max_version:
            return done(kind=AttemptKind.PROTOCOL_ERROR,
                        error="server selected version 0x%04X above 0x%04X"
                        % (sh.negotiated_version, max_version))
        return done(kind=AttemptKind.SELECTED, suite=sh.selected_suite, version=sh.negotiated_version)
    try:
        alert = wire.decode_alert(reply)
        return done(kind=AttemptKind.REJECTED, alert=alert, error=alert.description_name)
    except wire.WireError as exc:
        return done(kind=AttemptKind.PROTOCOL_ERROR, error=str(exc))


def read_record(sock: socket.socket, deadline: float) -> bytes:
    """Read exactly one TLS record off a socket before the deadline."""
    buf = b""
    want = 5
    while True:
        remaining = deadline - time.perf_counter()
        if remaining <= 0:
            raise TimeoutError("record read deadline exceeded")
        sock.settimeout(remaining)
        try:
            chunk = sock.recv(4096)
        except socket.timeout:
            raise TimeoutError("record read deadline exceeded") from None
        if not chunk:
            raise ConnectFailed("connection closed before a full record")
        buf += chunk
        if len(buf) >= 5:
            want = 5 + int.from_bytes(buf[3:5], "big")
        if len(buf) >= want:
            return buf[:want]


class TcpConnector:
    """Connector over real TCP; one connection per exchange."""

    def exchange(
        self, address: str, raw: bytes, timeout_s: float, client: ClientIdentity
    ) -> bytes:
        host, port, _ = split_address(address)
        if port is None:
            port = 443
        deadline = time.perf_counter() + timeout_s
        try:
            sock = socket.create_connection((host, port), timeout=timeout_s)
        except socket.timeout:
            raise TimeoutError("connect timed out") from None
        except OSError as exc:
            raise ConnectFailed("connect %s failed: %s" % (address, exc)) from exc
        try:
            sock.sendall(raw)
            return read_record(sock, deadline)
        except socket.timeout:
            raise TimeoutError("exchange timed out") from None
        except TimeoutError:
            raise
        except OSError as exc:
            raise ConnectFailed("exchange with %s failed: %s" % (address, exc)) from exc
        finally:
            try:
                sock.close()
            except OSError:
                pass
