"""One handshake attempt: send a ClientHello, interpret what comes back.

A Connector abstracts the byte transport (in-memory fleet or TCP), so the
scanning, inspection, and policy engines share one attempt primitive.
Connections are one-shot: an exchange, a send then a receive, ends at the
ServerHello or alert, and a caller may send several hellos before it
receives any reply. Nothing past the first server flight matters.
"""

from __future__ import annotations

import socket
import time
from enum import Enum
from typing import Optional, Protocol, Sequence, Union, runtime_checkable

from . import wire
from .metadata import split_address
from .records import record
from .suites import FALLBACK_SIGNAL

# CPython's built-in SHA-256, as random.py takes its sha512: hashlib would
# map OpenSSL's libcrypto, about 3.8 MB resident, into every befs process.
try:
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10-3.11
    except ImportError:
        from hashlib import sha256  # no built-in SHA-2 in this build


class ConnectFailed(Exception):
    """TCP connect refused or reset, or an unknown in-memory address or stopped harness."""


@runtime_checkable
class Connector(Protocol):
    """``send`` writes a hello now; ``receive`` of what it returned waits for
    the reply. Either may raise TimeoutError or ConnectFailed."""

    def send(self, address: str, raw: bytes, timeout_s: float) -> tuple: ...

    def receive(self, sent: tuple) -> bytes: ...

    def exchange(self, address: str, raw: bytes, timeout_s: float) -> bytes:
        return self.receive(self.send(address, raw, timeout_s))


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
    # shared RNG across scanner threads, hashed by the built-in sha256 above.
    material = "%d|%s|%s" % (seed, address, label)
    return sha256(material.encode()).digest()


def client_hello(address: str, offer: tuple[int, ...], *, sni: bool = False, seed: int = 0,
                 label: str = "") -> bytes:
    """The TLS 1.2 ClientHello of one attempt. With ``sni`` it names the
    address's host, which an IPv4 literal never does (split_address).
    FALLBACK_SIGNAL is offered as a suite, and refused if selected."""
    name = split_address(address)[2] if sni else None
    hello_random = _client_random(seed, address, label or repr(offer))
    return wire.encode_client_hello(wire.TLS1_2, offer, hello_random,
                                    name.encode("ascii") if name else b"")


def read_reply(reply: Union[bytes, TimeoutError, ConnectFailed], offer: tuple[int, ...],
               timeout_s: float, start: float) -> AttemptResult:
    """The attempt an exchange begun at ``start`` gave, from ``reply``: the
    TimeoutError or ConnectFailed raised for it, or its bytes, read by
    their first record's content type. None at all is CONNECT_ERROR, an
    alert is REJECTED (decode_alert), and any other record must be a
    ServerHello (decode_server_hello); what either refuses is PROTOCOL_ERROR."""
    version = suite = alert = error = None
    if isinstance(reply, TimeoutError):
        kind, error = AttemptKind.TIMEOUT, "timed out after %gs" % timeout_s
    elif isinstance(reply, ConnectFailed):
        kind, error = AttemptKind.CONNECT_ERROR, str(reply)
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
                if suite not in offer or suite == FALLBACK_SIGNAL:
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


def handshake_attempt(connector: Connector, address: str, offer: Sequence[int], timeout_s: float,
                      *, sni: bool = False, seed: int = 0, label: str = "") -> AttemptResult:
    """One ``connector.exchange`` of client_hello's bytes, read by read_reply."""
    offered = tuple(offer)
    raw = client_hello(address, offered, sni=sni, seed=seed, label=label)
    start = time.perf_counter()
    try:
        reply = connector.exchange(address, raw, timeout_s)
    except (TimeoutError, ConnectFailed) as exc:
        # Read in the handler: kept, exc holds this frame in a cycle via its traceback.
        return read_reply(exc, offered, timeout_s, start)
    return read_reply(reply, offered, timeout_s, start)


def sleep_until(due: float) -> None:
    """Sleep until perf_counter() reaches ``due``; time.sleep refuses a wait near TIMEOUT_MAX."""
    while (wait := due - time.perf_counter()) > 0:
        time.sleep(min(wait, 1.0))


def read_record(sock: socket.socket, deadline: float) -> bytes:
    """Read one TLS record off a socket before the deadline.

    A peer that closes first leaves what arrived, which may be nothing:
    handshake_attempt reads a cut reply, or an empty one, as it reads the
    same reply over the memory transport. Past the deadline (a ladder's
    later rungs), only bytes that have already arrived are read.
    """
    buf = b""
    while True:
        sock.settimeout(max(deadline - time.perf_counter(), 0.0))  # 0: do not block
        try:
            chunk = sock.recv(4096)
        except BlockingIOError:
            raise TimeoutError("record read deadline exceeded") from None
        if not chunk:
            return buf
        buf += chunk
        want = wire.record_size(buf)
        if want is not None and len(buf) >= want:
            return buf[:want]


class TcpConnector(Connector):
    """Connector over real TCP; one connection per exchange.

    An IPv4 literal (a host split_address gives no SNI name) is dialled
    without a resolver call; a host name goes through
    socket.create_connection, which resolves it and tries each address.
    """

    def send(self, address: str, raw: bytes, timeout_s: float) -> tuple:
        host, port, name = split_address(address)
        port = 443 if port is None else port
        deadline = time.perf_counter() + timeout_s
        failed, sock = "connect %s failed: %s", None
        try:
            if host and name is None:  # an IPv4 literal: no resolver call
                sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
                sock.settimeout(timeout_s)
                sock.connect((host, port))
            else:
                sock = socket.create_connection((host, port), timeout=timeout_s)
            failed = "exchange with %s failed: %s"
            sock.sendall(raw)
        except BaseException as exc:
            if sock is not None:
                sock.close()
            if isinstance(exc, TimeoutError) or not isinstance(exc, OSError):
                raise
            raise ConnectFailed(failed % (address, exc)) from exc
        return sock, address, deadline

    def receive(self, sent: tuple) -> bytes:
        sock, address, deadline = sent
        try:
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
