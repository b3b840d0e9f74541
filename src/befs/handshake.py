"""One handshake attempt, sans IO: the ClientHello to send, and what came back.

client_hello makes an attempt's bytes and read_reply reads its reply;
handshake_attempt joins them over a Connector, which abstracts the byte
transport (fleetsim's in-memory fleet, or loopback.TcpConnector), so the
scanning, inspection, and policy engines share one attempt primitive.
This module opens no socket. Connections are one-shot: an exchange, a
send then a receive, ends at the ServerHello or alert, and a caller may
send several hellos before it receives any reply. Nothing past the first
server flight matters.
"""

from __future__ import annotations

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


# Looking a member up on its Enum class costs about 0.1 us (CPython 3.11);
# read_reply reads these names instead.
_SELECTED, _REJECTED, _TIMEOUT = AttemptKind.SELECTED, AttemptKind.REJECTED, AttemptKind.TIMEOUT
_CONNECT_ERROR, _PROTOCOL_ERROR = AttemptKind.CONNECT_ERROR, AttemptKind.PROTOCOL_ERROR


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
    try:
        if not isinstance(reply, Exception):  # the common case first: a ServerHello
            if reply and reply[0] != wire.CONTENT_ALERT:
                version, suite = wire.decode_server_hello(reply)
                # A real client answers these with an illegal_parameter alert.
                if suite not in offer or suite == FALLBACK_SIGNAL:
                    error = "server selected unoffered suite 0x%04X" % suite
                elif version > wire.TLS1_2:
                    error = "server selected version 0x%04X above 0x%04X" % (version, wire.TLS1_2)
                if error is None:
                    kind = _SELECTED
                else:
                    kind, version, suite = _PROTOCOL_ERROR, None, None
            elif reply:
                alert = wire.decode_alert(reply)
                kind, error = _REJECTED, alert.description_name
            else:
                kind, error = _CONNECT_ERROR, "connection closed before a full record"
        elif isinstance(reply, TimeoutError):
            kind, error = _TIMEOUT, "timed out after %gs" % timeout_s
        else:
            kind, error = _CONNECT_ERROR, str(reply)
    except wire.WireError as exc:
        kind, error = _PROTOCOL_ERROR, str(exc)
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


def __getattr__(name: str):
    # perfbench/spans.py wraps handshake.TcpConnector.exchange under this
    # module's name, so the name resolves here, loading loopback on first
    # use. ROADMAP item 1 lets the tracer take a connector's own module and
    # deletes this forwarder.
    if name == "TcpConnector":
        from .loopback import TcpConnector
        return TcpConnector
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
