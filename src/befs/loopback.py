"""Every befs socket: the TCP client and the loopback fleet.

TcpConnector dials an address, one connection per exchange, and
read_record reads its reply; SocketHarness serves a fleet on loopback
listeners from one event-loop thread. No other befs module imports
socket or selectors, and none imports this one at its top: fleetsim.serve
loads it for Transport.LOOPBACK_SOCKET, and the CLI for an --input target
or ``befs connect``. A campaign on the memory transport and a report
therefore never load a socket module.
"""

from __future__ import annotations

import heapq
import selectors
import socket
import threading
import time
from typing import Iterable, Optional

from . import wire
from .fleetsim import BindFailure, Endpoint, Harness, SimServer
from .handshake import ConnectFailed, Connector
from .metadata import split_address


def read_record(sock: socket.socket, deadline: float) -> bytes:
    """Read one TLS record off a socket before the deadline.

    A peer that closes first leaves what arrived, which may be nothing:
    handshake_attempt reads a cut reply, or an empty one, as it reads the
    same reply over the memory transport. Past the deadline (a ladder's
    later rungs), only bytes that have already arrived are read.
    """
    buf = b""
    while True:
        remaining = deadline - time.perf_counter()
        sock.settimeout(remaining if remaining > 0 else 0.0)  # 0: do not block
        try:
            chunk = sock.recv(4096)
        except BlockingIOError:
            raise TimeoutError("record read deadline exceeded") from None
        if not chunk:
            return buf
        buf += chunk
        # wire.record_size, inline: 5 header bytes and the length they give
        if len(buf) >= 5:
            want = 5 + (buf[3] << 8 | buf[4])
            if len(buf) >= want:
                return buf if len(buf) == want else buf[:want]


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


# Linux's option to hold a connection back from accept until data arrives
_DEFER_ACCEPT = getattr(socket, "TCP_DEFER_ACCEPT", None)
# Longest select wait: a reply due further ahead (a huge latency) would
# overflow the platform's timeout, so the loop wakes and waits again.
_MAX_WAIT_S = 1.0


class SocketHarness(Harness):
    """Loopback TCP fleet: one listener per server, one event-loop thread.

    The loop owns every socket; Harness.answer runs inline (it is pure
    computation), and latency is applied by scheduling the reply rather
    than sleeping, so one thread serves the whole fleet.

    The selector is the loop's only registry of sockets. A listener's key
    holds its address, the wake pair's read end None, and a waiting
    connection's key its state: [endpoint, hello buffer], the buffer None
    once answered or stalled.

    Where the platform has TCP_DEFER_ACCEPT, a connection is accepted
    only once its hello is in, and the accept step reads it at once: a
    reply due now (zero sampled latency) is sent and the connection
    closed in that step. Only a connection that must wait (an incomplete
    hello, a stall or a delayed reply) is registered with the selector.
    in_flight counts a connection from accept to close, max_in_flight its
    high-water mark; only the loop thread counts, so no lock guards them.

    An endpoint that raises ends the loop: the loop closes every
    connection and listener, so later dials are refused, and stop()
    raises the error.
    """

    def __init__(self, servers: Iterable[SimServer], **options) -> None:
        """``options`` as Harness takes them; the loop starts once every server listens."""
        self.in_flight = self.max_in_flight = 0  # _close_all reads them after a failed bind
        self._sel = selectors.DefaultSelector()
        self._pending: list[tuple[float, int, socket.SocketType, bytes]] = []
        self._seq = 0
        self._error: Optional[Exception] = None
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._sel.register(self._wake_r, selectors.EVENT_READ, None)
        try:
            super().__init__(servers, **options)
        except BaseException:
            self._close_all()
            self._wake_w.close()
            raise
        self._thread = threading.Thread(target=self._run, name="fleet-loop", daemon=True)
        self._thread.start()

    def _listen(self, server: SimServer) -> str:
        """Bind a loopback listener for ``server`` and register it; its address."""
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            sock.bind(("127.0.0.1", 0))
        except OSError as exc:
            sock.close()
            raise BindFailure("bind failed after %d listeners: %s" % (len(self.endpoints), exc)) from exc
        if _DEFER_ACCEPT is not None:
            sock.setsockopt(socket.IPPROTO_TCP, _DEFER_ACCEPT, 1)
        sock.listen(128)
        sock.setblocking(False)
        address = "%s:%d" % sock.getsockname()
        self._sel.register(sock, selectors.EVENT_READ, address)
        return address

    def connector(self) -> TcpConnector:
        return TcpConnector()

    def stop(self) -> None:
        """Stop the loop, which closes every socket; raise what ended it, if an endpoint raised."""
        if not self.stopped:
            self.stopped = True
            try:
                self._wake_w.send(b"x")
            except OSError:
                pass
            self._thread.join(timeout=10)
            self._wake_w.close()
        error, self._error = self._error, None
        if error is not None:
            raise error

    def _close_all(self) -> None:
        for key in list(self._sel.get_map().values()):
            if type(key.data) is list:  # a waiting connection
                self.in_flight -= 1
            key.fileobj.close()  # the wake pair's read end among them
        self._sel.close()

    def _close(self, conn: socket.SocketType, registered: bool) -> None:
        if registered:
            self._sel.unregister(conn)
        try:
            conn.close()
        except OSError:
            pass
        self.in_flight -= 1

    def _run(self) -> None:
        pending = self._pending
        try:
            while not self.stopped:
                timeout = None
                if pending:
                    timeout = min(max(0.0, pending[0][0] - time.perf_counter()), _MAX_WAIT_S)
                for key, _ in self._sel.select(timeout):
                    data = key.data
                    if type(data) is str:  # a listener's address
                        self._accept(key.fileobj, data)
                    elif data is None:  # the wake pair
                        try:
                            self._wake_r.recv(64)
                        except OSError:
                            pass
                    else:
                        self._feed(key.fileobj, data[0], data[1], data)
                if pending:
                    now = time.perf_counter()
                    while pending and pending[0][0] <= now:
                        _, _, conn, payload = heapq.heappop(pending)
                        self._reply(conn, payload, True)
        except Exception as exc:  # an endpoint's: stop() raises it
            self._error = exc
        finally:
            self._close_all()

    def _accept(self, listener: socket.socket, address: str) -> None:
        # socket.accept wraps the descriptor in a Python-level socket.socket,
        # reading the listener's family and type as enums on the way; the C
        # socket type (socket.SocketType) takes them as ints and closes
        # without a Python layer.
        try:
            fd, _peer = listener._accept()
        except OSError:
            return
        conn = socket.SocketType(socket.AF_INET, socket.SOCK_STREAM, 0, fd)
        conn.setblocking(False)
        self.in_flight = n = self.in_flight + 1
        if n > self.max_in_flight:
            self.max_in_flight = n
        self._feed(conn, self.endpoints[address], b"", None)

    def _reply(self, conn: socket.SocketType, payload: bytes, registered: bool) -> None:
        try:
            conn.sendall(payload)
        except OSError:
            pass
        self._close(conn, registered)

    def _feed(self, conn: socket.SocketType, endpoint: Endpoint, buf: Optional[bytes],
              state: Optional[list]) -> None:
        """Read what the client sent after ``buf``, the hello so far (None
        once answered or stalled), and answer a complete hello. ``state`` is
        the connection's key data, None before it is registered: one that
        has to wait is registered, once, to notice the client leaving."""
        try:
            chunk = conn.recv(4096)
        except BlockingIOError:
            chunk = None
        except OSError:
            chunk = b""
        if chunk == b"":  # the client left: a reply still scheduled for it has no reader
            pending = self._pending
            pending[:] = [entry for entry in pending if entry[2] is not conn]
            heapq.heapify(pending)
            self._close(conn, state is not None)
            return
        if chunk and buf is not None:
            buf += chunk  # b"" + chunk is chunk itself
            total = wire.record_size(buf)
            if total is not None and len(buf) >= total:
                try:  # the slice is buf itself when it is one whole record
                    reply, delay_s = self.answer(endpoint, buf[:total])
                except BaseException:
                    self._close(conn, state is not None)
                    raise
                buf = None
                if reply is not None:
                    if delay_s <= 0:
                        self._reply(conn, reply, state is not None)
                        return
                    self._seq += 1
                    heapq.heappush(self._pending, (time.perf_counter() + delay_s, self._seq, conn, reply))
        if state is None:  # an incomplete hello, a stall or a later reply
            self._sel.register(conn, selectors.EVENT_READ, [endpoint, buf])
        else:
            state[1] = buf
