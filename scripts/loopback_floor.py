#!/usr/bin/env python3
"""Microseconds per exchange at each layer of a loopback connect.

Every row makes one TCP connection per exchange to 127.0.0.1 and sends a
DEFAULT-offer ClientHello (the connect rows send their rungs' hellos):

  floor            a raw client to a minimal select/accept/recv/send/close
                   server that answers every hello with the same bytes
  harness          the raw client to one loopback.SocketHarness server
  exchange         loopback.TcpConnector.exchange to that server
  attempt          handshake_attempt
  connect <MODE>   client.connect, per exchange

The server is a NONFS_ONLY one with zero latency, so DEFAULT selects at
once, BEFS is refused once and BESAFE twice before they select: a connect
row is the connect's time over its exchanges. The floor server replies
with the harness's own reply to the raw hello. The process pins itself to
one CPU, as perfbench does, so the client and the server thread share it;
each row is the median over batches, and the rows take turns within a batch.

    PYTHONPATH=src python3 scripts/loopback_floor.py --exchanges 3000 --batches 5
"""

import argparse
import os
import select
import socket
import statistics
import threading
import time

from befs import client, fleetsim
from befs.handshake import client_hello, handshake_attempt
from befs.suites import DEFAULT

_DEFER_ACCEPT = getattr(socket, "TCP_DEFER_ACCEPT", None)


def pin_to_one_cpu() -> None:
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[-1]})


class MinimalServer:
    """One listener, one thread: select, accept, recv, send the fixed reply, close."""

    def __init__(self, reply: bytes) -> None:
        self.reply = reply
        self.listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.listener.bind(("127.0.0.1", 0))
        if _DEFER_ACCEPT is not None:
            self.listener.setsockopt(socket.IPPROTO_TCP, _DEFER_ACCEPT, 1)
        self.listener.listen(128)
        self.port = self.listener.getsockname()[1]
        self._stop_r, self._stop_w = socket.socketpair()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self) -> None:
        while True:
            ready, _, _ = select.select([self.listener, self._stop_r], [], [])
            if self._stop_r in ready:
                return
            conn, _ = self.listener.accept()
            conn.recv(4096)
            conn.sendall(self.reply)
            conn.close()

    def stop(self) -> None:
        self._stop_w.send(b"x")
        self._thread.join()
        for sock in (self.listener, self._stop_r, self._stop_w):
            sock.close()


def raw_exchange(port: int, hello: bytes) -> bytes:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.connect(("127.0.0.1", port))
        sock.sendall(hello)
        return sock.recv(4096)


def us_per_exchange(step, exchanges: int, per_call: int = 1) -> float:
    clock = time.perf_counter
    start = clock()
    for _ in range(exchanges // per_call):
        step()
    return (clock() - start) / (exchanges // per_call * per_call) * 1e6


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--exchanges", type=int, default=3000, help="exchanges per row and batch")
    parser.add_argument("--batches", type=int, default=5)
    args = parser.parse_args()
    pin_to_one_cpu()

    spec = fleetsim.FleetSpec(size=1, seed=1, mix={fleetsim.Archetype.NONFS_ONLY: 1.0})
    harness = fleetsim.serve(fleetsim.generate_fleet(spec), fleetsim.Transport.LOOPBACK_SOCKET)
    address = harness.addresses[0]
    port = int(address.rsplit(":", 1)[1])
    hello = client_hello(address, DEFAULT.suites)
    floor = MinimalServer(raw_exchange(port, hello))
    connector = harness.connector()
    configs = {mode: client.PolicyConfig(mode=mode, timeout_s=5.0) for mode in client.BENCH_MODES}
    rungs = {mode: len(client.LADDERS[mode]) for mode in client.BENCH_MODES}
    for mode, cfg in configs.items():  # every rung but the last is refused
        assert client.connect(address, cfg, connector=connector).handshake_attempts == rungs[mode]

    rows = {
        "floor": (lambda: raw_exchange(floor.port, hello), 1),
        "harness": (lambda: raw_exchange(port, hello), 1),
        "exchange": (lambda: connector.exchange(address, hello, 5.0), 1),
        "attempt": (lambda: handshake_attempt(connector, address, DEFAULT.suites, 5.0), 1),
    }
    for mode, cfg in configs.items():
        rows["connect " + mode.name] = (
            lambda cfg=cfg: client.connect(address, cfg, connector=connector), rungs[mode])
    try:
        for step, per_call in rows.values():  # warm-up
            us_per_exchange(step, max(per_call, args.exchanges // 10), per_call)
        samples = {name: [] for name in rows}
        for _ in range(args.batches):
            for name, (step, per_call) in rows.items():
                samples[name].append(us_per_exchange(step, args.exchanges, per_call))
    finally:
        floor.stop()
        harness.stop()

    us = {name: statistics.median(values) for name, values in samples.items()}
    print("us per exchange, median of %d batches of %d exchanges, one CPU"
          % (args.batches, args.exchanges))
    for name, value in us.items():
        print("%-26s %8.1f" % (name, value))
    print("%-26s %8.1f" % ("harness - floor", us["harness"] - us["floor"]))
    print("%-26s %8.1f" % ("connect DEFAULT - harness", us["connect DEFAULT"] - us["harness"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
