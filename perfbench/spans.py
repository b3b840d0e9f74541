"""In-memory span tracer for the befs layers, and the per-layer metrics.

The tracer replaces a befs function with a timing wrapper at every place
a caller looks it up: the defining module, and each module that imported
it by name (``handshake_attempt`` is bound inside ``inspection`` and
``client``, ``select`` inside ``fleetsim``). Methods are wrapped on their
class. Spans are kept in memory as (name, start, end, parent, thread,
detail) and written out when the run ends. A span's parent is the open
span of the same thread, so spans of pool workers and of the
``SocketHarness`` loop thread are roots of their own.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import importlib
import json
import threading
import time
import types

MODULES = ("wire", "negotiate", "fleetsim", "handshake", "inspection", "client",
           "report", "metadata", "cli")

# Public functions whose spans the per-layer metrics use. The record
# converters (``*_to_dict``) stay unwrapped: they are part of the CLI's
# own work, which ``cli.main.self_s`` measures.
FUNCTIONS = (
    ("wire", "encode_client_hello"),
    ("wire", "decode_client_hello"),
    ("wire", "encode_server_hello"),
    ("wire", "decode_server_hello"),
    ("wire", "encode_alert"),
    ("wire", "decode_alert"),
    ("negotiate", "select"),
    ("fleetsim", "answer_offer"),
    ("fleetsim", "generate_fleet"),
    ("fleetsim", "load_fleet_spec"),
    ("fleetsim", "serve"),
    ("handshake", "handshake_attempt"),
    ("inspection", "scan"),
    ("inspection", "scan_one"),
    ("inspection", "inspect_all"),
    ("inspection", "inspect_one"),
    ("client", "connect"),
    ("report", "scan_record_from_dict"),
    ("report", "inspection_record_from_dict"),
    ("report", "aggregate"),
    ("report", "render_text"),
    ("metadata", "device_type"),
    ("cli", "main"),
)

# (module, class, method, span name): the two transports get one name each.
METHODS = (
    ("handshake", "TcpConnector", "exchange", "handshake.exchange.socket"),
    ("fleetsim", "_MemoryConnector", "exchange", "handshake.exchange.memory"),
    ("report", "RecordStore", "append", "report.append"),
    ("report", "RecordStore", "load", "report.load"),
)


def _connect_mode(args, kwargs, result):
    cfg = args[1] if len(args) > 1 else kwargs["cfg"]
    return cfg.mode.name.lower()


def _records_kept(args, kwargs, result):
    return len(result.records)


DETAILS = {"client.connect": _connect_mode, "report.load": _records_kept}


class _JsonProxy(types.ModuleType):
    """Stands in for ``json`` inside ``befs.report`` so parses are counted."""

    def __init__(self, real, loads, dumps):
        super().__init__("json")
        self._real = real
        self.loads = loads
        self.dumps = dumps

    def __getattr__(self, name):
        return getattr(self._real, name)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []
        self._paused = False
        self._gc_start = 0.0

    # -- recording ----------------------------------------------------------

    def _wrap(self, fn, name):
        spans = self.spans
        local = self._local
        clock = time.perf_counter
        ident = threading.get_ident
        detail = DETAILS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span = [name, clock(), 0.0, stack[-1] if stack else None, ident(), None]
            spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if detail is not None:
                span[5] = detail(args, kwargs, result)
            return result

        return traced

    def _on_gc(self, phase, info) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif not self._paused:
            self.spans.append(
                ["process.gc", self._gc_start, time.perf_counter(), None, threading.get_ident(),
                 info.get("generation")]
            )

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every traced function at each of its bindings."""
        mods = {m: importlib.import_module("befs." + m) for m in MODULES}
        for mod_name, attr in FUNCTIONS:
            fn = getattr(mods[mod_name], attr)
            wrapper = self._wrap(fn, "%s.%s" % (mod_name, attr))
            for mod in mods.values():
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._set(mod, key, wrapper)
        for mod_name, cls_name, attr, name in METHODS:
            cls = getattr(mods[mod_name], cls_name)
            self._set(cls, attr, self._wrap(getattr(cls, attr), name))
        report = mods["report"]
        self._set(report, "json", _JsonProxy(
            json,
            self._wrap(json.loads, "report.json.loads"),
            self._wrap(json.dumps, "report.json.dumps"),
        ))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        gc.callbacks.remove(self._on_gc)
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    @contextlib.contextmanager
    def paused(self):
        """Run the benchmark's own checks and oracle without recording."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def write(self, path) -> None:
        """Spans as tab-separated rows: id, parent, thread, name, start, end, detail."""
        ids = {id(span): i for i, span in enumerate(self.spans)}
        threads: dict[int, int] = {}
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tthread\tname\tstart\tend\tdetail\n")
            for i, (name, start, end, parent, thread, detail) in enumerate(self.spans):
                fh.write("%d\t%s\t%d\t%s\t%.9f\t%.9f\t%s\n" % (
                    i,
                    "" if parent is None else ids[id(parent)],
                    threads.setdefault(thread, len(threads)),
                    name, start, end,
                    "" if detail is None else detail,
                ))


# -- per-layer metrics -----------------------------------------------------


class _Layer:
    __slots__ = ("calls", "total", "self_total")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_total = 0.0

    def us_per_call(self) -> float:
        return 1e6 * self.total / self.calls if self.calls else 0.0

    def self_us_per_call(self) -> float:
        return 1e6 * self.self_total / self.calls if self.calls else 0.0


def layer_metrics(spans, overhead_pct: float, reference_s: float) -> dict[str, tuple[float, str]]:
    """Derive every per-layer metric from the recorded spans.

    Span times are not scaled; ``process.reference_ms``, the time the
    reference mix took during the traced rounds, says how fast the host ran.
    """
    layers: dict[str, _Layer] = {}
    per_task = kept = lines = 0
    attempts_by_mode = {m: [0, 0] for m in ("default", "befs", "besafe")}  # connects, attempts
    for name, start, end, parent, _, detail in spans:
        layer = layers.get(name)
        if layer is None:
            layer = layers[name] = _Layer()
        layer.calls += 1
        layer.total += end - start
        layer.self_total += end - start
        if name == "client.connect":
            attempts_by_mode[detail][0] += 1
        elif name == "report.load":
            kept += detail
        if parent is None:
            continue
        # A parent starts, and so is recorded, before its children.
        layers[parent[0]].self_total -= end - start
        if name == "handshake.handshake_attempt":
            if parent[0] in ("inspection.scan_one", "inspection.inspect_one"):
                per_task += 1
            elif parent[0] == "client.connect":
                attempts_by_mode[parent[5]][1] += 1
        elif name == "report.json.loads" and parent[0] == "report.load":
            lines += 1
    get = lambda name: layers.get(name) or _Layer()  # noqa: E731

    pool = get("inspection.scan").total + get("inspection.inspect_all").total
    tasks = get("inspection.scan_one").calls + get("inspection.inspect_one").calls
    task_time = get("inspection.scan_one").total + get("inspection.inspect_one").total
    scanned = get("inspection.scan_one").calls
    from_dict = _Layer()
    for name in ("report.scan_record_from_dict", "report.inspection_record_from_dict"):
        from_dict.calls += get(name).calls
        from_dict.total += get(name).total

    out: dict[str, tuple[float, str]] = {}
    for fn in ("encode_client_hello", "decode_client_hello", "encode_server_hello",
               "decode_server_hello", "decode_alert"):
        out["wire.%s.us_per_call" % fn] = (get("wire." + fn).us_per_call(), "us")
    for fn in ("encode_client_hello", "decode_client_hello"):
        out["wire.%s.calls" % fn] = (get("wire." + fn).calls, "count")
    out["negotiate.select.calls"] = (get("negotiate.select").calls, "count")
    out["negotiate.select.us_per_call"] = (get("negotiate.select").us_per_call(), "us")
    out["fleetsim.answer_offer.self_us_per_call"] = (
        get("fleetsim.answer_offer").self_us_per_call(), "us")
    out["fleetsim.generate_fleet.s"] = (get("fleetsim.generate_fleet").total, "s")
    out["handshake.handshake_attempt.calls"] = (get("handshake.handshake_attempt").calls, "count")
    out["handshake.handshake_attempt.self_us_per_call"] = (
        get("handshake.handshake_attempt").self_us_per_call(), "us")
    for transport in ("memory", "socket"):
        out["handshake.exchange.%s.us_per_call" % transport] = (
            get("handshake.exchange." + transport).us_per_call(), "us")
    out["inspection.scan.s"] = (get("inspection.scan").total, "s")
    out["inspection.inspect_all.s"] = (get("inspection.inspect_all").total, "s")
    out["inspection.dispatch_us_per_item"] = (
        1e6 * (pool - task_time) / tasks if tasks else 0.0, "us")
    out["inspection.handshakes_per_address"] = (per_task / scanned if scanned else 0.0, "ratio")
    out["client.connect.self_us_per_call"] = (get("client.connect").self_us_per_call(), "us")
    for mode, (connects, attempts) in attempts_by_mode.items():
        out["client.attempts_per_connect.%s" % mode] = (
            attempts / connects if connects else 0.0, "ratio")
    out["report.append.calls"] = (get("report.append").calls, "count")
    out["report.append.us_per_call"] = (get("report.append").us_per_call(), "us")
    out["report.load.s"] = (get("report.load").total, "s")
    out["report.load.lines"] = (lines, "count")
    out["report.load.kept_ratio"] = (kept / lines if lines else 0.0, "ratio")
    out["report.record_from_dict.us_per_call"] = (from_dict.us_per_call(), "us")
    out["report.aggregate.self_s"] = (get("report.aggregate").self_total, "s")
    out["metadata.device_type.s"] = (get("metadata.device_type").total, "s")
    out["cli.main.self_s"] = (get("cli.main").self_total, "s")
    out["process.gc_s"] = (get("process.gc").total, "s")
    out["process.reference_ms"] = (1e3 * reference_s, "ms")
    out["trace.overhead_pct"] = (overhead_pct, "%")
    return out
