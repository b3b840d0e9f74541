"""The benchmark's span tracer wraps befs names that must keep existing.

``perfbench/spans.py`` looks every traced function and method up by name
when ``perfbench/run.py --trace 1`` starts. A rename or a deletion in befs
would break only that traced run, so these tests resolve each name here,
and run ``befs report`` and ``befs inspect`` under the tracer to derive
the per-layer metrics from what the traced functions return. Every name
the package exports in ``befs.__all__`` must resolve too.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

import befs
from befs import cli
from befs.inspection import ScanRecord, ScanResultKind
from befs.report import RecordStore

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("befs_perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _spans()


@pytest.mark.parametrize("name", befs.__all__)
def test_exported_name_resolves(name):
    assert hasattr(befs, name)


@pytest.mark.parametrize("module, name", spans.FUNCTIONS,
                         ids=["%s.%s" % entry for entry in spans.FUNCTIONS])
def test_traced_function_exists(module, name):
    assert module in spans.MODULES
    assert callable(getattr(importlib.import_module("befs." + module), name))


@pytest.mark.parametrize("module, cls, method, span", spans.METHODS,
                         ids=[entry[3] for entry in spans.METHODS])
def test_traced_method_exists(module, cls, method, span):
    assert module in spans.MODULES
    owner = getattr(importlib.import_module("befs." + module), cls)
    assert callable(getattr(owner, method))


def test_traced_report_gives_the_report_metrics(tmp_path, capsys):
    store_path = tmp_path / "store.jsonl"
    with RecordStore(store_path) as store:
        for campaign in ("c1", "c2", "c1"):
            store.append(ScanRecord("srv-0000", 1.0, ScanResultKind.RESPONDED, 0x002F, 0x0303),
                         campaign=campaign)
    tracer = spans.Tracer()
    tracer.install()
    try:
        code = cli.main(["report", "--store", str(store_path), "--campaign", "c1"])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert code == 0
    assert [s[5] for s in tracer.spans if s[0] == "report.load"] == [2]  # records kept
    metrics = spans.layer_metrics(tracer.spans, 0.0, 0.0)
    assert metrics["report.load.s"][0] > 0
    assert metrics["report.record_from_dict.us_per_call"][0] > 0
    assert metrics["cli.main.self_s"][0] > 0


def test_traced_inspect_gives_the_campaign_metrics(tmp_path, capsys):
    spec_path = tmp_path / "fleet.json"
    spec_path.write_text(json.dumps({"size": 30, "seed": 3, "mix": {
        "FS_PREFERRING": 0.3, "NONFS_ONLY": 0.3, "FS_NONAE_ONLY": 0.2, "UNRESPONSIVE": 0.2}}))
    store_path = tmp_path / "store.jsonl"
    tracer = spans.Tracer()
    tracer.install()
    try:
        code = cli.main(["inspect", "--fleet-spec", str(spec_path), "--transport", "memory",
                         "--concurrency", "1", "--timeout", "0.01", "--store", str(store_path)])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert code == 0
    metrics = spans.layer_metrics(tracer.spans, 0.0, 0.0)
    assert metrics["inspection.inspect_all.s"][0] > 0
    assert metrics["inspection.dispatch_us_per_item"][0] >= 0
    assert 1 <= metrics["inspection.handshakes_per_address"][0] <= 4
    # The campaign path runs the traced codec: one writer call per attempt,
    # the server's reader on each hello, the client's on each reply.
    assert (metrics["wire.encode_client_hello.calls"][0]
            == metrics["handshake.handshake_attempt.calls"][0])
    assert metrics["wire.decode_client_hello.calls"][0] > 0
    assert metrics["wire.decode_server_hello.us_per_call"][0] > 0
    with open(store_path, encoding="utf-8") as fh:
        assert metrics["report.append.calls"][0] == sum(1 for _ in fh)
    # Every stored line went through the traced RecordStore.append.
    assert metrics["report.append.us_per_call"][0] > 0
