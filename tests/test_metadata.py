"""Address ingestion and device labels."""

import json
import logging
import os
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

from befs import cli
from befs.fleetsim import Archetype, FleetSpec, Transport, generate_fleet, serve
from befs.inspection import ScanRecord, ScanResultKind
from befs.metadata import (
    EmptyDataset,
    IoFailure,
    device_type,
    load_addresses,
    parse_address,
    split_address,
)
from befs.report import RecordStore


SPLIT_CASES = [
    # address, host, port, SNI name
    ("example.com:443", "example.com", 443, "example.com"),
    ("example.com", "example.com", None, "example.com"),
    ("192.0.2.1:443", "192.0.2.1", 443, None),
    ("127.0.0.1:5000", "127.0.0.1", 5000, None),
    ("srv-0001", "srv-0001", None, "srv-0001"),
    ("host:https", "host:https", None, "host:https"),
    ("", "", None, None),
]


def test_split_address_table():
    for address, host, port, sni in SPLIT_CASES:
        assert split_address(address) == (host, port, sni), address


@given(st.text())
def test_split_address_is_total(text):
    host, port, sni = split_address(text)
    assert (text == host) if port is None else text.startswith(host + ":")
    assert sni in (None, host)


def test_parse_hostname_and_ipv4():
    assert parse_address("example.com") == "example.com"
    assert split_address("example.com") == ("example.com", None, "example.com")
    assert parse_address("Example.COM.") == "example.com"
    assert parse_address("192.0.2.1") == "192.0.2.1"
    assert split_address("192.0.2.1")[2] is None


def test_parse_ports_and_case():
    address = parse_address("Example.COM:8443")
    assert address == "example.com:8443"
    assert split_address(address) == ("example.com", 8443, "example.com")
    assert parse_address("192.0.2.1:443") == "192.0.2.1:443"


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "   ",
        "http://x",
        "https://example.com",
        "host with space",
        "example.com:0",
        "example.com:70000",
        "example.com:99x",
        "::1",
        "2001:db8::1",
        "999.0.2.1",
        "-leading.example",
        "trailing-.example",
        ":443",
    ],
)
def test_parse_rejects_malformed(bad):
    with pytest.raises(ValueError):
        parse_address(bad)


# Digits outside ASCII: Arabic-Indic, fullwidth, a superscript two.
NON_ASCII_PORTS = ["example.com:\u0664\u0664\u0663", "host:\uff18\uff10", "192.0.2.1:\u00b2"]


@pytest.mark.parametrize("raw", NON_ASCII_PORTS)
def test_parse_rejects_a_port_of_non_ascii_digits(raw):
    with pytest.raises(ValueError, match="port must be 1-65535"):
        parse_address(raw)


def test_a_non_ascii_port_is_skipped_in_files_and_refused_by_connect(tmp_path, caplog, capsys):
    f = tmp_path / "addrs.txt"
    f.write_text("".join(raw + "\n" for raw in NON_ASCII_PORTS) + "ok.example\n",
                 encoding="utf-8")
    with caplog.at_level(logging.WARNING):
        assert load_addresses(f) == ["ok.example"]
    assert sum("port must be 1-65535" in r.message for r in caplog.records) == 3
    assert cli.main(["connect", "127.0.0.1:\u0664\u0664\u0663", "--timeout", "0.5"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "bad address" in err


def test_befs_imports_logging_only_to_report_a_skipped_line():
    # logging and what it imports hold about 0.4 MB in every befs process.
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", "import sys, befs.cli; print('logging' in sys.modules)"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), check=True)
    assert done.stdout == "False\n"


# One memory campaign and its report, in the process that ran them: inspect
# writes the store, report reads it back. argv is [spec, store].
_CAMPAIGN = """
import sys
from befs import cli
spec, store = sys.argv[1:]
assert cli.main(["inspect", "--fleet-spec", spec, "--transport", "memory",
                 "--concurrency", "1", "--store", store]) == 0
assert cli.main(["report", "--store", store]) == 0
"""


def _run_campaign(tmp_path, prelude="", coda=""):
    spec = tmp_path / "fleet.json"
    spec.write_text(json.dumps({"size": 12, "seed": 5, "mix": {
        "NONFS_ONLY": 0.25, "FS_PREFERRING": 0.25,
        "FS_SUPPORTING_NONFS_PREFERRING": 0.25, "FS_NONAE_ONLY": 0.25}}), encoding="utf-8")
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    return subprocess.run(
        [sys.executable, "-c", prelude + _CAMPAIGN + coda, str(spec), str(tmp_path / "store.jsonl")],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), check=True)


def test_a_memory_campaign_and_its_report_load_no_openssl(tmp_path):
    # hashlib maps OpenSSL's libcrypto, about 3.8 MB resident, so the hello
    # randoms hash with CPython's built-in SHA-256 (handshake.sha256). An
    # OpenSSL endpoint (ssl.MemoryBIO, ROADMAP item 7) must therefore import
    # ssl where that endpoint is built, not at the top of its module. The
    # socket modules cost about 0.55 MB more, so only befs.loopback imports
    # them, and nothing loads that module for the memory transport. logging
    # costs about 0.4 MB, so only a skipped address line imports it.
    done = _run_campaign(tmp_path, coda="""
print(sorted(set(sys.modules) & {'hashlib', '_hashlib', 'ssl', '_ssl'}))
print(sorted(set(sys.modules) & {'socket', '_socket', 'select', 'selectors', 'befs.loopback'}))
print(sorted(set(sys.modules) & {'logging'}))
""")
    assert done.stdout.splitlines()[-3:] == ["[]", "[]", "[]"]


def test_only_a_report_of_one_campaign_builds_the_line_recognizer(tmp_path):
    # The pattern that recognizes another campaign's line takes milliseconds
    # to compile: a campaign, a report of every campaign, or a report of a
    # store's only campaign never builds it.
    done = _run_campaign(tmp_path, coda="""
from befs import report
built = [report._recognizer.cache_info().currsize]
assert cli.main(["report", "--store", store, "--campaign", ""]) == 0
built.append(report._recognizer.cache_info().currsize)
assert cli.main(["report", "--store", store, "--campaign", "c1"]) == 0
print(built + [report._recognizer.cache_info().currsize])
""")
    assert done.stdout.splitlines()[-1] == "[0, 0, 1]"


def test_befs_connect_loads_the_loopback_module_and_connects(tmp_path):
    spec = FleetSpec(size=1, seed=3, mix={Archetype.FS_PREFERRING: 1.0})
    with serve(generate_fleet(spec), Transport.LOOPBACK_SOCKET) as harness:
        done = _run_campaign(tmp_path, coda="""
loaded_before = "befs.loopback" in sys.modules
code = cli.main(["connect", %r, "--mode", "befs", "--timeout", "5"])
print(loaded_before, "befs.loopback" in sys.modules, code)
""" % harness.addresses[0])
    assert done.stdout.splitlines()[-1] == "False True 0"  # 0: connected with FS


def test_hello_randoms_fall_back_to_hashlib_without_a_built_in_sha256(tmp_path):
    # A None entry in sys.modules makes its import raise ImportError, as in
    # an interpreter built without the built-in SHA-2 module.
    done = _run_campaign(tmp_path, prelude="""
import sys
sys.modules["_sha2"] = sys.modules["_sha256"] = None
import hashlib
import befs.cli
from befs import fleetsim, handshake
assert handshake.sha256 is hashlib.sha256
assert fleetsim.server_random(7, 3, 1) == hashlib.sha256(b"server|7|3|1").digest()
assert handshake._client_random(7, "srv-3", "scan") == hashlib.sha256(b"7|srv-3|scan").digest()
""", coda="print('fallback ok')\n")
    assert done.stdout.splitlines()[-1] == "fallback ok"


def test_parse_is_idempotent_on_normalized_form():
    for raw in ("Example.COM:8443", "192.0.2.1", "a.b.c"):
        once = parse_address(raw)
        assert parse_address(once) == once


_HOST_LABEL = r"[A-Za-z]([A-Za-z0-9-]{0,9}[A-Za-z0-9])?"


@given(st.from_regex(r"%s(\.%s){0,3}" % (_HOST_LABEL, _HOST_LABEL), fullmatch=True))
def test_parse_accepts_reasonable_hostnames(name):
    parsed = parse_address(name)
    assert parsed == name.lower().rstrip(".")
    assert split_address(parsed)[2] == parsed  # a host name, so it goes into SNI


def test_load_addresses_dedup_and_diagnostics(tmp_path, caplog):
    f = tmp_path / "addrs.txt"
    f.write_text(
        "example.com\n"
        "192.0.2.1\n"
        "http://x\n"
        "EXAMPLE.com\n"
        "\n"
        "second.example:443\n",
        encoding="utf-8",
    )
    with caplog.at_level(logging.WARNING):
        out = load_addresses(f)
    assert out == ["example.com", "192.0.2.1", "second.example:443"]
    assert [split_address(a)[2] for a in out] == ["example.com", None, "second.example"]
    assert any(":3:" in r.message and "http://x" in r.message for r in caplog.records)


def test_load_addresses_errors(tmp_path):
    with pytest.raises(IoFailure):
        load_addresses(tmp_path / "missing.txt")
    empty = tmp_path / "empty.txt"
    empty.write_text("http://nope\n\n", encoding="utf-8")
    with pytest.raises(EmptyDataset):
        load_addresses(empty)


def test_address_lines_end_at_newline_only(tmp_path, caplog):
    f = tmp_path / "addrs.txt"
    f.write_bytes(b"example.com\x0cevil.example\nok.example\r\n")
    with caplog.at_level(logging.WARNING):
        assert load_addresses(f) == ["ok.example"]
    assert any(":1:" in r.message and "whitespace" in r.message for r in caplog.records)


def test_address_file_may_start_with_a_bom(tmp_path, caplog):
    f = tmp_path / "addrs.txt"
    f.write_text("\ufeffexample.com\n192.0.2.1\n", encoding="utf-8")
    with caplog.at_level(logging.WARNING):
        assert load_addresses(f) == ["example.com", "192.0.2.1"]
    assert not caplog.records


def write_meta(tmp_path, text):
    f = tmp_path / "meta.tsv"
    f.write_bytes(text.encode("utf-8"))
    return str(f)


def test_file_provider_partial_coverage(tmp_path):
    f = write_meta(tmp_path, "192.0.2.1\tDSL/cable modem\n192.0.2.2\t\n")
    labels = device_type(["192.0.2.1", "192.0.2.2", "192.0.2.3"], f)
    # an empty label is a covered non-device; an IP with no row is a miss
    assert labels == {"192.0.2.1": "DSL/cable modem", "192.0.2.2": ""}


def test_row_without_tab_means_empty_label(tmp_path):
    f = write_meta(tmp_path, "192.0.2.9\n")
    assert device_type(["192.0.2.9"], f) == {"192.0.2.9": ""}


def test_device_rows_end_at_newline_only(tmp_path):
    f = write_meta(tmp_path, "192.0.2.1\trouter\u2028192.0.2.9\n192.0.2.2\tprinter\r\n")
    labels = device_type(["192.0.2.1", "192.0.2.2", "192.0.2.9"], f)
    assert labels == {"192.0.2.1": "router\u2028192.0.2.9", "192.0.2.2": "printer"}


def test_device_file_may_start_with_a_bom(tmp_path):
    f = write_meta(tmp_path, "\ufeff192.0.2.1\trouter\n192.0.2.2\t\n")
    assert device_type(["192.0.2.1", "192.0.2.2"], f) == {"192.0.2.1": "router", "192.0.2.2": ""}


def test_unreadable_device_file_is_an_io_failure(tmp_path):
    with pytest.raises(IoFailure, match="absent.tsv"):
        device_type(["192.0.2.1"], tmp_path / "absent.tsv")
    latin1 = tmp_path / "latin1.tsv"
    latin1.write_bytes(b"192.0.2.1\tcam\xe9ra\n")
    with pytest.raises(IoFailure, match="latin1.tsv"):
        device_type(["192.0.2.1"], latin1)


def test_device_type_dedups_requests(tmp_path):
    f = write_meta(tmp_path, "192.0.2.1\tprinter\n")
    assert device_type(["192.0.2.1", "192.0.2.1"], f) == {"192.0.2.1": "printer"}


def test_empty_request_has_full_coverage(tmp_path, capsys):
    f = write_meta(tmp_path, "192.0.2.1\tprinter\n")
    assert device_type([], f) == {}
    store = tmp_path / "records.jsonl"
    with RecordStore(store) as log:
        log.append(ScanRecord("192.0.2.1:443", 1.0, ScanResultKind.TIMEOUT))
    assert cli.main(["report", "--store", str(store), "--device-meta", f]) == 0
    assert "report: device metadata coverage 100.00%" in capsys.readouterr().err
