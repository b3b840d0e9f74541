"""Address ingestion and the device metadata provider seam."""

import logging

import pytest
from hypothesis import given, strategies as st

from befs.metadata import (
    Address,
    AddressKind,
    DeviceLookup,
    DeviceMeta,
    EmptyDataset,
    FileBackedProvider,
    IoFailure,
    ProviderUnavailable,
    device_type,
    load_addresses,
    parse_address,
    split_address,
)


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
    a = parse_address("example.com")
    assert a.kind is AddressKind.HOSTNAME and a.normalized == "example.com"
    assert a.sni_hostname == "example.com" and a.port is None
    b = parse_address("192.0.2.1")
    assert b.kind is AddressKind.IPV4 and b.sni_hostname is None


def test_parse_ports_and_case():
    a = parse_address("Example.COM:8443")
    assert a.normalized == "example.com:8443"
    assert a.host == "example.com" and a.port == 8443
    assert parse_address("192.0.2.1:443").normalized == "192.0.2.1:443"


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


def test_parse_is_idempotent_on_normalized_form():
    for raw in ("Example.COM:8443", "192.0.2.1", "a.b.c"):
        once = parse_address(raw)
        again = parse_address(once.normalized)
        assert again.normalized == once.normalized
        assert again.kind is once.kind


_HOST_LABEL = r"[A-Za-z]([A-Za-z0-9-]{0,9}[A-Za-z0-9])?"


@given(st.from_regex(r"%s(\.%s){0,3}" % (_HOST_LABEL, _HOST_LABEL), fullmatch=True))
def test_parse_accepts_reasonable_hostnames(name):
    parsed = parse_address(name)
    assert parsed.kind is AddressKind.HOSTNAME
    assert parsed.normalized == name.lower().rstrip(".")


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
    assert [a.normalized for a in out] == ["example.com", "192.0.2.1", "second.example:443"]
    assert [a.kind for a in out] == [
        AddressKind.HOSTNAME,
        AddressKind.IPV4,
        AddressKind.HOSTNAME,
    ]
    assert any(":3:" in r.message and "http://x" in r.message for r in caplog.records)


def test_load_addresses_errors(tmp_path):
    with pytest.raises(IoFailure):
        load_addresses(tmp_path / "missing.txt")
    empty = tmp_path / "empty.txt"
    empty.write_text("http://nope\n\n", encoding="utf-8")
    with pytest.raises(EmptyDataset):
        load_addresses(empty)


def test_file_provider_partial_coverage(tmp_path):
    f = tmp_path / "meta.tsv"
    f.write_text(
        "192.0.2.1\tDSL/cable modem\n"
        "192.0.2.2\t\n",
        encoding="utf-8",
    )
    provider = FileBackedProvider(str(f))
    lookup = device_type(["192.0.2.1", "192.0.2.2", "192.0.2.3"], provider)
    assert lookup.coverage == pytest.approx(2 / 3)
    assert lookup.missing == ("192.0.2.3",)
    assert "192.0.2.3" not in lookup
    # present with empty label is a covered non-device, not a miss
    assert lookup["192.0.2.2"].device_type_label == ""
    assert not lookup["192.0.2.2"].is_network_device
    assert lookup["192.0.2.1"].is_network_device
    assert lookup["192.0.2.1"].device_type_label == "DSL/cable modem"


def test_row_without_tab_means_empty_label(tmp_path):
    f = tmp_path / "meta.tsv"
    f.write_text("192.0.2.9\n", encoding="utf-8")
    lookup = device_type(["192.0.2.9"], FileBackedProvider(str(f)))
    assert lookup["192.0.2.9"].device_type_label == ""
    assert lookup.coverage == 1.0


def test_dead_provider_degrades_to_all_missing(tmp_path, caplog):
    provider = FileBackedProvider(str(tmp_path / "absent.tsv"))
    with pytest.raises(ProviderUnavailable):
        provider.lookup(["192.0.2.1"])
    with caplog.at_level(logging.WARNING):
        lookup = device_type(["192.0.2.1", "192.0.2.2"], provider)
    assert lookup.by_ip == {}
    assert lookup.missing == ("192.0.2.1", "192.0.2.2")
    assert lookup.coverage == 0.0
    assert any("provider unavailable" in r.message for r in caplog.records)


def test_device_type_dedups_requests(tmp_path):
    f = tmp_path / "meta.tsv"
    f.write_text("192.0.2.1\tprinter\n", encoding="utf-8")
    lookup = device_type(["192.0.2.1", "192.0.2.1"], FileBackedProvider(str(f)))
    assert lookup.requested == 1 and lookup.coverage == 1.0


def test_empty_request_has_full_coverage():
    lookup = DeviceLookup(by_ip={}, missing=())
    assert lookup.coverage == 1.0 and lookup.requested == 0


def test_meta_equality_is_value_based():
    assert DeviceMeta("a", "NAS") == DeviceMeta("a", "NAS") != DeviceMeta("a", "")
    assert Address("A", AddressKind.HOSTNAME, "a") == Address("A", AddressKind.HOSTNAME, "a")
