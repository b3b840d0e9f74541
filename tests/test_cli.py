"""End-to-end command-line behavior, including the served-fleet pipeline."""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from befs.cli import main
from befs.fleetsim import Archetype, FleetSpec, Transport, generate_fleet, serve
from befs.handshake import AttemptKind, AttemptResult
from befs.inspection import Classification, InspectionRecord, ScanRecord, ScanResultKind, StepResult
from befs.report import RecordStore, inspection_record_to_dict, scan_record_to_dict
from befs.suites import ProfileKind


def write_spec(tmp_path, mix, size=8, seed=3, name="fleet.json", **extra):
    data = {"size": size, "seed": seed, "mix": mix, **extra}
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


MIXED = {
    "NONFS_ONLY": 0.25,
    "FS_PREFERRING": 0.25,
    "FS_SUPPORTING_NONFS_PREFERRING": 0.25,
    "FS_NONAE_ONLY": 0.25,
}


def run_cli(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


# -- scan / inspect ------------------------------------------------------------


def test_scan_fleet_spec_memory(tmp_path, capsys):
    spec = write_spec(tmp_path, MIXED)
    code, out, err = run_cli(
        ["scan", "--fleet-spec", spec, "--timeout", "0.5", "--concurrency", "8"], capsys
    )
    assert code == 0
    lines = [json.loads(l) for l in out.splitlines()]
    assert len(lines) == 8
    assert all(l["kind"] == "scan" and l["v"] == 1 for l in lines)
    assert "8 responded" in err


def test_inspect_writes_store_and_histogram(tmp_path, capsys):
    spec = write_spec(tmp_path, MIXED)
    store_path = tmp_path / "records.jsonl"
    code, out, err = run_cli(
        [
            "inspect", "--fleet-spec", spec, "--timeout", "0.5",
            "--concurrency", "8", "--store", str(store_path), "--campaign", "c1",
        ],
        capsys,
    )
    assert code == 0
    emitted = [json.loads(l) for l in out.splitlines()]
    assert emitted and all(l["kind"] == "inspection" for l in emitted)
    loaded = RecordStore(store_path).load(campaign="c1")
    assert loaded.errors == []
    kinds = {r["kind"] for r in loaded.records}
    assert kinds == {"scan", "inspection"}
    assert sum(r["kind"] == "scan" for r in loaded.records) == 8
    assert "inspected" in err


def test_scan_missing_input_file_fails_cleanly(tmp_path, capsys):
    code, out, err = run_cli(["scan", "--input", str(tmp_path / "nope.txt")], capsys)
    assert code == 1
    assert out == "" and "cannot read" in err


def test_fleet_spec_bad_json_fails_cleanly(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{", encoding="utf-8")
    code, out, err = run_cli(["scan", "--fleet-spec", str(bad)], capsys)
    assert code == 1
    assert "JSON" in err


def test_usage_errors_exit_nonzero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["scan"])  # neither --input nor --fleet-spec
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "command, option, value",
    [
        (command, option, value)
        for option, values, commands in (
            ("--concurrency", ("0", "-2"), ("scan", "inspect")),
            ("--rate-limit", ("-1", "0", "nan", "inf"), ("scan", "inspect")),
            ("--timeout", ("-1", "0", "nan", "inf"), ("scan", "inspect", "bench", "connect")),
        )
        for value in values
        for command in commands
    ],
)
def test_out_of_range_numbers_are_usage_errors(tmp_path, capsys, command, option, value):
    target = (["127.0.0.1:1"] if command == "connect"
              else ["--fleet-spec", write_spec(tmp_path, MIXED)])
    with pytest.raises(SystemExit) as exc:
        main([command, *target, option + "=" + value])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and option in err


@pytest.mark.parametrize(
    "spec, key",
    [
        ('{"size": 5, "seed": 1, "mix": {"NONFS_ONLY": NaN}}', "NONFS_ONLY"),
        ('{"size": 5, "seed": 1, "mix": {"NONFS_ONLY": 0.5, "FS_PREFERRING": NaN}}',
         "FS_PREFERRING"),
        ('{"size": 5, "seed": 1, "mix": {"NONFS_ONLY": Infinity}}', "NONFS_ONLY"),
        ('{"size": "abc", "seed": 1, "mix": {"NONFS_ONLY": 1}}', "size"),
        ('{"size": true, "seed": 1, "mix": {"NONFS_ONLY": 1}}', "size"),
        ('{"size": 5, "seed": 1.5, "mix": {"NONFS_ONLY": 1}}', "seed"),
        ('{"size": 5, "seed": 1, "mix": [1]}', "mix"),
        ('{"size": 5, "seed": 1, "mix": {"NONFS_ONLY": "x"}}', "mix proportion for NONFS_ONLY"),
        ('{"size": 5, "seed": 1, "mix": {"NONFS_ONLY": true}}', "mix proportion for NONFS_ONLY"),
        ('{"size": 5, "seed": 1, "mix": {"NONFS_ONLY": 1}, "latency": 5}', "latency"),
        ('{"size": 5, "seed": 1, "mix": {"NONFS_ONLY": 1}, "latency": {"base_ms": -5}}',
         "base_ms"),
        ('{"size": 5, "seed": 1, "mix": {"NONFS_ONLY": 1}, "latency": {"jitter_ms": NaN}}',
         "jitter_ms"),
        ('{"size": 5, "seed": 1, "mix": {"NONFS_ONLY": 1}, "network_device_fraction": NaN}',
         "network_device_fraction"),
        ('{"size": 5, "seed": 1, "mix": {"NONFS_ONLY": 1}, "network_device_fraction": false}',
         "network_device_fraction"),
        ("[1]", "fleet spec"),
    ],
)
@pytest.mark.parametrize("command", ["fleet", "scan"])
def test_bad_fleet_spec_is_one_line_naming_the_key(tmp_path, capsys, command, spec, key):
    path = tmp_path / "fleet.json"
    path.write_text(spec, encoding="utf-8")
    argv = ["fleet", "--spec", str(path)] if command == "fleet" else ["scan", "--fleet-spec", str(path)]
    code, out, err = run_cli(argv, capsys)
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and key in err, err


# -- report --------------------------------------------------------------------


def test_report_over_inspect_store(tmp_path, capsys):
    spec = write_spec(tmp_path, MIXED, size=12, seed=9)
    store_path = tmp_path / "records.jsonl"
    run_cli(
        [
            "inspect", "--fleet-spec", spec, "--timeout", "0.5",
            "--concurrency", "8", "--store", str(store_path), "--campaign", "c1",
        ],
        capsys,
    )
    code, out, err = run_cli(
        ["report", "--store", str(store_path), "--campaign", "c1"], capsys
    )
    assert code == 0
    table = err
    assert "campaign: c1" in table and "select non-FS" in table
    data = json.loads(out)
    assert data["dataset_size"] == 12
    assert data["responding"]["count"] == 12
    # 6 of 12 servers (NONFS_ONLY + FS_SUPPORTING_NONFS_PREFERRING) plus the
    # FS_NONAE_ONLY ones that default to non-FS get inspected; at minimum the
    # NONFS_ONLY quarter is there
    assert data["select_non_fs"]["count"] >= 3
    assert data["stable"]["pct"] == 100.0


def test_report_with_device_metadata(tmp_path, capsys):
    spec = write_spec(tmp_path, {"NONFS_ONLY": 1.0}, size=4, seed=2)
    store_path = tmp_path / "records.jsonl"
    run_cli(
        ["inspect", "--fleet-spec", spec, "--store", str(store_path), "--timeout", "0.5"],
        capsys,
    )
    meta = tmp_path / "meta.tsv"
    meta.write_text(
        "srv-0000\tbroadband router\nsrv-0001\t\nsrv-0002\tIP camera\n", encoding="utf-8"
    )
    code, out, err = run_cli(
        ["report", "--store", str(store_path), "--device-meta", str(meta)], capsys
    )
    assert code == 0
    data = json.loads(out)
    assert data["metadata_responders"] == 3
    assert data["network_device"] == {"count": 2, "pct": round(100 * 2 / 3, 2)}
    assert "coverage 75.00%" in err


def test_report_with_an_unreadable_device_meta_file_fails_cleanly(tmp_path, capsys):
    good = scan_record_to_dict(ScanRecord("srv-0000", 1.0, ScanResultKind.RESPONDED, 0x002F, 0x0303))
    store = write_store(tmp_path, good)
    missing = str(tmp_path / "absent.tsv")
    code, out, err = run_cli(["report", "--store", store, "--device-meta", missing], capsys)
    assert code == 1
    assert out == ""
    assert missing in err


def write_store(tmp_path, *records):
    path = tmp_path / "records.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    return str(path)


def test_report_skips_a_line_that_is_not_an_object(tmp_path, capsys):
    good = scan_record_to_dict(ScanRecord("srv-0000", 1.0, ScanResultKind.RESPONDED, 0x002F, 0x0303))
    code, out, err = run_cli(["report", "--store", write_store(tmp_path, [1, 2], good)], capsys)
    assert code == 0
    assert "skipped corrupt line 1" in err
    assert json.loads(out)["dataset_size"] == 1


_SCAN = scan_record_to_dict(ScanRecord("srv-0000", 1.0, ScanResultKind.RESPONDED, 0x002F, 0x0303))
_INSPECTION = inspection_record_to_dict(
    InspectionRecord(
        "srv-0000",
        StepResult(ProfileKind.DEFAULT, AttemptResult(AttemptKind.SELECTED, 0x002F, 0x0303)),
        None, None, Classification.STABLE_NO_FS_SUPPORT, False, False,
    )
)
_NO_ADDRESS = {k: v for k, v in _SCAN.items() if k != "address"}


@pytest.mark.parametrize(
    "record, device_meta, kind, field",
    [
        ({**_INSPECTION, "h1": 5}, False, "inspection", "h1"),
        ({**_SCAN, "address": 5}, False, "scan", "address"),
        ({**_SCAN, "result": ["x"]}, False, "scan", "result"),
        (_NO_ADDRESS, True, "scan", "address"),
        (_NO_ADDRESS, False, "scan", "address"),
    ],
    ids=["inspection-h1-int", "scan-address-int", "scan-result-list",
         "scan-no-address-device-meta", "scan-no-address"],
)
def test_report_rejects_a_bad_record_cleanly(tmp_path, capsys, record, device_meta, kind, field):
    argv = ["report", "--store", write_store(tmp_path, _SCAN, record)]
    if device_meta:
        meta = tmp_path / "meta.tsv"
        meta.write_text("srv-0000\tbroadband router\n", encoding="utf-8")
        argv += ["--device-meta", str(meta)]
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert out == ""
    assert "befs report: bad %s record: %s:" % (kind, field) in err


# -- connect -------------------------------------------------------------------


@pytest.fixture()
def socket_fleet():
    fleet = generate_fleet(
        FleetSpec(
            size=4,
            seed=11,
            mix={Archetype.NONFS_ONLY: 0.5, Archetype.FS_PREFERRING: 0.5},
        )
    )
    with serve(fleet, Transport.LOOPBACK_SOCKET) as harness:
        truth = {s.server_id: s.truth for s in fleet}
        yield harness, truth


def pick(harness, truth, fs: bool) -> str:
    for server_id, address in harness.address_of.items():
        if truth[server_id].selects_fs_by_default == fs:
            return address
    raise AssertionError("no such server in fixture fleet")


def test_connect_exit_codes_over_tcp(socket_fleet, capsys):
    harness, truth = socket_fleet
    fs_addr = pick(harness, truth, fs=True)
    nonfs_addr = pick(harness, truth, fs=False)

    code, out, _ = run_cli(
        ["connect", fs_addr, "--mode", "befs", "--timeout", "2"], capsys
    )
    assert code == 0
    record = json.loads(out)
    assert record["kind"] == "session" and record["fs"] is True

    code, out, _ = run_cli(
        ["connect", nonfs_addr, "--mode", "befs", "--timeout", "2"], capsys
    )
    assert code == 10
    assert json.loads(out)["fs"] is False


def test_connect_interactive_prompts_terminal(socket_fleet, capsys, monkeypatch):
    harness, truth = socket_fleet
    nonfs_addr = pick(harness, truth, fs=False)
    monkeypatch.setattr("builtins.input", lambda: "n")
    code, out, err = run_cli(
        ["connect", nonfs_addr, "--mode", "befs", "--fallback", "interactive",
         "--timeout", "2"],
        capsys,
    )
    assert code == 20
    assert json.loads(out)["status"] == "ABORTED_BY_USER"
    assert "[y/N]" in err
    monkeypatch.setattr("builtins.input", lambda: "y")
    code, out, _ = run_cli(
        ["connect", nonfs_addr, "--mode", "befs", "--fallback", "interactive",
         "--timeout", "2"],
        capsys,
    )
    assert code == 10


def test_connect_failure_and_bad_address(capsys):
    # a socket that nothing listens on: immediate connection refusal
    code, out, _ = run_cli(
        ["connect", "127.0.0.1:1", "--mode", "besafe", "--timeout", "0.5"], capsys
    )
    assert code == 30
    assert json.loads(out)["status"] == "FAILED"
    code, _, err = run_cli(["connect", "http://x", "--timeout", "0.5"], capsys)
    assert code == 2 and "bad address" in err


def test_connect_parallel_over_tcp(socket_fleet, capsys):
    harness, truth = socket_fleet
    nonfs_addr = pick(harness, truth, fs=False)
    code, out, _ = run_cli(
        ["connect", nonfs_addr, "--mode", "besafe", "--fallback", "parallel", "--timeout", "2"],
        capsys,
    )
    assert code == 10
    record = json.loads(out)
    assert record["handshake_attempts"] == 3
    assert record["fallback"] == "PARALLEL"


# -- bench ---------------------------------------------------------------------


def test_bench_attempt_columns(tmp_path, capsys):
    spec = write_spec(tmp_path, {"NONFS_ONLY": 1.0}, size=2, seed=4)
    code, out, err = run_cli(
        ["bench", "--fleet-spec", spec, "--repetitions", "2", "--timeout", "0.5"],
        capsys,
    )
    assert code == 0
    data = json.loads(out)
    assert data["responders"] == 2 and data["excluded"] == []
    assert data["modes"]["DEFAULT"]["attempts_avg"] == 1.0
    assert data["modes"]["BEFS"]["attempts_avg"] == 2.0
    assert data["modes"]["BESAFE"]["attempts_avg"] == 3.0
    assert all(
        set(stats) == {"samples", "max_s", "min_s", "avg_s", "attempts_avg"}
        for stats in data["modes"].values()
    )
    assert "avg_s" in err and "BESAFE" in err


@pytest.mark.parametrize("repetitions", ["0", "-1"])
def test_bench_rejects_fewer_than_one_repetition(tmp_path, capsys, repetitions):
    spec = write_spec(tmp_path, {"NONFS_ONLY": 1.0}, size=2, seed=4)
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--fleet-spec", spec, "--repetitions", repetitions])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "at least 1" in err


def test_fleet_spec_latency_reaches_the_harness(tmp_path, capsys):
    # spec latency is sleep-injected, so one DEFAULT handshake floors at base_ms
    spec = write_spec(
        tmp_path, {"NONFS_ONLY": 1.0}, size=2, seed=4,
        latency={"base_ms": 20.0, "jitter_ms": 0.0},
    )
    code, out, err = run_cli(
        ["bench", "--fleet-spec", spec, "--repetitions", "1", "--timeout", "2.0"],
        capsys,
    )
    assert code == 0
    data = json.loads(out)
    assert data["modes"]["DEFAULT"]["avg_s"] >= 0.015
    assert data["modes"]["BESAFE"]["avg_s"] >= data["modes"]["DEFAULT"]["avg_s"]


# -- fleet ---------------------------------------------------------------------


def test_fleet_describe_and_truth_out(tmp_path, capsys):
    spec = write_spec(tmp_path, MIXED, size=8, seed=3)
    truth_path = tmp_path / "truth.jsonl"
    code, out, _ = run_cli(
        ["fleet", "--spec", spec, "--truth-out", str(truth_path), "--campaign", "t"],
        capsys,
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["size"] == 8
    assert sum(summary["archetypes"].values()) == 8
    rows = [json.loads(l) for l in truth_path.read_text().splitlines()]
    assert len(rows) == 8
    assert all(r["campaign"] == "t" for r in rows)


def test_fleet_serve_then_scan_pipeline(tmp_path):
    """The two-process flow: serve a fleet, scan it over real TCP."""
    spec = write_spec(tmp_path, {"NONFS_ONLY": 0.5, "FS_PREFERRING": 0.5}, size=4, seed=7)
    addrs_path = tmp_path / "addrs.txt"
    store_path = tmp_path / "records.jsonl"
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "befs.cli", "fleet", "--spec", spec,
            "--serve", "--addresses-out", str(addrs_path),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    try:
        deadline = time.time() + 10
        while not addrs_path.exists() and time.time() < deadline:
            time.sleep(0.05)
            assert proc.poll() is None, proc.communicate()[1].decode()
        assert addrs_path.exists(), "server never wrote the address file"
        # file write beats the serve loop by a hair; give the listener a beat
        time.sleep(0.1)
        code = main(
            [
                "scan", "--input", str(addrs_path), "--timeout", "2",
                "--concurrency", "4", "--store", str(store_path), "--campaign", "pipe",
            ]
        )
        assert code == 0
    finally:
        proc.send_signal(signal.SIGINT)
        try:
            proc.communicate(timeout=10)  # waits, and closes both pipes
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
    assert proc.returncode == 0
    loaded = RecordStore(store_path).load(campaign="pipe")
    assert loaded.errors == []
    assert len(loaded.records) == 4
    assert all(r["result"] == "RESPONDED" for r in loaded.records)
