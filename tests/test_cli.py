"""End-to-end command-line behavior, including the served-fleet pipeline."""

import gc
import hashlib
import json
import os
import re
import signal
import subprocess
import sys
import time

import pytest

from befs import cli, metadata, report
from befs.cli import main
from befs.client import FallbackStyle, PolicyMode
from befs.fleetsim import (
    Archetype,
    FleetSpec,
    Transport,
    expected_for_server,
    generate_fleet,
    load_fleet_spec,
    serve,
)
from befs.handshake import AttemptKind, AttemptResult
from befs.inspection import Classification, InspectionRecord, ScanRecord, ScanResultKind, StepResult
from befs.report import (
    RecordStore,
    inspection_record_from_dict,
    json_line,
    record_line,
    scan_record_from_dict,
    session_record_from_dict,
)
from befs.negotiate import select
from befs.suites import DEFAULT, ProfileKind, is_fs
from befs.wire import TLS1_2


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


# Record fields that hold no clock reading (the h1-h3 steps hold elapsed times).
OUTCOME_FIELDS = {"kind", "address", "result", "selected_suite", "negotiated_version",
                  "error_detail", "classification", "prior_suite_ae", "lose_ae"}


@pytest.mark.parametrize("command", ["scan", "inspect"])
def test_rate_limit_spaces_connection_starts_and_keeps_the_records(command, tmp_path, capsys):
    """N memory servers at R connects per second take at least (N - 1) / R seconds."""
    n, rate = 6, 40.0
    argv = [command, "--fleet-spec", write_spec(tmp_path, MIXED, size=n), "--timeout", "0.5"]
    runs = []
    for extra in ([], ["--rate-limit", str(rate)]):
        start = time.perf_counter()
        code, out, _ = run_cli(argv + extra, capsys)
        elapsed = time.perf_counter() - start
        assert code == 0
        runs.append([{k: v for k, v in json.loads(l).items() if k in OUTCOME_FIELDS}
                     for l in out.splitlines()])
    assert elapsed >= (n - 1) / rate
    assert runs[0] == runs[1] and runs[0]


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


def test_a_killed_inspect_leaves_a_store_of_whole_addresses(tmp_path, capsys):
    """SIGKILL mid-run: the store holds whole addresses, a prefix of the input."""
    mix = {"FS_SUPPORTING_NONFS_PREFERRING": 0.3, "NONFS_ONLY": 0.2, "FS_NONAE_ONLY": 0.25,
           "UNRESPONSIVE": 0.25}
    spec = write_spec(tmp_path, mix, size=400, seed=9, latency={"base_ms": 2})
    store_path = tmp_path / "records.jsonl"
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "befs.cli", "inspect", "--fleet-spec", spec,
         "--transport", "memory", "--timeout", "0.05", "--concurrency", "4",
         "--store", str(store_path)],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=env,
    )
    try:
        deadline = time.time() + 30
        while time.time() < deadline and proc.poll() is None:
            if store_path.exists() and store_path.read_bytes().count(b"\n") >= 20:
                break
            time.sleep(0.005)
        assert proc.poll() is None, "the run ended before it could be killed"
        proc.kill()
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait(timeout=10)
    assert proc.returncode == -signal.SIGKILL

    loaded = RecordStore(store_path).load()
    assert loaded.errors == []
    scans = [r for r in loaded.records if r["kind"] == "scan"]
    inspected = {r["address"] for r in loaded.records if r["kind"] == "inspection"}
    with serve(generate_fleet(load_fleet_spec(spec)), Transport.IN_MEMORY) as h:
        served = h.addresses
    assert len(scans) < len(served)
    assert [r["address"] for r in scans] == served[: len(scans)]
    non_fs = [r["address"] for r in scans
              if r["result"] == "RESPONDED" and not is_fs(r["selected_suite"])]
    assert non_fs and set(non_fs) == inspected
    code, out, _ = run_cli(["report", "--store", str(store_path)], capsys)
    assert code == 0
    shares = [v["pct"] for v in json.loads(out).values() if isinstance(v, dict) and v["pct"]]
    assert shares and max(shares) <= 100.0


def test_inspect_writes_each_address_to_the_store_in_one_go(tmp_path, capsys, monkeypatch):
    appends = []  # (address, kind, flush) per append

    class Recording(RecordStore):
        def append(self, record, *, campaign="", flush=True):
            appends.append((record.address, type(record), flush))
            return super().append(record, campaign=campaign, flush=flush)

    monkeypatch.setattr(cli, "RecordStore", Recording)
    spec = write_spec(tmp_path, MIXED, size=12)
    store_path = tmp_path / "records.jsonl"
    code, _, _ = run_cli(["inspect", "--fleet-spec", spec, "--timeout", "0.5", "--concurrency",
                          "4", "--store", str(store_path)], capsys)
    assert code == 0
    groups, group = [], []
    for address, kind, flush in appends:
        group.append((address, kind))
        if flush:
            groups.append(group)
            group = []
    assert group == []  # nothing left held back
    assert len(groups) == 12 and any(len(g) == 2 for g in groups)
    for g in groups:  # one address each: its scan record, then its inspection if any
        assert len({address for address, _ in g}) == 1
        assert [kind for _, kind in g] in ([ScanRecord], [ScanRecord, InspectionRecord])
    assert store_path.read_bytes().count(b"\n") == len(appends)


SIX_ARCHETYPES = {
    "FS_PREFERRING": 0.25,
    "FS_SUPPORTING_NONFS_PREFERRING": 0.25,
    "NONFS_ONLY": 0.125,
    "FS_NONAE_ONLY": 0.125,
    "LEGACY_PRE_TLS12": 0.125,
    "UNRESPONSIVE": 0.125,
}


@pytest.mark.parametrize("transport", ["memory", "socket"])
@pytest.mark.parametrize("command", ["scan", "inspect"])
def test_stdout_lines_are_the_stored_lines_and_match_ground_truth(
    tmp_path, capsys, command, transport
):
    spec = write_spec(tmp_path, SIX_ARCHETYPES, size=16, seed=11)
    store_path = tmp_path / "records.jsonl"
    code, out, _ = run_cli([command, "--fleet-spec", spec, "--transport", transport,
                            "--timeout", "0.2", "--concurrency", "4",
                            "--store", str(store_path)], capsys)
    assert code == 0
    stored = store_path.read_text(encoding="utf-8").splitlines(keepends=True)
    records = [json.loads(line) for line in stored]
    printed = [line for line, rec in zip(stored, records)
               if command == "scan" or rec["kind"] == "inspection"]
    assert out.splitlines(keepends=True) == printed
    # Each line decodes to a record that encodes back to the same bytes.
    decode = {"scan": scan_record_from_dict, "inspection": inspection_record_from_dict}
    assert [record_line(decode[rec["kind"]](rec), rec["campaign"]) for rec in records] == stored
    assert command == "scan" or any('"alert":[' in line for line in stored)
    # The store holds one scan per served server, in fleet order, each
    # followed by its inspection if it picked a non-FS suite.
    fleet = generate_fleet(load_fleet_spec(spec))
    scans = [rec for rec in records if rec["kind"] == "scan"]
    inspections = {rec["address"]: rec for rec in records if rec["kind"] == "inspection"}
    assert len(scans) == len(fleet) and len(records) == len(scans) + len(inspections)
    assert {server.archetype for server in fleet} == set(Archetype)
    for server, scan in zip(fleet, scans):
        want = expected_for_server(server)
        if server.archetype is Archetype.UNRESPONSIVE:
            assert scan["result"] == "TIMEOUT"
            assert want.classification is Classification.TIMEOUT
            assert scan["address"] not in inspections
            continue
        pick = select(server.policy, DEFAULT.suites, TLS1_2)
        assert (scan["result"], scan["negotiated_version"], scan["selected_suite"]) == (
            "RESPONDED", *pick)
        inspection = inspections.get(scan["address"])
        if command == "scan" or server.truth.selects_fs_by_default:
            assert inspection is None
        else:
            assert (inspection["classification"], inspection["prior_suite_ae"],
                    inspection["lose_ae"]) == (
                want.classification.name, want.prior_suite_ae, want.lose_ae)


_CLOCK_READING = re.compile(rb'"(timestamp|scanned_at|inspected_at|elapsed_s)":[-+.0-9eE]+')
_ADDRESS = re.compile(rb'"address":"([^"]*)"')


def _masked_store_digest(store_path, server_ids=None):
    """sha256 of the store with every clock reading set to 0 and, if
    ``server_ids`` is given, each address replaced by the id of the server
    it belongs to, taken in order of first appearance."""
    data = _CLOCK_READING.sub(rb'"\1":0', store_path.read_bytes())
    if server_ids is not None:
        named = dict(zip(dict.fromkeys(_ADDRESS.findall(data)), server_ids))
        data = _ADDRESS.sub(lambda m: b'"address":"%s"' % named[m.group(1)].encode(), data)
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("transport, mix, size, extra, digest", [
    ("memory", SIX_ARCHETYPES, 160, {"network_device_fraction": 0.25},
     "f4f980420c93b03b9e85e6e7eff17f56930af2e69861f9d04269bdf88ffee309"),
    ("socket", {name: 0.2 for name in SIX_ARCHETYPES if name != "UNRESPONSIVE"}, 40, {},
     "1724e675542d9fed4dd290f2f01e6ed750c7ce0318eeb0f79b266290f963e368"),
])
def test_inspect_store_repeats_the_pinned_digest(tmp_path, capsys, transport, mix, size, extra,
                                                 digest):
    # Every kind, suite, version, alert, error string and classification a
    # campaign stores; a loopback address becomes its server's id, since the
    # ports change from run to run.
    spec = write_spec(tmp_path, mix, size=size, seed=5, **extra)
    store_path = tmp_path / "records.jsonl"
    timeout = "0.01" if transport == "memory" else "5"
    code, _, _ = run_cli(["inspect", "--fleet-spec", spec, "--transport", transport,
                          "--timeout", timeout, "--concurrency", "4",
                          "--store", str(store_path)], capsys)
    assert code == 0
    ids = None
    if transport == "socket":
        ids = [server.server_id for server in generate_fleet(load_fleet_spec(spec))]
    assert _masked_store_digest(store_path, ids) == digest


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


_COMMAND_NAMES = ["scan", "inspect", "connect", "bench", "fleet", "report"]


@pytest.mark.parametrize("argv", [
    ["--help"], *([name, "--help"] for name in _COMMAND_NAMES), ["no-such-command"], ["scan"],
    ["report", "--store", "x", "extra"], ["scan", "--bogus"], ["connect"], [],
], ids=" ".join)
def test_cli_text_is_the_full_parsers(argv, capsys):
    """main builds only the named command's subparser; every text and exit
    code is that of the parser with all six."""

    def run(parse):
        with pytest.raises(SystemExit) as exc:
            parse(list(argv))
        out, err = capsys.readouterr()
        return exc.value.code, out, err

    full = run(lambda args: cli._parser().parse_args(args))
    assert run(main) == full
    if argv[-1:] == ["extra"]:  # the usage line still lists every command
        assert "befs [-h] {%s} ...\n" % ",".join(_COMMAND_NAMES) in full[2]


def test_a_repeated_call_leaves_nothing_for_the_cyclic_collector(tmp_path, capsys):
    """One parser is built once per process and serves every command, so a
    repeated call frees all it made by reference counting: how much memory
    a long run holds does not depend on when the cyclic collector happens
    to run."""
    store = str(tmp_path / "store.jsonl")
    argv = ["inspect", "--fleet-spec", write_spec(tmp_path, MIXED), "--transport", "memory",
            "--concurrency", "1", "--store", store]
    assert main(argv) == 0
    gc.collect()
    gc.disable()
    try:
        assert main(argv) == 0
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert main(["report", "--store", store]) == 0
    assert cli._parser.cache_info().currsize == 1
    assert cli._parser() is cli._parser()


@pytest.mark.parametrize(
    "command, option, value",
    [
        (command, option, value)
        for option, values, commands in (
            ("--concurrency", ("0", "-2"), ("scan", "inspect")),
            ("--rate-limit", ("-1", "0", "nan", "inf"), ("scan", "inspect")),
            ("--timeout", ("-1", "0", "nan", "inf", "1e300"),
             ("scan", "inspect", "bench", "connect")),
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
        ('{"size": 5, "seed": -5, "mix": {"NONFS_ONLY": 1}}', "seed"),
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
        # A BOM is dropped, so the spec is read and its bad key named.
        ('\ufeff{"size": 5, "seed": -5, "mix": {"NONFS_ONLY": 1}}', "seed"),
        # Bytes that are not UTF-8: the file is named.
        (b'{"size": 5, "seed": 1, "mix": {"NONFS_ONLY": 1}}\xff', "fleet.json"),
    ],
)
@pytest.mark.parametrize("command", ["fleet", "scan"])
def test_bad_fleet_spec_is_one_line_naming_the_key(tmp_path, capsys, command, spec, key):
    path = tmp_path / "fleet.json"
    path.write_bytes(spec if isinstance(spec, bytes) else spec.encode("utf-8"))
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
    assert "no records of campaign" not in err
    data = json.loads(out)
    assert data["dataset_size"] == 12
    assert data["responding"]["count"] == 12
    # 6 of 12 servers (NONFS_ONLY + FS_SUPPORTING_NONFS_PREFERRING) plus the
    # FS_NONAE_ONLY ones that default to non-FS get inspected; at minimum the
    # NONFS_ONLY quarter is there
    assert data["select_non_fs"]["count"] >= 3
    assert data["stable"]["pct"] == 100.0
    # a campaign no record carries is said so on stderr; stdout is the empty report
    code, out, err = run_cli(["report", "--store", str(store_path), "--campaign", "c2"], capsys)
    assert code == 0
    assert "report: no records of campaign 'c2'" in err
    assert json.loads(out)["dataset_size"] == 0


def test_report_repeats_the_pinned_digest(tmp_path, capsys):
    # Three campaigns of TIMEOUT scans with an error_detail, h3 steps,
    # alerts of refused FS offers and device labels, each reported with
    # device metadata, then the whole store: every row and note is pinned.
    store_path = tmp_path / "records.jsonl"
    campaigns = [
        ("c0", SIX_ARCHETYPES, 48, 5),
        ("c1", {"NONFS_ONLY": 0.5, "FS_NONAE_ONLY": 0.3, "UNRESPONSIVE": 0.2}, 30, 7),
        ("c2", {"FS_SUPPORTING_NONFS_PREFERRING": 0.4, "FS_NONAE_ONLY": 0.3,
                "NONFS_ONLY": 0.3}, 30, 9),
    ]
    metas = []
    for campaign, mix, size, seed in campaigns:
        spec = write_spec(tmp_path, mix, size=size, seed=seed, name=campaign + ".json",
                          network_device_fraction=0.25)
        code, _, _ = run_cli(["inspect", "--fleet-spec", spec, "--timeout", "0.01",
                              "--concurrency", "4", "--store", str(store_path),
                              "--campaign", campaign], capsys)
        assert code == 0
        meta = tmp_path / (campaign + ".tsv")
        fleet = generate_fleet(load_fleet_spec(spec))
        meta.write_text("".join("%s\t%s\n" % (s.server_id, s.truth.device_type)
                                for s in fleet[::2]), encoding="utf-8")
        metas.append(["--campaign", campaign, "--device-meta", str(meta)])
    digest = hashlib.sha256()
    for options in metas + [[]]:
        code, out, err = run_cli(["report", "--store", str(store_path)] + options, capsys)
        assert code == 0
        digest.update((out + err).encode("utf-8"))
    assert digest.hexdigest() == "c5dda916c8f664c02fa46cb1c8b549972a216892ce9b99f4a06999be60237658"


def test_report_skips_an_inspection_whose_scan_line_was_cut(tmp_path, capsys):
    spec = write_spec(tmp_path, {"NONFS_ONLY": 1.0}, size=4, seed=2)
    store_path = tmp_path / "records.jsonl"
    run_cli(["inspect", "--fleet-spec", spec, "--store", str(store_path), "--timeout", "0.5"],
            capsys)
    lines = store_path.read_text(encoding="utf-8").splitlines(keepends=True)
    assert [json.loads(line)["kind"] for line in lines] == ["scan", "inspection"] * 4
    store_path.write_text("".join(lines[1:]), encoding="utf-8")  # the first scan is cut
    code, out, err = run_cli(["report", "--store", str(store_path)], capsys)
    assert code == 0
    assert "skipped 1 inspection records with no non-FS scan" in err
    data = json.loads(out)
    assert data["select_non_fs"]["count"] == data["stable"]["count"] == 3
    shares = [v["pct"] for v in data.values() if isinstance(v, dict) and v["pct"] is not None]
    assert shares and max(shares) <= 100.0


def test_report_with_device_metadata(tmp_path, capsys, monkeypatch):
    spec = write_spec(tmp_path, {"NONFS_ONLY": 1.0}, size=4, seed=2)
    store_path = tmp_path / "records.jsonl"
    run_cli(
        ["inspect", "--fleet-spec", spec, "--store", str(store_path), "--timeout", "0.5"],
        capsys,
    )
    split = []  # one split_address per scan, wherever it is looked up
    counting = lambda address: split.append(address) or metadata.split_address(address)
    for module in (cli, report):
        monkeypatch.setattr(module, "split_address", counting, raising=False)
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
    assert len(split) == 4


def test_report_with_an_unreadable_device_meta_file_fails_cleanly(tmp_path, capsys):
    good = json.loads(record_line(ScanRecord("srv-0000", 1.0, ScanResultKind.RESPONDED, 0x002F, 0x0303)))
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
    good = json.loads(record_line(ScanRecord("srv-0000", 1.0, ScanResultKind.RESPONDED, 0x002F, 0x0303)))
    code, out, err = run_cli(["report", "--store", write_store(tmp_path, [1, 2], good)], capsys)
    assert code == 0
    assert "skipped corrupt line 1" in err
    assert json.loads(out)["dataset_size"] == 1


_SCAN = json.loads(record_line(ScanRecord("srv-0000", 1.0, ScanResultKind.RESPONDED, 0x002F, 0x0303)))
_INSPECTION = json.loads(record_line(
    InspectionRecord(
        "srv-0000",
        StepResult(ProfileKind.DEFAULT, AttemptResult(AttemptKind.SELECTED, 0x002F, 0x0303)),
        None, None, Classification.STABLE_NO_FS_SUPPORT, False, False,
    )
))
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
    with serve(fleet, Transport.LOOPBACK_SOCKET):
        yield fleet


def pick(fleet, fs: bool) -> str:
    for server in fleet:
        if server.truth.selects_fs_by_default == fs:
            return server.address
    raise AssertionError("no such server in fixture fleet")


def test_connect_exit_codes_over_tcp(socket_fleet, capsys):
    fs_addr = pick(socket_fleet, fs=True)
    nonfs_addr = pick(socket_fleet, fs=False)

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
    nonfs_addr = pick(socket_fleet, fs=False)
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


def test_connect_parallel_over_tcp(socket_fleet, tmp_path, capsys):
    nonfs_addr = pick(socket_fleet, fs=False)
    store_path = tmp_path / "sessions.jsonl"
    code, out, _ = run_cli(
        ["connect", nonfs_addr, "--mode", "besafe", "--fallback", "parallel", "--timeout", "2",
         "--store", str(store_path)],
        capsys,
    )
    assert code == 10
    record = json.loads(out)
    assert record["handshake_attempts"] == 3
    assert record["fallback"] == "PARALLEL"
    # The stored line decodes to the session, its address and style included.
    [stored] = RecordStore(store_path).load().records
    session = session_record_from_dict(stored)
    assert session.fallback is FallbackStyle.PARALLEL and session.address == nonfs_addr
    assert session.mode is PolicyMode.BESAFE and record_line(session) == out


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
    # Written as the store writes its lines: sorted keys, no spaces.
    assert truth_path.read_text() == "".join(map(json_line, rows))


def test_fleet_summary_draws_no_fleet(tmp_path, capsys, monkeypatch):
    def refuse(spec):
        raise AssertionError("the summary drew a fleet")

    monkeypatch.setattr(cli, "generate_fleet", refuse)
    code, out, _ = run_cli(["fleet", "--spec", write_spec(tmp_path, MIXED, size=8)], capsys)
    assert code == 0
    assert json.loads(out) == {"size": 8, "seed": 3, "archetypes": {a: 2 for a in MIXED}}


def test_fleet_serve_truth_out_names_the_served_addresses(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "_wait_for_interrupt", lambda: None)
    spec = write_spec(tmp_path, MIXED, size=3, seed=3)
    truth_path, addrs_path = tmp_path / "truth.jsonl", tmp_path / "addrs.txt"
    code, _, _ = run_cli(
        ["fleet", "--spec", spec, "--serve", "--truth-out", str(truth_path),
         "--addresses-out", str(addrs_path)],
        capsys,
    )
    assert code == 0
    addresses = addrs_path.read_text().splitlines()
    assert len(addresses) == 3 and all(a.startswith("127.0.0.1:") for a in addresses)
    assert [json.loads(l)["address"] for l in truth_path.read_text().splitlines()] == addresses


@pytest.mark.parametrize("flag, serving", [
    ("--truth-out", False), ("--truth-out", True), ("--addresses-out", True),
])
def test_fleet_output_in_a_missing_directory_fails_cleanly(
    tmp_path, capsys, monkeypatch, flag, serving
):
    monkeypatch.setattr(cli, "_wait_for_interrupt", lambda: None)
    spec = write_spec(tmp_path, MIXED, size=2, seed=3)
    target = str(tmp_path / "absent" / "out.txt")
    argv = ["fleet", "--spec", spec, flag, target] + (["--serve"] if serving else [])
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("befs fleet: cannot write %s: " % target) and err.count("\n") == 1


def test_fleet_addresses_out_without_serve_is_a_usage_error(tmp_path, capsys):
    spec = write_spec(tmp_path, MIXED, size=2, seed=3)
    addrs_path = tmp_path / "addrs.txt"
    code, out, err = run_cli(["fleet", "--spec", spec, "--addresses-out", str(addrs_path)], capsys)
    assert code == 2
    assert out == "" and not addrs_path.exists()
    assert "--addresses-out" in err and "--serve" in err and err.count("\n") == 1


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
