"""Record log round-trips and the nested aggregation table."""

import json
import math
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from befs import report, wire
from befs.client import (
    FallbackStyle,
    PolicyConfig,
    PolicyMode,
    SessionOutcome,
    SessionStatus,
    connect,
)
from befs.fleetsim import (
    Archetype,
    FleetSpec,
    Transport,
    expected_for_server,
    generate_fleet,
    serve,
)
from befs.handshake import AttemptKind, AttemptResult
from befs.inspection import (
    Classification,
    InspectionRecord,
    STABLE_CLASSES,
    ScanRecord,
    ScanResultKind,
    StepResult,
    inspect_all,
    scan,
)
from befs.report import (
    AggregateReport,
    FS_NONAE_PICK_CLASSES,
    FS_SUPPORT_CLASSES,
    ParseFailure,
    RecordStore,
    SchemaMismatch,
    aggregate,
    inspection_record_from_dict,
    inspection_record_to_dict,
    render_text,
    scan_record_from_dict,
    scan_record_to_dict,
    scans_and_inspections,
    session_record_from_dict,
    session_record_to_dict,
)
from befs.suites import ProfileKind


def scan_rec(address="a", suite=0x002F, responded=True, ts=1.5):
    if responded:
        return ScanRecord(address, ts, ScanResultKind.RESPONDED, suite, wire.TLS1_2)
    return ScanRecord(address, ts, ScanResultKind.TIMEOUT, None, None, "no answer")


def step(kind, suite=None, profile=ProfileKind.DEFAULT, alert=None):
    return StepResult(
        profile,
        AttemptResult(kind=kind, suite=suite, version=wire.TLS1_2, alert=alert, elapsed_s=0.25),
    )


def inspection_rec(address="a", classification=Classification.STABLE_NO_FS_SUPPORT,
                   lose_ae=False, prior_ae=False):
    h2_kind = (
        AttemptKind.SELECTED
        if classification in FS_SUPPORT_CLASSES
        else AttemptKind.REJECTED
    )
    return InspectionRecord(
        address=address,
        h1=step(AttemptKind.SELECTED, 0x009C if prior_ae else 0x002F),
        h2=step(h2_kind, 0xC013 if h2_kind is AttemptKind.SELECTED else None,
                ProfileKind.FS_ONLY),
        h3=None,
        classification=classification,
        prior_suite_ae=prior_ae,
        lose_ae=lose_ae,
        scanned_at=1.0,
        inspected_at=2.0,
    )


# -- serializer round-trips ----------------------------------------------------


def test_scan_record_round_trip():
    for rec in (scan_rec(), scan_rec(responded=False)):
        data = scan_record_to_dict(rec, campaign="c1")
        assert data["kind"] == "scan" and data["v"] == 1 and data["campaign"] == "c1"
        clone = scan_record_from_dict(json.loads(json.dumps(data)))
        assert clone == rec


def test_inspection_record_round_trip_with_alert():
    rec = InspectionRecord(
        address="a",
        h1=step(AttemptKind.SELECTED, 0x0035),
        h2=step(
            AttemptKind.REJECTED,
            profile=ProfileKind.FS_ONLY,
            alert=wire.AlertMsg(wire.AlertLevel.FATAL, wire.HANDSHAKE_FAILURE),
        ),
        h3=None,
        classification=Classification.STABLE_NO_FS_SUPPORT,
        prior_suite_ae=False,
        lose_ae=False,
        scanned_at=None,
        inspected_at=3.25,
    )
    clone = inspection_record_from_dict(
        json.loads(json.dumps(inspection_record_to_dict(rec)))
    )
    assert clone == rec


def test_session_record_round_trip():
    fleet = generate_fleet(FleetSpec(size=1, seed=3, mix={Archetype.NONFS_ONLY: 1.0}))
    with serve(fleet, Transport.IN_MEMORY) as h:
        outcome = connect(
            h.addresses[0], PolicyConfig(mode=PolicyMode.BEFS, timeout_s=0.2),
            connector=h.connector(),
        )
    data = session_record_to_dict(h.addresses[0], outcome, campaign="x")
    address, clone = session_record_from_dict(json.loads(json.dumps(data)))
    assert address == h.addresses[0]
    assert clone == outcome
    assert clone.status is SessionStatus.CONNECTED


def _fatal(code):
    return wire.AlertMsg(wire.AlertLevel.FATAL, code)


_GOLDEN_SESSION = SessionOutcome(
    SessionStatus.CONNECTED, 0x002F, False, False, 2, 3, (0.5, 0.25, 0.125),
    (
        AttemptResult(AttemptKind.REJECTED, alert=_fatal(wire.HANDSHAKE_FAILURE), elapsed_s=0.5),
        AttemptResult(AttemptKind.REJECTED, alert=_fatal(wire.INAPPROPRIATE_FALLBACK),
                      elapsed_s=0.25),
        AttemptResult(AttemptKind.SELECTED, 0x002F, wire.TLS1_2, elapsed_s=0.125),
    ),
    PolicyMode.BESAFE,
)

# The exact store line of each record kind. Changing one breaks every
# store already on disk.
GOLDEN_LINES = [
    (
        "responded scan",
        lambda: scan_record_to_dict(
            ScanRecord("198.51.100.7:443", 1700000000.25, ScanResultKind.RESPONDED, 0x002F,
                       wire.TLS1_2),
            campaign="c1",
        ),
        '{"address":"198.51.100.7:443","campaign":"c1","error_detail":null,"kind":"scan",'
        '"negotiated_version":771,"result":"RESPONDED","selected_suite":47,'
        '"timestamp":1700000000.25,"v":1}',
    ),
    (
        "timed-out scan",
        lambda: scan_record_to_dict(
            ScanRecord("srv-0003", 12.5, ScanResultKind.TIMEOUT, None, None, "no answer"),
            campaign="c1",
        ),
        '{"address":"srv-0003","campaign":"c1","error_detail":"no answer","kind":"scan",'
        '"negotiated_version":null,"result":"TIMEOUT","selected_suite":null,"timestamp":12.5,'
        '"v":1}',
    ),
    (
        "inspection with an alert and no h3",
        lambda: inspection_record_to_dict(
            InspectionRecord(
                "srv-0001",
                StepResult(ProfileKind.DEFAULT,
                           AttemptResult(AttemptKind.SELECTED, 0x0035, wire.TLS1_2,
                                         elapsed_s=0.125)),
                StepResult(ProfileKind.FS_ONLY,
                           AttemptResult(AttemptKind.REJECTED,
                                         alert=_fatal(wire.HANDSHAKE_FAILURE),
                                         elapsed_s=0.0625)),
                None, Classification.STABLE_NO_FS_SUPPORT, False, False, 1.5, 2.75,
            ),
            campaign="c1",
        ),
        '{"address":"srv-0001","campaign":"c1","classification":"STABLE_NO_FS_SUPPORT",'
        '"h1":{"attempt":{"alert":null,"elapsed_s":0.125,"error":null,"kind":"SELECTED",'
        '"suite":53,"version":771},"profile":"DEFAULT"},'
        '"h2":{"attempt":{"alert":[2,40],"elapsed_s":0.0625,"error":null,"kind":"REJECTED",'
        '"suite":null,"version":null},"profile":"FS_ONLY"},"h3":null,"inspected_at":2.75,'
        '"kind":"inspection","lose_ae":false,"prior_suite_ae":false,"scanned_at":1.5,"v":1}',
    ),
    (
        "three-attempt signaled session",
        lambda: session_record_to_dict(
            "srv-0002:443", _GOLDEN_SESSION, campaign="c1", fallback=FallbackStyle.SIGNALED
        ),
        '{"address":"srv-0002:443","ae":false,"attempts":[{"alert":[2,40],"elapsed_s":0.5,'
        '"error":null,"kind":"REJECTED","suite":null,"version":null},{"alert":[2,86],'
        '"elapsed_s":0.25,"error":null,"kind":"REJECTED","suite":null,"version":null},'
        '{"alert":null,"elapsed_s":0.125,"error":null,"kind":"SELECTED","suite":47,'
        '"version":771}],"campaign":"c1","fallback":"SIGNALED","fallback_depth":2,'
        '"fs":false,"handshake_attempts":3,"kind":"session","mode":"BESAFE",'
        '"per_attempt_timings":[0.5,0.25,0.125],"status":"CONNECTED","suite":47,"v":1}',
    ),
]


@pytest.mark.parametrize("encode, line", [g[1:] for g in GOLDEN_LINES],
                         ids=[g[0] for g in GOLDEN_LINES])
def test_store_line_is_byte_identical(tmp_path, encode, line):
    path = tmp_path / "log.jsonl"
    with RecordStore(path) as opened:
        opened.append(encode())
    assert path.read_bytes() == (line + "\n").encode("utf-8")


def test_schema_guards():
    data = scan_record_to_dict(scan_rec())
    with pytest.raises(SchemaMismatch):
        scan_record_from_dict({**data, "v": 99})
    with pytest.raises(SchemaMismatch):
        scan_record_from_dict({**data, "kind": "inspection"})
    with pytest.raises(SchemaMismatch):
        inspection_record_from_dict(data)
    broken = dict(data)
    del broken["timestamp"]
    with pytest.raises(SchemaMismatch):
        scan_record_from_dict(broken)


def test_decoding_checks_exact_types():
    data = scan_record_to_dict(scan_rec())
    assert scan_record_from_dict({**data, "timestamp": 7}).timestamp == 7  # int for float
    for field, value in [("selected_suite", True), ("selected_suite", 47.0),
                         ("timestamp", "1.5"), ("timestamp", False), ("result", "responded"),
                         ("address", None), ("error_detail", 3)]:
        with pytest.raises(SchemaMismatch, match="bad scan record: %s: expected" % field):
            scan_record_from_dict({**data, field: value})
    with pytest.raises(SchemaMismatch, match="bad scan record: .*RESPONDED"):
        scan_record_from_dict({**data, "selected_suite": None})  # __post_init__ refuses it


VALID = {
    "scan": (scan_record_from_dict, json.loads(GOLDEN_LINES[0][2])),
    "inspection": (inspection_record_from_dict, json.loads(GOLDEN_LINES[2][2])),
    "session": (session_record_from_dict, json.loads(GOLDEN_LINES[3][2])),
}


def _paths(value, prefix=()):
    """Every key or index path inside a JSON value."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=8,
)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["scan", "inspection", "session"]), st.data(), json_values)
def test_decoding_any_one_replaced_field_is_total(kind, data, value):
    decode, valid = VALID[kind]
    mutated = json.loads(json.dumps(valid))
    path = data.draw(st.sampled_from(sorted(_paths(mutated), key=repr)))
    parent = mutated
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    try:
        decode(mutated)
    except SchemaMismatch:
        pass


# -- store ---------------------------------------------------------------------


@pytest.fixture
def store(tmp_path):
    with RecordStore(tmp_path / "log.jsonl") as opened:
        yield opened


def test_store_append_then_load_identical(store):
    rec = scan_record_to_dict(scan_rec(), campaign="c")
    store.append(rec)
    loaded = store.load()
    assert loaded.errors == []
    assert loaded.records == [rec]
    assert scan_record_from_dict(loaded.records[0]) == scan_rec()


def test_store_filters(store):
    store.append(scan_record_to_dict(scan_rec("a"), campaign="c1"))
    store.append(scan_record_to_dict(scan_rec("b"), campaign="c2"))
    store.append(
        inspection_record_to_dict(
            inspection_rec("a", Classification.STABLE_SUPPORTS_FS_AE), campaign="c1"
        )
    )
    picked = store.load(campaign="c1").records
    assert [(r["kind"], r["address"]) for r in picked] == [("scan", "a"), ("inspection", "a")]
    assert store.load(campaign="c3").records == []
    # a filtered load returns a subset of the unfiltered load
    everything = store.load().records
    assert len(everything) == 3 and all(r in everything for r in picked)


def test_store_corrupt_line_reported_with_number(store):
    path = store.path
    store.append(scan_record_to_dict(scan_rec("a")))
    with path.open("a", encoding="utf-8") as fh:
        fh.write("{not json\n")
    store.append(scan_record_to_dict(scan_rec("b")))
    loaded = store.load()
    assert len(loaded.records) == 2  # good lines still load
    assert len(loaded.errors) == 1
    assert loaded.errors[0].line_number == 2
    assert "line 2" in str(loaded.errors[0])
    assert isinstance(loaded.errors[0], ParseFailure)


def test_store_requires_kind(store):
    with pytest.raises(SchemaMismatch):
        store.append({"address": "a"})


def test_store_requires_the_schema_version(store):
    for record in ({"kind": "scan", "address": "a"}, {"v": 2, "kind": "scan", "address": "a"}):
        with pytest.raises(SchemaMismatch):
            store.append(record)
    assert not store.path.exists()


@pytest.mark.parametrize("v", [True, 1.0], ids=["true", "1.0"])
def test_schema_version_has_an_exact_type(store, v):
    data = {**scan_record_to_dict(scan_rec()), "v": v}
    with pytest.raises(SchemaMismatch, match="bad scan record: expected v 1"):
        scan_record_from_dict(data)
    with pytest.raises(SchemaMismatch):
        store.append(data)
    assert not store.path.exists()


def test_store_line_that_is_not_an_object_is_a_parse_failure(store):
    path = store.path
    store.append(scan_record_to_dict(scan_rec("a")))
    with path.open("a", encoding="utf-8") as fh:
        fh.write("[1,2]\n5\nnull\n\"scan\"\n")
    loaded = store.load()
    assert len(loaded.records) == 1
    assert [e.line_number for e in loaded.errors] == [2, 3, 4, 5]
    assert all("not a JSON object" in str(e) for e in loaded.errors)


@pytest.mark.parametrize(
    "line, reason",
    [(b'{"address":"\xff"}', "not UTF-8"), (b'{"a":' + b"[" * 100000, "nested too deeply")],
    ids=["not-utf8", "over-nested"],
)
def test_store_unreadable_line_is_a_parse_failure(store, line, reason):
    store.append(scan_record_to_dict(scan_rec("a")))
    with store.path.open("ab") as fh:
        fh.write(line + b"\n")
    store.append(scan_record_to_dict(scan_rec("b")))
    loaded = store.load()
    assert [r["address"] for r in loaded.records] == ["a", "b"]
    assert [e.line_number for e in loaded.errors] == [2]
    assert reason in loaded.errors[0].reason


def test_store_lines_end_at_newline_only(store):
    # Raw U+2028, U+2029 and U+0085 are legal inside a JSON string, and a
    # \r before the \n is JSON whitespace: none of them ends a line.
    rec = scan_record_to_dict(scan_rec("a\u2028b\u2029c\x85d"))
    with store.path.open("w", encoding="utf-8", newline="") as fh:
        fh.write(json.dumps(rec, ensure_ascii=False) + "\n")
        fh.write(json.dumps(rec) + "\r\n")
    loaded = store.load()
    assert loaded.errors == []
    assert loaded.records == [rec, rec]
    assert scan_record_from_dict(loaded.records[0]).address == "a\u2028b\u2029c\x85d"


def _load_line_by_line(path, campaign=None) -> list:
    """The store's former load, one json.loads per line, with lines split at \\n only."""
    records, errors = [], []
    for number, line in enumerate(path.read_bytes().decode("utf-8").split("\n"), start=1):
        if not line.strip():
            continue
        try:
            data = json.loads(line)
        except json.JSONDecodeError as exc:
            errors.append(ParseFailure(number, str(exc)))
            continue
        if not isinstance(data, dict):
            errors.append(ParseFailure(number, "not a JSON object"))
            continue
        if campaign is not None and data.get("campaign") != campaign:
            continue
        records.append(data)
    return [records, [(e.line_number, str(e)) for e in errors]]


_text = st.text(alphabet="ab\u00e9\u2028\u2029\x85\u20ac", max_size=6)
_objects = st.builds(
    lambda campaign, address, n, spaced: json.dumps(
        {"v": 1, "kind": "scan", "campaign": campaign, "address": address, "n": n},
        ensure_ascii=False, separators=(", ", ": ") if spaced else (",", ":"),
    ),
    st.sampled_from(["c1", "c2", "c3"]), _text, st.integers(-5, 5), st.booleans(),
)
_store_lines = st.one_of(
    _objects,
    _objects.map(lambda o: " %s\t" % o),  # whitespace-padded
    st.sampled_from(["", "  ", "\t", "\r", "[1,2]", "5", "null", '"c1"', "{", "}"]),
    st.tuples(_objects, st.integers(1, 40)).map(lambda p: p[0][:p[1]]),  # truncated
    st.tuples(_objects, st.integers(1, 40)).map(  # one object over two lines
        lambda p: p[0][:p[1]] + "\n" + p[0][p[1]:]),
    st.tuples(_objects, st.sampled_from(["x", "}", " ,", '{"a":1}'])).map("".join),
)


@settings(max_examples=300, deadline=None)
@given(
    lines=st.lists(st.tuples(_store_lines, st.sampled_from(["\n", "\r\n"])), max_size=12),
    bom=st.booleans(),
    last_newline=st.booleans(),
    block=st.integers(1, 24),
    campaign=st.sampled_from([None, "c1", "c2"]),
)
def test_store_load_matches_a_line_by_line_parse(tmp_path_factory, lines, bom, last_newline,
                                                 block, campaign):
    text = "".join(line + end for line, end in lines)
    if lines and not last_newline:
        text = text[:-len(lines[-1][1])]
    path = tmp_path_factory.mktemp("store") / "log.jsonl"
    path.write_bytes((("\ufeff" if bom else "") + text).encode("utf-8"))
    with mock.patch.object(report, "LOAD_BLOCK_BYTES", block):
        loaded = RecordStore(path).load(campaign=campaign)
    assert [loaded.records, [(e.line_number, str(e)) for e in loaded.errors]] == \
        _load_line_by_line(path, campaign)


def test_store_line_is_on_disk_when_append_returns(store):
    rec = scan_record_to_dict(scan_rec(), campaign="c")
    store.append(rec)
    assert RecordStore(store.path).load().records == [rec]
    store.append(rec)
    assert RecordStore(store.path).load().records == [rec, rec]


def test_store_reopens_after_close(store):
    rec = scan_record_to_dict(scan_rec(), campaign="c")
    store.append(rec)
    store.close()
    store.close()
    store.append(rec)
    assert len(store.load().records) == 2


def test_store_concurrent_appends_keep_lines_whole(store):
    import threading

    rec = scan_record_to_dict(scan_rec())

    def write_many():
        for _ in range(50):
            store.append(rec)

    threads = [threading.Thread(target=write_many) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    loaded = store.load()
    assert loaded.errors == [] and len(loaded.records) == 200


# -- aggregation ---------------------------------------------------------------


def test_aggregate_quarter_select_non_fs():
    scans = [scan_rec("a", 0xC02F), scan_rec("b", 0xC02B), scan_rec("c", 0xC030),
             scan_rec("d", 0x002F)]
    report = aggregate(scans, [inspection_rec("d")])
    assert report.dataset_size == 4
    assert report.responding.count == 4 and report.responding.pct == 100.0
    assert report.select_non_fs.count == 1 and report.select_non_fs.pct == 25.0


def test_aggregate_support_fs_nested_in_stable():
    scans = [scan_rec("s%d" % i, 0x002F) for i in range(10)]
    inspections = [
        inspection_rec("s%d" % i, Classification.STABLE_SUPPORTS_FS_AE) for i in range(4)
    ] + [
        inspection_rec("s%d" % i, Classification.STABLE_NO_FS_SUPPORT)
        for i in range(4, 10)
    ]
    report = aggregate(scans, inspections)
    assert report.stable.count == 10 and report.stable.pct == 100.0
    assert report.support_fs.count == 4
    assert report.support_fs.pct == pytest.approx(40.0)


def test_aggregate_full_nesting_and_branches():
    scans = (
        [scan_rec("fs%d" % i, 0xC02F) for i in range(4)]
        + [scan_rec("n%d" % i, 0x002F) for i in range(8)]
        + [scan_rec("t%d" % i, responded=False) for i in range(4)]
    )
    inspections = [
        inspection_rec("n0", Classification.CHANGED_BEHAVIOR),
        inspection_rec("n1", Classification.ERROR_H1),
        inspection_rec("n2", Classification.STABLE_NO_FS_SUPPORT),
        inspection_rec("n3", Classification.STABLE_SUPPORTS_FS_AE),
        inspection_rec("n4", Classification.STABLE_SUPPORTS_FS_NONAE_ONLY,
                       lose_ae=True, prior_ae=True),
        inspection_rec("n5", Classification.STABLE_SUPPORTS_FS_NONAE_ONLY),
        inspection_rec("n6", Classification.STABLE_FS_NONAE_BUT_SUPPORTS_FS_AE,
                       lose_ae=True, prior_ae=True),
        inspection_rec("n7", Classification.STABLE_FS_NONAE_BUT_SUPPORTS_FS_AE),
    ]
    report = aggregate(scans, inspections, campaign="c")
    assert report.dataset_size == 16
    assert report.responding.count == 12 and report.responding.pct == 75.0
    assert report.select_non_fs.count == 8
    assert report.select_non_fs.pct == pytest.approx(100 * 8 / 12)
    assert report.stable.count == 6 and report.stable.pct == 75.0
    assert report.support_fs.count == 5
    assert report.support_fs.pct == pytest.approx(100 * 5 / 6)
    assert report.select_fs_non_ae.count == 4 and report.select_fs_non_ae.pct == 80.0
    assert report.support_fs_ae.count == 2 and report.support_fs_ae.pct == 50.0
    assert report.lose_ae.count == 2 and report.lose_ae.pct == 50.0
    assert report.lose_ae_support_fs_ae.count == 1
    assert report.lose_ae_support_fs_ae.pct == 50.0


def test_aggregate_device_share_over_metadata_responders():
    scans = [scan_rec("192.0.2.%d:443" % i, 0x002F) for i in range(1, 5)] + [
        scan_rec("192.0.2.9:443", responded=False)
    ]
    # .4 has no label; .9 has one but never responded: neither is a metadata responder
    meta = {
        "192.0.2.1": "broadband router",
        "192.0.2.2": "",
        "192.0.2.3": "printer",
        "192.0.2.9": "NAS",
    }
    report = aggregate(scans, [], device_meta=meta)
    assert report.metadata_responders == 3
    assert report.network_device.count == 2
    assert report.network_device.pct == pytest.approx(100 * 2 / 3)
    assert report.distinct_ip == 5


def test_aggregate_zero_denominators_render_dashes():
    report = aggregate([scan_rec("a", responded=False)], [])
    assert report.responding.count == 0 and report.responding.pct == 0.0
    assert report.select_non_fs.pct is None
    assert report.stable.pct is None
    text = render_text(report)
    assert "-" in text


def _golden_records():
    """Records under which every table row counts at least one server."""
    scans = (
        [scan_rec("192.0.2.%d:443" % i, 0xC02F) for i in range(1, 5)]
        + [scan_rec("198.51.100.%d:443" % i, 0x002F) for i in range(8)]
        + [scan_rec("198.51.100.%d:8443" % i, 0x002F) for i in range(2)]
        + [scan_rec("203.0.113.%d:443" % i, responded=False) for i in range(3)]
    )
    picks = [
        (Classification.CHANGED_BEHAVIOR, False),
        (Classification.ERROR_H1, False),
        (Classification.STABLE_NO_FS_SUPPORT, False),
        (Classification.STABLE_SUPPORTS_FS_AE, False),
        (Classification.STABLE_SUPPORTS_FS_NONAE_ONLY, True),
        (Classification.STABLE_SUPPORTS_FS_NONAE_ONLY, False),
        (Classification.STABLE_FS_NONAE_BUT_SUPPORTS_FS_AE, True),
        (Classification.STABLE_FS_NONAE_BUT_SUPPORTS_FS_AE, False),
        (Classification.STABLE_FS_NONAE_BUT_SUPPORTS_FS_AE, True),
        (Classification.STABLE_NO_FS_SUPPORT, False),
    ]
    inspections = [
        inspection_rec(s.address, c, lose_ae=lose, prior_ae=lose)
        for s, (c, lose) in zip(scans[4:14], picks)
    ]
    return scans, inspections


# Device rows count IPs: 198.51.100.0 and .1 answer on two ports each and
# count once, so 3 hosts are metadata responders and 2 are network devices.
_GOLDEN_META = {
    "192.0.2.1": "broadband router",
    "198.51.100.0": "",
    "198.51.100.1": "printer",
    "203.0.113.0": "NAS",
}

GOLDEN_FULL_TEXT = (
    "campaign: golden\n"
    "dataset                        17          \n"
    "responding                     14    82.35% (of dataset)\n"
    "distinct IPs                   15          \n"
    "network device                  2    66.67% (of metadata responders)\n"
    "select non-FS                  10    71.43% (of responding)\n"
    "stable                          8    80.00% (of select non-FS)\n"
    "support FS                      6    75.00% (of stable)\n"
    "select FS non-AE                5    83.33% (of support FS)\n"
    "support FS+AE                   3    60.00% (of select FS non-AE)\n"
    "lose AE                         3    60.00% (of select FS non-AE)\n"
    "lose AE, support FS+AE          2    66.67% (of lose AE)\n"
)

GOLDEN_FULL_DICT = {
    "campaign": "golden", "dataset_size": 17, "distinct_ip": 15, "metadata_responders": 3,
    "responding": {"count": 14, "pct": 82.35}, "network_device": {"count": 2, "pct": 66.67},
    "select_non_fs": {"count": 10, "pct": 71.43}, "stable": {"count": 8, "pct": 80.0},
    "support_fs": {"count": 6, "pct": 75.0}, "select_fs_non_ae": {"count": 5, "pct": 83.33},
    "support_fs_ae": {"count": 3, "pct": 60.0}, "lose_ae": {"count": 3, "pct": 60.0},
    "lose_ae_support_fs_ae": {"count": 2, "pct": 66.67},
}

GOLDEN_SPARSE_TEXT = (
    "campaign: (none)\n"
    "dataset                         2          \n"
    "responding                      1    50.00% (of dataset)\n"
    "distinct IPs                    2          \n"
    "network device                  0         - (of metadata responders)\n"
    "select non-FS                   1   100.00% (of responding)\n"
    "stable                          1   100.00% (of select non-FS)\n"
    "support FS                      1   100.00% (of stable)\n"
    "select FS non-AE                0     0.00% (of support FS)\n"
    "support FS+AE                   0         - (of select FS non-AE)\n"
    "lose AE                         0         - (of select FS non-AE)\n"
    "lose AE, support FS+AE          0         - (of lose AE)\n"
)

GOLDEN_SPARSE_DICT = {
    "campaign": "", "dataset_size": 2, "distinct_ip": 2, "metadata_responders": 0,
    "responding": {"count": 1, "pct": 50.0}, "network_device": {"count": 0, "pct": None},
    "select_non_fs": {"count": 1, "pct": 100.0}, "stable": {"count": 1, "pct": 100.0},
    "support_fs": {"count": 1, "pct": 100.0}, "select_fs_non_ae": {"count": 0, "pct": 0.0},
    "support_fs_ae": {"count": 0, "pct": None}, "lose_ae": {"count": 0, "pct": None},
    "lose_ae_support_fs_ae": {"count": 0, "pct": None},
}


def test_report_table_and_dict_are_pinned():
    scans, inspections = _golden_records()
    full = aggregate(scans, inspections, _GOLDEN_META, campaign="golden")
    assert render_text(full) == GOLDEN_FULL_TEXT
    assert full.to_dict() == GOLDEN_FULL_DICT
    sparse = aggregate(
        [scan_rec("a:443", 0x002F), scan_rec("b:443", responded=False)],
        [inspection_rec("a:443", Classification.STABLE_SUPPORTS_FS_AE)],
    )
    assert render_text(sparse) == GOLDEN_SPARSE_TEXT
    assert sparse.to_dict() == GOLDEN_SPARSE_DICT


def test_aggregate_folds_one_shot_generators():
    scans, inspections = _golden_records()
    from_lists = aggregate(scans, inspections, _GOLDEN_META, campaign="golden")
    from_generators = aggregate(
        (s for s in scans), (i for i in inspections), _GOLDEN_META, campaign="golden"
    )
    assert from_generators == from_lists


def test_render_text_deterministic_and_two_decimal():
    scans = [scan_rec("a"), scan_rec("b"), scan_rec("c", 0xC02F)]
    inspections = [inspection_rec("a"), inspection_rec("b", Classification.TIMEOUT)]
    report = aggregate(scans, inspections, campaign="camp")
    text = render_text(report)
    assert text == render_text(aggregate(scans, inspections, campaign="camp"))
    assert "66.67%" in text  # 2 of 3 responders selected non-FS
    assert text.startswith("campaign: camp\n")
    data = report.to_dict()
    assert data["select_non_fs"] == {"count": 2, "pct": 66.67}
    assert json.dumps(data)  # machine form is JSON-clean


def test_aggregate_accepts_store_dicts_round_trip(store):
    scans = [scan_rec("a"), scan_rec("b", 0xC02F)]
    inspections = [inspection_rec("a")]
    for s in scans:
        store.append(scan_record_to_dict(s, campaign="c"))
    for i in inspections:
        store.append(inspection_record_to_dict(i, campaign="c"))
    loaded = store.load(campaign="c")
    from_dicts = aggregate(*scans_and_inspections(loaded.records), campaign="c")
    from_typed = aggregate(scans, inspections, campaign="c")
    assert render_text(from_dicts) == render_text(from_typed)
    assert from_dicts == from_typed


# -- nesting property over arbitrary coherent record sets -----------------------


@st.composite
def coherent_records(draw):
    n = draw(st.integers(min_value=0, max_value=40))
    scans = []
    inspections = []
    for i in range(n):
        address = "srv%d" % i
        responded = draw(st.booleans())
        if not responded:
            scans.append(scan_rec(address, responded=False))
            continue
        suite = draw(st.sampled_from([0xC02F, 0xC02B, 0x002F, 0x0035, 0x009C]))
        scans.append(scan_rec(address, suite))
        if suite in (0xC02F, 0xC02B):
            continue
        classification = draw(st.sampled_from(sorted(Classification, key=lambda c: c.name)))
        lose_ae = (
            draw(st.booleans()) if classification in FS_NONAE_PICK_CLASSES else False
        )
        inspections.append(inspection_rec(address, classification, lose_ae=lose_ae))
    return scans, inspections


@settings(max_examples=80, deadline=None)
@given(coherent_records())
def test_nesting_invariant_over_random_multisets(records):
    scans, inspections = records
    report = aggregate(scans, inspections)
    chain = [
        report.dataset_size,
        report.responding.count,
        report.select_non_fs.count,
        report.stable.count,
        report.support_fs.count,
        report.select_fs_non_ae.count,
        report.support_fs_ae.count,
    ]
    assert all(a >= b for a, b in zip(chain, chain[1:]))
    assert report.select_fs_non_ae.count >= report.lose_ae.count
    assert report.lose_ae.count >= report.lose_ae_support_fs_ae.count
    # each pct is exactly count/previous, absent only when the previous is 0
    levels = [
        report.responding,
        report.select_non_fs,
        report.stable,
        report.support_fs,
        report.select_fs_non_ae,
        report.support_fs_ae,
    ]
    for prev, level in zip(chain, levels):
        if prev == 0:
            assert level.pct is None
        else:
            assert level.pct is not None
            assert math.isclose(level.pct, 100.0 * level.count / prev)
    assert isinstance(report, AggregateReport)
