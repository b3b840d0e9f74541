"""Record persistence and table aggregation.

Records from the three phases (scan, inspection, client sessions) live in
one append-only, line-delimited JSON log, each line carrying a schema
version and a kind tag. Aggregation folds scan plus inspection records
into the nested selects/supports table, where every percentage is taken
over the count one level up.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import threading
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import (
    Callable, Iterable, Mapping, NoReturn, Optional, Sequence, Union, get_args, get_origin,
    get_type_hints,
)

from .client import FallbackStyle, SessionOutcome
from .inspection import (
    Classification,
    InspectionRecord,
    STABLE_CLASSES,
    ScanRecord,
    ScanResultKind,
)
from .metadata import DeviceLookup, IoFailure, split_address
from .suites import is_fs
from . import wire

SCHEMA_VERSION = 1

FS_SUPPORT_CLASSES = frozenset(
    {
        Classification.STABLE_SUPPORTS_FS_AE,
        Classification.STABLE_SUPPORTS_FS_NONAE_ONLY,
        Classification.STABLE_FS_NONAE_BUT_SUPPORTS_FS_AE,
    }
)
FS_NONAE_PICK_CLASSES = frozenset(
    {
        Classification.STABLE_SUPPORTS_FS_NONAE_ONLY,
        Classification.STABLE_FS_NONAE_BUT_SUPPORTS_FS_AE,
    }
)


class ParseFailure(Exception):
    """One store line is not a JSON object; carries the 1-based line number."""

    def __init__(self, line_number: int, reason: str) -> None:
        super().__init__("line %d: %s" % (line_number, reason))
        self.line_number = line_number
        self.reason = reason


class SchemaMismatch(Exception):
    """A structurally valid line is not a record this code understands."""


# -- record codec --------------------------------------------------------------
#
# A store line is the v/kind/campaign envelope plus the record's dataclass
# fields, each stored by its annotation: enums by name, tuples as lists, an
# AlertMsg as [level value, description], None as null, nested dataclasses
# as objects. Decoding checks every value's exact type (an int passes for a
# float), so a JSON object that is not a record raises SchemaMismatch only.

_SCALARS = {int: (int,), float: (int, float), str: (str,), bool: (bool,)}


def _wrong(expected: str, value) -> NoReturn:
    raise SchemaMismatch("expected %s, got %.40r" % (expected, value))


def _check(types: tuple, expected: str) -> Callable:
    return lambda v: v if type(v) in types else _wrong(expected, v)


def _fields_codec(build: Callable, fields: Iterable[tuple[str, object]]) -> tuple[Callable, Callable]:
    """(encode, decode) for an object of annotated fields; ``build(**fields)`` makes one."""
    codecs = [(name, *_codec(tp)) for name, tp in fields]

    def encode(obj) -> dict:
        return {
            name: getattr(obj, name) if enc is None else enc(getattr(obj, name))
            for name, enc, _ in codecs
        }

    def decode(data):
        if not isinstance(data, dict):
            _wrong("object", data)
        kwargs = {}
        for name, _, dec in codecs:
            try:
                kwargs[name] = dec(data[name])
            except KeyError:
                raise SchemaMismatch("%s: missing" % name) from None
            except (ValueError, SchemaMismatch) as exc:
                raise SchemaMismatch("%s: %s" % (name, exc)) from None
        try:
            return build(**kwargs)
        except ValueError as exc:
            raise SchemaMismatch(str(exc)) from None

    return encode, decode


@functools.cache
def _codec(tp) -> tuple[Optional[Callable], Callable]:
    """(encode, decode) for one annotation, built once per type; no encode stores as is."""
    if get_origin(tp) is Union:  # Optional[X]
        inner = get_args(tp)[0]
        if inner in _SCALARS:
            return None, _check(_SCALARS[inner] + (type(None),), inner.__name__ + " or null")
        enc, dec = _codec(inner)
        return (lambda v: None if v is None else enc(v)), (lambda v: None if v is None else dec(v))
    if get_origin(tp) is tuple:  # tuple[X, ...]
        enc, dec = _codec(get_args(tp)[0])
        is_list = _check((list,), "list")
        return (list if enc is None else lambda v: [enc(x) for x in v]), (
            lambda v: tuple(dec(x) for x in is_list(v))
        )
    if tp is wire.AlertMsg:
        is_pair, is_int = _check((list,), "[level, description]"), _check((int,), "int")

        def decode_alert(v) -> wire.AlertMsg:
            level, description = is_pair(v)
            return wire.AlertMsg(wire.AlertLevel(is_int(level)), is_int(description))

        return (lambda v: [v.level.value, v.description]), decode_alert
    if isinstance(tp, type) and issubclass(tp, Enum):
        names = tp.__members__
        return (lambda v: v.name), (
            lambda v: names[v] if type(v) is str and v in names else _wrong(tp.__name__, v)
        )
    if tp in _SCALARS:
        return None, _check(_SCALARS[tp], tp.__name__)
    hints = get_type_hints(tp)
    return _fields_codec(tp, [(f.name, hints[f.name]) for f in dataclasses.fields(tp)])


_DECODERS = {
    "scan": _codec(ScanRecord)[1],
    "inspection": _codec(InspectionRecord)[1],
    "session": _fields_codec(
        lambda address, **outcome: (address, SessionOutcome(**outcome)),
        [("address", str), *get_type_hints(SessionOutcome).items()],
    )[1],
}


def _is_schema_version(v) -> bool:
    # Exact type, as for every field: JSON's true and 1.0 are not version 1.
    return type(v) is int and v == SCHEMA_VERSION


def _to_dict(kind: str, campaign: str, record, **envelope) -> dict:
    fields = _codec(type(record))[0](record)
    return {"v": SCHEMA_VERSION, "kind": kind, "campaign": campaign, **envelope, **fields}


def _from_dict(kind: str, data):
    try:
        if not isinstance(data, dict):
            _wrong("object", data)
        if not _is_schema_version(data.get("v")) or data.get("kind") != kind:
            _wrong("v %d, kind %r" % (SCHEMA_VERSION, kind), (data.get("v"), data.get("kind")))
        return _DECODERS[kind](data)
    except SchemaMismatch as exc:
        raise SchemaMismatch("bad %s record: %s" % (kind, exc)) from None


def scan_record_to_dict(record: ScanRecord, campaign: str = "") -> dict:
    return _to_dict("scan", campaign, record)


def scan_record_from_dict(data: dict) -> ScanRecord:
    return _from_dict("scan", data)


def inspection_record_to_dict(record: InspectionRecord, campaign: str = "") -> dict:
    return _to_dict("inspection", campaign, record)


def inspection_record_from_dict(data: dict) -> InspectionRecord:
    return _from_dict("inspection", data)


def session_record_to_dict(
    address: str, outcome: SessionOutcome, campaign: str = "", fallback: Optional[FallbackStyle] = None
) -> dict:
    return _to_dict("session", campaign, outcome, address=address,
                    fallback=None if fallback is None else fallback.name)


def session_record_from_dict(data: dict) -> tuple[str, SessionOutcome]:
    return _from_dict("session", data)


def scans_and_inspections(records: Sequence[dict]) -> tuple[list[ScanRecord], list[InspectionRecord]]:
    """Decode the scan and inspection records among loaded store lines; skip other kinds."""
    return (
        [scan_record_from_dict(r) for r in records if r.get("kind") == "scan"],
        [inspection_record_from_dict(r) for r in records if r.get("kind") == "inspection"],
    )


# -- store ---------------------------------------------------------------------


@dataclass
class LoadResult:
    records: list[dict]
    errors: list[ParseFailure] = field(default_factory=list)


class RecordStore:
    """Append-only JSON-lines log. Writes are serialized; reads are not.

    Appends go through one handle, opened on the first append and flushed
    after every line, so a killed process leaves every line appended so
    far. close(), or the end of a ``with`` block, releases the handle.
    """

    def __init__(self, path) -> None:
        self.path = Path(path)
        self._write_lock = threading.Lock()
        self._fh = None

    def append(self, record: Mapping) -> None:
        if not _is_schema_version(record.get("v")) or "kind" not in record:
            raise SchemaMismatch("record has no v=%d/kind envelope" % SCHEMA_VERSION)
        line = json.dumps(record, sort_keys=True, separators=(",", ":"))
        with self._write_lock:
            try:
                if self._fh is None:
                    self._fh = self.path.open("a", encoding="utf-8")
                self._fh.write(line + "\n")
                self._fh.flush()
            except OSError as exc:
                raise IoFailure("cannot append to %s: %s" % (self.path, exc)) from exc

    def close(self) -> None:
        with self._write_lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None

    def __enter__(self) -> "RecordStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def load(
        self,
        *,
        campaign: Optional[str] = None,
        kind: Optional[str] = None,
        classification: Optional[Union[Classification, str]] = None,
    ) -> LoadResult:
        """Filtered read. Corrupt lines become errors, not silent drops."""
        try:
            lines = self.path.read_text(encoding="utf-8").splitlines()
        except OSError as exc:
            raise IoFailure("cannot read %s: %s" % (self.path, exc)) from exc
        wanted_class = (
            classification.name
            if isinstance(classification, Classification)
            else classification
        )
        result = LoadResult(records=[])
        for number, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                data = json.loads(line)
            except json.JSONDecodeError as exc:
                result.errors.append(ParseFailure(number, str(exc)))
                continue
            if not isinstance(data, dict):
                result.errors.append(ParseFailure(number, "not a JSON object"))
                continue
            if campaign is not None and data.get("campaign") != campaign:
                continue
            if kind is not None and data.get("kind") != kind:
                continue
            if wanted_class is not None and data.get("classification") != wanted_class:
                continue
            result.records.append(data)
        return result


# -- aggregation ---------------------------------------------------------------


@dataclass(frozen=True)
class Level:
    """A table row: absolute count plus percent of the level above it."""

    count: int
    pct: Optional[float]  # None when the level above is empty

    @property
    def pct_text(self) -> str:
        return "-" if self.pct is None else "%.2f%%" % round(self.pct, 2)


def _level(count: int, denominator: int) -> Level:
    return Level(count, None if denominator == 0 else 100.0 * count / denominator)


@dataclass(frozen=True)
class AggregateReport:
    """Nested selects/supports table over one campaign's records.

    Main chain, each row a subset of the one above:
      dataset -> responding -> select non-FS -> stable -> support FS
      -> select FS non-AE -> support FS+AE.
    The lose-AE branch hangs off select FS non-AE. Device typing is a
    side channel over whichever responders have provider coverage.
    """

    campaign: str
    dataset_size: int
    responding: Level
    distinct_ip: int
    metadata_responders: int
    network_device: Level
    select_non_fs: Level
    stable: Level
    support_fs: Level
    select_fs_non_ae: Level
    support_fs_ae: Level
    lose_ae: Level
    lose_ae_support_fs_ae: Level

    def chain(self) -> list[tuple[str, Level]]:
        return [
            ("responding", self.responding),
            ("select_non_fs", self.select_non_fs),
            ("stable", self.stable),
            ("support_fs", self.support_fs),
            ("select_fs_non_ae", self.select_fs_non_ae),
            ("support_fs_ae", self.support_fs_ae),
        ]

    def to_dict(self) -> dict:
        def row(level: Level) -> dict:
            return {
                "count": level.count,
                "pct": None if level.pct is None else round(level.pct, 2),
            }

        return {
            "campaign": self.campaign,
            "dataset_size": self.dataset_size,
            "distinct_ip": self.distinct_ip,
            "metadata_responders": self.metadata_responders,
            "responding": row(self.responding),
            "network_device": row(self.network_device),
            "select_non_fs": row(self.select_non_fs),
            "stable": row(self.stable),
            "support_fs": row(self.support_fs),
            "select_fs_non_ae": row(self.select_fs_non_ae),
            "support_fs_ae": row(self.support_fs_ae),
            "lose_ae": row(self.lose_ae),
            "lose_ae_support_fs_ae": row(self.lose_ae_support_fs_ae),
        }


_ROWS = (
    ("dataset", None),
    ("responding", "of dataset"),
    ("distinct IPs", None),
    ("network device", "of metadata responders"),
    ("select non-FS", "of responding"),
    ("stable", "of select non-FS"),
    ("support FS", "of stable"),
    ("select FS non-AE", "of support FS"),
    ("support FS+AE", "of select FS non-AE"),
    ("lose AE", "of select FS non-AE"),
    ("lose AE, support FS+AE", "of lose AE"),
)


def render_text(report: AggregateReport) -> str:
    """Fixed-width table; deterministic for byte-level comparison."""
    values = [
        (str(report.dataset_size), ""),
        (str(report.responding.count), report.responding.pct_text),
        (str(report.distinct_ip), ""),
        (str(report.network_device.count), report.network_device.pct_text),
        (str(report.select_non_fs.count), report.select_non_fs.pct_text),
        (str(report.stable.count), report.stable.pct_text),
        (str(report.support_fs.count), report.support_fs.pct_text),
        (str(report.select_fs_non_ae.count), report.select_fs_non_ae.pct_text),
        (str(report.support_fs_ae.count), report.support_fs_ae.pct_text),
        (str(report.lose_ae.count), report.lose_ae.pct_text),
        (str(report.lose_ae_support_fs_ae.count), report.lose_ae_support_fs_ae.pct_text),
    ]
    title = "campaign: %s" % (report.campaign or "(none)")
    lines = [title]
    for (label, basis), (count, pct) in zip(_ROWS, values):
        basis_text = " (%s)" % basis if basis else ""
        lines.append("%-24s %8s  %8s%s" % (label, count, pct, basis_text))
    return "\n".join(lines) + "\n"


def aggregate(
    scan_records: Sequence[Union[ScanRecord, Mapping]],
    inspection_records: Sequence[Union[InspectionRecord, Mapping]],
    device_meta: Optional[DeviceLookup] = None,
    *,
    campaign: str = "",
) -> AggregateReport:
    """Fold one campaign's records into the nested table.

    Accepts typed records or raw store dicts; dicts are schema-checked.
    """
    scans = [
        r if isinstance(r, ScanRecord) else scan_record_from_dict(r) for r in scan_records
    ]
    inspections = [
        r if isinstance(r, InspectionRecord) else inspection_record_from_dict(r)
        for r in inspection_records
    ]

    responding = [r for r in scans if r.result is ScanResultKind.RESPONDED]
    select_non_fs = [r for r in responding if not is_fs(r.selected_suite)]
    distinct_ip = len({split_address(r.address)[0] for r in scans})

    by_class: dict[Classification, int] = {c: 0 for c in Classification}
    lose_ae_count = 0
    lose_ae_support = 0
    for rec in inspections:
        by_class[rec.classification] += 1
        if rec.lose_ae:
            lose_ae_count += 1
            if rec.classification is Classification.STABLE_FS_NONAE_BUT_SUPPORTS_FS_AE:
                lose_ae_support += 1

    stable = sum(by_class[c] for c in STABLE_CLASSES)
    support_fs = sum(by_class[c] for c in FS_SUPPORT_CLASSES)
    select_fs_non_ae = sum(by_class[c] for c in FS_NONAE_PICK_CLASSES)
    support_fs_ae = by_class[Classification.STABLE_FS_NONAE_BUT_SUPPORTS_FS_AE]

    if device_meta is None:
        metadata_responders = 0
        device_count = 0
    else:
        hosts = [split_address(r.address)[0] for r in responding]
        covered = [h for h in hosts if h in device_meta]
        metadata_responders = len(covered)
        device_count = sum(1 for h in covered if device_meta[h].is_network_device)

    return AggregateReport(
        campaign=campaign,
        dataset_size=len(scans),
        responding=_level(len(responding), len(scans)),
        distinct_ip=distinct_ip,
        metadata_responders=metadata_responders,
        network_device=_level(device_count, metadata_responders),
        select_non_fs=_level(len(select_non_fs), len(responding)),
        stable=_level(stable, len(select_non_fs)),
        support_fs=_level(support_fs, stable),
        select_fs_non_ae=_level(select_fs_non_ae, support_fs),
        support_fs_ae=_level(support_fs_ae, select_fs_non_ae),
        lose_ae=_level(lose_ae_count, select_fs_non_ae),
        lose_ae_support_fs_ae=_level(lose_ae_support, lose_ae_count),
    )
