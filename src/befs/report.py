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
from collections import Counter
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
from .metadata import IoFailure, split_address
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

    def load(self, *, campaign: Optional[str] = None) -> LoadResult:
        """Read every line, or one campaign's. Corrupt lines become errors, not silent drops.

        Lines end at ``\\n`` only. The file is read in blocks of
        LOAD_BLOCK_BYTES, each cut after its last ``\\n``, so memory holds
        one block (or one line, if longer) plus the kept records. Every
        line is parsed, whatever its campaign, so a corrupt line of any
        campaign is reported.
        """
        loader = _BlockLoader(campaign)
        pending: list[bytes] = []  # the line begun by earlier blocks
        try:
            with self.path.open("rb") as fh:
                while block := fh.read(LOAD_BLOCK_BYTES):
                    cut = block.rfind(b"\n") + 1
                    if not cut:
                        pending.append(block)
                        continue
                    pending.append(block[:cut])
                    loader.feed(b"".join(pending))
                    pending = [block[cut:]]
        except OSError as exc:
            raise IoFailure("cannot read %s: %s" % (self.path, exc)) from exc
        if any(pending):
            loader.feed(b"".join(pending) + b"\n")
        return loader.result


LOAD_BLOCK_BYTES = 64 * 1024

# The C scanner behind json.loads, called at a line's offset in a decoded
# block: it skips json.loads' wrapper and the per-line string slice.
_scan_value = json.JSONDecoder().scan_once


class _BlockLoader:
    """Parses whole ``\\n``-terminated lines into one LoadResult."""

    def __init__(self, campaign: Optional[str]) -> None:
        self.campaign = campaign
        self.result = LoadResult(records=[])
        self.number = 0  # lines seen so far

    def feed(self, chunk: bytes) -> None:
        """Parse ``chunk``, which ends with ``\\n``; a line that is not UTF-8 is an error."""
        try:
            text = chunk.decode("utf-8")
        except UnicodeDecodeError:
            for raw in chunk.split(b"\n")[:-1]:
                try:
                    line = raw.decode("utf-8")
                except UnicodeDecodeError as exc:
                    self.number += 1
                    self.result.errors.append(ParseFailure(self.number, "not UTF-8: %s" % exc))
                    continue
                self._feed_text(line + "\n")
            return
        self._feed_text(text)

    def _feed_text(self, text: str) -> None:
        campaign, records = self.campaign, self.result.records
        number, start, size = self.number, 0, len(text)
        while start < size:
            end = text.index("\n", start)
            number += 1
            # One scan of a line that holds exactly one object and nothing
            # else; any other line takes the per-line path below, which
            # gives the same records and the same error messages.
            if text[start] == "{":
                try:
                    data, stop = _scan_value(text, start)
                except (ValueError, StopIteration, RecursionError):
                    stop = -1
                if stop == end:
                    if campaign is None or data.get("campaign") == campaign:
                        records.append(data)
                    start = end + 1
                    continue
            self._parse_line(text[start:end], number)
            start = end + 1
        self.number = number

    def _parse_line(self, line: str, number: int) -> None:
        if not line.strip():
            return
        errors = self.result.errors
        try:
            data = json.loads(line)
        except json.JSONDecodeError as exc:
            errors.append(ParseFailure(number, str(exc)))
            return
        except RecursionError:
            errors.append(ParseFailure(number, "nested too deeply to parse"))
            return
        if not isinstance(data, dict):
            errors.append(ParseFailure(number, "not a JSON object"))
            return
        if self.campaign is None or data.get("campaign") == self.campaign:
            self.result.records.append(data)


# -- aggregation ---------------------------------------------------------------


@dataclass(frozen=True)
class Level:
    """A table row: absolute count plus percent of the level above it."""

    count: int
    pct: Optional[float]  # None when the level above is empty

    @property
    def pct_text(self) -> str:
        return "-" if self.pct is None else "%.2f%%" % round(self.pct, 2)


def _row(label: str, over: Optional[str] = None, *, shown: bool = True):
    """A table field: its text label, and the field its percent is taken over.

    A field with ``over`` holds a Level; one without holds a bare count.
    ``shown=False`` keeps a count in the JSON form but out of the text table.
    """
    return field(metadata={"label": label, "over": over, "shown": shown})


@dataclass(frozen=True)
class AggregateReport:
    """Nested selects/supports table over one campaign's records.

    Main chain, each row a subset of the one above:
      dataset -> responding -> select non-FS -> stable -> support FS
      -> select FS non-AE -> support FS+AE.
    The lose-AE branch hangs off select FS non-AE. Device typing is a
    side channel over whichever responding hosts have a device label.
    The fields after ``campaign`` are the table, in text order.
    """

    campaign: str
    dataset_size: int = _row("dataset")
    responding: Level = _row("responding", "dataset_size")
    distinct_ip: int = _row("distinct IPs")
    metadata_responders: int = _row("metadata responders", shown=False)
    network_device: Level = _row("network device", "metadata_responders")
    select_non_fs: Level = _row("select non-FS", "responding")
    stable: Level = _row("stable", "select_non_fs")
    support_fs: Level = _row("support FS", "stable")
    select_fs_non_ae: Level = _row("select FS non-AE", "support_fs")
    support_fs_ae: Level = _row("support FS+AE", "select_fs_non_ae")
    lose_ae: Level = _row("lose AE", "select_fs_non_ae")
    lose_ae_support_fs_ae: Level = _row("lose AE, support FS+AE", "lose_ae")

    @classmethod
    def from_counts(cls, campaign: str, counts: Mapping[str, int]) -> "AggregateReport":
        """Build the table from one count per row; each percent is over its ``over`` count."""
        rows = {}
        for f in _TABLE:
            count, over = counts[f.name], f.metadata["over"]
            if over is None:
                rows[f.name] = count
            else:
                denominator = counts[over]
                rows[f.name] = Level(count, 100.0 * count / denominator if denominator else None)
        return cls(campaign, **rows)

    def to_dict(self) -> dict:
        data = {"campaign": self.campaign}
        for f in _TABLE:
            value = getattr(self, f.name)
            if isinstance(value, Level):
                value = {"count": value.count,
                         "pct": None if value.pct is None else round(value.pct, 2)}
            data[f.name] = value
        return data


_TABLE = dataclasses.fields(AggregateReport)[1:]
_LABELS = {f.name: f.metadata["label"] for f in _TABLE}


def render_text(report: AggregateReport) -> str:
    """Fixed-width table; deterministic for byte-level comparison."""
    lines = ["campaign: %s" % (report.campaign or "(none)")]
    for f in _TABLE:
        if not f.metadata["shown"]:
            continue
        value, over = getattr(report, f.name), f.metadata["over"]
        count, pct, basis = (
            (value, "", "") if over is None
            else (value.count, value.pct_text, " (of %s)" % _LABELS[over])
        )
        lines.append("%-24s %8s  %8s%s" % (f.metadata["label"], count, pct, basis))
    return "\n".join(lines) + "\n"


def aggregate(
    scan_records: Iterable[ScanRecord],
    inspection_records: Iterable[InspectionRecord],
    device_meta: Optional[Mapping[str, str]] = None,
    *,
    campaign: str = "",
) -> AggregateReport:
    """Fold one campaign's decoded records into the nested table, one pass each.

    ``device_meta`` maps an IP to its device label, as
    ``metadata.device_type`` returns it; an empty label is a covered
    host that is not a network device.
    """
    dataset = responding = select_non_fs = 0
    # The two structures that grow with the input: every host, and the
    # responding hosts with device metadata. Both count IPs, not addresses.
    hosts, covered = set(), set()
    for rec in scan_records:
        host = split_address(rec.address)[0]
        hosts.add(host)
        dataset += 1
        if rec.result is not ScanResultKind.RESPONDED:
            continue
        responding += 1
        select_non_fs += not is_fs(rec.selected_suite)
        if device_meta is not None and host in device_meta:
            covered.add(host)
    steps = Counter((rec.classification, rec.lose_ae) for rec in inspection_records)

    def inspected(classes, lose_ae=(False, True)) -> int:
        return sum(n for (c, lost), n in steps.items() if c in classes and lost in lose_ae)

    regains_ae = {Classification.STABLE_FS_NONAE_BUT_SUPPORTS_FS_AE}
    return AggregateReport.from_counts(campaign, dict(
        dataset_size=dataset,
        responding=responding,
        distinct_ip=len(hosts),
        metadata_responders=len(covered),
        network_device=sum(device_meta[host] != "" for host in covered),
        select_non_fs=select_non_fs,
        stable=inspected(STABLE_CLASSES),
        support_fs=inspected(FS_SUPPORT_CLASSES),
        select_fs_non_ae=inspected(FS_NONAE_PICK_CLASSES),
        support_fs_ae=inspected(regains_ae),
        lose_ae=inspected(Classification, (True,)),
        lose_ae_support_fs_ae=inspected(regains_ae, (True,)),
    ))
