"""Record persistence and table aggregation.

Records from the three phases (scan, inspection, client sessions) live in
one append-only, line-delimited JSON log, each line carrying a schema
version and a kind tag. Aggregation folds scan plus inspection records
into the nested selects/supports table, where every percentage is taken
over the count one level up.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Optional, Sequence, Union

from .client import FallbackStyle, PolicyMode, SessionOutcome, SessionStatus
from .handshake import AttemptKind, AttemptResult
from .inspection import (
    Classification,
    InspectionRecord,
    STABLE_CLASSES,
    ScanRecord,
    ScanResultKind,
    StepResult,
)
from .metadata import DeviceLookup, IoFailure, split_address
from .suites import ProfileKind, is_fs
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
    """One store line is not valid JSON; carries the 1-based line number."""

    def __init__(self, line_number: int, reason: str) -> None:
        super().__init__("line %d: %s" % (line_number, reason))
        self.line_number = line_number
        self.reason = reason


class SchemaMismatch(Exception):
    """A structurally valid line is not a record this code understands."""


# -- serializers ---------------------------------------------------------------


def _attempt_to_dict(attempt: AttemptResult) -> dict:
    return {
        "kind": attempt.kind.name,
        "suite": attempt.suite,
        "version": attempt.version,
        "alert": None
        if attempt.alert is None
        else [attempt.alert.level.value, attempt.alert.description],
        "error": attempt.error,
        "elapsed_s": attempt.elapsed_s,
    }


def _attempt_from_dict(data: Mapping) -> AttemptResult:
    alert = data["alert"]
    return AttemptResult(
        kind=AttemptKind[data["kind"]],
        suite=data["suite"],
        version=data["version"],
        alert=None if alert is None else wire.AlertMsg(wire.AlertLevel(alert[0]), alert[1]),
        error=data["error"],
        elapsed_s=data["elapsed_s"],
    )


def _step_to_dict(step: Optional[StepResult]) -> Optional[dict]:
    if step is None:
        return None
    return {"profile": step.profile.name, "attempt": _attempt_to_dict(step.attempt)}


def _step_from_dict(data: Optional[Mapping]) -> Optional[StepResult]:
    if data is None:
        return None
    return StepResult(ProfileKind[data["profile"]], _attempt_from_dict(data["attempt"]))


def scan_record_to_dict(record: ScanRecord, campaign: str = "") -> dict:
    return {
        "v": SCHEMA_VERSION,
        "kind": "scan",
        "campaign": campaign,
        "address": record.address,
        "timestamp": record.timestamp,
        "result": record.result.name,
        "selected_suite": record.selected_suite,
        "negotiated_version": record.negotiated_version,
        "error_detail": record.error_detail,
    }


def scan_record_from_dict(data: Mapping) -> ScanRecord:
    _check_schema(data, "scan")
    try:
        return ScanRecord(
            address=data["address"],
            timestamp=data["timestamp"],
            result=ScanResultKind[data["result"]],
            selected_suite=data["selected_suite"],
            negotiated_version=data["negotiated_version"],
            error_detail=data["error_detail"],
        )
    except (KeyError, ValueError) as exc:
        raise SchemaMismatch("bad scan record: %s" % exc) from exc


def inspection_record_to_dict(record: InspectionRecord, campaign: str = "") -> dict:
    return {
        "v": SCHEMA_VERSION,
        "kind": "inspection",
        "campaign": campaign,
        "address": record.address,
        "h1": _step_to_dict(record.h1),
        "h2": _step_to_dict(record.h2),
        "h3": _step_to_dict(record.h3),
        "classification": record.classification.name,
        "prior_suite_ae": record.prior_suite_ae,
        "lose_ae": record.lose_ae,
        "scanned_at": record.scanned_at,
        "inspected_at": record.inspected_at,
    }


def inspection_record_from_dict(data: Mapping) -> InspectionRecord:
    _check_schema(data, "inspection")
    try:
        return InspectionRecord(
            address=data["address"],
            h1=_step_from_dict(data["h1"]),
            h2=_step_from_dict(data["h2"]),
            h3=_step_from_dict(data["h3"]),
            classification=Classification[data["classification"]],
            prior_suite_ae=data["prior_suite_ae"],
            lose_ae=data["lose_ae"],
            scanned_at=data["scanned_at"],
            inspected_at=data["inspected_at"],
        )
    except (KeyError, ValueError) as exc:
        raise SchemaMismatch("bad inspection record: %s" % exc) from exc


def session_record_to_dict(
    address: str, outcome: SessionOutcome, campaign: str = "", fallback: Optional[FallbackStyle] = None
) -> dict:
    return {
        "v": SCHEMA_VERSION,
        "kind": "session",
        "campaign": campaign,
        "address": address,
        "mode": None if outcome.mode is None else outcome.mode.name,
        "fallback": None if fallback is None else fallback.name,
        "status": outcome.status.name,
        "suite": outcome.suite,
        "fs": outcome.fs,
        "ae": outcome.ae,
        "fallback_depth": outcome.fallback_depth,
        "handshake_attempts": outcome.handshake_attempts,
        "per_attempt_timings": list(outcome.per_attempt_timings),
        "attempts": [_attempt_to_dict(a) for a in outcome.attempts],
    }


def session_record_from_dict(data: Mapping) -> tuple[str, SessionOutcome]:
    _check_schema(data, "session")
    try:
        outcome = SessionOutcome(
            status=SessionStatus[data["status"]],
            suite=data["suite"],
            fs=data["fs"],
            ae=data["ae"],
            fallback_depth=data["fallback_depth"],
            handshake_attempts=data["handshake_attempts"],
            per_attempt_timings=tuple(data["per_attempt_timings"]),
            attempts=tuple(_attempt_from_dict(a) for a in data["attempts"]),
            mode=None if data["mode"] is None else PolicyMode[data["mode"]],
        )
    except (KeyError, ValueError) as exc:
        raise SchemaMismatch("bad session record: %s" % exc) from exc
    return data["address"], outcome


def _check_schema(data: Mapping, kind: str) -> None:
    if data.get("v") != SCHEMA_VERSION:
        raise SchemaMismatch("unsupported schema version %r" % (data.get("v"),))
    if data.get("kind") != kind:
        raise SchemaMismatch("expected %s record, got %r" % (kind, data.get("kind")))


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
        if "kind" not in record:
            raise SchemaMismatch("record has no kind tag")
        payload = {"v": SCHEMA_VERSION, **record}
        line = json.dumps(payload, sort_keys=True, separators=(",", ":"))
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
