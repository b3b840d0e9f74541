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
import re
import threading
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import (
    Callable, Iterable, Mapping, NoReturn, Optional, Sequence, Union, get_args, get_origin,
    get_type_hints,
)

from .client import SessionOutcome
from .inspection import (
    Classification,
    InspectionRecord,
    STABLE_CLASSES,
    ScanRecord,
    ScanResultKind,
)
from .metadata import IoFailure, split_address
from .records import record
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
# Each stored kind is exactly one dataclass (_KINDS): a store line is that
# record's fields plus "v", "kind" and "campaign", each field stored by its
# annotation: enums by name, tuples as lists, an AlertMsg as [level value,
# description], None as null, nested dataclasses as objects. A session's
# address and fallback style are SessionOutcome fields like any other. Its
# bytes are json.dumps(..., sort_keys=True, separators=(",", ":")) of that
# object, but no dict is built. Each kind's line function is generated once
# from the annotations, as dataclasses builds __init__: one %-template holds
# every key, separator and the constant "v" and "kind" values in sorted-key
# order (keys and kinds are identifiers, so none holds a %), and one
# expression per field fills it. A line costs one template fill, plus one
# call per Optional or repeated nested object. The encoder trusts each value
# to be of its annotated type; "v" and "kind" come from the record's type,
# so every line has them. Decoding checks every value's exact type (an int
# passes for a float), so a JSON object that is not a record raises
# SchemaMismatch only. The same annotations give the pattern that
# recognizes a line of another campaign without decoding it (_recognizer).

_json_str = json.encoder.encode_basestring_ascii  # a str as json.dumps writes it


def _nonfinite(x: float) -> str:
    """A NaN or infinite float as json.dumps writes it."""
    return "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"


def _bad(text: str, value) -> NoReturn:
    """Refuse a decoded value: ``text`` says where and what was expected."""
    raise SchemaMismatch("%s, got %.40r" % (text, value))


# The globals of the generated functions: the helpers they call, the
# tables of each enum, and the functions themselves.
_NS: dict = {"__name__": __name__, "_str": _json_str, "_nonfinite": _nonfinite, "_bad": _bad,
             "SchemaMismatch": SchemaMismatch}


def _global(value) -> str:
    name = "_g%d" % len(_NS)
    _NS[name] = value
    return name


def _define(name: str, params: Sequence[str], body: list[str]) -> str:
    """Generate ``def name(params): body``; its global name."""
    source = "def %s(%s):\n%s" % (name, ", ".join(params), "".join("    %s\n" % s for s in body))
    scope: dict = {}
    exec(source, _NS, scope)
    return _global(scope[name])


def _fill(template: str, args: str) -> str:
    """The statement returning ``template`` filled with ``args``."""
    return "return %r %% (%s,)" % (template, args)


def _template(tp, var: str, body: list[str]) -> tuple[str, str]:
    """(%-template, arguments) of the JSON text of local ``var``, whose annotation is ``tp``.

    Statements that bind locals the arguments read are added to ``body``.
    A value whose text needs such statements, if Optional or in a tuple, is
    written by its own generated function instead.
    """
    origin = get_origin(tp)
    if origin in (Union, tuple):  # Optional[X] or tuple[X, ...]
        inner, item, own = get_args(tp)[0], var if origin is Union else "x", []
        template, args = _template(inner, item, own)
        if own:
            text = "%s(%s)" % (_function(inner), item)
        else:
            text = args if template == "%s" else "%r %% (%s,)" % (template, args)
        if origin is Union:
            return "%s", '"null" if %s is None else %s' % (var, text)
        return "[%s]", '",".join([%s for x in %s])' % (text, var)
    if tp is wire.AlertMsg:
        return "[%d,%d]", "%s.level._value_, %s.description" % (var, var)
    if isinstance(tp, type) and issubclass(tp, Enum):
        return "%s", "%s[%s._name_]" % (_names(tp), var)
    if tp is int:
        return "%d", var
    if tp is float:
        return "%s", "repr(%s) if %s - %s == 0 else _nonfinite(%s)" % ((var,) * 4)
    if tp is str:
        return "%s", "_str(%s)" % var
    if tp is bool:
        return "%s", '"true" if %s else "false"' % var
    return _object(_fields(tp, var, body))


def _fields(tp, var: str, body: list[str]) -> dict[str, tuple[str, str]]:
    """Each field of the dataclass in local ``var``, bound to a local, and its (template, args)."""
    hints, members = get_type_hints(tp), {}
    for f in dataclasses.fields(tp):
        local = "v%d" % len(body)
        body.append("%s = %s.%s" % (local, var, f.name))
        members[f.name] = _template(hints[f.name], local, body)
    return members


def _object(members: Mapping[str, tuple[str, str]]) -> tuple[str, str]:
    """(template, args) of a JSON object from each key's (template, args), keys sorted."""
    keys = sorted(members)
    return (
        "{%s}" % ",".join(_json_str(k) + ":" + members[k][0] for k in keys),
        ", ".join(members[k][1] for k in keys if members[k][1]),
    )


@functools.cache
def _names(enum: type[Enum]) -> str:
    """The global name of the member name -> JSON text table of ``enum``."""
    return _global({m._name_: _json_str(m._name_) for m in enum})


@functools.cache
def _function(tp) -> str:
    """The global name of a generated function giving a ``tp`` value's JSON text."""
    body: list[str] = []
    template, args = _template(tp, "o", body)
    return _define(tp.__name__ + "_json", ["o"], body + [_fill(template, args)])


def _line_function(kind: str, tp) -> Callable[[object, str], str]:
    """``(record, campaign) -> line`` for the records of one kind."""
    body: list[str] = []
    members = {"v": (str(SCHEMA_VERSION), ""), "kind": (_json_str(kind), ""),
               "campaign": _template(str, "campaign", body)}
    members.update(_fields(tp, "rec", body))
    template, args = _object(members)
    return _NS[_define(kind + "_line", ["rec", "campaign"], body + [_fill(template + "\n", args)])]


# Decoding is generated the same way: one function per dataclass, AlertMsg
# and tuple annotation, reading each field once, in field order, and testing
# its exact type inline. The first wrong value raises SchemaMismatch,
# "<field>: missing" or "<field>: expected <type>, got <value>", each nested
# field adding its name in front; a record's own refusal (__post_init__'s
# ValueError) reads as its text.

# The test that a value in local {0} is not of a scalar type; an int passes for a float.
_NOT_SCALAR = {
    int: "type({0}) is not int",
    float: "type({0}) is not float and type({0}) is not int",
    str: "type({0}) is not str",
    bool: "type({0}) is not bool",
}


@functools.cache
def _members(enum: type[Enum]) -> str:
    """The global name of the member name -> member table of ``enum``."""
    return _global(dict(enum.__members__))


def _checks(tp, var: str, where: str) -> list[str]:
    """Statements that check local ``var`` against annotation ``tp`` and
    rebind it to the value it stands for; an error's text starts with ``where``."""
    inner = get_args(tp)[0] if get_origin(tp) is Union else None  # Optional[inner]
    if inner in _NOT_SCALAR:
        test = _NOT_SCALAR[inner].format(var)
        return ["if %s is not None and %s: _bad(%r, %s)"
                % (var, test, "%sexpected %s or null" % (where, inner.__name__), var)]
    if inner is not None:
        return ["if %s is not None:" % var] + ["    " + s for s in _checks(inner, var, where)]
    if tp in _NOT_SCALAR:
        test = _NOT_SCALAR[tp].format(var)
        return ["if %s: _bad(%r, %s)" % (test, "%sexpected %s" % (where, tp.__name__), var)]
    if isinstance(tp, type) and issubclass(tp, Enum):
        table = _members(tp)
        return ["if type({0}) is not str or {0} not in {1}: _bad({2!r}, {0})".format(
                    var, table, "%sexpected %s" % (where, tp.__name__)),
                "%s = %s[%s]" % (var, table, var)]
    call = "%s = %s(%s)" % (var, _decoder(tp), var)
    if not where:
        return [call]
    return ["try:", "    " + call,
            "except (ValueError, SchemaMismatch) as e:",
            "    raise SchemaMismatch(%r + str(e)) from None" % where]


def _object_decoder(tp, name: str, where: str = "", head: Sequence[str] = ()) -> str:
    """The global name of a generated ``(json value) -> tp`` for a dataclass ``tp``.

    ``head`` holds statements run on the object before its fields.
    """
    hints, body, names = get_type_hints(tp), [], []
    body.append("if not isinstance(d, dict): _bad(%r, d)" % (where + "expected object"))
    body.extend(head)
    for f in dataclasses.fields(tp):
        var = "v%d" % len(names)
        names.append(var)
        body += ["try:", "    %s = d[%r]" % (var, f.name),
                 "except KeyError:",
                 "    raise SchemaMismatch(%r) from None" % (where + f.name + ": missing")]
        body += _checks(hints[f.name], var, "%s%s: " % (where, f.name))
    body += ["try:", "    return %s(%s)" % (_global(tp), ", ".join(names)),
             "except ValueError as e:",
             "    raise SchemaMismatch(%r + str(e)) from None" % where]
    return _define(name, ["d"], body)


@functools.cache
def _decoder(tp) -> str:
    """The global name of a generated ``(json value) -> value`` for a tuple,
    an AlertMsg or a dataclass annotation ``tp``."""
    if get_origin(tp) is tuple:  # tuple[X, ...]
        item = get_args(tp)[0]
        body = ["if type(v) is not list: _bad('expected list', v)", "items = []", "for x in v:"]
        body += ["    " + s for s in _checks(item, "x", "") + ["items.append(x)"]]
        return _define(item.__name__ + "_tuple_from_json", ["v"], body + ["return tuple(items)"])
    if tp is wire.AlertMsg:
        levels = _global({level.value: level for level in wire.AlertLevel})
        return _define("AlertMsg_from_json", ["v"], [
            "if type(v) is not list: _bad('expected [level, description]', v)",
            "level, description = v",
            *_checks(int, "level", ""),
            "if level not in %s: raise ValueError(f'{level} is not a valid AlertLevel')" % levels,
            "level = %s[level]" % levels,
            *_checks(int, "description", ""),
            "return %s(level, description)" % _global(wire.AlertMsg),
        ])
    return _object_decoder(tp, tp.__name__ + "_from_json")


def _record_decoder(kind: str, tp) -> Callable[[object], object]:
    """``(store object) -> record`` for the records of one kind: the object
    must carry ``"v": SCHEMA_VERSION`` (an int, not true or 1.0) and ``kind``."""
    where = "bad %s record: " % kind
    head = ["version, kind = d.get('v'), d.get('kind')",
            "if type(version) is not int or version != %d or kind != %r: _bad(%r, (version, kind))"
            % (SCHEMA_VERSION, kind, "%sexpected v %d, kind %r" % (where, SCHEMA_VERSION, kind))]
    return _NS[_object_decoder(tp, kind + "_record_from_dict", where, head)]


_KINDS = {"scan": ScanRecord, "inspection": InspectionRecord, "session": SessionOutcome}
_LINES = {tp: _line_function(kind, tp) for kind, tp in _KINDS.items()}

scan_record_from_dict: Callable[[dict], ScanRecord] = _record_decoder("scan", ScanRecord)
inspection_record_from_dict: Callable[[dict], InspectionRecord] = _record_decoder(
    "inspection", InspectionRecord)
session_record_from_dict: Callable[[dict], SessionOutcome] = _record_decoder(
    "session", SessionOutcome)


# A store line of another campaign is recognized, not parsed: a regular
# expression generated from the annotations, as the line functions are,
# accepts the lines they write whose strings need no escape: each kind's
# keys in sorted order, no whitespace. A string holds printable ASCII other
# than " and \, so the campaign it captures is the decoded one. A number
# follows the JSON grammar, or is NaN or +-Infinity as the encoder writes
# them, and each digit run is bounded far below the 4300 digits CPython
# converts to an int (repr writes at most 17 digits; 2**128 has 39). So
# every line it accepts is one that json.loads turns into an object with
# that "campaign". An enum is matched as any such string: a line of another
# campaign is dropped, never decoded, so only its JSON must be checked.

_MAX_DIGITS = 100
_CHARS = r"[ !#-\[\]-~]*"  # a string's text
_INT = "-?(?:0|[1-9][0-9]{0,%d})" % (_MAX_DIGITS - 1)
_SCALAR_PATTERNS = {
    int: _INT,
    float: r"(?:%s(?:\.[0-9]{1,%d})?(?:[eE][-+]?[0-9]{1,%d})?|NaN|-?Infinity)"
           % (_INT, _MAX_DIGITS, _MAX_DIGITS),
    str: '"%s"' % _CHARS,
    bool: "(?:true|false)",
}


@functools.cache
def _pattern(tp) -> str:
    """A regular expression for the JSON text that _template writes for a
    value of annotation ``tp`` when that text holds no escape. It matches
    nothing that is not JSON of that shape, but an enum's name may be any
    string."""
    origin = get_origin(tp)
    if origin is Union:  # Optional[X]
        return "(?:null|%s)" % _pattern(get_args(tp)[0])
    if origin is tuple:  # tuple[X, ...], X written once: a comma follows an item unless "]" does
        return r"\[(?:%s(?:,(?!\])|(?=\])))*\]" % _pattern(get_args(tp)[0])
    if tp is wire.AlertMsg:
        return r"\[%s,%s\]" % (_INT, _INT)
    if isinstance(tp, type) and issubclass(tp, Enum):
        return _SCALAR_PATTERNS[str]
    if tp in _SCALAR_PATTERNS:
        return _SCALAR_PATTERNS[tp]
    members = _member_patterns(tp)
    return r"\{%s\}" % ",".join('"%s":%s' % (k, members[k]) for k in sorted(members))


def _member_patterns(tp) -> dict[str, str]:
    hints = get_type_hints(tp)
    return {f.name: _pattern(hints[f.name]) for f in dataclasses.fields(tp)}


@functools.cache
def _recognizer() -> Callable:
    """``recognize(line)`` matches a whole line of any kind, ``\\n``
    included, and captures its campaign as group 1.

    Each kind's keys before "campaign", and those after it, are one
    alternative of each part; a head of one kind with the tail of another
    is still an object with that campaign. The pattern compiles in
    milliseconds, so RecordStore.load builds it only on the first line
    that does not hold the campaign it reads.
    """
    heads, tails = {}, {}  # insertion-ordered sets
    for kind, tp in _KINDS.items():
        members = {**_member_patterns(tp), "v": str(SCHEMA_VERSION), "kind": '"%s"' % kind}
        keys = sorted([*members, "campaign"])
        at = keys.index("campaign")
        heads["".join('"%s":%s,' % (k, members[k]) for k in keys[:at])] = None
        tails["".join(',"%s":%s' % (k, members[k]) for k in keys[at + 1:])] = None
    return re.compile(r'\{(?:%s)"campaign":"(%s)"(?:%s)\}\n?'
                      % ("|".join(heads), _CHARS, "|".join(tails))).fullmatch


def record_line(record, campaign: str = "") -> str:
    """The store line of a ScanRecord, an InspectionRecord or a
    SessionOutcome: one JSON object, sorted keys, no spaces, ending in
    ``\\n``."""
    try:
        line = _LINES[type(record)]
    except KeyError:
        raise SchemaMismatch("not a record: %.40r" % (record,)) from None
    return line(record, campaign)


def decode_record(data: dict):
    """A scan or inspection object of the store as its record; any other as it is."""
    kind = data.get("kind")
    if kind == "scan":
        return scan_record_from_dict(data)
    return inspection_record_from_dict(data) if kind == "inspection" else data


def scans_and_inspections(records: Iterable) -> tuple[list[ScanRecord], list[InspectionRecord]]:
    """The scan and inspection records among store objects decoded by
    decode_record, in one pass; skip other kinds."""
    scans: list[ScanRecord] = []
    inspections: list[InspectionRecord] = []
    for r in records:
        if type(r) is ScanRecord:
            scans.append(r)
        elif type(r) is InspectionRecord:
            inspections.append(r)
    return scans, inspections


# -- store ---------------------------------------------------------------------


@dataclass
class LoadResult:
    records: list  # the kept objects, or what load's ``decode`` made of them
    errors: list[ParseFailure] = field(default_factory=list)


class RecordStore:
    """Append-only JSON-lines log. Writes are serialized; reads are not.

    Appends go through one unbuffered binary handle, opened on the first
    append; each flushing append is one write of its lines' bytes (more
    only if the system takes part of them), so a killed process leaves
    every line flushed so far. close(), or the end of a ``with`` block,
    releases the handle.
    """

    def __init__(self, path) -> None:
        self.path = Path(path)
        self._write_lock = threading.Lock()
        self._fh = None
        self._held = ""  # lines appended with flush=False

    def append(self, record, *, campaign: str = "", flush: bool = True) -> str:
        """Add one record as one line, ``record_line(record, campaign)``, and
        return that line.

        Lines appended with ``flush=False`` wait for the next flushing append
        and go out in its one write, all or none; close() drops them.
        """
        line = record_line(record, campaign)
        with self._write_lock:
            self._held += line
            if not flush:
                return line
            data, self._held = self._held.encode(), ""
            try:
                if self._fh is None:
                    self._fh = self.path.open("ab", buffering=0)
                while data:  # an unbuffered write may take part of its bytes
                    data = data[self._fh.write(data):]
            except OSError as exc:
                raise IoFailure("cannot append to %s: %s" % (self.path, exc)) from exc
        return line

    def close(self) -> None:
        with self._write_lock:
            self._held = ""
            if self._fh is not None:
                self._fh.close()
                self._fh = None

    def __enter__(self) -> "RecordStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def load(self, *, campaign: Optional[str] = None,
             decode: Optional[Callable[[dict], object]] = None) -> LoadResult:
        """Read every line, or one campaign's. Corrupt lines become errors, not silent drops.

        Lines end at ``\\n`` only. They are read through one buffered text
        handle, so memory holds its buffer (or one line, if longer) plus
        the kept records. A corrupt line of any campaign is reported: with
        ``campaign``, an ASCII line that _recognizer accepts as a record
        line of another campaign is dropped unparsed; every other line is
        parsed. With ``decode``, each kept object is replaced by
        ``decode(object)`` as it is read, not held.
        """
        result = LoadResult(records=[])
        records, errors = result.records, result.errors
        # A line holding this text is parsed; it costs a line of the
        # campaign one substring test. A line without it is of another
        # campaign, or is written with an escape or a space, which the
        # recognizer refuses.
        tag = None if campaign is None else '"campaign":%s' % _json_str(campaign)
        recognize = None
        try:
            # surrogateescape: a line that is not UTF-8 is read, then reported.
            with self.path.open(encoding="utf-8", errors="surrogateescape", newline="\n") as fh:
                for number, line in enumerate(fh, 1):
                    # One scan of an ASCII line (never empty) that holds
                    # exactly one object and nothing else; any other line
                    # takes _parse_line, which gives the same records and
                    # the same errors. A recognized line of another
                    # campaign is dropped unscanned.
                    if line[0] == "{" and line.isascii():
                        if tag is not None and tag not in line:
                            if recognize is None:
                                recognize = _recognizer()
                            other = recognize(line)
                            if other is not None and other[1] != campaign:
                                continue
                        try:
                            data, stop = _scan_value(line, 0)
                        except (ValueError, StopIteration, RecursionError):
                            stop = 0
                        if line[stop:] not in ("\n", ""):  # not the line's end
                            data = _parse_line(line, number, errors)
                    else:
                        data = _parse_line(line, number, errors)
                    if data is not None and (campaign is None or data.get("campaign") == campaign):
                        records.append(data if decode is None else decode(data))
        except OSError as exc:
            raise IoFailure("cannot read %s: %s" % (self.path, exc)) from exc
        return result


# The C scanner behind json.loads: called on a whole line, it skips
# json.loads' wrapper and whitespace checks.
_scan_value = json.JSONDecoder().scan_once
# The encoder that json.dumps with these options would build for every call.
_encode_line = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def json_line(data: Mapping) -> str:
    """A plain dict (a truth row, the report table) as one line of JSON, in
    the store's format: sorted keys, no spaces, ``\\n``."""
    return _encode_line(data) + "\n"


def _parse_line(line: str, number: int, errors: list[ParseFailure]) -> Optional[dict]:
    """The object on one store line, or None for a blank or corrupt one, which adds an error."""
    line = line.removesuffix("\n")
    try:
        line.encode("utf-8", "surrogateescape").decode("utf-8")
        if not line.strip():
            return None
        data = json.loads(line)
    except UnicodeDecodeError as exc:
        reason = "not UTF-8: %s" % exc
    except ValueError as exc:  # JSONDecodeError, or an int of more digits than CPython converts
        reason = str(exc)
    except RecursionError:
        reason = "nested too deeply to parse"
    else:
        if isinstance(data, dict):
            return data
        reason = "not a JSON object"
    errors.append(ParseFailure(number, reason))
    return None


# -- aggregation ---------------------------------------------------------------


@record
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


@record
class AggregateReport:
    """Nested selects/supports table over one campaign's records.

    Main chain, each row a subset of the one above:
      dataset -> responding -> select non-FS -> stable -> support FS
      -> select FS non-AE -> support FS+AE.
    The lose-AE branch hangs off select FS non-AE. Device typing is a
    side channel over whichever responding hosts have a device label.
    The fields after ``unmatched_inspections`` are the table, in text order.
    """

    campaign: str
    # Inspection records left uncounted, since their address has no
    # responding non-FS scan among the records (a cut store); not a row.
    unmatched_inspections: int
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
    def from_counts(
        cls, campaign: str, counts: Mapping[str, int], unmatched_inspections: int
    ) -> "AggregateReport":
        """Build the table from one count per row; each percent is over its ``over`` count."""
        rows = {}
        for f in _TABLE:
            count, over = counts[f.name], f.metadata["over"]
            if over is None:
                rows[f.name] = count
            else:
                denominator = counts[over]
                rows[f.name] = Level(count, 100.0 * count / denominator if denominator else None)
        return cls(campaign, unmatched_inspections, **rows)

    def to_dict(self) -> dict:
        data = {"campaign": self.campaign}
        for f in _TABLE:
            value = getattr(self, f.name)
            if isinstance(value, Level):
                value = {"count": value.count,
                         "pct": None if value.pct is None else round(value.pct, 2)}
            data[f.name] = value
        return data


_TABLE = dataclasses.fields(AggregateReport)[2:]
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
    device_meta: Optional[Callable[[set[str]], Mapping[str, str]]] = None,
    *,
    campaign: str = "",
) -> AggregateReport:
    """Fold one campaign's decoded records into the nested table, one pass each.

    ``device_meta`` is asked once, after the scans, with the set of
    responding IPs, and maps an IP to its device label, as
    ``metadata.device_type`` returns it; an empty label is a covered
    host that is not a network device. An inspection counts only if its
    address has a responding non-FS scan among ``scan_records``; the
    report's ``unmatched_inspections`` says how many did not.
    """
    dataset = responding = select_non_fs = 0
    # The structures that grow with the input: every host and, for device
    # typing, the responding hosts, both by IP, and the addresses that
    # selected non-FS.
    hosts, responders, non_fs = set(), set(), set()
    for rec in scan_records:
        host = split_address(rec.address)[0]
        hosts.add(host)
        dataset += 1
        if rec.result is not ScanResultKind.RESPONDED:
            continue
        responding += 1
        if device_meta is not None:
            responders.add(host)
        if not is_fs(rec.selected_suite):
            select_non_fs += 1
            non_fs.add(rec.address)
    labels = {} if device_meta is None else device_meta(responders)
    covered = [host for host in responders if host in labels]
    # An unmatched inspection counts under the key None.
    steps = Counter((rec.classification, rec.lose_ae) if rec.address in non_fs else None
                    for rec in inspection_records)
    unmatched = steps.pop(None, 0)

    def inspected(classes, lose_ae=(False, True)) -> int:
        return sum(n for (c, lost), n in steps.items() if c in classes and lost in lose_ae)

    regains_ae = {Classification.STABLE_FS_NONAE_BUT_SUPPORTS_FS_AE}
    return AggregateReport.from_counts(campaign, dict(
        dataset_size=dataset,
        responding=responding,
        distinct_ip=len(hosts),
        metadata_responders=len(covered),
        network_device=sum(labels[host] != "" for host in covered),
        select_non_fs=select_non_fs,
        stable=inspected(STABLE_CLASSES),
        support_fs=inspected(FS_SUPPORT_CLASSES),
        select_fs_non_ae=inspected(FS_NONAE_PICK_CLASSES),
        support_fs_ae=inspected(regains_ae),
        lose_ae=inspected(Classification, (True,)),
        lose_ae_support_fs_ae=inspected(regains_ae, (True,)),
    ), unmatched)
