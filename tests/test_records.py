"""Value types declared with ``@record``: frozen, slotted dataclasses.

Each record is checked against a plain ``@dataclass(frozen=True)`` twin
built from the same annotations and fields: a record may differ from
the dataclass it stands for only in how it is stored.
"""

import ast
import dataclasses
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import befs
from befs import wire
from befs.client import BenchReport, FallbackStyle, ModeStats, PolicyConfig, PolicyMode
from befs.client import SessionOutcome, SessionStatus
from befs.fleetsim import (
    Archetype,
    ExpectedInspection,
    FleetSpec,
    GroundTruth,
    LatencyModel,
    TranscriptEntry,
)
from befs.handshake import AttemptKind, AttemptResult
from befs.inspection import Classification, InspectionRecord, ScanRecord, ScanResultKind
from befs.inspection import StepResult
from befs.negotiate import SelectionRule, ServerPolicy
from befs.records import record
from befs.report import AggregateReport, Level, aggregate
from befs.suites import ProfileKind

_ALERT = wire.AlertMsg(wire.AlertLevel.FATAL, wire.HANDSHAKE_FAILURE)
_PICKED = AttemptResult(AttemptKind.SELECTED, 0x002F, wire.TLS1_2, elapsed_s=0.125)
_REFUSED = AttemptResult(AttemptKind.REJECTED, alert=_ALERT, elapsed_s=0.5)
_STATS = ModeStats(0.5, 0.25, 0.375, 1.5, 4)

# Two unequal instances of every record type in befs.
EXAMPLES = {
    wire.AlertMsg: (_ALERT, wire.AlertMsg(wire.AlertLevel.WARNING, 0)),
    ServerPolicy: (
        ServerPolicy((0x002F,), frozenset({wire.TLS1_2})),
        ServerPolicy((0xC02F, 0x002F), frozenset({wire.TLS1_0, wire.TLS1_2}),
                     SelectionRule.CLIENT_PREFERENCE),
    ),
    AttemptResult: (_PICKED, _REFUSED),
    ScanRecord: (
        ScanRecord("198.51.100.7:443", 1.5, ScanResultKind.RESPONDED, 0x002F, wire.TLS1_2),
        ScanRecord("srv-0003", 12.5, ScanResultKind.TIMEOUT, None, None, "no answer"),
    ),
    StepResult: (StepResult(ProfileKind.DEFAULT, _PICKED),
                 StepResult(ProfileKind.FS_ONLY, _REFUSED)),
    InspectionRecord: (
        InspectionRecord("a", StepResult(ProfileKind.DEFAULT, _PICKED), None, None,
                         Classification.CHANGED_BEHAVIOR, False, False),
        InspectionRecord("b", StepResult(ProfileKind.DEFAULT, _PICKED),
                         StepResult(ProfileKind.FS_ONLY, _REFUSED), None,
                         Classification.STABLE_NO_FS_SUPPORT, False, False, 1.5, 2.75),
    ),
    PolicyConfig: (PolicyConfig(PolicyMode.BEFS),
                   PolicyConfig(PolicyMode.BESAFE, FallbackStyle.SIGNALED, 0.5)),
    SessionOutcome: (
        SessionOutcome(SessionStatus.CONNECTED, 0x002F, False, False, 1, 2, (0.5, 0.125),
                       (_REFUSED, _PICKED), PolicyMode.BEFS, "srv-0002:443",
                       FallbackStyle.SILENT),
        SessionOutcome(SessionStatus.FAILED, None, None, None, 0, 1, (0.5,)),
    ),
    ModeStats: (_STATS, ModeStats(1.0, 1.0, 1.0, 1.0, 1)),
    BenchReport: (BenchReport({PolicyMode.DEFAULT: _STATS}, 1, 1, ()),
                  BenchReport({}, 2, 0, ("a",))),
    LatencyModel: (LatencyModel(), LatencyModel(5.0, 1.5)),
    FleetSpec: (
        FleetSpec(1, 0, {Archetype.NONFS_ONLY: 1.0}),
        FleetSpec(4, 7, {Archetype.FS_PREFERRING: 0.5, Archetype.NONFS_ONLY: 0.5}, 0.25,
                  LatencyModel(2.0)),
    ),
    GroundTruth: (GroundTruth(True, True, True), GroundTruth(False, False, False, "printer")),
    ExpectedInspection: (
        ExpectedInspection(Classification.ERROR_H1),
        ExpectedInspection(Classification.STABLE_FS_NONAE_BUT_SUPPORTS_FS_AE, True, True),
    ),
    TranscriptEntry: (TranscriptEntry("a", b"\x16", None, 1.0),
                      TranscriptEntry("b", b"\x16", b"\x15", 2.0)),
    Level: (Level(3, 50.0), Level(0, None)),
    AggregateReport: (
        aggregate([], [], campaign="empty"),
        aggregate([ScanRecord("a:443", 1.0, ScanResultKind.RESPONDED, 0x002F)],
                  [], lambda hosts: {"a": "printer"}),
    ),
}


def _record_types() -> set[type]:
    """Every frozen dataclass defined in a befs module."""
    found = set()
    for info in pkgutil.iter_modules(befs.__path__):
        module = importlib.import_module("befs." + info.name)
        for value in vars(module).values():
            if (isinstance(value, type) and value.__module__ == module.__name__
                    and dataclasses.is_dataclass(value) and value.__dataclass_params__.frozen):
                found.add(value)
    return found


def _twin(cls: type) -> type:
    """A plain ``@dataclass(frozen=True)`` with the fields and __post_init__ of ``cls``."""
    namespace = {"__module__": cls.__module__, "__qualname__": cls.__qualname__,
                 "__annotations__": dict(cls.__annotations__)}
    for f in dataclasses.fields(cls):
        namespace[f.name] = dataclasses.field(
            default=f.default, init=f.init, repr=f.repr, hash=f.hash, compare=f.compare,
            metadata=f.metadata)
    if "__post_init__" in vars(cls):
        namespace["__post_init__"] = vars(cls)["__post_init__"]
    return dataclasses.dataclass(frozen=True)(type(cls.__name__, (), namespace))


def _init_args(obj) -> dict:
    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj) if f.init}


def _hash(obj):
    try:
        return hash(obj)
    except TypeError as exc:  # a record holding a dict is unhashable, as its twin is
        return str(exc)


def test_every_record_type_has_examples():
    assert _record_types() == set(EXAMPLES)
    assert len(EXAMPLES) == 17


@pytest.mark.parametrize("cls", list(EXAMPLES), ids=lambda cls: cls.__qualname__)
def test_record_behaves_as_its_frozen_dataclass_twin(cls):
    twin = _twin(cls)
    assert inspect.signature(cls) == inspect.signature(twin)
    assert inspect.signature(cls.__init__) == inspect.signature(twin.__init__)
    # The constructor stores through the slots, not through object.__setattr__.
    assert "__dataclass_builtins_object__" not in cls.__init__.__code__.co_names
    a, b = EXAMPLES[cls]
    args_a, args_b = _init_args(a), _init_args(b)
    twin_a, twin_b = twin(**args_a), twin(**args_b)
    assert cls(**args_a) == a and twin(**args_a) == twin_a
    assert (a == b) == (twin_a == twin_b) is False
    assert (a != b) == (twin_a != twin_b) is True
    assert repr(a) == repr(twin_a) and repr(b) == repr(twin_b)
    assert _hash(a) == _hash(twin_a) and _hash(b) == _hash(twin_b)
    assert dataclasses.asdict(a) == dataclasses.asdict(twin_a)
    assert dataclasses.replace(a) == a
    assert dataclasses.replace(a, **args_b) == b
    assert not hasattr(a, "__dict__")
    for f in dataclasses.fields(cls):
        assert getattr(a, f.name) == getattr(twin_a, f.name)
    for name in [f.name for f in dataclasses.fields(cls)] + ["not_a_field"]:
        for change in (lambda obj: setattr(obj, name, 1), lambda obj: delattr(obj, name)):
            with pytest.raises(dataclasses.FrozenInstanceError) as refused:
                change(a)
            with pytest.raises(dataclasses.FrozenInstanceError) as twin_refused:
                change(twin_a)
            assert str(refused.value) == str(twin_refused.value)


def test_record_constructor_runs_post_init():
    with pytest.raises(ValueError, match="selected_suite present iff RESPONDED"):
        ScanRecord("a", 1.0, ScanResultKind.RESPONDED)
    policy = ServerPolicy([0x002F, 0xC02F], {wire.TLS1_2})  # normalized in __post_init__
    assert policy.preference == (0x002F, 0xC02F) and set(policy.preference) == {0x002F, 0xC02F}


def test_record_refuses_what_its_constructor_cannot_store():
    class Factory:
        items: list = dataclasses.field(default_factory=list)

    class KeywordOnly:
        x: int = dataclasses.field(kw_only=True)

    class Derived:
        x: int = dataclasses.field(init=False)

    for cls in (Factory, KeywordOnly, Derived):
        with pytest.raises(TypeError, match="not supported"):
            record(cls)


def _frozen_dataclass_decorators(tree: ast.AST):
    """(line, class) of each class decorated with a ``dataclass(..., frozen=True)`` call."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for deco in node.decorator_list:
            if not isinstance(deco, ast.Call):
                continue
            func = deco.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            frozen = any(k.arg == "frozen" and not (isinstance(k.value, ast.Constant)
                                                    and not k.value.value)
                         for k in deco.keywords)
            if name == "dataclass" and frozen:
                yield deco.lineno, node.name


def test_no_frozen_dataclass_is_declared_but_through_record():
    """A new value type in befs is a ``@record``, so its constructor stores through slots."""
    sources = sorted(Path(befs.__file__).parent.glob("*.py"))
    assert len(sources) > 10
    offenders = ["%s:%d %s" % (path.name, line, name) for path in sources
                 for line, name in _frozen_dataclass_decorators(ast.parse(path.read_text()))]
    assert offenders == []


def test_the_guard_sees_a_frozen_dataclass():
    source = ("@dataclass(frozen=True)\nclass A: pass\n"
              "@dataclasses.dataclass(eq=True, frozen=True, slots=True)\nclass B: pass\n"
              "@dataclass(frozen=False)\nclass C: pass\n"
              "@record\nclass D: pass\n")
    assert list(_frozen_dataclass_decorators(ast.parse(source))) == [(1, "A"), (3, "B")]
