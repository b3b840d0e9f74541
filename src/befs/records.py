"""The one way befs declares a value type: ``@record``.

A record is a frozen, slotted dataclass. A frozen dataclass's ``__init__``
stores each field with ``object.__setattr__(self, name, value)``, which
looks the name up on the class on every call; a record's ``__init__``
calls each field's slot descriptor directly. Everything else, equality,
hashing, repr, immutability, the constructor's signature and
``dataclasses.fields``/``asdict``/``replace``, is the dataclass's own.
"""

from __future__ import annotations

import dataclasses

_MISSING = dataclasses.MISSING


# A frozen dataclass's own __setattr__ and __delattr__ refer to the class
# it had before slots were added, so for a name that is not a field they
# raise TypeError; a record refuses every name alike.
def _refuse_assignment(self, name, value):
    raise dataclasses.FrozenInstanceError("cannot assign to field %r" % name)


def _refuse_deletion(self, name):
    raise dataclasses.FrozenInstanceError("cannot delete field %r" % name)


def record(cls):
    """``@dataclass(frozen=True, slots=True)``, built through the slot descriptors.

    The generated ``__init__`` takes the dataclass's parameters, with the
    same defaults and annotations, stores each field through its slot and
    then runs ``__post_init__``, if the class has one. A field with a
    ``default_factory``, a keyword-only field and an ``init=False`` field
    are refused.
    """
    cls = dataclasses.dataclass(frozen=True, slots=True)(cls)
    generated = cls.__init__
    scope: dict = {}
    params: list[str] = []
    body: list[str] = []
    for f in dataclasses.fields(cls):
        if f.default_factory is not _MISSING or f.kw_only or not f.init:
            raise TypeError("record %s: field %s: default_factory, kw_only and init=False are"
                            " not supported" % (cls.__qualname__, f.name))
        setter = "_set_" + f.name
        scope[setter] = cls.__dict__[f.name].__set__
        default = "_default_" + f.name
        if f.default is not _MISSING:
            scope[default] = f.default
        params.append(f.name if f.default is _MISSING else "%s=%s" % (f.name, default))
        body.append("%s(self, %s)" % (setter, f.name))
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    exec("def __init__(self, %s):\n    %s\n" % (", ".join(params), "\n    ".join(body)), scope)
    init = scope["__init__"]
    init.__qualname__ = generated.__qualname__
    init.__module__ = cls.__module__
    init.__annotations__ = generated.__annotations__
    cls.__init__ = init
    cls.__setattr__ = _refuse_assignment
    cls.__delattr__ = _refuse_deletion
    return cls
