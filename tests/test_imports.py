"""Every name a befs module imports at its top is used in that module.

No linter comes with befs, so this reads each module's syntax tree. An
import that nothing reads still costs start-up time and resident memory
in every befs process: the socket modules, for one, cost a memory
campaign about 0.55 MB. Names a module lists in ``__all__`` are its
re-exports, and ``from __future__`` imports are compiler switches.
"""

import ast
from pathlib import Path

import pytest

import befs

SOURCES = sorted(Path(befs.__file__).resolve().parent.glob("*.py"))


def _top_level(body):
    """The module's statements, through if, try and with blocks, not into
    a function or a class: an import inside a function is a lazy one."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        yield node
        for block in ("body", "orelse", "finalbody"):
            yield from _top_level(getattr(node, block, ()))
        for handler in getattr(node, "handlers", ()):
            yield from _top_level(handler.body)


def _imports(tree):
    """(bound name, line) of each module-level import."""
    for node in _top_level(tree.body):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _exported(tree) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    spare = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | _exported(tree)
    return ["line %d: %s" % (line, name) for name, line in _imports(tree) if name not in spare]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_every_module_level_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_only_the_loopback_module_imports_a_socket_module():
    # A memory campaign and a report load neither (test_metadata checks it).
    socket_modules = {"socket", "selectors", "select"}
    importers = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                names = {node.module}
            else:
                continue
            if names & socket_modules:
                importers.add(path.name)
    assert importers == {"loopback.py"}


def test_the_traced_connector_name_is_the_loopback_class():
    # perfbench/spans.py wraps handshake.TcpConnector.exchange by that name.
    from befs import handshake, loopback
    assert handshake.TcpConnector is loopback.TcpConnector
    with pytest.raises(AttributeError):
        handshake.read_record


def test_the_check_finds_an_unused_import_and_spares_the_rest():
    source = '''
from __future__ import annotations
import os
import socket as sk
from typing import Optional
try:
    from _sha2 import sha256
except ImportError:
    from hashlib import sha256, md5
from .fleetsim import SimServer, Harness

__all__ = ["Harness"]

def f(x: Optional[SimServer]) -> bytes:
    import heapq
    return sha256(x)
'''
    assert unused_imports(source) == ["line 3: os", "line 4: sk", "line 9: md5"]
