"""The benchmark's span tracer wraps befs names that must keep existing.

``perfbench/spans.py`` looks every traced function and method up by name
when ``perfbench/run.py --trace 1`` starts. A rename or a deletion in befs
would break only that traced run, so this test resolves each name here.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("befs_perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _spans()


@pytest.mark.parametrize("module, name", spans.FUNCTIONS,
                         ids=["%s.%s" % entry for entry in spans.FUNCTIONS])
def test_traced_function_exists(module, name):
    assert module in spans.MODULES
    assert callable(getattr(importlib.import_module("befs." + module), name))


@pytest.mark.parametrize("module, cls, method, span", spans.METHODS,
                         ids=[entry[3] for entry in spans.METHODS])
def test_traced_method_exists(module, cls, method, span):
    assert module in spans.MODULES
    owner = getattr(importlib.import_module("befs." + module), cls)
    assert callable(getattr(owner, method))
