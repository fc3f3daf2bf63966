"""The public surface stays whole: every name a module exports resolves, and
every function the benchmark tracer wraps still lives where it looks."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import mmiga

MODULES = sorted(info.name for info in pkgutil.iter_modules(mmiga.__path__))
TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"mmiga.{name}")
    exported = getattr(module, "__all__", ())
    assert [n for n in exported if not hasattr(module, n)] == []


def test_traced_functions_exist():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{mod}.{fn}"
        for mod, fns in tracing.TRACED.items()
        for fn in fns
        if not callable(getattr(importlib.import_module(f"mmiga.{mod}"), fn, None))
    ]
    assert missing == []
