"""The package's public surface: every exported name resolves, and the
benchmark's span tracer (bench/spans.py) still finds every function it
wraps, so a traced benchmark run does not fail on a removed name."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import annulus_kernels

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_exported_name_resolves():
    missing = [n for n in annulus_kernels.__all__ if not hasattr(annulus_kernels, n)]
    assert missing == []


def test_every_traced_function_resolves_and_the_tracer_installs():
    spans = _spans_module()
    for module_name, names in spans.TRACED.items():
        module = importlib.import_module(module_name)
        for name in names:
            assert callable(getattr(module, name, None)), (module_name, name)
    table_module, table_name = spans.SUITE_TABLE
    table = getattr(importlib.import_module(table_module), table_name)
    before = dict(table)
    tracer = spans.Tracer()
    tracer.install()
    tracer.uninstall()
    assert table == before
