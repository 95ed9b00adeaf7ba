"""The package's public surface: every exported name resolves, and the
benchmark's span tracer (bench/spans.py) still finds every function it
wraps, so a traced benchmark run does not fail on a removed name."""

from __future__ import annotations

import importlib
import importlib.util
import math
from pathlib import Path

import annulus_kernels
from annulus_kernels import kernels
from annulus_kernels.geometry import AnnulusParams, polar_point
from annulus_kernels.quadrature import QuadratureSpec, annulus_nodes

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


def test_traced_grid_row_and_pair_record_one_span_each():
    # the traced benchmark charges a grid row and a pair to these spans, so
    # kernel_km_grid must reach no other traced name (kernel_km above all)
    spans = _spans_module()
    p = AnnulusParams(R=4.0, B=3.0)
    row = annulus_nodes(p, QuadratureSpec(n_angular=32, n_radial=32))[0].ravel()
    z = polar_point(0.325 * math.pi, 0.7, p)
    tracer = spans.Tracer()
    tracer.install()
    try:
        kernels.kernel_km_grid(1, z, row, p)
        kernels.kernel_km(1, z, complex(row[5]), p)
    finally:
        tracer.uninstall()
    names = [span[spans._NAME] for span in tracer.spans]
    assert names == ["kernels.kernel_km_grid", "kernels.kernel_km"]
    assert all(isinstance(span[spans._PREC], (str, type(None))) for span in tracer.spans)
