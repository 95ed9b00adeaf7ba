"""Tests of the benchmark itself: count determinism, output checks, names.

    python3 -m pytest bench/test_bench.py

They run reduced workloads (fewer parameter sets, one pass), so they take
well under a minute.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from annulus_kernels import errors, kernels, verify  # noqa: E402
from annulus_kernels.geometry import AnnulusParams  # noqa: E402

import checks  # noqa: E402
import harness  # noqa: E402
import hostspeed  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
import spans  # noqa: E402
from spans import Tracer  # noqa: E402


@pytest.fixture
def cheap_params(monkeypatch):
    """Restrict the workloads to the wide annulus, where every call is fast."""
    monkeypatch.setattr(workloads, "PARAM_SETS", ((50.0, 2.0),))


class _InversionWorkload(workloads.Workload):
    """A small suite whose kernel calls escalate to extended precision."""

    name = "verify-lite"
    unit = "checked residuals"

    def __init__(self, seed, workdir):
        p = AnnulusParams(R=4.0, B=3.0)
        opts = verify.SuiteOptions(seed=seed, n_points=2)
        self.ops = [workloads.Op("inversion", lambda: verify.run_suite("inversion", p, opts))]


def _traced_counts(workload) -> dict:
    tracer = Tracer()
    tracer.install()
    try:
        timing = harness.timed_passes(workload, seconds=0.0, tracer=tracer)
    finally:
        tracer.uninstall()
    assert len(timing.pass_walls_s) == 1
    values, _ = layers.per_layer(tracer.per_pass(), timing.pass_walls_s[0], {})
    return {
        name: value
        for name, value in values.items()
        if name.endswith((".calls", ".terms", ".nodes")) or name == layers.ESCALATION
    }


@pytest.mark.parametrize("kind", ["eval", "grid", "verify-lite"])
def test_counts_repeat_across_traced_runs(kind, cheap_params, tmp_path):
    make = _InversionWorkload if kind == "verify-lite" else workloads.WORKLOADS[kind]
    first = _traced_counts(make(11, tmp_path))
    second = _traced_counts(make(11, tmp_path))
    assert first == second
    assert any(first.values())
    if kind == "verify-lite":
        assert first["kernels.kernel_km.extended.calls"] > 0
        assert 0.0 < first[layers.ESCALATION] < 1.0


def test_tracer_restores_every_original():
    original = kernels.kernel_km
    table = dict(verify._SUITE_FUNCTIONS)
    tracer = Tracer()
    tracer.install()
    assert verify.kernel_km is not original
    assert verify.kernel_km is kernels.kernel_km
    tracer.uninstall()
    assert kernels.kernel_km is original and verify.kernel_km is original
    assert verify._SUITE_FUNCTIONS == table


def test_self_time_excludes_children():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(20000)))
    outer = tracer.wrap("outer", lambda: inner())
    outer()
    selfs = tracer.self_times()
    by_name = {s[4]: s for s in tracer.spans}
    duration = lambda s: s[6] - s[5]  # noqa: E731
    assert by_name["inner"][1] == by_name["outer"][0]
    assert selfs[by_name["outer"][0]] == pytest.approx(
        duration(by_name["outer"]) - duration(by_name["inner"]))


def _eval_outputs(workload):
    outputs = [None] * len(workload.ops)
    for i in workload.checked:
        outputs[i] = workload.ops[i].call()
    return outputs


def test_eval_check_flags_perturbed_value(cheap_params, tmp_path):
    workload = workloads.EvalWorkload(5, tmp_path)
    outputs = _eval_outputs(workload)
    assert workload.check(outputs).wrong == []
    i = workload.checked[0]
    outputs[i] = dataclasses.replace(outputs[i], value=outputs[i].value * (1 + 1e-6))
    verdict = workload.check(outputs)
    assert len(verdict.wrong) == 1 and verdict.failed == 1


def test_grid_check_flags_perturbed_value(cheap_params, tmp_path):
    workload = workloads.GridWorkload(5, tmp_path)
    outputs = [op.call() for op in workload.ops]
    assert workload.check(outputs).wrong == []
    row = next(i for i, op in enumerate(workload.ops) if op.label.startswith("kernel_km_grid"))
    outputs[row] = outputs[row] * (1 + 1e-6)
    verdict = workload.check(outputs)
    assert verdict.wrong and verdict.failed == 1


def test_injected_convergence_error_counts_as_failed(cheap_params, tmp_path, monkeypatch):
    workload = workloads.EvalWorkload(5, tmp_path)
    target = workload.items[workload.checked[0]]
    real = kernels.kernel_km

    def flaky(m, z, w, params, *args, **kwargs):
        if (params, m, z, w) == target:
            raise errors.ConvergenceError("injected")
        return real(m, z, w, params, *args, **kwargs)

    monkeypatch.setattr(kernels, "kernel_km", flaky)
    timing = harness.timed_passes(workload, seconds=0.0)
    monkeypatch.undo()
    verdict = workload.check(timing.first)
    assert verdict.failed == 1
    assert isinstance(timing.first[workload.checked[0]], errors.ConvergenceError)


def test_failing_residual_is_failed_not_wrong():
    entries = (verify.ResidualEntry("a", 1e-12, 1e-10), verify.ResidualEntry("b", 1e-6, 1e-7))
    report = verify.SuiteReport("x", {}, entries, passed=False, runtime_s=0.0)
    assert checks.check_report(report) == []
    workload = workloads.VerifyWorkload.__new__(workloads.VerifyWorkload)
    workload.seed = 5
    workload.ops, workload.refs = [workloads.Op("x", None)], [None]
    workload.thin_report = lambda: report
    verdict = workload.check([report])
    assert (verdict.attempted, verdict.failed, verdict.wrong) == (2, 1, [])
    # the untimed thin-annulus suite is printed, not counted
    lines = workload.findings(verdict)
    assert sum("known finding, untimed" in line for line in lines) == 1
    assert (verdict.attempted, verdict.failed, verdict.wrong) == (2, 1, [])
    workload.thin_report = _passing_report
    assert any("known finding gone" in line for line in workload.findings(verdict))
    inconsistent = dataclasses.replace(report, passed=True)
    assert checks.check_report(inconsistent)


def _passing_report():
    entries = (verify.ResidualEntry("a", 1e-12, 1e-10),)
    return verify.SuiteReport("x", {}, entries, passed=True, runtime_s=0.0)


def test_verify_inputs_do_not_depend_on_library_output(tmp_path, monkeypatch):
    def key(workload):
        return [op.label for op in workload.ops], workload.refs

    expected = key(workloads.VerifyWorkload(5, tmp_path))

    def refuse(*args, **kwargs):
        raise AssertionError("the library was called while choosing inputs")

    for module, names in spans.TRACED.items():
        for name in names:
            monkeypatch.setattr(sys.modules[module], name, refuse)
    monkeypatch.setattr(verify, "run_suite", refuse)
    assert key(workloads.VerifyWorkload(5, tmp_path)) == expected


def test_verify_check_counts_perturbed_kernel_km(tmp_path, monkeypatch):
    workload = workloads.VerifyWorkload(5, tmp_path)
    keep = [i for i, op in enumerate(workload.ops) if op.label == "kernel_km m=0"][:2]
    workload.ops = [workload.ops[i] for i in keep]
    workload.refs = [workload.refs[i] for i in keep]
    outputs = [op.call() for op in workload.ops]
    assert outputs[0][0].precision == "extended"
    verdict = workload.check(outputs)
    assert (verdict.attempted, verdict.failed) == (2, 0)
    outputs[0] = [dataclasses.replace(outputs[0][0], value=outputs[0][0].value * (1 + 1e-6))]
    verdict = workload.check(outputs)
    assert (verdict.attempted, verdict.failed) == (2, 1)
    # a kernel_km that is wrong everywhere: the reference is another path
    real = kernels.kernel_km

    def skewed(*args, **kwargs):
        ev = real(*args, **kwargs)
        return dataclasses.replace(ev, value=ev.value * (1 + 1e-6))

    monkeypatch.setattr(kernels, "kernel_km", skewed)
    verdict = workload.check([op.call() for op in workload.ops])
    assert (verdict.attempted, verdict.failed) == (2, 2)


def test_times_are_read_at_the_reference_speed():
    # two passes of two calls on a host running at half the reference speed
    timing = harness.Timing([0.4, 0.2, 0.3, 0.6], [0.6, 0.9],
                            [0.02, 2 * hostspeed.CAL_REFERENCE_S, 0.03], [], [])
    assert timing.best_s() == pytest.approx([0.3, 0.2])
    assert timing.reference_s() == pytest.approx([0.15, 0.1])


def test_tail_percentile_keeps_ten_beyond():
    for n in (55, 120, 600):
        p = harness.tail_percentile(n)
        assert np.sum(np.arange(n) > np.percentile(np.arange(n), p)) == 10
    assert harness.tail_percentile(5) == 100.0


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.metric_units()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_run_fails_without_library_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "eval", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

