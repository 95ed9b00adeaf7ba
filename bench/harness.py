"""Closed-loop timing of one workload, its checks, and its metrics.

One caller issues the workload's operations in order, each only after the
previous one returned, and repeats the whole pass until the run's seconds
are spent (at least one pass).  The host's speed is calibrated before the
first pass and after each pass (hostspeed).  A raised KernelError is
recorded as that operation's output and counts as a failed operation.
A traced run also prints the workload's untimed findings.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import statistics
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import mpmath
import numpy as np
import scipy

from annulus_kernels.errors import KernelError

import hostspeed
import layers
import startup
from spans import Tracer
from workloads import WORKLOADS

# the tail percentile is the highest with this many distinct calls beyond it
TAIL_BEYOND = 10
# calibrations before the first pass and after each pass: with one, the
# best calibration of a grid or verify run (about 25 passes) was itself
# noisy
CALIBRATIONS = 5
OUT_DIR = ".bench_out"

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


@dataclass
class Timing:
    latencies_s: list[float]  # one per call, pass after pass
    pass_walls_s: list[float]
    calibrations_s: list[float]  # hostspeed.calibrate() around the passes
    first: list  # outputs of the first pass
    last: list  # outputs of the last pass

    def best_s(self) -> np.ndarray:
        """Each operation's best latency over the passes, as measured.  The
        host's speed drifts by half over seconds; repeats of one identical
        call are the least disturbed estimate of its cost."""
        per_pass = np.asarray(self.latencies_s).reshape(len(self.pass_walls_s), -1)
        return per_pass.min(axis=0)

    def reference_s(self) -> np.ndarray:
        """best_s() read at the reference speed: scaled by the run's best
        calibration, which catches the same fastest spell."""
        return self.best_s() * hostspeed.scale(self.calibrations_s)


def timed_passes(workload, seconds: float, tracer: Tracer | None = None) -> Timing:
    ops = workload.ops
    latencies, walls = [], []
    calibrations = [hostspeed.calibrate() for _ in range(CALIBRATIONS)]
    first = last = None
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        if tracer is not None:
            tracer.begin_pass(len(walls))
        outputs = [None] * len(ops)
        # the cyclic garbage collector runs between passes, not inside a
        # timed call (as in timeit)
        gc.collect()
        gc.disable()
        try:
            t_pass = time.perf_counter()
            for i, op in enumerate(ops):
                t0 = time.perf_counter()
                try:
                    outputs[i] = op.call() if tracer is None else tracer.request(
                        f"bench.{workload.name}", op.call)
                except KernelError as exc:
                    outputs[i] = exc
                latencies.append(time.perf_counter() - t0)
            walls.append(time.perf_counter() - t_pass)
        finally:
            gc.enable()
        calibrations.extend(hostspeed.calibrate() for _ in range(CALIBRATIONS))
        if first is None:
            first = outputs
        last = outputs
    return Timing(latencies, walls, calibrations, first, last)


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and np.array_equal(a, b)
    if hasattr(a, "canonical"):
        return a.canonical() == b.canonical()
    if isinstance(a, Exception):
        return type(a) is type(b) and str(a) == str(b)
    return a == b


def tail_percentile(distinct_per_pass: int) -> float:
    """Highest percentile with TAIL_BEYOND distinct calls of a pass beyond
    it (the maximum when a pass has fewer)."""
    if distinct_per_pass <= TAIL_BEYOND:
        return 100.0
    return 100.0 * (1.0 - TAIL_BEYOND / distinct_per_pass)


def machine_record(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "seed": seed,
    }


def run_benchmark(name: str, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    """Run one workload; returns the result object and the lines to print."""
    lines = []
    setup_samples, imports = startup.measure(root, layers.IMPORT_MODULES)

    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=".bench-tmp-", dir=root) as tmp:
        workload = WORKLOADS[name](seed, Path(tmp))
        # untimed call: lazy imports and first-use set-up
        try:
            workload.ops[0].call()
        except KernelError:
            pass
        tracer = Tracer() if trace else None
        if tracer is not None:
            tracer.install()
        try:
            timing = timed_passes(workload, seconds, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        # the workload's peak, before the checks compute their references
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        verdict = workload.check(timing.first)
        if trace:
            verdict.lines.extend(workload.findings(verdict))
    for i, (a, b) in enumerate(zip(timing.first, timing.last)):
        if not _same(a, b):
            verdict.wrong.append(f"{workload.ops[i].label}: output changed between passes")

    passes = len(timing.pass_walls_s)
    lines.append(
        f"workload {name}: {len(workload.ops)} operations per pass, {passes} passes, "
        f"closed loop, 1 caller, seed {seed}, trace {int(trace)}"
    )
    lines.extend(verdict.lines)
    lines.extend(f"WRONG: {w}" for w in verdict.wrong)
    attempted = verdict.attempted * passes
    failed = verdict.failed * passes
    lines.append(
        f"fail_ratio {failed / attempted:.6g} ({failed} failed of {attempted} attempted "
        f"{'checked residuals' if name == 'verify' else 'operations'})"
    )

    metrics: dict[str, dict] = {}
    speed = hostspeed.scale(timing.calibrations_s)
    lines.append(
        f"host speed: best calibration {min(timing.calibrations_s) * 1e3:.4g} ms of "
        f"{len(timing.calibrations_s)} (reference {hostspeed.CAL_REFERENCE_S * 1e3:g} ms): "
        f"times are read at the reference speed, x {speed:.4g}"
    )
    if trace:
        wall_s = float(timing.reference_s().sum())
        values, extra = layers.per_layer(tracer.per_pass(), wall_s, imports)
        lines.extend(extra)
        for metric, unit in layers.metric_units().items():
            metrics[metric] = {"value": values[metric], "unit": unit}
        tracer.write(out_dir / f"spans-{name}-seed{seed}.json")
        untraced = out_dir / f"result-{name}-seed{seed}-trace0.json"
        if untraced.is_file():
            base = json.loads(untraced.read_text(encoding="utf-8"))["metrics"]["wall_s"]["value"]
            lines.append(f"tracing overhead: wall_s {wall_s - base:+.4g} s "
                         f"({wall_s:.4g} traced vs {base:.4g} untraced)")
    else:
        best_ms = timing.reference_s() * 1e3
        units = sum(workload.units(op, out) for op, out in zip(workload.ops, timing.first))
        wall_s = float(best_ms.sum()) / 1e3
        p_tail = tail_percentile(best_ms.size)
        metrics = {
            "setup_s": statistics.median(setup_samples),
            "wall_s": wall_s,
            "throughput_per_s": units / wall_s,
            "latency_p50_ms": float(np.percentile(best_ms, 50)),
            "latency_tail_ms": float(np.percentile(best_ms, p_tail)),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
        lines.append(f"setup_s: median of {len(setup_samples)} fresh-interpreter imports")
        lines.append(
            f"wall_s: one pass, summed from each call's best time over {passes} passes "
            f"at the reference speed; as measured {float(timing.best_s().sum()):.4g} s"
        )
        lines.append(f"throughput_per_s: {workload.unit} per second of wall_s")
        lines.append(
            f"latency: {best_ms.size} samples, one per call, each the best of "
            f"{passes} passes at the reference speed; tail is p{p_tail:.4g}, "
            f"{TAIL_BEYOND} calls beyond it"
        )
    for metric, m in metrics.items():
        lines.append(f"{metric:<48} {m['value']:>14.6g} {m['unit']}")

    result = {
        "correct": not verdict.wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    record = {**result, "machine": machine_record(seed), "workload": name,
              "seconds": seconds, "trace": int(trace), "notes": lines}
    (out_dir / f"result-{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    lines.insert(0, "machine: " + json.dumps(record["machine"]))
    return {"result": result, "lines": lines}
