"""Output checks of the three workloads.

Every reference is computed after the timed region.  A check returns the
list of problems it found; an empty list means the outputs are correct.

eval    each checked kernel_km value is compared with the basis-sum oracle
        (summed with a rounding budget, so ill-conditioned pairs escalate to
        extended precision).  The allowed error is EVAL_SAFETY times the sum
        of both certificates, tail_bound + eps * condition * |value|.
grid    each checked grid value is compared with a certified pointwise
        kernel_km value.  The grid carries no certificate of its own, so the
        allowed error is GRID_RTOL times the largest checked |K| of that grid
        (plus the reference's certificate).  The worst pointwise relative
        error is reported beside the check, whatever the tolerance.
verify  a suite report must be internally consistent: every residual finite
        and non-negative, and `passed` equal to "every residual within its
        tolerance".  Residuals the suite itself reports as failing are
        failed operations, not wrong outputs.
"""

from __future__ import annotations

import math

import numpy as np

EPS = float(np.finfo(float).eps)

# eps * condition undercounts rounding in the log-Gamma ladder by a small
# factor; over 480 seeded pairs at the four parameter sets the worst error
# was 6.9 times the summed certificates.
EVAL_SAFETY = 32.0
# oracle truncation target and rounding budget for the eval reference
ORACLE_TOL = 1e-13
ORACLE_ROUNDING_RTOL = 1e-10
# grid values must match the reference to this share of the grid's largest
# checked |K|; seen at most 5e-13 on the four parameter sets
GRID_RTOL = 1e-9
GRID_REF_ROUNDING_RTOL = 1e-9


def certificate(ev) -> float:
    """Error bound a KernelEvaluation claims: truncation tail plus binary64
    rounding amplified by the gross-to-net condition."""
    rounding = EPS * ev.condition * abs(ev.value) if ev.precision == "binary64" else 0.0
    return ev.tail_bound + rounding


def eval_ratio(ev, ref) -> float:
    """|value - reference| as a share of both certificates (nan if not finite)."""
    err = abs(complex(ev.value) - complex(ref.value))
    ratio = err / max(certificate(ev) + certificate(ref), 1e-300)
    return ratio if math.isfinite(ratio) else math.nan


def check_eval(ev, ref) -> str | None:
    ratio = eval_ratio(ev, ref)
    if not ratio <= EVAL_SAFETY:
        return (
            f"kernel_km value {complex(ev.value)!r} is {ratio:.3g} certificates from "
            f"the oracle {complex(ref.value)!r} (allowed {EVAL_SAFETY:g})"
        )
    return None


def grid_errors(values, refs) -> tuple[np.ndarray, np.ndarray, float]:
    """Absolute errors, reference magnitudes and the grid's scale."""
    got = np.asarray(values, dtype=complex)
    want = np.array([complex(r.value) for r in refs])
    err = np.abs(got - want)
    mag = np.abs(want)
    return err, mag, float(mag.max(initial=0.0))


def check_grid(values, refs) -> list[str]:
    err, mag, scale = grid_errors(values, refs)
    allowed = GRID_RTOL * scale + EVAL_SAFETY * np.array([certificate(r) for r in refs])
    bad = ~(err <= allowed)
    return [
        f"grid node {i}: error {err[i]:.3g} exceeds {allowed[i]:.3g} "
        f"(scale {scale:.3g})"
        for i in np.flatnonzero(bad)
    ]


def check_report(report) -> list[str]:
    problems = []
    for r in report.residuals:
        if not (math.isfinite(r.value) and r.value >= 0.0):
            problems.append(f"{report.suite}: residual {r.name} = {r.value!r}")
    consistent = all(r.value <= r.tolerance for r in report.residuals)
    if report.passed != consistent:
        problems.append(
            f"{report.suite}: passed={report.passed} but residuals say {consistent}"
        )
    if not report.residuals:
        problems.append(f"{report.suite}: no residuals")
    return problems
