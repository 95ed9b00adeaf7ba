"""The host's speed, from a fixed calibration loop that uses no library code.

The host is shared: the same pure-Python, numpy or mpmath loop runs 1.5 to
2.2 times slower during spells that can last a minute, longer than a run.
A call's best time over a run catches the fastest spell the run saw, but
not every run sees a fast one.  So the benchmark also times calibrate()
between its passes and scales the times of the passes by

    CAL_REFERENCE_S / (best calibration time of the run)

which reads them at one reference speed: the speed at which calibrate()
takes CAL_REFERENCE_S.  A slower library still reads slower, because the
calibration loop does not call it.
"""

from __future__ import annotations

import time

import mpmath
import numpy as np

# best calibrate() time on the reference machine (2-core Xeon VM, Python
# 3.11, scipy-openblas with 1 thread), rounded
CAL_REFERENCE_S = 0.006

# the mix of the library's work: interpreted Python, small dense numpy
# arithmetic and a BLAS matmul, and mpmath at 30 digits
_MATRIX = np.random.default_rng(0).standard_normal((64, 64))


def calibrate() -> float:
    """Seconds one run of the fixed calibration loop takes now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(20000):
        acc += i * i % 7
    for _ in range(30):
        np.exp(_MATRIX) @ _MATRIX
    with mpmath.workdps(30):
        x = mpmath.mpf(0)
        for k in range(1, 120):
            x += mpmath.loggamma(k + mpmath.mpf(1) / 3)
    return time.perf_counter() - t0


def scale(calibrations) -> float:
    """Factor that reads times of a stretch at the reference speed."""
    return CAL_REFERENCE_S / min(calibrations)
