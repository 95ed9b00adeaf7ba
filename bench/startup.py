"""Start-up cost: fresh interpreters importing the package.

Each launch is a new `python -X importtime -c` process with the same
environment as the benchmark (sources on PYTHONPATH, BLAS threads pinned);
launches run one after another and each is waited for.  One launch gives
both the in-process time of `import annulus_kernels` and the cumulative
first-import time of every module.

The import times are not read at the reference speed (hostspeed): a
calibration made between launches did not follow the host's speed during
an import closely enough, and the scaled times spread more than the
measured ones.
"""

from __future__ import annotations

import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

LAUNCHES = 5
_TIMEOUT_S = 60

_TIMED_IMPORT = (
    "import time; t = time.perf_counter(); import annulus_kernels; "
    "print(repr(time.perf_counter() - t))"
)
# `-X importtime` lines: "import time: <self us> | <cumulative us> | <name>"
_IMPORTTIME = re.compile(r"^import time:\s+(\d+)\s+\|\s+(\d+)\s+\|\s+(\S+)\s*$")


def _env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure(root: Path, modules, launches: int = LAUNCHES) -> tuple[list[float], dict[str, float]]:
    """The import time of the package (s), one value per launch, and the
    median cumulative import time (s) of each named module."""
    seconds = []
    samples: dict[str, list[float]] = {mod: [] for mod in modules}
    for _ in range(launches):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", _TIMED_IMPORT], cwd=root,
            env=_env(root), capture_output=True, text=True, timeout=_TIMEOUT_S,
            check=True,
        )
        seconds.append(float(proc.stdout))
        seen = {}
        for line in proc.stderr.splitlines():
            match = _IMPORTTIME.match(line)
            if match and match.group(3) in samples:
                seen[match.group(3)] = int(match.group(2)) * 1e-6
        for mod in modules:
            samples[mod].append(seen.get(mod, 0.0))
    return seconds, {mod: statistics.median(vals) for mod, vals in samples.items()}
