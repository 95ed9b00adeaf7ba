"""Benchmark of annulus-kernels: one workload, one run.

    python3 bench/run.py --workload {eval,grid,verify} --seed N --seconds S --trace {0,1}

Run from the repository root.  Prints each metric by name and unit, the
output checks and the machine record, and as its last line one JSON object
with the keys correct, attempted, failed and metrics.  --trace 0 gives the
end-to-end metrics; --trace 1 wraps the library's public functions and
gives the per-layer metrics instead.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# BLAS threads are pinned before numpy is first imported
BLAS_THREADS = 1
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("eval", "grid", "verify")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in _THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    if not (src / "annulus_kernels" / "__init__.py").is_file():
        print(f"error: library sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from harness import run_benchmark  # imports numpy: after the pinning

    out = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace), root)
    for line in out["lines"]:
        print(line)
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
