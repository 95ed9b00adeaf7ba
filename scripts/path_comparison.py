"""Compare every available kernel evaluation path on seeded point pairs.

For each admissible level m the kernel is evaluated by the closed bilateral
series, the basis-sum oracle, and — at integer B — the theta-function
representation and (for m = 0) the pair-product form, whose value is the
theta path's at m = 0 (the same series before it is resummed).  The script
reports the worst relative deviation of each path from the basis-sum
oracle, the term counts, the worst conditioning seen, the escalations
to extended precision and the median wall time of one call, as a table or
as JSON.  The oracle has a row of its own (deviation 0), with its j-window,
condition, escalations and time.  Times are those of the machine the script
runs on and vary from run to run; every other field is deterministic.

Examples
--------
    python3 scripts/path_comparison.py --R 4 --B 2 --n-pairs 40
    python3 scripts/path_comparison.py --R 6 --B 2.75 --format json
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

from annulus_kernels import (
    AnnulusParams,
    SeriesControl,
    admissible_levels,
    kernel_basis_sum_oracle,
    kernel_by_path,
    sample_pairs,
)
from annulus_kernels.errors import KernelError, UnsupportedPathError
from annulus_kernels.kernels import KERNEL_PATHS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--R", type=float, default=4.0, help="outer radius (> 1)")
    parser.add_argument("--B", type=float, default=2.0, help="field strength (> 1/2)")
    parser.add_argument(
        "--m", type=int, default=None,
        help="restrict to one level (default: every admissible level)",
    )
    parser.add_argument("--n-pairs", type=int, default=20, help="seeded point pairs")
    parser.add_argument("--seed", type=int, default=7, help="sampling seed")
    parser.add_argument("--tol", type=float, default=1e-12, help="series tolerance")
    parser.add_argument(
        "--rounding-rtol", type=float, default=1e-11,
        help="relative rounding budget that triggers extended precision",
    )
    parser.add_argument(
        "--format", choices=("table", "json"), default="table", help="output format"
    )
    return parser


def compare_paths(args: argparse.Namespace) -> list[dict]:
    params = AnnulusParams(R=args.R, B=args.B)
    ctrl = SeriesControl(tolerance=args.tol)
    pairs = sample_pairs(params, args.n_pairs, args.seed)
    levels = [args.m] if args.m is not None else list(admissible_levels(params))

    def timed(evaluate) -> tuple[list, float]:
        """The evaluations of every pair and the median seconds per call."""
        evs, seconds = [], []
        for z, w in pairs:
            start = time.perf_counter()
            evs.append(evaluate(z, w))
            seconds.append(time.perf_counter() - start)
        return evs, statistics.median(seconds)

    rows: list[dict] = []
    for m in levels:
        refs, ref_s = timed(lambda z, w: kernel_basis_sum_oracle(
            m, z, w, params, tol=args.tol, rounding_rtol=args.rounding_rtol))
        for path in KERNEL_PATHS:
            try:
                evs, call_s = (refs, ref_s) if path == "basis_sum" else timed(
                    lambda z, w: kernel_by_path(
                        path, m, z, w, params, ctrl, rounding_rtol=args.rounding_rtol))
            except UnsupportedPathError:
                continue
            rows.append(
                {
                    "m": m,
                    "path": path,
                    "max_rel_dev": max(
                        abs(ev.value - ref.value) / abs(ref.value) for ev, ref in zip(evs, refs)
                    ),
                    "max_terms": max(ev.terms_used for ev in evs),
                    "max_condition": max(ev.condition for ev in evs),
                    "escalated": sum(ev.precision != "binary64" for ev in evs),
                    "n_pairs": len(pairs),
                    "median_call_ms": 1e3 * call_s,
                }
            )
    return rows


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        rows = compare_paths(args)
    except KernelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.format == "json":
        payload = {
            "R": args.R,
            "B": args.B,
            "seed": args.seed,
            "tol": args.tol,
            "rows": rows,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0

    print(f"R={args.R} B={args.B} seed={args.seed} tol={args.tol:g}")
    print(f"{'m':>2} {'path':<16} {'max rel dev':>12} {'terms':>6} "
          f"{'condition':>10} {'escalated':>9} {'ms/call':>8}")
    for row in rows:
        print(
            f"{row['m']:>2} {row['path']:<16} {row['max_rel_dev']:>12.3e} "
            f"{row['max_terms']:>6} {row['max_condition']:>10.2e} "
            f"{row['escalated']:>4}/{row['n_pairs']} {row['median_call_ms']:>8.3f}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
