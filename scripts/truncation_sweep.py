"""Sweep the series tolerance and check the reported tail bounds.

At a fixed point pair the closed-form kernel is evaluated over a ladder of
tolerances.  For each rung the script records the value, the number of
terms kept, and the reported geometric tail bound, then checks the
robustness contract: tightening the tolerance by the ladder ratio moves
the value by less than the tail bound reported at the looser rung.

Examples
--------
    python3 scripts/truncation_sweep.py --R 4 --B 3 --m 1
    python3 scripts/truncation_sweep.py --R 2 --B 1 --z 1.3+0.2j --w -1.2+0.4j
"""

from __future__ import annotations

import argparse
import json
import sys

from annulus_kernels import (
    AnnulusParams,
    SeriesControl,
    kernel_km,
    sample_pairs,
)
from annulus_kernels.cli import _glue_complex_flags, parse_complex
from annulus_kernels.errors import KernelError


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--R", type=float, default=4.0, help="outer radius (> 1)")
    parser.add_argument("--B", type=float, default=3.0, help="field strength (> 1/2)")
    parser.add_argument("--m", type=int, default=0, help="level")
    parser.add_argument(
        "--z", type=parse_complex, default=None,
        help="first point (default: seeded sample)",
    )
    parser.add_argument(
        "--w", type=parse_complex, default=None,
        help="second point (default: seeded sample)",
    )
    parser.add_argument("--seed", type=int, default=7, help="sampling seed")
    parser.add_argument(
        "--tol-start", type=float, default=1e-4, help="loosest tolerance"
    )
    parser.add_argument(
        "--tol-stop", type=float, default=1e-13, help="tightest tolerance"
    )
    parser.add_argument(
        "--ratio", type=float, default=10.0, help="ladder ratio between rungs"
    )
    parser.add_argument(
        "--format", choices=("table", "json"), default="table", help="output format"
    )
    return parser


def sweep(args: argparse.Namespace) -> tuple[list[dict], bool]:
    params = AnnulusParams(R=args.R, B=args.B)
    if args.z is None or args.w is None:
        z, w = sample_pairs(params, 1, args.seed)[0]
        z = args.z if args.z is not None else z
        w = args.w if args.w is not None else w
    else:
        z, w = args.z, args.w

    tols = []
    tol = args.tol_start
    while tol >= args.tol_stop:
        tols.append(tol)
        tol /= args.ratio

    rows: list[dict] = []
    values: list[complex] = []
    for tol in tols:
        ev = kernel_km(args.m, z, w, params, SeriesControl(tolerance=tol))
        values.append(ev.value)
        rows.append(
            {
                "tol": tol,
                "re": float(ev.value.real),
                "im": float(ev.value.imag),
                "terms_used": int(ev.terms_used),
                "tail_bound": float(ev.tail_bound),
                "precision": ev.precision,
            }
        )

    honoured = True
    for i in range(len(rows) - 1):
        drift = abs(values[i + 1] - values[i])
        rows[i]["drift_to_next"] = float(drift)
        rows[i]["bound_honoured"] = bool(drift <= rows[i]["tail_bound"])
        honoured = honoured and rows[i]["bound_honoured"]
    rows[-1]["drift_to_next"] = None
    rows[-1]["bound_honoured"] = True
    return rows, honoured


def main(argv: list[str] | None = None) -> int:
    argv = _glue_complex_flags(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(argv)
    try:
        rows, honoured = sweep(args)
    except KernelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.format == "json":
        payload = {
            "R": args.R,
            "B": args.B,
            "m": args.m,
            "seed": args.seed,
            "all_bounds_honoured": honoured,
            "rows": rows,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"R={args.R} B={args.B} m={args.m} seed={args.seed}")
        print(f"{'tol':>8} {'terms':>6} {'tail bound':>12} {'drift to next':>14} "
              f"{'ok':>3} {'precision':>10}")
        for row in rows:
            drift = row["drift_to_next"]
            drift_s = f"{drift:.3e}" if drift is not None else "-"
            ok = "yes" if row["bound_honoured"] else "NO"
            print(
                f"{row['tol']:>8.0e} {row['terms_used']:>6} "
                f"{row['tail_bound']:>12.3e} {drift_s:>14} {ok:>3} "
                f"{row['precision']:>10}"
            )
        print("all bounds honoured" if honoured else "BOUND VIOLATION")
    return 0 if honoured else 1


if __name__ == "__main__":
    raise SystemExit(main())
