"""Command-line front end: evaluate kernels, export grids, print spectral
info, run verification suites.

Subcommands
-----------
info    admissible Landau levels, their eigenvalues, and which
        representation paths the parameters support
eval    one kernel value K_m(z, w) along a chosen path, with truncation
        diagnostics
grid    CSV of K_m(z, w_fixed) over a log-radial x uniform-angular grid
verify  run a verification suite and emit its JSON report

Every command is deterministic given its flags plus --seed, and the seed
is echoed in all JSON output.  A JSON config file may supply any flag
value; explicitly passed flags win over the file.  Exit codes: 0 success,
1 verification failure, 2 invalid parameters, 3 convergence failure,
4 unsupported path.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConvergenceError, DomainError, KernelError, UnsupportedPathError
from .geometry import AnnulusParams
from .kernels import KERNEL_PATHS, kernel_by_path, kernel_km_grid
from .basis import admissible_levels, landau_level_eigenvalue
from .special import SeriesControl
from .verify import SUITE_NAMES, SuiteOptions, run_suite

# short path names accepted on the command line, mapped onto the library's
# canonical path identifiers (which are accepted verbatim as well)
PATH_ALIASES = {
    "closed": "closed_form",
    "oracle": "basis_sum",
    "theta": "theta",
    "product": "product_formula",
}

_EXIT_OK = 0
_EXIT_VERIFY_FAIL = 1
_EXIT_INVALID = 2
_EXIT_CONVERGENCE = 3
_EXIT_UNSUPPORTED = 4

_FORMATS = ("csv", "json")


@dataclass
class CliConfig:
    """Merged settings of one invocation: defaults, then config-file
    values, then explicitly passed flags (flags win)."""

    R: float = 4.0
    B: float = 1.0
    m: int = 0
    z: str | None = None
    w: str | None = None
    path: str = "closed"
    tol: float = 1e-12
    max_terms: int = 4096
    n_ang: int = 128
    n_rad: int = 96
    seed: int = 7
    out: str | None = None
    format: str | None = None

    def params(self) -> AnnulusParams:
        return AnnulusParams(R=self.R, B=self.B)

    def control(self) -> SeriesControl:
        return SeriesControl(tolerance=self.tol, max_terms=self.max_terms)

    def canonical_path(self) -> str:
        name = PATH_ALIASES.get(self.path, self.path)
        if name not in KERNEL_PATHS:
            choices = sorted(set(PATH_ALIASES) | set(KERNEL_PATHS))
            raise DomainError(
                f"unknown path {self.path!r}; choose from {', '.join(choices)}"
            )
        return name


def parse_complex(text: str) -> complex:
    """Parse 'a+bi' (or Python's 'a+bj') into a complex number."""
    cleaned = text.strip().replace(" ", "").replace("i", "j")
    try:
        return complex(cleaned)
    except ValueError as exc:
        raise DomainError(f"cannot parse complex number from {text!r}") from exc


@functools.cache  # one parser per process: parsing leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="annulus-kernels",
        description=(
            "Evaluate and verify the polyanalytic reproducing kernels of "
            "the magnetic Laplacian on the annulus 1 < |z| < R."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--R", type=float, default=None, help="outer radius (> 1)")
        p.add_argument("--B", type=float, default=None, help="magnetic weight (> 1/2)")
        p.add_argument("--m", type=int, default=None, help="Landau level index")
        p.add_argument(
            "--tol", type=float, default=None, help="relative series tolerance"
        )
        p.add_argument(
            "--max-terms", type=int, default=None, help="series term budget"
        )
        p.add_argument(
            "--n-ang", type=int, default=None, help="angular node / grid count"
        )
        p.add_argument(
            "--n-rad", type=int, default=None, help="radial node / grid count"
        )
        p.add_argument("--seed", type=int, default=None, help="sampling seed")
        p.add_argument(
            "--config", type=str, default=None, help="JSON file with flag values"
        )
        p.add_argument("--out", type=str, default=None, help="output file path")
        p.add_argument(
            "--format",
            choices=_FORMATS,
            default=None,
            help="output format where a choice exists (info: text vs json)",
        )

    p_info = sub.add_parser(
        "info", help="admissible levels, eigenvalues, available paths"
    )
    add_common(p_info)

    p_eval = sub.add_parser("eval", help="evaluate K_m(z, w) along one path")
    add_common(p_eval)
    p_eval.add_argument("--z", type=str, default=None, help="first point 'a+bi'")
    p_eval.add_argument("--w", type=str, default=None, help="second point 'a+bi'")
    p_eval.add_argument(
        "--path",
        type=str,
        default=None,
        help="closed | oracle | theta | product (or canonical library names)",
    )

    p_grid = sub.add_parser(
        "grid", help="CSV of K_m(z, w_fixed) over a log-radial x angular grid"
    )
    add_common(p_grid)
    p_grid.add_argument("--w", type=str, default=None, help="fixed second point 'a+bi'")

    p_verify = sub.add_parser("verify", help="run a verification suite")
    add_common(p_verify)
    p_verify.add_argument(
        "suite",
        type=str,
        help=f"one of: {', '.join(SUITE_NAMES)}",
    )
    return parser


# each setting's type, as its flag's argparse type converts the token
_CONFIG_TYPES = {
    f.name: {"int": int, "float": float}.get(f.type, str) for f in fields(CliConfig)
}


def merge_config(args: argparse.Namespace) -> CliConfig:
    """Defaults, overridden by the --config file, overridden by flags."""
    cfg = CliConfig()
    if getattr(args, "config", None) is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
        except OSError as exc:
            raise DomainError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise DomainError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise DomainError("config file must hold a JSON object of flag values")
        for key, value in loaded.items():
            name = key.replace("-", "_")
            if name not in _CONFIG_TYPES:
                raise DomainError(f"unknown config key {key!r}")
            kind = _CONFIG_TYPES[name]
            try:
                value = None if value is None and kind is str else kind(str(value))
            except ValueError:
                need = "an integer" if kind is int else "a number"
                raise DomainError(f"config {key} must be {need}, got {value!r}") from None
            setattr(cfg, name, value)
        if cfg.format not in (None, *_FORMATS):
            raise DomainError(f"config format must be one of {', '.join(_FORMATS)}")
    for name in _CONFIG_TYPES:
        value = getattr(args, name, None)
        if value is not None:
            setattr(cfg, name, value)
    return cfg


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _json_dump(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def cmd_info(cfg: CliConfig) -> int:
    params = cfg.params()
    levels = admissible_levels(params)
    # + 0.0 normalizes the signed zero of the ground level for display
    eigen = {m: landau_level_eigenvalue(m, params) + 0.0 for m in levels}
    integer_paths = params.is_integer_B()
    if cfg.format == "json":
        payload = {
            "command": "info",
            "params": {"R": cfg.R, "B": cfg.B},
            "levels": [{"m": m, "eigenvalue": eigen[m]} for m in levels],
            "integer_paths_available": integer_paths,
            "seed": cfg.seed,
        }
        _emit(_json_dump(payload), cfg.out)
        return _EXIT_OK
    lines = [
        f"annulus 1 < |z| < {cfg.R:g}, magnetic weight B = {cfg.B:g}",
        f"admissible Landau levels: {len(levels)}",
    ]
    for m in levels:
        lines.append(f"  m = {m}: eigenvalue lambda = {eigen[m]:g}")
    lines.append(
        "integer-B paths (theta, product): "
        + ("available" if integer_paths else "not available (B not an integer)")
    )
    _emit("\n".join(lines) + "\n", cfg.out)
    return _EXIT_OK


def cmd_eval(cfg: CliConfig) -> int:
    if cfg.z is None or cfg.w is None:
        raise DomainError("eval requires both --z and --w")
    params = cfg.params()
    zc, wc = parse_complex(cfg.z), parse_complex(cfg.w)
    path = cfg.canonical_path()
    ev = kernel_by_path(path, cfg.m, zc, wc, params, cfg.control())
    payload = {
        "command": "eval",
        "params": {"R": cfg.R, "B": cfg.B},
        "m": cfg.m,
        "z": [zc.real, zc.imag],
        "w": [wc.real, wc.imag],
        "path": ev.path,
        "value": {"re": ev.value.real, "im": ev.value.imag, "abs": abs(ev.value)},
        "terms_used": ev.terms_used,
        "tail_bound": ev.tail_bound,
        "condition": ev.condition,
        "precision": ev.precision,
        "tol": cfg.tol,
        "max_terms": cfg.max_terms,
        "seed": cfg.seed,
    }
    _emit(_json_dump(payload), cfg.out)
    return _EXIT_OK


def cmd_grid(cfg: CliConfig) -> int:
    if cfg.w is None:
        raise DomainError("grid requires --w (the fixed second argument)")
    params = cfg.params()
    wc = parse_complex(cfg.w)
    n_r, n_theta = cfg.n_rad, cfg.n_ang
    if n_r < 1 or n_theta < 1:
        raise DomainError(
            f"grid needs positive node counts, got n_rad={n_r}, n_ang={n_theta}"
        )
    # midpoint log-radial levels keep every grid point strictly interior
    zeta = math.pi * (np.arange(n_r) + 0.5) / n_r
    theta = 2.0 * math.pi * np.arange(n_theta) / n_theta
    radii = params.R ** (zeta / math.pi)
    z_grid = radii[:, None] * np.exp(1j * theta)[None, :]
    # K_m(z, w_fixed) via Hermitian symmetry of the kernel:
    # K_m(z, w) = conj(K_m(w, z)), and the grid evaluator fixes the first slot
    values = np.conj(
        kernel_km_grid(cfg.m, wc, z_grid.ravel(), params, cfg.control())
    ).reshape(z_grid.shape)
    # round-trip decimal form (17 significant digits); abs_K is Python's
    # abs(complex), which np.abs can miss by an ulp
    row = "%.17g,%.17g,%.17g,%.17g,%.17g"
    lines = ["re_z,im_z,re_K,im_K,abs_K"]
    lines += [
        row % (zc.real, zc.imag, kv.real, kv.imag, abs(kv))
        for zc, kv in zip(z_grid.ravel().tolist(), values.ravel().tolist())
    ]
    _emit("\n".join(lines) + "\n", cfg.out)
    return _EXIT_OK


def cmd_verify(suite: str, cfg: CliConfig) -> int:
    params = cfg.params()
    opts = SuiteOptions(
        seed=cfg.seed,
        n_angular=cfg.n_ang,
        n_radial=cfg.n_rad,
        ctrl=cfg.control(),
    )
    report = run_suite(suite, params, opts)
    _emit(_json_dump(report.to_json_dict()), cfg.out)
    return _EXIT_OK if report.passed else _EXIT_VERIFY_FAIL


def _glue_complex_flags(argv: list[str]) -> list[str]:
    """Join '--z -1.2+1.1i' into '--z=-1.2+1.1i' so argparse does not
    mistake a complex value with a negative real part for an option."""
    out: list[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in ("--z", "--w") and i + 1 < len(argv):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    raw = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        args = parser.parse_args(_glue_complex_flags(raw))
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; surface the code
        return int(exc.code or 0)
    try:
        cfg = merge_config(args)
        if args.command == "info":
            return cmd_info(cfg)
        if args.command == "eval":
            return cmd_eval(cfg)
        if args.command == "grid":
            return cmd_grid(cfg)
        return cmd_verify(args.suite, cfg)
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CONVERGENCE
    except UnsupportedPathError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_UNSUPPORTED
    except (KernelError, OSError) as exc:  # every other library failure mode
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
