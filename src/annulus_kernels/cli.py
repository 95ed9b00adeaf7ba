"""Command-line front end: evaluate kernels, export grids, print spectral
info, run verification suites.

Subcommands and the flags each takes
------------------------------------
info    admissible Landau levels, their eigenvalues, and which
        representation paths the parameters support
        --R --B --seed --out --format
eval    one kernel value K_m(z, w) along a chosen path, with truncation
        diagnostics
        --R --B --m --z --w --path --tol --max-terms --seed --out
grid    CSV of K_m(z, w_fixed) over a log-radial x uniform-angular grid
        --R --B --m --w --tol --max-terms --n-ang --n-rad --out
verify  run a verification suite and emit its JSON report
        SUITE --R --B --tol --max-terms --n-ang --n-rad --seed --out

Each setting is declared once, in _SETTINGS; _COMMANDS names the settings
each subcommand reads, and any other flag, or an abbreviated one, is a
usage error (exit 2).  --format belongs to info: json prints the JSON
listing, csv the text listing.  Every subcommand also takes --config, a
JSON file that may supply any of the settings: its keys are shared by all
subcommands, so one file serves several, each reading the keys it needs.
Explicitly passed flags win over the file.  Every command is deterministic
given its flags plus --seed, and the seed is echoed in the JSON output of
info, eval and verify.  Exit codes: 0 success, 1 verification failure,
2 invalid parameters, 3 convergence failure, 4 unsupported path.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

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

# each setting, declared once: its type (argparse converts a flag's token
# with it, merge_config a config value's str), default and help
_SETTINGS = {
    "R": (float, 4.0, "outer radius (> 1)"),
    "B": (float, 1.0, "magnetic weight (> 1/2)"),
    "m": (int, 0, "Landau level index"),
    "z": (str, None, "first point 'a+bi'"),
    "w": (str, None, "second point 'a+bi' (grid: the fixed one)"),
    "path": (str, "closed", "closed | oracle | theta | product (or canonical library names)"),
    "tol": (float, 1e-12, "relative series tolerance"),
    "max_terms": (int, 4096, "series term budget"),
    "n_ang": (int, 128, "angular node / grid count"),
    "n_rad": (int, 96, "radial node / grid count"),
    "seed": (int, 7, "sampling seed"),
    "out": (str, None, "output file path"),
    "format": (str, None, "json: the JSON listing; csv (or left out): the text listing"),
}

# each subcommand: its help and the settings it reads, one flag each; main
# calls cmd_<subcommand>
_COMMANDS = {
    "info": ("admissible levels, eigenvalues, available paths",
             ("R", "B", "seed", "out", "format")),
    "eval": ("evaluate K_m(z, w) along one path",
             ("R", "B", "m", "z", "w", "path", "tol", "max_terms", "seed", "out")),
    "grid": ("CSV of K_m(z, w_fixed) over a log-radial x angular grid",
             ("R", "B", "m", "w", "tol", "max_terms", "n_ang", "n_rad", "out")),
    "verify": ("run a verification suite",
               ("R", "B", "tol", "max_terms", "n_ang", "n_rad", "seed", "out")),
}


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
    for command, (summary, names) in _COMMANDS.items():
        # no prefix matching: verify would read --m as --max-terms
        p = sub.add_parser(command, help=summary, allow_abbrev=False)
        if command == "verify":
            p.add_argument("suite", type=str, help=f"one of: {', '.join(SUITE_NAMES)}")
        for name in names:
            kind, _, help_text = _SETTINGS[name]
            # no default: a flag left out is None, so a config value shows
            p.add_argument(f"--{name.replace('_', '-')}", type=kind, help=help_text,
                           choices=_FORMATS if name == "format" else None)
        p.add_argument(
            "--config", type=str, help="JSON file of setting values (any subcommand's)"
        )
    return parser


def merge_config(args: argparse.Namespace) -> argparse.Namespace:
    """Defaults, overridden by the --config file, overridden by flags."""
    cfg = {name: default for name, (_, default, _) in _SETTINGS.items()}
    if args.config is not None:
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
            if name not in _SETTINGS:
                raise DomainError(f"unknown config key {key!r}")
            kind = _SETTINGS[name][0]
            try:
                value = None if value is None and kind is str else kind(str(value))
            except ValueError:
                need = "an integer" if kind is int else "a number"
                raise DomainError(f"config {key} must be {need}, got {value!r}") from None
            cfg[name] = value
        if cfg["format"] not in (None, *_FORMATS):
            raise DomainError(f"config format must be one of {', '.join(_FORMATS)}")
    cfg.update((name, value) for name, value in vars(args).items() if value is not None)
    return argparse.Namespace(**cfg)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _json_dump(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def cmd_info(cfg: argparse.Namespace) -> int:
    params = AnnulusParams(R=cfg.R, B=cfg.B)
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


def cmd_eval(cfg: argparse.Namespace) -> int:
    if cfg.z is None or cfg.w is None:
        raise DomainError("eval requires both --z and --w")
    params = AnnulusParams(R=cfg.R, B=cfg.B)
    zc, wc = parse_complex(cfg.z), parse_complex(cfg.w)
    path = PATH_ALIASES.get(cfg.path, cfg.path)
    if path not in KERNEL_PATHS:
        choices = sorted(set(PATH_ALIASES) | set(KERNEL_PATHS))
        raise DomainError(f"unknown path {cfg.path!r}; choose from {', '.join(choices)}")
    ctrl = SeriesControl(tolerance=cfg.tol, max_terms=cfg.max_terms)
    ev = kernel_by_path(path, cfg.m, zc, wc, params, ctrl)
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


def cmd_grid(cfg: argparse.Namespace) -> int:
    if cfg.w is None:
        raise DomainError("grid requires --w (the fixed second argument)")
    params = AnnulusParams(R=cfg.R, B=cfg.B)
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
    z = (radii[:, None] * np.exp(1j * theta)[None, :]).ravel()
    # K_m(z, w_fixed) via Hermitian symmetry of the kernel:
    # K_m(z, w) = conj(K_m(w, z)), and the grid evaluator fixes the first slot
    ctrl = SeriesControl(tolerance=cfg.tol, max_terms=cfg.max_terms)
    K = np.conj(kernel_km_grid(cfg.m, wc, z, params, ctrl))
    # round-trip decimal form (17 significant digits), the whole table in one
    # format pass; abs_K is np.hypot, the libm hypot of Python's
    # abs(complex), which np.abs can miss by an ulp
    table = np.stack([z.real, z.imag, K.real, K.imag, np.hypot(K.real, K.imag)], axis=-1)
    rows = "%.17g,%.17g,%.17g,%.17g,%.17g\n" * z.size
    _emit("re_z,im_z,re_K,im_K,abs_K\n" + rows % tuple(table.ravel().tolist()), cfg.out)
    return _EXIT_OK


def cmd_verify(cfg: argparse.Namespace) -> int:
    params = AnnulusParams(R=cfg.R, B=cfg.B)
    opts = SuiteOptions(
        seed=cfg.seed,
        n_angular=cfg.n_ang,
        n_radial=cfg.n_rad,
        ctrl=SeriesControl(tolerance=cfg.tol, max_terms=cfg.max_terms),
    )
    report = run_suite(cfg.suite, params, opts)
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
        # the handler is looked up by name at each call, so a wrapper
        # installed as the module attribute (span tracing) is the one called
        return globals()[f"cmd_{args.command}"](merge_config(args))
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
