"""The three workloads: eval, grid and verify.

Each workload turns the seed into a fixed list of operations (zero-argument
calls into the library) that one pass runs in order.  Every call resolves
the library function through its module attribute at call time, so the
traced run sees it.  check() runs after the timed region and computes
every reference there.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from annulus_kernels import basis, cli, kernels, quadrature, verify
from annulus_kernels.errors import KernelError
from annulus_kernels.geometry import AnnulusParams, polar_point
from annulus_kernels.quadrature import QuadratureSpec

import checks

# (R, B): mid annulus with integer B, mid with fractional B, wide, thin
PARAM_SETS = ((4.0, 3.0), (6.0, 2.75), (50.0, 2.0), (1.5, 2.0))

EVAL_PAIRS = 60  # seeded pairs per (R, B); every admissible level uses them
EVAL_CHECKS = 2  # oracle-checked pairs per (R, B, m)

# Per (R, B, m) a pass makes one CLI grid export, with its fixed point w at
# the first of these radial coordinates, and one quadrature row at each,
# with the fixed point z there: the pair with the median decay ratio of
# sample_points, R^-0.325, which sets a grid's series window and so its
# cost.  The seed sets their arguments.  With seeded radii the cost of a
# pass moved by up to a sixth from seed to seed.  Three calls per level keep
# a pass near 0.5 s, so that each call is timed in about 35 passes: a best
# time needs many passes on a host whose speed drifts.
GRID_ZETAS = (0.325 * math.pi, 0.675 * math.pi)
GRID_CHECKS = 1  # seeded reference-checked nodes per grid call
GRID_N_RAD, GRID_N_ANG = 24, 64  # the README's polar layout
# rows on a 32 x 32 Gauss-Legendre x trapezoid rule: one 1024-node chunk of
# kernel_km_grid, the chunk shape the reproducing suite's 96 x 128 rule is
# cut into; small rows instead of one full rule per level keep the cost's
# dependence on the seeded points low
ROW_SPEC = QuadratureSpec(n_angular=32, n_radial=32)

# A verify pass is kept near 0.6 s, so that each call is timed in about 30
# passes: a best time needs many passes on a host whose speed drifts.  With
# all the cheap suites at (6, 2.75), six reproducing rows, three more
# escalating cases and an extended oracle call, a pass took 1.4 s, and
# verify's wall_s spread by 0.11 to 0.22 over ten seeds (unscaled times).
# The extended oracle's smallest window, 129 terms, takes 0.25 s, so no pass
# times it.

# suites of `verify all` that a verify pass runs whole, at (4, 3)
VERIFY_SUITES = ("special-functions", "geometry", "basis", "gram", "eigen", "polyanalytic")
# and at (6, 2.75): the basis suite, the cheapest (0.09 s) that builds nodes
# with annulus_nodes_endpoint, which fractional B needs
VERIFY_ENDPOINT_SUITE = "basis"
# rounding budget and tolerance of each path, the multipath and theta
# suites' values
VERIFY_BUDGETS = {
    "kernel_km": (1e-10, 1e-9),
    "kernel_km_theta": (1e-10, 1e-9),
    "kernel_basis_sum_oracle": (1e-9, 1e-8),
}
# Evaluation cases at (4, 3): (path, m, |z|, |w|, arg(z conj w)).  The pairs
# are recorded, not drawn per run: how many calls escalate to extended
# precision, and how far an escalated call's window reaches, must be a
# property of the inputs, or a change to escalation could not show.  The
# seed turns each pair by a common angle, which leaves K_m, its series and
# its condition unchanged.  When recorded, eps * condition of the
# escalating kernel_km cases was 16 to 77 times the budget; the escalating
# theta case could not be certified in binary64.  The two kernel_km cases
# escalate to windows of 225 and 417 terms, the range the suites' escalated
# calls span.
VERIFY_ESCALATING = (
    ("kernel_km", 0, 1.3457, 2.2007, 3.0832),
    ("kernel_km", 0, 2.3650, 3.0706, -2.7144),
    ("kernel_km_theta", 0, 2.1036, 1.7578, 3.1209),
)
# Cases that stayed in binary64, 50 times or more below their budget, as most
# calls of the multipath and theta suites do.
VERIFY_PLAIN = (
    ("kernel_km", 0, 1.9523, 1.8819, 1.6597),
    ("kernel_km", 0, 2.4187, 1.3835, -1.9108),
    ("kernel_km", 0, 1.3472, 3.2286, -1.8439),
    ("kernel_km", 0, 1.5816, 3.0744, 0.9080),
    ("kernel_km", 1, 1.7195, 1.2994, -0.5531),
    ("kernel_km", 1, 2.6143, 2.8591, -1.9346),
    ("kernel_km", 1, 2.5812, 1.2330, -1.0024),
    ("kernel_km", 1, 1.3472, 3.2286, -1.8439),
    ("kernel_km", 2, 2.0340, 1.4625, -2.8492),
    ("kernel_km", 2, 3.1866, 2.0068, -2.3265),
    ("kernel_km", 2, 2.4836, 2.5062, -3.0774),
    ("kernel_km", 2, 2.4510, 3.0458, -2.6923),
    ("kernel_km_theta", 0, 1.4627, 1.4199, -1.6812),
    ("kernel_km_theta", 0, 1.3763, 1.6729, 1.9254),
    ("kernel_km_theta", 1, 2.8853, 2.8930, -1.0882),
    ("kernel_km_theta", 1, 3.1866, 2.0068, -2.3265),
    ("kernel_km_theta", 2, 1.4422, 1.4462, -1.0196),
    ("kernel_km_theta", 2, 3.2077, 2.4370, 3.0903),
    ("kernel_basis_sum_oracle", 0, 2.4187, 1.3835, -1.9108),
    ("kernel_basis_sum_oracle", 0, 3.2465, 2.0912, 2.1024),
    ("kernel_basis_sum_oracle", 1, 3.1866, 2.0068, -2.3265),
    ("kernel_basis_sum_oracle", 1, 2.0340, 1.4625, -2.8492),
    ("kernel_basis_sum_oracle", 2, 2.6143, 2.8591, -1.9346),
    ("kernel_basis_sum_oracle", 2, 1.9562, 1.4503, 3.0376),
)
# the pair of the sigma, Jacobi and product checks, where every checked
# sigma stays in binary64 under its budget
VERIFY_SIGMA_PAIR = (1.7994, 1.7005, -0.0267)
# every (k, l) the theta suite checks at (4, 3)
VERIFY_SIGMAS = tuple((k, l) for k in range(3) for l in range(3))
# radial coordinate of the reproducing point at (50, 2): the median decay
# ratio of sample_points, R^-0.325, which sets a row's series window
REPRO_ZETA = 0.325 * math.pi
# the level and two of the suite's j0: the suite recomputes a row once per j0
REPRO_M, REPRO_J0S = 0, (0, 3)


@dataclass
class Op:
    label: str
    call: object  # zero-argument callable
    units: int = 1  # kernel values / grid nodes the call produces


@dataclass
class Verdict:
    """Outcome of the output checks for one pass's outputs."""

    attempted: int  # operations per pass
    failed: int  # of those: raised, wrong, or reported failing by a suite
    wrong: list[str] = field(default_factory=list)  # outputs found incorrect
    lines: list[str] = field(default_factory=list)  # findings to print


def _annuli():
    return [AnnulusParams(R=R, B=B) for R, B in PARAM_SETS]


def _fmt_complex(x: complex) -> str:
    return f"{x.real:.17g}{x.imag:+.17g}j"


class Workload:
    name: str
    unit: str  # what one throughput unit is
    ops: list[Op]

    def units(self, op: Op, out) -> int:
        return op.units

    def findings(self, verdict) -> list[str]:
        """Untimed diagnostics that a traced run prints after its checks."""
        return []


class EvalWorkload(Workload):
    """Pointwise kernel_km, default SeriesControl, no rounding budget."""

    name = "eval"
    unit = "kernel values"

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.items, self.ops, self.checked = [], [], []
        for p in _annuli():
            pairs = verify.sample_pairs(p, EVAL_PAIRS, seed)
            for m in basis.admissible_levels(p):
                base = len(self.items)
                for z, w in pairs:
                    self.items.append((p, m, z, w))
                    self.ops.append(Op(f"kernel_km R={p.R:g} B={p.B:g} m={m}",
                                       _kernel_km(m, z, w, p)))
                picks = rng.choice(EVAL_PAIRS, EVAL_CHECKS, replace=False)
                self.checked.extend(sorted(base + int(i) for i in picks))

    def check(self, outputs) -> Verdict:
        failed = {i for i, out in enumerate(outputs) if isinstance(out, KernelError)}
        verdict = Verdict(attempted=len(outputs), failed=0)
        worst = 0.0
        for i in self.checked:
            if i in failed:
                continue
            p, m, z, w = self.items[i]
            ref = kernels.kernel_basis_sum_oracle(
                m, z, w, p, tol=checks.ORACLE_TOL,
                rounding_rtol=checks.ORACLE_ROUNDING_RTOL,
            )
            problem = checks.check_eval(outputs[i], ref)
            if problem is not None:
                failed.add(i)
                verdict.wrong.append(f"{self.ops[i].label} z={z!r} w={w!r}: {problem}")
            worst = max(worst, checks.eval_ratio(outputs[i], ref))
        verdict.failed = len(failed)
        verdict.lines.append(
            f"check: {len(self.checked)} oracle-checked values; worst error "
            f"{worst:.3g} certificates (allowed {checks.EVAL_SAFETY:g})"
        )
        return verdict


def _kernel_km(m, z, w, p):
    return lambda: kernels.kernel_km(m, z, w, p)


class GridWorkload(Workload):
    """kernel_km_grid: CLI grid exports and quadrature-node rows."""

    name = "grid"
    unit = "grid nodes"

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        n_cli = GRID_N_RAD * GRID_N_ANG
        self.ops, self.cases = [], []
        for p in _annuli():
            row = quadrature.annulus_nodes(p, ROW_SPEC)[0].ravel()
            w = polar_point(GRID_ZETAS[0], rng.uniform(0.0, 2.0 * math.pi), p)
            zs = [polar_point(zeta, rng.uniform(0.0, 2.0 * math.pi), p) for zeta in GRID_ZETAS]
            for m in basis.admissible_levels(p):
                tag = f"R={p.R:g} B={p.B:g} m={m}"
                out = workdir / f"grid-{len(self.ops)}.csv"
                argv = [
                    "grid", "--R", repr(p.R), "--B", repr(p.B), "--m", str(m),
                    f"--w={_fmt_complex(w)}", "--n-rad", str(GRID_N_RAD),
                    "--n-ang", str(GRID_N_ANG), "--out", str(out),
                ]
                self.ops.append(Op(f"cli grid {tag}", _cli(argv), n_cli))
                self.cases.append(("cli", p, m, w, out,
                                   rng.choice(n_cli, GRID_CHECKS, replace=False)))
                for z in zs:
                    self.ops.append(Op(f"kernel_km_grid {tag}",
                                       _grid_row(m, z, row, p), row.size))
                    self.cases.append(("row", p, m, z, row,
                                       rng.choice(row.size, GRID_CHECKS, replace=False)))

    def check(self, outputs) -> Verdict:
        verdict = Verdict(attempted=len(outputs), failed=0)
        worst: dict[tuple, tuple[float, int]] = {}
        for out, (shape, p, m, fixed, where, picks) in zip(outputs, self.cases):
            if isinstance(out, KernelError) or (shape == "cli" and out != 0):
                verdict.failed += 1
                continue
            if shape == "cli":
                # CSV columns re_z, im_z, re_K, im_K, abs_K; values are K(z, w)
                table = np.loadtxt(where, delimiter=",", skiprows=1, ndmin=2)
                grid = table[:, 2] + 1j * table[:, 3]
                zs = table[:, 0] + 1j * table[:, 1]
                pair = lambda j: (complex(zs[j]), fixed)
            else:
                grid = np.asarray(out).ravel()
                pair = lambda j: (fixed, complex(where[j]))
            # the seeded nodes, the grid's largest |K|, which sets the scale,
            # and its smallest, where the relative error is worst
            picks = np.append(picks, [np.argmax(np.abs(grid)), np.argmin(np.abs(grid))])
            values = grid[picks]
            refs = [self._reference(m, *pair(j), p) for j in picks]
            problems = checks.check_grid(values, refs)
            if problems:
                verdict.failed += 1
                verdict.wrong.extend(f"{shape} R={p.R:g} B={p.B:g} m={m}: {s}"
                                     for s in problems)
            err, mag, _ = checks.grid_errors(values, refs)
            rel = float(np.max(err / np.maximum(mag, 1e-300)))
            key = (p.R, p.B)
            if rel > worst.get(key, (-1.0, 0))[0]:
                worst[key] = (rel, m)
        n_checked = (GRID_CHECKS + 2) * len(self.cases)
        verdict.lines.append(
            f"check: {n_checked} grid nodes (seeded, plus each grid's largest and smallest |K|) "
            f"against certified pointwise kernel_km; allowed error "
            f"{checks.GRID_RTOL:g} x the largest checked |K| of the grid"
        )
        for (R, B), (rel, m) in sorted(worst.items()):
            verdict.lines.append(
                f"grid worst pointwise relative error R={R:g} B={B:g}: {rel:.3g} (m={m})"
            )
        return verdict

    @staticmethod
    def _reference(m, z, w, p):
        return kernels.kernel_km(
            m, z, w, p, rounding_rtol=checks.GRID_REF_ROUNDING_RTOL
        )


def _cli(argv):
    return lambda: cli.main(list(argv))


def _grid_row(m, z, row, p):
    return lambda: kernels.kernel_km_grid(m, z, row, p)


class VerifyWorkload(Workload):
    """The verification suites and the evaluations inside them, as short calls.

    `annulus-kernels verify all` at (4, 3) and (6, 2.75) plus the thin
    reproducing suite takes 44 to 88 s, seed to seed, in suite runs of up to
    30 s: too long to repeat within a run, and its cost hangs on how many of
    the seeded pairs escalate to extended precision.  A pass splits the same
    layers into short calls, each repeated every pass:

    - run_suite for the cheap suites at (4, 3), and for the basis suite
      at (6, 2.75), with default SuiteOptions(seed);
    - the reproducing suite's check, reproducing_residual on its default
      rule, at (50, 2), at a point of radial coordinate REPRO_ZETA;
    - at (4, 3), the evaluations the multipath and theta suites compare,
      with their rounding budgets, on the recorded VERIFY_ESCALATING and
      VERIFY_PLAIN cases: kernel_km, the theta path and the basis-sum
      oracle; sigma_kl with sigma_theta_path, the Jacobi product
      sum and the integer-B product on VERIFY_SIGMA_PAIR.

    The seed sets the suites' SuiteOptions, the argument of the reproducing
    point and the common angle of each recorded pair.  No input depends on
    what the library returns.  Each value is checked against another path,
    with the suites' tolerances.  A traced run also runs the thin-annulus
    reproducing suite, untimed, and prints its known failure (findings).
    """

    name = "verify"
    unit = "checked residuals"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.ops, self.refs = [], []
        rng = np.random.default_rng(seed + 606)
        opts = verify.SuiteOptions(seed=seed)
        p = AnnulusParams(R=4.0, B=3.0)
        for suite in VERIFY_SUITES:
            self._add(f"run_suite {suite} R=4 B=3", _suite(suite, p, opts), None)
        fractional = AnnulusParams(R=6.0, B=2.75)
        self._add(f"run_suite {VERIFY_ENDPOINT_SUITE} R=6 B=2.75",
                  _suite(VERIFY_ENDPOINT_SUITE, fractional, opts), None)
        wide = AnnulusParams(R=50.0, B=2.0)
        z = polar_point(REPRO_ZETA, rng.uniform(0.0, 2.0 * math.pi), wide)
        for j0 in REPRO_J0S:
            self._add(f"reproducing_residual R=50 B=2 m={REPRO_M} j0={j0}",
                      _reproducing(REPRO_M, z, j0, wide), 1e-6)

        # One call per escalating case.  The binary64 evaluations, 0.1 to 12
        # ms each, are timed together per path and level.  Timed one by one,
        # they put the median latency among calls whose best time followed
        # the host's speed more: it spread by 0.39 over five seeds, against
        # 0.09 and 0.15 over ten with batches.
        for path, m, r_z, r_w, arg in VERIFY_ESCALATING:
            self._add_cases(f"{path} m={m}", path, [(m, *_turned(r_z, r_w, arg, rng))], p)
        levels = basis.admissible_levels(p)
        for path in VERIFY_BUDGETS:
            for m in levels:
                cases = [(m, *_turned(r_z, r_w, arg, rng))
                         for q, level, r_z, r_w, arg in VERIFY_PLAIN
                         if (q, level) == (path, m)]
                self._add_cases(f"{path} m={m} {len(cases)} binary64 cases", path, cases, p)
        z, w = _turned(*VERIFY_SIGMA_PAIR, rng)
        self._add(f"sigma_kl and sigma_theta_path {len(VERIFY_SIGMAS)} (k, l)",
                  _batch([_sigmas(k, l, z, w, levels[-1], p) for k, l in VERIFY_SIGMAS]),
                  [1e-9] * len(VERIFY_SIGMAS))
        self._add("kernel_jacobi_product_sum every level",
                  _batch([_jacobi(m, z, w, p) for m in levels]),
                  [(_km, m, z, w, p, 1e-9) for m in levels])
        self._add("kernel_k0_integer_product", _batch([_product(z, w, p)]),
                  [(_km, 0, z, w, p, 1e-9)])

    def _add(self, label, call, ref):
        self.ops.append(Op(label, call))
        self.refs.append(ref)

    def _add_cases(self, label, path, cases, p):
        budget, tol = VERIFY_BUDGETS[path]
        # kernel_km is checked against the theta path, the others against it
        reference = _theta if path == "kernel_km" else _km
        evaluate = _PATH_CALLS[path]
        self._add(label, _batch([_bound(evaluate, m, z, w, p, budget) for m, z, w in cases]),
                  [(reference, m, z, w, p, tol) for m, z, w in cases])

    def units(self, op: Op, out) -> int:
        if isinstance(out, list):
            return len(out)
        return len(out.residuals) if hasattr(out, "residuals") else 1

    def check(self, outputs) -> Verdict:
        verdict = Verdict(attempted=0, failed=0)
        for op, ref, out in zip(self.ops, self.refs, outputs):
            for name, value, limit in _residuals(op.label, ref, out, verdict):
                verdict.attempted += 1
                if not value <= limit:
                    verdict.failed += 1
                    verdict.lines.append(f"{name} = {value:.3g} > {limit:g} "
                                         "(counted as failed)")
        verdict.lines.insert(0, (
            f"check: {len(self.ops)} timed calls; suite reports checked for "
            "consistency, kernel_km against the theta path and the other paths "
            "against kernel_km, with the suites' tolerances and rounding budgets"))
        return verdict

    def findings(self, verdict) -> list[str]:
        """The known thin-annulus failure, printed and not counted.

        The reproducing suite at (1.5, 2) fails its own tolerances at most
        seeds.  A benchmark workload must be one on which no operation
        fails, so it is no operation of verify.  It takes about 20 s, so
        only the traced run makes it, once, untimed, after the passes, and
        prints its failing residuals.  Its report is still checked for
        consistency.
        """
        report = self.thin_report()
        label = f"thin-annulus reproducing suite R=1.5 B=2 seed {self.seed}"
        verdict.wrong.extend(checks.check_report(report))
        bad = [r for r in report.residuals if not r.value <= r.tolerance]
        if not bad:
            return [f"known finding gone: {label} passed all "
                    f"{len(report.residuals)} residuals"]
        return [f"known finding, untimed, not counted in failed: {label}: "
                f"{r.name} = {r.value:.3g} > {r.tolerance:g}" for r in bad]

    def thin_report(self):
        """The thin-annulus reproducing suite at the run's seed."""
        return verify.run_suite("reproducing", AnnulusParams(R=1.5, B=2.0),
                                verify.SuiteOptions(seed=self.seed))


def _turned(r_z, r_w, arg, rng):
    """The recorded pair turned by a seeded common angle."""
    phi = rng.uniform(0.0, 2.0 * math.pi)
    return r_z * cmath.exp(1j * (phi + arg)), r_w * cmath.exp(1j * phi)


def _residuals(label, ref, out, verdict):
    """(name, value, tolerance) of each residual one output yields."""
    if isinstance(ref, list):  # a batch of calls: one residual each
        if isinstance(out, KernelError):
            return [(f"{label}: raised {out!r}", math.inf, 0.0)] * len(ref)
        return [r for one, o in zip(ref, out) for r in _residuals(label, one, o, verdict)]
    if isinstance(out, KernelError):
        return [(f"{label}: raised {out!r}", math.inf, 0.0)]
    if ref is None:  # a suite report
        verdict.wrong.extend(checks.check_report(out))
        return [(f"{label}: {r.name}", r.value, r.tolerance) for r in out.residuals]
    if isinstance(out, tuple):  # sigma_kl and sigma_theta_path
        a, b = out
        return [(label, abs(a - b) / abs(a), ref)]
    if isinstance(ref, float):  # a residual with its tolerance
        return [(label, float(out), ref)]
    reference, m, z, w, p, tol = ref
    want = reference(m, z, w, p, tol / 10).value
    got = complex(getattr(out, "value", out))
    return [(label, abs(got - want) / abs(want), tol)]


def _km(m, z, w, p, budget):
    return kernels.kernel_km(m, z, w, p, rounding_rtol=budget)


def _oracle(m, z, w, p, budget):
    return kernels.kernel_basis_sum_oracle(m, z, w, p, tol=1e-12, rounding_rtol=budget)


def _theta(m, z, w, p, budget):
    return kernels.kernel_km_theta(m, z, w, p, rounding_rtol=budget)


_PATH_CALLS = {"kernel_km": _km, "kernel_basis_sum_oracle": _oracle,
               "kernel_km_theta": _theta}


def _batch(calls):
    return lambda: [call() for call in calls]


def _bound(evaluate, m, z, w, p, budget):
    return lambda: evaluate(m, z, w, p, budget)


def _reproducing(m, z, j0, p):
    return lambda: verify.reproducing_residual(m, z, j0, QuadratureSpec(), p)


def _sigmas(k, l, z, w, m_top, p):
    return lambda: (
        kernels.sigma_kl(k, l, z, w, m_top, p, rounding_rtol=1e-10),
        kernels.sigma_theta_path(k, l, z, w, p, rounding_rtol=1e-10),
    )


def _jacobi(m, z, w, p):
    return lambda: kernels.kernel_jacobi_product_sum(
        m, z, w, p, tol=1e-12, rounding_rtol=1e-10)


def _product(z, w, p):
    return lambda: kernels.kernel_k0_integer_product(z, w, p, rounding_rtol=1e-10)


def _suite(suite, p, opts):
    return lambda: verify.run_suite(suite, p, opts)


WORKLOADS = {w.name: w for w in (EvalWorkload, GridWorkload, VerifyWorkload)}
