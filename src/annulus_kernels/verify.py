"""Orchestrated verification suites over the annulus quadrature.

Each suite bundles a family of identity checks into named residuals with
declared tolerances and returns a SuiteReport; a report passes exactly when
every residual is at or below its tolerance.  A residual is the worst defect
over its cases (0.0 without cases), and a NaN defect makes it NaN, which
fails.  Sampled evaluation points are drawn uniformly in (zeta, theta) in
(0.15 pi, 0.85 pi) x (0, 2 pi) from a recorded seed, away from the boundary
ring where series truncation and finite-difference stencils degrade.

Reports are deterministic: two runs with the same seed produce identical
residuals.  The wall-clock field runtime_s is excluded from the canonical
comparison form (SuiteReport.canonical) for exactly that reason.

Quadrature-backed residuals are accompanied by a self-convergence delta:
the case that set the family's worst defect (the first, on a tie) is
re-evaluated at a refined rule (angular nodes doubled, after any alias-free
bump of the reproducing rule; radial + 32) and the change is reported as a
residual of its own, with tolerance a tenth of the family's.
"""

from __future__ import annotations

import cmath
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.polynomial import polynomial as npoly

from .basis import (
    admissible_levels,
    basis_norm_sq,
    basis_phi,
    basis_phi_nodes,
    cr_apply,
    invariant_laplacian_apply,
    landau_level_eigenvalue,
    log_basis_norm_sq,
    sturm_liouville_apply,
)
from .errors import DomainError, UnknownSuiteError, UnsupportedPathError
from .geometry import (
    AnnulusParams,
    invert_point,
    poincare_density,
    polar_point,
    xi_coordinate,
    zeta_coordinate,
)
from .kernels import (
    _integer_2B,
    _tail_bound,
    _theta_polynomial,
    inversion_covariance_residual,
    kernel_basis_sum_oracle,
    kernel_km,
    kernel_km_grid,
    kernel_km_theta,
    sigma_kl,
    sigma_theta_path,
)
from .quadrature import QuadratureSpec, _leggauss, annulus_nodes, annulus_nodes_endpoint
from .special import (
    BOUNDARY_MARGIN,
    DEFAULT_SERIES,
    JacobiParams,
    SeriesControl,
    cauchy_beta_integral,
    gamma_abs_sq,
    jacobi_poly,
    jacobi_product_bateman,
    log_gamma,
    routh_coefficients,
    routh_leading_coefficient,
    routh_rodrigues_oracle,
    theta4,
    theta4_log_derivative,
)

# the suites that hold only at some B, with the test of B each needs
_B_GATES = {"inversion": _integer_2B, "theta": AnnulusParams.is_integer_B}

REPRODUCING_POINTS = 5  # per level; each costs a kernel row over the rule
GRAM_HALFWIDTH = 8  # the gram suite's indices: |j + B| <= GRAM_HALFWIDTH


@dataclass(frozen=True)
class ResidualEntry:
    """One named residual with its declared tolerance."""

    name: str
    value: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.value <= self.tolerance

    def to_json_dict(self) -> dict:
        return {"name": self.name, "value": self.value, "tolerance": self.tolerance}


@dataclass(frozen=True)
class SuiteOptions:
    """Knobs shared by every suite.

    seed drives all sampled points; n_points is the pair/point budget of the
    sampling-based suites.
    """

    seed: int = 7
    n_points: int = 20
    n_angular: int = 128
    n_radial: int = 96
    ctrl: SeriesControl = field(default_factory=SeriesControl)

    def __post_init__(self) -> None:
        if not isinstance(self.n_points, (int, np.integer)):
            raise DomainError(f"n_points must be an integer, got {self.n_points!r}")

    def spec(self) -> QuadratureSpec:
        return QuadratureSpec(n_angular=self.n_angular, n_radial=self.n_radial)


def _refined(spec: QuadratureSpec) -> QuadratureSpec:
    """The self-convergence rule: angular nodes doubled, radial + 32."""
    return replace(spec, n_angular=2 * spec.n_angular, n_radial=spec.n_radial + 32)


@dataclass(frozen=True)
class SuiteReport:
    """Outcome of one verification suite.

    passed is true exactly when every residual is at or below its declared
    tolerance.  canonical() drops the wall-clock field so that reports can
    be compared bit-for-bit across runs with the same seed.
    """

    suite: str
    params: dict
    residuals: tuple[ResidualEntry, ...]
    passed: bool
    runtime_s: float

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "params": dict(self.params),
            "residuals": [r.to_json_dict() for r in self.residuals],
            "pass": self.passed,
            "runtime_s": self.runtime_s,
        }

    def canonical(self) -> dict:
        out = self.to_json_dict()
        del out["runtime_s"]
        return out


def sample_points(
    params: AnnulusParams, n: int, seed: int
) -> list[complex]:
    """n interior points, uniform in (zeta, theta) in (0.15 pi, 0.85 pi) x
    (0, 2 pi), from the given seed."""
    rng = np.random.default_rng(seed)
    zetas = rng.uniform(0.15 * math.pi, 0.85 * math.pi, size=n)
    thetas = rng.uniform(0.0, 2.0 * math.pi, size=n)
    return [
        complex(polar_point(float(zt), float(th), params))
        for zt, th in zip(zetas, thetas)
    ]


def sample_pairs(
    params: AnnulusParams, n: int, seed: int
) -> list[tuple[complex, complex]]:
    """n point pairs from consecutive draws of sample_points."""
    pts = sample_points(params, 2 * n, seed)
    return [(pts[2 * i], pts[2 * i + 1]) for i in range(n)]


# ---------------------------------------------------------------------------
# quadrature-backed operations


def _endpoint_rule_needed(params: AnnulusParams, *orders: int) -> bool:
    """Whether integrands carrying one degree-``order`` cotangent polynomial
    factor per entry of ``orders`` need the endpoint-adapted radial rule.

    Each factor behaves like (sin zeta)^(-order) at the radial boundary, so
    the net boundary exponent against the weight is
    sigma = 2B - 2 - sum(orders).  (sin zeta)^sigma is analytic only for
    nonnegative integer sigma; any fractional sigma (negative ones occur for
    admissible levels with B - m < 1) leaves an algebraic endpoint factor
    that degrades plain Gauss-Legendre to a fixed algebraic rate, while the
    square-root substitution restores rapid convergence.
    """
    sigma = 2.0 * params.B - 2.0 - float(sum(orders))
    return not (abs(sigma - round(sigma)) < 1e-9 and round(sigma) >= 0)


def _level_nodes(
    params: AnnulusParams, spec: QuadratureSpec, *orders: int
) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature nodes matched to the boundary behavior of level products
    (see _endpoint_rule_needed)."""
    if _endpoint_rule_needed(params, *orders):
        return annulus_nodes_endpoint(params, spec)
    return annulus_nodes(params, spec)


def _gram_on_nodes(
    m: int, js: list[int], z: np.ndarray, wq: np.ndarray, params: AnnulusParams
) -> np.ndarray:
    flat, wf = z.ravel(), wq.ravel()
    psi = basis_phi_nodes(js, m, flat, params)
    psi *= [math.exp(-0.5 * log_basis_norm_sq(j, m, params)) for j in js]
    weighted = psi.conj()
    weighted *= wf[:, None]
    return weighted.T @ psi


def gram_matrix(
    m: int,
    window,
    spec: QuadratureSpec,
    params: AnnulusParams,
) -> np.ndarray:
    """Gram matrix of the unit-normalized basis over the quadrature rule.

    Entry (a, b) approximates the inner product of the normalized elements
    with indices window[b] and window[a].  Distinct angular modes sum to
    zero exactly in the trapezoid rule, so off-diagonal entries sit at the
    rounding level regardless of radial resolution; the diagonal carries
    the radial rule's accuracy, and the rule is endpoint-adapted when the
    level's boundary exponent calls for it.
    """
    js = list(window)
    z, wq = _level_nodes(params, spec, m, m)
    return _gram_on_nodes(m, js, z, wq, params)


def _alias_free_spec(
    zc: complex, nodes: np.ndarray, params: AnnulusParams, spec: QuadratureSpec
) -> QuadratureSpec | None:
    """Angular refinement needed so the kernel's bilateral modes do not
    alias in the trapezoid sum.

    The kernel row K_m(z, .) carries angular modes j of moduli ~ q^|j|
    |j + B|^(2B-1), q the extreme decay ratios over the nodes (those of
    kernels._decay_ratios: 1/|z||w| for j < 0, |z||w|/R^2 for j > 0); the
    n-node trapezoid rule folds the modes |j| >= n back onto the integral.
    Returns a spec with the first count, stepping up from spec's by an
    eighth at a time, at which _tail_bound puts that fold-back below 1e-13
    of the j = 0 mode, or None
    if spec's count already does or a ratio is within BOUNDARY_MARGIN of 1
    (kernel_km_grid refuses that row).
    """
    mods = np.abs(nodes.ravel()) * abs(zc)
    ratios = 1.0 / float(mods.min()), float(mods.max()) / params.R**2
    if not 1.0 - max(ratios) >= BOUNDARY_MARGIN:
        return None
    p, shift = 2.0 * params.B - 1.0, params.B

    def folded(n: int) -> float:  # the modes |j| >= n, relative to j = 0
        edges = [q ** (n - 1) * (abs(x) / shift) ** p
                 for q, x in zip(ratios, (1 - n + shift, n - 1 + shift))]
        return float(_tail_bound(edges, ratios, p, shift, n - 1))

    n = spec.n_angular
    while not folded(n) <= 1e-13:
        n += 2 * max(1, n // 16)
    if n == spec.n_angular:
        return None
    return replace(spec, n_angular=n)


def reproducing_residual(
    m: int,
    z,
    j0: int,
    spec: QuadratureSpec,
    params: AnnulusParams,
    ctrl: SeriesControl = DEFAULT_SERIES,
) -> float:
    """Relative defect of the reproducing identity at z for the normalized
    basis element with index j0:

        int K_m(z, w) f(w) omega(w)^(2B-2) dA(w) = f(z).
    """
    return _reproducing_defect(m, m, z, (j0,), spec, params, ctrl)[0]


def _reproducing_defect(
    m_kernel: int,
    m_function: int,
    z,
    j0s,
    spec: QuadratureSpec,
    params: AnnulusParams,
    ctrl: SeriesControl,
    refined: bool = False,
) -> list[float]:
    """The reproducing integrals of the level-m_kernel kernel against the
    level-m_function basis elements with indices j0s, one defect per index,
    all from one kernel row.  With distinct levels the eigenspaces are
    orthogonal, so the integral is ~0 and the relative defect is ~1.
    refined evaluates on the _refined rule of the bumped spec, so it always
    has more angular nodes than the unrefined evaluation."""
    zc = complex(z)
    nodes, wq = _level_nodes(params, spec, m_kernel, m_function)
    bumped = _alias_free_spec(zc, nodes, params, spec)
    if refined:
        bumped = _refined(bumped or spec)
    if bumped is not None:
        nodes, wq = _level_nodes(params, bumped, m_kernel, m_function)
    flat, wf = nodes.ravel(), wq.ravel()
    kvals = kernel_km_grid(m_kernel, zc, flat, params, ctrl)
    defects = []
    for j0 in j0s:
        # the int form per index: its z**j0 keeps each defect what a
        # single-index call gives
        scale = math.exp(-0.5 * log_basis_norm_sq(j0, m_function, params))
        fvals = basis_phi_nodes(j0, m_function, flat, params) * scale
        integral = complex(np.sum(wf * kvals * fvals))
        target = basis_phi(j0, m_function, zc, params) * scale
        defects.append(abs(integral - target) / max(abs(target), 1e-300))
    return defects


# ---------------------------------------------------------------------------
# individual suites


def _worst(name: str, tolerance: float, defects, cases=None):
    """The residual name: the largest of defects as a float, from 0.0, and
    NaN if any defect is NaN.  Given cases (one per defect, in order), also
    returns the case that set it, the first on a tie (None without defects)."""
    values = [float(d) for d in defects]
    # a NaN ranks above every number; max keeps the first of equal keys
    at = max(range(len(values)), key=lambda i: (values[i] != values[i], values[i]), default=None)
    entry = ResidualEntry(name, 0.0 if at is None else max(values[at], 0.0), tolerance)
    return entry if cases is None else (entry, None if at is None else cases[at])


def _gap(reference, other) -> float:
    """|reference - other| / |reference|, the reference evaluated first."""
    return abs(reference - other) / abs(reference)


def _suite_special_functions(params: AnnulusParams, opts: SuiteOptions):
    rng = np.random.default_rng(opts.seed + 101)

    z = rng.uniform(0.5, 50.0, size=1000) + 1j * rng.uniform(-50.0, 50.0, size=1000)
    lg, lg1 = log_gamma(z), log_gamma(z + 1.0)
    rec = np.abs(lg1 - lg - np.log(z)) / np.maximum(np.abs(lg1), 1.0)
    entries = [
        _worst("log-gamma-recurrence", 1e-12, [rec.max()]),
        _worst("gamma-reflection", 1e-10, [
            abs(gamma_abs_sq(1.0, y) * math.sinh(math.pi * y) / (math.pi * y) - 1.0)
            for y in (0.1, 1.0, 5.0, 20.0)
        ]),
    ]

    # the theta path's Gamma pairs Gamma(B-k + i n c) Gamma(B-l - i n c) =
    # 2 log R [n R^n/(R^(2n)-1)] P_kl(n) (degree <= 2B - 2), every k, l < B,
    # against log_gamma, the second factor's the conjugate of a first's;
    # 2 log R x the bracket is x/sinh(x), x = |n| log R
    n, gaps = np.arange(-30, 31), []
    for log_R in map(math.log, (2.0, 4.0, 10.0)):
        x = abs(n) * log_R
        ratio = np.divide(x, np.sinh(x), out=np.ones_like(x), where=x > 0)
        lg = log_gamma(np.arange(4.0, 0.0, -1.0)[:, None] + 1j * n * (log_R / math.pi))
        for B in (1, 2, 3, 4):
            side = lg[4 - B:]  # loggamma(B - k + i n c), k = 0..B-1
            P = np.zeros((B, B, 2 * B - 1), dtype=complex)
            for k, l in np.ndindex(B, B):
                p = _theta_polynomial(k, l, B, log_R)
                P[k, l, : p.size] = p
            got = ratio * (P @ np.vander(n, 2 * B - 1, increasing=True).T)
            ref = np.exp(side[:, None] + side.conj()[None])
            gaps.append(np.max(np.abs(got - ref) / np.abs(ref)))
    entries.append(_worst("gamma-pair-product-path", 1e-10, gaps))

    # each case is a degree, then a, b and x from six uniforms (re, im):
    # drawn one case at a time, as the integer and the uniforms interleave
    # in the stream, then evaluated as one array per degree
    degrees, draws = [], []
    for _ in range(200):
        degrees.append(int(rng.integers(0, 7)))
        draws.append(rng.random(6))  # uniform(low, high) is low + (high - low) u
    a, b, x = (np.array(draws) * [6.0, 6.0, 6.0, 6.0, 4.0, 4.0]
               + [-3.0, -3.0, -3.0, -3.0, -2.0, -2.0]).view(complex).T
    degrees, gaps = np.array(degrees), np.empty(200)
    for k in range(7):
        at = degrees == k
        lhs = jacobi_poly(JacobiParams(b[at], a[at], k), -x[at])
        rhs = (-1.0) ** k * jacobi_poly(JacobiParams(a[at], b[at], k), x[at])
        gaps[at] = np.abs(lhs - rhs) / np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1.0)
    entries.append(_worst("jacobi-symmetry", 1e-11, [gaps.max()]))

    gaps = []
    for m in range(5):
        a, b, x, y = rng.uniform([-0.45, -0.45, -2.0, -2.0], [3.0, 3.0, 2.0, 2.0], size=(40, 4)).T
        p = JacobiParams(a, b, m)
        at_x, at_y = jacobi_poly(p, (x, y))
        direct = at_x * at_y
        expans = jacobi_product_bateman(p, x, y)
        gaps.append(np.abs(direct - expans) / np.maximum(np.abs(direct), 1.0))
    entries.append(_worst("jacobi-product-expansion", 1e-10, [np.max(gaps)]))

    gaps = []
    for m in range(5):
        for a, b in ((0.8, -1.2), (2.0, -2.0), (-1.5, -0.5)):
            for x in (-0.7, 0.2, 1.1):
                ref = npoly.polyval(x, routh_coefficients(m, a, b))
                got = routh_rodrigues_oracle(m, a, b, x)
                gaps.append(abs(got - ref) / max(abs(ref), 1.0))
    entries.append(_worst("rodrigues-oracle", 1e-7, gaps))

    # the 128-node Gauss-Legendre rule mapped to [0, pi]
    nodes, weights = _leggauss(128)
    x, wx = 0.5 * math.pi * (nodes + 1.0), 0.5 * math.pi * weights
    entries.append(_worst("cauchy-beta-integral", 1e-10, [
        _gap(float(wx @ (np.exp(-p * x) * np.sin(x) ** nu)), cauchy_beta_integral(p, nu))
        for p, nu in ((0.0, 0.0), (0.0, 2.0), (1.0, 1.0), (0.7, 2.5))
    ]))

    R = max(params.R, 2.0)
    entries.append(_worst("theta4-quasi-periodicity", 1e-10, [
        _gap(-cmath.exp(math.log(R) - 2j * zt) * theta4(zt, R),
             theta4(zt + 1j * math.log(R), R))
        for zt in (0.2 + 0.1j, -0.6 + 0.25j, 1.1 - 0.15j)
    ]))

    # probe point scaled to the strip Im z in (0, log(R)/2) where the
    # Lambert series converges; a fixed point would sit near the strip edge
    # for small R, where high derivatives of log theta4 blow up and the
    # O(h^4) truncation of the difference stencil dominates
    z0 = 0.15j * math.log(R)
    h = 1e-3
    series = theta4_log_derivative(2, z0, R)

    def logt(u: complex) -> complex:
        return cmath.log(theta4(u, R))

    def second(hh: float) -> complex:
        return (logt(z0 + hh) - 2.0 * logt(z0) + logt(z0 - hh)) / (hh * hh)

    fd = (4.0 * second(h / 2.0) - second(h)) / 3.0
    entries.append(_worst("theta4-log-derivative-fd", 1e-8, [_gap(series, fd)]))
    return entries


def _suite_geometry(params: AnnulusParams, opts: SuiteOptions):
    pts = sample_points(params, opts.n_points, opts.seed + 202)
    turn = cmath.exp(0.7j)
    entries = [
        _worst("inversion-isometry", 1e-12, [
            _gap((params.R / abs(z) ** 2) * poincare_density(z, params),
                 poincare_density(complex(params.R) / z, params))
            for z in pts
        ]),
        _worst("rotation-invariance", 1e-12, [
            abs(coordinate(z * turn, params) - coordinate(z, params))
            for z in pts for coordinate in (zeta_coordinate, xi_coordinate)
        ]),
        _worst("involution", 1e-15, [
            _gap(z, invert_point(invert_point(z, params), params)) for z in pts
        ]),
    ]

    n = 40
    zetas = math.pi * (np.arange(1, n + 1)) / (n + 1.0)
    radii = params.R ** (zetas / math.pi)
    mapped = params.R / radii
    same = set(np.round(np.log(radii), 12)) == set(np.round(np.log(mapped), 12))
    entries.append(ResidualEntry("modulus-grid-bijection", 0.0 if same else 1.0, 0.5))

    grid = [
        complex(polar_point(zt, th, params))
        for zt in np.linspace(0.02 * math.pi, 0.98 * math.pi, 25)
        for th in np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False)
    ]
    positive = all(poincare_density(z, params) > 0.0 for z in grid)
    entries.append(ResidualEntry("density-positive", 0.0 if positive else 1.0, 0.5))
    return entries


def _suite_basis(params: AnnulusParams, opts: SuiteOptions):
    spec = opts.spec()
    levels = admissible_levels(params)

    js = range(-10, 11)
    gaps, cases = [], []
    for m in levels:
        z, wq = _level_nodes(params, spec, m, m)
        mods = np.abs(basis_phi_nodes(js, m, z.ravel(), params))
        quads = wq.ravel() @ np.square(mods, out=mods)
        for j, quad in zip(js, quads.tolist()):
            closed = basis_norm_sq(j, m, params)
            gaps.append(abs(quad - closed) / closed)
            cases.append((m, j, quad))
    norm, (m, j, coarse) = _worst("norm-closed-vs-quadrature", 1e-7, gaps, cases)

    zf, wfq = _level_nodes(params, _refined(spec), m, m)
    fine = float(wfq.ravel() @ np.abs(basis_phi_nodes(j, m, zf.ravel(), params)) ** 2)
    delta = abs(fine - coarse) / basis_norm_sq(j, m, params)

    def lead_gap(m: int) -> float:
        lead = routh_coefficients(m, -2.0 * (3 + params.B) * params.radial_scale, 1.0 - params.B)[-1]
        ref = routh_leading_coefficient(m, params.B)
        return abs(lead - ref) / max(abs(ref), 1.0)

    return [
        norm,
        _worst("norm-self-convergence-delta", 1e-8, [delta]),
        _worst("leading-coefficient", 1e-9, map(lead_gap, levels)),
    ]


def _suite_gram(params: AnnulusParams, opts: SuiteOptions):
    spec = opts.spec()
    B = params.B
    half = GRAM_HALFWIDTH
    js = [j for j in range(-half - int(math.ceil(B)), half + 1) if abs(j + B) <= half]
    cases, offs = [], []
    for m in admissible_levels(params):
        g = gram_matrix(m, js, spec, params)
        dev = np.abs(g - np.eye(len(js)))
        cases.append((m, g, dev))
        if _endpoint_rule_needed(params, m, m):
            # Angular-mode orthogonality is a statement about the trapezoid
            # sum alone; measure it on the plain rule, whose nodes stay away
            # from the boundary where cot(zeta) reconstruction from |z|
            # amplifies rounding into the per-term cancellation.  The radial
            # weights do not enter the zeros, and the plain rule needs e >= 0.
            plain = replace(spec, weight_exponent=max(spec.resolve_exponent(params), 0.0))
            g_off = _gram_on_nodes(m, js, *annulus_nodes(params, plain), params)
            off = np.abs(g_off - np.eye(len(js)))
            off = off - np.diag(np.diag(off))
        else:
            off = dev - np.diag(np.diag(dev))
        offs.append(np.abs(off).max())
    deviation, (m, g, dev) = _worst(
        "gram-identity-deviation", 1e-6, [dev.max() for _, _, dev in cases], cases
    )

    row, col = np.unravel_index(int(dev.argmax()), dev.shape)
    nodes = _level_nodes(params, _refined(spec), m, m)
    fine = _gram_on_nodes(m, [js[row], js[col]], *nodes, params)[0, 1]
    return [
        deviation,
        _worst("gram-off-diagonal", 1e-12, offs),
        _worst("gram-self-convergence-delta", 1e-7, [abs(fine - complex(g[row, col]))]),
    ]


def _suite_reproducing(params: AnnulusParams, opts: SuiteOptions):
    spec = opts.spec()
    pts = sample_points(params, REPRODUCING_POINTS, opts.seed + 303)
    levels = admissible_levels(params)
    j0s = (-2, 0, 3)
    rows = {m: [_reproducing_defect(m, m, z, j0s, spec, params, opts.ctrl) for z in pts]
            for m in levels}
    cases = [(m, a, i) for m in levels for a in range(len(j0s)) for i in range(len(pts))]
    identity, (m, a, i) = _worst(
        "reproducing-identity", 1e-6, [rows[m][i][a] for m, a, i in cases], cases
    )
    (fine,) = _reproducing_defect(m, m, pts[i], (j0s[a],), spec, params, opts.ctrl, refined=True)
    entries = [
        identity,
        _worst("reproducing-self-convergence-delta", 1e-7, [abs(fine - identity.value)]),
    ]

    if len(levels) >= 2:
        (cross,) = _reproducing_defect(
            levels[1], levels[0], pts[0], (0,), spec, params, opts.ctrl
        )
        entries.append(_worst("cross-level-separation", 0.1, [abs(cross - 1.0)]))
    return entries


def _suite_eigen(params: AnnulusParams, opts: SuiteOptions):
    pts = sample_points(params, 3, opts.seed + 404)
    levels = admissible_levels(params)

    gaps = []
    for m in levels:
        lam = landau_level_eigenvalue(m, params)
        for j in (-4, 0, 4):
            for z0 in pts:
                batches = []

                def f(z, j=j, m=m):
                    batches.append(basis_phi(j, m, z, params))
                    return batches[-1]

                got = invariant_laplacian_apply(f, z0, params)
                at_z0 = complex(batches[0][0])  # the stencil's first point is z0
                want = lam * at_z0
                gaps.append(abs(got - want) / max(abs(want), abs(at_z0)))

    rng = np.random.default_rng(opts.seed + 405)
    return [
        _worst("laplacian-eigen-fd", 1e-4, gaps),
        _worst("sturm-liouville-exact", 1e-9, [
            np.abs(sturm_liouville_apply(m, j, rng.uniform(-3.0, 3.0, size=8), params)).max()
            for m in levels for j in (-10, -2, 0, 7)
        ]),
    ]


def _suite_polyanalytic(params: AnnulusParams, opts: SuiteOptions):
    """The exact Cauchy-Riemann ladder g_k = (omega^2 d/dzbar)^k phi_j
    (basis_phi's order) checked rung by rung with the order-1 stencil: for
    k = 0..m, cr_apply(g_k) must match g_(k+1), which is zero at k = m.  By
    induction this checks every power up to m + 1 at every level."""
    pts = sample_points(params, 2, opts.seed + 505)
    levels = admissible_levels(params)
    rungs, tops, ratios = [], [], []
    for m in levels:
        for j in (-1, 2):
            for z0 in pts:
                g = [basis_phi(j, m, z0, params, k) for k in range(m + 1)]
                fd = [cr_apply(lambda z, k=k: basis_phi(j, m, z, params, k), z0, params)
                      for k in range(m + 1)]
                rungs += [abs(fd[k] - g[k + 1]) / max(abs(g[k]), abs(g[k + 1]), 1.0)
                          for k in range(m)]
                # fd[m] is the stencil's image of the top rung g_m
                tops.append(abs(fd[m]) / max(abs(g[m]), 1.0))
                if m >= 1:
                    ratios.append(10.0 * abs(fd[m]) / abs(g[m]))
    entries = [_worst("cr-annihilation", 1e-8, tops)]
    if len(levels) > 1:
        entries.append(_worst("cr-ladder-fd", 1e-8, rungs))
        entries.append(_worst("cr-order-separation", 1.0, ratios))
    return entries


def _suite_multipath(params: AnnulusParams, opts: SuiteOptions):
    """Cross-path agreement of the closed form with the basis-sum oracle
    and, at integer B, the theta path (the Jacobi product is the oracle's
    sum and the product formula the theta path's at m = 0, no second
    reference).  Every comparison passes a rounding budget of a tenth of
    its tolerance to both sides, so pairs near the kernel's deep
    off-diagonal valleys (where gross-to-net cancellation makes binary64
    rounding dominate) escalate to extended precision instead of polluting
    the defect."""
    pairs = sample_pairs(params, opts.n_points, opts.seed + 606)
    cases = [(m, z, w) for m in admissible_levels(params) for z, w in pairs]
    ctrl = opts.ctrl

    def closed(m, z, w, rtol):
        return kernel_km(m, z, w, params, ctrl, rounding_rtol=rtol).value

    entries = [_worst("closed-vs-basis-sum", 1e-8, [
        _gap(kernel_basis_sum_oracle(m, z, w, params, tol=1e-12, rounding_rtol=1e-9).value,
             closed(m, z, w, 1e-9))
        for m, z, w in cases
    ])]
    if params.is_integer_B():
        entries.append(_worst("closed-vs-theta", 1e-9, [
            _gap(closed(m, z, w, 1e-10),
                 kernel_km_theta(m, z, w, params, ctrl, rounding_rtol=1e-10).value)
            for m, z, w in cases if params.B - m >= 1.0
        ]))
    return entries


def _suite_inversion(params: AnnulusParams, opts: SuiteOptions):
    pairs = sample_pairs(params, opts.n_points, opts.seed + 707)
    return [_worst("inversion-covariance", 1e-10, [
        inversion_covariance_residual(m, z, w, params, opts.ctrl)
        for m in admissible_levels(params) for z, w in pairs
    ])]


def _suite_theta(params: AnnulusParams, opts: SuiteOptions):
    B = int(round(params.B))
    pairs = sample_pairs(params, max(4, opts.n_points // 4), opts.seed + 808)
    ctrl = opts.ctrl
    m_top = max(admissible_levels(params))
    orders = range(min(m_top, B - 1) + 1)
    return [
        _worst("sigma-vs-theta", 1e-9, [
            _gap(sigma_kl(k, l, z, w, m_top, params, ctrl, rounding_rtol=1e-10),
                 sigma_theta_path(k, l, z, w, params, ctrl, rounding_rtol=1e-10))
            for k in orders for l in orders for z, w in pairs
        ]),
        _worst("kernel-theta-vs-closed", 1e-9, [
            _gap(kernel_km(m, z, w, params, ctrl, rounding_rtol=1e-10).value,
                 kernel_km_theta(m, z, w, params, ctrl, rounding_rtol=1e-10).value)
            for m in admissible_levels(params) if B - m >= 1 for z, w in pairs
        ]),
    ]


_SUITE_FUNCTIONS = {
    "special-functions": _suite_special_functions,
    "geometry": _suite_geometry,
    "basis": _suite_basis,
    "gram": _suite_gram,
    "reproducing": _suite_reproducing,
    "eigen": _suite_eigen,
    "polyanalytic": _suite_polyanalytic,
    "multipath": _suite_multipath,
    "inversion": _suite_inversion,
    "theta": _suite_theta,
}
SUITE_NAMES = (*_SUITE_FUNCTIONS, "all")


def run_suite(
    name: str,
    params: AnnulusParams,
    options: SuiteOptions | None = None,
) -> SuiteReport:
    """Run the named verification suite and return its report.

    The suite "all" aggregates every individual suite, prefixing residual
    names with the sub-suite; the inversion suite is included only when 2B
    is an integer, and the theta suite only when B is.  Unknown names raise
    UnknownSuiteError; requesting the inversion or theta suite directly
    where it is not included raises UnsupportedPathError.
    """
    if name not in SUITE_NAMES:
        raise UnknownSuiteError(
            f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}"
        )
    if name in _B_GATES and not _B_GATES[name](params):
        raise UnsupportedPathError(f"{name} suite does not hold at B={params.B}")
    opts = options if options is not None else SuiteOptions()
    start = time.perf_counter()
    if name == "all":
        residuals: list[ResidualEntry] = []
        for sub, suite in _SUITE_FUNCTIONS.items():
            if sub in _B_GATES and not _B_GATES[sub](params):
                continue
            for entry in suite(params, opts):
                residuals.append(
                    ResidualEntry(f"{sub}/{entry.name}", entry.value, entry.tolerance)
                )
    else:
        residuals = list(_SUITE_FUNCTIONS[name](params, opts))
    runtime = time.perf_counter() - start
    return SuiteReport(
        suite=name,
        params={
            "R": params.R,
            "B": params.B,
            "m": admissible_levels(params),
            "window": GRAM_HALFWIDTH,
            "seed": opts.seed,
        },
        residuals=tuple(residuals),
        passed=all(r.passed for r in residuals),
        runtime_s=runtime,
    )
