"""Reproducing kernels of the Landau-level eigenspaces on the annulus.

Four independent evaluation paths are implemented and cross-checked:

  closed_form      the double sum over sigma-series (Gamma-pair bilateral
                   series contracted against powers of V and conj(V)),
  basis_sum        the ground-truth oracle  K_m = sum_j Phi_j(z) conj(Phi_j(w))
                   built from the orthonormal basis and the closed-form norms,
  theta            integer B only: each sigma-series collapsed to finitely
                   many logarithmic derivatives of theta_4 via the elementary
                   Gamma-pair product,
  product_formula  integer B, m = 0 only: the elementary-coefficient series.

Each series is written once, as a term function vectorised over the window
j = -J..J, and summed by one driver (_sum_window): the window doubles until
the rigorous geometric tail bound (_tail_bound) falls below the tolerance.
Every kernel built from sigma_{k,l} goes through one (k, l) contraction
(_contract) and one K_m prefactor (_prefactor).  The node-set evaluation
kernel_km_grid sizes its window with the same tail bound, per node, to the
tolerance times |K| plus the node's rounding level; see its docstring.

Extended precision re-runs the same term and contraction code at 34 digits.
When machine epsilon times the condition (the gross-to-net ratio of the
summed series) exceeds the caller's rounding budget, the pair geometry is
rebuilt from the binary64 inputs in mpmath numbers, and the series is summed
again over the window widened to J + J//2 + 16.  The number type of the pair
selects the elementwise functions: numpy and scipy for binary64, mpmath over
numpy object arrays for the extended evaluation.

Convention note: textbook displays of the closed form differ in where the
conjugation sits and whether an alternating sign (-1)^m is present.  Both
choices are fixed here against the basis_sum oracle (which follows from the
definition of a reproducing kernel and the independently tested norms) and
pinned by regression tests: the sigma_{k,l} term carries V^l * conj(V)^k,
and the prefactor carries no alternating sign.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, replace
from typing import Callable

import mpmath as mp
import numpy as np
import scipy.special as sc

from .errors import ConvergenceError, DomainError, UnsupportedPathError
from .geometry import AnnulusParams, as_complex, require_interior
from .special import (
    DEFAULT_SERIES,
    JacobiParams,
    SeriesControl,
    jacobi_poly,
    pochhammer,
    theta4_log_derivative,
)
from .basis import basis_norm_sq, require_admissible

KERNEL_PATHS = ("closed_form", "basis_sum", "theta", "product_formula")

_EPS = float(np.finfo(float).eps)
# nodes per t-power matrix of kernel_km_grid
_GRID_CHUNK = 1024


@dataclass(frozen=True)
class _Numbers:
    """The functions a number type is evaluated with.  exp and loggamma act
    elementwise on arrays; index arrays j have dtype."""

    dtype: type
    convert: Callable
    pi: object
    log: Callable
    clog: Callable
    cot: Callable
    gamma: Callable
    exp: Callable
    loggamma: Callable


_BINARY64 = _Numbers(
    float, lambda x: x, math.pi, math.log, cmath.log,
    lambda x: math.cos(x) / math.sin(x), math.gamma, np.exp, sc.loggamma,
)
# mpmath numbers at the working precision, held in numpy object arrays
_MPMATH = _Numbers(
    object, mp.mpmathify, mp.pi, mp.log, mp.log, mp.cot, mp.gamma,
    np.frompyfunc(mp.exp, 1, 1), np.frompyfunc(mp.loggamma, 1, 1),
)


@dataclass(frozen=True)
class PairGeometry:
    """Joint coordinates of a point pair (z, w) entering every kernel series.

    t = z conj(w) / R,  X = cot(zeta_z),  Y = cot(zeta_w),
    V = (1 + iX)(1 + iY)/4,  mu(j) = i (j + B) log(R)/pi.
    """

    t: complex
    X: float
    Y: float
    V: complex
    B: float
    radial_scale: float

    def mu(self, j: int) -> complex:
        return 1j * (j + self.B) * self.radial_scale


@dataclass(frozen=True)
class _Pair(PairGeometry):
    """The pair coordinates in one number type, with the points and the
    parameters in that type."""

    num: _Numbers
    params: AnnulusParams
    z: complex
    w: complex
    R: float
    log_R: float


@dataclass(frozen=True)
class KernelEvaluation:
    """A kernel value with its evaluation path and truncation diagnostics.

    tail_bound bounds the truncation error only.  condition is the
    gross-to-net ratio of the summed series (the factor by which
    floating-point rounding of individual terms can be amplified in the
    cancelled total), so a binary64 value carries about eps x condition
    relative rounding error on top, and none of its digits once that nears
    1.  precision records whether the value came from the plain binary64
    ladder or the extended-precision re-evaluation.
    """

    value: complex
    path: str
    terms_used: int
    tail_bound: float
    condition: float = 0.0
    precision: str = "binary64"


def _pair(z, w, params: AnnulusParams, num: _Numbers = _BINARY64) -> _Pair:
    zc, wc = as_complex(z), as_complex(w)
    require_interior(zc, params)
    require_interior(wc, params)
    zn, wn = num.convert(zc), num.convert(wc)
    R, B = num.convert(params.R), num.convert(params.B)
    log_R = num.log(R)
    X, Y = (num.cot(num.pi * num.log(abs(v)) / log_R) for v in (zn, wn))
    return _Pair(
        t=zn * wn.conjugate() / R,
        X=X,
        Y=Y,
        V=0.25 * (1 + 1j * X) * (1 + 1j * Y),
        B=B,
        radial_scale=log_R / num.pi,
        num=num,
        params=params,
        z=zn,
        w=wn,
        R=R,
        log_R=log_R,
    )


def pair_geometry(z, w, params: AnnulusParams) -> PairGeometry:
    """Pair coordinates (t, X, Y, V) of two interior points."""
    return _pair(z, w, params)


def _at_34_digits(evaluate: Callable[[_Pair], object], z, w, params: AnnulusParams) -> complex:
    """evaluate(pair) re-run on 34-digit numbers: the pair geometry rebuilt
    from the binary64 inputs, the result rounded back to binary64."""
    with mp.workdps(34):
        return complex(evaluate(_pair(z, w, params, _MPMATH)))


def _widened(J: int) -> int:
    """The window of an extended re-evaluation after a binary64 window J."""
    return J + J // 2 + 16


def _integer_B(params: AnnulusParams, what: str) -> int:
    """B of a path that needs it integer; what names the path."""
    if not params.is_integer_B():
        raise UnsupportedPathError(f"{what} requires integer B, got B={params.B}")
    return int(round(params.B))


def _decay_ratios(g: _Pair, ctrl: SeriesControl) -> tuple[float, float]:
    """Geometric decay ratios of the bilateral series: q_plus for j -> +inf,
    q_minus for j -> -inf.  Both are < 1 exactly when 1/R < |t| < R; a pair
    with either ratio within ctrl.boundary_margin of 1 is refused."""
    q_plus, q_minus = abs(g.t) / g.R, 1.0 / (g.R * abs(g.t))
    if min(1.0 - q_plus, 1.0 - q_minus) < ctrl.boundary_margin:
        raise ConvergenceError(
            f"pair too close to the boundary: decay ratios q+={q_plus:.6g}, "
            f"q-={q_minus:.6g} must stay below 1 - {ctrl.boundary_margin}"
        )
    return q_plus, q_minus


def _tail_bound(edges: np.ndarray, ratios, p, shift: float, J: int) -> np.ndarray:
    """Rigorous bound on the tails |j| > J of bilateral series whose moduli
    decay like q_minus^|j| and q_plus^j (ratios[..., 0] and [..., 1]) times
    a growth |j + shift|^p (p broadcasting against edges); edges[..., 0] and
    edges[..., 1] are the moduli at j = -J and j = J.  Each tail is at most
    its edge term x q_eff/(1 - q_eff), q_eff = q ((|j + shift| + 1)/
    |j + shift|)^p at the edge; every bound is infinite once any q_eff >= 1.
    """
    lo, hi = abs(-J + shift), abs(J + shift)
    q_eff = ratios * np.array([(lo + 1.0) / lo, (hi + 1.0) / hi]) ** p
    if q_eff.max() < 1.0:
        return (edges * q_eff / (1.0 - q_eff)).sum(axis=-1)
    return np.full(edges.shape[:-1], math.inf)


def _sum_window(
    terms: Callable[[int], np.ndarray],
    p,
    shift: float,
    g: _Pair,
    ctrl: SeriesControl,
    window: int | None = None,
):
    """Sum one or more bilateral series over the window j = -J..J.

    terms(J) gives the terms of each series along the last axis; their
    growth exponent p and shift are those of _tail_bound.  J doubles from 32
    until every tail is below ctrl.tolerance times the largest sum; an
    explicit window is summed as it is.  Returns the sums, the tail bounds,
    the gross magnitudes (sums of |term|, the rounding majorants) and J.
    """
    q_plus, q_minus = _decay_ratios(g, ctrl)
    ratios = np.array([q_minus, q_plus])
    p_edges = np.asarray(p)[..., None]
    J = 32 if window is None else int(window)
    while True:
        values = terms(J)
        total = values.sum(axis=-1)
        moduli = np.abs(values)
        gross = moduli.sum(axis=-1)
        # the step takes j = -J and j = J (the one term at J = 0)
        tails = _tail_bound(moduli[..., :: max(2 * J, 1)], ratios, p_edges, shift, J)
        scale = max(float(abs(total).max()), 1e-300)
        if window is not None or tails.max() <= ctrl.tolerance * scale:
            return total, tails, gross, J
        if 4 * J + 1 > ctrl.max_terms:
            raise ConvergenceError(
                f"bilateral series did not reach tolerance {ctrl.tolerance} "
                f"within {ctrl.max_terms} terms (J={J}, q+={q_plus:.4g}, "
                f"q-={q_minus:.4g})"
            )
        J *= 2


def _ladder(g: _Pair, J: int, offsets, inner: int = -1) -> tuple[np.ndarray, np.ndarray]:
    """The log-Gamma ladders loggamma(B - k + i y_j), y_j = (j + B) log(R)/pi,
    over the j in -J..J with |j| > inner (all by default), one row per k in
    offsets; and those j."""
    j = np.arange(-J, J + 1, dtype=g.num.dtype)
    j = j[abs(j) > inner]
    k = np.array(offsets, dtype=g.num.dtype)
    return g.num.loggamma((g.B - k)[:, None] + g.mu(j)[None, :]), j


def _sigma_log_terms(g: _Pair, J: int, m: int, log_t, inner: int = -1) -> np.ndarray:
    """log of the terms Gamma(B-k + i y_j) Gamma(B-l - i y_j) t^j of every
    sigma_{k,l}, 0 <= k, l <= m (axes 0 and 1), over the j of _ladder (axis 2).

    The ladder of each k is computed once and shared by every l: the second
    factor is the Schwarz conjugate of row l.
    """
    lg, j = _ladder(g, J, range(m + 1), inner)
    return lg[:, None] + lg.conj()[None] + j * log_t


def _sigma_family(
    m: int, g: _Pair, ctrl: SeriesControl
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """All sigma_{k,l} for 0 <= k, l <= m over one shared Gamma ladder,

        sigma_{k,l} = sum_{j in Z} Gamma(B-k + i y_j) Gamma(B-l - i y_j) t^j,

    with their tail bounds relative to the family scale (the polynomial
    growth |y|^(2B-k-l-1) of the Gamma pair absorbed into the ratio).
    Returns (sigma, tails, gross, J), where gross[k, l] is the
    non-cancelling sum of term magnitudes (the rounding majorant).
    """
    if g.params.B - m <= 0.0:
        raise DomainError(f"sigma series needs B - k > 0 for all k <= m={m}")
    k = np.arange(m + 1)
    p = np.maximum(2.0 * g.B - (k[:, None] + k[None, :]) - 1.0, 0.0)
    log_t = cmath.log(g.t)
    values = np.empty((m + 1, m + 1, 0), dtype=complex)

    def terms(J: int) -> np.ndarray:
        # keeps the previous window's terms: each term is evaluated once
        nonlocal values
        inner = (values.shape[-1] - 1) // 2  # the previous J; -1 at first
        new = np.exp(_sigma_log_terms(g, J, m, log_t, inner))
        cut = J - inner  # new terms with j < 0 (and j = 0 at first)
        values = np.concatenate((new[..., :cut], values, new[..., cut:]), axis=-1)
        return values

    return _sum_window(terms, p, g.B, g, ctrl)


def _sigma_sums(g: _Pair, J: int, m: int) -> Callable:
    """(k, l) -> (sigma_{k,l},) summed over the fixed window [-J, J]; only
    the requested series are exponentiated."""
    log_terms = _sigma_log_terms(g, J, m, g.num.clog(g.t))
    return lambda k, l: (g.num.exp(log_terms[k, l]).sum(),)


def _weights(m: int, B, V) -> list:
    """(k, l, weight) of each sigma_{k,l} in the closed-form double sum,
    weight = (1-2B+m)_(k+l) / ((m-k-l)! k! l!) V^l conj(V)^k, k + l <= m
    (arrangement pinned against the basis-sum oracle; see module docstring).
    """
    f = math.factorial
    return [
        (k, l, pochhammer(1 - 2 * B + m, k + l) / (f(m - k - l) * f(k) * f(l))
         * V**l * V.conjugate() ** k)
        for l in range(m + 1) for k in range(m + 1 - l)
    ]


def _contract(m: int, B, V, family: Callable) -> list:
    """The closed-form double sum  sum_{k+l<=m} weight_{k,l} sigma_{k,l}.

    family(k, l) returns (sigma_{k,l}, *moduli); the result is the sum above
    followed by the same sum of each modulus with the weights' magnitudes
    (tail bounds and rounding majorants of the contraction).
    """
    sums = None
    for k, l, weight in _weights(m, B, V):
        value, *moduli = family(k, l)
        terms = [weight * value] + [abs(weight) * x for x in moduli]
        sums = terms if sums is None else [a + b for a, b in zip(sums, terms)]
    return sums


def _prefactor(m: int, g: _Pair):
    """K_m = (2 pi)^(2B-3) (2B-2m-1) / (R^B log(R)^(2B-1) Gamma(2B-m)) times
    the (k, l) contraction."""
    B = g.B
    return (
        (2 * g.num.pi) ** (2 * B - 3)
        * (2 * B - 2 * m - 1)
        / (g.R**B * g.log_R ** (2 * B - 1) * g.num.gamma(2 * B - m))
    )


def sigma_kl(
    k: int,
    l: int,
    z,
    w,
    m_context: int,
    params: AnnulusParams,
    ctrl: SeriesControl = DEFAULT_SERIES,
    rounding_rtol: float | None = None,
) -> complex:
    """The bilateral Gamma-pair series sigma_{k,l}(z, w).

    k and l must not exceed the level context m (which bounds the Gamma
    arguments away from poles: B - max(k,l) >= B - m > 0).  With
    rounding_rtol set, a cancellation-limited sum escalates to extended
    precision over a widened window.
    """
    if not (0 <= k <= m_context and 0 <= l <= m_context):
        raise DomainError(f"need 0 <= k,l <= m={m_context}, got k={k}, l={l}")
    require_admissible(m_context, params)
    g = _pair(z, w, params)
    sigma, _, gross, J = _sigma_family(m_context, g, ctrl)
    condition = gross[k, l] / max(abs(sigma[k, l]), 1e-300)
    # truncation (relative to the family scale) and rounding are both
    # amplified by the gross-to-net ratio of this entry
    if (
        rounding_rtol is not None
        and max(_EPS, ctrl.tolerance) * condition > rounding_rtol
    ):
        J = _widened(J)
        return _at_34_digits(lambda e: _sigma_sums(e, J, max(k, l))(k, l)[0], z, w, params)
    return complex(sigma[k, l])


def _closed_form(m: int, g: _Pair, ctrl: SeriesControl):
    """K_m in binary64, refining the truncation tolerance (twice, 100x each)
    until the weighted tail bound is within ctrl.tolerance x |value|.
    Returns (value, tail, condition, J, certified)."""
    pref = _prefactor(m, g)
    eff = ctrl
    for _ in range(3):
        sigma, tails, gross, J = _sigma_family(m, g, eff)
        total, bound, majorant = _contract(
            m, g.B, g.V, lambda k, l: (sigma[k, l], tails[k, l], gross[k, l])
        )
        value, tail = pref * total, abs(pref) * bound
        condition = majorant / max(abs(total), 1e-300)
        if tail <= ctrl.tolerance * abs(value):
            return value, tail, condition, J, True
        eff = replace(eff, tolerance=eff.tolerance / 100.0)
    return value, tail, condition, J, False


def kernel_km(
    m: int,
    z,
    w,
    params: AnnulusParams,
    ctrl: SeriesControl = DEFAULT_SERIES,
    rounding_rtol: float | None = None,
) -> KernelEvaluation:
    """Closed-form reproducing kernel K_m(z, w) of the m-th eigenspace.

    Hermitian in (z, w), rotation invariant, and equal to the basis-sum
    oracle; the tail bound is the coefficient-weighted sum of the rigorous
    sigma-series bounds and satisfies tail_bound <= tolerance * |value|.

    ctrl.tolerance governs truncation only.  Rounding error is bounded by
    machine epsilon times the reported condition (gross-to-net cancellation
    of the contraction); when rounding_rtol is given and that bound exceeds
    it, the value is recomputed in extended precision over a widened window
    and reported with precision="extended".  Without rounding_rtol nothing
    checks the rounding: at (R, B) = (1.5, 2), m = 0, the first pair of
    verify.sample_pairs(params, 6, 11) (z ~ -0.5739-0.9410j,
    w ~ -0.1939+1.2090j) has condition 1.8e15, and its binary64 value,
    reported with a tail bound of 1.4e-26, is 58% off.  Callers who need a
    certified value pass rounding_rtol.
    """
    require_admissible(m, params)
    g = _pair(z, w, params)
    value, tail, condition, J, certified = _closed_form(m, g, ctrl)
    if rounding_rtol is None and not certified:
        raise ConvergenceError(
            f"kernel tail bound {tail:.3g} exceeds tolerance x |value| = "
            f"{ctrl.tolerance * abs(value):.3g} after refinement"
        )
    precision = "binary64"
    # an uncertified binary64 truncation escalates as well: the extended
    # evaluation covers both error terms
    if rounding_rtol is not None and (not certified or _EPS * condition > rounding_rtol):
        J, precision = _widened(J), "extended"
        value = _at_34_digits(
            lambda e: _prefactor(m, e) * _contract(m, e.B, e.V, _sigma_sums(e, J, m))[0],
            z, w, params,
        )
    return KernelEvaluation(
        complex(value), "closed_form", 2 * J + 1, tail, condition, precision
    )


def _series(
    path: str,
    terms: Callable[[_Pair, int], np.ndarray],
    const: Callable[[_Pair], object],
    p: float,
    shift: float,
    z,
    w,
    params: AnnulusParams,
    ctrl: SeriesControl,
    rounding_rtol: float | None,
    window: int | None = None,
) -> KernelEvaluation:
    """const(pair) x the bilateral series of terms(pair, J), summed by the
    window driver.  Unless the window is fixed, a sum whose machine epsilon
    times condition exceeds rounding_rtol is summed again at 34 digits over
    the widened window."""
    g = _pair(z, w, params)
    total, tail, gross, J = _sum_window(lambda J: terms(g, J), p, shift, g, ctrl, window)
    condition = float(gross / max(abs(total), 1e-300))
    value, precision = const(g) * total, "binary64"
    if window is None and rounding_rtol is not None and _EPS * condition > rounding_rtol:
        J, precision = _widened(J), "extended"
        value = _at_34_digits(lambda e: const(e) * terms(e, J).sum(), z, w, params)
    tail = abs(const(g)) * float(tail)
    return KernelEvaluation(complex(value), path, 2 * J + 1, tail, condition, precision)


def _gamma_pair_terms(g: _Pair, J: int, m: int):
    """log(|Gamma(B-m + mu_j)|^2 t^j) over j = -J..J, and mu_j."""
    lg, j = _ladder(g, J, [m])
    return lg[0] + lg[0].conj() + j * g.num.clog(g.t), g.mu(j)


def kernel_basis_sum_oracle(
    m: int,
    z,
    w,
    params: AnnulusParams,
    window: int | None = None,
    tol: float = 1e-10,
    rounding_rtol: float | None = None,
) -> KernelEvaluation:
    """Ground-truth kernel oracle: K_m = sum_j Phi_j(z) conj(Phi_j(w)).

    Summed directly from the orthogonal basis and the closed-form norms,

        ||phi_j||^2 = ||phi_0||^2 R^j |Gamma(B-m + i B c)|^2
                      / |Gamma(B-m + i (j+B) c)|^2,   c = log(R)/pi,

    with the radial factors RR_m^(-2 y_j, 1-B)(x) = (-2i)^m m!
    P_m^(-B-mu_j, -B+mu_j)(ix) at x = X and Y.  With window=None the range
    |j| <= J grows until the edge-term geometric estimate (polynomial growth
    of the radial factors absorbed into the effective ratio) drops below
    tol * |partial sum|; an explicit window gives the fixed partial sum with
    its reported tail estimate (and never escalates).  In the automatic
    mode, when rounding_rtol is given and machine epsilon times the
    gross-to-net condition exceeds it, the same per-term formula is
    re-summed at extended precision over a widened window.
    """
    require_admissible(m, params)

    def terms(g: _Pair, J: int):
        log_terms, mu = _gamma_pair_terms(g, J, m)
        jac = JacobiParams(-g.B - mu, -g.B + mu, m)
        radial = jacobi_poly(jac, 1j * g.X) * jacobi_poly(jac, 1j * g.Y)
        return g.num.exp(log_terms - log_terms[J]) * radial  # j = 0 sits at J

    # ||phi_0||^2 is a common factor: its binary64 rounding (about
    # eps |log ||phi_0||^2|) is not amplified by cancellation, so it serves
    # the extended sum as well
    norm0 = basis_norm_sq(0, m, params)
    return _series(
        "basis_sum", terms, lambda g: (-4) ** m * math.factorial(m) ** 2 / norm0,
        2.0 * params.B - 1.0, params.B,
        z, w, params, SeriesControl(tolerance=tol, max_terms=8192), rounding_rtol,
        window,
    )


def kernel_jacobi_product_sum(
    m: int, z, w, params: AnnulusParams, tol: float = 1e-10,
    rounding_rtol: float | None = None,
) -> complex:
    """Single-series Jacobi-product form of K_m:

        gamma_m sum_j t^j |Gamma(B-m+mu_j)|^2
                 P_m^(-B-mu_j, -B+mu_j)(iX) P_m^(-B+mu_j, -B-mu_j)(-iY),

    gamma_m = (2 pi)^(2B-3) m! (2B-2m-1) / (R^B log(R)^(2B-1) Gamma(2B-m)).

    Term-by-term this is the basis sum with the radial polynomials written
    as complex-parameter Jacobi values; it exercises the Jacobi plumbing and
    the norm closed form jointly, independently of the sigma machinery.
    With rounding_rtol set, cancellation-limited sums escalate to extended
    precision (same formula, widened window).
    """
    require_admissible(m, params)

    def terms(g: _Pair, J: int):
        log_terms, mu = _gamma_pair_terms(g, J, m)
        pz = jacobi_poly(JacobiParams(-g.B - mu, -g.B + mu, m), 1j * g.X)
        pw = jacobi_poly(JacobiParams(-g.B + mu, -g.B - mu, m), -1j * g.Y)
        return g.num.exp(log_terms) * pz * pw

    return _series(
        "jacobi_product", terms, lambda g: _prefactor(m, g) * math.factorial(m),
        2.0 * params.B - 1.0, params.B, z, w, params,
        SeriesControl(tolerance=tol, max_terms=8192), rounding_rtol,
    ).value


def kernel_k0_b1(
    z, w, R: float, ctrl: SeriesControl = DEFAULT_SERIES,
    rounding_rtol: float | None = None,
) -> complex:
    """The analytic kernel at unit weight (B = 1) in elementary form:

        K_0^(R,1) = (1/(pi z conj(w))) sum_j [j/(1 - R^(-2j))] (z conj(w)/R^2)^j,

    the j = 0 coefficient being its limit 1/(2 log R).  Term by term this is
    the integer-B product series at B = 1 (an empty product), and it is
    summed as that series.  With rounding_rtol set, cancellation-limited
    sums escalate to extended precision.
    """
    return _k0_product(z, w, AnnulusParams(R=R, B=1.0), ctrl, rounding_rtol).value


def _k0_product(
    z, w, params: AnnulusParams, ctrl: SeriesControl, rounding_rtol: float | None
) -> KernelEvaluation:
    B = _integer_B(params, "product-formula path")

    # j/(R^(2j)-1): decays like j R^(-2j) for j -> +inf but grows linearly
    # for j -> -inf (the decay there comes from (z conj(w))^j); evaluated
    # overflow-free per sign (n = |j|), with the j = 0 limit 1/(2 log R)
    def terms(g: _Pair, J: int):
        j = np.arange(-J, J + 1, dtype=g.num.dtype)
        n = np.where(j == 0, 1, abs(j))
        decay = g.R ** (-2 * n)
        base = np.where(
            j > 0, n * decay / (1 - decay), np.where(j < 0, n / (1 - decay), 1 / (2 * g.log_R))
        )
        poly = 1
        for q in range(1, B):
            poly = poly * (1 + (j * g.log_R) ** 2 / (g.num.pi * q) ** 2)
        return base * poly * g.num.exp(j * g.num.clog(g.z * g.w.conjugate()))

    def const(g: _Pair):
        u = g.z * g.w.conjugate()
        return (
            (2 * g.num.pi) ** (2 * B - 2)
            * math.factorial(B - 1) ** 2
            / (g.num.pi * g.num.gamma(2 * B - 1) * u**B * g.log_R ** (2 * B - 2))
        )

    return _series(
        "product_formula", terms, const, 2 * B - 1, 0.0, z, w, params, ctrl,
        rounding_rtol,
    )


def kernel_k0_integer_product(
    z, w, params: AnnulusParams, ctrl: SeriesControl = DEFAULT_SERIES,
    rounding_rtol: float | None = None,
) -> complex:
    """Integer-B product form of the analytic kernel:

        K_0 = (2 pi)^(2B-2) Gamma(B)^2
              / (pi Gamma(2B-1) (z conj(w))^B log(R)^(2B-2))
              * sum_j [j/(R^(2j)-1)] prod_{q=1}^{B-1} (1 + (j log R)^2/(pi q)^2)
                      (z conj(w))^j,

    j = 0 coefficient by its limit 1/(2 log R).  Requires integer B >= 1.
    With rounding_rtol set, cancellation-limited sums escalate to extended
    precision.
    """
    return _k0_product(z, w, params, ctrl, rounding_rtol).value


def kernel_limit_R_inf(
    z, w, B: float, ctrl: SeriesControl = DEFAULT_SERIES
) -> complex:
    """Limit of K_0 as the outer radius grows without bound:

        2^(2B-2) / (pi Gamma(2B-1)) sum_{j>=1} j^(2B-1) / (z conj(w))^(j+B),

    valid for |z conj(w)| > 1 (geometric decay); integer B.
    """
    if B != int(B) or B < 1:
        raise DomainError(f"limit kernel implemented for integer B >= 1, got {B}")
    u = as_complex(z) * as_complex(w).conjugate()
    if abs(u) <= 1.0 + ctrl.boundary_margin:
        raise ConvergenceError(
            f"limit kernel series needs |z conj(w)| > 1 + margin, got {abs(u):.6g}"
        )
    pref = 2.0 ** (2.0 * B - 2.0) / (math.pi * math.gamma(2.0 * B - 1.0))
    inv = 1.0 / u
    total = 0.0 + 0.0j
    power = inv**B
    ratio = abs(inv)
    for j in range(1, ctrl.max_terms + 1):
        power *= inv
        term = j ** (2.0 * B - 1.0) * power
        total += term
        growth = ((j + 1.0) / j) ** (2.0 * B - 1.0)
        q_eff = ratio * growth
        if q_eff < 1.0:
            tail = abs(term) * q_eff / (1.0 - q_eff)
            if tail <= ctrl.tolerance * max(abs(total), 1e-300):
                return complex(pref * total)
    raise ConvergenceError("limit kernel series did not converge")


def _theta_log_derivatives(g: _Pair, ctrl: SeriesControl) -> Callable[[int], complex]:
    """s -> (log theta_4)^(s)(z0) at z0 = (i/2) log t, each order summed
    once.  The extended evaluation truncates far below its 34-digit
    rounding."""
    if g.num is _MPMATH:
        ctrl = replace(ctrl, tolerance=1e-40, max_terms=100_000)
    z0 = 0.5j * g.num.clog(g.t)
    return functools.cache(lambda s: theta4_log_derivative(s, z0, g.R, ctrl))


def _sigma_theta(k: int, l: int, g: _Pair, L: Callable[[int], complex]):
    """sigma_{k,l} via the theta contraction, with its rounding majorant.

    The second return value is the non-cancelling magnitude of the
    contraction (|prefactor| times the summed |c_p s_p| pieces, the p = 0
    constant counted separately): the cancellation between the theta
    log-derivative terms and the 1/(2 log R) constant is exactly what makes
    sigma small near off-diagonal kernel zeros.
    """
    B = int(round(g.params.B))
    c, log_R = g.radial_scale, g.log_R
    c0 = B - max(k, l)

    # gap polynomial G(n): prod_(p=0)^(|k-l|-1) (c0 + p +- i n c), sign +i for
    # k < l (gap sits in the first Gamma factor), -i for k > l
    poly = np.polynomial.polynomial
    P = np.array([1.0 + 0.0j])
    sign = 1.0 if k < l else -1.0
    for p in range(abs(k - l)):
        P = poly.polymul(P, np.array([c0 + p, sign * 1j * c]))
    for q in range(1, c0):
        P = poly.polymul(P, np.array([1.0, 0.0, (log_R / (g.num.pi * q)) ** 2]))

    total = 0.0 + 0.0j
    gross = 0.0
    for p, cp in enumerate(P):
        if cp == 0.0:
            continue
        if p % 2 == 0:
            s_p = (-1.0) ** (p // 2) * L(p + 2) / 2.0 ** (p + 2)
        else:
            s_p = -1j * (-1.0) ** ((p + 1) // 2) * L(p + 2) / 2.0 ** (p + 2)
        gross += abs(cp) * abs(s_p)
        if p == 0:
            s_p = s_p + 1.0 / (2.0 * log_R)
            gross += abs(cp) / (2.0 * log_R)
        total += cp * s_p

    pref = g.t ** (-B) * 2.0 * log_R * math.factorial(c0 - 1) ** 2
    return pref * total, abs(pref) * gross


def sigma_theta_path(
    k: int,
    l: int,
    z,
    w,
    params: AnnulusParams,
    ctrl: SeriesControl = DEFAULT_SERIES,
    rounding_rtol: float | None = None,
) -> complex:
    """sigma_{k,l} rebuilt from logarithmic derivatives of theta_4 (integer B).

    After the index shift j -> n - B, the Gamma pair at integer offset
    c0 = B - max(k,l) factors through the elementary product

        Gamma(c0 + i n c) Gamma(c0 - i n c)
            = 2 log R Gamma(c0)^2 [n R^n/(R^(2n)-1)] W(n),

    times a gap polynomial G(n) for k != l.  Writing G(n) W(n) = sum_p c_p n^p,
    each power contracts against a theta_4 log-derivative at
    z0 = (i/2) log(z conj(w)/R):

        sum_n n^p [n R^n/(R^(2n)-1)] t^n
            = delta_(p,0)/(2 log R)
              + (-1)^(p/2)     L_(p+2)/2^(p+2)        (p even)
              - i (-1)^((p+1)/2) L_(p+2)/2^(p+2)      (p odd),

    L_s = (log theta_4)^(s)(z0).  The result carries the t^(-B) prefactor
    from the shift.
    """
    B = _integer_B(params, "theta path")
    if k < 0 or l < 0 or B - max(k, l) < 1:
        raise DomainError(
            f"theta path needs B - max(k,l) >= 1, got B={B}, k={k}, l={l}"
        )
    g = _pair(z, w, params)
    _decay_ratios(g, ctrl)
    value, gross = _sigma_theta(k, l, g, _theta_log_derivatives(g, ctrl))
    condition = gross / max(abs(value), 1e-300)
    # the log-derivative series truncate relative to their own magnitude,
    # so truncation error is amplified by the contraction's gross-to-net
    # ratio exactly like rounding
    if (
        rounding_rtol is not None
        and max(_EPS, ctrl.tolerance) * condition > rounding_rtol
    ):
        return _at_34_digits(
            lambda e: _sigma_theta(k, l, e, _theta_log_derivatives(e, ctrl))[0],
            z, w, params,
        )
    return complex(value)


def _theta_kernel(m: int, g: _Pair, ctrl: SeriesControl):
    """K_m through the theta path and its rounding majorant."""
    L = _theta_log_derivatives(g, ctrl)
    total, majorant = _contract(m, g.B, g.V, lambda k, l: _sigma_theta(k, l, g, L))
    return _prefactor(m, g) * total, total, majorant


def kernel_km_theta(
    m: int, z, w, params: AnnulusParams, ctrl: SeriesControl = DEFAULT_SERIES,
    rounding_rtol: float | None = None,
) -> KernelEvaluation:
    """K_m assembled with every sigma_{k,l} taken through the theta path.

    Integer B only; admissible m automatically satisfies B - m >= 1 there.
    terms_used counts the distinct theta-derivative contractions; the tail
    bound is tolerance times the non-cancelling majorant of the double sum.
    The condition is the gross-to-net ratio including the cancellation
    inside each theta contraction; with rounding_rtol set, conditioned
    evaluations are redone at extended precision.
    """
    require_admissible(m, params)
    B = _integer_B(params, "theta path")
    g = _pair(z, w, params)
    _decay_ratios(g, ctrl)
    contractions = sum(
        abs(k - l) + 2 * (B - max(k, l)) - 1
        for l in range(m + 1)
        for k in range(m + 1 - l)
    )
    pref = abs(_prefactor(m, g))
    eff = ctrl
    for _ in range(3):
        value, total, majorant = _theta_kernel(m, g, eff)
        condition = majorant / max(abs(total), 1e-300)
        tail = eff.tolerance * pref * majorant
        # rounding-limited: refinement of the truncation cannot help, so the
        # escalation decision comes before the truncation check
        escalate = rounding_rtol is not None and _EPS * condition > rounding_rtol
        if escalate or tail <= ctrl.tolerance * abs(value):
            break
        eff = replace(eff, tolerance=eff.tolerance / 100.0)
    else:
        if rounding_rtol is None:
            raise ConvergenceError("theta-path kernel failed to reach tolerance x |value|")
        # binary64 truncation cannot certify the requested accuracy at this
        # gross-to-net ratio; the extended evaluation covers both error terms
        escalate = True
    if escalate:
        value = _at_34_digits(lambda e: _theta_kernel(m, e, ctrl)[0], z, w, params)
    return KernelEvaluation(
        value=complex(value),
        path="theta",
        terms_used=max(contractions, 1),
        tail_bound=tail,
        condition=condition,
        precision="extended" if escalate else "binary64",
    )


def inversion_covariance_residual(
    m: int, z, w, params: AnnulusParams, ctrl: SeriesControl = DEFAULT_SERIES
) -> float:
    """Relative defect of the inversion rule (integer B):

        K_m(R/z, R/w) = (z conj(w)/R)^(2B) K_m(z, w),

    returned as |lhs - rhs| / |K_m(z, w)|.  Non-integer B is rejected: the
    rule maps the index ladder j -> -j - 2B onto itself only when 2B is an
    even integer.
    """
    _integer_B(params, "inversion covariance")
    zc, wc = as_complex(z), as_complex(w)
    # the covariance factor |z conj(w)/R|^(2B) amplifies both truncation and
    # rounding error of each side relative to |K_m(z, w)|, so the kernels are
    # evaluated two orders tighter than requested and with a rounding budget
    # shrunk by the amplification (near off-diagonal kernel zeros this
    # escalates the evaluation to extended precision)
    eff = replace(ctrl, tolerance=ctrl.tolerance / 100.0)
    factor = (zc * wc.conjugate() / params.R) ** (2.0 * params.B)
    rounding_rtol = ctrl.tolerance / max(abs(factor), 1.0)
    base = kernel_km(m, zc, wc, params, eff, rounding_rtol=rounding_rtol).value
    lhs = kernel_km(
        m, params.R / zc, params.R / wc, params, eff, rounding_rtol=rounding_rtol
    ).value
    return abs(lhs - factor * base) / abs(base)


def kernel_km_grid(
    m: int,
    z,
    w_nodes: np.ndarray,
    params: AnnulusParams,
    ctrl: SeriesControl = DEFAULT_SERIES,
) -> np.ndarray:
    """K_m(z, w) for one fixed first argument and an array of second
    arguments, sharing a single Gamma ladder across all nodes.

    The window is the smallest J at which every node's pointwise tail bound
    (_tail_bound, weighted by the contraction's weights) is within
    ctrl.tolerance x its own |K| plus eps x its summed term magnitudes
    (kernel_km's condition x |K|: about the rounding its binary64 sum
    carries anyway, which dominates on ill-conditioned nodes).  Truncation
    is certified so; rounding is not.  Nodes are refused (ConvergenceError)
    as pointwise pairs are: a decay ratio within ctrl.boundary_margin of 1,
    or a window beyond ctrl.max_terms.  The t-powers |t|^j e^(i j arg t) are
    built from one row per distinct modulus and angle, _GRID_CHUNK nodes at
    a time.  Intended for quadrature node sets and plot grids.
    """
    require_admissible(m, params)
    zc = as_complex(z)
    g = _pair(zc, zc, params)  # the coordinates of z and the scalars
    w = np.asarray(w_nodes, dtype=complex)
    t = zc * np.conj(w.ravel()) / params.R
    abs_t = np.abs(t)
    for i in (abs_t.argmax(), abs_t.argmin()):  # the largest q+ and q-
        _decay_ratios(replace(g, t=t[i]), ctrl)
    ratios = np.stack([1.0 / (params.R * abs_t), abs_t / params.R], axis=-1)
    edge_log_t = np.multiply.outer(np.log(abs_t), [-1.0, 1.0])  # log|t^j| at j = -1, 1
    zeta_w = math.pi * np.log(np.abs(w.ravel())) / params.log_R
    V = 0.25 * (1.0 + 1j * g.X) * (1.0 + 1j * np.cos(zeta_w) / np.sin(zeta_w))
    k, l, weights = (np.array(x) for x in zip(*_weights(m, g.B, V)))  # one row per (k, l)
    weight = abs(weights)
    p = np.maximum(2.0 * g.B - (k + l) - 1.0, 0.0)[:, None, None]

    @functools.cache
    def tails(J: int) -> np.ndarray:
        """Each node's weighted bound on the terms |j| > J (J > B)."""
        edges = _sigma_log_terms(g, J, m, 0.0, J - 1).real[k, l]  # j = -J, J
        edges = np.exp(edges[:, None, :] + J * edge_log_t)
        return (weight * _tail_bound(edges, ratios, p, g.B, J)).sum(axis=0)

    value, gross = np.zeros(t.shape, dtype=complex), np.zeros(t.shape)

    def widen(inner: int, J: int) -> None:
        """Add the terms inner < |j| <= J to value and their moduli to gross."""
        pairs = np.exp(_sigma_log_terms(g, J, m, 0.0, inner))[k, l].T  # one column per (k, l)
        moduli = abs(pairs)
        j = np.arange(-J, J + 1)
        j = j[abs(j) > inner]
        for start in range(0, t.size, _GRID_CHUNK):
            sl = slice(start, start + _GRID_CHUNK)
            # |t|^j and e^(i j arg t) once per distinct modulus and angle
            radii, ring = np.unique(abs_t[sl], return_inverse=True)
            angles, spoke = np.unique(np.angle(t[sl]), return_inverse=True)
            powers = np.exp(np.outer(np.log(radii), j))
            T = powers[ring] * np.exp(1j * np.outer(angles, j))[spoke]  # the nodes' t^j
            value[sl] += (weights[:, sl] * (T @ pairs).T).sum(axis=0)
            gross[sl] += (weight[:, sl] * (powers @ moduli)[ring].T).sum(axis=0)

    J_max = (ctrl.max_terms - 1) // 2
    worst = ratios.max(axis=0)  # q- and q+
    exhausted = ConvergenceError(
        f"grid series did not reach tolerance {ctrl.tolerance} within {ctrl.max_terms} "
        f"terms (q+={worst[1]:.4g}, q-={worst[0]:.4g})")
    step = -1.0 / math.log(worst.max())

    def smallest(J: int, limit: np.ndarray) -> int:
        """The smallest window from J on whose bounds are within limit."""
        lo = J
        while not (excess := (tails(J) / limit).max()) <= 1.0:
            if J >= J_max:
                raise exhausted
            # a step for the largest ratio; the bisection below undoes overshoot
            up = math.ceil(min(step * math.log(excess), J_max))
            lo, J = J + 1, min(J + max(up, 1), J_max)
        while lo < J:  # bisect the last step
            mid = (lo + J) // 2
            lo, J = (lo, mid) if (tails(mid) <= limit).all() else (mid + 1, J)
        return J

    # the first window: the smallest J above B at which every effective
    # ratio of _tail_bound, q ((|J -/+ B| + 1)/|J -/+ B|)^p, is below 1
    root = worst ** (-1.0 / p.max()) - 1.0
    found = math.floor(max(g.B + 1.0 / root[0], 1.0 / root[1] - g.B, g.B)) + 1
    if found > J_max:
        raise exhausted
    J = -1
    while found != J:
        widen(J, found)
        J = found
        # upper bounds on |K| and the magnitudes: no search passes the answer
        bound = tails(J)
        found = smallest(J, ctrl.tolerance * (np.abs(value) + bound) + _EPS * (gross + bound))
    return (_prefactor(m, g) * value).reshape(w.shape)


def kernel_by_path(
    path: str,
    m: int,
    z,
    w,
    params: AnnulusParams,
    ctrl: SeriesControl = DEFAULT_SERIES,
    rounding_rtol: float | None = None,
) -> KernelEvaluation:
    """Dispatch a kernel evaluation to the named path.

    closed_form and basis_sum work for every admissible level; theta needs
    integer B; product_formula needs integer B and m = 0.  rounding_rtol is
    forwarded to each path's condition-aware escalation.
    """
    if path not in KERNEL_PATHS:
        raise DomainError(f"unknown path {path!r}; choose from {KERNEL_PATHS}")
    if path == "closed_form":
        return kernel_km(m, z, w, params, ctrl, rounding_rtol=rounding_rtol)
    if path == "basis_sum":
        return kernel_basis_sum_oracle(
            m, z, w, params, tol=max(ctrl.tolerance, 1e-12),
            rounding_rtol=rounding_rtol,
        )
    if path == "theta":
        return kernel_km_theta(m, z, w, params, ctrl, rounding_rtol=rounding_rtol)
    if m != 0:
        raise UnsupportedPathError(
            f"product-formula path exists only for m = 0, got m={m}"
        )
    return _k0_product(z, w, params, ctrl, rounding_rtol)
