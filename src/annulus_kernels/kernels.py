"""Reproducing kernels of the Landau-level eigenspaces on the annulus.

Four evaluation paths are implemented; the first three are independent and
cross-checked:

  closed_form      the double sum over sigma-series (Gamma-pair bilateral
                   series contracted against powers of V and conj(V)),
                   each summed as its Poisson dual (below),
  basis_sum        the ground-truth oracle  K_m = sum_j Phi_j(z) conj(Phi_j(w))
                   built from the orthonormal basis and the closed-form norms
                   (the Jacobi product, kernel_jacobi_product_sum, is its sum),
  theta            integer B only: each sigma-series collapsed to finitely
                   many logarithmic derivatives of theta_4 via the elementary
                   Gamma-pair products P_kl (_theta_polynomial),
  product_formula  integer B, m = 0 only: the theta series before it is
                   resummed, evaluated as kernel_km_theta at m = 0.

The closed form sums each Gamma-pair series

    sigma_{k,l}(t) = sum_j Gamma(B-k + i y_j) Gamma(B-l - i y_j) t^j,
    y_j = (j + B) c,  c = log(R)/pi,

as its Poisson dual.  The Beta integral (DLMF 5.12) makes each Gamma pair a
Fourier transform, and Poisson summation over j (at integer B, Jacobi's
imaginary transformation of theta_4, DLMF 20.7) gives a sum over windings:

    sigma_{k,l} = (2 pi/c) Gamma(2B-k-l) t^(-B) sum_nu h_nu a_nu^k b_nu^l,
    h_nu = e^(2 pi i B nu) (2 cosh(xi_nu/2))^(-2B),
    a_nu = 1 + e^(-xi_nu),  b_nu = 1 + e^(xi_nu),  xi_nu = i (log t - 2 pi i nu)/c,

on principal branches, valid because Im xi = log|t|/c lies in (-pi, pi)
exactly when 1/R < |t| < R.  The images sit at x = Re xi_nu = (2 pi nu -
arg t)/c, 2 pi/c apart, and |1 + e^xi| >= e^|x| - 1 bounds each term by

    (2 pi/c) Gamma(2B-k-l) |t|^(-B) e^(-(B-l) x) (1 - e^(-x))^(-(2B-k-l))

for x > 0 (B - k and |x| for x < 0): a geometric tail.  A few images, more
as log R grows, reach binary64 rounding.  kernel_km, sigma_kl and
kernel_km_grid sum through one closed-form summation (_closed_form), on
one pair geometry (_pair) for a point or a node array w, with one stop
test for every node.  All that does not depend on the pair is one plan
per number type, annulus, contraction (the level m, or sigma_kl's (k, l))
and ctrl (_plan), cached and built at its first use: the contraction's
coefficients and their moduli, the prefactor, the image counts and, per
count, the window of images and each side's tail-bound factor and ends;
so a pair pays for its images only.  The elementwise stage runs in row
blocks of about _BLOCK node-images, so the temporaries of a quadrature row
stay cache-sized and are reused from call to call rather than mapped
afresh; a pair, or an array of at most 2 _BLOCK node-images, is one block.
A pair's value is its node's in any grid to the last bits only: numpy's
vector loops round an element by its position.

The theta path takes every order s of (log theta_4)^(s) at z0 = (i/2) log t
from one Lambert table per pair (special.LambertTable), whose one row
builder runs in the pair's number type.  One summation (_theta)
contracts one polynomial per evaluation, each power n^p against one order
p + 2, every order's stop found in one pass: sigma_{k,l}'s P_kl (cached,
_theta_coefficients) for sigma_theta_path, the weighted sum of the
level's P_kl for kernel_km_theta.  The product formula is that series
before it is resummed, sum_n n^p [n R^n/(R^(2n)-1)] t^n = i^p L_(p+2)/
2^(p+2), so its value is kernel_km_theta's at m = 0.  Every order is
summed once, to the smaller of ctrl.tolerance and eps, as the image sums
are: the truncation is at most that target x the rounding majorant (each
log-derivative charged at the gross sum of its Lambert terms), within
eps x condition x |value|.

The basis-sum oracle sums its j-series as a term function vectorised over
an index array, by one routine (_sum_window) in either number type: the
window j = -J..J is predicted from the decay ratios, and while the rigorous
geometric tail bound (_tail_bound) exceeds the tolerance it grows by the
step that bound asks for, each index evaluated once; both Jacobi factors
of a window share one set of binomials.

Every evaluation, of every path, is one call of one driver (_evaluate):
it builds the pair geometry, sums the path's series there (the path's
summed function) and applies the extended-precision policy.  When eps
times the condition (the gross-to-net ratio of the summed series) exceeds
the caller's rounding budget, the pair geometry is rebuilt from the
binary64 inputs in mpmath numbers and the same term code sums the value
again under the same truncation rule; every field of the result is then
that 34-digit sum's, and a 34-digit sum whose own rounding still exceeds
the budget is refused.  Without a budget a path returns its binary64 value
with its condition.  The pair's number type (special._Numbers) selects
the elementwise functions: numpy and special.log_gamma for binary64,
mpmath over numpy object arrays, imported at first use, at 34 digits.

Convention note: textbook displays of the closed form differ in where the
conjugation sits and whether an alternating sign (-1)^m is present.  Both
choices are fixed here against the basis_sum oracle (which follows from the
definition of a reproducing kernel and the independently tested norms) and
pinned by regression tests: the sigma_{k,l} term carries V^l * conj(V)^k,
and the prefactor carries no alternating sign.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import ConvergenceError, DomainError, UnsupportedPathError
from .geometry import _INTEGRALITY_TOL, AnnulusParams, require_interior, xi_nodes
from .special import (
    _BINARY64,
    BOUNDARY_MARGIN,
    DEFAULT_SERIES,
    JacobiParams,
    LambertTable,
    SeriesControl,
    _mpmath_numbers,
    _Numbers,
    jacobi_poly,
    pochhammer,
)
from .basis import basis_norm_sq, require_admissible

KERNEL_PATHS = ("closed_form", "basis_sum", "theta", "product_formula")


@dataclass(frozen=True)
class PairGeometry:
    """Joint coordinates of a point pair (z, w) entering every kernel series.

    t = z conj(w) / R,  X = cot(zeta_z),  Y = cot(zeta_w),
    V = (1 + iX)(1 + iY)/4,  radial_scale = log(R)/pi,

    in one number type (num), with the points and the parameters in that
    type.  For an ndarray of nodes w (binary64 only) w, t, Y and V are
    columns, one row per node.
    """

    t: complex
    X: float
    Y: float
    V: complex
    B: float
    radial_scale: float
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
    gross-to-net ratio of the summed series (the factor by which rounding
    of its terms is amplified in the cancelled total): eps x condition
    charges the rounding of the summation, not that of the pair coordinates
    the series is summed at.  Near the boundary circles, where cot zeta
    amplifies the rounding of zeta, a binary64 value can miss its 34-digit
    value by more than tail_bound + eps x condition x |value|.
    terms_used counts the summed terms: images for the closed form,
    j-window terms for the basis-sum oracle, and the largest j of the
    Lambert series for the theta path and the product formula.  precision
    records whether the value came from binary64 or the 34-digit
    re-evaluation; every field of an extended value (tail_bound, condition,
    terms_used) is that of the 34-digit sum that gave it.
    """

    value: complex
    path: str
    terms_used: int
    tail_bound: float
    condition: float = 0.0
    precision: str = "binary64"


def _pair(z, w, params: AnnulusParams, num: _Numbers = _BINARY64) -> PairGeometry:
    """The geometry of z and w, a point or (binary64 only) a 1-D ndarray of
    nodes.  X and Y come from one xi_nodes call on [z, w...] in binary64,
    and t and V from real arithmetic, which rounds alike on scalars and
    arrays: a pair's coordinates are its node's in any batch."""
    nodes = isinstance(w, np.ndarray) and w.ndim > 0
    zc = require_interior(complex(z), params)
    wc = require_interior(w[:, None] if nodes else complex(w), params)
    if num is _BINARY64:
        R, B, log_R = params.R, params.B, params.log_R
        xi = xi_nodes(np.append(zc, wc) if nodes else np.array([zc, wc]), params)
        X, Y = float(xi[0]), xi[1:, None] if nodes else float(xi[1])
    else:
        import mpmath as mp

        zc, wc, R, B = (mp.mpmathify(v) for v in (zc, wc, params.R, params.B))
        log_R = mp.log(R)
        X, Y = (mp.cot(mp.pi * mp.log(abs(v)) / log_R) for v in (zc, wc))
    x, y, u, v = zc.real, zc.imag, wc.real, wc.imag
    t = (x * u + y * v) / R + 1j * ((y * u - x * v) / R)  # z conj(w) / R
    V = 0.25 * (1 - X * Y) + 0.25j * (X + Y)  # (1 + iX)(1 + iY) / 4
    return PairGeometry(t, X, Y, V, B, log_R / num.pi, num, params, zc, wc, R, log_R)


def _rounding_exceeds(num: _Numbers, condition, rounding_rtol: float | None) -> bool:
    """Whether a sum of this condition, in the number type num, rounds past
    the budget: num.eps x condition against rounding_rtol, at 34 digits or
    binary64's eps if that is larger (the value is returned in binary64).
    Without a budget nothing does."""
    floor = 0.0 if num is _BINARY64 else _BINARY64.eps
    return rounding_rtol is not None and num.eps * condition > max(rounding_rtol, floor)


def _evaluate(
    path: str, z, w, params: AnnulusParams, rounding_rtol: float | None,
    summed: Callable[[PairGeometry], tuple],
) -> KernelEvaluation:
    """The one evaluation driver of every path, with its extended-precision
    policy.  summed(pair) -> (value, condition, tail bound, terms) sums the
    path's series at the pair geometry of (z, w), w a point or an ndarray
    of nodes.
    When eps x condition exceeds rounding_rtol (_rounding_exceeds; never
    without a budget), summed re-runs on the pair rebuilt from the binary64
    inputs in 34-digit numbers and every field is that sum's, its value
    returned in binary64; a sum whose own rounding still exceeds the budget
    is refused (ConvergenceError).
    """
    g = _pair(z, w, params)
    _decay_ratios(g)
    value, condition, tail, terms = summed(g)
    precision = "binary64"
    if _rounding_exceeds(g.num, condition, rounding_rtol):
        import mpmath as mp

        with mp.workdps(34):
            e = _pair(g.z, g.w, params, _mpmath_numbers())
            value, condition, tail, terms = summed(e)
            if _rounding_exceeds(e.num, condition, rounding_rtol):
                raise ConvergenceError(
                    f"34-digit sum keeps no digit within the rounding budget "
                    f"{rounding_rtol:.3g}: condition {float(condition):.3g}"
                )
        precision = "extended"
    return KernelEvaluation(value, path, terms, float(tail), float(condition), precision)


def _integer_B(params: AnnulusParams, what: str) -> int:
    """B of a path that needs it integer; what names the path."""
    if not params.is_integer_B():
        raise UnsupportedPathError(f"{what} requires integer B, got B={params.B}")
    return int(round(params.B))


def _integer_2B(params: AnnulusParams) -> bool:
    """Whether 2B is an integer: B an integer or half an odd one."""
    return abs(2.0 * params.B - round(2.0 * params.B)) <= _INTEGRALITY_TOL


def _decay_ratios(g: PairGeometry) -> tuple[float, float]:
    """Geometric decay ratios of the bilateral series: q_plus for j -> +inf,
    q_minus for j -> -inf, the largest over a batch of nodes.  Both are < 1
    exactly when 1/R < |t| < R; a pair with either ratio within
    BOUNDARY_MARGIN of 1 is refused."""
    abs_t, R = abs(g.t), float(g.R)
    hi, lo = (abs_t.max(), abs_t.min()) if isinstance(abs_t, np.ndarray) else (abs_t, abs_t)
    q_plus, q_minus = float(hi) / R, 1.0 / (R * float(lo))
    if min(1.0 - q_plus, 1.0 - q_minus) < BOUNDARY_MARGIN:
        raise ConvergenceError(
            f"pair too close to the boundary: decay ratios q+={q_plus:.6g}, "
            f"q-={q_minus:.6g} must stay below 1 - {BOUNDARY_MARGIN}"
        )
    return q_plus, q_minus


def _effective_ratios(ratios, p, shift: float, J: int) -> list:
    """q_eff = q ((|j + shift| + 1)/|j + shift|)^p at j = -J, J of ratios =
    (q_minus, q_plus); infinite at j + shift = 0 or a growth factor past e^700."""
    return [q * ((x + 1.0) / x) ** p if x and p * math.log1p(1.0 / x) < 700.0 else math.inf
            for q, x in zip(ratios, (abs(-J + shift), abs(J + shift)))]


def _tail_bound(edges, ratios, p, shift: float, J: int):
    """Rigorous bound on the tails |j| > J of a bilateral series whose
    moduli decay like q_minus^|j| and q_plus^j (ratios = (q_minus, q_plus))
    times a growth |j + shift|^p; edges = (the moduli at j = -J, at j = J).
    Each tail is at most its edge term x q_eff/(1 - q_eff), q_eff = q
    ((|j + shift| + 1)/|j + shift|)^p at the edge; the bound is infinite
    once either q_eff >= 1, as it is when an edge sits at j + shift = 0
    (unbounded growth ratio).  Scalars, two a side: no array pass.
    """
    q_eff = _effective_ratios(ratios, p, shift, J)
    if max(q_eff) < 1.0:
        return sum(edge * q / (1.0 - q) for edge, q in zip(edges, q_eff))
    return math.inf


def _steady_from(ratios, p: float, shift: float) -> int:
    """The smallest J >= shift past which both q_eff < 1 (_effective_ratios,
    p > 0): q ((x + 1)/x)^p < 1 exactly when the edge's distance x = |j +
    shift| exceeds 1/(q^(-1/p) - 1), 0 once q^(-1/p) passes e^709 (p near
    0: no edge is too close)."""
    x_minus, x_plus = (1.0 / math.expm1(a) if a < 709.0 else 0.0
                       for a in (-math.log(q) / p for q in ratios))
    return max(math.floor(shift + x_minus), math.floor(x_plus - shift), 0) + 1


def _grown(J: int, edges, ratios, p: float, shift: float, limit: float):
    """(J', tail): the tail bound beyond J at the edge moduli (_tail_bound),
    and the half-width it asks for.  J' is J when the bound is within limit;
    else J plus the step that brings it within limit at the slower side's
    q_eff per term (at J, the largest q_eff along either tail), or, where a
    q_eff >= 1 leaves the bound infinite, _steady_from's J."""
    tail = float(_tail_bound(edges, ratios, p, shift, J))
    if tail <= limit:
        return J, tail
    if not math.isfinite(tail):
        return max(_steady_from(ratios, p, shift), J + 1), tail
    q = max(_effective_ratios(ratios, p, shift, J))
    return J + max(math.ceil(math.log(tail / limit) / -math.log(q)), 1), tail


def _sum_window(
    terms: Callable[[np.ndarray], np.ndarray], p: float, shift: float, g: PairGeometry,
    ctrl: SeriesControl,
):
    """Sum a bilateral series over the window j = -J..J, each term once.

    terms(j) gives the terms at an index array j of the pair's number type;
    the first call's window is centred on j = 0.  p > 0 and shift are the
    growth exponent and shift of _tail_bound.  The first J is predicted
    from the decay ratios: on model moduli q^|j + shift| |j + shift|^p
    (q_minus below j = -shift, q_plus above), relative to j = 0's, it is
    grown (_grown) once from J = log(target)/log(q) of the slower side, or
    _steady_from's J, to leave tails within target.
    The target is the smaller of ctrl.tolerance and eps in binary64, where
    more terms add little to a numpy pass while a second pass repeats its
    loggamma and Jacobi rounds, and ctrl.tolerance at 34 digits, where each
    term costs an mpmath loggamma.  The stop test is the tail bound at the
    edge moduli within ctrl.tolerance x |sum|; while it fails, J grows by
    the step that bound asks for (_grown) and only the new indices are
    evaluated.  J is at most (ctrl.max_terms - 1) // 2; a sum that needs
    more is refused.  Returns the sum, its tail bound, its gross magnitude
    (the sum of |term|, the rounding majorant) and J.
    """
    q_plus, q_minus = _decay_ratios(g)
    ratios = q_minus, q_plus
    target = min(ctrl.tolerance, _BINARY64.eps) if g.num is _BINARY64 else ctrl.tolerance
    cap = (ctrl.max_terms - 1) // 2
    J = max(math.ceil(math.log(target) / math.log(max(ratios))), _steady_from(ratios, p, shift))
    try:  # q^|j + shift| |j + shift|^p at j = -J, J, relative to j = 0's
        model = [q**d * (d / shift) ** p / q_plus**shift
                 for q, d in zip(ratios, (J - shift, J + shift))]
    except (OverflowError, ZeroDivisionError):  # past binary64: no finite bound
        model = [math.inf, math.inf]
    J = min(_grown(J, model, ratios, p, shift, target)[0], cap)
    values = terms(np.arange(-J, J + 1, dtype=g.num.dtype))
    while True:
        total = values.sum()
        moduli = np.abs(values)
        limit = ctrl.tolerance * max(float(abs(total)), 1e-300)
        wanted, tail = _grown(J, (moduli[0], moduli[-1]), ratios, p, shift, limit)
        if wanted == J:
            return total, tail, moduli.sum(), J
        if J == cap:
            raise ConvergenceError(
                f"bilateral series did not reach tolerance {ctrl.tolerance} "
                f"within {ctrl.max_terms} terms (J={J}, q+={q_plus:.4g}, "
                f"q-={q_minus:.4g})"
            )
        j = np.arange(J + 1, min(wanted, cap) + 1, dtype=g.num.dtype)
        new = terms(np.concatenate([-j[::-1], j]))
        values = np.concatenate([new[: j.size], values, new[j.size:]])
        J += j.size


def _prefactor(m: int, num: _Numbers, R, B, log_R):
    """K_m = (2 pi)^(2B-3) (2B-2m-1) / (R^B log(R)^(2B-1) Gamma(2B-m)) times
    the (k, l) contraction, in the number type num."""
    return (
        (2 * num.pi) ** (2 * B - 3)
        * (2 * B - 2 * m - 1)
        / (R**B * log_R ** (2 * B - 1) * num.gamma(2 * B - m))
    )


def _level_polynomial(m: int, num: _Numbers, B) -> Callable:
    """The (k, l) contraction of kernel_km's image terms,

        poly(a, b, V) = sum_{k+l<=m} weight_{k,l} Gamma(2B-k-l) a^k b^l
                   = sum_n c_n u^n,  u = conj(V) a + V b,
        weight_{k,l} = (1-2B+m)_(k+l) / ((m-k-l)! k! l!) V^l conj(V)^k,
        c_n = (1-2B+m)_n Gamma(2B-n) / ((m-n)! n!),

    the weights collapsed by the binomial theorem (their arrangement pinned
    against the basis-sum oracle; see module docstring).  With modulus=True
    it is the same sum with each coefficient's modulus, sum_n |c_n|
    (|V| (a + b))^n; V is the pair's (a column for nodes, or a block of
    its rows)."""
    f = math.factorial
    c = [pochhammer(1 - 2 * B + m, n) * num.gamma(2 * B - n) / (f(m - n) * f(n))
         for n in range(m + 1)]
    moduli = [abs(x) for x in c]

    def poly(a, b, V, modulus: bool = False):
        coef = moduli if modulus else c
        total = coef[m]
        if m:  # Horner in u
            u = abs(V) * (a + b) if modulus else V.conjugate() * a + V * b
            for x in coef[m - 1::-1]:
                total = total * u + x
        return total

    return poly


@functools.lru_cache(maxsize=128, typed=True)
def _plan(num: _Numbers, R, B, log_R, ctrl: SeriesControl, series) -> tuple[Callable, object]:
    """The closed form's plan: all of its evaluation that does not depend
    on the pair, for one number type num (R, B and log R in it), one ctrl
    and one contraction, series = m for kernel_km's level m
    (_level_polynomial and _prefactor) or (k, l) for sigma_kl.  Returns the
    pair's image sum (image_sum, below) and the prefactor.  Built at the
    first evaluation of its key (typed: an int R or B is its own key), a
    34-digit plan in the 34-digit context, and read-only after.

    image_sum(g) gives the image sums of sum_{k,l} coef_{k,l} sigma_{k,l}(t)
    / Gamma(2B-k-l) at the pair's t (one row per node), given poly(a, b, V)
    = sum coef_{k,l} a^k b^l over k <= k_max, l <= l_max at the pair
    coordinate V (with modulus=True: the coefficients' moduli).

    Over a family the term bound of the module docstring sums to
    (2 pi/c) |t|^(-B) e^(-BX) (1 - e^-X)^(-2B) poly(1 - e^-X, e^X - 1) at
    x = X > 0, decreasing in X and geometric in the image spacing d with
    ratio e^(-(B - l_max) d); the minus side swaps a, b and k, l.  A side
    of n images omits |x| >= X = (n + 1/2) d.  The counts solve that bound
    in closed form for the smaller of ctrl.tolerance and eps times
    e^(-B d/2) poly(1, 1), the central image's lower size: more images add
    no numpy call, a second pass costs a whole one.  While a tail bound
    exceeds ctrl.tolerance x |sum| + eps x the rounding majorant, both
    counts grow by the steps the slowest decay asks for; past
    ctrl.max_terms images the sum is refused.  The majorant charges each
    term its modulus times 1 + |log h|, as exp amplifies the rounding of
    its argument.  image_sum returns the sums, tail bounds, majorants and
    images.  Per pair of counts (images) the plan keeps the window
    e^(d nu/2), 2 pi i B nu over nu = -n_minus..n_plus and each side's
    bound factor and ends.

    Every node sums one window of images under one stop test; its
    elementwise stage runs over row blocks of about _BLOCK node-images
    (_row_blocks), so that its temporaries stay small, each block
    contracted at its own rows of V.  A pair's sum is its node's in any
    batch only to the last bits: numpy's vector loops (exp, log) round an
    element by its position.
    """
    if isinstance(series, tuple):  # sigma_kl's Gamma(2B-k-l) a^k b^l
        (k_max, l_max), pref = series, 1
        gamma = num.gamma(2 * B - k_max - l_max)  # > 0: its own modulus
        poly = lambda a, b, V, modulus=False: gamma * a**k_max * b**l_max
    else:
        k_max = l_max = series
        poly, pref = _level_polynomial(series, num, B), _prefactor(series, num, R, B, log_R)
    spacing = 2 * num.pi / (log_R / num.pi)  # xi_(nu+1) - xi_nu
    # counts and bounds in binary64, with the slowest decay of each side
    eps, d, b = num.eps, float(spacing), float(B)
    rates = (b - l_max, b - k_max)  # of the + and - sides
    reach = b * d / 2 - math.log(min(ctrl.tolerance, eps)) - 2 * b * math.log(-math.expm1(-d / 2))
    counts = tuple(
        max(math.ceil((reach - math.log(-math.expm1(-rate * d))) / (rate * d) - 0.5), 0)
        for rate in rates
    )

    @functools.lru_cache(maxsize=16)
    def images(n_plus: int, n_minus: int) -> tuple:  # the window and bounds of a count
        nu = np.arange(-n_minus, n_plus + 1, dtype=num.dtype)
        window = num.exp(spacing / 2 * nu), 2j * num.pi * B * nu
        for x in window:
            x.flags.writeable = False
        sides = []
        for n, rate, minus in zip((n_plus, n_minus), rates, (False, True)):
            # no further out than binary64 holds e^(X max(k, l)): a smaller X
            # only loosens the decreasing bound
            X = min((n + 0.5) * d, 700.0 / max(k_max, l_max, 1))
            near, far = -math.expm1(-X), math.expm1(X)
            factor = math.exp(-b * X) * near ** (-2 * b) / -math.expm1(-rate * d)
            sides.append((factor, (far, near) if minus else (near, far)))
        return window, tuple(sides)

    def stage(q0, V, step, phase):  # net and gross image sums of a block of rows
        q = q0 * step  # e^(xi_nu/2)
        q_inv = 1 / q
        s = q + q_inv  # 2 cosh(xi_nu/2)
        log_h = phase - 2 * B * num.clogs(s)
        h = num.exp(log_h)
        a_nu, b_nu = s * q_inv, s * q  # 1 + e^(-xi_nu), 1 + e^(xi_nu)
        return (h * poly(a_nu, b_nu, V)).sum(axis=-1), (
            abs(h) * (1 + abs(log_h)) * poly(abs(a_nu), abs(b_nu), V, modulus=True)
        ).sum(axis=-1)

    def image_sum(g: PairGeometry):
        log_t = num.clogs(np.asarray(g.t).reshape(-1, 1))  # one row per t
        q0 = num.exp(0.5j * log_t / g.radial_scale)  # e^(xi_0/2), xi_0 = i log(t)/c
        unit = spacing * num.exp(-B * log_t)  # (2 pi/c) t^(-B)
        scale = np.abs(np.asarray(unit, dtype=complex))
        n_plus, n_minus = counts
        while n_plus + n_minus + 1 <= ctrl.max_terms:
            window, sides = images(n_plus, n_minus)
            blocks = _row_blocks(len(q0), n_plus + n_minus + 1)
            if blocks is None:
                net, gross = stage(q0, g.V, *window)
            else:
                net, gross = (np.concatenate(x) for x in zip(
                    *(stage(q0[rows], g.V[rows], *window) for rows in blocks)))
            total, gross = unit[:, 0] * net, scale[:, 0] * gross
            bound = sum(factor * poly(*ends, g.V, modulus=True) for factor, ends in sides)
            bound = (scale * np.asarray(bound, dtype=float))[:, 0]
            limit = ctrl.tolerance * np.abs(np.asarray(total, dtype=complex))
            excess = (bound / (limit + eps * np.asarray(gross, dtype=float))).max()
            if excess <= 1.0:
                return total, bound, gross, n_plus + n_minus + 1
            if not math.isfinite(excess):
                raise ConvergenceError(f"image sum overflowed binary64 (R={float(R):g})")
            step = max(math.ceil(math.log(excess) / (min(rates) * d)), 1)
            n_plus, n_minus = n_plus + step, n_minus + step
        raise ConvergenceError(
            f"image sum did not reach tolerance {ctrl.tolerance} within "
            f"{ctrl.max_terms} terms ({n_plus + n_minus + 1} images needed)"
        )

    return image_sum, pref


# node-images per block of the image sums' stage: 64 KiB per complex
# temporary.  Blocks of 16384 (256 KiB temporaries) still page-faulted on
# every call of a fresh process, as one whole 12288-node row does
_BLOCK = 4096


def _row_blocks(rows: int, images: int) -> list[slice] | None:
    """Equal row blocks of about _BLOCK node-images each, or None when all
    rows x images, at most 2 _BLOCK, make one block."""
    if rows * images <= 2 * _BLOCK:
        return None
    count = -(-rows * images // _BLOCK)  # ceil(node-images / _BLOCK)
    size = -(-rows // count)
    return [slice(start, start + size) for start in range(0, rows, size)]


def sigma_kl(
    k: int, l: int, z, w, m_context: int, params: AnnulusParams,
    ctrl: SeriesControl = DEFAULT_SERIES, rounding_rtol: float | None = None,
) -> complex:
    """The bilateral Gamma-pair series sigma_{k,l}(z, w), summed as its
    image sum.

    k and l must not exceed the level context m (which bounds the Gamma
    arguments away from poles: B - max(k,l) >= B - m > 0).  With
    rounding_rtol set, a sum whose eps x condition exceeds it is summed
    again at 34 digits.
    """
    if not (0 <= k <= m_context and 0 <= l <= m_context):
        raise DomainError(f"need 0 <= k,l <= m={m_context}, got k={k}, l={l}")
    require_admissible(m_context, params)
    summed = _closed_form((k, l), ctrl)
    return _evaluate("closed_form", z, w, params, rounding_rtol, summed).value


def _closed_form(series, ctrl: SeriesControl) -> Callable[[PairGeometry], tuple]:
    """The closed form's summed (_evaluate): prefactor x the image sums of
    the plan of series (_plan) in the pair's number type.  At a point its
    value, condition and tail bound are row 0's; at nodes the values, with
    the worst node's condition and tail bound."""

    def summed(e: PairGeometry):
        image_sum, pref = _plan(e.num, e.R, e.B, e.log_R, ctrl, series)
        total, tail, gross, images = image_sum(e)
        if isinstance(e.t, np.ndarray):
            condition = np.max(gross / np.maximum(np.abs(total), 1e-300))
            return pref * total, condition, abs(pref) * np.max(tail), images
        condition = gross[0] / max(abs(total[0]), 1e-300)
        return complex(pref * total[0]), condition, abs(pref) * tail[0], images

    return summed


def kernel_km(
    m: int, z, w, params: AnnulusParams, ctrl: SeriesControl = DEFAULT_SERIES,
    rounding_rtol: float | None = None,
) -> KernelEvaluation:
    """Closed-form reproducing kernel K_m(z, w) of the m-th eigenspace.

    Hermitian in (z, w), rotation invariant, and equal to the basis-sum
    oracle.  The sigma-series are summed as image sums (module docstring);
    terms_used counts the images.  The tail bound is the coefficient-weighted
    sum of their rigorous tail bounds and satisfies tail_bound <=
    tolerance x |value| + eps x condition x |value|: truncation goes no
    further than the rounding the value carries anyway.

    ctrl.tolerance governs truncation only.  The summation's rounding is
    about machine epsilon times the reported condition (gross-to-net
    cancellation of the contraction, each term charged for the rounding its
    exponential amplifies; KernelEvaluation says what it leaves out); when
    rounding_rtol is given and that bound exceeds it, the value is
    recomputed at 34 digits and reported with precision="extended", and a
    34-digit value whose own rounding exceeds the budget raises
    ConvergenceError.  The value is kernel_km_grid's at the node w, to the
    last bits (_plan).
    """
    require_admissible(m, params)
    return _evaluate("closed_form", z, w, params, rounding_rtol, _closed_form(m, ctrl))


def kernel_basis_sum_oracle(
    m: int, z, w, params: AnnulusParams, tol: float = 1e-10,
    rounding_rtol: float | None = None,
) -> KernelEvaluation:
    """Ground-truth kernel oracle: K_m = sum_j Phi_j(z) conj(Phi_j(w)).

    Summed directly from the orthogonal basis and the closed-form norms,

        ||phi_j||^2 = ||phi_0||^2 R^j |Gamma(B-m + i B c)|^2
                      / |Gamma(B-m + i (j+B) c)|^2,   c = log(R)/pi,

    with the radial factors RR_m^(-2 y_j, 1-B)(x) = (-2i)^m m!
    P_m^(-B-mu_j, -B+mu_j)(ix) at x = X and Y.  The range |j| <= J is
    predicted from the decay ratios and grows, by the step the edge-term
    geometric estimate (polynomial growth of the radial factors absorbed
    into the effective ratio) asks for, until that estimate drops below
    tol * |partial sum| (_sum_window); each term is evaluated once.  When
    rounding_rtol is given and machine epsilon times the gross-to-net
    condition exceeds it, the same per-term formula is summed again at 34
    digits under the same rule.  At most 8192 terms are summed.
    """
    return _basis_sum(m, z, w, params, SeriesControl(tolerance=tol, max_terms=8192), rounding_rtol)


def _basis_sum(
    m: int, z, w, params: AnnulusParams, ctrl: SeriesControl, rounding_rtol: float | None,
) -> KernelEvaluation:
    """The basis-sum oracle summed under ctrl (kernel_basis_sum_oracle): its
    terms at an index array j, each relative to the j = 0 term's Gamma
    pair, summed over the window of _sum_window."""
    require_admissible(m, params)
    const = _oracle_constant(m, params.R, params.B)

    def summed(g: PairGeometry):  # one rule at both precisions
        log_t, centre = g.num.clog(g.t), []

        def terms(j):  # relative to j = 0's, which the first window holds
            # log(|Gamma(B-m + mu_j)|^2 t^j), mu_j = i (j + B) log(R)/pi
            mu = 1j * (j + g.B) * g.radial_scale
            lg = g.num.loggamma(g.B - m + mu)
            log_terms = lg + lg.conj() + j * log_t
            if not centre:
                centre.append(log_terms[j.size // 2])
            at_X, at_Y = jacobi_poly(JacobiParams(-g.B - mu, -g.B + mu, m), (1j * g.X, 1j * g.Y))
            return g.num.exp(log_terms - centre[0]) * (at_X * at_Y)

        total, tail, gross, J = _sum_window(terms, 2.0 * params.B - 1.0, params.B, g, ctrl)
        condition = gross / max(abs(total), 1e-300)
        return complex(const * total), condition, abs(const) * tail, 2 * J + 1

    return _evaluate("basis_sum", z, w, params, rounding_rtol, summed)


@functools.lru_cache(maxsize=128, typed=True)
def _oracle_constant(m: int, R, B) -> float:
    """The oracle's factor (-4)^m m!^2 / ||phi_0||^2 in binary64, whose
    rounding no cancellation amplifies: it serves the 34-digit sum too."""
    return (-4) ** m * math.factorial(m) ** 2 / basis_norm_sq(0, m, AnnulusParams(R, B))


def kernel_jacobi_product_sum(
    m: int, z, w, params: AnnulusParams, tol: float = 1e-10,
    rounding_rtol: float | None = None,
) -> complex:
    """Single-series Jacobi-product form of K_m:

        gamma_m sum_j t^j |Gamma(B-m+mu_j)|^2
                 P_m^(-B-mu_j, -B+mu_j)(iX) P_m^(-B+mu_j, -B-mu_j)(-iY),

    gamma_m = (2 pi)^(2B-3) m! (2B-2m-1) / (R^B log(R)^(2B-1) Gamma(2B-m)).

    By P_m^(a,b)(-x) = (-1)^m P_m^(b,a)(x) (the special-functions suite's
    jacobi-symmetry check) each term is the basis-sum oracle's, so this is
    kernel_basis_sum_oracle's value: the same sum under the same tolerance,
    8192-term cap and escalation.
    """
    ctrl = SeriesControl(tolerance=tol, max_terms=8192)
    return _basis_sum(m, z, w, params, ctrl, rounding_rtol).value


def kernel_k0_integer_product(
    z, w, params: AnnulusParams, ctrl: SeriesControl = DEFAULT_SERIES,
    rounding_rtol: float | None = None,
) -> complex:
    """Integer-B product form of the analytic kernel:

        K_0 = (2 pi)^(2B-2) / (pi Gamma(2B-1) (z conj(w))^B log(R)^(2B-2))
              * sum_n [n R^n/(R^(2n)-1)] P_00(n) t^n,

    sigma_00's polynomial P_00(n) = Gamma(B)^2 prod_{q<B} (1 + (n log R/
    (pi q))^2) (_theta_polynomial), the n = 0 bracket by its limit
    1/(2 log R).  Summed over n, each power n^p gives i^p L_(p+2)/2^(p+2),
    L_s = (log theta_4)^(s) at (i/2) log t: the series is the theta path's
    at m = 0, and its value is kernel_km_theta(0, ...)'s, with the same
    truncation and escalation.  Requires integer B >= 1.
    """
    return kernel_km_theta(0, z, w, params, ctrl, rounding_rtol).value


def kernel_limit_R_inf(
    z, w, B: float, ctrl: SeriesControl = DEFAULT_SERIES
) -> complex:
    """Limit of K_0 as the outer radius grows without bound:

        2^(2B-2) / (pi Gamma(2B-1)) sum_{j>=1} j^(2B-1) / (z conj(w))^(j+B),

    valid for |z conj(w)| > 1 (geometric decay); integer B.
    """
    if B != int(B) or B < 1:
        raise DomainError(f"limit kernel implemented for integer B >= 1, got {B}")
    u = complex(z) * complex(w).conjugate()
    if abs(u) <= 1.0 + BOUNDARY_MARGIN:
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


def _theta_polynomial(k: int, l: int, B: int, log_R, pi=math.pi) -> np.ndarray:
    """The coefficients, ascending in n, in the number type of log_R and pi:

        P_kl(n) = (c0-1)!^2 G(n) W(n),  c0 = B - max(k, l),
        Gamma(B-k + i n c) Gamma(B-l - i n c) = 2 log R [n R^n/(R^(2n)-1)] P_kl(n),

    c = log(R)/pi, for integer B, with the gap polynomial G(n) =
    prod_(p<|k-l|) (c0 + p +- i n c) (+i for k < l, the gap sitting in the
    first Gamma factor; -i for k > l) and W(n) = prod_(q<c0) (1 + (n log R/
    (pi q))^2), the elementary product.  The special-functions suite checks
    it against log_gamma (gamma-pair-product-path)."""
    c0 = B - max(k, l)
    P = np.array([math.factorial(c0 - 1) ** 2 + 0.0j])
    for p in range(abs(k - l)):
        P = np.convolve(P, np.array([c0 + p, (1j if k < l else -1j) * (log_R / pi)]))
    for q in range(1, c0):
        P = np.convolve(P, np.array([1.0, 0.0, (log_R / (pi * q)) ** 2]))
    return P


@functools.lru_cache(maxsize=128, typed=True)
def _theta_coefficients(k: int, l: int, B: int, log_R, num: _Numbers) -> tuple:
    """P_kl (_theta_polynomial) and its moduli in the number type num (log R
    in it), read-only, shared by every pair (built in the pair's context)."""
    P = _theta_polynomial(k, l, B, log_R, num.pi)
    M = np.abs(P)
    P.flags.writeable = M.flags.writeable = False
    return P, M


@functools.lru_cache(maxsize=128, typed=True)
def _theta_level(m: int, B: int, num: _Numbers, R, B_num, log_R) -> tuple:
    """kernel_km_theta's prefactor at level m (R, B_num = B and log R in num)
    and per k + l <= m, (0, 0) first, (1-2B+m)_(k+l)/((m-k-l)! k! l!), P_kl, |P_kl|."""
    f = math.factorial
    return _prefactor(m, num, R, B_num, log_R), tuple(
        (k, l, pochhammer(1 - 2 * B_num + m, k + l) / (f(m - k - l) * f(k) * f(l)),
         *_theta_coefficients(k, l, B, log_R, num))
        for l in range(m + 1) for k in range(m + 1 - l))


def _theta(
    ctrl: SeriesControl, polynomial: Callable[[PairGeometry], tuple],
) -> Callable[[PairGeometry], tuple]:
    """The theta path's summed (_evaluate): polynomial(pair) -> (P, M), the
    coefficients P_p (ascending in n) of a polynomial P(n) and majorants M_p
    of their moduli, built once per evaluation.  The value is

        t^(-B) 2 log R sum_n [n R^n/(R^(2n)-1)] P(n) t^n
            = t^(-B) 2 log R [P_0/(2 log R) + sum_p P_p i^p L_(p+2)/2^(p+2)],

    L_s = (log theta_4)^(s) at z0 = (i/2) log t (the pair's Lambert table);
    its rounding majorant, the same sum over M_p with each L_s charged at
    G_s, the gross sum of its Lambert terms, holds the cancellation inside
    each Lambert series and the one against 1/(2 log R).

    Every order is summed once, within target x |L_s| <= target x G_s, the
    target the smaller of ctrl.tolerance and the pair's eps (as _plan
    sizes its images): the tail bound, target x the majorant, is at most
    eps x condition x |value| at either precision; one stop pass serves all.
    """

    def summed(e: PairGeometry):
        P, M = polynomial(e)
        pref = e.t ** -int(round(e.params.B)) * 2.0 * e.log_R
        table = LambertTable(0.5j * e.num.clog(e.t), e.R)
        target = min(ctrl.tolerance, e.num.eps)
        orders = [p + 2 for p, bound in enumerate(M) if bound]
        sums = iter(table._derivatives(orders, replace(ctrl, tolerance=target)))
        total, gross = (1.0 / (2.0 * e.log_R) * x[0] for x in (P, M))
        for p, (cp, bound) in enumerate(zip(P, M)):
            if bound:
                L, G = next(sums)
                total += cp * (0.5j) ** p * L / 4.0  # i^p L_(p+2) / 2^(p+2)
                gross += bound * 0.5**p * G / 4.0
        value, gross = pref * total, abs(pref) * gross
        return complex(value), gross / max(abs(value), 1e-300), target * gross, table.terms

    return summed


def sigma_theta_path(
    k: int, l: int, z, w, params: AnnulusParams, ctrl: SeriesControl = DEFAULT_SERIES,
    rounding_rtol: float | None = None,
) -> complex:
    """sigma_{k,l} rebuilt from logarithmic derivatives of theta_4 (integer
    B): after the index shift j -> n - B its Gamma pair is 2 log R
    [n R^n/(R^(2n)-1)] P_kl(n) (_theta_polynomial), and _theta contracts
    each power n^p of P_kl against one L_(p+2) = (log theta_4)^(p+2) at
    z0 = (i/2) log(z conj(w)/R).  Truncation and escalation are
    kernel_km_theta's: within (ctrl.tolerance + eps x condition) x |sigma|,
    and at 34 digits when eps x the condition exceeds rounding_rtol.
    """
    B = _integer_B(params, "theta path")
    if k < 0 or l < 0 or B - max(k, l) < 1:
        raise DomainError(
            f"theta path needs B - max(k,l) >= 1, got B={B}, k={k}, l={l}"
        )

    polynomial = lambda e: _theta_coefficients(k, l, B, e.log_R, e.num)
    return _evaluate("theta", z, w, params, rounding_rtol, _theta(ctrl, polynomial)).value


def kernel_km_theta(
    m: int, z, w, params: AnnulusParams, ctrl: SeriesControl = DEFAULT_SERIES,
    rounding_rtol: float | None = None,
) -> KernelEvaluation:
    """K_m through the theta path (integer B; admissible m has B - m >= 1):
    _theta contracts one polynomial, prefactor x sum_{k+l<=m} weight_{k,l}
    P_kl (weights of _level_polynomial; P_00's degree 2B - 2 is the largest),
    with its majorant summed term by term; a pair pays for the weights'
    powers of V and the sum, the rest cached per level (_theta_level).
    terms_used is the largest j of the pair's Lambert table.  Each order is
    summed once (_theta), so the tail bound satisfies kernel_km's tail_bound
    <= (tolerance + eps x condition) x |value| at either precision; the
    condition includes the cancellation inside the contraction and each
    Lambert series.  With rounding_rtol set, an evaluation whose rounding
    exceeds it is redone at 34 digits, and refused without a digit there.
    """
    require_admissible(m, params)
    B = _integer_B(params, "theta path")

    def polynomial(e: PairGeometry):
        pref, terms = _theta_level(m, B, e.num, e.R, e.B, e.log_R)
        weights = [coef * e.V**l * e.V.conjugate() ** k for k, l, coef, *_ in terms]
        P, M = weights[0] * terms[0][3], abs(weights[0]) * terms[0][4]  # (0, 0): largest degree
        for weight, (*_, p, moduli) in zip(weights[1:], terms[1:]):
            P[: p.size] += weight * p
            M[: p.size] += abs(weight) * moduli
        return pref * P, abs(pref) * M

    return _evaluate("theta", z, w, params, rounding_rtol, _theta(ctrl, polynomial))


def inversion_covariance_residual(
    m: int, z, w, params: AnnulusParams, ctrl: SeriesControl = DEFAULT_SERIES
) -> float:
    """Relative defect of the inversion rule (2B an integer):

        K_m(R/z, R/w) = (z conj(w)/R)^(2B) K_m(z, w),

    returned as |lhs - rhs| / |K_m(z, w)|.  Other B are rejected: the map
    j -> -j - 2B takes the index ladder onto itself, and (z conj(w)/R)^(2B)
    is single-valued, only when 2B is an integer.
    """
    if not _integer_2B(params):
        raise UnsupportedPathError(
            f"inversion covariance requires 2B to be an integer, got B={params.B}"
        )
    zc, wc = complex(z), complex(w)
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
    m: int, z, w_nodes: np.ndarray, params: AnnulusParams,
    ctrl: SeriesControl = DEFAULT_SERIES,
) -> np.ndarray:
    """K_m(z, w) for one fixed first argument and an array of second
    arguments: kernel_km's driver and pair geometry on the whole node array,
    over one common set of images.

    One set of images, as many as the most demanding node needs, serves
    every node, so each node's truncation is certified as kernel_km's, and
    each node is kernel_km(m, z, w) within that value's certificate (tail
    bound plus eps x condition x |K|); neither is reported.  The terms are
    formed in row blocks of about _BLOCK node-images (_plan), which
    changes neither the images nor the stop test; a node's value matches
    kernel_km's to the last bits, as numpy's vector loops round an element
    by its position.  Nodes are refused as pointwise pairs are: off the
    interior (DomainError), a decay ratio within BOUNDARY_MARGIN of 1, or
    more than ctrl.max_terms images (ConvergenceError).  Intended for
    quadrature node sets and plot grids.
    """
    require_admissible(m, params)
    w = np.asarray(w_nodes, dtype=complex)
    if not w.size:  # no pair to sum: an empty array of w's shape, z checked
        require_interior(z, params)
        return np.empty(w.shape, complex)
    return _evaluate(
        "closed_form", z, w.ravel(), params, None, _closed_form(m, ctrl)
    ).value.reshape(w.shape)


def kernel_by_path(
    path: str, m: int, z, w, params: AnnulusParams, ctrl: SeriesControl = DEFAULT_SERIES,
    rounding_rtol: float | None = None,
) -> KernelEvaluation:
    """Dispatch a kernel evaluation to the named path.

    closed_form and basis_sum work for every admissible level; theta needs
    integer B; product_formula needs integer B and m = 0, and is the theta
    path's evaluation there (kernel_k0_integer_product).  ctrl and
    rounding_rtol are forwarded to each path unchanged.
    """
    if path not in KERNEL_PATHS:
        raise DomainError(f"unknown path {path!r}; choose from {KERNEL_PATHS}")
    if path == "closed_form":
        return kernel_km(m, z, w, params, ctrl, rounding_rtol=rounding_rtol)
    if path == "basis_sum":
        return _basis_sum(m, z, w, params, ctrl, rounding_rtol)
    if path == "theta":
        return kernel_km_theta(m, z, w, params, ctrl, rounding_rtol=rounding_rtol)
    if m != 0:
        raise UnsupportedPathError(
            f"product-formula path exists only for m = 0, got m={m}"
        )
    return replace(kernel_km_theta(0, z, w, params, ctrl, rounding_rtol), path="product_formula")
