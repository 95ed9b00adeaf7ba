"""Complex-argument special functions used throughout the package.

Covers the principal-branch log-Gamma, the squared modulus |Gamma|^2 of
conjugate Gamma pairs (always assembled in log space, since the pairs decay
like exp(-pi*|Im|) and underflow individually), Jacobi polynomials with
arbitrary complex parameters, the Routh-Romanovski polynomials

    RR_m^(a,b)(x) = (-2i)^m m! P_m^(b-1+ia/2, b-1-ia/2)(ix),

their monomial coefficients (routh_coefficients, the one form the basis
evaluates) with the Rodrigues-formula oracle they are checked against, the
Cauchy Beta integral, and Jacobi's theta_4 together with its logarithmic
derivatives.

The two number types of every series (_Numbers), binary64 in numpy and
34-digit mpmath in numpy object arrays, live here too: the Lambert series
of the log-derivatives (lambert_log_derivatives) builds its rows with one
function in either, as the kernels' series do.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import ConvergenceError, DomainError, ImaginaryResidueError, PoleError


# minimum distance of any geometric decay ratio from 1: a series whose ratio
# comes closer than this to 1 is refused rather than summed slowly and
# inaccurately
BOUNDARY_MARGIN = 1e-3


@dataclass(frozen=True)
class SeriesControl:
    """Truncation policy shared by all bilateral and theta series.

    tolerance  relative truncation target for every reported value
    max_terms  hard cap on the number of summed terms
    """

    tolerance: float = 1e-12
    max_terms: int = 4096

    def __post_init__(self) -> None:
        if not (self.tolerance > 0.0):
            raise DomainError(f"tolerance must be positive, got {self.tolerance}")
        if not (isinstance(self.max_terms, (int, np.integer)) and self.max_terms >= 16):
            raise DomainError(f"max_terms must be an integer >= 16, got {self.max_terms!r}")


DEFAULT_SERIES = SeriesControl()


@dataclass(frozen=True)
class JacobiParams:
    """Parameters (alpha, beta) and degree of a Jacobi polynomial.

    Both parameters may be arbitrary complex numbers; the degree is capped
    at 64, far beyond any level index that occurs in practice.
    """

    alpha: complex
    beta: complex
    degree: int

    def __post_init__(self) -> None:
        if not (isinstance(self.degree, (int, np.integer)) and 0 <= self.degree <= 64):
            raise DomainError(f"degree must be an integer in 0..64, got {self.degree!r}")


def _is_nonpositive_integer(z: complex) -> bool:
    z = complex(z)
    return z.imag == 0.0 and z.real <= 0.0 and z.real.is_integer()


@functools.cache
def _scipy_special():
    """scipy.special, imported at the first call: the closed form, the grid
    and the package import use none of it."""
    import scipy.special

    return scipy.special


def log_gamma(z):
    """Principal branch of log Gamma(z) for complex z; an ndarray z is
    evaluated elementwise and returns a complex array of its shape.

    Raises PoleError at the poles z = 0, -1, -2, ... (at any element of an
    array).  Backed by scipy.special.loggamma (Stirling's series, reached
    by recurrence, reflection or a Taylor series at small |z|), imported on
    the first call; an array gives the values of its elements one by one.
    An array's pole test looks only at its elements with imag == 0.
    """
    if isinstance(z, np.ndarray):
        z = z.astype(complex, copy=False)
        on_axis = z[z.imag == 0.0]  # 1-D, in index order, for any shape
        left = on_axis[on_axis.real <= 0.0] if on_axis.size else on_axis
        re = left.real
        poles = left[np.isfinite(re) & (re == np.round(re))] if left.size else left
        if poles.size:
            raise PoleError(f"log_gamma pole at z={poles[0]}")
        return _scipy_special().loggamma(z)
    z = complex(z)
    if _is_nonpositive_integer(z):
        raise PoleError(f"log_gamma pole at z={z}")
    return complex(_scipy_special().loggamma(z))


@dataclass(frozen=True, eq=False)
class _Numbers:
    """The functions a number type is evaluated with, and its unit
    roundoff eps.  exp, cos_sin (the pair cos, sin), clogs (the complex
    log) and loggamma act elementwise on arrays; index arrays j have dtype.
    Each type has one instance, compared and hashed by identity."""

    eps: float
    dtype: type
    pi: object
    clog: Callable
    gamma: Callable
    exp: Callable
    cos_sin: Callable
    clogs: Callable
    loggamma: Callable


def _clogs(z: np.ndarray) -> np.ndarray:
    """log|z| + i arg z, each part written in place: np.angle's arithmetic
    without its dispatch (a fifth of np.log's time) and no pass to join."""
    out = np.empty(z.shape, complex)
    np.log(abs(z), out=out.real)
    np.arctan2(z.imag, z.real, out=out.imag)
    return out


_BINARY64 = _Numbers(
    float(np.finfo(float).eps), float, math.pi, cmath.log, math.gamma, np.exp,
    lambda x: (np.cos(x), np.sin(x)), _clogs, log_gamma,
)


@functools.cache
def _mpmath_numbers() -> _Numbers:
    """mpmath numbers, held in numpy object arrays, for the 34-digit
    evaluation; mpmath is imported on the first call."""
    import mpmath as mp

    with mp.workdps(34):
        eps = float(mp.eps)
    return _Numbers(
        eps, object, mp.pi, mp.log, mp.gamma, np.frompyfunc(mp.exp, 1, 1),
        np.frompyfunc(mp.cos_sin, 1, 2), np.frompyfunc(mp.log, 1, 1),
        np.frompyfunc(mp.loggamma, 1, 1),
    )


def gamma_abs_sq(x: float, y: float) -> float:
    """|Gamma(x + iy)|^2 computed as exp(2 Re log Gamma(x + iy)).

    The pair Gamma(x+iy) Gamma(x-iy) decays like exp(-pi |y|); going through
    log space avoids the underflow of the individual factors.
    """
    return math.exp(2.0 * log_gamma(complex(x, y)).real)


def pochhammer(a: complex, n: int):
    """Rising factorial (a)_n = a (a+1) ... (a+n-1) as an exact product
    from a (no 1 x a, no a + 0), the empty product the int 1.  No Gamma
    ratios are involved, so a may be a non-positive integer (the product
    then vanishes for n large enough)."""
    if n < 0:
        raise DomainError(f"pochhammer needs n >= 0, got {n}")
    result = a if n else 1
    for i in range(1, n):
        result = result * (a + i)
    return result


def _jacobi_binomials(alpha, beta, k: int) -> list:
    """C(k+alpha, k-l) C(k+beta, l), l = 0..k (jacobi_poly), with no pass
    that cannot change a value (an empty product's argument, x 1, / 1)."""
    binomials, beta_k = [], beta + k
    for l in range(k + 1):
        c = pochhammer((alpha + l if l else alpha) + 1, k - l) if l < k else 1
        if l:
            b = pochhammer(beta_k - l + 1, l)
            c = c * b if l < k else b
        divisor = math.factorial(k - l) * math.factorial(l)
        binomials.append(c / divisor if divisor > 1 else c)
    return binomials


def jacobi_poly(params: JacobiParams, x):
    """Jacobi polynomial P_k^(alpha, beta)(x) for complex parameters,

        P_k = sum_{l=0}^{k} C(k+alpha, k-l) C(k+beta, l)
              * ((x-1)/2)^l * ((x+1)/2)^(k-l),

    the generalized binomials being C(k+alpha, k-l) = (alpha+l+1)_(k-l)/(k-l)!
    and C(k+beta, l) = (beta+k-l+1)_l / l!.  The sum is finite and exact; for
    real parameters and argument no complex arithmetic occurs at all.  A
    tuple of points gives the tuple of their values, from one binomial set.
    Parameters and points may be arrays of one shape (or broadcast to it),
    evaluated elementwise: the basis-sum oracle's and the special-functions
    suite's form.
    """
    k, points = params.degree, x if isinstance(x, tuple) else (x,)
    alpha, beta, *points = (v.real if isinstance(v, complex) and v.imag == 0.0 else v
                            for v in (params.alpha, params.beta, *points))
    binomials, values = _jacobi_binomials(alpha, beta, k), []
    for point in points:
        xm, xp = (point - 1) / 2, (point + 1) / 2
        for l, c in enumerate(binomials):  # no factor x^0, no first 0 +
            term = c * xm**l if l else c
            term = term * xp ** (k - l) if l < k else term
            total = total + term if l else term
        values.append(total)
    return tuple(values) if isinstance(x, tuple) else values[0]


@functools.cache
def _binomial_table(k: int) -> np.ndarray:
    """Row l holds the monomial coefficients (ascending) of
    ((x-1)/2)^l ((x+1)/2)^(k-l).  They depend on the degree alone, so the
    table is built once per degree and read-only, since every caller
    shares it."""
    table = np.array(
        [
            npoly.polymul(npoly.polypow([-0.5, 0.5], l), npoly.polypow([0.5, 0.5], k - l))
            for l in range(k + 1)
        ]
    )
    table.flags.writeable = False
    return table


def jacobi_coefficients(params: JacobiParams) -> np.ndarray:
    """Monomial coefficients (ascending) of P_k^(alpha, beta), complex-valued.

    A sum of the binomial factors ((x-1)/2)^l ((x+1)/2)^(k-l), taken from
    a table cached per degree, weighted by jacobi_poly's binomials;
    intended for small degrees where exact derivative work is needed.
    """
    k = params.degree
    coeffs = np.zeros(k + 1, dtype=complex)
    for c, term in zip(_jacobi_binomials(params.alpha, params.beta, k), _binomial_table(k)):
        coeffs += complex(c) * term
    return coeffs


def jacobi_product_bateman(params: JacobiParams, x, y):
    """Product P_m^(alpha,beta)(x) * P_m^(alpha,beta)(y) via Bateman's
    double-sum expansion:

        (-1)^m Gamma(alpha+m+1) Gamma(beta+m+1) / m!
          * sum_{k=0}^{m} (-1)^k (alpha+beta+m+1)_k / (4^k (m-k)!)
            * sum_{l=0}^{k} [(1-x)(1-y)]^l [(1+x)(1+y)]^(k-l)
                            / (l! (k-l)! Gamma(alpha+l+1) Gamma(beta+k-l+1)).

    Independent of jacobi_poly (reciprocal Gammas instead of Pochhammer
    binomials), so equality of the two is a nontrivial identity check.
    Parameter combinations where Gamma(alpha+m+1) or Gamma(beta+m+1) hits a
    pole are outside the expansion's validity and raise a pole error.

    Parameters and points may be arrays of one shape (or broadcast to it),
    as jacobi_poly's: the products come back elementwise as a complex
    array.  A scalar call returns a scalar: a float where the product is
    real, a complex otherwise.
    """
    m = params.degree
    a, b = params.alpha, params.beta
    log_pref = log_gamma(a + m + 1) + log_gamma(b + m + 1)
    exp = np.exp if isinstance(log_pref, np.ndarray) else cmath.exp
    pref = (-1.0) ** m * exp(log_pref) / math.factorial(m)
    rgamma = _scipy_special().rgamma
    u = (1 - x) * (1 - y)
    v = (1 + x) * (1 + y)
    total = 0
    for k in range(m + 1):
        outer = (
            (-1.0) ** k
            * pochhammer(a + b + m + 1, k)
            / (4.0**k * math.factorial(m - k))
        )
        inner = 0
        for l in range(k + 1):
            inner = inner + (
                u**l
                * v ** (k - l)
                / (math.factorial(l) * math.factorial(k - l))
                * rgamma(a + l + 1)
                * rgamma(b + k - l + 1)
            )
        total = total + outer * inner
    result = pref * total
    if isinstance(result, complex) and result.imag == 0.0:
        return result.real
    return result


@functools.lru_cache(maxsize=1024)
def routh_coefficients(m: int, a: float, b: float) -> np.ndarray:
    """Real monomial coefficients (ascending) of RR_m^(a,b): the one form
    in which the package evaluates RR_m, values and exact derivatives
    alike, built once per (m, a, b) and read-only, as every caller shares
    them.  An imaginary residue above 1e-8 relative (a bug in the Jacobi
    coefficients) raises ImaginaryResidueError."""
    cj = jacobi_coefficients(JacobiParams(complex(b - 1.0, a / 2.0), complex(b - 1.0, -a / 2.0), m))
    pref = (-2j) ** m * math.factorial(m)
    coeffs = pref * cj * (1j) ** np.arange(m + 1)
    scale = max(np.max(np.abs(coeffs)), 1.0)
    if np.max(np.abs(coeffs.imag)) > 1e-8 * scale:
        raise ImaginaryResidueError(
            f"RR_{m}^({a},{b}) coefficients carry imaginary residue "
            f"{np.max(np.abs(coeffs.imag)) / scale:.3e}"
        )
    coeffs = coeffs.real.copy()
    coeffs.flags.writeable = False
    return coeffs


def routh_leading_coefficient(m: int, B: float) -> float:
    """Leading coefficient of RR_m^(a, 1-B) in x, independent of a:

        a_m = (-1)^m Gamma(2B - m) / Gamma(2B - 2m).
    """
    if _is_nonpositive_integer(2.0 * B - m) or _is_nonpositive_integer(2.0 * B - 2.0 * m):
        raise PoleError(
            f"leading coefficient undefined where Gamma(2B-m) or Gamma(2B-2m) "
            f"has a pole: B={B}, m={m}"
        )
    gamma = _scipy_special().gamma
    return (-1.0) ** m * float(gamma(2.0 * B - m) / gamma(2.0 * B - 2.0 * m))


def arccot(x: float) -> float:
    """The (0, pi) branch of the inverse cotangent: the exact inverse of
    x = cot(theta) for theta in (0, pi)."""
    return math.pi / 2.0 - math.atan(x)


def cauchy_beta_integral(p: float, nu: float) -> float:
    """The Cauchy Beta integral

        int_0^pi exp(-p x) (sin x)^nu dx
            = pi 2^(-nu) exp(-pi p / 2) Gamma(nu + 1) / |Gamma(nu/2 + 1 + ip/2)|^2

    valid for nu > -1.  Evaluated entirely in log space.
    """
    if not (nu > -1.0):
        raise DomainError(f"cauchy_beta_integral requires nu > -1, got {nu}")
    log_value = (
        math.log(math.pi)
        - nu * math.log(2.0)
        - math.pi * p / 2.0
        + math.lgamma(nu + 1.0)
        - 2.0 * log_gamma(complex(nu / 2.0 + 1.0, p / 2.0)).real
    )
    return math.exp(log_value)


def routh_rodrigues_oracle(m: int, a: float, b: float, x: float) -> float:
    """Rodrigues-formula value of RR_m^(a,b)(x),

        (1 / omega^(a,b)(x)) d^m/dx^m [ omega^(a,b)(x) (1 + x^2)^m ],

    computed independently of the Jacobi-sum path: symbolically for m <= 2
    (the product rule closes in a few terms), by Richardson-extrapolated
    central differences for m in {3, 4}.  Serves as the oracle the series
    path is tested against.
    """
    if m < 0 or m > 4:
        raise DomainError(f"Rodrigues oracle implemented for 0 <= m <= 4, got {m}")
    if m == 0:
        return 1.0
    if m == 1:
        # (1/w) d/dx [w (1+x^2)] with w'/w = (a + 2(b-1)x)/(1+x^2)
        return a + 2.0 * b * x
    if m == 2:
        # (1/w) d^2/dx^2 [w (1+x^2)^2]; the logarithmic derivative of
        # W = w (1+x^2)^2 is (a + 2(b+1)x)/(1+x^2), and
        # W''/W = [(a+2(b+1)x)^2 + 2(b+1)(1+x^2) - 2x(a+2(b+1)x)]/(1+x^2)^2.
        s = a + 2.0 * (b + 1.0) * x
        return s * s + 2.0 * (b + 1.0) * (1.0 + x * x) - 2.0 * x * s

    # m in {3, 4}: differentiate g(u) = F(u)/F(x) with
    # F(u) = exp(-a arccot u) (1+u^2)^(b-1+m), which keeps values O(1) near u=x;
    # then RR_m = g^(m)(x) * (1+x^2)^m.
    c = b - 1.0 + m

    def g(u: float) -> float:
        return math.exp(-a * (arccot(u) - arccot(x))) * (
            (1.0 + u * u) / (1.0 + x * x)
        ) ** c

    # second-order central stencil for the m-th derivative, Richardson
    # extrapolated twice (h, h/2, h/4) to O(h^6)
    stencil = [(-1.0) ** i * math.comb(m, i) for i in range(m + 1)]

    def central(h: float) -> float:
        acc = 0.0
        for i, w in enumerate(stencil):
            acc += w * g(x + (m / 2.0 - i) * h)
        return acc / h**m

    h0 = 0.04 * (1.0 + abs(x))
    d1, d2, d3 = central(h0), central(h0 / 2.0), central(h0 / 4.0)
    r1 = (4.0 * d2 - d1) / 3.0
    r2 = (4.0 * d3 - d2) / 3.0
    value = (16.0 * r2 - r1) / 15.0
    return value * (1.0 + x * x) ** m


def theta4(z: complex, R: float, ctrl: SeriesControl = DEFAULT_SERIES) -> complex:
    """Jacobi's fourth theta function in the nome q = 1/R,

        theta_4(z, R) = 1 + 2 sum_{k>=1} (-1)^k R^(-k^2) cos(2kz),

    for R > 1 and complex z.  Terms decay like R^(-k^2) exp(2k |Im z|); the
    sum is truncated once the term bound falls below tolerance times the
    partial sum, with k capped at sqrt(max_terms).
    """
    z = complex(z)
    if not (R > 1.0):
        raise DomainError(f"theta4 requires R > 1, got R={R}")
    log_R = math.log(R)
    im = abs(z.imag)
    # peak of the term magnitude sits near k* = im / log R
    if im * im / log_R > 500.0:
        raise ConvergenceError(
            f"theta4 series peak exp({im * im / log_R:.1f}) exceeds the "
            "floating-point range"
        )
    k_max = max(int(math.isqrt(ctrl.max_terms)), 4)
    k_peak = im / log_R
    total = 1.0 + 0.0j
    for k in range(1, k_max + 1):
        term = 2.0 * (-1.0) ** k * math.exp(-(k * k) * log_R) * cmath.cos(2.0 * k * z)
        total += term
        bound = 2.0 * math.exp(-(k * k) * log_R + 2.0 * k * im)
        if k > k_peak and bound < ctrl.tolerance * max(abs(total), 1e-300):
            return total
    raise ConvergenceError(
        f"theta4 did not converge within k <= {k_max} (|Im z| = {im:.3g}, R = {R})"
    )


def _lambert_rows(num: _Numbers, x, y, log_R, j: np.ndarray) -> tuple:
    """The Lambert series' rows at the indices j, in the number type num of
    x, y and log R: the real and imaginary parts of g_j sin 2jz, then of
    g_j cos 2jz, from sin 2jx, cos 2jx, g_j cosh 2jy and g_j sinh 2jy, and
    1 - R^-2j.  The array stands left of each mpmath scalar, which would
    otherwise convert it whole."""
    cos, sin = num.cos_sin(j * (2 * x))
    up, down = num.exp(j * (2 * y - log_R)), num.exp(j * (-2 * y - log_R))
    gap = 1 - up * down  # 1 - R^-2j
    a, b = (up + down) / (2 * gap), (up - down) / (2 * gap)  # g_j cosh, sinh
    return sin * a, cos * b, cos * a, -(sin * b), gap


def lambert_log_derivatives(
    z, R, orders, ctrl: SeriesControl = DEFAULT_SERIES
) -> tuple[list, int]:
    """([(value, gross), ...], terms) of the logarithmic derivatives
    (log theta_4)^(s)(z, R) of each s in orders (all >= 1), summed from one
    set of the Lambert series' rows that every order shares:

        (log theta_4)^(s)(z)
            = 4 sum_{j>=1} (2j)^(s-1) g_j sin(2jz + (s-1) pi/2),
        g_j = R^-j / (1 - R^-2j).

    With z = x + iy, g_j sin(2jz) and g_j cos(2jz) are built from sin 2jx,
    cos 2jx, g_j cosh 2jy and g_j sinh 2jy, the last two from
    g_j e^(+-2jy) = e^(-j (log R -+ 2y)) / (1 - R^-2j) <= q^j / (1 - R^-2j),
    q = e^(2|y|) / R, so no factor overflows.  The sine-type orders
    s = 1, 3, ... weight the sin row, the cosine-type orders the cos row.

    The series converges iff q < 1; a q within BOUNDARY_MARGIN of 1 is
    refused.  Order s stops at the first j where the tail bound

        4 (2j+2)^(s-1) q^(j+1) / ((1 - q)(1 - R^-2j))

    falls below ctrl.tolerance x |partial sum|.  One binary64 pass finds
    every order's stop, value and gross (the sum of its terms' moduli, the
    rounding majorant: with no cancellation in it, binary64 serves either
    number type); its rows double on demand, built for the new indices
    only, as a rebuild from j = 1 would move last bits (numpy's vector
    loops round an element by its position).  An mpmath z (R in mpmath or
    float) selects mpmath numbers at the working precision: the same row
    builder (_lambert_rows, one cos_sin and two exp per j) reaches the
    largest stop, and each order is summed from its rows in index order
    with exact integer weights, an mpc.  terms is the largest j summed.
    """
    mp = sys.modules.get("mpmath")  # an mpc exists only once mpmath is loaded
    in_mpmath = mp is not None and isinstance(z, mp.mpc)
    num, z = (_mpmath_numbers(), z) if in_mpmath else (_BINARY64, complex(z))
    if not (R > 1.0):
        raise DomainError(f"requires R > 1, got R={R}")
    x, y, log_R = float(z.real), float(z.imag), math.log(float(R))
    q = math.exp(2.0 * abs(y) - log_R)
    if q >= 1.0 - BOUNDARY_MARGIN:
        raise ConvergenceError(
            f"log-derivative series ratio exp(2|Im z|)/R = {q:.6g} is "
            f"within {BOUNDARY_MARGIN} of 1 (|Im z| must stay below log(R)/2)"
        )
    if not orders or not all(isinstance(s, (int, np.integer)) and s >= 1 for s in orders):
        raise DomainError(f"derivative orders must be integers >= 1, got {orders!r}")
    orders = np.array(orders)
    reach = math.log(min(ctrl.tolerance, 1.0)) / math.log(q)  # q^j = tolerance
    n, rows = min(ctrl.max_terms, 2 * math.ceil(reach) + 16), (np.empty(0),) * 5
    while True:  # the rows of j = 1..n, built for the new indices only
        j = np.arange(rows[0].size + 1, n + 1, dtype=float)
        rows = tuple(map(np.concatenate, zip(rows, _lambert_rows(_BINARY64, x, y, log_R, j))))
        re_sin, im_sin, re_cos, im_cos, gap = rows  # g_j sin 2jz, g_j cos 2jz
        size = gap.size
        tail = np.exp(np.arange(2.0, size + 2.0) * math.log(q)) / ((1.0 - q) * gap)  # j + 1
        weight = 4.0 * np.arange(2.0, 2.0 * size + 3.0, 2.0) ** (orders[:, None] - 1)
        terms = weight[:, :-1] * np.where(orders[:, None] % 2, re_sin + 1j * im_sin,
                                          re_cos + 1j * im_cos)
        partial, gross = np.cumsum(terms, axis=1), np.cumsum(np.abs(terms), axis=1)
        done = weight[:, 1:] * tail < ctrl.tolerance * np.maximum(np.abs(partial), 1e-300)
        if done.any(axis=1).all():
            break
        if size >= ctrl.max_terms:
            raise ConvergenceError(f"log-derivative series (order "
                                   f"{orders[~done.any(axis=1)][0]}) hit the "
                                   f"{ctrl.max_terms}-term cap")
        n = min(2 * size, ctrl.max_terms)
    stops, pick = done.argmax(axis=1), np.arange(orders.size)
    values, grosses = partial[pick, stops].tolist(), gross[pick, stops].tolist()
    orders, ns = orders.tolist(), (stops + 1).tolist()
    if num is not _BINARY64:  # the same sums over the point's own rows
        *rows, _ = _lambert_rows(num, z.real, z.imag, mp.log(R),
                                 np.arange(1, max(ns) + 1, dtype=object))
        for i, (order, n) in enumerate(zip(orders, ns)):
            # exact integer weights: a rounded power would skew each mpmath term
            weight = 4 * (2 * np.arange(1, n + 1, dtype=object)) ** (order - 1)
            re, im = (np.cumsum(weight * row[:n])[-1]
                      for row in (rows[:2] if order % 2 else rows[2:]))
            values[i] = re + 1j * im
    return [((1 if (order - 1) % 4 < 2 else -1) * v, g)  # sin, cos, -sin, -cos
            for order, v, g in zip(orders, values, grosses)], max(ns)


def theta4_log_derivative(
    order: int, z: complex, R: float, ctrl: SeriesControl = DEFAULT_SERIES
) -> complex:
    """Derivative of order s >= 1 of log theta_4(z, R), the Lambert-type
    series of lambert_log_derivatives summed for one order.

    Converges iff exp(2 |Im z|) / R < 1; the distance of that ratio from 1
    must exceed BOUNDARY_MARGIN.  An mpmath z (R in mpmath or float) is
    summed in mpmath at the working precision, by the same row builder.
    """
    [(value, _)], _ = lambert_log_derivatives(z, R, [order], ctrl)
    return value
