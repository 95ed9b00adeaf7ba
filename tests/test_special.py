"""Tests of the special-function layer: every closed form is checked against
an independently computed oracle (recurrences, quadrature, finite differences,
or a second closed form reached by a different route)."""

from __future__ import annotations

import cmath
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annulus_kernels.errors import ConvergenceError, DomainError, PoleError
from annulus_kernels.geometry import AnnulusParams, alpha_index
from annulus_kernels import special
from annulus_kernels.kernels import _theta_polynomial
from annulus_kernels.special import (
    DEFAULT_SERIES,
    JacobiParams,
    SeriesControl,
    _binomial_table,
    arccot,
    cauchy_beta_integral,
    gamma_abs_sq,
    jacobi_coefficients,
    jacobi_poly,
    jacobi_product_bateman,
    lambert_log_derivatives,
    log_gamma,
    pochhammer,
    routh_coefficients,
    routh_leading_coefficient,
    routh_rodrigues_oracle,
    theta4,
    theta4_log_derivative,
)

# ---------------------------------------------------------------------------
# log_gamma / gamma_abs_sq


def test_log_gamma_recurrence():
    # Gamma(z+1) = z Gamma(z), i.e. loggamma(z+1) - loggamma(z) - log z = 0
    rng = np.random.default_rng(11)
    for _ in range(50):
        z = complex(rng.uniform(0.3, 6.0), rng.uniform(-8.0, 8.0))
        lhs = log_gamma(z + 1.0)
        rhs = log_gamma(z) + cmath.log(z)
        assert abs(lhs - rhs) < 1e-12 * max(abs(lhs), 1.0)


def test_log_gamma_known_values():
    assert abs(log_gamma(1.0)) < 1e-14
    assert abs(log_gamma(5.0) - math.log(24.0)) < 1e-13
    assert abs(log_gamma(0.5) - 0.5 * math.log(math.pi)) < 1e-14


def test_log_gamma_pole_raises():
    for z in (0.0, -1.0, -5.0):
        with pytest.raises(PoleError):
            log_gamma(z)


def test_log_gamma_on_an_array_matches_scalar_calls():
    rng = np.random.default_rng(5)
    z = rng.uniform(-20.0, 50.0, size=(4, 50)) + 1j * rng.uniform(-50.0, 50.0, size=(4, 50))
    z[0, :3] = (-2.5, 0.5, 7.0)  # real arguments, one left of the origin
    got = log_gamma(z)
    assert got.shape == z.shape and got.dtype == complex
    assert got.tolist() == [[log_gamma(v) for v in row] for row in z.tolist()]
    assert log_gamma(np.array([1.0, 2.0, 3.0])).tolist() == [log_gamma(v) for v in (1.0, 2.0, 3.0)]


@pytest.mark.parametrize("pole", [0.0, -1.0, -7.0 + 0.0j, complex(-0.0, 0.0)])
def test_log_gamma_on_an_array_raises_at_any_pole(pole):
    # a pole anywhere in a 1-D or 2-D array, outside row 0 of a 2-D one,
    # among real non-poles left of the origin; the message names it
    for shape in [(4,), (2, 2), (3, 4)]:
        z = np.full(shape, 1.5 + 2.0j)
        z.flat[:2] = (-0.5 + 0.0j, -2.5)
        z.flat[-1] = pole
        with pytest.raises(PoleError, match=re.escape(f"z={complex(pole)}")):
            log_gamma(z)


@pytest.mark.parametrize("x", [-math.inf, math.inf, math.nan])
def test_log_gamma_off_the_real_numbers_is_no_pole(x):
    # a non-finite argument is no pole; scalar and array give scipy's value
    assert cmath.isnan(log_gamma(x))
    assert cmath.isnan(log_gamma(np.array([2.0, x]))[1])


def test_gamma_abs_sq_half_line():
    # |Gamma(1/2 + iy)|^2 = pi / cosh(pi y)
    for y in (0.0, 0.3, 1.7, 4.0):
        expected = math.pi / math.cosh(math.pi * y)
        assert abs(gamma_abs_sq(0.5, y) - expected) < 1e-12 * expected


def test_gamma_abs_sq_integer_line():
    # |Gamma(1 + iy)|^2 = pi y / sinh(pi y)
    for y in (0.25, 1.0, 3.5):
        expected = math.pi * y / math.sinh(math.pi * y)
        assert abs(gamma_abs_sq(1.0, y) - expected) < 1e-12 * expected


def test_gamma_abs_sq_stays_accurate_at_large_height():
    # the log-space assembly keeps full accuracy deep in the exponential decay
    val = gamma_abs_sq(2.0, 200.0)
    assert val > 0.0
    # check against the asymptotic |Gamma(x+iy)|^2 ~ 2pi |y|^(2x-1) e^(-pi|y|)
    asym = 2.0 * math.pi * 200.0 ** 3.0 * math.exp(-math.pi * 200.0)
    assert abs(val - asym) < 1e-2 * asym


# ---------------------------------------------------------------------------
# the theta path's Gamma-pair polynomials P_kl (kernels._theta_polynomial):
# elementary product route vs log-Gamma route


@pytest.mark.parametrize("R", [2.0, 4.0, 10.0])
@pytest.mark.parametrize("c", [1, 2, 3, 4])
def test_gamma_pair_product_matches_loggamma(R, c):
    # Gamma(c-k + i j y) Gamma(c-l - i j y) = 2 log R [j R^j/(R^(2j)-1)] P_kl(j),
    # y = log(R)/pi, for every k, l < c (complex pairs when k != l)
    log_R = math.log(R)
    for k in range(c):
        for l in range(c):
            P = _theta_polynomial(k, l, c, log_R)
            for j in range(-30, 31):
                y = j * log_R / math.pi
                direct = cmath.exp(log_gamma(complex(c - k, y)) + log_gamma(complex(c - l, -y)))
                n = abs(j)
                bracket = n / (R**n - R**-n) if n else 1.0 / (2.0 * log_R)
                elementary = 2.0 * log_R * bracket * np.polyval(P[::-1], j)
                assert abs(elementary - direct) < 1e-11 * abs(direct), (
                    f"c={c}, k={k}, l={l}, j={j}, R={R}: {elementary} vs {direct}"
                )


def test_gamma_pair_product_j_zero_limit():
    # at j = 0 the formula must reproduce Gamma(c-k) Gamma(c-l) exactly:
    # P_kl(0) times 2 log R x the bracket's limit 1/(2 log R)
    for c in (1, 2, 5):
        for k in range(c):
            for l in range(c):
                got = _theta_polynomial(k, l, c, math.log(3.0))[0]
                want = math.factorial(c - k - 1) * math.factorial(c - l - 1)
                assert abs(got - want) < 1e-13 * want


# ---------------------------------------------------------------------------
# pochhammer / jacobi


def test_pochhammer_basics():
    assert pochhammer(3.0, 0) == 1
    assert pochhammer(3.0, 4) == 3.0 * 4.0 * 5.0 * 6.0
    assert pochhammer(-2.0, 4) == 0.0  # terminates through zero
    got = pochhammer(1.5 + 2.0j, 3)
    want = (1.5 + 2.0j) * (2.5 + 2.0j) * (3.5 + 2.0j)
    assert abs(got - want) < 1e-14 * abs(want)


def test_jacobi_against_scipy_real_params():
    from scipy.special import eval_jacobi

    rng = np.random.default_rng(5)
    for _ in range(40):
        k = int(rng.integers(0, 7))
        a = float(rng.uniform(-0.9, 3.0))
        b = float(rng.uniform(-0.9, 3.0))
        x = float(rng.uniform(-2.0, 2.0))
        got = jacobi_poly(JacobiParams(a, b, k), x)
        want = float(eval_jacobi(k, a, b, x))
        assert abs(got - want) < 1e-10 * max(abs(want), 1.0)


def test_jacobi_value_at_one():
    # P_k^(a,b)(1) = (a+1)_k / k!
    a, b = 0.75 + 0.5j, -0.25 - 0.5j
    for k in range(6):
        got = jacobi_poly(JacobiParams(a, b, k), 1.0)
        want = pochhammer(a + 1.0, k) / math.factorial(k)
        assert abs(got - want) < 1e-12 * max(abs(want), 1.0)


@st.composite
def _jacobi_case(draw):
    k = draw(st.integers(min_value=0, max_value=6))
    re = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
    im = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
    a = complex(draw(re), draw(im))
    b = complex(draw(re), draw(im))
    x = complex(draw(re), draw(im))
    return k, a, b, x


@given(_jacobi_case())
@settings(max_examples=200, deadline=None)
def test_jacobi_reflection_symmetry(case):
    # P_k^(a,b)(-x) = (-1)^k P_k^(b,a)(x), an identity of the coefficients
    k, a, b, x = case
    lhs = jacobi_poly(JacobiParams(a, b, k), -x)
    rhs = (-1.0) ** k * jacobi_poly(JacobiParams(b, a, k), x)
    assert abs(lhs - rhs) < 1e-11 * max(abs(lhs), abs(rhs), 1.0)


def test_jacobi_coefficients_match_values():
    params = JacobiParams(0.5 + 1.25j, 0.5 - 1.25j, 5)
    coeffs = jacobi_coefficients(params)
    for x in (-1.3, 0.2, 0.9 + 0.4j):
        direct = jacobi_poly(params, x)
        horner = complex(np.polynomial.polynomial.polyval(complex(x), coeffs))
        assert abs(direct - horner) < 1e-11 * max(abs(direct), 1.0)


def _jacobi_coefficients_uncached(params: JacobiParams) -> np.ndarray:
    """The construction jacobi_coefficients replaced: the binomial factors
    convolved afresh on every call."""
    poly = np.polynomial.polynomial
    k = params.degree
    coeffs = np.zeros(k + 1, dtype=complex)
    for l in range(k + 1):
        c = pochhammer(params.alpha + l + 1, k - l) * pochhammer(
            params.beta + k - l + 1, l
        )
        c = c / (math.factorial(k - l) * math.factorial(l))
        term = poly.polymul(poly.polypow([-0.5, 0.5], l), poly.polypow([0.5, 0.5], k - l))
        coeffs[: len(term)] += complex(c) * term
    return coeffs


@pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
def test_jacobi_coefficients_bit_identical_to_uncached(k):
    for a, b in [(0.5 + 1.25j, 0.5 - 1.25j), (-2.0 + 7.3j, -2.0 - 7.3j), (0.0, 1.5)]:
        params = JacobiParams(a, b, k)
        np.testing.assert_array_equal(
            jacobi_coefficients(params), _jacobi_coefficients_uncached(params)
        )


def test_binomial_table_is_cached_and_read_only():
    table = _binomial_table(3)
    assert _binomial_table(3) is table
    assert table.shape == (4, 4)
    with pytest.raises(ValueError):
        table[0, 0] = 2.0
    # callers get fresh coefficient arrays they may write to
    params = JacobiParams(0.5, 1.5, 3)
    before = jacobi_coefficients(params).copy()
    jacobi_coefficients(params)[:] = 0.0
    np.testing.assert_array_equal(jacobi_coefficients(params), before)


def test_jacobi_degree_cap():
    with pytest.raises(DomainError):
        JacobiParams(0.0, 0.0, 65)


def test_jacobi_degree_must_be_an_integer():
    # a float degree once passed, and jacobi_poly then raised a bare TypeError
    with pytest.raises(DomainError, match="integer"):
        JacobiParams(0.5, 0.5, 2.0)
    assert jacobi_poly(JacobiParams(0.5, 0.5, np.int64(2)), 0.3) == jacobi_poly(
        JacobiParams(0.5, 0.5, 2), 0.3)


def test_jacobi_product_bateman_matches_direct_product():
    # the double-sum product expansion against the plain product of two
    # evaluations, over seeded real parameters and arguments
    rng = np.random.default_rng(11)
    for m in range(5):
        for _ in range(40):
            a, b = rng.uniform(-0.45, 3.0, size=2)
            x, y = rng.uniform(-2.0, 2.0, size=2)
            p = JacobiParams(a, b, m)
            direct = jacobi_poly(p, x) * jacobi_poly(p, y)
            expans = jacobi_product_bateman(p, x, y)
            assert abs(direct - expans) <= 1e-10 * max(abs(direct), 1.0)


def test_jacobi_product_bateman_complex_parameters():
    p = JacobiParams(0.3 + 0.7j, -0.2 - 0.7j, 3)
    direct = jacobi_poly(p, 0.4j) * jacobi_poly(p, -1.1j)
    expans = jacobi_product_bateman(p, 0.4j, -1.1j)
    assert abs(direct - expans) <= 1e-12 * abs(direct)


def test_jacobi_product_bateman_degree_zero_is_one():
    assert jacobi_product_bateman(JacobiParams(0.7, -0.3, 0), 0.2, -1.4) == (
        pytest.approx(1.0, rel=1e-13)
    )


# the array forms, which the special-functions suite and the basis-sum
# oracle evaluate: elementwise the scalar calls, to a few roundings of the
# terms' moduli (numpy's loops may round a product or power differently)
ARRAY_ULPS = 8 * np.finfo(float).eps


def _jacobi_gross(a, b, k, x):
    """sum_l |C(k+a, k-l) C(k+b, l)| |(x-1)/2|^l |(x+1)/2|^(k-l), the moduli
    of jacobi_poly's terms."""
    return sum(abs(c) * abs((x - 1) / 2) ** l * abs((x + 1) / 2) ** (k - l)
               for l, c in enumerate(special._jacobi_binomials(a, b, k)))


def _bateman_gross(a, b, m, x, y):
    """jacobi_product_bateman's double sum with every factor's modulus."""
    from scipy.special import rgamma

    f = math.factorial
    u, v = abs((1 - x) * (1 - y)), abs((1 + x) * (1 + y))
    pref = abs(cmath.exp(log_gamma(a + m + 1) + log_gamma(b + m + 1))) / f(m)
    return pref * sum(
        abs(pochhammer(a + b + m + 1, k)) / (4.0**k * f(m - k))
        * sum(u**l * v ** (k - l) / (f(l) * f(k - l))
              * abs(rgamma(a + l + 1) * rgamma(b + k - l + 1)) for l in range(k + 1))
        for k in range(m + 1))


def _complex_uniform(rng, bound, n):
    return rng.uniform(-bound, bound, n) + 1j * rng.uniform(-bound, bound, n)


@pytest.mark.parametrize("k", range(7))
def test_jacobi_poly_on_arrays_is_the_scalar_calls(k):
    rng = np.random.default_rng(280 + k)
    a, b = _complex_uniform(rng, 3.0, 25), _complex_uniform(rng, 3.0, 25)
    x, y = _complex_uniform(rng, 2.0, 25), _complex_uniform(rng, 2.0, 25)
    p = JacobiParams(a, b, k)
    at_x, (tuple_x, tuple_y) = jacobi_poly(p, x), jacobi_poly(p, (x, y))
    for i in range(25):
        q = JacobiParams(complex(a[i]), complex(b[i]), k)
        for point, values in ((x[i], (at_x, tuple_x)), (y[i], (tuple_y,))):
            want, scale = jacobi_poly(q, complex(point)), _jacobi_gross(q.alpha, q.beta, k, point)
            for got in values:  # degree 0 is the number 1 for any shape
                assert abs(np.broadcast_to(got, (25,))[i] - want) <= ARRAY_ULPS * scale


@pytest.mark.parametrize("k", range(7))
@pytest.mark.parametrize("real", [True, False])
def test_jacobi_product_bateman_on_arrays_is_the_scalar_calls(k, real):
    rng = np.random.default_rng(290 + k)
    if real:  # the special-functions suite's cases, Gamma(a + 1) off its poles
        a, b = rng.uniform(-0.45, 3.0, 25), rng.uniform(-0.45, 3.0, 25)
        x, y = rng.uniform(-2.0, 2.0, 25), rng.uniform(-2.0, 2.0, 25)
    else:
        a, b = _complex_uniform(rng, 3.0, 25), _complex_uniform(rng, 3.0, 25)
        x, y = _complex_uniform(rng, 2.0, 25), _complex_uniform(rng, 2.0, 25)
    got = jacobi_product_bateman(JacobiParams(a, b, k), x, y)
    assert isinstance(got, np.ndarray) and got.shape == (25,) and got.dtype == complex
    for i in range(25):
        q = JacobiParams(a[i].item(), b[i].item(), k)
        want = jacobi_product_bateman(q, x[i].item(), y[i].item())
        assert abs(got[i] - want) <= ARRAY_ULPS * _bateman_gross(a[i], b[i], k, x[i], y[i])


def test_scalar_jacobi_calls_keep_their_types():
    real, cplx = JacobiParams(0.7, -0.3, 3), JacobiParams(0.3 + 0.7j, -0.2 - 0.7j, 3)
    assert type(jacobi_poly(real, 0.2)) is float
    assert type(jacobi_poly(cplx, 0.2)) is complex
    assert type(jacobi_poly(real, (0.2, -1.4))[1]) is float
    assert type(jacobi_product_bateman(real, 0.2, -1.4)) is float
    assert type(jacobi_product_bateman(JacobiParams(0.7, -0.3, 0), 0.2, -1.4)) is float
    assert type(jacobi_product_bateman(real, 0.2j, -1.4)) is complex
    value = jacobi_product_bateman(cplx, 0.4j, -1.1j)
    assert isinstance(value, complex) and np.ndim(value) == 0 and value.imag != 0.0


# ---------------------------------------------------------------------------
# Routh-Romanovski, as the package evaluates it: its monomial coefficients


def _rr(m, a, b, x):
    """RR_m^(a,b)(x) from routh_coefficients, the form the basis evaluates."""
    return np.polynomial.polynomial.polyval(x, routh_coefficients(m, a, b))


def _rr_jacobi(m, a, b, x):
    """(-2i)^m m! P_m^(b-1+ia/2, b-1-ia/2)(ix) by the Jacobi sum: complex,
    real up to the rounding of the complex evaluation."""
    params = JacobiParams(complex(b - 1.0, a / 2.0), complex(b - 1.0, -a / 2.0), m)
    return (-2j) ** m * math.factorial(m) * complex(jacobi_poly(params, 1j * x))


def test_routh_degree_zero_and_one():
    for a, b, x in [(0.7, -1.5, 0.3), (-2.0, 2.5, -1.1), (3.1, 0.0, 2.4)]:
        assert _rr(0, a, b, x) == pytest.approx(1.0, abs=1e-14)
        assert _rr(1, a, b, x) == pytest.approx(a + 2.0 * b * x, rel=1e-12)


def test_routh_degree_two_closed_form():
    # RR_2 = 2(2b+1)(b+1)x^2 + 2a(2b+1)x + a^2 + 2(b+1)
    for a, b, x in [(0.9, -1.5, 0.6), (-1.7, 2.0, -0.8), (2.4, 0.3, 1.9)]:
        want = (
            2.0 * (2.0 * b + 1.0) * (b + 1.0) * x * x
            + 2.0 * a * (2.0 * b + 1.0) * x
            + a * a
            + 2.0 * (b + 1.0)
        )
        assert _rr(2, a, b, x) == pytest.approx(want, rel=1e-11, abs=1e-11)


@pytest.mark.parametrize("m", [0, 1, 2, 3, 4])
def test_routh_matches_rodrigues_oracle(m):
    # independent construction: same polynomial from the Rodrigues formula
    rng = np.random.default_rng(23 + m)
    for _ in range(8):
        a = float(rng.uniform(-4.0, 4.0))
        b = float(rng.uniform(-3.0, 1.0))
        x = float(rng.uniform(-2.0, 2.0))
        series = _rr(m, a, b, x)
        oracle = routh_rodrigues_oracle(m, a, b, x)
        scale = max(abs(series), abs(oracle), 1.0)
        assert abs(series - oracle) < 1e-7 * scale, (
            f"m={m}, a={a:.4f}, b={b:.4f}, x={x:.4f}: {series} vs {oracle}"
        )


def test_routh_coefficients_match_values():
    # the coefficients (from jacobi_coefficients) against the Jacobi sum
    # (jacobi_poly) at imaginary argument: two routes to one polynomial
    for m, a, b in [(0, 1.0, 0.5), (2, -1.3, -0.75), (4, 2.2, -1.5), (3, 5.5, -2.0)]:
        coeffs = routh_coefficients(m, a, b)
        assert len(coeffs) == m + 1
        for x in (-1.7, 0.25, 2.1):
            want = _rr_jacobi(m, a, b, x)
            assert _rr(m, a, b, x) == pytest.approx(want.real, rel=1e-11, abs=1e-11)


def test_routh_coefficients_are_cached_and_read_only():
    coeffs = routh_coefficients(3, 1.25, -2.0)
    assert routh_coefficients(3, 1.25, -2.0) is coeffs
    with pytest.raises(ValueError):
        coeffs[0] = 2.0


def test_routh_leading_coefficient():
    # highest coefficient of RR_m^(a, 1-B) equals (-1)^m Gamma(2B-m)/Gamma(2B-2m)
    for m, B in [(0, 2.5), (1, 2.5), (2, 2.5), (1, 1.8), (2, 3.3)]:
        coeffs = routh_coefficients(m, 0.7, 1.0 - B)
        want = routh_leading_coefficient(m, B)
        assert coeffs[-1] == pytest.approx(want, rel=1e-10)


def test_routh_imaginary_residual_is_tiny():
    # conjugate parameters on the imaginary axis: the complex Jacobi sum is
    # real up to rounding
    val = _rr_jacobi(3, 1.3, -2.0, 0.9)
    assert abs(val.imag) < 1e-12 * max(abs(val), 1.0)


def test_routh_finite_orthogonality():
    # RR_p^(-alpha, 1-B) and RR_q^(-alpha, 1-B) are orthogonal against the
    # Student weight whenever p != q and p + q <= 2B - 2; checked by
    # Gauss-Legendre quadrature on theta in (0, pi) after xi = cot(theta).
    params = AnnulusParams(R=4.0, B=2.5)
    j = 1
    alpha = alpha_index(j, params)
    nodes, weights = np.polynomial.legendre.leggauss(400)
    theta = 0.5 * math.pi * (nodes + 1.0)
    w = 0.5 * math.pi * weights
    xi = 1.0 / np.tan(theta)
    # d(xi) = -(1+xi^2) d(theta): the weight in theta is exp(alpha*theta) sin^(2B-2)
    wt = np.exp(alpha * theta) * np.sin(theta) ** (2.0 * params.B - 2.0)

    r0, r1 = (_rr(m, -alpha, 1.0 - params.B, xi) for m in (0, 1))
    inner01 = float(np.sum(w * wt * r0 * r1))
    norm0 = float(np.sum(w * wt * r0 * r0))
    norm1 = float(np.sum(w * wt * r1 * r1))
    # p + q = 1 <= 2B - 2 = 3: orthogonal
    assert abs(inner01) < 1e-8 * math.sqrt(norm0 * norm1)


# ---------------------------------------------------------------------------
# arccot


def test_arccot_branch():
    assert arccot(0.0) == pytest.approx(math.pi / 2.0)
    assert arccot(1.0) == pytest.approx(math.pi / 4.0)
    assert arccot(-1.0) == pytest.approx(3.0 * math.pi / 4.0)
    # inverse of cot on (0, pi)
    for theta in (0.1, 1.0, 2.0, 3.0):
        assert arccot(1.0 / math.tan(theta)) == pytest.approx(theta, rel=1e-12)


# ---------------------------------------------------------------------------
# Cauchy Beta integral


@pytest.mark.parametrize(
    "p,nu,expected",
    [
        (0.0, 0.0, math.pi),
        (0.0, 2.0, math.pi / 2.0),
        (1.0, 1.0, (1.0 + math.exp(-math.pi)) / 2.0),
    ],
)
def test_cauchy_beta_known_values(p, nu, expected):
    assert cauchy_beta_integral(p, nu) == pytest.approx(expected, rel=1e-12)


def test_cauchy_beta_against_quadrature():
    nodes, weights = np.polynomial.legendre.leggauss(300)
    x = 0.5 * math.pi * (nodes + 1.0)
    w = 0.5 * math.pi * weights
    rng = np.random.default_rng(7)
    for _ in range(10):
        p = float(rng.uniform(-3.0, 3.0))
        nu = float(rng.uniform(0.0, 5.0))
        quad = float(np.sum(w * np.exp(-p * x) * np.sin(x) ** nu))
        closed = cauchy_beta_integral(p, nu)
        assert abs(quad - closed) < 1e-8 * closed


def test_cauchy_beta_rejects_divergent_exponent():
    with pytest.raises(DomainError):
        cauchy_beta_integral(1.0, -1.0)


# ---------------------------------------------------------------------------
# theta_4


def test_theta4_partial_sum_oracle():
    # direct partial sum at a comfortable nome
    R = 4.0
    z = 0.3 + 0.2j
    k = np.arange(1, 40)
    want = 1.0 + 2.0 * np.sum(
        (-1.0) ** k * R ** (-k * k) * np.cos(2.0 * k * z)
    )
    got = theta4(z, R)
    assert abs(got - complex(want)) < 1e-13 * abs(want)


def test_theta4_at_origin():
    # theta_4(0, R) = 1 - 2/R + 2/R^4 - 2/R^9 + ...
    got = theta4(0.0, 4.0)
    want = 1.0 - 2.0 * 4.0**-1 + 2.0 * 4.0**-4 - 2.0 * 4.0**-9 + 2.0 * 4.0**-16
    assert got.imag == pytest.approx(0.0, abs=1e-15)
    assert got.real == pytest.approx(want, rel=1e-12)


def test_theta4_quasi_periodicity():
    # theta_4(z + i log R) = -exp(log R - 2iz) theta_4(z)
    R = 5.0
    log_R = math.log(R)
    for z in (0.2, 1.1 - 0.3j, -0.7 + 0.45j):
        lhs = theta4(z + 1j * log_R, R)
        rhs = -cmath.exp(log_R - 2j * z) * theta4(z, R)
        assert abs(lhs - rhs) < 1e-10 * max(abs(lhs), 1.0)


def test_theta4_real_periodicity():
    R = 3.0
    for z in (0.4, 0.9 + 0.2j):
        assert abs(theta4(z + math.pi, R) - theta4(z, R)) < 1e-12


def test_theta4_overflow_guard():
    with pytest.raises(ConvergenceError):
        theta4(0.0 + 40.0j, 2.0)


# ---------------------------------------------------------------------------
# theta_4 logarithmic derivatives


def _theta4_log_deriv_nested(order, z, R, h):
    # central finite differences of log theta_4 along the real direction
    if order == 0:
        return cmath.log(theta4(z, R))
    f = lambda u: _theta4_log_deriv_nested(order - 1, u, R, h)
    return (f(z + h) - f(z - h)) / (2.0 * h)


def _theta4_log_deriv_fd(order, z, R, h=2e-3):
    # one Richardson step lifts the nested O(h^2) scheme to O(h^4)
    d1 = _theta4_log_deriv_nested(order, z, R, h)
    d2 = _theta4_log_deriv_nested(order, z, R, h / 2.0)
    return (4.0 * d2 - d1) / 3.0


@pytest.mark.parametrize("order", [1, 2, 3])
def test_theta4_log_derivative_vs_finite_differences(order):
    R = 4.0
    for z in (0.3, 0.8 + 0.25j, -1.2 + 0.4j):
        series = theta4_log_derivative(order, z, R)
        fd = _theta4_log_deriv_fd(order, z, R)
        assert abs(series - fd) < 1e-6 * max(abs(series), 1.0), (
            f"order={order}, z={z}: {series} vs {fd}"
        )


@pytest.mark.parametrize("z", [np.array(0.1 + 0.2j), np.complex64(0.1 + 0.2j), Fraction(1, 10)])
def test_theta4_log_derivative_takes_any_complex_convertible(z):
    got = theta4_log_derivative(2, z, 4.0)
    assert isinstance(got, complex)
    assert got == theta4_log_derivative(2, complex(z), 4.0)


def test_theta4_log_derivative_strip_guard():
    # the series representation dies at |Im z| = log(R)/2
    R = 4.0
    with pytest.raises(ConvergenceError):
        theta4_log_derivative(1, 1j * (0.5 * math.log(R)), R)


def _strip_point(R, x, fraction):
    """x + i fraction log(R)/2: fraction of the way to the strip edge."""
    return complex(x, fraction * math.log(R) / 2.0)


# (R, z): inside the strip, near its edge (q = e^(2|Im z|)/R up to 0.96),
# and, at R = 50, the point z0 = (i/2) log(z conj(w)/R) of the pair
# z = 48, w = 47.5 e^(0.4i), where the tail bound once overflowed
LAMBERT_REFERENCE_POINTS = [
    (1.5, _strip_point(1.5, 0.3, 0.1)),
    (1.5, _strip_point(1.5, 0.05, 0.9)),
    (1.5, _strip_point(1.5, 3.0, -0.9)),
    (1.5, _strip_point(1.5, 1.1, -0.5)),
    (4.0, _strip_point(4.0, 0.3, 0.1)),
    (4.0, _strip_point(4.0, 1.1, -0.5)),
    (4.0, _strip_point(4.0, -0.1, -0.95)),
    (50.0, _strip_point(50.0, 0.3, 0.1)),
    (50.0, _strip_point(50.0, 3.0, -0.9)),
    (50.0, 0.5j * cmath.log(48.0 * 47.5 * cmath.exp(-0.4j) / 50.0)),
]


def _lambert_gross(order, z, R):
    """sum_j 4 (2j)^(s-1) q^j / (1 - R^-2j), q = e^(2|Im z|)/R: a majorant of
    the moduli of the Lambert series' terms."""
    j = np.arange(1.0, 200_000.0)
    q = math.exp(2.0 * abs(z.imag)) / R
    return float((4.0 * (2.0 * j) ** (order - 1) * q**j / -np.expm1(-2.0 * j * math.log(R))).sum())


@pytest.mark.parametrize("R, z", LAMBERT_REFERENCE_POINTS)
def test_theta4_log_derivative_vs_mpmath_reference(R, z):
    # orders 1-6 against mpmath's numerical derivatives of log theta_4 at 40
    # digits (jtheta, nome 1/R): binary64 within 1e-11 relative, the 34-digit
    # sum of an mpc argument within 1e-28.  Any sum of the series rounds by
    # about eps x its gross magnitude; where the terms cancel (at (1.5,
    # 1.1 - 0.5 i h) the gross is 1e7 |L_3|) that is the bound instead
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        f = lambda u: mp.log(mp.jtheta(4, u, 1 / mp.mpf(R)))
        reference = list(mp.diffs(f, mp.mpc(z), 6))[1:]
    extended = SeriesControl(tolerance=1e-40, max_terms=100_000)
    with mp.workdps(34):  # one call for every order
        sums, _ = lambert_log_derivatives(mp.mpc(z), mp.mpf(R), range(1, 7), extended)
    for order, ref in enumerate(reference, start=1):
        gross = _lambert_gross(order, z, R)
        got = theta4_log_derivative(order, z, R)
        assert abs(got - ref) <= 1e-11 * abs(ref) + 16.0 * 2.0**-52 * gross, order
        with mp.workdps(34):
            got, summed = sums[order - 1]
            assert isinstance(got, mp.mpc)
            assert abs(got) <= summed <= gross, order  # the moduli summed
            assert abs(got - ref) <= 1e-28 * abs(ref) + 16.0 * mp.eps * gross, order


def test_lambert_table_serves_every_order_from_one_table():
    mp = pytest.importorskip("mpmath")
    z, R = 0.4 + 0.3j, 4.0
    orders = [5, 1, 2, 8, 3]
    sums, terms = lambert_log_derivatives(z, R, orders)
    for order, (value, _) in zip(orders, sums):
        alone = theta4_log_derivative(order, z, R)
        assert type(value) is complex
        assert abs(value - alone) <= 1e-15 * abs(alone)
    # an mpc z sums in mpmath: its values are mpc
    with mp.workdps(34):
        [(value, _)], _ = lambert_log_derivatives(mp.mpc(z), R, [2])
        assert isinstance(value, mp.mpc)
    # higher orders need more terms; a call reports the largest j summed
    assert 0 < lambert_log_derivatives(z, R, [1])[1] < terms


def _count_rows(monkeypatch) -> dict:
    """The index blocks of every _lambert_rows call from now on, by dtype."""
    built, rows = {}, special._lambert_rows

    def counted(num, x, y, log_R, j):
        built.setdefault(num.dtype, []).append([int(i) for i in j])
        return rows(num, x, y, log_R, j)

    monkeypatch.setattr(special, "_lambert_rows", counted)
    return built


def test_lambert_table_builds_each_index_once(monkeypatch):
    # within one call every row index j is built once per number type:
    # across the binary64 doubling that order 8 near the strip edge forces
    # (the first window is sized from q and the tolerance, not the order's
    # weight), and at 34 digits, whose
    # rows reach the largest j an order summed; a call keeps no rows, so
    # the next one builds its own
    mp = pytest.importorskip("mpmath")
    built = _count_rows(monkeypatch)

    def assert_once(dtype, last):
        indices = [i for block in built[dtype] for i in block]
        assert indices == list(range(1, last + 1))

    z, R = 0.4 + 0.3j, 4.0
    orders = [5, 1, 8, 2, 7, 3, 6, 4]
    for _ in range(2):
        built.clear()
        lambert_log_derivatives(z, R, orders)
        assert len(built[float]) == 1 and object not in built
    built.clear()
    lambert_log_derivatives(_strip_point(1.5, 3.0, -0.9), 1.5, orders)
    assert len(built[float]) > 1  # doubled
    assert_once(float, sum(map(len, built[float])))

    built.clear()
    with mp.workdps(34):
        _, terms = lambert_log_derivatives(mp.mpc(z), mp.mpf(R), orders,
                                           SeriesControl(tolerance=1e-34))
    assert_once(float, sum(map(len, built[float])))
    assert_once(object, terms)
    assert len(built[object]) == 1


def _bits(x) -> tuple:
    """A value exactly: both parts of a complex in hex (the sign of a zero
    included), an mpc by its own exact parts."""
    if isinstance(x, complex):
        return x.real.hex(), x.imag.hex()
    return x.real.man_exp, x.imag.man_exp


@pytest.mark.parametrize("in_mpmath", [False, True])
@pytest.mark.parametrize("R, z", LAMBERT_REFERENCE_POINTS)
def test_lambert_table_one_stop_pass_is_each_orders_own(R, z, in_mpmath):
    # orders 1-8 in one call (one stop pass) get, bit for bit, the value and
    # gross of a call for each order alone, and the call's terms is the
    # largest of theirs: at the default tolerance, where order 8 makes the
    # binary64 rows double at four of the points (3 - 0.9 i h and 1.1 - 0.5 i h
    # at R = 1.5, -0.1 - 0.95 i h at R = 4, 0.2 + 1.91i at R = 50), and at
    # a far tighter one (1e-300 in binary64, 1e-60 for an mpc z, whose own
    # rows then reach the largest j of any order)
    mp = pytest.importorskip("mpmath")
    orders = list(range(1, 9))
    tight = SeriesControl(tolerance=1e-60 if in_mpmath else 1e-300, max_terms=100_000)
    with mp.workdps(34):
        point = (mp.mpc(z), mp.mpf(R)) if in_mpmath else (z, R)
        for ctrl in (DEFAULT_SERIES, tight):
            alone = [lambert_log_derivatives(*point, [s], ctrl) for s in orders]
            got, terms = lambert_log_derivatives(*point, orders, ctrl)
            assert [(_bits(v), g) for v, g in got] == [(_bits(v), g) for [(v, g)], _ in alone]
            assert terms == max(n for _, n in alone)


def test_lambert_table_terms_grow_with_tolerance():
    counts = [lambert_log_derivatives(0.2 + 0.6j, 4.0, [2], SeriesControl(tolerance=tol))[1]
              for tol in (1e-4, 1e-8, 1e-12, 1e-15)]
    assert counts == sorted(counts) and len(set(counts)) == len(counts)


def test_lambert_table_term_cap():
    # q = R^-0.024 = 0.990 at R = 1.5: 64 terms cannot reach 1e-12
    z = _strip_point(1.5, 0.2, 0.976)
    with pytest.raises(ConvergenceError, match="64-term cap"):
        theta4_log_derivative(1, z, 1.5, SeriesControl(max_terms=64))
    assert math.isfinite(abs(theta4_log_derivative(1, z, 1.5)))


def test_log_derivative_order_must_be_an_integer():
    # order 1.5 once returned 0.6688610044130724j, a value of no derivative
    with pytest.raises(DomainError, match="integers >= 1"):
        theta4_log_derivative(1.5, 0.1j, 4.0)


def test_log_derivatives_of_no_order_are_refused():
    # an empty order list once raised a bare ValueError from min()
    with pytest.raises(DomainError, match="integers >= 1"):
        lambert_log_derivatives(0.1j, 4.0, [])


def test_lambert_table_validation():
    with pytest.raises(DomainError):
        theta4_log_derivative(0, 0.1, 4.0)
    with pytest.raises(DomainError):
        lambert_log_derivatives(0.1, 4.0, [2, 0])
    with pytest.raises(DomainError):
        lambert_log_derivatives(0.1, 1.0, [1])


def test_series_control_validation():
    with pytest.raises(DomainError):
        SeriesControl(tolerance=0.0)
    with pytest.raises(DomainError):
        SeriesControl(max_terms=3)
    # a float cap, even above 16, is refused (math.isqrt once raised a
    # bare TypeError on it in theta4); a numpy integer passes
    with pytest.raises(DomainError, match="integer"):
        SeriesControl(max_terms=4096.5)
    with pytest.raises(DomainError, match="integer"):
        SeriesControl(max_terms=4096.0)
    assert SeriesControl(max_terms=np.int64(64)).max_terms == 64
    assert DEFAULT_SERIES.tolerance == 1e-12
