"""Tests of the kernel engine: every closed-form path is checked against the
basis-sum oracle and against the other paths; the conjugation arrangement of
the double sum is pinned by a regression test."""

from __future__ import annotations

import cmath
import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.special as sc
from hypothesis import given, settings
from hypothesis import strategies as st

from annulus_kernels.errors import (
    ConvergenceError,
    DomainError,
    UnsupportedPathError,
)
from annulus_kernels.geometry import AnnulusParams, polar_point
from annulus_kernels.quadrature import QuadratureSpec, annulus_nodes
from annulus_kernels.special import SeriesControl, pochhammer, theta4_log_derivative
from annulus_kernels.basis import admissible_levels, log_basis_norm_sq
from annulus_kernels import kernels
from annulus_kernels.kernels import (
    KERNEL_PATHS,
    kernel_basis_sum_oracle,
    kernel_by_path,
    kernel_jacobi_product_sum,
    kernel_k0_integer_product,
    kernel_km,
    kernel_km_grid,
    kernel_km_theta,
    kernel_limit_R_inf,
    inversion_covariance_residual,
    sigma_kl,
    sigma_theta_path,
    _evaluate,
    _pair,
    _tail_bound,
    _theta,
    _theta_polynomial,
)
from annulus_kernels.verify import sample_pairs

P43 = AnnulusParams(R=4.0, B=3.0)
P42 = AnnulusParams(R=4.0, B=2.0)
Z0 = 1.7 * cmath.exp(0.4j)
W0 = 2.6 * cmath.exp(-1.1j)


def _random_pairs(params, n, seed):
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(n):
        zeta1, zeta2 = rng.uniform(0.15 * math.pi, 0.85 * math.pi, size=2)
        th1, th2 = rng.uniform(0.0, 2.0 * math.pi, size=2)
        pairs.append(
            (complex(polar_point(zeta1, th1, params)), complex(polar_point(zeta2, th2, params)))
        )
    return pairs


# ---------------------------------------------------------------------------
# pair geometry


def test_pair_geometry_on_central_circle():
    r = math.sqrt(P43.R)
    geo = _pair(r * cmath.exp(0.3j), r * cmath.exp(-1.2j), P43)
    assert geo.X == pytest.approx(0.0, abs=1e-12)
    assert geo.Y == pytest.approx(0.0, abs=1e-12)
    assert geo.V == pytest.approx(0.25)


def test_pair_geometry_diagonal():
    z = 1.8 + 0.9j
    geo = _pair(z, z, P43)
    assert geo.t == pytest.approx(abs(z) ** 2 / P43.R)
    assert geo.Y == pytest.approx(geo.X)


def test_pair_geometry_unit_modulus_product():
    # |z||w| = R puts t on the unit circle
    z = 1.6 * cmath.exp(0.7j)
    w = (P43.R / 1.6) * cmath.exp(0.2j)
    geo = _pair(z, w, P43)
    assert abs(geo.t) == pytest.approx(1.0, rel=1e-13)


def test_pair_geometry_is_its_node_in_a_batch():
    nodes = np.array([1.3 + 0.4j, W0, -3.1 + 0.8j])
    batch = _pair(Z0, nodes, P43)
    pair = _pair(Z0, W0, P43)
    assert (batch.X, batch.Y[1, 0], batch.t[1, 0], batch.V[1, 0]) == (pair.X, pair.Y, pair.t, pair.V)


def test_pair_geometry_mu_purely_imaginary(monkeypatch):
    # the oracle's Jacobi parameters are -B - mu_j and -B + mu_j, with
    # mu_j = i (j + B) log(R)/pi purely imaginary over its window j = -J..J
    seen = _calls(monkeypatch, kernels, "jacobi_poly")
    kernel_basis_sum_oracle(0, Z0, W0, P43)
    jac = seen[0][0][0]
    J = (jac.alpha.size - 1) // 2
    mu = -P43.B - jac.alpha
    assert np.all(mu.real == 0.0) and np.all(jac.beta == jac.alpha.conjugate())
    assert mu.imag == pytest.approx((np.arange(-J, J + 1) + P43.B) * math.log(P43.R) / math.pi)


# ---------------------------------------------------------------------------
# sigma series


def test_sigma_conjugation_symmetry():
    for k, l in [(0, 0), (0, 1), (1, 2), (2, 0)]:
        lhs = sigma_kl(k, l, Z0, W0, 2, P43)
        rhs = sigma_kl(l, k, W0, Z0, 2, P43).conjugate()
        assert abs(lhs - rhs) < 1e-12 * max(abs(lhs), 1.0)


def test_sigma_integer_b_matches_elementary_product():
    # after the shift j -> n - B, each Gamma pair is 2 log R [n R^n/(R^(2n)-1)]
    # P_kl(n), the theta path's polynomial; summing that series directly
    # must reproduce sigma_{k,l}, gap polynomials (k != l) included
    p = P42
    B = 2
    geo = _pair(Z0, W0, p)
    for k, l in [(0, 0), (0, 1), (1, 0), (1, 1)]:
        direct = sigma_kl(k, l, Z0, W0, 1, p)
        P = _theta_polynomial(k, l, B, p.log_R)
        total = 0.0 + 0.0j
        for n in range(-80, 81):
            x = abs(n) * p.log_R  # 2 log R [n R^n/(R^(2n)-1)] = x/sinh(x)
            total += (x / math.sinh(x) if n else 1.0) * np.polyval(P[::-1], n) * geo.t**n
        total *= geo.t ** (-B)
        assert abs(direct - total) < 1e-11 * abs(direct), (k, l)


def test_sigma_self_convergence_in_max_terms():
    base = sigma_kl(0, 1, Z0, W0, 1, P43, SeriesControl(tolerance=1e-12))
    big = sigma_kl(
        0, 1, Z0, W0, 1, P43, SeriesControl(tolerance=1e-12, max_terms=8192)
    )
    assert abs(base - big) < 1e-12 * abs(base)


def test_sigma_near_boundary_rejected():
    p = AnnulusParams(R=4.0, B=2.0)
    z = 1.0 + 1e-6  # |z w| barely above 1: q_minus ~ 1
    with pytest.raises(ConvergenceError):
        sigma_kl(0, 0, z, z, 0, p)


def test_sigma_index_validation():
    with pytest.raises(DomainError):
        sigma_kl(2, 0, Z0, W0, 1, P43)


# ---------------------------------------------------------------------------
# the closed form against the ground-truth oracle (the convention pin)


@pytest.mark.parametrize("R,B", [(4.0, 3.0), (6.0, 2.75)])
def test_kernel_matches_basis_sum_oracle(R, B):
    p = AnnulusParams(R=R, B=B)
    for m in admissible_levels(p):
        for z, w in _random_pairs(p, 4, seed=97 + m):
            closed = kernel_km(m, z, w, p).value
            oracle = kernel_basis_sum_oracle(m, z, w, p).value
            assert abs(closed - oracle) < 1e-8 * abs(oracle), (
                f"(R,B,m)=({R},{B},{m}), z={z}, w={w}"
            )


def test_arrangement_pin_regression():
    """Regression pin of the double-sum conventions.

    The sigma_{k,l} term must carry V^l conj(V)^k (not V^k conj(V)^l), and
    the prefactor carries no (-1)^m.  Both alternatives produce a kernel that
    is still Hermitian, so only the oracle distinguishes them; this test
    keeps the resolved convention from silently flipping.
    """
    m = 1
    p = P43
    geo = _pair(Z0, W0, p)
    B = p.B
    pref = (
        (2.0 * math.pi) ** (2.0 * B - 3.0)
        * (2.0 * B - 2.0 * m - 1.0)
        / (p.R**B * math.log(p.R) ** (2.0 * B - 1.0) * math.gamma(2.0 * B - m))
    )
    swapped = 0.0 + 0.0j
    negated = 0.0 + 0.0j
    for l in range(m + 1):
        for k in range(m + 1 - l):
            coeff = pochhammer(1.0 - 2.0 * B + m, k + l) / (
                math.factorial(m - k - l) * math.factorial(k) * math.factorial(l)
            )
            s = sigma_kl(k, l, Z0, W0, m, p)
            swapped += coeff * geo.V**k * np.conj(geo.V) ** l * s
            negated += coeff * geo.V**l * np.conj(geo.V) ** k * s
    swapped *= pref
    negated *= -pref  # the spurious (-1)^m at m = 1
    oracle = kernel_basis_sum_oracle(m, Z0, W0, p).value
    pinned = kernel_km(m, Z0, W0, p).value
    assert abs(pinned - oracle) < 1e-10 * abs(oracle)
    assert abs(swapped - oracle) > 1e-3 * abs(oracle), "swapped arrangement matched"
    assert abs(negated - oracle) > 1e-3 * abs(oracle), "negated prefactor matched"


def test_kernel_hermitian_symmetry():
    for m in (0, 1, 2):
        for z, w in _random_pairs(P43, 5, seed=11 * (m + 1)):
            a = kernel_km(m, z, w, P43).value
            b = kernel_km(m, w, z, P43).value.conjugate()
            assert abs(a - b) < 1e-13 * max(abs(a), 1e-30)


@given(
    rot=st.floats(min_value=0.0, max_value=2.0 * math.pi),
    m=st.integers(min_value=0, max_value=2),
)
@settings(max_examples=25, deadline=None)
def test_kernel_rotation_invariance(rot, m):
    u = cmath.exp(1j * rot)
    a = kernel_km(m, Z0, W0, P43).value
    b = kernel_km(m, u * Z0, u * W0, P43).value
    assert abs(a - b) < 1e-13 * abs(a)


def test_kernel_diagonal_positive():
    grid_zeta = np.linspace(0.1 * math.pi, 0.9 * math.pi, 20)
    grid_theta = np.linspace(0.0, 2.0 * math.pi, 20, endpoint=False)
    for m in (0, 1, 2):
        for zeta in grid_zeta[::4]:
            for theta in grid_theta[::4]:
                z = complex(polar_point(float(zeta), float(theta), P43))
                val = kernel_km(m, z, z, P43).value
                assert val.real > 0.0
                assert abs(val.imag) <= 1e-12 * val.real


def test_kernel_evaluation_diagnostics():
    ev = kernel_km(1, Z0, W0, P43)
    assert ev.path == "closed_form"
    assert ev.terms_used == 5  # the images nu = -2..2
    assert 0.0 <= ev.tail_bound <= 1e-12 * abs(ev.value)


def test_truncation_robustness():
    # halving the tolerance moves the value by less than the reported bound
    loose = kernel_km(1, Z0, W0, P43, SeriesControl(tolerance=2e-10))
    tight = kernel_km(1, Z0, W0, P43, SeriesControl(tolerance=1e-10))
    assert abs(loose.value - tight.value) <= loose.tail_bound + tight.tail_bound


# ---------------------------------------------------------------------------
# m = 0 special forms


def test_m0_reduction_exact():
    # K_0 against its compact single series, written out here:
    # (2 pi)^(2B-3) / (Gamma(2B-1) R^B log(R)^(2B-1))
    #   * sum_j |Gamma(B + i (j+B) log(R)/pi)|^2 (z conj(w)/R)^j,
    # at fractional B; the defect is measured against the summed term
    # magnitudes, the scale of the two sums' rounding
    p = AnnulusParams(R=6.0, B=2.75)
    j = np.arange(-200, 201)
    y = (j + p.B) * math.log(p.R) / math.pi
    pref = (2 * math.pi) ** (2 * p.B - 3) / (
        math.gamma(2 * p.B - 1) * p.R**p.B * math.log(p.R) ** (2 * p.B - 1)
    )
    for z, w in _random_pairs(p, 5, seed=5):
        terms = pref * np.exp(
            2.0 * sc.loggamma(p.B + 1j * y).real + j * np.log(z * np.conj(w) / p.R)
        )
        a = kernel_km(0, z, w, p).value
        assert abs(a - terms.sum()) <= 1e-12 * np.abs(terms).sum()


def test_b1_formula_agreement():
    p = AnnulusParams(R=4.0, B=1.0)
    for z, w in _random_pairs(p, 6, seed=19):
        a = kernel_k0_integer_product(z, w, p)
        b = kernel_km(0, z, w, p).value
        assert abs(a - b) < 1e-10 * abs(b)


def test_b1_hermitian_and_rotation():
    # at unit weight the integer product is the elementary series
    # (1/(pi z conj(w))) sum_j [j/(1 - R^(-2j))] (z conj(w)/R^2)^j
    p = AnnulusParams(R=4.0, B=1.0)
    a = kernel_k0_integer_product(Z0, W0, p)
    b = kernel_k0_integer_product(W0, Z0, p).conjugate()
    assert abs(a - b) < 1e-13 * abs(a)
    u = cmath.exp(0.83j)
    c = kernel_k0_integer_product(u * Z0, u * W0, p)
    assert abs(a - c) < 1e-13 * abs(a)


def test_integer_product_agreement():
    for R, B in [(4.0, 2.0), (9.0, 3.0)]:
        p = AnnulusParams(R=R, B=B)
        for z, w in _random_pairs(p, 4, seed=int(R + B)):
            a = kernel_k0_integer_product(z, w, p)
            b = kernel_km(0, z, w, p).value
            assert abs(a - b) < 1e-10 * abs(b)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("z", [1.025, 3.9])
def test_integer_product_next_to_either_circle(z):
    # next to the inner (outer) circle the series decays slowly; its
    # j-factors are built so that none overflows, and no warning is raised
    ev = kernel_by_path("product_formula", 0, z, z, P42)
    b = kernel_km(0, z, z, P42).value
    assert abs(ev.value - b) < 1e-12 * abs(b)


@pytest.mark.parametrize("budget", [None, 0.0])
def test_integer_product_is_the_theta_path_at_m0(budget):
    # the product formula is the theta series before it is resummed: its
    # value is kernel_km_theta's at m = 0, bit for bit, in binary64 and at
    # 34 digits (the bench's sigma pair at (4, 3))
    z, w = 1.7994 * cmath.exp(-0.0267j), 1.7005
    theta = kernel_km_theta(0, z, w, P43, rounding_rtol=budget)
    assert kernel_k0_integer_product(z, w, P43, rounding_rtol=budget) == theta.value
    ev = kernel_by_path("product_formula", 0, z, w, P43, rounding_rtol=budget)
    assert ev == replace(theta, path="product_formula")


def test_integer_product_rejects_fractional_b():
    with pytest.raises(UnsupportedPathError):
        kernel_k0_integer_product(Z0, W0, AnnulusParams(R=4.0, B=2.5))


@pytest.mark.parametrize("R,B", [(4.0, 1.0), (4.0, 2.0), (9.0, 3.0)])
def test_three_path_agreement(R, B):
    p = AnnulusParams(R=R, B=B)
    for z, w in _random_pairs(p, 5, seed=int(10 * R + B)):
        closed = kernel_km(0, z, w, p).value
        prod = kernel_k0_integer_product(z, w, p)
        theta = kernel_km_theta(0, z, w, p).value
        assert abs(prod - closed) < 1e-9 * abs(closed)
        assert abs(theta - closed) < 1e-9 * abs(closed)


# ---------------------------------------------------------------------------
# basis-sum oracle internals


def test_oracle_reports_tail():
    ev = kernel_basis_sum_oracle(1, Z0, W0, P43)
    assert ev.path == "basis_sum"
    assert ev.tail_bound <= 1e-10 * abs(ev.value)


# ---------------------------------------------------------------------------
# Jacobi-product single series


@pytest.mark.parametrize("m", [0, 1, 2])
def test_jacobi_product_form_w_equals_z(m):
    z = 1.9 * cmath.exp(0.55j)
    a = kernel_jacobi_product_sum(m, z, z, P43)
    b = kernel_km(m, z, z, P43).value
    assert abs(a - b) < 1e-9 * abs(b)
    assert a.imag == pytest.approx(0.0, abs=1e-12 * abs(a))


@pytest.mark.parametrize("m", [1, 2])
def test_jacobi_product_form_off_diagonal(m):
    # w != z distinguishes the conjugation arrangement; part of the pin
    a = kernel_jacobi_product_sum(m, Z0, W0, P43)
    b = kernel_km(m, Z0, W0, P43).value
    assert abs(a - b) < 1e-9 * abs(b)


@pytest.mark.parametrize("case", ["binary64", "extended"])
def test_jacobi_product_is_the_oracle_sum(case):
    # P_m^(a,b)(-x) = (-1)^m P_m^(b,a)(x) makes each Jacobi-product term the
    # oracle's: one sum, bit for bit, in binary64 and at 34 digits
    m, z, w, tol, budget = {
        "binary64": (2, Z0, W0, 1e-12, None), "extended": (1, Z_ESC, W_ESC, 1e-13, 0.0),
    }[case]
    oracle = kernel_basis_sum_oracle(m, z, w, P43, tol, budget)
    assert oracle.precision == case
    assert kernel_jacobi_product_sum(m, z, w, P43, tol, budget) == oracle.value


# ---------------------------------------------------------------------------
# theta path


def test_sigma_theta_b1_is_second_log_derivative():
    # B = 1, k = l = 0: sigma = t^(-1) [1 + (log R/2) L_2(z0)] with the
    # L-series at z0 = (i/2) log t; the direct series must agree
    p = AnnulusParams(R=4.0, B=1.0)
    geo = _pair(Z0, W0, p)
    z0 = 0.5j * cmath.log(geo.t)
    L2 = theta4_log_derivative(2, z0, p.R)
    expected = (1.0 / geo.t) * 2.0 * math.log(p.R) * (
        1.0 / (2.0 * math.log(p.R)) + L2 / 4.0
    )
    got = sigma_theta_path(0, 0, Z0, W0, p)
    assert abs(got - expected) < 1e-12 * abs(expected)
    direct = sigma_kl(0, 0, Z0, W0, 0, p)
    assert abs(got - direct) < 1e-9 * abs(direct)


def test_sigma_theta_matches_series_b2():
    p = P42
    for k, l in [(0, 0), (0, 1), (1, 0), (1, 1)]:
        a = sigma_theta_path(k, l, Z0, W0, p)
        b = sigma_kl(k, l, Z0, W0, 1, p)
        assert abs(a - b) < 1e-9 * abs(b), f"k={k}, l={l}"


def test_sigma_theta_real_on_diagonal_moduli():
    # z conj(w) real positive makes z0 purely imaginary; k = l values are real
    p = P42
    z = 1.9 * cmath.exp(0.8j)
    got = sigma_theta_path(1, 1, z, z, p)
    assert abs(got.imag) < 1e-12 * abs(got)


def test_sigma_theta_rejects_fractional_b():
    with pytest.raises(UnsupportedPathError):
        sigma_theta_path(0, 0, Z0, W0, AnnulusParams(R=4.0, B=2.75))


def test_sigma_theta_level_gap_validation():
    with pytest.raises(DomainError):
        sigma_theta_path(2, 0, Z0, W0, P42)  # B - max = 0


def test_theta_kernel_all_levels():
    p = AnnulusParams(R=9.0, B=3.0)
    for m in admissible_levels(p):
        a = kernel_km_theta(m, Z0, W0, p).value
        b = kernel_km(m, Z0, W0, p).value
        assert abs(a - b) < 1e-9 * abs(b), f"m={m}"


# the pair of decay ratio 0.912 at (50, 2): e^(2j |Im z0|) passes the
# binary64 range at j = 186, long before R^-j underflows
P502 = AnnulusParams(R=50.0, B=2.0)
Z_WIDE, W_WIDE = 48.0, 47.5 * cmath.exp(0.4j)


@pytest.mark.parametrize("m", [0, 1])
def test_theta_path_past_the_exponent_range_of_its_tail(m):
    theta = kernel_km_theta(m, Z_WIDE, W_WIDE, P502)
    closed = kernel_km(m, Z_WIDE, W_WIDE, P502)
    eps = np.finfo(float).eps
    certificates = (
        theta.tail_bound + eps * theta.condition * abs(theta.value)
        + closed.tail_bound + eps * closed.condition * abs(closed.value)
    )
    assert abs(theta.value - closed.value) <= certificates
    assert theta.terms_used > 200  # the series runs past j = 186
    for k in range(m + 1):
        for l in range(m + 1):
            a = sigma_theta_path(k, l, Z_WIDE, W_WIDE, P502)
            b = sigma_kl(k, l, Z_WIDE, W_WIDE, m, P502)
            assert abs(a - b) < 1e-11 * abs(b), (k, l)


def test_theta_terms_used_grows_as_the_tolerance_tightens():
    # terms_used is the largest j of the Lambert series, not a count fixed
    # by B and m; each order is summed to the smaller of the tolerance and
    # eps, so only tolerances below eps move the stop
    counts = [
        kernel_km_theta(1, Z0, W0, P43, SeriesControl(tolerance=tol)).terms_used
        for tol in (1e-16, 1e-20, 1e-24)
    ]
    assert counts[0] < counts[1] < counts[2]


def test_theta_escalating_case_of_the_benchmark():
    # the verify workload's escalating theta case at (4, 3), m = 0, with the
    # theta suite's rounding budget: binary64 cannot certify it, the 34-digit
    # sum must, and its value matches the closed form
    z, w = 2.1036 * cmath.exp(3.1209j), 1.7578
    theta = kernel_km_theta(0, z, w, P43, rounding_rtol=1e-10)
    closed = kernel_km(0, z, w, P43).value
    assert theta.precision == "extended"
    assert abs(theta.value - closed) <= 1e-14 * abs(closed)


EPS = np.finfo(float).eps
# the theta suite's seed-7 pairs (sample_pairs(params, 5, 7 + 808))
THETA_PAIRS_93 = sample_pairs(AnnulusParams(R=9.0, B=3.0), 5, 815)
THETA_PAIRS_43 = sample_pairs(P43, 5, 815)


def test_sigma_theta_path_without_a_budget_is_certified():
    # at (9, 3), pair 0, sigma_00's theta contraction has condition 3.3e4:
    # an uncertified truncation shows as an error far above tol + eps x
    # condition, even without a budget
    p = AnnulusParams(R=9.0, B=3.0)
    z, w = THETA_PAIRS_93[0]
    got = sigma_theta_path(0, 0, z, w, p)
    ref = sigma_kl(0, 0, z, w, 0, p, rounding_rtol=1e-17)

    def sigma_00(e):
        P = _theta_polynomial(0, 0, 3, e.log_R, e.num.pi)
        return P, np.abs(P)

    summed = _theta(SeriesControl(), sigma_00)
    sigma = _evaluate("theta", z, w, p, None, summed)
    assert sigma.value == got and sigma.precision == "binary64" and sigma.condition > 1e4
    assert sigma.tail_bound <= (1e-12 + EPS * sigma.condition) * abs(got)
    assert abs(got - ref) <= (1e-12 + 4 * EPS * sigma.condition) * abs(ref)


def test_theta_kernel_without_a_budget_returns_a_certified_value():
    # at (4, 3), pair 0, the condition is 7e7: without a budget the value
    # is returned, its truncation certified within (tolerance + eps x
    # condition) x |value| and its rounding reported
    z, w = THETA_PAIRS_43[0]
    theta = kernel_km_theta(0, z, w, P43)
    ref = kernel_km(0, z, w, P43, rounding_rtol=0.0).value
    assert theta.precision == "binary64" and theta.condition > 1e4
    assert theta.tail_bound <= (1e-12 + EPS * theta.condition) * abs(theta.value)
    certificate = theta.tail_bound + EPS * theta.condition * abs(theta.value)
    assert abs(theta.value - ref) <= certificate


def test_theta_condition_holds_the_lambert_cancellation():
    # at (4, 3), pair 3, m = 0, binary64 is 2.7e-12 off, and charging each
    # log-derivative at |L_s| alone gives eps x condition 3.5e-13: the
    # condition must hold the cancellation inside each Lambert series
    z, w = THETA_PAIRS_43[3]
    theta = kernel_km_theta(0, z, w, P43)
    ref = kernel_km(0, z, w, P43, rounding_rtol=0.0).value
    assert theta.precision == "binary64"
    assert abs(theta.value - ref) <= EPS * theta.condition * abs(theta.value)


# ---------------------------------------------------------------------------
# limit kernel


def test_limit_kernel_b1_geometric_closed_form():
    # B = 1: (1/pi) sum_(j>=1) j u^(-j-1) = (1/pi) u^(-2) / (1 - 1/u)^2 for x=1/u
    u = Z0 * W0.conjugate()
    x = 1.0 / u
    want = (1.0 / math.pi) * (1.0 / u) * x / (1.0 - x) ** 2
    got = kernel_limit_R_inf(Z0, W0, 1.0)
    assert abs(got - want) < 1e-12 * abs(want)


def test_limit_kernel_decay_at_infinity():
    small = kernel_limit_R_inf(3.0, 3.0, 2.0)
    tiny = kernel_limit_R_inf(6.0, 6.0, 2.0)
    assert abs(tiny) < abs(small)


@pytest.mark.parametrize("B", [1.0, 2.0])
def test_limit_trend_strictly_decreasing(B):
    diffs = []
    for R in (8.0, 16.0, 32.0):
        p = AnnulusParams(R=R, B=B)
        diffs.append(
            abs(kernel_km(0, 1.4, 1.8, p).value - kernel_limit_R_inf(1.4, 1.8, B))
        )
    assert diffs[0] > diffs[1] > diffs[2]


def test_limit_kernel_validation():
    with pytest.raises(DomainError):
        kernel_limit_R_inf(1.4, 1.8, 2.5)
    with pytest.raises(ConvergenceError):
        kernel_limit_R_inf(1.0001, 1.0, 2.0)


# ---------------------------------------------------------------------------
# inversion covariance


def test_inversion_residual_small_all_levels():
    for m in (0, 1, 2):
        for z, w in _random_pairs(P43, 5, seed=41 + m):
            assert inversion_covariance_residual(m, z, w, P43) <= 1e-10


def test_inversion_on_central_circle():
    r = math.sqrt(P43.R)
    z, w = r * cmath.exp(0.6j), r * cmath.exp(-0.6j)
    assert inversion_covariance_residual(1, z, w, P43) <= 1e-10


def test_inversion_rejects_fractional_b():
    with pytest.raises(UnsupportedPathError):
        inversion_covariance_residual(0, Z0, W0, AnnulusParams(R=4.0, B=2.75))


# ---------------------------------------------------------------------------
# cancellation condition and extended-precision escalation


def test_condition_reported_and_extended_path_consistent():
    ev64 = kernel_km(1, Z0, W0, P43)
    assert ev64.precision == "binary64"
    assert ev64.condition >= 1.0
    # forcing escalation at a well-conditioned pair must reproduce the
    # binary64 value far below its rounding floor
    forced = kernel_km(1, Z0, W0, P43, rounding_rtol=0.0)
    assert forced.precision == "extended"
    assert abs(forced.value - ev64.value) <= 1e-12 * abs(forced.value)


def test_escalation_triggers_near_kernel_zero():
    # this pair sits near an off-diagonal zero of K_0, where the j-series
    # cancels by ~5e4; its image sum does not (condition ~15), so a budget
    # below eps x that condition is what makes the evaluation escalate
    z = 2.1839776686491716 + 2.210783326982569j
    w = 1.206368491106347 - 2.29626326631313j
    lax = kernel_km(0, z, w, P43)
    assert lax.precision == "binary64"
    assert lax.condition < 1e2
    budget = 0.5 * lax.condition * np.finfo(float).eps
    assert kernel_km(0, z, w, P43, rounding_rtol=2.0 * budget).precision == "binary64"
    tight = kernel_km(0, z, w, P43, rounding_rtol=budget)
    assert tight.precision == "extended"
    # the binary64 value is correct to roughly eps * condition
    assert abs(lax.value - tight.value) <= 5.0 * lax.condition * 2.3e-16 * abs(
        tight.value
    )


# the pair of the thin annulus at which the j-series cancels by 1.8e15
# (the first of verify.sample_pairs(AnnulusParams(R=1.5, B=2), 6, 11)), and
# a pair at (1.2, 3) where it cancels by 2.3e36; each reference is the direct
# j-sum over |j| <= 3000 at 120 digits
THIN_CASES = [
    (AnnulusParams(R=1.5, B=2.0), -0.5738732889456358 - 0.9410216838735364j,
     -0.19389937254346687 + 1.209044364782056j,
     3.0227279790248593e-13 - 6.871278239954183e-14j),
    (AnnulusParams(R=1.2, B=3.0), polar_point(0.4 * math.pi, 0.3, AnnulusParams(R=1.2, B=3.0)),
     polar_point(0.6 * math.pi, 2.0, AnnulusParams(R=1.2, B=3.0)),
     9.968720850686042e-31 - 2.4417279338588582e-30j),
]


@pytest.mark.parametrize("params, z, w, reference", THIN_CASES, ids=["R1.5-B2", "R1.2-B3"])
def test_thin_annulus_kernel_within_its_certificate(params, z, w, reference):
    ev = kernel_km(0, z, w, params)
    assert ev.precision == "binary64"
    eps = np.finfo(float).eps
    allowed = ev.tail_bound + 32.0 * eps * ev.condition * abs(ev.value)
    assert abs(ev.value - reference) <= allowed
    # and the certificate leaves the value twelve digits
    assert allowed <= 1e-12 * abs(reference)


# the certificate omits the rounding of the pair coordinates, which cot
# amplifies next to the circles: at R = 1.02, |d log K / d log t| = 1/c = 159
# leaves m = 0 pairs 1 and 3 off by 1.7 and 1.1 certificates
_COORDINATE_ROUNDING = pytest.mark.xfail(
    reason="certificate omits the rounding of t, amplified 1/c = 159 at R = 1.02"
)


@pytest.mark.parametrize("B, m, i", [
    *((2.0, 1, i) for i in range(4)),
    (1.0, 0, 0),
    pytest.param(1.0, 0, 1, marks=_COORDINATE_ROUNDING),
    (1.0, 0, 2),
    pytest.param(1.0, 0, 3, marks=_COORDINATE_ROUNDING),
])
# the image sum's outer terms overflow at R = 1.02 (ROADMAP defect 8)
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_thinnest_annulus_refuses_or_holds_its_certificate(B, m, i):
    # at R = 1.02 the image sum overflows binary64 at m = 1 and returns at
    # m = 0; either way a pair, and its node in a row, is a value within its
    # certificate of the value forced to 34 digits, or a ConvergenceError
    p = AnnulusParams(R=1.02, B=B)
    pairs = sample_pairs(p, 4, 7)

    def refuses_or_holds(evaluate, z, w):
        try:
            value = evaluate()
        except ConvergenceError:
            return
        ev = kernel_km(m, z, w, p)
        ref = kernel_km(m, z, w, p, rounding_rtol=0.0).value
        assert abs(value - ref) <= ev.tail_bound + EPS * ev.condition * abs(ev.value)

    z, w = pairs[i]
    refuses_or_holds(lambda: kernel_km(m, z, w, p).value, z, w)
    z0, row = pairs[0][0], np.array([v for _, v in pairs])
    refuses_or_holds(lambda: kernel_km_grid(m, z0, row, p)[i], z0, complex(row[i]))


def test_extended_sum_without_a_digit_is_refused():
    # the oracle's j-series at the (1.2, 3) pair cancels by 2.3e36, past the
    # 34 digits of its extended re-evaluation, which must raise rather than
    # return a value 12.7 times off
    params, z, w, _ = THIN_CASES[1]
    with pytest.raises(ConvergenceError, match="34-digit"):
        kernel_basis_sum_oracle(0, z, w, params, rounding_rtol=1e-12)


def test_oracle_window_with_an_edge_at_j_plus_b_zero():
    # J = B = 3 puts the edge j = -J at j + B = 0, where the growth ratio of
    # the tail bound is unbounded: the bound is infinite, not a division error
    tail = _tail_bound(np.array([1e-3, 1e-3]), np.array([0.2, 0.3]), 5.0, shift=3.0, J=3)
    assert tail == math.inf


@pytest.mark.parametrize("pair", sample_pairs(AnnulusParams(R=1.2, B=3.0), 5, 815)[:2])
@pytest.mark.parametrize("path", ["kernel_km_theta", "sigma_theta_path"])
def test_theta_path_refuses_a_34_digit_sum_without_a_digit(path, pair):
    # the theta suite's first pairs at (1.2, 3): the 34-digit theta
    # contraction's own rounding, mp.eps x condition, is 3.3e-3 at the first
    # pair and 2.6e-2 at the second, far past the budget; unchecked, the
    # kernel came back 1.15 and 7.4e32 relative off, labelled extended
    z, w = pair
    p = AnnulusParams(R=1.2, B=3.0)
    with pytest.raises(ConvergenceError, match="34-digit"):
        if path == "kernel_km_theta":
            kernel_km_theta(0, z, w, p, rounding_rtol=1e-10)
        else:
            sigma_theta_path(0, 0, z, w, p, rounding_rtol=1e-10)


Z_ESC = 1.8 * cmath.exp(0.4j)
W_ESC = 2.2 * cmath.exp(-0.3j)


FORCED_PATHS = {
    "kernel_km m=0": lambda r: kernel_km(0, Z_ESC, W_ESC, P43, rounding_rtol=r),
    "kernel_km m=2": lambda r: kernel_km(2, Z_ESC, W_ESC, P43, rounding_rtol=r),
    "basis_sum_oracle": lambda r: kernel_basis_sum_oracle(
        1, Z_ESC, W_ESC, P43, tol=1e-13, rounding_rtol=r
    ),
    "jacobi_product_sum": lambda r: kernel_jacobi_product_sum(
        1, Z_ESC, W_ESC, P43, tol=1e-13, rounding_rtol=r
    ),
    "kernel_km_theta": lambda r: kernel_km_theta(1, Z_ESC, W_ESC, P43, rounding_rtol=r),
    "sigma_kl": lambda r: sigma_kl(0, 1, Z_ESC, W_ESC, 1, P43, rounding_rtol=r),
    "sigma_theta_path": lambda r: sigma_theta_path(
        0, 1, Z_ESC, W_ESC, P43, rounding_rtol=r
    ),
    "k0_integer_product": lambda r: kernel_k0_integer_product(
        Z_ESC, W_ESC, P42, rounding_rtol=r
    ),
}


@pytest.mark.parametrize("path", list(FORCED_PATHS))
def test_forced_escalation_matches_binary64(path):
    # a zero rounding budget forces every path onto its extended-precision
    # evaluation; at this well-conditioned pair it must reproduce binary64
    plain, forced = FORCED_PATHS[path](None), FORCED_PATHS[path](0.0)
    if hasattr(forced, "precision"):
        assert plain.precision == "binary64"
        assert forced.precision == "extended"
        plain, forced = plain.value, forced.value
    assert abs(forced - plain) <= 1e-12 * abs(forced)


def _calls(monkeypatch, owner, name: str) -> list:
    """(arguments, result) of every call of owner.name from now on."""
    seen, real = [], getattr(owner, name)

    def counted(*args):
        seen.append((args, real(*args)))
        return seen[-1][1]

    monkeypatch.setattr(owner, name, counted)
    return seen


@pytest.mark.parametrize("budget, precision", [(None, "binary64"), (0.0, "extended")])
@pytest.mark.parametrize("path", list(FORCED_PATHS))
def test_every_evaluation_is_one_driver_call(monkeypatch, path, budget, precision):
    # each path builds its pair, sums and escalates in exactly one call of
    # the one driver, at either precision
    seen = _calls(monkeypatch, kernels, "_evaluate")
    FORCED_PATHS[path](budget)
    assert [ev.precision for _, ev in seen] == [precision]


def test_grid_and_budgeted_escalations_are_one_driver_call_each(monkeypatch):
    # a node row, and at (4, 3) two pairs whose rounding exceeds the budget
    # they are given: the closed form near an off-diagonal zero of K_0, and
    # the theta contraction of the theta suite's first pair (condition 7e7)
    seen = _calls(monkeypatch, kernels, "_evaluate")
    kernel_km_grid(1, Z0, np.array([1.3 + 0.4j, 2.5 - 1.0j, -3.1 + 0.8j]), P43)
    assert len(seen) == 1 and seen[0][1].value.shape == (3,)
    z, w = 2.1839776686491716 + 2.210783326982569j, 1.206368491106347 - 2.29626326631313j
    assert kernel_km(0, z, w, P43, rounding_rtol=1e-15) is seen[1][1]
    z, w = THETA_PAIRS_43[0]
    assert kernel_km_theta(0, z, w, P43, rounding_rtol=1e-10) is seen[2][1]
    assert [ev.precision for _, ev in seen] == ["binary64", "extended", "extended"]


def _theta_builds(monkeypatch) -> tuple[list, list]:
    """The (k, l) of every P_kl built and the orders of every Lambert stop
    pass from now on, with the theta path's caches emptied first."""
    kernels._theta_coefficients.cache_clear()
    kernels._theta_level.cache_clear()
    built = _calls(monkeypatch, kernels, "_theta_polynomial")
    stops = _calls(monkeypatch, kernels.LambertTable, "_stop")
    return built, stops


@pytest.mark.parametrize("m", [0, 1, 2])
def test_theta_kernel_builds_each_polynomial_once(monkeypatch, m):
    # each of the level's (m+1)(m+2)/2 polynomials P_kl is built once per
    # annulus and number type, however many pairs are evaluated; each sum
    # (binary64, and 34-digit when a zero budget escalates) asks its Lambert
    # table for every order in one stop pass; the cached arrays are read-only
    level = [(k, l) for k in range(m + 1) for l in range(m + 1 - k)]
    for budget, sums in ((None, 1), (0.0, 2)):
        built, stops = _theta_builds(monkeypatch)
        for z, w in THETA_PAIRS_43[:2]:
            assert kernel_km_theta(m, z, w, P43, rounding_rtol=budget).precision == (
                "binary64" if budget is None else "extended")
        assert sorted(args[:2] for args, _ in built) == sorted(level * sums)
        assert len(stops) == 2 * sums
        # the orders p + 2 of P's nonzero coefficients, up to P_00's degree 2B - 2
        assert all({2, 6} <= set(args[1].tolist()) <= set(range(2, 7)) for args, _ in stops)
        monkeypatch.undo()
    _, terms = kernels._theta_level(m, 3, kernels._BINARY64, P43.R, P43.B, P43.log_R)
    assert all(not x.flags.writeable for *_, p, moduli in terms for x in (p, moduli))


def test_sigma_theta_and_product_formula_build_one_polynomial(monkeypatch):
    # sigma_theta_path contracts P_kl, and the product formula is the
    # theta path's P_00 contraction at m = 0: each P_kl is built once per
    # annulus and number type, shared by both, with one stop pass per sum
    built, stops = _theta_builds(monkeypatch)
    for _ in range(2):
        sigma_theta_path(0, 1, Z0, W0, P43)
        kernel_k0_integer_product(Z0, W0, P43)
    assert [args[:2] for args, _ in built] == [(0, 1), (0, 0)]
    assert len(stops) == 4
    P, moduli = kernels._theta_coefficients(0, 1, 3, P43.log_R, kernels._BINARY64)
    assert len(built) == 2 and not P.flags.writeable and not moduli.flags.writeable


@pytest.mark.parametrize("budget", [None, 0.0])
def test_j_series_window_stays_within_max_terms(budget):
    # ctrl.max_terms = 24 caps the j-window at J = 11, below its predicted
    # 29 binary64 and 25 34-digit terms, and the sum certifies there
    ctrl = SeriesControl(max_terms=24)
    ev = kernel_by_path("basis_sum", 0, 7.0, 7.0j, P502, ctrl, rounding_rtol=budget)
    assert ev.terms_used == 23
    assert ev.precision == ("binary64" if budget is None else "extended")


@pytest.mark.parametrize("budget", [None, 0.0])
def test_j_series_sums_up_to_its_term_cap(budget):
    # at (4, 3), sample pair 3, m = 0 needs 179 terms at tolerance 1e-12:
    # the window reaches (max_terms - 1) // 2 on each side, so 200 terms
    # (J = 99) sum it and 150 (J = 74) refuse it
    z, w = sample_pairs(P43, 6, 11)[3]
    ctrl = SeriesControl(tolerance=1e-12, max_terms=200)
    ev = kernel_by_path("basis_sum", 0, z, w, P43, ctrl, rounding_rtol=budget)
    assert ev.terms_used <= 199 and ev.tail_bound <= 1e-12 * abs(ev.value)
    with pytest.raises(ConvergenceError, match="within 150 terms"):
        kernel_by_path("basis_sum", 0, z, w, P43, replace(ctrl, max_terms=150), budget)


def _term_windows(monkeypatch) -> list:
    """The index array of every j-series term evaluation from now on."""
    windows, real = [], kernels._sum_window

    def recorded(terms, *args):
        def evaluate(j):
            windows.append(j)
            return terms(j)

        return real(evaluate, *args)

    monkeypatch.setattr(kernels, "_sum_window", recorded)
    return windows


J_SERIES_CELLS = {
    "R4-B3": AnnulusParams(R=4.0, B=3.0),
    "R6-B2.75": AnnulusParams(R=6.0, B=2.75),
    "R50-B2": P502,
}


@pytest.mark.parametrize("budget", [None, 0.0])
@pytest.mark.parametrize("cell", list(J_SERIES_CELLS))
def test_j_series_evaluates_each_index_once(monkeypatch, cell, budget):
    # the window is predicted, then grown by its own tail bound: at each
    # precision the evaluated indices are -J..J, each once, and the
    # returned precision's are its terms; binary64 at (4, 3) takes one pass
    p = J_SERIES_CELLS[cell]
    windows = _term_windows(monkeypatch)
    for m in admissible_levels(p):
        for z, w in sample_pairs(p, 4, 7):
            windows.clear()
            ev = kernel_basis_sum_oracle(m, z, w, p, tol=1e-12, rounding_rtol=budget)
            for dtype, precision in ((float, "binary64"), (object, "extended")):
                passes = [j for j in windows if j.dtype == dtype]
                assert bool(passes) == (budget == 0.0 or precision == "binary64")
                if passes:
                    indices = sorted(np.concatenate(passes).astype(int))
                    J = len(indices) // 2
                    assert indices == list(range(-J, J + 1))
                    if ev.precision == precision:
                        assert len(indices) == ev.terms_used
            if cell == "R4-B3" and budget is None:
                assert len(windows) == 1


# binary64 oracle values at (4, 3) and (6, 2.75) miss their certificates
# by up to 2.5 and 4.1 on this sample: eps x condition does not charge the
# rounding of each term's log-Gamma and power
_ORACLE_TERM_ROUNDING = pytest.mark.xfail(
    strict=True, reason="ROADMAP defect 7: the oracle's certificate omits its terms' rounding"
)


@pytest.mark.parametrize("cell, budget", [
    *((cell, 0.0) for cell in J_SERIES_CELLS),
    pytest.param("R4-B3", None, marks=_ORACLE_TERM_ROUNDING),
    pytest.param("R6-B2.75", None, marks=_ORACLE_TERM_ROUNDING),
    ("R50-B2", None),
])
def test_j_series_values_hold_their_certificates(cell, budget):
    # each oracle value lies within the summed certificates (tail + eps x
    # condition x |K|) of itself and kernel_km at the same budget, plus the
    # binary64 rounding of the oracle's constant 1/||phi_0||^2, which serves
    # the 34-digit sum as well: eps (1 + |log ||phi_0||^2|) of |K|, up to
    # 18 eps at (50, 2)
    p = J_SERIES_CELLS[cell]
    for m in admissible_levels(p):
        constant = EPS * (1.0 + abs(log_basis_norm_sq(0, m, p)))
        for z, w in sample_pairs(p, 4, 7):
            oracle = kernel_basis_sum_oracle(m, z, w, p, tol=1e-12, rounding_rtol=budget)
            closed = kernel_km(m, z, w, p, rounding_rtol=budget)
            allowed = constant * abs(oracle.value) + sum(
                ev.tail_bound + EPS * ev.condition * abs(ev.value) for ev in (oracle, closed))
            assert abs(oracle.value - closed.value) <= allowed, (m, z, w)


# ---------------------------------------------------------------------------
# vectorized grid evaluation


@pytest.mark.parametrize("m", [0, 1, 2])
def test_grid_matches_pointwise(m):
    nodes = np.array([1.3 + 0.4j, 2.5 - 1.0j, -3.1 + 0.8j, 0.9 - 1.4j])
    grid = kernel_km_grid(m, Z0, nodes, P43)
    for i, w in enumerate(nodes):
        ref = kernel_km(m, Z0, complex(w), P43).value
        # the phase cancellation across the t-powers can leave a small value
        # relative to the summed magnitudes, so compare at 1e-10 relative
        assert abs(grid[i] - ref) < 1e-10 * abs(ref)


def test_grid_matches_pointwise_on_a_thin_annulus_row():
    p = AnnulusParams(R=1.5, B=2.0)
    row = annulus_nodes(p, QuadratureSpec(n_angular=32, n_radial=32))[0].ravel()
    z = polar_point(0.325 * math.pi, 0.7, p)
    grid = kernel_km_grid(0, z, row, p)
    ref = np.array([kernel_km(0, z, complex(w), p).value for w in row])
    assert np.all(np.abs(grid - ref) <= 1e-12 * np.abs(ref))


@pytest.mark.parametrize("R,B", [(4.0, 3.0), (6.0, 2.75), (50.0, 2.0), (1.5, 2.0)])
def test_pointwise_is_its_grid_node(R, B):
    # kernel_km and kernel_km_grid share one driver and one pair geometry,
    # so every node of a row is its pointwise value within that value's
    # certificate (truncation plus eps x condition rounding)
    p = AnnulusParams(R=R, B=B)
    row = annulus_nodes(p, QuadratureSpec(n_angular=32, n_radial=32))[0].ravel()
    eps = np.finfo(float).eps
    for zeta in (0.325 * math.pi, 0.675 * math.pi):
        z = polar_point(zeta, 0.7, p)
        for m in admissible_levels(p):
            grid = kernel_km_grid(m, z, row, p)
            for i, w in enumerate(row):
                ev = kernel_km(m, z, complex(w), p)
                certificate = ev.tail_bound + eps * ev.condition * abs(ev.value)
                assert abs(grid[i] - ev.value) <= certificate, (m, zeta, i)


def test_grid_preserves_shape():
    nodes = np.full((3, 5), 2.0 + 0.5j, dtype=complex)
    out = kernel_km_grid(0, Z0, nodes, P43)
    assert out.shape == (3, 5)
    assert np.allclose(out, out[0, 0])


@pytest.mark.parametrize("shape", [(0,), (0, 3)])
def test_grid_of_no_node_is_empty(shape):
    # no pair to sum: an empty complex array of the nodes' shape, and the
    # fixed point is still checked
    out = kernel_km_grid(0, Z0, np.zeros(shape, dtype=complex), P43)
    assert out.shape == shape and out.dtype == complex
    with pytest.raises(DomainError):
        kernel_km_grid(0, 5.0, np.zeros(shape, dtype=complex), P43)


def _closed_form_outputs(p, pairs, nodes):
    """Every closed-form output at p, exactly: kernel_km without a budget,
    with 1e-10 and escalated (budget 0), sigma_kl and kernel_km_grid."""
    out = []
    for m in admissible_levels(p):
        for z, w in pairs:
            for budget in (None, 1e-10, 0.0):
                ev = kernel_km(m, z, w, p, rounding_rtol=budget)
                out.append((ev.value, ev.terms_used, ev.tail_bound, ev.condition, ev.precision))
            out += [sigma_kl(m, 0, z, w, m, p), sigma_kl(0, m, z, w, m, p)]
        out.append(kernel_km_grid(m, pairs[0][0], nodes, p).tobytes())
    return repr(out)


@pytest.mark.parametrize("R,B", [(4.0, 3.0), (6.0, 2.75), (50.0, 2.0), (1.5, 2.0)])
def test_closed_form_plans_are_pure(R, B):
    # a plan (kernels._plan) holds only what does not depend on the pair:
    # plans built afresh and warm plans give the same outputs, bit for bit
    p = AnnulusParams(R=R, B=B)
    pairs = sample_pairs(p, 3, 7)
    nodes = np.array([w for _, w in pairs])
    first = _closed_form_outputs(p, pairs, nodes)
    kernels._plan.cache_clear()
    assert _closed_form_outputs(p, pairs, nodes) == first  # cold
    assert _closed_form_outputs(p, pairs, nodes) == first  # warm


def test_warm_plans_keep_the_stop_rule():
    # plans are keyed by ctrl: a warm default plan lends its image counts
    # neither to a smaller budget nor to a tighter tolerance
    p = AnnulusParams(R=50.0, B=2.0)
    z, w = sample_pairs(p, 1, 7)[0]
    default = kernel_km(1, z, w, p)
    assert default.terms_used == 17
    with pytest.raises(ConvergenceError, match="17 images needed"):
        kernel_km(1, z, w, p, SeriesControl(max_terms=16))
    assert kernel_km(1, z, w, p, SeriesControl(tolerance=1e-20)).terms_used > 17


# both grids' rounding, seen at most 1e-15 x max|K| on these rows
GRID_ROUNDING = 16 * np.finfo(float).eps


@pytest.mark.parametrize("R,B", [(4.0, 3.0), (6.0, 2.75), (50.0, 2.0), (1.5, 2.0)])
def test_grid_truncation_within_tolerance_of_max(R, B):
    # the default grid's truncation is certified per node to tolerance x |K|
    # plus eps x the node's summed term magnitudes, within tolerance x max|K|
    p = AnnulusParams(R=R, B=B)
    row = annulus_nodes(p, QuadratureSpec(n_angular=32, n_radial=32))[0].ravel()
    for zeta in (0.325 * math.pi, 0.675 * math.pi):
        z = polar_point(zeta, 0.7, p)
        for m in admissible_levels(p):
            got = kernel_km_grid(m, z, row, p)
            ref = kernel_km_grid(m, z, row, p, SeriesControl(tolerance=1e-15))
            scale = np.abs(ref).max()
            assert np.abs(got - ref).max() <= (1e-12 + GRID_ROUNDING) * scale


@pytest.mark.parametrize("R,B", [(4.0, 3.0), (6.0, 2.75), (50.0, 2.0), (1.5, 2.0)])
def test_grid_blocks_match_one_block(R, B, monkeypatch):
    # the image sum's row blocks change no window and no stop test: rows cut
    # into blocks of 64 node-images (1021 nodes, no multiple of any block
    # size) agree with the whole row summed as one block to the rounding
    # numpy's vector loops make by position, and sum as many images
    p = AnnulusParams(R=R, B=B)
    row = annulus_nodes(p, QuadratureSpec(n_angular=32, n_radial=32))[0].ravel()
    z = polar_point(0.325 * math.pi, 0.7, p)
    for nodes in (row, row[:-3]):
        for m in admissible_levels(p):
            whole = kernel_km(m, z, nodes, p)
            pointwise = [kernel_km(m, z, w, p).terms_used for w in nodes[::97]]
            with monkeypatch.context() as patch:
                patch.setattr(kernels, "_BLOCK", 64)
                blocks = kernels._row_blocks(nodes.size, whole.terms_used)
                assert len(blocks) > 1 and blocks[-1].stop >= nodes.size
                cut = kernel_km(m, z, nodes, p)
                grid = kernel_km_grid(m, z, nodes, p)
                assert [kernel_km(m, z, w, p).terms_used for w in nodes[::97]] == pointwise
            assert cut.terms_used == whole.terms_used
            scale = np.abs(whole.value).max()
            assert np.abs(cut.value - whole.value).max() <= 4 * np.finfo(float).eps * scale
            assert np.array_equal(grid, cut.value)


def test_grid_chunks_match_separate_halves():
    # each half of 1280 nodes is evaluated alone, with its own image count
    # (one set of images serves a whole node array, cut into row blocks or
    # not), so the two agree to both certificates
    nodes = annulus_nodes(P43, QuadratureSpec(n_angular=32, n_radial=40))[0].ravel()
    assert nodes.size > 1024
    for m in admissible_levels(P43):
        whole = kernel_km_grid(m, Z0, nodes, P43)
        halves = np.concatenate(
            [kernel_km_grid(m, Z0, half, P43) for half in np.split(nodes, 2)]
        )
        scale = np.abs(whole).max()
        assert np.abs(whole - halves).max() <= (2e-12 + GRID_ROUNDING) * scale


def test_grid_refuses_boundary_node_like_pointwise():
    # |z||w|/R^2 = 0.9995: q+ lies within BOUNDARY_MARGIN (1e-3) of 1, and
    # one such node refuses the node set with the pointwise message
    z = w = 4.0 * math.sqrt(0.9995)
    with pytest.raises(ConvergenceError, match="too close to the boundary"):
        kernel_km(0, z, w, P43)
    with pytest.raises(ConvergenceError, match="too close to the boundary"):
        kernel_km_grid(0, z, np.array([W0, w]), P43)
    assert kernel_km_grid(0, z, np.array([W0]), P43).shape == (1,)


# ---------------------------------------------------------------------------
# path dispatch


def test_dispatch_known_paths():
    assert kernel_by_path("closed_form", 1, Z0, W0, P43).path == "closed_form"
    assert kernel_by_path("basis_sum", 1, Z0, W0, P43).path == "basis_sum"
    assert kernel_by_path("theta", 1, Z0, W0, P42).path == "theta"
    ev = kernel_by_path("product_formula", 0, Z0, W0, P42)
    assert ev.path == "product_formula"
    ref = kernel_km(0, Z0, W0, P42).value
    assert abs(ev.value - ref) < 1e-9 * abs(ref)
    # the product path reports the theta path's Lambert terms and tail bound
    assert ev.terms_used > 0
    assert ev.tail_bound <= SeriesControl().tolerance * abs(ev.value)


def test_basis_sum_path_sums_to_the_requested_tolerance():
    # ctrl is forwarded unchanged: at (4, 3), m = 1, z = w = 2, the binary64
    # window sized for eps, 85 terms, leaves a tail of 2.3e-18 |K|, and
    # 1e-20 takes 99
    ev = kernel_by_path("basis_sum", 1, 2.0, 2.0, P43, SeriesControl(tolerance=1e-20))
    assert ev.tail_bound <= 1e-20 * abs(ev.value)


def test_dispatch_rejections():
    with pytest.raises(DomainError):
        kernel_by_path("magic", 0, Z0, W0, P43)
    with pytest.raises(UnsupportedPathError):
        kernel_by_path("product_formula", 1, Z0, W0, P42)
    with pytest.raises(UnsupportedPathError):
        kernel_by_path("theta", 0, Z0, W0, AnnulusParams(R=4.0, B=2.75))
    assert set(KERNEL_PATHS) == {"closed_form", "basis_sum", "theta", "product_formula"}
