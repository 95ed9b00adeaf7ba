"""Tests of the weighted annulus quadrature against exact closed forms."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annulus_kernels.errors import DomainError
from annulus_kernels.geometry import AnnulusParams, alpha_index
from annulus_kernels.quadrature import (
    QuadratureSpec,
    _leggauss,
    annulus_integrate,
    annulus_nodes,
    annulus_nodes_endpoint,
)
from annulus_kernels.special import cauchy_beta_integral
from annulus_kernels.verify import SuiteOptions, run_suite


def _moment_closed(j: int, p: AnnulusParams) -> float:
    """int |z|^(2j) omega^(2B-2) dA in closed form (Cauchy Beta integral)."""
    alpha = alpha_index(j, p)
    return (
        2.0
        * math.pi
        * p.radial_scale ** (2.0 * p.B - 1.0)
        * cauchy_beta_integral(-alpha, 2.0 * p.B - 2.0)
    )


def test_spec_validation():
    with pytest.raises(DomainError):
        QuadratureSpec(n_angular=127)
    with pytest.raises(DomainError):
        QuadratureSpec(n_radial=16)
    QuadratureSpec()  # defaults fine


@pytest.mark.parametrize("counts", [{"n_radial": 40.0}, {"n_angular": 128.0}])
def test_spec_node_counts_must_be_integers(counts):
    # n_radial=40.0 once passed, and annulus_nodes then raised a bare
    # "TypeError: deg must be an integer"
    with pytest.raises(DomainError, match="integer"):
        QuadratureSpec(**counts)
    QuadratureSpec(n_angular=np.int64(64), n_radial=np.int32(40))


def test_unweighted_area():
    # e = 0: plain area pi (R^2 - 1)
    p = AnnulusParams(R=3.0, B=2.0)
    spec = QuadratureSpec(weight_exponent=0.0)
    area = annulus_integrate(lambda z: np.ones_like(z, dtype=float), p, spec)
    assert area.real == pytest.approx(math.pi * 8.0, rel=1e-12)
    assert abs(area.imag) < 1e-12


def test_logarithmic_integral():
    # int |z|^(-2) dA = 2 pi log R
    p = AnnulusParams(R=5.0, B=1.0)
    spec = QuadratureSpec(weight_exponent=0.0)
    val = annulus_integrate(lambda z: np.abs(z) ** -2.0, p, spec)
    assert val.real == pytest.approx(2.0 * math.pi * math.log(5.0), rel=1e-12)


def test_angular_orthogonality_exact():
    # trapezoid in theta kills e^(i k theta) exactly for 0 < |k| < n_angular
    p = AnnulusParams(R=4.0, B=2.5)
    for k in (1, 3, 17):
        val = annulus_integrate(lambda z, k=k: (z / np.abs(z)) ** k, p)
        assert abs(val) < 1e-13


@pytest.mark.parametrize("B", [1.0, 1.75, 2.5, 3.0])
@pytest.mark.parametrize("j", [-5, -1, 0, 2, 7])
def test_weighted_power_moment_vs_cauchy_beta(B, j):
    # int |z|^(2j) omega^(2B-2) dA
    #   = 2 pi c^(2B-1) int_0^pi e^(alpha_j zeta) (sin zeta)^(2B-2) dzeta
    # with alpha_j = 2 (j + B) log(R)/pi, which is the Cauchy Beta integral
    # at p = -alpha_j, nu = 2B - 2.
    p = AnnulusParams(R=4.0, B=B)
    val = annulus_integrate(lambda z: np.abs(z) ** (2.0 * j), p)
    alpha = alpha_index(j, p)
    closed = (
        2.0
        * math.pi
        * p.radial_scale ** (2.0 * B - 1.0)
        * cauchy_beta_integral(-alpha, 2.0 * B - 2.0)
    )
    # integer 2B-2 gives an analytic integrand (spectral accuracy); fractional
    # exponents leave endpoint branch points and only algebraic decay, so the
    # tolerance reflects the documented rule, not a bug
    tol = 1e-11 if float(2.0 * B - 2.0).is_integer() else 1e-7
    assert val.real == pytest.approx(closed, rel=tol)
    assert abs(val.imag) < 1e-12 * closed


def test_unit_weight_power_moment_elementary():
    # B = 1 collapses to int |z|^(2j) dA = pi (R^(2j+2) - 1)/(j+1)
    p = AnnulusParams(R=2.0, B=1.0)
    for j in (0, 1, 4, -3):
        val = annulus_integrate(lambda z, j=j: np.abs(z) ** (2.0 * j), p)
        want = math.pi * (2.0 ** (2 * j + 2) - 1.0) / (j + 1.0)
        assert val.real == pytest.approx(want, rel=1e-11)


def test_negative_exponent_rejected():
    # (sin zeta)^e is integrable exactly for e > -1: -1 itself is refused
    p = AnnulusParams(R=4.0, B=0.75)  # 2B - 2 = -0.5, accepted
    with pytest.raises(DomainError):
        annulus_integrate(
            lambda z: np.ones_like(z, dtype=float), p, QuadratureSpec(weight_exponent=-1.0)
        )
    # an explicit nonnegative exponent still works
    spec = QuadratureSpec(weight_exponent=0.0)
    val = annulus_integrate(lambda z: np.ones_like(z, dtype=float), p, spec)
    assert val.real == pytest.approx(math.pi * 15.0, rel=1e-12)
    # and the default e = -0.5 carries the suites that integrate at B < 1
    for suite in ("basis", "gram"):
        report = run_suite(suite, p, SuiteOptions(seed=7))
        assert report.passed, report.to_json_dict()


def test_plain_rule_refuses_negative_exponent():
    # plain Gauss-Legendre weights are 0.75% off the total weight at
    # (4, 0.75) (79.756 against 80.357): the plain rule refuses e < 0 and
    # names the endpoint rule, which gets it right
    p = AnnulusParams(R=4.0, B=0.75)
    for spec in (QuadratureSpec(), QuadratureSpec(weight_exponent=-0.5)):
        with pytest.raises(DomainError, match="annulus_nodes_endpoint"):
            annulus_nodes(p, spec)
    _, w = annulus_nodes_endpoint(p)
    assert w.sum() == pytest.approx(_moment_closed(0, p), rel=1e-12)
    _, w = annulus_nodes(p, QuadratureSpec(weight_exponent=0.0))
    assert w.sum() == pytest.approx(math.pi * 15.0, rel=1e-12)


@pytest.mark.parametrize("R", [1.5, 4.0, 50.0])
def test_negative_exponent_integrates_on_the_endpoint_rule(R):
    # at B = 0.75 the weight (sin zeta)^(-1/2) is unbounded at both ends;
    # the square-root substitution leaves a smooth integrand, where plain
    # Gauss-Legendre would be about 1e-2 off
    p = AnnulusParams(R=R, B=0.75)
    for j in (-3, 0, 2):
        val = annulus_integrate(lambda z, j=j: np.abs(z) ** (2.0 * j), p)
        assert val.real == pytest.approx(_moment_closed(j, p), rel=1e-12)


def test_integrand_receives_node_array():
    p = AnnulusParams(R=4.0, B=2.0)
    seen = {}

    def f(z):
        seen["type"] = type(z)
        seen["shape"] = z.shape
        return np.ones_like(z, dtype=float)

    annulus_integrate(f, p, QuadratureSpec(n_angular=64, n_radial=32))
    assert seen["type"] is np.ndarray
    assert seen["shape"] == (32, 64)


def test_shape_mismatch_rejected():
    p = AnnulusParams(R=4.0, B=2.0)
    with pytest.raises(DomainError):
        annulus_integrate(lambda z: np.float64(1.0), p)


def test_nodes_interior_and_weights_positive():
    p = AnnulusParams(R=4.0, B=2.5)
    z, w = annulus_nodes(p)
    r = np.abs(z)
    assert np.all(r > 1.0) and np.all(r < 4.0)
    assert np.all(w > 0.0)
    assert z.shape == w.shape == (96, 128)


@given(
    j=st.integers(min_value=-6, max_value=6),
    B=st.floats(min_value=1.5, max_value=3.5),
    R=st.floats(min_value=1.5, max_value=9.0),
)
@settings(max_examples=30, deadline=None)
def test_moment_identity_randomized(j, B, R):
    # B >= 1.5 keeps the endpoint weight (sin zeta)^(2B-2) at least C^1, where
    # the default node counts deliver ~1e-7 relative or better
    p = AnnulusParams(R=R, B=B)
    val = annulus_integrate(lambda z: np.abs(z) ** (2.0 * j), p)
    assert abs(val.real - _moment_closed(j, p)) < 1e-6 * _moment_closed(j, p)


def test_endpoint_rule_matches_plain_on_analytic_integrand():
    p = AnnulusParams(R=4.0, B=2.0)

    def f(z):
        return np.abs(z) ** 2.0 + np.real(z)

    z1, w1 = annulus_nodes(p)
    z2, w2 = annulus_nodes_endpoint(p)
    plain = complex(np.sum(w1 * f(z1)))
    endpoint = complex(np.sum(w2 * f(z2)))
    assert endpoint.real == pytest.approx(plain.real, rel=1e-12)


def test_endpoint_rule_shapes_interior_weights():
    p = AnnulusParams(R=4.0, B=2.5)
    spec = QuadratureSpec(n_angular=64, n_radial=33)
    z, w = annulus_nodes_endpoint(p, spec)
    assert z.shape == w.shape == (33, 64)
    r = np.abs(z)
    assert np.all(r > 1.0) and np.all(r < 4.0)
    assert np.all(w > 0.0)


@pytest.mark.parametrize("B", [1.75, 2.3, 2.75])
@pytest.mark.parametrize("j", [-4, 0, 6])
def test_endpoint_rule_accurate_at_fractional_exponent(B, j):
    # the plain rule only reaches ~1e-7 at fractional 2B - 2 (see the moment
    # test above); the square-root substitution restores fast convergence
    p = AnnulusParams(R=4.0, B=B)
    z, w = annulus_nodes_endpoint(p)
    val = complex(np.sum(w * np.abs(z) ** (2.0 * j)))
    assert val.real == pytest.approx(_moment_closed(j, p), rel=1e-10)


def test_endpoint_rule_handles_integrable_singularity():
    # net boundary exponent -1/2: the plain rule converges like 1/n while the
    # endpoint rule resolves the integrable singularity to near rounding
    p = AnnulusParams(R=6.0, B=2.75)
    spec = QuadratureSpec(weight_exponent=0.0)
    c = p.radial_scale

    def f(z):
        zeta = math.pi * np.log(np.abs(z)) / math.log(p.R)
        return np.sin(zeta) ** -0.5

    closed = 2.0 * math.pi * c * cauchy_beta_integral(-2.0 * c, -0.5)
    z, w = annulus_nodes_endpoint(p, spec)
    val = complex(np.sum(w * f(z))).real
    assert val == pytest.approx(closed, rel=1e-9)
    zp, wp = annulus_nodes(p, spec)
    plain = complex(np.sum(wp * f(zp))).real
    assert abs(plain - closed) > 1e3 * abs(val - closed)


@pytest.mark.parametrize("rule", [annulus_nodes, annulus_nodes_endpoint])
def test_rules_return_fresh_arrays(rule):
    # the Gauss-Legendre rule is cached; what a caller gets is its own
    p = AnnulusParams(R=4.0, B=2.5)
    spec = QuadratureSpec(n_angular=16, n_radial=33)
    z, w = rule(p, spec)
    z0, w0 = z.copy(), w.copy()
    z[...] = 0.0
    w[...] = -1.0
    z1, w1 = rule(p, spec)
    np.testing.assert_array_equal(z1, z0)
    np.testing.assert_array_equal(w1, w0)


def test_cached_gauss_legendre_rule_is_read_only():
    x, w = _leggauss(33)
    assert _leggauss(33)[0] is x
    ref_x, ref_w = np.polynomial.legendre.leggauss(33)
    np.testing.assert_array_equal(x, ref_x)
    np.testing.assert_array_equal(w, ref_w)
    with pytest.raises(ValueError):
        x[0] = 0.0
    with pytest.raises(ValueError):
        w[0] = 0.0
