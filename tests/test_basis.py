"""Tests of the Landau-level eigenbasis: closed-form norms against the
quadrature oracle, the eigenvalue equations by finite differences, exact
Sturm-Liouville residuals, and the polyanalyticity order."""

from __future__ import annotations

import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from annulus_kernels.errors import DomainError, InadmissibleLevelError
from annulus_kernels.geometry import (
    AnnulusParams,
    alpha_index,
    poincare_density,
    poincare_density_dz,
    polar_point,
    xi_coordinate,
)
from annulus_kernels.quadrature import annulus_integrate
from annulus_kernels.special import (
    JacobiParams,
    jacobi_poly,
    pochhammer,
    routh_coefficients,
    routh_leading_coefficient,
)
from annulus_kernels.basis import (
    admissible_levels,
    basis_norm_sq,
    basis_phi,
    basis_phi_nodes,
    cr_apply,
    invariant_laplacian_apply,
    landau_level_eigenvalue,
    log_basis_norm_sq,
    require_admissible,
    sturm_liouville_apply,
)

P43 = AnnulusParams(R=4.0, B=3.0)


# ---------------------------------------------------------------------------
# levels and eigenvalues


def test_admissible_levels_examples():
    assert admissible_levels(AnnulusParams(R=4.0, B=1.0)) == [0]
    assert admissible_levels(P43) == [0, 1, 2]
    # m = 2 sits exactly at 2(B-2)-1 = 0 and is excluded by the margin
    assert admissible_levels(AnnulusParams(R=4.0, B=2.5)) == [0, 1]


def test_eigenvalue_examples():
    assert landau_level_eigenvalue(0, P43) == 0.0
    assert landau_level_eigenvalue(1, P43) == -4.0
    assert landau_level_eigenvalue(2, P43) == -6.0


@pytest.mark.parametrize("B", [1.0, 2.0, 3.0, 5.25])
def test_eigenvalue_ladder_strictly_decreasing(B):
    p = AnnulusParams(R=4.0, B=B)
    lams = [landau_level_eigenvalue(m, p) for m in admissible_levels(p)]
    assert all(b < a for a, b in zip(lams, lams[1:]))


def test_inadmissible_level_rejected():
    with pytest.raises(InadmissibleLevelError):
        landau_level_eigenvalue(3, P43)
    with pytest.raises(InadmissibleLevelError):
        require_admissible(-1, P43)
    with pytest.raises(InadmissibleLevelError):
        basis_phi(0, 2, 2.0, AnnulusParams(R=4.0, B=2.5))


# ---------------------------------------------------------------------------
# basis functions


def test_phi_level_zero_is_power():
    for j in (-3, 0, 2):
        for z in (1.5 + 0.5j, -2.0 + 1.0j):
            assert basis_phi(j, 0, z, P43) == pytest.approx(z**j, rel=1e-13)
    assert basis_phi(0, 0, 2.5j, P43) == pytest.approx(1.0)


@given(
    j=st.integers(min_value=-6, max_value=6),
    m=st.integers(min_value=0, max_value=2),
    zeta=st.floats(min_value=0.1, max_value=0.9),
    theta=st.floats(min_value=0.0, max_value=2.0 * math.pi),
    rot=st.floats(min_value=0.0, max_value=2.0 * math.pi),
)
@settings(max_examples=100, deadline=None)
@example(j=-3, m=1, zeta=0.5, theta=0.25, rot=2.0)
def test_phi_rotation_equivariance(j, m, zeta, theta, rot):
    # phi_j(e^{i rot} z) = e^{i j rot} phi_j(z): the radial factor only sees |z|.
    # phi_j can vanish (at zeta = 1/2 with alpha = 0 above), so the defect is
    # measured against the rounding scale of the evaluation, not |phi_j|: the
    # term magnitudes |z|^j sum_k |c_k| |xi|^k plus the propagated rounding of
    # xi itself, whose absolute error is of order eps (1 + xi^2) (it is what
    # remains of phi_j at the example, where xi = cot(pi/2) and c_0 = 0)
    z = complex(polar_point(zeta * math.pi, theta, P43))
    lhs = basis_phi(j, m, cmath.exp(1j * rot) * z, P43)
    rhs = cmath.exp(1j * j * rot) * basis_phi(j, m, z, P43)
    poly = np.polynomial.polynomial
    coeffs = np.abs(routh_coefficients(m, -alpha_index(j, P43), 1.0 - P43.B))
    xi = abs(xi_coordinate(z, P43))
    spread = poly.polyval(xi, coeffs) + (1.0 + xi * xi) * poly.polyval(
        xi, poly.polyder(coeffs)
    )
    assert abs(lhs - rhs) < 1e-10 * abs(z) ** j * spread


def test_phi_nodes_matches_pointwise():
    zs = np.array([1.5 + 0.5j, 2.0 - 1.0j, -3.0 + 0.5j, 0.2 + 1.8j])
    for j, m in [(-4, 0), (0, 1), (3, 2)]:
        vec = basis_phi_nodes(j, m, zs, P43)
        for i, z in enumerate(zs):
            assert vec[i] == pytest.approx(basis_phi(j, m, complex(z), P43), rel=1e-12)


def test_phi_nodes_sequence_matches_pointwise_over_the_window():
    # j = -64..64 is the longest ladder: 128 rungs up from z**-64
    zs = np.array([1.5 + 0.5j, 2.0 - 1.0j, -3.0 + 0.5j, 0.2 + 1.8j])
    js = list(range(-64, 65))
    for m in (0, 1, 2):
        cols = basis_phi_nodes(js, m, zs, P43)
        ref = np.array([[basis_phi(j, m, complex(z), P43) for j in js] for z in zs])
        assert np.all(np.abs(cols - ref) <= 1e-12 * np.abs(ref))


def test_phi_nodes_sequence_order_and_repeats():
    zs = np.array([[1.5 + 0.5j, 2.0 - 1.0j], [-3.0 + 0.5j, 0.2 + 1.8j]])
    ordered = basis_phi_nodes([-3, 0, 2, 5], 1, zs, P43)
    shuffled = basis_phi_nodes([5, -3, 2, 5, 0, -3], 1, zs, P43)
    np.testing.assert_array_equal(shuffled, ordered[..., [3, 0, 2, 3, 1, 0]])


def test_phi_nodes_shapes():
    zs = np.array([[1.5 + 0.5j, 2.0 - 1.0j, 0.2 + 1.8j], [-3.0 + 0.5j, 1.1j, 2.5]])
    assert basis_phi_nodes(2, 1, zs, P43).shape == zs.shape
    assert basis_phi_nodes([2], 1, zs, P43).shape == zs.shape + (1,)
    assert basis_phi_nodes(range(-3, 4), 1, zs, P43).shape == zs.shape + (7,)
    np.testing.assert_array_equal(
        basis_phi_nodes([2], 1, zs, P43)[..., 0], basis_phi_nodes(2, 1, zs, P43)
    )


def test_window_enforced():
    with pytest.raises(DomainError):
        basis_phi(65, 0, 2.0, P43)
    zs = np.array([1.5 + 0.5j, 2.0 - 1.0j])
    for js in ([0, 3, 65], [-65, 0], 65, [], [[0, 1]], 2.5):
        with pytest.raises(DomainError):
            basis_phi_nodes(js, 0, zs, P43)


# ---------------------------------------------------------------------------
# closed-form norms vs quadrature


def _quad_norm_sq(j, m, p):
    val = annulus_integrate(lambda z: np.abs(basis_phi_nodes(j, m, z, p)) ** 2, p)
    return val.real


@pytest.mark.parametrize("m", [0, 1, 2])
@pytest.mark.parametrize("j", [-10, -3, 0, 2, 10])
def test_norm_closed_form_vs_quadrature(m, j):
    closed = basis_norm_sq(j, m, P43)
    quad = _quad_norm_sq(j, m, P43)
    assert abs(quad - closed) < 1e-8 * closed, (
        f"m={m}, j={j}: closed {closed:.6e} vs quadrature {quad:.6e}"
    )


def test_norm_b1_elementary():
    # B = 1: the weight is trivial and the norm is pi (R^(2j+2) - 1)/(j+1)
    p = AnnulusParams(R=2.0, B=1.0)
    for j in (-4, -2, 0, 1, 5):
        want = math.pi * (2.0 ** (2 * j + 2) - 1.0) / (j + 1.0)
        assert basis_norm_sq(j, 0, p) == pytest.approx(want, rel=1e-11), f"j={j}"


def test_norm_ratio_asymptotic():
    # ||phi_(j+1)||^2 / ||phi_j||^2 -> R^2 (Stirling on the Gamma pair); the
    # finite-j correction is O(1/j) and must shrink as the index grows
    p = AnnulusParams(R=4.0, B=3.0)

    def deviation(j):
        ratio = math.exp(log_basis_norm_sq(j + 1, 1, p) - log_basis_norm_sq(j, 1, p))
        return abs(ratio / p.R**2 - 1.0)

    assert deviation(30) < 0.1
    assert deviation(60) < deviation(30)


def test_norm_positive_and_log_consistent():
    for j in (-8, 0, 8):
        n = basis_norm_sq(j, 1, P43)
        assert n > 0.0
        assert math.log(n) == pytest.approx(log_basis_norm_sq(j, 1, P43), rel=1e-12)


def test_orthonormal_phi_unit_norm():
    for j, m in [(0, 0), (2, 1), (-3, 2)]:
        val = annulus_integrate(
            lambda z: np.abs(
                basis_phi_nodes(j, m, z, P43)
                * math.exp(-0.5 * log_basis_norm_sq(j, m, P43))
            )
            ** 2,
            P43,
        )
        assert val.real == pytest.approx(1.0, abs=1e-7)


def test_distinct_indices_orthogonal_under_quadrature():
    for m in (0, 1):
        for j1, j2 in [(0, 1), (-2, 3)]:
            val = annulus_integrate(
                lambda z: basis_phi_nodes(j1, m, z, P43)
                * np.conj(basis_phi_nodes(j2, m, z, P43)),
                P43,
            )
            scale = math.sqrt(basis_norm_sq(j1, m, P43) * basis_norm_sq(j2, m, P43))
            assert abs(val) < 1e-7 * scale


# ---------------------------------------------------------------------------
# Sturm-Liouville residuals (exact polynomial derivatives)


def test_sturm_liouville_m0_exact_zero():
    assert sturm_liouville_apply(0, 3, 1.234, P43) == 0.0


def test_sturm_liouville_small_levels():
    rng = np.random.default_rng(3)
    for m in (1, 2):
        for j in (-10, -1, 0, 7, 10):
            for xi in rng.uniform(-3.0, 3.0, size=20):
                r = sturm_liouville_apply(m, j, float(xi), P43)
                assert abs(r) < 1e-9, f"m={m}, j={j}, xi={xi}: residual {r}"


def test_sturm_liouville_other_parameter_sets():
    rng = np.random.default_rng(4)
    for R, B in [(2.0, 1.0), (9.0, 2.0), (6.0, 2.75)]:
        p = AnnulusParams(R=R, B=B)
        for m in admissible_levels(p):
            for xi in rng.uniform(-2.0, 2.0, size=5):
                r = sturm_liouville_apply(m, -2, float(xi), p)
                assert abs(r) < 1e-9


# ---------------------------------------------------------------------------
# invariant Laplacian by finite differences


def test_laplacian_kills_constants():
    got = invariant_laplacian_apply(lambda z: 1.0 + 0.0j, 2.0 + 0.5j, P43)
    assert abs(got) < 1e-10


def test_laplacian_kills_holomorphic_powers():
    # the m = 0 eigenspace (lambda = 0) contains all z^j
    for j in (-3, 1, 4):
        z0 = 1.8 - 0.6j
        got = invariant_laplacian_apply(lambda z, j=j: z**j, z0, P43)
        assert abs(got) < 1e-6 * max(abs(z0**j), 1.0)


@pytest.mark.parametrize("m", [0, 1, 2])
def test_laplacian_eigen_equation(m):
    lam = landau_level_eigenvalue(m, P43)
    for j in (-2, 0, 3):
        for z0 in (1.6 + 0.4j, -2.1 + 1.3j, 0.5 - 2.6j):
            f = lambda z, j=j, m=m: basis_phi(j, m, z, P43)
            got = invariant_laplacian_apply(f, z0, P43)
            want = lam * f(z0)
            scale = max(abs(want), abs(f(z0)))
            assert abs(got - want) < 1e-4 * scale, (
                f"m={m}, j={j}, z={z0}: {got} vs {want}"
            )


def test_laplacian_boundary_proximity_rejected():
    z = 1.001 + 0.0j  # distance 1e-3 from the inner circle
    with pytest.raises(DomainError):
        invariant_laplacian_apply(lambda w: w, z, P43, step=1e-3)
    with pytest.raises(DomainError):
        cr_apply(lambda w: w, z, P43, step=1e-3)


# ---------------------------------------------------------------------------
# invariant Cauchy-Riemann powers: the exact ladder and its order-1 check

CR_POINTS = np.array([1.9 + 0.7j, -2.1 + 1.3j, 0.5 - 2.6j, 3.1 - 0.4j])


def test_cr_order_one_kills_holomorphic():
    z0 = 2.0 + 0.3j
    for j in (-2, 5):
        got = cr_apply(lambda z, j=j: z**j, z0, P43)
        assert abs(got) < 1e-8 * max(abs(z0**j), 1.0)


@pytest.mark.parametrize("m", [0, 1, 2])
def test_cr_annihilation_at_level(m):
    # (omega^2 dbar)^(m+1) phi_j = 0: the defining polyanalyticity order,
    # exactly on the ladder and to stencil accuracy on its top rung
    for j in (-1, 2):
        for order in (m + 1, m + 3):
            zero = basis_phi(j, m, CR_POINTS, P43, order)
            assert zero.shape == CR_POINTS.shape and not zero.any()
        top = lambda z, j=j: basis_phi(j, m, z, P43, m)
        for z0 in CR_POINTS.tolist():
            scale = max(abs(top(z0)), 1.0)
            got = cr_apply(top, z0, P43)
            assert abs(got) < 1e-8 * scale, f"m={m}, j={j}: {abs(got)} vs scale {scale}"


@pytest.mark.parametrize("m", [1, 2])
def test_cr_lower_order_does_not_annihilate(m):
    # the top rung is (-c/2)^m m! a_m z^(j+m), a_m the leading coefficient of
    # RR_m, which is non-zero: the order is exactly m + 1
    lead = routh_leading_coefficient(m, P43.B)
    for j in (-1, 1, 2):
        low = basis_phi(j, m, CR_POINTS, P43, m)
        top = (-0.5 * P43.radial_scale) ** m * math.factorial(m) * lead
        want = top * CR_POINTS ** (j + m)
        np.testing.assert_allclose(low, want, rtol=1e-12, atol=0.0)
        high = cr_apply(lambda z, j=j: basis_phi(j, m, z, P43, m), CR_POINTS[0], P43)
        assert abs(low[0]) > 10.0 * abs(high)


def test_cr_order_validation():
    with pytest.raises(DomainError):
        basis_phi(0, 1, 2.0, P43, -1)
    with pytest.raises(DomainError):
        basis_phi_nodes(0, 1, CR_POINTS, P43, -1)
    with pytest.raises(DomainError):
        basis_phi(65, 1, 2.0, P43, 1)
    with pytest.raises(InadmissibleLevelError):
        basis_phi(0, 3, 2.0, P43, 1)
    with pytest.raises(DomainError):
        basis_phi(0, 1, 4.0, P43, 1)


@pytest.mark.parametrize("m", [0, 2])
def test_cr_order_must_be_an_integer(m):
    # order 0.5 once returned 0j at m = 0 and raised a bare TypeError at m = 2
    with pytest.raises(DomainError, match="nonnegative integer"):
        basis_phi(0, m, 2.0, P43, order=0.5)


def test_cr_ladder_starts_at_phi():
    # rung 0 from the coefficient array against the Jacobi sum
    for m in admissible_levels(P43):
        for j in (-10, -1, 0, 3, 10):
            got = basis_phi(j, m, CR_POINTS, P43, 0)
            for g, w in zip(got.tolist(), CR_POINTS.tolist()):
                want = _phi_by_jacobi_sum(j, m, w, P43)
                assert abs(g - want) <= 1e-13 * _rounding_scale(j, m, w, P43), (m, j, w)


# ---------------------------------------------------------------------------
# the batch contract: basis_phi on arrays, each stencil as one batch

SUITE_PARAMS = [
    AnnulusParams(R=4.0, B=3.0),
    AnnulusParams(R=6.0, B=2.75),
    AnnulusParams(R=50.0, B=2.0),
    AnnulusParams(R=1.5, B=2.0),
]


def _interior_points(params: AnnulusParams, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    zeta = rng.uniform(0.15 * math.pi, 0.85 * math.pi, size=n)
    theta = rng.uniform(0.0, 2.0 * math.pi, size=n)
    return np.array([polar_point(a, t, params) for a, t in zip(zeta, theta)])


def _rounding_scale(j: int, m: int, z: complex, params: AnnulusParams) -> float:
    """|z|^j times the summed moduli of the Jacobi-sum terms behind
    RR_m(cot zeta_z): the scale on which phi_j(z) is rounded.  Near a root
    of RR_m the value's own ulp is finer than its terms'."""
    a, b = -alpha_index(j, params), 1.0 - params.B
    pa, pb = complex(b - 1.0, a / 2.0), complex(b - 1.0, -a / 2.0)
    half = abs(complex(1.0, xi_coordinate(z, params))) / 2.0  # |(i xi -+ 1)/2|
    terms = sum(
        abs(pochhammer(pa + l + 1, m - l) * pochhammer(pb + m - l + 1, l))
        / (math.factorial(m - l) * math.factorial(l))
        for l in range(m + 1)
    )
    return abs(z) ** j * 2.0**m * math.factorial(m) * terms * half**m


def _phi_by_jacobi_sum(j: int, m: int, z: complex, params: AnnulusParams) -> complex:
    """phi_j = z^j (-2i)^m m! P_m^(b-1+ia/2, b-1-ia/2)(i cot zeta_z), with
    a = -alpha(j, B) and b = 1 - B: the Jacobi sum at imaginary argument,
    independent of routh_coefficients."""
    a, b = -alpha_index(j, params), 1.0 - params.B
    jp = JacobiParams(complex(b - 1.0, a / 2.0), complex(b - 1.0, -a / 2.0), m)
    rr = (-2j) ** m * math.factorial(m) * complex(jacobi_poly(jp, 1j * xi_coordinate(z, params)))
    return z**j * rr.real


@pytest.mark.parametrize(
    "params", SUITE_PARAMS + [AnnulusParams(R=4.0, B=0.75)], ids=lambda p: f"R{p.R}-B{p.B}"
)
def test_basis_phi_is_a_batch_of_one_of_basis_phi_nodes(params):
    # one evaluator: basis_phi at a point, at a 0-d array and on an array
    # equals the matching element of one basis_phi_nodes call, bit for bit,
    # at every Cauchy-Riemann order up to the first that vanishes
    z = _interior_points(params, 12, 9).reshape(3, 4)
    for m in admissible_levels(params):
        for j in (-64, -1, 0, 3, 64, [5, -3, 0, 2, -3]):
            for order in range(m + 2):
                nodes = basis_phi_nodes(j, m, z, params, order)
                np.testing.assert_array_equal(basis_phi(j, m, z, params, order), nodes)
                for i, w in np.ndenumerate(z):
                    point = basis_phi(j, m, complex(w), params, order)
                    zero_d = basis_phi(j, m, np.array(w), params, order)
                    assert isinstance(zero_d, np.ndarray)
                    assert zero_d.shape == np.shape(j) == np.shape(point)
                    if np.ndim(j) == 0:
                        assert type(point) is complex
                    np.testing.assert_array_equal(point, nodes[i])
                    np.testing.assert_array_equal(zero_d, nodes[i])
                if order > m:
                    assert not nodes.any()


@pytest.mark.parametrize("params", SUITE_PARAMS, ids=lambda p: f"R{p.R}-B{p.B}")
def test_phi_matches_the_jacobi_sum(params):
    z = _interior_points(params, 16, 13)
    for m in admissible_levels(params):
        for j in (-10, -1, 0, 3, 10):
            got = basis_phi_nodes(j, m, z, params)
            for g, w in zip(got.tolist(), z.tolist()):
                want = _phi_by_jacobi_sum(j, m, w, params)
                assert abs(g - want) <= 1e-12 * abs(want), (m, j, w)


def test_basis_phi_rejects_exterior_points():
    for bad in (4.0 + 0.0j, 0.5j, 1.0 + 1e-12j):
        for z in (bad, np.array(bad), np.array([2.0 + 0.5j, bad])):
            for order in (0, 1, 3):
                with pytest.raises(DomainError):
                    basis_phi(0, 1, z, P43, order)


@pytest.mark.parametrize("params", SUITE_PARAMS, ids=lambda p: f"R{p.R}-B{p.B}")
def test_phi_on_array_matches_pointwise(params):
    z = _interior_points(params, 12, 3).reshape(3, 4)
    for m in admissible_levels(params):
        for j in (-64, -10, -1, 0, 3, 10, 64):
            batch = basis_phi(j, m, z, params)
            assert batch.shape == z.shape
            for got, w in zip(batch.ravel().tolist(), z.ravel().tolist()):
                want = basis_phi(j, m, w, params)
                ulp = np.spacing(_rounding_scale(j, m, w, params))
                assert abs(got - want) <= 4.0 * ulp, (m, j, w)


@pytest.mark.parametrize(
    "params", SUITE_PARAMS + [AnnulusParams(R=4.0, B=0.75)], ids=lambda p: f"R{p.R}-B{p.B}"
)
def test_phi_at_a_0d_point_equals_its_batch_element(params):
    z = _interior_points(params, 24, 5)
    for m in admissible_levels(params):
        for j in (-10, -1, 0, 3, 10):
            batch = basis_phi(j, m, z, params)
            for w, want in zip(z, batch):
                got = basis_phi(j, m, np.array(w), params)
                assert isinstance(got, np.ndarray) and got.shape == ()
                assert got == want, (m, j, w)


def test_phi_on_array_rejects_any_non_interior_point():
    for bad in (4.0 + 0.0j, 0.5j, 1.0 + 1e-12j, complex("nan")):
        z = np.array([[1.5 + 0.5j, 2.0 - 1.0j], [bad, -3.0 + 0.5j]])
        with pytest.raises(DomainError):
            basis_phi(0, 1, z, P43)


def _on_one_point(f):
    """f at a single point, as a one-element batch: numpy's complex
    arithmetic rounds differently from Python's, and a stencil of step h
    turns that last bit into an error of size eps / h^order."""
    return lambda w: complex(f(np.array([w]))[0])


def _scalar_d1(f, z: complex, h: float, direction: complex) -> complex:
    return (
        -f(z + 2.0 * h * direction)
        + 8.0 * f(z + h * direction)
        - 8.0 * f(z - h * direction)
        + f(z - 2.0 * h * direction)
    ) / (12.0 * h)


def _laplacian_reference(f, z: complex, params: AnnulusParams, h: float) -> complex:
    """invariant_laplacian_apply as it was written before it batched its
    stencil: f at each point separately."""
    f = _on_one_point(f)

    def d2(direction: complex) -> complex:
        return (
            -f(z + 2.0 * h * direction)
            + 16.0 * f(z + h * direction)
            - 30.0 * f(z)
            + 16.0 * f(z - h * direction)
            - f(z - 2.0 * h * direction)
        ) / (12.0 * h * h)

    fx, fy = _scalar_d1(f, z, h, 1.0), _scalar_d1(f, z, h, 1.0j)
    lap = d2(1.0) + d2(1.0j)
    om = poincare_density(z, params)
    om_z = poincare_density_dz(z, params)
    return om * om * lap + 4.0 * params.B * om * om_z * (fx + 1j * fy)


def _cr_reference(f, z: complex, params: AnnulusParams, h: float) -> complex:
    """omega^2 d/dzbar f by the scalar order-1 stencil, f at each point
    separately."""
    f = _on_one_point(f)
    dbar = 0.5 * (_scalar_d1(f, z, h, 1.0) + 1j * _scalar_d1(f, z, h, 1.0j))
    return poincare_density(z, params) ** 2 * dbar


def _stencil_cases():
    for j in (-3, 2, 5):
        yield f"z**{j}", lambda z, j=j: z**j
    for m in (0, 1, 2):
        for j in (-1, 2):
            yield f"phi_{j} m={m}", lambda z, j=j, m=m: basis_phi(j, m, z, P43)


@pytest.mark.parametrize("z0", [1.9 + 0.7j, -2.1 + 1.3j, 0.5 - 2.6j])
def test_laplacian_batch_matches_scalar_stencil(z0):
    h = 1e-3 * P43.boundary_distance(z0)
    for name, f in _stencil_cases():
        got = invariant_laplacian_apply(f, z0, P43, step=h)
        want = _laplacian_reference(f, z0, P43, h)
        assert abs(got - want) <= 1e-12 * abs(want), (name, got, want)


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("z0", [1.9 + 0.7j, -2.1 + 1.3j])
def test_cr_power_batch_matches_scalar_stencil(order, z0):
    # the batched order-1 stencil on the functions of _stencil_cases and on
    # the ladder's rung order - 1, whose image is the power of that order
    h = 1e-3 * P43.boundary_distance(z0)
    rungs = [
        (f"rung {order - 1} of phi_{j} m={m}",
         lambda z, j=j, m=m: basis_phi(j, m, z, P43, order - 1))
        for m in admissible_levels(P43) if m >= order - 1
        for j in (-1, 2)
    ]
    cases = list(_stencil_cases()) + rungs
    for name, f in cases:
        got = cr_apply(f, z0, P43, step=h)
        want = _cr_reference(f, z0, P43, h)
        assert abs(got - want) <= 1e-12 * abs(want), (name, got, want)


def test_stencils_call_f_once_on_an_array():
    calls = []

    def f(z):
        calls.append((type(z), np.shape(z)))
        return z * z

    invariant_laplacian_apply(f, 1.9 + 0.7j, P43)
    assert calls == [(np.ndarray, (9,))]
    calls.clear()
    cr_apply(f, 1.9 + 0.7j, P43)
    assert calls == [(np.ndarray, (9,))]


def test_stencil_rejects_f_that_is_not_elementwise():
    with pytest.raises(DomainError):
        invariant_laplacian_apply(lambda z: np.ones(3), 1.9 + 0.7j, P43)
    with pytest.raises(DomainError):
        cr_apply(lambda z: z[:2], 1.9 + 0.7j, P43)


def test_sturm_liouville_on_an_array_matches_pointwise():
    xi = np.linspace(-3.0, 3.0, 12).reshape(3, 4)
    for m in (0, 1, 2):
        got = sturm_liouville_apply(m, -2, xi, P43)
        assert got.shape == xi.shape
        want = [sturm_liouville_apply(m, -2, float(x), P43) for x in xi.ravel()]
        np.testing.assert_array_equal(got.ravel(), want)
