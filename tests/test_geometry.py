"""Tests of the annulus geometry layer: coordinates, the hyperbolic-type
density, boundary handling, and the inversion map."""

from __future__ import annotations

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annulus_kernels.errors import DomainError
from annulus_kernels.geometry import (
    AnnulusParams,
    alpha_index,
    invert_point,
    poincare_density,
    poincare_density_dz,
    polar_point,
    require_interior,
    xi_coordinate,
    xi_nodes,
    zeta_coordinate,
)
from annulus_kernels.basis import basis_phi_nodes
from annulus_kernels.quadrature import QuadratureSpec, annulus_nodes
from annulus_kernels.special import routh_coefficients


def test_params_validation():
    AnnulusParams(R=4.0, B=3.0)  # fine
    with pytest.raises(DomainError):
        AnnulusParams(R=1.0, B=3.0)
    with pytest.raises(DomainError):
        AnnulusParams(R=0.5, B=3.0)
    with pytest.raises(DomainError):
        AnnulusParams(R=4.0, B=0.5)


def test_params_derived_quantities():
    p = AnnulusParams(R=math.e**math.pi, B=2.0)
    assert p.log_R == pytest.approx(math.pi)
    assert p.radial_scale == pytest.approx(1.0)


def test_integer_b_detection():
    assert AnnulusParams(R=4.0, B=3.0).is_integer_B()
    assert AnnulusParams(R=4.0, B=3.0 + 1e-14).is_integer_B()
    assert not AnnulusParams(R=4.0, B=2.75).is_integer_B()
    assert not AnnulusParams(R=4.0, B=0.9999).is_integer_B()  # rounds to wrong side


def test_require_interior_margin():
    p = AnnulusParams(R=4.0, B=2.5)
    pt = require_interior(2.0 + 0.5j, p)
    assert type(pt) is complex and pt == 2.0 + 0.5j
    assert type(require_interior(2, p)) is complex
    with pytest.raises(DomainError):
        require_interior(1.0, p)  # on the inner circle
    with pytest.raises(DomainError):
        require_interior(4.0 * cmath.exp(0.3j), p)  # on the outer circle
    with pytest.raises(DomainError):
        require_interior(0.2, p)
    with pytest.raises(DomainError):
        require_interior(7.0j, p)


def test_zeta_endpoints_and_midpoint():
    p = AnnulusParams(R=4.0, B=2.5)
    assert zeta_coordinate(2.0, p) == pytest.approx(math.pi / 2.0)
    # zeta depends only on |z|
    assert zeta_coordinate(2.0 * cmath.exp(1.2j), p) == pytest.approx(math.pi / 2.0)
    assert zeta_coordinate(1.0 + 1e-8, p) == pytest.approx(0.0, abs=1e-6)
    assert zeta_coordinate(4.0 - 1e-8, p) == pytest.approx(math.pi, abs=1e-6)


def test_xi_is_cot_zeta():
    p = AnnulusParams(R=9.0, B=2.0)
    for z in (1.3, 2.0 + 1.0j, -2.5 + 0.1j):
        zeta = zeta_coordinate(z, p)
        assert xi_coordinate(z, p) == pytest.approx(math.cos(zeta) / math.sin(zeta))


@pytest.mark.parametrize("R,B", [(4.0, 3.0), (6.0, 2.75), (50.0, 2.0), (1.5, 2.0)])
def test_one_cot_coordinate_bit_for_bit(R, B):
    # xi_nodes is the one binary64 cot-coordinate: a point's xi_coordinate is
    # its node's entry in a batch, and basis_phi_nodes evaluates RR_m on it
    p = AnnulusParams(R=R, B=B)
    row = annulus_nodes(p, QuadratureSpec(n_angular=32, n_radial=32))[0].ravel()
    xi = xi_nodes(row, p)
    assert [xi_coordinate(complex(z), p) for z in row] == xi.tolist()
    # phi_0 at level 1 is RR_1(xi), by Horner in numpy polyval's order
    c = routh_coefficients(1, -alpha_index(0, p), 1.0 - B)
    expected = np.ones_like(row) * (c[0] + (c[1] + xi * 0.0) * xi)
    assert np.array_equal(basis_phi_nodes(0, 1, row, p), expected)


def test_interior_check_on_an_array_names_the_first_offender():
    p = AnnulusParams(R=4.0, B=2.5)
    z = np.array([[2.0 + 0.5j, 1.5j], [-3.0 + 0.0j, 2.0]])
    assert require_interior(z, p) is z  # complex already: no copy
    z[1, 0] = 4.0
    with pytest.raises(DomainError, match=r"\|z\|=4 "):
        require_interior(z, p)


def test_density_vanishes_at_boundary_and_peaks_inside():
    p = AnnulusParams(R=4.0, B=2.5)
    assert poincare_density(1.0 + 1e-8, p) == pytest.approx(0.0, abs=1e-6)
    assert poincare_density(4.0 - 1e-8, p) == pytest.approx(0.0, abs=1e-6)
    assert poincare_density(2.0, p) == pytest.approx(
        (math.log(4.0) / math.pi) * 2.0, rel=1e-12
    )


def test_density_gradient_matches_finite_differences():
    # d(omega)/dz via 2 w_z f = f_x - i f_y on the real-smooth density
    p = AnnulusParams(R=4.0, B=2.0)
    h = 1e-6
    for z in (1.7 + 0.6j, -2.2 + 1.1j, 0.3 - 1.4j):
        fx = (poincare_density(z + h, p) - poincare_density(z - h, p)) / (2.0 * h)
        fy = (poincare_density(z + 1j * h, p) - poincare_density(z - 1j * h, p)) / (
            2.0 * h
        )
        fd = 0.5 * (fx - 1j * fy)
        assert abs(poincare_density_dz(z, p) - fd) < 1e-7


def test_inversion_swaps_boundaries():
    p = AnnulusParams(R=4.0, B=2.0)
    z = 1.2 * cmath.exp(0.7j)
    w = invert_point(z, p)
    assert type(w) is complex
    assert abs(w) == pytest.approx(4.0 / 1.2)
    # involution
    assert invert_point(w, p) == pytest.approx(z)
    # zeta flips: zeta(R/z) = pi - zeta(z)
    assert zeta_coordinate(w, p) == pytest.approx(math.pi - zeta_coordinate(z, p))


def test_alpha_index_values():
    p = AnnulusParams(R=math.e**math.pi, B=2.0)
    assert alpha_index(0, p) == pytest.approx(4.0)  # 2(j+B) log(R)/pi
    assert alpha_index(3, p) == pytest.approx(10.0)


def test_polar_point_roundtrip():
    p = AnnulusParams(R=4.0, B=2.5)
    pt = polar_point(0.4 * math.pi, 1.1, p)
    z = complex(pt)
    assert zeta_coordinate(z, p) == pytest.approx(0.4 * math.pi)
    assert cmath.phase(z) == pytest.approx(1.1)
    with pytest.raises(DomainError):
        polar_point(0.0, 0.0, p)
    with pytest.raises(DomainError):
        polar_point(math.pi, 0.0, p)


@given(
    zeta=st.floats(min_value=0.05, max_value=0.95),
    theta=st.floats(min_value=0.0, max_value=2.0 * math.pi),
    R=st.floats(min_value=1.2, max_value=30.0),
)
@settings(max_examples=150, deadline=None)
def test_interior_points_always_accepted(zeta, theta, R):
    p = AnnulusParams(R=R, B=1.5)
    z = complex(polar_point(zeta * math.pi, theta, p))
    require_interior(z, p)  # must not raise
    assert 0.0 < zeta_coordinate(z, p) < math.pi
