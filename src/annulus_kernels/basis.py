"""Landau levels and the orthogonal eigenbasis on the weighted annulus space.

The m-th Landau level carries the eigenvalue lambda_(B,m) = -m(2B - m - 1)
of the invariant Laplacian; its eigenspace is spanned by

    phi_j(z) = z^j RR_m^(-alpha(j,B), 1-B)(cot zeta_z),     j in Z,

with zeta_z = pi log|z| / log R and alpha(j, B) = 2 (j + B) log(R)/pi.  The
squared norms admit a closed form (a Gamma-pair expression).  One evaluator,
basis_phi_nodes, gives phi_j and every power of the invariant
Cauchy-Riemann operator omega^2 d/dzbar on it, exactly, by differentiating
RR_m, so phi_j is polyanalytic of exact order m + 1; basis_phi is the same
evaluator behind an interior check.  This module also applies the
one-dimensional radial operator L_B exactly, and the invariant Laplacian
and omega^2 d/dzbar by one shared finite-difference stencil: the
independent checks of the eigenvalue equation and of the first rung of
every Cauchy-Riemann power.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, InadmissibleLevelError
from .geometry import (
    AnnulusParams,
    alpha_index,
    poincare_density,
    poincare_density_dz,
    require_interior,
    xi_nodes,
)
from .special import log_gamma, routh_coefficients

J_MAX_DEFAULT = 64
NORM_MARGIN = 1e-6


def admissible_levels(params: AnnulusParams) -> list[int]:
    """Landau levels m = 0, 1, ..., floor(B - 1/2) whose eigenspace carries
    finite norms, i.e. 2(B - m) - 1 > 1e-6.

    The margin excludes the borderline m = B - 1/2 where the closed-form
    norm has a vanishing denominator.
    """
    levels = []
    m = 0
    while 2.0 * (params.B - m) - 1.0 > NORM_MARGIN:
        levels.append(m)
        m += 1
    return levels


def require_admissible(m: int, params: AnnulusParams) -> None:
    """Raise InadmissibleLevelError unless m indexes a valid Landau level."""
    if m < 0 or 2.0 * (params.B - m) - 1.0 <= NORM_MARGIN:
        raise InadmissibleLevelError(
            f"level m={m} is not admissible for B={params.B}: requires "
            f"0 <= m and 2(B - m) - 1 > {NORM_MARGIN}"
        )


def landau_level_eigenvalue(m: int, params: AnnulusParams) -> float:
    """Eigenvalue lambda_(B,m) = -m (2B - m - 1) of the invariant Laplacian.

    Zero at m = 0 and strictly decreasing along the admissible range.
    """
    require_admissible(m, params)
    return -float(m) * (2.0 * params.B - m - 1.0)


def basis_phi(j, m: int, z, params: AnnulusParams, order: int = 0):
    """phi_j(z) = z^j RR_m^(-alpha(j,B), 1-B)(cot zeta_z), or its image
    (omega^2 d/dzbar)^order phi_j: basis_phi_nodes behind an interior check.

    z is a point, a 0-d ndarray or an ndarray; every point must be interior
    (DomainError otherwise).  An ndarray is one basis_phi_nodes call and
    gives its shape; a point or a 0-d ndarray is evaluated as a batch of
    one, since numpy's scalar math rounds unlike its array loops, so it
    equals the matching element of any batch bit for bit.  A point gives
    a complex (an ndarray for a window j), a 0-d ndarray an ndarray.
    """
    zc = require_interior(z, params)
    if isinstance(zc, np.ndarray) and zc.ndim:
        return basis_phi_nodes(j, m, zc, params, order)
    phi = basis_phi_nodes(j, m, np.reshape(zc, 1), params, order)[0]
    if isinstance(zc, np.ndarray):
        return np.asarray(phi)
    return complex(phi) if np.ndim(phi) == 0 else phi


def basis_phi_nodes(
    j, m: int, z: np.ndarray, params: AnnulusParams, order: int = 0
) -> np.ndarray:
    """(omega^2 d/dzbar)^order phi_j on an ndarray of interior points, exactly:

        (omega^2 d/dzbar)^k phi_j = (-c/2)^k z^(j+k) RR_m^(k)(cot zeta_z),

    with c = log(R)/pi and RR_m^(k) the k-th derivative of phi_j's
    Routh-Romanovski factor.  It follows from omega = c|z| sin zeta and
    d/dzbar cot zeta = -(1 + cot^2 zeta)/(2 c zbar), which give
    omega^2 d/dzbar [z^j P(xi)] = -(c/2) z^(j+1) P'(xi).  Order 0 is phi_j;
    orders above m give exact zeros, so phi_j is polyanalytic of exact
    order m + 1.

    j is an int, or a 1-D sequence of ints (any order, repeats allowed).
    The int form returns an array of z's shape; the sequence form returns
    z.shape + (len(j),), one column per entry of j.

    (-c/2)^k RR_m^(k) is evaluated by Horner from the coefficient array,
    differentiated k times, on the cot-coordinate array, which is computed
    once per call.  The powers z^(j+k) are a multiplication ladder
    over the sorted distinct indices, starting from one principal power at
    the lowest; each rung adds at most a few eps of relative rounding, so
    the int form (a ladder of no rungs) is z**(j+k) itself.  No per-point
    boundary checks, so the caller is responsible for interior nodes
    (quadrature rules are; basis_phi checks).
    """
    require_admissible(m, params)
    if order < 0:
        raise DomainError(f"order must be nonnegative, got {order}")
    idx = np.atleast_1d(j)
    if idx.ndim > 1 or idx.size == 0 or not np.array_equal(idx, idx.astype(int)):
        raise DomainError(
            "basis indices must be an int or a non-empty 1-D sequence of "
            f"ints, got {j!r}"
        )
    ks = idx.astype(int).tolist()
    js = sorted(set(ks))
    if max(-js[0], js[-1]) > J_MAX_DEFAULT:
        raise DomainError(f"basis indices {j!r} outside the window |j| <= {J_MAX_DEFAULT}")
    dtype = np.result_type(z, 1.0)
    if order > m:
        return np.zeros(np.shape(z) + np.shape(j), dtype=dtype)
    xi = xi_nodes(z, params)
    # one row per distinct index: each is written once, in contiguous memory
    phi = np.empty((len(js),) + np.shape(z), dtype=dtype)
    power = z ** (js[0] + order)
    scl = -0.5 * params.radial_scale
    for a, k in enumerate(js):
        for _ in range(k - js[a - 1] if a else 0):
            power = power * z
        coeffs = routh_coefficients(m, -alpha_index(k, params), 1.0 - params.B)
        for _ in range(order):  # differentiate, times -c/2
            coeffs = scl * np.arange(1.0, len(coeffs)) * coeffs[1:]
        # Horner in the operation order of numpy's polyval: the basis and
        # gram residuals are pinned to polyval's rounding
        radial = coeffs[-1] + xi * 0.0
        for c in coeffs[-2::-1]:
            radial = c + radial * xi
        np.multiply(power, radial, out=phi[a, ...])
    if ks != js:
        phi = phi[[js.index(k) for k in ks]]
    return phi[0] if np.ndim(j) == 0 else np.moveaxis(phi, 0, -1)


def log_basis_norm_sq(j: int, m: int, params: AnnulusParams) -> float:
    """log of the closed-form squared norm of phi_j at level m:

        ||phi_j||^2 = 2^(3-2(B-m)) R^B (log R)^(2B-1) / pi^(2B-3)
                      * m! Gamma(2B-m) / (2(B-m)-1)
                      * R^j / |Gamma(B-m + i alpha(j,B)/2)|^2.

    Assembled in log space: the Gamma pair decays like R^-(j+B), so for
    large |j| the pieces overflow/underflow long before the ratio does.
    Defined for every integer j (no window check): kernel series legitimately
    walk the norm ladder far beyond the basis-evaluation window.
    """
    require_admissible(m, params)
    B, R = params.B, params.R
    alpha = alpha_index(j, params)
    return (
        (3.0 - 2.0 * (B - m)) * math.log(2.0)
        + B * math.log(R)
        + (2.0 * B - 1.0) * math.log(math.log(R))
        - (2.0 * B - 3.0) * math.log(math.pi)
        + math.lgamma(m + 1.0)
        + math.lgamma(2.0 * B - m)
        - math.log(2.0 * (B - m) - 1.0)
        + j * math.log(R)
        - 2.0 * log_gamma(complex(B - m, alpha / 2.0)).real
    )


def basis_norm_sq(j: int, m: int, params: AnnulusParams) -> float:
    """Closed-form squared norm ||phi_j||^2 (see log_basis_norm_sq); a norm
    past binary64's range raises DomainError naming B."""
    try:
        return math.exp(log_basis_norm_sq(j, m, params))
    except OverflowError:
        raise DomainError(f"||phi_{j}||^2 at B={params.B:g} is past binary64's range") from None


def sturm_liouville_apply(m: int, j: int, xi, params: AnnulusParams):
    """Residual (L_B - lambda_(B,m)) RR_m at the point xi, where

        L_B = (1 + xi^2) d^2/dxi^2 + 2[(1-B) xi - (j+B) log(R)/pi] d/dxi.

    The polynomial derivatives are taken exactly from the coefficient array,
    so the residual is pure floating-point noise when the eigenvalue
    identity holds.  xi may be an array of points: the residual polynomial
    is built once and evaluated elementwise, returning an array of xi's
    shape; a scalar xi returns a float.
    """
    require_admissible(m, params)
    B = params.B
    y = routh_coefficients(m, -alpha_index(j, params), 1.0 - B)
    poly = np.polynomial.polynomial
    dy = poly.polyder(y)
    d2y = poly.polyder(y, 2)
    lam = landau_level_eigenvalue(m, params)
    acc = poly.polymul([1.0, 0.0, 1.0], d2y)
    drift = poly.polymul([-2.0 * (j + B) * params.radial_scale, 2.0 * (1.0 - B)], dy)
    n = max(len(acc), len(drift), len(y))
    res = np.zeros(n)
    res[: len(acc)] += np.atleast_1d(acc)
    res[: len(drift)] += np.atleast_1d(drift)
    res[: len(y)] -= lam * y
    value = poly.polyval(xi, res)
    return float(value) if np.ndim(value) == 0 else value


def _stencil(f, z, params: AnnulusParams, step: float | None):
    """The 4th-order stencil behind both invariant operators at z: returns
    (z, omega(z), d/dzbar f, f_xx + f_yy).

    f is called once, on an ndarray of the 9 stencil points (z itself
    first, then z + 2h, z + h, z - h, z - 2h and the same four steps along
    i), and must act elementwise; a constant f may return a scalar, which
    is broadcast.  Requires boundary distance > 4*step.
    """
    zc = complex(z)
    require_interior(zc, params)
    h = 1e-3 * params.boundary_distance(zc) if step is None else float(step)
    if not (h > 0.0) or params.boundary_distance(zc) <= 4.0 * h:
        raise DomainError(
            f"step {h} too large: z={zc} sits {params.boundary_distance(zc):.3g} "
            "from the boundary, need distance > 4*step"
        )
    offsets = [2.0 * h, h, -h, -2.0 * h]
    points = np.array([zc] + [zc + o * d for d in (1.0, 1.0j) for o in offsets])
    values = np.asarray(f(points))
    try:
        # the combination in Python complex arithmetic, as on scalar values
        f0, *along = np.broadcast_to(values, points.shape).tolist()
    except ValueError:
        raise DomainError(
            f"f returned shape {values.shape} on stencil points of shape "
            f"{points.shape}; f must act elementwise on an ndarray"
        ) from None

    def d1(p2: complex, p1: complex, m1: complex, m2: complex) -> complex:
        return (-p2 + 8.0 * p1 - 8.0 * m1 + m2) / (12.0 * h)

    def d2(p2: complex, p1: complex, m1: complex, m2: complex) -> complex:
        return (-p2 + 16.0 * p1 - 30.0 * f0 + 16.0 * m1 - m2) / (12.0 * h * h)

    x, y = along[:4], along[4:]
    om = poincare_density(zc, params)
    return zc, om, 0.5 * (d1(*x) + 1j * d1(*y)), d2(*x) + d2(*y)


def invariant_laplacian_apply(
    f, z, params: AnnulusParams, step: float | None = None
) -> complex:
    """The invariant Laplacian Delta_B f at z by 4th-order finite differences:

        Delta_B f = omega^2 (f_xx + f_yy) + 8 B omega (d omega/dz) d/dzbar f.

    f is called once, on an ndarray of the 9 stencil points (z first), and
    must act elementwise.  Requires boundary distance > 4*step.
    """
    zc, om, dbar, lap = _stencil(f, z, params, step)
    om_z = poincare_density_dz(zc, params)
    return om * om * lap + 8.0 * params.B * om * om_z * dbar


def cr_apply(f, z, params: AnnulusParams, step: float | None = None) -> complex:
    """The invariant Cauchy-Riemann operator omega^2 d/dzbar f at z, from the
    stencil of invariant_laplacian_apply (same points, one call of f, same
    boundary clearance).  Its powers on phi_j are basis_phi's order
    argument, exact; this is the independent order-1 check of them."""
    _, om, dbar, _ = _stencil(f, z, params, step)
    return om * om * dbar
