"""The annulus 1 < |z| < R: parameters, points, coordinates, and the
inversion automorphism.

Everything radial is computed from log|z| rather than |z| itself, since the
natural radial coordinate

    zeta(z) = (pi / log R) * log|z|  in (0, pi)

is linear in log|z| and all weights and polynomials downstream are functions
of zeta (or of xi = cot zeta) only.  The coordinate functions here take one
point, except xi_nodes: the binary64 cot-coordinate of an array of points,
which xi_coordinate, basis_phi_nodes and the kernels' pair geometry share.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

#: Points closer than this fraction of (R - 1) to either boundary circle are
#: rejected: every series and weight in the package degenerates there.
BOUNDARY_MARGIN_FACTOR = 1e-9
#: How far B (or 2B, for the inversion rule) may sit from an integer.
_INTEGRALITY_TOL = 1e-12


@dataclass(frozen=True)
class AnnulusParams:
    """The pair (R, B), both finite: outer radius R > 1 and magnetic weight
    B > 1/2, with log_R = log(R), computed once at construction (every
    kernel evaluation reads it)."""

    R: float
    B: float

    def __post_init__(self) -> None:
        if not (1.0 < self.R < math.inf):
            raise DomainError(f"outer radius must be finite with R > 1, got R={self.R}")
        if not (0.5 < self.B < math.inf):
            raise DomainError(f"magnetic weight must be finite with B > 1/2, got B={self.B}")
        object.__setattr__(self, "log_R", math.log(self.R))

    @property
    def radial_scale(self) -> float:
        """log(R)/pi, the constant relating zeta to log|z|."""
        return self.log_R / math.pi

    def is_integer_B(self) -> bool:
        """Whether B is a positive integer, within _INTEGRALITY_TOL.

        Integrality of B is the quantization condition under which the
        theta-function representation holds.
        """
        return abs(self.B - round(self.B)) <= _INTEGRALITY_TOL and round(self.B) >= 1

    def boundary_distance(self, z: complex) -> float:
        """Distance of |z| to the nearer boundary circle."""
        r = abs(z)
        return min(r - 1.0, self.R - r)


def require_interior(z: complex, params: AnnulusParams) -> complex:
    """Return z as complex, raising DomainError unless it is safely interior.

    An ndarray of points is returned as a complex ndarray and must be
    interior at every element; the error names the first point that is not.
    """
    margin = BOUNDARY_MARGIN_FACTOR * (params.R - 1.0)
    if isinstance(z, np.ndarray):
        zc = z.astype(complex, copy=False)
        r = np.abs(zc)
        inside = (r - 1.0 > margin) & (params.R - r > margin)
        if inside.all():
            return zc
        r = float(r[~inside].flat[0])
    else:
        zc = complex(z)
        r = abs(zc)
    if not (r - 1.0 > margin and params.R - r > margin):
        raise DomainError(
            f"point with |z|={r:.17g} is not interior to the annulus "
            f"1 < |z| < {params.R} (margin {margin:.3g})"
        )
    return zc


def zeta_coordinate(z: complex, params: AnnulusParams) -> float:
    """zeta = (pi / log R) * log|z|, strictly inside (0, pi) for interior z."""
    zc = require_interior(z, params)
    return math.pi * math.log(abs(zc)) / params.log_R


def xi_nodes(z: np.ndarray, params: AnnulusParams) -> np.ndarray:
    """xi = cot(zeta) at each point of an ndarray, in binary64: the one
    evaluation of the cot-coordinate.  No interior check."""
    zeta = math.pi * np.log(np.abs(z)) / params.log_R
    return np.cos(zeta) / np.sin(zeta)


def xi_coordinate(z: complex, params: AnnulusParams) -> float:
    """xi = cot(zeta(z)), xi_nodes at one point; diverges at the boundary
    circles."""
    return float(xi_nodes(np.array([require_interior(z, params)]), params)[0])


def poincare_density(z: complex, params: AnnulusParams) -> float:
    """Hyperbolic (Poincare) density of the annulus,

        omega_R(z) = (log R / pi) * |z| * sin(pi log|z| / log R).

    Strictly positive in the interior, vanishing at both boundary circles.
    """
    zeta = zeta_coordinate(z, params)
    return params.radial_scale * abs(complex(z)) * math.sin(zeta)


def poincare_density_dz(z: complex, params: AnnulusParams) -> complex:
    """The Wirtinger derivative d(omega_R)/dz.

    With c = log(R)/pi and zeta as above,

        d(omega_R)/dz = (conj(z) / (2|z|)) * (c sin(zeta) + cos(zeta)),

    which is the radial derivative c*sin(zeta) + cos(zeta) times the usual
    dz-factor conj(z)/(2|z|) of a radial function.
    """
    zc, zeta = complex(z), zeta_coordinate(z, params)
    radial = params.radial_scale * math.sin(zeta) + math.cos(zeta)
    return zc.conjugate() / (2.0 * abs(zc)) * radial


def invert_point(z: complex, params: AnnulusParams) -> complex:
    """The inversion automorphism z -> R/z of the annulus."""
    return require_interior(params.R / require_interior(z, params), params)


def alpha_index(j: int, params: AnnulusParams) -> float:
    """alpha(j, B) = (2/pi) * (j + B) * log R, linear in the basis index j."""
    return 2.0 * (j + params.B) * params.log_R / math.pi


def polar_point(zeta: float, theta: float, params: AnnulusParams) -> complex:
    """The point with radial coordinate zeta in (0, pi) and argument theta,
    i.e. |z| = R^(zeta/pi)."""
    if not (0.0 < zeta < math.pi):
        raise DomainError(f"zeta must lie in (0, pi), got {zeta}")
    r = math.exp(params.radial_scale * zeta)
    return r * cmath.exp(1j * theta)
