"""Quadrature over the annulus against the weighted area measure.

In the coordinates (zeta, theta) with |z| = R^(zeta/pi), the weighted
integral becomes

    int_Omega f(z) omega_R(z)^e dA(z)
        = c^(e+1) int_0^(2pi) int_0^pi f(z) R^((e+2) zeta/pi) (sin zeta)^e
          dzeta dtheta,         c = log(R)/pi,

which is smooth and periodic in theta (trapezoid rule, exact for angular
modes below the node count) and smooth in zeta for e >= 0 (Gauss-Legendre).
The default exponent e = 2B - 2 is the measure the kernel theory lives in;
for 1/2 < B < 1 it lies in (-1, 0), where (sin zeta)^e is integrable but
unbounded at the ends, the case the endpoint rule below is built for (and
which ``annulus_integrate`` hands to it); the plain rule refuses it.
Exponents e <= -1 are refused: the integral diverges.

Two radial rules are provided.  ``annulus_nodes`` places Gauss-Legendre
nodes directly in zeta and is spectrally accurate for integrands smooth up
to the boundary.  ``annulus_nodes_endpoint`` maps each half-interval
through zeta = t^2 before placing the nodes; the square-root substitution
turns an integrable algebraic boundary factor (sin zeta)^sigma with
sigma > -1 into a smooth one, which matters for products of level-m basis
functions (they carry (cot zeta)^(2m) against the weight's (sin zeta)^e,
a net exponent e - 2m that can be negative).

Both rules take their Gauss-Legendre nodes and weights from one cached,
read-only rule per node count (``_leggauss``), so a rule is built once per
process; every call still returns fresh node and weight arrays.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .geometry import AnnulusParams

DEFAULT_N_ANGULAR = 128
DEFAULT_N_RADIAL = 96


@dataclass(frozen=True)
class QuadratureSpec:
    """Node counts and weight exponent of an annulus quadrature rule.

    weight_exponent None means "use 2B - 2 of the parameter set at hand";
    either way it must exceed -1.
    n_angular must be even (trapezoid symmetry), n_radial at least 32.
    """

    n_angular: int = DEFAULT_N_ANGULAR
    n_radial: int = DEFAULT_N_RADIAL
    weight_exponent: float | None = None

    def __post_init__(self) -> None:
        if self.n_angular < 2 or self.n_angular % 2 != 0:
            raise DomainError(
                f"n_angular must be a positive even number, got {self.n_angular}"
            )
        if self.n_radial < 32:
            raise DomainError(f"n_radial must be at least 32, got {self.n_radial}")

    def resolve_exponent(self, params: AnnulusParams) -> float:
        e = 2.0 * params.B - 2.0 if self.weight_exponent is None else self.weight_exponent
        if not (e > -1.0):
            raise DomainError(
                f"weight exponent must exceed -1 (got e={e}); (sin zeta)^e "
                "is not integrable at the boundary for e <= -1"
            )
        return e


@functools.cache
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], built once per n and
    read-only, since every caller shares them."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _tensor_nodes(
    params: AnnulusParams,
    e: float,
    zeta: np.ndarray,
    w_zeta: np.ndarray,
    sin_zeta: np.ndarray,
    n_angular: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Tensor a radial rule in zeta with the angular trapezoid rule.

    sin_zeta is passed separately so callers can supply sin(zeta) without
    the cancellation that direct evaluation suffers near zeta = pi.
    """
    c = params.radial_scale
    radial_factor = params.R ** ((e + 2.0) * zeta / math.pi) * sin_zeta**e

    theta = 2.0 * math.pi * np.arange(n_angular) / n_angular
    w_theta = 2.0 * math.pi / n_angular

    r = params.R ** (zeta / math.pi)
    z = r[:, None] * np.exp(1j * theta)[None, :]
    w = (c ** (e + 1.0) * w_theta) * (w_zeta * radial_factor)[:, None]
    w = np.broadcast_to(w, z.shape).copy()
    return z, w


def annulus_nodes(
    params: AnnulusParams, spec: QuadratureSpec = QuadratureSpec()
) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature nodes and weights for the weighted annulus integral.

    Returns (z, w): complex nodes of shape (n_radial, n_angular) and real
    weights of the same shape, such that sum(w * f(z)) approximates the
    integral of f against omega^e dA with e = spec.resolve_exponent(params).
    e < 0 raises DomainError: annulus_nodes_endpoint is the rule for it.
    """
    e = spec.resolve_exponent(params)
    if e < 0.0:
        raise DomainError(
            f"weight exponent e={e} < 0 is unbounded at the boundary, where "
            "plain Gauss-Legendre weights are wrong; use annulus_nodes_endpoint"
        )
    x, gw = _leggauss(spec.n_radial)
    zeta = 0.5 * math.pi * (x + 1.0)
    w_zeta = 0.5 * math.pi * gw
    return _tensor_nodes(params, e, zeta, w_zeta, np.sin(zeta), spec.n_angular)


def annulus_nodes_endpoint(
    params: AnnulusParams, spec: QuadratureSpec = QuadratureSpec()
) -> tuple[np.ndarray, np.ndarray]:
    """Endpoint-adapted variant of ``annulus_nodes``.

    Same shapes and weight conventions, but the radial nodes come from
    Gauss-Legendre rules on the two half-intervals mapped through
    zeta = t^2 (respectively zeta = pi - t^2).  The substitution restores
    rapid convergence for integrands with an integrable algebraic factor
    (sin zeta)^sigma, sigma > -1, at the radial boundary -- the regime of
    level-m basis products when 2(B - m) - 2 < 0.  The total radial node
    count remains spec.n_radial (split between the halves).
    """
    e = spec.resolve_exponent(params)
    half = math.sqrt(0.5 * math.pi)
    n_left = spec.n_radial // 2
    n_right = spec.n_radial - n_left

    zetas: list[np.ndarray] = []
    weights: list[np.ndarray] = []
    sines: list[np.ndarray] = []
    for n, flip in ((n_left, False), (n_right, True)):
        x, gw = _leggauss(n)
        t = 0.5 * half * (x + 1.0)
        w_t = 0.5 * half * gw
        zeta_half = t * t
        w_half = 2.0 * t * w_t
        # sin(pi - t^2) = sin(t^2): evaluate at the small argument so the
        # flipped half does not lose digits to pi - t^2 cancellation.
        sin_half = np.sin(zeta_half)
        if flip:
            zeta_half = (math.pi - zeta_half)[::-1]
            w_half = w_half[::-1]
            sin_half = sin_half[::-1]
        zetas.append(zeta_half)
        weights.append(w_half)
        sines.append(sin_half)

    zeta = np.concatenate(zetas)
    w_zeta = np.concatenate(weights)
    sin_zeta = np.concatenate(sines)
    return _tensor_nodes(params, e, zeta, w_zeta, sin_zeta, spec.n_angular)


def annulus_integrate(
    f,
    params: AnnulusParams,
    spec: QuadratureSpec = QuadratureSpec(),
) -> complex:
    """Integral of f against omega^e dA over the annulus.

    f must accept a complex ndarray of points and return an ndarray of
    values of the same shape (vectorized contract; no scalar fallback).
    For e < 0 the weight is unbounded at both circles and the nodes come
    from the endpoint-adapted rule: plain Gauss-Legendre converges only
    algebraically there (about 1e-2 relative at 96 radial nodes, e = -1/2).
    """
    negative = spec.resolve_exponent(params) < 0.0
    z, w = (annulus_nodes_endpoint if negative else annulus_nodes)(params, spec)
    values = np.asarray(f(z))
    if values.shape != z.shape:
        raise DomainError(
            f"integrand returned shape {values.shape}, expected {z.shape}; "
            "integrands must be vectorized over node arrays"
        )
    return complex(np.sum(w * values))
