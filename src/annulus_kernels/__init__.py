"""Polyanalytic reproducing kernels of the magnetic Laplacian on an annulus.

Constructs and evaluates the reproducing kernels K_m(z, w) of the
Landau-level eigenspaces of the weighted (magnetic) Laplacian on the ring
1 < |z| < R, and verifies the closed-form identities behind them — basis
norms, kernel formulas, theta-function representations, and the inversion
covariance rule — by independent quadrature and multi-path cross-checks.
"""

from __future__ import annotations

from .basis import (
    admissible_levels,
    basis_norm_sq,
    basis_phi,
    basis_phi_nodes,
    cr_apply,
    invariant_laplacian_apply,
    landau_level_eigenvalue,
    log_basis_norm_sq,
    sturm_liouville_apply,
)
from .errors import (
    ConvergenceError,
    DomainError,
    ImaginaryResidueError,
    InadmissibleLevelError,
    KernelError,
    PoleError,
    UnknownSuiteError,
    UnsupportedPathError,
)
from .geometry import (
    AnnulusParams,
    alpha_index,
    invert_point,
    poincare_density,
    polar_point,
    xi_coordinate,
    zeta_coordinate,
)
from .kernels import (
    KERNEL_PATHS,
    KernelEvaluation,
    PairGeometry,
    inversion_covariance_residual,
    kernel_basis_sum_oracle,
    kernel_by_path,
    kernel_jacobi_product_sum,
    kernel_k0_integer_product,
    kernel_km,
    kernel_km_grid,
    kernel_km_theta,
    kernel_limit_R_inf,
    sigma_kl,
    sigma_theta_path,
)
from .quadrature import (
    QuadratureSpec,
    annulus_integrate,
    annulus_nodes,
    annulus_nodes_endpoint,
)
from .special import (
    DEFAULT_SERIES,
    JacobiParams,
    SeriesControl,
    gamma_abs_sq,
    jacobi_poly,
    log_gamma,
    theta4,
    theta4_log_derivative,
)
from .verify import (
    SuiteOptions,
    SuiteReport,
    gram_matrix,
    reproducing_residual,
    run_suite,
    sample_pairs,
    sample_points,
)

__version__ = "0.1.0"

__all__ = [
    "AnnulusParams",
    "ConvergenceError",
    "DEFAULT_SERIES",
    "DomainError",
    "ImaginaryResidueError",
    "InadmissibleLevelError",
    "JacobiParams",
    "KERNEL_PATHS",
    "KernelError",
    "KernelEvaluation",
    "PairGeometry",
    "PoleError",
    "QuadratureSpec",
    "SeriesControl",
    "SuiteOptions",
    "SuiteReport",
    "UnknownSuiteError",
    "UnsupportedPathError",
    "admissible_levels",
    "alpha_index",
    "annulus_integrate",
    "annulus_nodes",
    "annulus_nodes_endpoint",
    "basis_norm_sq",
    "basis_phi",
    "basis_phi_nodes",
    "cr_apply",
    "gamma_abs_sq",
    "gram_matrix",
    "invariant_laplacian_apply",
    "inversion_covariance_residual",
    "invert_point",
    "jacobi_poly",
    "kernel_basis_sum_oracle",
    "kernel_by_path",
    "kernel_jacobi_product_sum",
    "kernel_k0_integer_product",
    "kernel_km",
    "kernel_km_grid",
    "kernel_km_theta",
    "kernel_limit_R_inf",
    "landau_level_eigenvalue",
    "log_basis_norm_sq",
    "log_gamma",
    "poincare_density",
    "polar_point",
    "reproducing_residual",
    "run_suite",
    "sample_pairs",
    "sample_points",
    "sigma_kl",
    "sigma_theta_path",
    "sturm_liouville_apply",
    "theta4",
    "theta4_log_derivative",
    "xi_coordinate",
    "zeta_coordinate",
    "__version__",
]
