"""Acceptance gate: eleven end-to-end criteria, one test each, every one
printing a single pass/fail line with its measured runtime against the
stated budget (visible under `pytest -s`).

The criteria pin: closed-form norms against quadrature, Gram identity,
closed kernel against the basis-sum oracle, the m = 0 reduction, the
three integer-B representation paths, the reproducing property, the
eigen-residuals, polyanalyticity orders, inversion covariance, the
special-function identity suite, and the large-R limit trend.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest
import scipy.special as sc

from annulus_kernels import (
    AnnulusParams,
    QuadratureSpec,
    SeriesControl,
    admissible_levels,
    annulus_nodes,
    basis_norm_sq,
    basis_phi,
    basis_phi_nodes,
    cr_apply,
    gram_matrix,
    invariant_laplacian_apply,
    inversion_covariance_residual,
    kernel_basis_sum_oracle,
    kernel_k0_integer_product,
    kernel_km,
    kernel_km_theta,
    kernel_limit_R_inf,
    landau_level_eigenvalue,
    reproducing_residual,
    run_suite,
    sample_pairs,
    sample_points,
    sturm_liouville_apply,
)
from annulus_kernels.errors import UnsupportedPathError

SEED = 7
CTRL = SeriesControl()


def _criterion(num: int, desc: str, passed: bool, detail: str,
               elapsed: float, budget: float) -> None:
    verdict = "PASS" if passed else "FAIL"
    line = (
        f"criterion {num:02d} {verdict} — {desc} "
        f"({detail}; {elapsed:.1f}s / {budget:.0f}s budget)"
    )
    print(line)
    assert passed, line
    assert elapsed <= budget, (
        f"criterion {num:02d} exceeded its runtime budget: "
        f"{elapsed:.1f}s > {budget:.0f}s"
    )


def test_criterion_01_norms_vs_quadrature():
    start = time.perf_counter()
    p = AnnulusParams(R=4.0, B=3.0)
    z, wq = annulus_nodes(p, QuadratureSpec())
    flat, wf = z.ravel(), wq.ravel()
    worst = 0.0
    for m in admissible_levels(p):
        for j in range(-10, 11):
            closed = basis_norm_sq(j, m, p)
            quad = float(np.sum(wf * np.abs(basis_phi_nodes(j, m, flat, p)) ** 2))
            worst = max(worst, abs(quad - closed) / closed)
    elapsed = time.perf_counter() - start
    _criterion(
        1, "norm closed form vs quadrature, (R,B)=(4,3), m in {0,1,2}, |j|<=10",
        worst <= 1e-7, f"max rel {worst:.2e} <= 1e-7", elapsed, 30.0,
    )


def test_criterion_02_gram_identity():
    start = time.perf_counter()
    worst = 0.0
    for R, B in ((4.0, 3.0), (2.0, 1.0), (9.0, 2.0)):
        p = AnnulusParams(R=R, B=B)
        js = [
            j
            for j in range(-8 - int(math.ceil(B)), 9)
            if abs(j + B) <= 8.0
        ]
        for m in admissible_levels(p):
            g = gram_matrix(m, js, QuadratureSpec(), p)
            worst = max(worst, float(np.abs(g - np.eye(len(js))).max()))
    elapsed = time.perf_counter() - start
    _criterion(
        2, "Gram identity over |j+B|<=8 at (4,3),(2,1),(9,2), all m",
        worst <= 1e-6, f"max |G - I| {worst:.2e} <= 1e-6", elapsed, 60.0,
    )


def test_criterion_03_closed_vs_basis_sum_oracle():
    start = time.perf_counter()
    tol = 1e-8
    worst = 0.0
    levels_with_odd_m = False
    for R, B in ((4.0, 3.0), (6.0, 2.75)):
        p = AnnulusParams(R=R, B=B)
        pairs = sample_pairs(p, 20, SEED)
        for m in admissible_levels(p):
            levels_with_odd_m = levels_with_odd_m or (m % 2 == 1)
            for z, w in pairs:
                closed = kernel_km(m, z, w, p, CTRL, rounding_rtol=tol / 10).value
                oracle = kernel_basis_sum_oracle(
                    m, z, w, p, tol=1e-12, rounding_rtol=tol / 10
                ).value
                worst = max(worst, abs(closed - oracle) / abs(oracle))
    elapsed = time.perf_counter() - start
    _criterion(
        3, "closed kernel vs basis-sum oracle, (4,3) and (6,2.75), 20 pairs, "
           "all m (odd-m sign pinned)",
        worst <= tol and levels_with_odd_m,
        f"max rel {worst:.2e} <= 1e-8", elapsed, 30.0,
    )


def test_criterion_04_m0_reduction():
    # kernel_km at m = 0 against the compact single-series form written out
    # here, which checks the (k, l) contraction and the K_m prefactor at
    # m = 0 through Gamma(2B) = (2B-1) Gamma(2B-1):
    #   K_0 = (2 pi)^(2B-3) / (Gamma(2B-1) R^B log(R)^(2B-1))
    #         * sum_j |Gamma(B + i (j+B) log(R)/pi)|^2 (z conj(w)/R)^j.
    # The two sums round differently, so the defect is measured against the
    # summed term magnitudes (the rounding scale), not the cancelled value.
    start = time.perf_counter()
    p = AnnulusParams(R=4.0, B=3.0)
    j = np.arange(-200, 201)
    y = (j + p.B) * math.log(p.R) / math.pi
    pref = (2 * math.pi) ** (2 * p.B - 3) / (
        math.gamma(2 * p.B - 1) * p.R**p.B * math.log(p.R) ** (2 * p.B - 1)
    )
    worst = 0.0
    for z, w in sample_pairs(p, 20, SEED):
        full = kernel_km(0, z, w, p, CTRL).value
        terms = pref * np.exp(
            2.0 * sc.loggamma(p.B + 1j * y).real + j * np.log(z * np.conj(w) / p.R)
        )
        worst = max(worst, abs(full - terms.sum()) / np.abs(terms).sum())
    elapsed = time.perf_counter() - start
    _criterion(
        4, "m = 0 kernel vs compact single-series form written out with loggamma",
        worst <= 1e-12, f"max defect / gross {worst:.2e} <= 1e-12", elapsed, 5.0,
    )


def test_criterion_05_three_path_integer_B():
    start = time.perf_counter()
    tol = 1e-9
    worst = 0.0
    for R, B in ((4.0, 1.0), (4.0, 2.0), (9.0, 3.0)):
        p = AnnulusParams(R=R, B=B)
        for z, w in sample_pairs(p, 20, SEED):
            closed = kernel_km(0, z, w, p, CTRL, rounding_rtol=tol / 10).value
            product = kernel_k0_integer_product(
                z, w, p, CTRL, rounding_rtol=tol / 10
            )
            theta = kernel_km_theta(0, z, w, p, CTRL, rounding_rtol=tol / 10).value
            scale = abs(closed)
            worst = max(
                worst,
                abs(closed - product) / scale,
                abs(closed - theta) / scale,
                abs(product - theta) / scale,
            )
    elapsed = time.perf_counter() - start
    _criterion(
        5, "three-path agreement (closed, product, theta) at (4,1),(4,2),(9,3)",
        worst <= tol, f"max pairwise rel {worst:.2e} <= 1e-9", elapsed, 30.0,
    )


def test_criterion_06_reproducing_property():
    start = time.perf_counter()
    p = AnnulusParams(R=4.0, B=3.0)
    pts = sample_points(p, 5, SEED)
    worst = 0.0
    for m in admissible_levels(p):
        for j0 in (-2, 0, 3):
            for z in pts:
                worst = max(
                    worst, reproducing_residual(m, z, j0, QuadratureSpec(), p, CTRL)
                )
    elapsed = time.perf_counter() - start
    _criterion(
        6, "reproducing property at (4,3), m in {0,1,2}, j0 in {-2,0,3}, 5 points",
        worst <= 1e-6, f"max residual {worst:.2e} <= 1e-6", elapsed, 120.0,
    )


def test_criterion_07_eigen_residuals():
    start = time.perf_counter()
    p = AnnulusParams(R=4.0, B=3.0)
    pts = sample_points(p, 3, SEED)
    worst_fd = 0.0
    for m in admissible_levels(p):
        lam = landau_level_eigenvalue(m, p)
        for j in (-4, 0, 4):
            for z0 in pts:
                f = lambda z, j=j, m=m: basis_phi(j, m, z, p)
                got = invariant_laplacian_apply(f, z0, p)
                want = lam * f(z0)
                worst_fd = max(
                    worst_fd, abs(got - want) / max(abs(want), abs(f(z0)))
                )
    rng = np.random.default_rng(SEED)
    worst_sl = 0.0
    for m in admissible_levels(p):
        for j in (-10, -2, 0, 7):
            for xi in rng.uniform(-3.0, 3.0, size=8):
                worst_sl = max(worst_sl, abs(sturm_liouville_apply(m, j, float(xi), p)))
    elapsed = time.perf_counter() - start
    _criterion(
        7, "eigen-residuals: finite-difference Laplacian and exact Sturm-Liouville",
        worst_fd <= 1e-4 and worst_sl <= 1e-9,
        f"FD {worst_fd:.2e} <= 1e-4, SL {worst_sl:.2e} <= 1e-9", elapsed, 30.0,
    )


def test_criterion_08_polyanalyticity_orders():
    start = time.perf_counter()
    p = AnnulusParams(R=4.0, B=3.0)
    pts = sample_points(p, 2, SEED)
    worst_rung = 0.0
    worst_ann = 0.0
    worst_ratio = math.inf
    exact_zero = True
    for m in admissible_levels(p):
        for j in (-1, 2):
            for z0 in pts:
                g = [basis_phi(j, m, z0, p, k) for k in range(m + 2)]
                exact_zero = exact_zero and g[m + 1] == 0
                for k in range(m + 1):
                    f = lambda z, k=k, j=j, m=m: basis_phi(j, m, z, p, k)
                    fd = cr_apply(f, z0, p)
                    if k < m:
                        scale = max(abs(g[k]), abs(g[k + 1]), 1.0)
                        worst_rung = max(worst_rung, abs(fd - g[k + 1]) / scale)
                worst_ann = max(worst_ann, abs(fd) / max(abs(g[m]), 1.0))
                if m >= 1:
                    worst_ratio = min(worst_ratio, abs(g[m]) / max(abs(fd), 1e-300))
    elapsed = time.perf_counter() - start
    _criterion(
        8, "polyanalyticity: the (m+1)-th weighted CR power annihilates, the m-th does not",
        exact_zero and worst_rung <= 1e-8 and worst_ann <= 1e-8 and worst_ratio >= 10.0,
        f"ladder rungs {worst_rung:.2e} <= 1e-8, annihilation {worst_ann:.2e} <= 1e-8, "
        f"order ratio >= {worst_ratio:.1f}x",
        elapsed, 30.0,
    )


def test_criterion_09_inversion_covariance():
    start = time.perf_counter()
    p = AnnulusParams(R=4.0, B=3.0)
    worst = 0.0
    for m in admissible_levels(p):
        for z, w in sample_pairs(p, 20, SEED):
            worst = max(worst, inversion_covariance_residual(m, z, w, p, CTRL))
    with pytest.raises(UnsupportedPathError):
        inversion_covariance_residual(0, 1.5, 2.0, AnnulusParams(R=4.0, B=2.75), CTRL)
    elapsed = time.perf_counter() - start
    _criterion(
        9, "inversion covariance at (4,3), all m, 20 pairs; B with 2B non-integer rejected",
        worst <= 1e-10, f"max residual {worst:.2e} <= 1e-10", elapsed, 10.0,
    )


def test_criterion_10_identity_suite():
    start = time.perf_counter()
    rep = run_suite("special-functions", AnnulusParams(R=4.0, B=3.0))
    elapsed = time.perf_counter() - start
    worst = max(rep.residuals, key=lambda e: e.value / e.tolerance)
    _criterion(
        10, "special-function identity suite (Bateman, Jacobi symmetry, "
            "Rodrigues, Cauchy Beta, pair-product path, reflection)",
        rep.passed, f"worst entry {worst.name} {worst.value:.2e}/{worst.tolerance:.0e}",
        elapsed, 20.0,
    )


def test_criterion_11_large_R_trend():
    start = time.perf_counter()
    pairs = ((1.5 + 0.2j, 2.2 - 0.5j), (2.5 + 0.0j, 1.3 + 1.1j))
    ok = True
    worst_desc = ""
    for B in (1.0, 2.0):
        for z, w in pairs:
            deltas = []
            for R in (8.0, 16.0, 32.0):
                p = AnnulusParams(R=R, B=B)
                finite = kernel_km(0, z, w, p, CTRL).value
                limit = kernel_limit_R_inf(z, w, B)
                deltas.append(abs(finite - limit))
            decreasing = deltas[0] > deltas[1] > deltas[2]
            ok = ok and decreasing
            if not decreasing and not worst_desc:
                worst_desc = f"B={B}, z={z}: {deltas}"
    elapsed = time.perf_counter() - start
    _criterion(
        11, "finite-R kernel approaches the R->infinity limit monotonically "
            "over R in {8,16,32}, B in {1,2}",
        ok, worst_desc or "strictly decreasing at all probes", elapsed, 10.0,
    )
