"""Tests of the verification harness: suite dispatch, report schema,
determinism, and the quadrature-backed operations it builds on."""

from __future__ import annotations

import math
import os
import subprocess
import sys

import numpy as np
import pytest

from annulus_kernels import verify
from annulus_kernels.errors import (
    ConvergenceError,
    DomainError,
    UnknownSuiteError,
    UnsupportedPathError,
)
from annulus_kernels.geometry import AnnulusParams, polar_point
from annulus_kernels.quadrature import QuadratureSpec
from annulus_kernels.special import SeriesControl
from annulus_kernels.verify import (
    ResidualEntry,
    SUITE_NAMES,
    SuiteOptions,
    gram_matrix,
    reproducing_residual,
    run_suite,
    sample_pairs,
    sample_points,
)

P43 = AnnulusParams(R=4.0, B=3.0)
P41 = AnnulusParams(R=4.0, B=1.0)


def test_suite_names_cover_contract():
    for name in (
        "special-functions",
        "geometry",
        "basis",
        "gram",
        "reproducing",
        "eigen",
        "polyanalytic",
        "multipath",
        "inversion",
        "theta",
        "all",
    ):
        assert name in SUITE_NAMES


def test_unknown_suite_rejected():
    with pytest.raises(UnknownSuiteError):
        run_suite("bogus", P43)


def test_suite_point_budget_must_be_an_integer():
    # n_points=2.5 once passed, and run_suite then raised a bare TypeError
    with pytest.raises(DomainError, match="n_points"):
        SuiteOptions(n_points=2.5)


def test_integer_only_suites_reject_fractional_B():
    # 2B = 5.5: neither the inversion rule nor the theta path holds
    p = AnnulusParams(R=4.0, B=2.75)
    with pytest.raises(UnsupportedPathError):
        run_suite("inversion", p)
    with pytest.raises(UnsupportedPathError):
        run_suite("theta", p)


def test_all_suite_skips_integer_only_at_fractional_B():
    p = AnnulusParams(R=2.5, B=1.25)
    rep = run_suite("all", p)
    assert rep.passed
    prefixes = {e.name.split("/")[0] for e in rep.residuals}
    assert "inversion" not in prefixes and "theta" not in prefixes
    assert "multipath" in prefixes and "basis" in prefixes


def test_all_suite_includes_inversion_at_half_integer_B():
    rep = run_suite("all", AnnulusParams(R=4.0, B=2.5))
    assert rep.passed
    prefixes = {e.name.split("/")[0] for e in rep.residuals}
    assert "inversion" in prefixes and "theta" not in prefixes


@pytest.mark.parametrize("R", [1.2, 1.5, 4.0, 50.0])
@pytest.mark.parametrize("B", [1.5, 2.5])
def test_inversion_holds_at_half_integer_B(R, B):
    # j -> -j - 2B maps the index ladder onto itself whenever 2B is an
    # integer: 1.35e-14 to 9.06e-11 at seed 7.  (50, 2.5), at 9.06e-11, is
    # near the tolerance, as (50, 3) is past it (ROADMAP defect 3):
    # |z conj(w)/R|^(2B) multiplies the binary64 rounding of the lhs
    (residual,) = run_suite("inversion", AnnulusParams(R=R, B=B)).residuals
    assert residual.value <= residual.tolerance == 1e-10


def test_report_schema_and_pass_consistency():
    rep = run_suite("geometry", P41)
    d = rep.to_json_dict()
    assert set(d) == {"suite", "params", "residuals", "pass", "runtime_s"}
    assert set(d["params"]) == {"R", "B", "m", "window", "seed"}
    assert d["suite"] == "geometry"
    assert isinstance(d["pass"], bool)
    assert d["runtime_s"] >= 0.0
    for entry in d["residuals"]:
        assert set(entry) == {"name", "value", "tolerance"}
    assert rep.passed == all(e.value <= e.tolerance for e in rep.residuals)
    assert rep.passed


def test_residual_entry_pass_semantics():
    assert ResidualEntry("x", 1e-9, 1e-8).passed
    assert ResidualEntry("x", 1e-8, 1e-8).passed  # boundary counts as pass
    assert not ResidualEntry("x", 2e-8, 1e-8).passed


def test_worst_keeps_the_first_largest_case_and_any_nan():
    worst = verify._worst
    assert worst("x", 1.0, [0.5, 2.0, 1.0, 2.0], "abcd") == (ResidualEntry("x", 2.0, 1.0), "b")
    assert worst("x", 1.0, [0.0, 0.0], "ab") == (ResidualEntry("x", 0.0, 1.0), "a")
    entry, case = worst("x", 1.0, [3.0, math.nan, np.inf, math.nan], "abcd")
    assert math.isnan(entry.value) and not entry.passed and case == "b"
    assert worst("x", 1.0, []) == ResidualEntry("x", 0.0, 1.0)
    assert worst("x", 1.0, [], []) == (ResidualEntry("x", 0.0, 1.0), None)
    assert type(worst("x", 1.0, [np.float64(0.25)]).value) is float


def test_a_nan_defect_fails_its_suite(monkeypatch):
    monkeypatch.setattr(verify, "inversion_covariance_residual", lambda *args: math.nan)
    rep = run_suite("inversion", P43, SuiteOptions(n_points=2))
    assert [e.name for e in rep.residuals] == ["inversion-covariance"]
    assert math.isnan(rep.residuals[0].value) and not rep.passed


@pytest.mark.parametrize("defect", [math.nan, 0.0])
def test_reproducing_suite_reports_degenerate_defects(monkeypatch, defect):
    # every case ties, so the first is re-evaluated for the delta
    re_evaluated = []

    def constant(m_kernel, m_function, z, j0s, spec, params, ctrl, refined=False):
        if refined:
            re_evaluated.append((m_kernel, z, tuple(j0s)))
        return [defect] * len(j0s)

    monkeypatch.setattr(verify, "_reproducing_defect", constant)
    p = AnnulusParams(R=50.0, B=2.0)
    rep = run_suite("reproducing", p)
    values = {e.name: e.value for e in rep.residuals}
    assert set(values) == {
        "reproducing-identity", "reproducing-self-convergence-delta", "cross-level-separation"
    }
    first = sample_points(p, verify.REPRODUCING_POINTS, 7 + 303)[0]
    assert re_evaluated == [(0, first, (-2,))]
    if math.isnan(defect):
        assert all(math.isnan(v) for v in values.values())
    else:
        assert values["reproducing-identity"] == values["reproducing-self-convergence-delta"] == 0.0
    assert not rep.passed


def test_reports_deterministic_given_seed():
    a = run_suite("eigen", P43)
    b = run_suite("eigen", P43)
    assert a.canonical() == b.canonical()
    c = run_suite("eigen", P43, SuiteOptions(seed=99))
    assert c.params["seed"] == 99
    assert c.canonical() != a.canonical()


def test_sample_points_seeded_and_interior():
    pts1 = sample_points(P43, 12, seed=5)
    pts2 = sample_points(P43, 12, seed=5)
    pts3 = sample_points(P43, 12, seed=6)
    assert pts1 == pts2
    assert pts1 != pts3
    for z in pts1:
        assert 1.0 < abs(z) < P43.R


def test_sample_pairs_consecutive():
    pairs = sample_pairs(P43, 4, seed=3)
    flat = sample_points(P43, 8, seed=3)
    assert [p for pair in pairs for p in pair] == flat


def test_gram_identity_small_window():
    g = gram_matrix(0, range(-2, 3), QuadratureSpec(), P43)
    assert np.abs(g - np.eye(5)).max() < 1e-7


def test_gram_identity_singular_level():
    # B - m < 1: the integrand carries an integrable boundary singularity
    # and the endpoint-adapted rule keeps the diagonal accurate
    p = AnnulusParams(R=6.0, B=2.75)
    g = gram_matrix(2, range(-2, 3), QuadratureSpec(), p)
    assert np.abs(g - np.eye(5)).max() < 1e-7


def test_reproducing_residual_single_point():
    z = 2.0 * complex(math.cos(0.4), math.sin(0.4))
    assert reproducing_residual(0, z, 0, QuadratureSpec(), P41) < 1e-6


@pytest.mark.parametrize("R, B", [(1.5, 2.0), (1.2, 3.0)])
def test_reproducing_suite_passes_on_thin_annuli(R, B):
    # the angular rule is sized with the modes' growth |j + B|^(2B - 1)
    rep = run_suite("reproducing", AnnulusParams(R=R, B=B), SuiteOptions(seed=7))
    assert rep.passed, [(e.name, e.value, e.tolerance) for e in rep.residuals]


def test_refined_reproducing_rule_has_more_angular_nodes(monkeypatch):
    # the self-convergence delta can see an angular shortfall only if the
    # refined rule keeps more angular nodes than the bumped base rule
    p = AnnulusParams(R=1.5, B=2.0)
    z = polar_point(0.3 * math.pi, 0.4, p)
    used = []
    level_nodes = verify._level_nodes

    def recording(params, spec, *orders):
        used.append(spec.n_angular)
        return level_nodes(params, spec, *orders)

    monkeypatch.setattr(verify, "_level_nodes", recording)
    spec, ctrl = QuadratureSpec(), SeriesControl()
    verify._reproducing_defect(0, 0, z, (0,), spec, p, ctrl)
    base = used[-1]
    verify._reproducing_defect(0, 0, z, (0,), spec, p, ctrl, refined=True)
    assert spec.n_angular < base < used[-1]


@pytest.mark.parametrize("R, B", [(1.5, 2.75), (1.2, 2.0)])
def test_alias_free_count_covers_the_growing_modes(R, B):
    # at the returned count the edge modes q^n |n + B|^(2B-1) (relative to
    # j = 0) are below 1e-13 on both sides, with the kernel's decay ratios
    # 1/|z||w| and |z||w|/R^2 at the extreme nodes
    p = AnnulusParams(R=R, B=B)
    spec = QuadratureSpec()
    nodes, _ = verify._level_nodes(p, spec, 0, 0)
    for z in sample_points(p, 5, 7 + 303):
        n = (verify._alias_free_spec(z, nodes, p, spec) or spec).n_angular
        mods = abs(z) * np.abs(nodes)
        for q in (1.0 / mods.min(), mods.max() / R**2):
            assert q**n * ((n + B) / B) ** (2.0 * B - 1.0) <= 1e-13, (z, n, q)


def test_alias_free_spec_keeps_a_sufficient_rule():
    # on a wide annulus the kernel row's modes decay fast: no bump
    p = AnnulusParams(R=50.0, B=2.0)
    spec = QuadratureSpec()
    nodes, _ = verify._level_nodes(p, spec, 0, 0)
    z = polar_point(0.325 * math.pi, 1.0, p)
    assert verify._alias_free_spec(z, nodes, p, spec) is None


def test_reproducing_residual_refuses_points_off_its_rule():
    # a decay ratio >= 1 leaves no alias-free count: the kernel row refuses
    with pytest.raises(DomainError):
        reproducing_residual(0, 0.5, 0, QuadratureSpec(), P43)
    with pytest.raises(ConvergenceError):
        reproducing_residual(0, 3.9999, 0, QuadratureSpec(), P43)


def test_batched_basis_checks_stay_measured():
    # one Gram product over the window must leave the off-diagonal a
    # measured rounding residual, not an exact zero by construction
    opts = SuiteOptions(seed=7)
    gram = {e.name: e.value for e in run_suite("gram", P43, opts).residuals}
    assert 0.0 < gram["gram-off-diagonal"] < 1e-12
    basis = {e.name: e.value for e in run_suite("basis", P43, opts).residuals}
    assert basis["norm-closed-vs-quadrature"] < 1e-12


def test_basis_and_gram_suites_fractional_B():
    p = AnnulusParams(R=6.0, B=2.75)
    for name in ("basis", "gram"):
        rep = run_suite(name, p)
        assert rep.passed, [
            (e.name, e.value, e.tolerance) for e in rep.residuals if not e.passed
        ]


def test_geometry_suite_thin_annulus():
    rep = run_suite("geometry", AnnulusParams(R=2.0, B=1.0))
    assert rep.passed


ENVELOPE_SUITES = (
    "special-functions", "geometry", "basis", "gram", "eigen", "polyanalytic", "reproducing",
)


@pytest.mark.parametrize("B", [0.75, 1.0, 2.75, 3.0])
@pytest.mark.parametrize("R", [1.2, 1.5, 4.0, 50.0])
def test_suites_pass_over_the_envelope(R, B):
    # thin to wide annuli, integer and fractional B, and levels with B - m < 1
    # (B = 0.75 and 2.75); the suites that pass at every point of it
    p = AnnulusParams(R=R, B=B)
    for name in ENVELOPE_SUITES:
        rep = run_suite(name, p, SuiteOptions(seed=7))
        assert rep.passed, (name, [
            (e.name, e.value, e.tolerance) for e in rep.residuals if not e.passed
        ])
        assert all(type(e.value) is float for e in rep.residuals), name
        if name == "polyanalytic":
            # every level's ladder is checked; above level 0 its rungs too
            names = {e.name for e in rep.residuals}
            want = {"cr-annihilation"}
            if len(rep.params["m"]) > 1:
                want |= {"cr-ladder-fd", "cr-order-separation"}
            assert names == want


# cells where a reference path's 34-digit sum keeps no digit within the
# multipath suite's budget (conditions 9e26 to 3e34): the suite refuses them
MULTIPATH_REFUSALS = {(1.2, 2.75), (1.2, 3.0), (1.5, 2.75), (1.5, 3.0)}


@pytest.mark.parametrize("B", [0.75, 1.0, 2.75, 3.0])
@pytest.mark.parametrize("R", [1.2, 1.5, 4.0, 50.0])
def test_multipath_over_the_envelope(R, B):
    # the cross-path suite over the same cells: it passes, or on the thin
    # annuli at the larger B refuses with a typed error instead of a defect
    p = AnnulusParams(R=R, B=B)
    if (R, B) in MULTIPATH_REFUSALS:
        with pytest.raises(ConvergenceError, match="34-digit"):
            run_suite("multipath", p, SuiteOptions(seed=7))
        return
    rep = run_suite("multipath", p, SuiteOptions(seed=7))
    assert rep.passed, [(e.name, e.value, e.tolerance) for e in rep.residuals if not e.passed]


def test_all_report_prefixes_subsuite_names():
    rep = run_suite("all", AnnulusParams(R=4.0, B=1.0))
    assert rep.passed
    assert all("/" in e.name for e in rep.residuals)
    assert rep.params["m"] == [0]


_COLD_START = """
import contextlib, io, sys
module, out = sys.argv[1:]
import annulus_kernels
print("import", module in sys.modules)
from annulus_kernels import cli
common = ["--R", "4", "--B", "3", "--m", "2"]
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["eval", *common, "--z", "1.7+0.3i", "--w", "2.1-0.4i", "--path", "closed"])
print("eval", code, module in sys.modules)
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["grid", *common, "--w", "2+0.5i", "--n-rad", "3", "--n-ang", "4", "--out", out])
print("grid", code, module in sys.modules)
"""


def _fresh_python(code: str, *args: str) -> str:
    out = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}, timeout=120,
    )
    return out.stdout


@pytest.mark.parametrize("module", ["scipy.integrate", "scipy.special", "mpmath"])
def test_cold_start_leaves_module_unloaded(module, tmp_path):
    # the closed form and the grid need numpy alone: scipy.special serves
    # the reference paths and the suites, mpmath the 34-digit evaluation;
    # scipy.integrate loads nowhere (test_special_functions_suite_needs_no_scipy_integrate)
    out = _fresh_python(_COLD_START, module, str(tmp_path / "grid.csv"))
    assert out.splitlines() == ["import False", "eval 0 False", "grid 0 False"]
    assert len((tmp_path / "grid.csv").read_text().splitlines()) == 1 + 3 * 4


def test_special_functions_suite_needs_no_scipy_integrate():
    # its cauchy-beta-integral reference is the cached Gauss-Legendre rule
    code = """
import sys
from annulus_kernels import AnnulusParams
from annulus_kernels.verify import run_suite
report = run_suite("special-functions", AnnulusParams(R=4.0, B=3.0))
print(all(r.value <= r.tolerance for r in report.residuals), "scipy.integrate" in sys.modules)
"""
    assert _fresh_python(code).splitlines() == ["True False"]


def test_deferred_imports_load_on_first_use():
    code = """
import sys
from annulus_kernels import AnnulusParams, kernel_basis_sum_oracle, kernel_km
p = AnnulusParams(R=4.0, B=3.0)
print(kernel_km(1, 1.7 + 0.3j, 2.1 - 0.4j, p, rounding_rtol=0.0).precision)
print(complex(kernel_basis_sum_oracle(1, 1.7 + 0.3j, 2.1 - 0.4j, p).value) != 0)
print([m for m in ("scipy.special", "mpmath") if m in sys.modules])
"""
    assert _fresh_python(code).splitlines() == [
        "extended", "True", "['scipy.special', 'mpmath']"
    ]
