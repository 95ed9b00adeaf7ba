"""Per-layer metrics of the traced run, read off the recorded spans.

Names follow <module>.<function>[.<precision>].<quantity>.  Counts (calls,
terms, nodes) are per pass and must repeat exactly in every pass; times
are per-pass means.  A layer a workload never calls reads 0.
"""

from __future__ import annotations

from workloads import VERIFY_SUITES

# cumulative first-import times from `python -X importtime`
IMPORT_MODULES = (
    "annulus_kernels",
    "annulus_kernels.geometry",
    "annulus_kernels.special",
    "annulus_kernels.basis",
    "annulus_kernels.kernels",
    "annulus_kernels.quadrature",
    "annulus_kernels.verify",
    "numpy",
    "scipy.special",
    "scipy.integrate",
    "mpmath",
)

COUNTS = ("calls", "terms", "nodes")
UNITS = {"calls": "count", "terms": "count", "nodes": "count",
         "self_s": "s", "wall_s": "s", "nodes_per_s": "1/s"}


def _span_metrics():
    """(metric, span name, precision or None, quantity) in report order."""
    rows = []

    def add(span, precision, *quantities):
        for q in quantities:
            middle = f".{precision}" if precision else ""
            rows.append((f"{span}{middle}.{q}", span, precision, q))

    add("kernels.kernel_km", "binary64", "calls", "self_s", "terms")
    add("kernels.kernel_km", "extended", "calls", "self_s")
    # no pass times an extended oracle call (0.25 s or more each)
    add("kernels.kernel_basis_sum_oracle", "binary64", "calls", "self_s", "terms")
    for precision in ("binary64", "extended"):
        add("kernels.kernel_km_theta", precision, "calls", "self_s")
    for fn in ("sigma_kl", "sigma_theta_path", "kernel_jacobi_product_sum",
               "kernel_k0_integer_product"):
        add(f"kernels.{fn}", None, "self_s")
    add("kernels.kernel_km_grid", None, "calls", "nodes", "self_s", "nodes_per_s")
    add("cli.cmd_grid", None, "self_s")
    add("basis.basis_phi_nodes", None, "calls", "nodes", "self_s")
    add("quadrature.annulus_nodes", None, "calls", "nodes", "self_s")
    add("quadrature.annulus_nodes_endpoint", None, "calls", "nodes", "self_s")
    add("verify.reproducing_residual", None, "calls")
    for suite in VERIFY_SUITES:
        add(f"verify.{suite}", None, "wall_s")
    return rows


SPAN_METRICS = _span_metrics()
ESCALATION = "kernels.kernel_km.escalation_ratio"
TRACED_WALL = "traced.wall_s"


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {name: UNITS[q] for name, _, _, q in SPAN_METRICS}
    units[ESCALATION] = "ratio"
    units.update({f"import.{mod}_s": "s" for mod in IMPORT_MODULES})
    units[TRACED_WALL] = "s"
    return units


def per_layer(passes: list[dict], traced_wall_s: float,
              imports: dict[str, float]) -> tuple[dict[str, float], list[str]]:
    """Metric values and explanatory lines from Tracer.per_pass() output."""
    first = passes[0]
    for i, other in enumerate(passes[1:], start=1):
        for key in set(first) | set(other):
            for q in COUNTS:
                if first.get(key, {}).get(q, 0) != other.get(key, {}).get(q, 0):
                    raise RuntimeError(f"{key} {q} differs between pass 0 and pass {i}")

    def mean(key, q):
        return sum(p.get(key, {}).get(q, 0.0) for p in passes) / len(passes)

    values: dict[str, float] = {}
    for name, span, precision, q in SPAN_METRICS:
        key = (span, precision)
        if q in COUNTS:
            values[name] = int(first.get(key, {}).get(q, 0))
        elif q == "nodes_per_s":
            busy = mean(key, "self_s")
            values[name] = first.get(key, {}).get("nodes", 0) / busy if busy else 0.0
        else:
            values[name] = mean(key, q)
    total = int(first.get(("kernels.kernel_km", None), {}).get("calls", 0))
    extended = values["kernels.kernel_km.extended.calls"]
    values[ESCALATION] = extended / total if total else 0.0
    for mod in IMPORT_MODULES:
        values[f"import.{mod}_s"] = imports.get(mod, 0.0)
    values[TRACED_WALL] = traced_wall_s
    lines = [f"{ESCALATION}: {extended} extended of {total} kernel_km calls per pass"]
    return values, lines
