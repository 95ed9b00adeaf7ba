"""Span tracing of the library's public functions, installed from outside.

A Tracer wraps selected functions of annulus_kernels and records one span
per call: id, parent id, request (root) id, pass index, name, start, end,
and the counts read off the result (precision, terms_used, nodes).  The
wrapper is installed as a module attribute wherever the function's name is
resolved -- the defining module, every module that imported the name, the
package namespace -- and in verify's suite dispatch table, so internal
calls are traced as well.  Nothing under src/ is modified; uninstall()
restores every original.

Spans are kept in memory and written out once, at the end of the run.
Self time is a span's duration minus the durations of its direct children
(calls are single-threaded, so children never overlap).
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from pathlib import Path

# (module, function) pairs timed by the traced run: the layers the per-layer
# metrics name.  Helpers called once per series term (basis_phi,
# log_basis_norm_sq, ...) are left out: their cost is charged to the traced
# caller's self time.
TRACED = {
    "annulus_kernels.kernels": (
        "kernel_km",
        "kernel_basis_sum_oracle",
        "kernel_km_theta",
        "kernel_km_grid",
        "kernel_k0_integer_product",
        "kernel_jacobi_product_sum",
        "sigma_kl",
        "sigma_theta_path",
    ),
    "annulus_kernels.basis": ("basis_phi_nodes",),
    "annulus_kernels.quadrature": ("annulus_nodes", "annulus_nodes_endpoint"),
    "annulus_kernels.verify": ("reproducing_residual",),
    "annulus_kernels.cli": ("cmd_grid",),
}

# verify dispatches suites through this table, so its entries are wrapped
# in place; span names are verify.<suite>
SUITE_TABLE = ("annulus_kernels.verify", "_SUITE_FUNCTIONS")

_ID, _PARENT, _ROOT, _PASS, _NAME, _T0, _T1, _PREC, _TERMS, _NODES, _ERR = range(11)


def _short(module: str) -> str:
    return module.rsplit(".", 1)[-1]


def _counts(result) -> tuple[str | None, int, int]:
    """(precision, terms, nodes) read off a traced function's result."""
    precision = getattr(result, "precision", None)
    terms = getattr(result, "terms_used", 0)
    if isinstance(result, tuple) and result and hasattr(result[0], "size"):
        nodes = int(result[0].size)  # (nodes, weights) from a quadrature rule
    else:
        nodes = int(getattr(result, "size", 0) or 0)
    return precision, int(terms), nodes


class Tracer:
    """Records spans of wrapped calls; one instance per traced run."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[list] = []
        self._next_id = 0
        self._pass = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- span recording -----------------------------------------------------

    def begin_pass(self, index: int) -> None:
        self._pass = index

    def _open(self, name: str) -> list:
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        span = [
            self._next_id,
            parent[_ID] if parent else None,
            parent[_ROOT] if parent else self._next_id,
            self._pass,
            name,
            time.perf_counter(),
            0.0,
            None,
            0,
            0,
            False,
        ]
        self._stack.append(span)
        return span

    def _close(self, span: list, result=None, error: bool = False) -> None:
        span[_T1] = time.perf_counter()
        self._stack.pop()
        if error:
            span[_ERR] = True
        else:
            span[_PREC], span[_TERMS], span[_NODES] = _counts(result)
        self.spans.append(span)

    def request(self, name: str, fn):
        """Call fn() as the root span of one request."""
        span = self._open(name)
        try:
            result = fn()
        except BaseException:
            self._close(span, error=True)
            raise
        self._close(span)
        return result

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(span, error=True)
                raise
            self._close(span, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every TRACED function wherever its name is resolved."""
        loaded = [
            mod
            for key, mod in sys.modules.items()
            if key == "annulus_kernels" or key.startswith("annulus_kernels.")
        ]
        for module_name, names in TRACED.items():
            home = sys.modules[module_name]
            for name in names:
                original = getattr(home, name)
                wrapper = self.wrap(f"{_short(module_name)}.{name}", original)
                for mod in loaded:
                    if getattr(mod, name, None) is original:
                        self._restore.append((mod, name, original))
                        setattr(mod, name, wrapper)
        table = getattr(sys.modules[SUITE_TABLE[0]], SUITE_TABLE[1])
        for suite, original in list(table.items()):
            self._restore.append((table, suite, original))
            table[suite] = self.wrap(f"verify.{suite}", original)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            if isinstance(owner, dict):
                owner[name] = original
            else:
                setattr(owner, name, original)
        self._restore.clear()

    # -- aggregation --------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        child = defaultdict(float)
        for s in self.spans:
            if s[_PARENT] is not None:
                child[s[_PARENT]] += s[_T1] - s[_T0]
        return {s[_ID]: (s[_T1] - s[_T0]) - child[s[_ID]] for s in self.spans}

    def per_pass(self) -> list[dict]:
        """Per pass: {(name, precision): {calls, terms, nodes, self_s, wall_s}}."""
        selfs = self.self_times()
        n_pass = 1 + max((s[_PASS] for s in self.spans), default=0)
        out: list[dict] = [defaultdict(lambda: defaultdict(float)) for _ in range(n_pass)]
        for s in self.spans:
            for key in ((s[_NAME], s[_PREC]), (s[_NAME], None)):
                agg = out[s[_PASS]][key]
                agg["calls"] += 1
                agg["terms"] += s[_TERMS]
                agg["nodes"] += s[_NODES]
                agg["self_s"] += selfs[s[_ID]]
                agg["wall_s"] += s[_T1] - s[_T0]
                if s[_PREC] is None:
                    break  # no precision split: count once
        return out

    def write(self, path: Path) -> None:
        """Write every span as JSON (times relative to the first span)."""
        t_base = min((s[_T0] for s in self.spans), default=0.0)
        fields = ("id", "parent", "request", "pass", "name", "start_s", "end_s",
                  "precision", "terms", "nodes", "error")
        rows = []
        for s in self.spans:
            row = dict(zip(fields, s))
            row["start_s"] -= t_base
            row["end_s"] -= t_base
            rows.append(row)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": rows}) + "\n", encoding="utf-8")
