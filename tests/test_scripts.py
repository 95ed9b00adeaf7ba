"""Smoke tests of the scripts the README documents, each run as a
subprocess the way a user runs it."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=120,
    )


@pytest.mark.parametrize("R, B, m", [("4", "3", "1"), ("1.5", "2", "0")])
def test_truncation_sweep_honours_its_tail_bounds(R, B, m):
    done = run_script("truncation_sweep.py", "--R", R, "--B", B, "--m", m, "--format", "json")
    assert done.returncode == 0, done.stderr
    payload = json.loads(done.stdout)
    assert payload["all_bounds_honoured"]
    assert all(row["bound_honoured"] for row in payload["rows"])


def test_path_comparison_runs():
    done = run_script("path_comparison.py", "--n-pairs", "2", "--format", "json")
    assert done.returncode == 0, done.stderr
    rows = json.loads(done.stdout)["rows"]
    assert {row["path"] for row in rows} >= {"closed_form", "basis_sum", "theta", "product_formula"}
    assert all(row["n_pairs"] == 2 for row in rows)
    # the reference's own row: its j-window, condition and escalations
    oracle = [row for row in rows if row["path"] == "basis_sum"]
    assert oracle and all(row["max_terms"] > 0 and row["max_rel_dev"] == 0.0 for row in oracle)
    # each path's median time per call: a measurement, so only its presence
    # and sign are checked, and it is no part of any comparison of runs
    assert all(row["median_call_ms"] > 0.0 for row in rows)
