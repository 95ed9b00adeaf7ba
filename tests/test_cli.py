"""End-to-end tests of the command-line interface, run in-process through
main(argv) so exit codes, stdout payloads, and config merging are all
exercised without spawning subprocesses."""

from __future__ import annotations

import io
import contextlib
import json
import math

import pytest

from annulus_kernels.cli import build_parser, main, parse_complex
from annulus_kernels.errors import DomainError


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_parse_complex_forms():
    assert parse_complex("1+2i") == 1 + 2j
    assert parse_complex("-1.2+1.1i") == -1.2 + 1.1j
    assert parse_complex("3") == 3 + 0j
    assert parse_complex("2.5i") == 2.5j
    assert parse_complex(" 1.5 - 0.5i ") == 1.5 - 0.5j
    with pytest.raises(DomainError):
        parse_complex("nonsense")


def test_info_text_lists_levels():
    code, out, err = run_cli(["info", "--R", "4", "--B", "3"])
    assert code == 0
    assert "m = 0" in out and "m = 2" in out
    assert "lambda = -4" in out and "lambda = -6" in out
    assert "available" in out


def test_info_json_single_level():
    code, out, _ = run_cli(["info", "--R", "4", "--B", "1", "--format", "json"])
    assert code == 0
    d = json.loads(out)
    assert d["params"] == {"R": 4.0, "B": 1.0}
    assert d["levels"] == [{"m": 0, "eigenvalue": 0.0}]
    assert d["integer_paths_available"] is True
    assert d["seed"] == 7


def test_info_fractional_B_paths_unavailable():
    code, out, _ = run_cli(["info", "--R", "4", "--B", "2.5", "--format", "json"])
    assert code == 0
    assert json.loads(out)["integer_paths_available"] is False


def test_invalid_radius_exits_2():
    code, _, err = run_cli(["info", "--R", "0.5", "--B", "1"])
    assert code == 2
    assert "R > 1" in err


def test_eval_theta_on_a_wide_annulus_exits_0():
    # decay ratio 0.912 at (50, 2): the theta path's tail bound once
    # overflowed there, a traceback with exit 1
    args = ["--R", "50", "--B", "2", "--z", "48", "--w", "43.75+18.5j"]
    values = {}
    for path in ("theta", "closed"):
        code, out, err = run_cli(["eval", *args, "--path", path])
        assert code == 0, err
        d = json.loads(out)
        values[path] = complex(d["value"]["re"], d["value"]["im"])
    assert abs(values["theta"] - values["closed"]) < 1e-12 * abs(values["closed"])


def test_eval_paths_agree():
    base = ["--R", "4", "--B", "2", "--m", "1", "--z", "1.5+0.3i", "--w", "-1.2+1.1i"]
    values = {}
    for path in ("closed", "oracle"):
        code, out, err = run_cli(["eval", *base, "--path", path])
        assert code == 0, err
        d = json.loads(out)
        values[d["path"]] = complex(d["value"]["re"], d["value"]["im"])
        assert d["value"]["abs"] == pytest.approx(abs(values[d["path"]]))
        assert d["seed"] == 7
        assert d["terms_used"] > 0
        assert d["tail_bound"] >= 0.0
    closed, oracle = values["closed_form"], values["basis_sum"]
    assert abs(closed - oracle) < 1e-10 * abs(closed)


def test_eval_theta_fractional_B_exits_4():
    code, _, err = run_cli(
        ["eval", "--R", "4", "--B", "2.5", "--z", "1.5+0i", "--w", "2+0i",
         "--path", "theta"]
    )
    assert code == 4
    assert "integer B" in err


def test_eval_boundary_point_exits_2():
    code, _, err = run_cli(
        ["eval", "--R", "4", "--B", "2", "--z", "4+0i", "--w", "2+0i"]
    )
    assert code == 2
    assert "interior" in err


def test_eval_missing_point_exits_2():
    code, _, err = run_cli(["eval", "--R", "4", "--B", "2", "--z", "1.5+0i"])
    assert code == 2


def test_eval_unknown_path_exits_2():
    code, _, err = run_cli(
        ["eval", "--R", "4", "--B", "2", "--z", "1.5+0i", "--w", "2+0i",
         "--path", "sideways"]
    )
    assert code == 2
    assert "unknown path" in err


def test_eval_exhausted_budget_exits_3():
    for argv in [
        # the image count grows like log R: R = 1e6 at B - m = 0.75 needs
        # more than 57 images
        ["--R", "1e6", "--B", "0.75", "--z", "40+0i", "--w", "-300+2i"],
        # the cap binds the basis-sum oracle's j-window below its predicted
        # 29 terms and the 23 it needs
        ["--R", "50", "--B", "2", "--z", "7", "--w", "7j", "--path", "basis_sum"],
    ]:
        code, _, err = run_cli(["eval", *argv, "--max-terms", "16"])
        assert code == 3
        assert "16 terms" in err


def test_eval_oracle_sums_up_to_its_term_cap():
    # at (4, 3) the oracle needs 179 terms at this pair (sample_pairs(p, 6,
    # 11)[3]): --max-terms 200 allows a window of 199
    code, out, err = run_cli(
        ["eval", "--R", "4", "--B", "3", "--z", "0.5366953619679994-1.2040167678563856i",
         "--w", "-1.330513581203581-0.4237793077758844i", "--path", "oracle",
         "--max-terms", "200"]
    )
    assert code == 0, err
    assert json.loads(out)["terms_used"] <= 200


def test_grid_exhausted_budget_exits_3():
    code, _, err = run_cli(
        ["grid", "--R", "1e6", "--B", "0.75", "--w", "40+1i", "--n-rad", "4",
         "--n-ang", "8", "--max-terms", "16"]
    )
    assert code == 3
    assert "16 terms" in err


def test_grid_row_count_and_abs_column():
    code, out, _ = run_cli(
        ["grid", "--R", "4", "--B", "2", "--m", "0", "--w", "2+0i",
         "--n-rad", "2", "--n-ang", "4"]
    )
    assert code == 0
    rows = out.strip().split("\n")
    assert rows[0] == "re_z,im_z,re_K,im_K,abs_K"
    assert len(rows) == 1 + 2 * 4
    for row in rows[1:]:
        re_z, im_z, re_k, im_k, abs_k = (float(x) for x in row.split(","))
        assert abs_k == pytest.approx(math.hypot(re_k, im_k), rel=1e-15, abs=0.0)


def test_grid_values_round_trip_17_digits():
    code, out, _ = run_cli(
        ["grid", "--R", "4", "--B", "2", "--m", "1", "--w", "1.7+0.4i",
         "--n-rad", "3", "--n-ang", "5"]
    )
    assert code == 0
    for row in out.strip().split("\n")[1:]:
        for field in row.split(","):
            x = float(field)
            assert f"{x:.17g}" == field  # formatting round-trips exactly


def test_grid_matches_eval_spot_check():
    code, out, _ = run_cli(
        ["grid", "--R", "4", "--B", "2", "--m", "0", "--w", "2+0.5i",
         "--n-rad", "2", "--n-ang", "4"]
    )
    assert code == 0
    row = out.strip().split("\n")[3]  # radial-major: first row, third angle
    re_z, im_z, re_k, im_k, _ = (float(x) for x in row.split(","))
    code, out, _ = run_cli(
        ["eval", "--R", "4", "--B", "2", "--m", "0",
         "--z", f"{re_z}+{im_z}i", "--w", "2+0.5i"]
    )
    assert code == 0
    d = json.loads(out)
    grid_val = complex(re_k, im_k)
    eval_val = complex(d["value"]["re"], d["value"]["im"])
    # the two routes share no code path beyond the Gamma ladder; phases of
    # large cancelling terms limit agreement to ~1e-10 relative
    assert abs(grid_val - eval_val) < 1e-10 * abs(eval_val)


def test_grid_writes_file(tmp_path):
    target = tmp_path / "grid.csv"
    code, out, _ = run_cli(
        ["grid", "--R", "4", "--B", "1", "--w", "2+0i", "--n-rad", "2",
         "--n-ang", "2", "--out", str(target)]
    )
    assert code == 0 and out == ""
    lines = target.read_text().strip().split("\n")
    assert len(lines) == 5


def test_grid_exports_in_one_process_write_the_same_bytes(tmp_path):
    # the parser is built once per process (cli.build_parser is cached);
    # a second export parses and writes as the first did
    targets = [tmp_path / f"grid-{i}.csv" for i in range(2)]
    for target in targets:
        code, out, _ = run_cli(
            ["grid", "--R", "4", "--B", "3", "--m", "1", "--w=-1.5+0.8i",
             "--n-rad", "4", "--n-ang", "6", "--out", str(target)]
        )
        assert code == 0 and out == ""
    assert build_parser() is build_parser()
    assert targets[0].read_bytes() == targets[1].read_bytes()


def test_verify_gram_passes_and_reports():
    code, out, _ = run_cli(["verify", "gram", "--R", "4", "--B", "3"])
    assert code == 0
    d = json.loads(out)
    assert d["suite"] == "gram" and d["pass"] is True
    assert d["params"]["seed"] == 7
    assert {e["name"] for e in d["residuals"]} == {
        "gram-identity-deviation",
        "gram-off-diagonal",
        "gram-self-convergence-delta",
    }


def test_verify_seed_echoed():
    code, out, _ = run_cli(["verify", "geometry", "--R", "4", "--B", "1",
                            "--seed", "123"])
    assert code == 0
    assert json.loads(out)["params"]["seed"] == 123


def test_verify_inversion_fractional_B_exits_4():
    code, _, err = run_cli(["verify", "inversion", "--R", "4", "--B", "2.75"])
    assert code == 4


def test_verify_unknown_suite_exits_2():
    code, _, err = run_cli(["verify", "bogus", "--R", "4", "--B", "1"])
    assert code == 2
    assert "unknown suite" in err


def test_verify_failure_exits_1():
    # eight angular nodes cannot resolve the Gram matrix of the basis: the
    # identity deviation is far above its declared bound, and the report
    # must say fail and exit 1
    code, out, _ = run_cli(
        ["verify", "gram", "--R", "4", "--B", "1", "--n-ang", "8"]
    )
    assert code == 1
    d = json.loads(out)
    assert d["pass"] is False
    worst = {r["name"]: r for r in d["residuals"]}["gram-identity-deviation"]
    assert worst["value"] > worst["tolerance"]


def test_verify_writes_report_file(tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        ["verify", "geometry", "--R", "4", "--B", "1", "--out", str(target)]
    )
    assert code == 0 and out == ""
    d = json.loads(target.read_text())
    assert d["suite"] == "geometry" and d["pass"] is True


def test_config_file_supplies_values(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"R": 9.0, "B": 2.0, "seed": 11}))
    code, out, _ = run_cli(["info", "--config", str(cfg), "--format", "json"])
    assert code == 0
    d = json.loads(out)
    assert d["params"] == {"R": 9.0, "B": 2.0}
    assert d["seed"] == 11
    assert len(d["levels"]) == 2


def test_flags_override_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"R": 9.0, "B": 2.0}))
    code, out, _ = run_cli(
        ["info", "--config", str(cfg), "--B", "3", "--format", "json"]
    )
    assert code == 0
    d = json.loads(out)
    assert d["params"] == {"R": 9.0, "B": 3.0}
    assert len(d["levels"]) == 3


def test_config_unknown_key_exits_2(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"radius": 9.0}))
    code, _, err = run_cli(["info", "--config", str(cfg)])
    assert code == 2
    assert "unknown config key" in err


def test_config_invalid_json_exits_2(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    code, _, err = run_cli(["info", "--config", str(cfg)])
    assert code == 2


@pytest.mark.parametrize(
    "values, named",
    [
        ({"m": "two"}, "m must be an integer"),
        ({"m": 1.5}, "m must be an integer"),
        ({"R": "wide"}, "R must be a number"),
        ({"B": None}, "B must be a number"),
        ({"seed": True}, "seed must be an integer"),
        ({"max-terms": [64]}, "max-terms must be an integer"),
        ({"z": [1, 2]}, "cannot parse complex number"),
        ({"format": "xml"}, "format must be one of csv, json"),
    ],
)
def test_config_bad_value_exits_2(tmp_path, values, named):
    # a config value gets the check argparse gives the flag: exit 2 with the
    # field named, not a traceback and the verification-failure code 1
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"R": 4.0, "B": 2.0, **values}))
    code, out, err = run_cli(["eval", "--config", str(cfg), "--w", "1.5+0.3i"])
    assert code == 2 and out == ""
    assert named in err


def test_config_integral_values_accepted(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"R": 9, "B": "2", "m": 1, "seed": "11", "format": "json"}))
    code, out, _ = run_cli(["info", "--config", str(cfg)])
    assert code == 0
    d = json.loads(out)
    assert d["params"] == {"R": 9.0, "B": 2.0} and d["seed"] == 11


def test_workers_flag_removed(tmp_path):
    code, _, _ = run_cli(["info", "--R", "4", "--B", "1", "--workers", "1"])
    assert code == 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"R": 4.0, "workers": 1}))
    code, _, err = run_cli(["info", "--config", str(cfg)])
    assert code == 2
    assert "unknown config key" in err


def test_usage_error_exits_2():
    code, _, _ = run_cli(["frobnicate"])
    assert code == 2
