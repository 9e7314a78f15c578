import csv
import json

import numpy as np
import pytest

import subeigen as se
from subeigen import cli
from subeigen.cli import main
from conftest import fail_inner_solve_on_call


def read_summary(out_dir):
    with open(out_dir / "summary.json") as fh:
        return json.load(fh)


def reject_constant(name):
    raise ValueError(f"summary.json holds {name}, which is not strict JSON")


def test_run_valid_euclidean_p2(tmp_path):
    out = tmp_path / "run"
    code = main(["--group", "euclidean2", "--box", "0,1,0,1", "--resolution", "16,16",
                 "--p", "2", "--q", "2", "--out", str(out)])
    assert code == 0
    summary = read_summary(out)
    assert summary["converged"] is True
    assert summary["lambda_hat"] == pytest.approx(2 * np.pi ** 2, rel=0.02)
    assert not {"method", "lambda_hat_inverse", "lambda_hat_rayleigh", "rel_gap"} & set(summary)
    assert summary["residual"] <= 1e-4
    assert summary["regularity"]["positive"] is True
    assert (out / "trace.csv").exists()


def test_run_rejects_out_of_window_q(tmp_path, capsys):
    code = main(["--group", "heisenberg1", "--box", "0,1,0,1,0,1", "--resolution",
                 "3,3,3", "--p", "2", "--q", "4.5", "--out", str(tmp_path / "x")])
    assert code == 1
    err = capsys.readouterr().err
    assert "q < nu*" in err


def test_run_rejects_out_of_window_p(tmp_path, capsys):
    code = main(["--group", "heisenberg1", "--box", "0,1,0,1,0,1", "--resolution",
                 "3,3,3", "--p", "6", "--q", "2", "--out", str(tmp_path / "x")])
    assert code == 1
    assert "p < nu" in capsys.readouterr().err


@pytest.mark.parametrize("p, q", [("1.5", "10"), ("1.2", "3")])
def test_euclidean_window_below_p2_rejected_before_solve(tmp_path, capsys, monkeypatch, p, q):
    # on the plane, p < 2 needs q < nu* = 2p/(2 - p), as on a stratified group
    def no_solve(*args, **kwargs):
        raise AssertionError("solver ran on an out-of-window (p, q)")

    monkeypatch.setattr(cli, "inverse_iteration", no_solve)
    out = tmp_path / "run"
    code = main(["--group", "euclidean2", "--box", "0,1,0,1", "--resolution", "8,8",
                 "--p", p, "--q", q, "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1 and "q < nu*" in err
    assert not out.exists()


@pytest.mark.parametrize("flags", [["--resolution", "4.7,4"], ["--resolution", "4,4e0"],
                                   ["--box", "0,1,0,x"]])
def test_list_flag_token_of_wrong_type_is_an_error(tmp_path, capsys, flags):
    # --resolution follows the config file's rule: integers only, no rounding
    out = tmp_path / "run"
    code = main(["--group", "euclidean2", "--box", "0,1,0,1", "--resolution", "4,4",
                 *flags, "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flags[0]} ") and len(err.splitlines()) == 1
    assert not out.exists()


def test_run_rejects_bad_config(tmp_path, capsys):
    assert main(["--group", "nilpotent99", "--out", str(tmp_path / "x")]) == 1
    assert main(["--group", "euclidean2", "--box", "0,1", "--resolution", "4,4",
                 "--out", str(tmp_path / "x")]) == 1
    assert main(["--group", "euclidean2", "--box", "0,1,0,1", "--resolution", "4,4",
                 "--method", "newton", "--out", str(tmp_path / "x")]) == 1
    capsys.readouterr()
    # boxes whose spacing h has no finite positive h**-2 (or that are unbounded
    # or NaN), in a single run and in a sweep alike
    for box in ("0,1e308,0,1", "0,1e-200,0,1", "0,inf,0,1", "0,nan,0,1", "1,0,0,1"):
        for mode in ([], ["--sweep-p", "2,3"]):
            assert main(["--group", "euclidean2", "--box", box, "--resolution", "8,8",
                         *mode, "--out", str(tmp_path / "x")]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: degenerate box") and len(err.splitlines()) == 1
            assert repr(float(box.split(",")[1])) in err and "Traceback" not in err


@pytest.mark.parametrize("box", ["0,1e-153,0,1e-153", "0,1e160,0,1e160"])
def test_box_beyond_the_float_range_is_one_error_line(tmp_path, capsys, box):
    # K's diagonal, or the cell volume, leaves the float range: Grid says so
    # before any solve, so no --out directory is made
    out = tmp_path / "run"
    assert main(["--group", "euclidean2", "--box", box, "--resolution", "8,8",
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1 and "box" in err
    assert "Traceback" not in err and not out.exists()


@pytest.mark.parametrize("q", ["200", "500", "1000", "2000"])
def test_large_q_keeps_exit_code_contract(tmp_path, capsys, q):
    # sum |u|^q under- or overflows and the L^inf threshold leaves the float range
    out = tmp_path / "run"
    code = main(["--group", "euclidean2", "--box", "0,1,0,1", "--resolution", "8,8",
                 "--p", "2", "--q", q, "--out", str(out)])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code == 1:
        assert err.startswith("error: ") and len(err.splitlines()) == 1 and q in err
    else:
        assert code in (0, 2)
        summary = json.loads((out / "summary.json").read_text(), parse_constant=reject_constant)
        assert summary["q"] == float(q) and 0 < summary["lambda_hat"] < np.inf
        k = summary["regularity"]["k_threshold"]
        assert k is None or k > 0  # a threshold beyond the float range is written as null
        assert (out / "trace.csv").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("flags", [[], ["--sweep-p", "50,100"]])
def test_quotient_beyond_float_range_is_one_error_line(tmp_path, capsys, flags):
    # lambda is about h^{-p} with h = 0.01/17: past the float range at p = 100
    code = main(["--group", "euclidean2", "--box", "0,0.01,0,0.01", "--resolution", "16,16",
                 "--p", "100", "--q", "2", *flags, "--out", str(tmp_path / "run")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "p=100" in err and "overflow" in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("box, p", [("0,1,0,1", "40"), ("0,1e-3,0,1e-3", "40"),
                                    ("0,1e4,0,1e4", "40"), ("0,1,0,1", "100")])
def test_large_p_run_that_converges_exits_zero(tmp_path, capsys, box, p):
    # the report takes S from u itself, so no second (p, p) solve can fail
    # after the main solve has converged
    out = tmp_path / "run"
    code = main(["--group", "euclidean2", "--box", box, "--resolution", "16,16",
                 "--p", p, "--q", "2", "--out", str(out)])
    assert code == 0, capsys.readouterr().err
    summary = json.loads((out / "summary.json").read_text(), parse_constant=reject_constant)
    assert summary["converged"] is True
    k = summary["regularity"]["k_threshold"]
    assert k is not None and 0 < k < np.inf
    assert summary["regularity"]["sup_norm"] <= k


def test_trace_csv_columns(tmp_path):
    out = tmp_path / "run"
    main(["--group", "euclidean2", "--box", "0,1,0,1", "--resolution", "8,8",
          "--p", "2", "--q", "2", "--out", str(out)])
    with open(out / "trace.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["n", "mu_n", "unorm_p", "lq_change", "inner_iters", "residual"]
    assert int(rows[1][0]) == 0
    mus = [float(r[1]) for r in rows[1:]]
    assert all(b <= a * (1 + 1e-7) for a, b in zip(mus, mus[1:]))


def test_dump_field(tmp_path):
    out = tmp_path / "run"
    main(["--group", "euclidean2", "--box", "0,1,0,1", "--resolution", "5,5",
          "--p", "2", "--q", "2", "--out", str(out), "--dump-field"])
    with open(out / "field.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x", "y", "value"]
    assert len(rows) == 1 + 25


def test_oracle_flag(tmp_path):
    out = tmp_path / "run"
    code = main(["--group", "euclidean2", "--box", "0,1,0,1", "--resolution", "4,4",
                 "--p", "2", "--q", "2", "--out", str(out), "--oracle"])
    assert code == 0
    summary = read_summary(out)
    assert summary["lambda_hat"] == pytest.approx(summary["oracle_lambda"], rel=1e-4)
    # oracle refuses large grids
    assert main(["--group", "euclidean2", "--box", "0,1,0,1", "--resolution", "8,8",
                 "--p", "2", "--q", "2", "--out", str(tmp_path / "y"), "--oracle"]) == 1


def test_oracle_grid_cap_checked_before_solve(tmp_path, monkeypatch, capsys):
    def no_solve(*args, **kwargs):
        raise AssertionError("solver ran before the --oracle grid check")

    monkeypatch.setattr(cli, "inverse_iteration", no_solve)
    out = tmp_path / "run"
    code = main(["--group", "euclidean2", "--box", "0,1,0,1", "--resolution", "20,20",
                 "--p", "2", "--q", "2", "--out", str(out), "--oracle"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert len(err.splitlines()) == 1
    assert not (out / "summary.json").exists()


def test_determinism_byte_identical(tmp_path):
    args = ["--group", "heisenberg1", "--box", "0,1,0,1,0,1", "--resolution", "4,4,4",
            "--p", "2", "--q", "2", "--seed", "3", "--dump-field"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()
    assert (out1 / "field.csv").read_bytes() == (out2 / "field.csv").read_bytes()
    s1, s2 = read_summary(out1), read_summary(out2)
    s1.pop("runtime_seconds"), s2.pop("runtime_seconds")
    assert s1 == s2


def test_sweep_results(tmp_path, capsys):
    out = tmp_path / "sweep"
    code = main(["--group", "heisenberg1", "--box", "0,1,0,1,0,1", "--resolution",
                 "4,4,4", "--sweep-p", "1.5,2", "--sweep-q", "2,3", "--out", str(out)])
    assert code == 0
    err = capsys.readouterr().err
    assert "skipping (p=1.5, q=3)" in err
    with open(out / "results.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["p", "q", "lambda_hat", "residual", "outer_iters", "converged"]
    pairs = [(float(r[0]), float(r[1])) for r in rows[1:]]
    assert pairs == sorted(pairs)
    assert pairs == [(1.5, 2.0), (2.0, 2.0), (2.0, 3.0)]
    assert all(float(r[2]) > 0 for r in rows[1:])
    assert all(r[5] == "true" for r in rows[1:])


def test_sweep_deterministic_bytes(tmp_path, monkeypatch):
    args = ["--group", "euclidean2", "--box", "0,1,0,1", "--resolution", "6,6",
            "--sweep-p", "1.5,2,3", "--sweep-q", "1.5,2"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()


def test_sweep_degenerate_matches_single_run(tmp_path):
    single = tmp_path / "single"
    swept = tmp_path / "swept"
    main(["--group", "euclidean2", "--box", "0,1,0,1", "--resolution", "6,6",
          "--p", "2", "--q", "2", "--out", str(single)])
    main(["--group", "euclidean2", "--box", "0,1,0,1", "--resolution", "6,6",
          "--sweep-p", "2", "--sweep-q", "2", "--out", str(swept)])
    summary = read_summary(single)
    with open(swept / "results.csv") as fh:
        row = list(csv.reader(fh))[1]
    assert float(row[2]) == summary["lambda_hat"]


def test_sweep_all_pairs_skipped_is_error(tmp_path, capsys):
    code = main(["--group", "heisenberg1", "--box", "0,1,0,1,0,1", "--resolution",
                 "3,3,3", "--sweep-p", "1.5", "--sweep-q", "5,6", "--out",
                 str(tmp_path / "x")])
    assert code == 1


def test_config_file_with_flag_override(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "group": "euclidean2", "box": [[0, 1], [0, 1]], "resolution": [6, 6],
        "p": 2.0, "q": 2.0, "output_dir": str(tmp_path / "from_file"),
    }))
    out = tmp_path / "override"
    code = main(["--config", str(cfg_path), "--out", str(out)])
    assert code == 0
    assert (out / "summary.json").exists()
    # unknown keys rejected
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"grid_points": 5}))
    assert main(["--config", str(bad)]) == 1


@pytest.mark.parametrize("key", ["eps_floor", "max_inner", "method"])
def test_removed_setting_in_config_is_unknown_key(tmp_path, capsys, key):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({key: 1e-8}))
    assert main(["--config", str(cfg_path), "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert err == f"error: unknown config keys: [{key!r}]\n"


@pytest.mark.parametrize("flags", [["--bogus", "1"], ["--p", "abc"], ["--eps-floor", "1e-8"],
                                   ["--max-inner", "1"], ["--method", "rayleigh"]])
def test_parse_error_is_one_error_line(tmp_path, capsys, flags):
    out = tmp_path / "run"
    code = main(["--group", "euclidean2", "--box", "0,1,0,1", "--resolution", "4,4",
                 *flags, "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert flags[0] in err and "usage" not in err
    assert not out.exists()


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0
    out = capsys.readouterr().out
    assert "--max-outer" in out and "--eps-floor" not in out and "--max-inner" not in out


def read_artifacts(out_dir):
    """Every file main wrote, with runtime_seconds taken out of summary.json."""
    files = {f.name: f.read_bytes() for f in out_dir.iterdir()}
    if "summary.json" in files:
        summary = json.loads(files["summary.json"])
        assert summary.pop("runtime_seconds") >= 0
        files["summary.json"] = summary
    return files


@pytest.mark.parametrize("value", ["both", "inverse"])
def test_deprecated_method_flag_is_one_warning_and_changes_nothing(tmp_path, capsys, value):
    # the argv shape of the benchmark's cli-sweep run job, on a small grid
    args = ["--group", "heisenberg1", "--box", "0,1,0,1,0,1", "--resolution", "5,5,5",
            "--p", "3", "--q", "2", "--dump-field"]
    assert main(args + ["--out", str(tmp_path / "plain")]) == 0
    assert capsys.readouterr().err == ""
    assert main(args + ["--method", value, "--out", str(tmp_path / "flag")]) == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("warning: --method ") and "deprecated" in err[0]
    assert read_artifacts(tmp_path / "flag") == read_artifacts(tmp_path / "plain")


def test_sweep_method_both_is_one_warning(tmp_path, capsys):
    args = ["--group", "euclidean2", "--box", "0,1,0,1", "--resolution", "4,4",
            "--sweep-p", "2,3", "--sweep-q", "2"]
    assert main(args + ["--out", str(tmp_path / "plain")]) == 0
    assert main(args + ["--method", "both", "--out", str(tmp_path / "flag")]) == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("warning: --method both ")
    assert read_artifacts(tmp_path / "flag") == read_artifacts(tmp_path / "plain")


@pytest.mark.parametrize("flag", ["--oracle", "--dump-field"])
def test_sweep_rejects_single_run_flags(tmp_path, capsys, flag):
    out = tmp_path / "sweep"
    code = main(["--group", "euclidean2", "--box", "0,1,0,1", "--resolution", "4,4",
                 "--sweep-p", "2,3", flag, "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert flag[2:].replace("-", "_") in err
    assert not out.exists()


@pytest.mark.parametrize("config", [{"max_outer": "5"}, {"p": "3"}])
def test_config_value_of_wrong_type_is_an_error(tmp_path, capsys, config):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "run"
    assert main(["--config", str(cfg_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert len(err.splitlines()) == 1
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize("text, kind", [("[1, 2]", "array"), ("5", "number"), ("null", "null"),
                                        ('"abc"', "string"), ('[["p", 3]]', "array")])
def test_config_must_hold_a_json_object(tmp_path, capsys, text, kind):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(text)
    out = tmp_path / "run"
    assert main(["--config", str(cfg_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "--config" in err and kind in err
    assert not out.exists()


@pytest.mark.parametrize("flags, config, name", [
    (["--sweep-p", ""], None, "sweep_p"),
    (["--sweep-q", ","], None, "sweep_q"),
    ([], {"sweep_p": []}, "sweep_p"),
    (["--sweep-p", "2,3"], {"sweep_q": []}, "sweep_q"),
], ids=["flag-sweep-p", "flag-sweep-q", "config-sweep_p", "config-sweep_q"])
def test_empty_sweep_list_is_an_error(tmp_path, capsys, flags, config, name):
    # an empty list must not fall back to --p / --q and run a one-row sweep
    if config is not None:
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        flags = ["--config", str(cfg_path), *flags]
    out = tmp_path / "sweep"
    code = main(["--group", "euclidean2", "--box", "0,1,0,1", "--resolution", "4,4",
                 *flags, "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1 and name in err
    assert not out.exists()


def test_nonconverged_exit_code(tmp_path):
    out = tmp_path / "run"
    code = main(["--group", "euclidean2", "--box", "0,1,0,1", "--resolution", "12,12",
                 "--p", "2", "--q", "2", "--max-outer", "2", "--out", str(out)])
    assert code == 2
    summary = read_summary(out)
    assert summary["converged"] is False
    assert summary["lambda_hat"] > 0  # results still written


def test_quotient_gap_above_tol_outer_exits_2(tmp_path):
    # E2 32^2 p=1.1 meets the stop rule with R(g) about 4e-4 above mu
    out = tmp_path / "run"
    code = main(["--group", "euclidean2", "--box", "0,1,0,1", "--resolution", "32,32",
                 "--p", "1.1", "--q", "2", "--out", str(out)])
    assert code == 2
    assert read_summary(out)["converged"] is False
    with open(out / "trace.csv") as fh:
        assert len(list(csv.reader(fh))) > 1


def test_inner_failure_exit_code(tmp_path, monkeypatch):
    # a failed inner solve after two completed steps still writes the artifacts
    fail_inner_solve_on_call(monkeypatch, 3)
    out = tmp_path / "run"
    code = main(["--group", "euclidean2", "--box", "0,1,0,1", "--resolution", "6,6",
                 "--p", "3", "--q", "2", "--out", str(out)])
    assert code == 2
    summary = read_summary(out)
    assert summary["converged"] is False
    assert summary["outer_iters"] == 2
    with open(out / "trace.csv") as fh:
        assert len(list(csv.reader(fh))) == 1 + 2


@pytest.mark.parametrize("flags", [["--max-outer", "0"], ["--tol-outer", "0"],
                                   ["--tol-inner", "0"], ["--max-outer", "-1"],
                                   ["--tol-outer", "-1"], ["--tol-outer", "nan"],
                                   ["--tol-inner", "nan"], ["--p", "1.5", "--tol-inner", "inf"],
                                   ["--tol-outer", "inf"], ["--p", "inf"], ["--q", "inf"]])
def test_out_of_range_solver_setting_is_an_error(tmp_path, capsys, flags):
    out = tmp_path / "run"
    code = main(["--group", "euclidean2", "--box", "0,1,0,1", "--resolution", "4,4",
                 "--p", "3", "--q", "2", *flags, "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert len(err.splitlines()) == 1
    assert flags[-2][2:].replace("-", "_") in err  # names the rejected setting
    assert "Traceback" not in err
    assert not (out / "summary.json").exists()


def test_first_inner_failure_is_an_error(tmp_path, monkeypatch, capsys):
    fail_inner_solve_on_call(monkeypatch, 1)
    code = main(["--group", "euclidean2", "--box", "0,1,0,1", "--resolution", "6,6",
                 "--p", "3", "--q", "2", "--out", str(tmp_path / "run")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err
