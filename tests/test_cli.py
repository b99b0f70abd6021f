import csv
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sada
from sada.cli import main, parse_gamma_grid, read_config_file


def make_csv(tmp_path, name="data.csv", K=2, N=80, n=30, seed=0, constant=False):
    rng = np.random.default_rng(seed)
    y = 0.5 + rng.standard_normal(N)
    cols = []
    for k in range(K):
        if constant:
            cols.append(np.full(N, 1.5))
        elif k == 0:
            cols.append(0.8 * y + 0.3 * rng.standard_normal(N))
        else:
            cols.append(rng.standard_normal(N))
    lines = ["x_1,y," + ",".join(f"yhat_{k + 1}" for k in range(K))]
    for i in range(N):
        label = repr(float(y[i])) if i < n else ""
        lines.append(f"1.0,{label}," + ",".join(repr(float(c[i])) for c in cols))
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return path


def read_estimates(out_dir):
    rows = {}
    lines = (out_dir / "estimates.csv").read_text().splitlines()[1:]
    for line in lines:
        method, comp, est, se, lo, hi = line.split(",")
        rows[(method, int(comp))] = (float(est), float(lo), float(hi))
    return rows


def test_estimate_writes_reports_and_sada_interval_no_wider(tmp_path, capsys):
    csv_path = make_csv(tmp_path)
    out = tmp_path / "out"
    assert main(["estimate", str(csv_path), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert [r["method"] for r in report["records"]] == ["naive", "sada"]
    rows = read_estimates(out)
    naive_width = rows[("naive", 1)][2] - rows[("naive", 1)][1]
    sada_width = rows[("sada", 1)][2] - rows[("sada", 1)][1]
    assert sada_width <= naive_width + 1e-12
    assert "wrote" in capsys.readouterr().out


def test_estimate_narrower_at_lower_level(tmp_path):
    csv_path = make_csv(tmp_path)
    out90, out95 = tmp_path / "o90", tmp_path / "o95"
    assert main(["estimate", str(csv_path), "--level", "0.9", "--out", str(out90)]) == 0
    assert main(["estimate", str(csv_path), "--level", "0.95", "--out", str(out95)]) == 0
    w90 = read_estimates(out90)[("naive", 1)]
    w95 = read_estimates(out95)[("naive", 1)]
    assert (w90[2] - w90[1]) < (w95[2] - w95[1])


def test_unknown_model_flag_exits_two(tmp_path, capsys):
    csv_path = make_csv(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["estimate", str(csv_path), "--model", "loess"])
    assert exc.value.code == 2


def test_unknown_model_in_config_exits_two(tmp_path, capsys):
    csv_path = make_csv(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("model = loess\n")
    assert main(["estimate", str(csv_path), "--config", str(cfg)]) == 2
    assert "ConfigError" in capsys.readouterr().err


def test_oracle_method_rejected_on_real_data(tmp_path, capsys):
    csv_path = make_csv(tmp_path)
    assert main(["estimate", str(csv_path), "--methods", "oracle"]) == 2


def test_data_error_exits_three(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("x_1,y,yhat_1\n1.0,abc,2.0\n2.0,,1.0\n")
    assert main(["estimate", str(bad)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("ParseError:") and "row 2" in err


@pytest.mark.parametrize("where", ["header", "body"])
def test_cell_over_the_csv_field_limit_exits_three(tmp_path, capsys, where):
    # the 1_000 cell sends the body to the per-cell reader, which uses csv.reader
    huge = "1" * 200_000
    header = f"x_1,y,yhat_1,{huge}" if where == "header" else "x_1,y,yhat_1,note"
    bad = tmp_path / "bad.csv"
    bad.write_text(f"{header}\n1_000,2.5,2.4,a\n2.0,,3.1,{huge}\n")
    assert main(["estimate", str(bad), "--out", str(tmp_path / "out")]) == 3
    line = 1 if where == "header" else 3
    assert capsys.readouterr().err == (
        f"ParseError: {bad}: line {line}: field larger than field limit ({csv.field_size_limit()})\n"
    )


@pytest.mark.parametrize(
    "case, code, error",
    [
        ("empty methods list", 2, "ConfigError: methods list is empty"),
        ("ols without features", 2, "ConfigError: ols model requires at least one x_ feature column"),
        ("empty file", 3, "SchemaError: {csv}: empty file, header row required"),
    ],
)
def test_bad_request_exits_with_its_code(tmp_path, capsys, case, code, error):
    csv_path, flags = make_csv(tmp_path), []
    if case == "empty methods list":
        flags = ["--methods", ","]
    elif case == "ols without features":
        lines = csv_path.read_text().splitlines()
        csv_path.write_text("\n".join(line.split(",", 1)[1] for line in lines) + "\n")
        flags = ["--model", "ols"]
    else:
        csv_path.write_text("")
    assert main(["estimate", str(csv_path), "--out", str(tmp_path / "out"), *flags]) == code
    assert capsys.readouterr().err.strip() == error.format(csv=csv_path)
    assert not (tmp_path / "out").exists()


def test_missing_file_exits_three(tmp_path, capsys):
    assert main(["estimate", str(tmp_path / "nope.csv")]) == 3


def test_numerical_failure_exits_four(tmp_path, capsys):
    # duplicated feature column makes the OLS Jacobian singular
    rng = np.random.default_rng(5)
    lines = ["x_1,x_2,y,yhat_1"]
    for i in range(20):
        x = float(rng.standard_normal())
        label = repr(float(rng.standard_normal())) if i < 10 else ""
        lines.append(f"{x!r},{x!r},{label},{float(rng.standard_normal())!r}")
    path = tmp_path / "collinear.csv"
    path.write_text("\n".join(lines) + "\n")
    assert main(["estimate", str(path), "--model", "ols"]) == 4
    assert "SingularJacobian" in capsys.readouterr().err


def test_a_variance_that_overflows_exits_four(tmp_path, capsys):
    # ppi:2 on a column of noise times 1e200: a finite estimate whose
    # variance overflows is a numerical failure, not a NaN interval
    rng = np.random.default_rng(6)
    lines = ["x_1,y,yhat_1,yhat_2"]
    for i in range(80):
        y = float(rng.standard_normal())
        label = repr(y) if i < 30 else ""
        lines.append(f"1.0,{label},{y + 0.3 * rng.standard_normal()!r},{y + 1e200 * rng.standard_normal()!r}")
    path = tmp_path / "huge.csv"
    path.write_text("\n".join(lines) + "\n")
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["estimate", str(path), "--methods", "ppi:2", "--out", str(tmp_path / "out")])
    assert code == 4
    assert "SingularGram: covariance is not finite" in capsys.readouterr().err


def test_a_column_whose_squares_overflow_warns_nothing(tmp_path, capsys):
    # under the suite's error::RuntimeWarning filter, with no np.errstate
    # here: a numpy warning from the moments or the sandwich would raise
    rng = np.random.default_rng(6)
    lines = ["x_1,y,yhat_1,yhat_2"]
    for i in range(80):
        y = float(rng.standard_normal())
        label = repr(y) if i < 30 else ""
        lines.append(f"1.0,{label},{y + 0.3 * rng.standard_normal()!r},{y + 1e200 * rng.standard_normal()!r}")
    path = tmp_path / "huge.csv"
    path.write_text("\n".join(lines) + "\n")
    assert main(["estimate", str(path), "--methods", "sada", "--out", str(tmp_path / "sada")]) == 0
    report = json.loads((tmp_path / "sada" / "report.json").read_text())
    assert "weight_fallback" in report["records"][0]["diagnostics"]
    capsys.readouterr()
    code = main(["estimate", str(path), "--methods", "naive,ppi:2,ppi_pp:2,sada", "--model", "ols",
                 "--out", str(tmp_path / "ols")])
    assert code == 4
    err = capsys.readouterr().err
    assert "SingularGram: covariance is not finite" in err
    assert "RuntimeWarning" not in err


def test_a_closed_form_solve_that_overflows_exits_four_and_warns_nothing(tmp_path, capsys):
    # under the suite's error::RuntimeWarning filter, with no np.errstate
    # here: a prediction column or labels near 1.5e307 overflow the design
    # products, which is a fallback or a SingularGram, never NaN or a warning
    rng = np.random.default_rng(8)

    def write(name, huge_labels):
        lines = ["x_1,x_2,y,yhat_1,yhat_2"]
        for i in range(200):
            x = float(rng.standard_normal())
            y = 0.5 - x + float(rng.standard_normal())
            huge = 1.5e307 * (1.0 + 0.1 * float(rng.standard_normal()))
            label = repr(huge if huge_labels else y) if i < 60 else ""
            lines.append(f"1.0,{x!r},{label},{y + 0.5 * rng.standard_normal()!r},{y if huge_labels else huge!r}")
        path = tmp_path / name
        path.write_text("\n".join(lines) + "\n")
        return path

    column = write("column.csv", huge_labels=False)
    assert main(["estimate", str(column), "--model", "ols", "--methods", "sada", "--out", str(tmp_path / "sada")]) == 0
    report = json.loads((tmp_path / "sada" / "report.json").read_text())
    assert "weight_fallback" in report["records"][0]["diagnostics"]
    assert capsys.readouterr().err == ""
    for path, methods in ((column, "ppi:2"), (write("labels.csv", huge_labels=True), "naive,sada")):
        code = main(["estimate", str(path), "--model", "ols", "--methods", methods, "--out", str(tmp_path / "out")])
        assert code == 4
        assert capsys.readouterr().err == "SingularGram: estimate is not finite (a design product overflowed)\n"


@pytest.mark.parametrize("model", ["mean", "ols"])
def test_estimate_on_labels_in_the_hundreds_of_millions(tmp_path, capsys, model):
    # the solve must not depend on the units of y
    rng = np.random.default_rng(6)
    lines = ["x_1,x_2,y,yhat_1,yhat_2"]
    for i in range(200):
        x = float(rng.standard_normal())
        y = 2.5e8 + 1e6 * (x + rng.standard_normal())
        label = repr(y) if i < 60 else ""
        yhat_1 = y + 4e5 * rng.standard_normal()
        yhat_2 = 2.5e8 + 1e6 * rng.standard_normal()
        lines.append(f"1.0,{x!r},{label},{yhat_1!r},{yhat_2!r}")
    path = tmp_path / "large.csv"
    path.write_text("\n".join(lines) + "\n")
    assert main(["estimate", str(path), "--model", model, "--out", str(tmp_path / "out")]) == 0
    rows = read_estimates(tmp_path / "out")
    assert abs(rows[("sada", 1)][0] - 2.5e8) < 1e6


@pytest.mark.parametrize("command", [["simulate", "--workers", "1"], ["simulate", "--workers", "2"], ["estimate"]])
def test_column_beyond_k_exits_two(tmp_path, capsys, command):
    # the synthetic study and the CSV both have K = 2
    if command[0] == "simulate":
        args = command + ["--reps", "4", "--gamma-grid", "0.5", "--total-rows", "40", "--labeled-rows", "10"]
    else:
        args = command + [str(make_csv(tmp_path, K=2))]
    assert main(args + ["--methods", "naive,ppi:3", "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("ConfigError: method 'ppi:3' refers to column 3")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["estimate", "simulate"])
@pytest.mark.parametrize(
    "methods, error",
    [
        ("ppi:,ppi:1", "bad column index in method token 'ppi:'"),
        ("naive,ppi_pp:", "bad column index in method token 'ppi_pp:'"),
        ("sada:", "method 'sada' takes no column index: 'sada:'"),
    ],
)
def test_a_colon_with_no_column_exits_two(tmp_path, capsys, command, methods, error):
    # "ppi:" once read as column 1, so "ppi:,ppi:1" fitted column 1 twice
    args = [command] if command == "simulate" else [command, str(make_csv(tmp_path))]
    assert main(args + ["--methods", methods, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"ConfigError: {error}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["estimate", "compare", "simulate"])
@pytest.mark.parametrize("flags", [["--level", "1.5"], ["--level", "0"]])
def test_out_of_range_level_exits_two(tmp_path, capsys, command, flags):
    args = [command] if command == "simulate" else [command, str(make_csv(tmp_path))]
    assert main(args + flags + ["--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("ConfigError:")
    assert not (tmp_path / "out").exists()


def test_out_of_range_level_in_config_exits_two(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("level = 1.5\n")
    out = tmp_path / "out"
    assert main(["estimate", str(make_csv(tmp_path)), "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("ConfigError:")


def test_compare_has_no_methods_flag(tmp_path, capsys):
    csv_path = make_csv(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["compare", str(csv_path), "--methods", "naive"])
    assert exc.value.code == 2
    assert "--methods" in capsys.readouterr().err


def test_config_file_parsing(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\nlevel = 0.9\nreps = 7\nmethods = naive,sada\n")
    parsed = read_config_file(cfg)
    assert parsed == {"level": "0.9", "reps": "7", "methods": "naive,sada"}
    bad = tmp_path / "bad.cfg"
    bad.write_text("not a pair\n")
    with pytest.raises(Exception):
        read_config_file(bad)


def test_cli_flag_overrides_config(tmp_path):
    csv_path = make_csv(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("level = 0.5\n")
    out = tmp_path / "out"
    assert main([
        "estimate", str(csv_path), "--config", str(cfg), "--level", "0.95", "--out", str(out)
    ]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["level"] == 0.95


def test_parse_gamma_grid_forms():
    assert parse_gamma_grid("0,0.5,1") == [0.0, 0.5, 1.0]
    assert parse_gamma_grid("0:1:11")[1] == pytest.approx(0.1)
    with pytest.raises(Exception):
        parse_gamma_grid("0:1")
    with pytest.raises(Exception):
        parse_gamma_grid("oops")


def test_simulate_deterministic_bytes(tmp_path):
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    args = ["simulate", "--reps", "6", "--gamma-grid", "0,1", "--methods", "naive,sada",
            "--seed", "7", "--total-rows", "60", "--labeled-rows", "20"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()
    assert (out1 / "efficiency.svg").read_bytes() == (out2 / "efficiency.svg").read_bytes()


def test_simulate_single_rep_emits_degenerate_flag(tmp_path):
    out = tmp_path / "one"
    assert main(["simulate", "--reps", "1", "--gamma-grid", "0.5", "--methods", "sada",
                 "--out", str(out), "--total-rows", "40", "--labeled-rows", "10"]) == 0
    assert "degenerate_sd" in (out / "results.csv").read_text()


def test_compare_sorted_by_variance_and_k1_equivalence(tmp_path):
    csv_path = make_csv(tmp_path, K=1)
    out = tmp_path / "out"
    assert main(["compare", str(csv_path), "--out", str(out)]) == 0
    lines = (out / "compare.csv").read_text().splitlines()
    header = lines[0].split(",")
    rows = {ln.split(",")[0]: ln.split(",") for ln in lines[1:]}
    assert set(rows) == {"naive", "ppi:1", "ppi_pp:1", "sada"}
    variances = [float(ln.split(",")[1]) for ln in lines[1:]]
    assert variances == sorted(variances)
    est_idx = header.index("estimate_1")
    assert abs(float(rows["sada"][est_idx]) - float(rows["ppi_pp:1"][est_idx])) <= 1e-10
    assert rows["sada"][header.index("weights")] != ""


def test_simulate_default_grid_emits_eleven_gammas(tmp_path):
    out = tmp_path / "grid"
    assert main(["simulate", "--reps", "5", "--methods", "naive,sada",
                 "--seed", "3", "--out", str(out),
                 "--total-rows", "50", "--labeled-rows", "15"]) == 0
    lines = (out / "results.csv").read_text().splitlines()
    assert len(lines) == 1 + 11 * 2  # header + 11 gammas x 2 methods
    gammas = {line.split(",")[0] for line in lines[1:]}
    assert len(gammas) == 11


def test_compare_perfect_prediction_reaches_oracle_scaling(tmp_path):
    # yhat_1 == y on every row: SADA's estimated variance should scale like
    # n/N times the naive variance
    rng = np.random.default_rng(21)
    N, n = 400, 100
    y = 0.5 + rng.standard_normal(N)
    lines = ["x_1,y,yhat_1"]
    for i in range(N):
        label = repr(float(y[i])) if i < n else ""
        lines.append(f"1.0,{label},{float(y[i])!r}")
    path = tmp_path / "perfect.csv"
    path.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    assert main(["compare", str(path), "--out", str(out)]) == 0
    rows = (out / "compare.csv").read_text().splitlines()
    header = rows[0].split(",")
    var = {ln.split(",")[0]: float(ln.split(",")[1]) for ln in rows[1:]}
    ratio = var["sada"] / var["naive"]
    assert 0.5 * (n / N) <= ratio <= 2.0 * (n / N)


def test_compare_constant_predictions_collapse_to_naive(tmp_path):
    csv_path = make_csv(tmp_path, K=2, constant=True)
    out = tmp_path / "out"
    assert main(["compare", str(csv_path), "--out", str(out)]) == 0
    lines = (out / "compare.csv").read_text().splitlines()
    header = lines[0].split(",")
    est_idx = header.index("estimate_1")
    estimates = {ln.split(",")[0]: float(ln.split(",")[est_idx]) for ln in lines[1:]}
    for method, est in estimates.items():
        assert abs(est - estimates["naive"]) < 1e-10, method



@pytest.mark.parametrize(
    "command, config",
    [("compare", "methods = naive"), ("simulate", "model = ols"), ("estimate", "reps = 3"), ("estimate", None)],
)
def test_option_of_another_command_exits_two(tmp_path, capsys, command, config):
    # each config key is another command's option; without a config, --seed is simulate's
    args = [command] if command == "simulate" else [command, str(make_csv(tmp_path))]
    args += ["--out", str(tmp_path / "out")]
    if config is None:
        with pytest.raises(SystemExit) as exc:
            main(args + ["--seed", "1"])
        code, name = exc.value.code, "--seed"
    else:
        path = tmp_path / "run.cfg"
        path.write_text(config + "\n")
        code, name = main(args + ["--config", str(path)]), repr(config.split()[0])
    assert code == 2
    assert name in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["estimate", "compare", "simulate"])
@pytest.mark.parametrize("key, value", [("centering", "off"), ("ridge_scale", "0.01")])
def test_centering_is_no_option_of_any_command(tmp_path, capsys, command, key, value):
    # moments are always centred and the weight-solve ridge is fixed, so
    # neither option has a flag or a config key
    args = [command] if command == "simulate" else [command, str(make_csv(tmp_path))]
    args += ["--out", str(tmp_path / "out")]
    flag = "--" + key.replace("_", "-")
    with pytest.raises(SystemExit) as exc:
        main(args + [flag, value])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err
    path = tmp_path / "run.cfg"
    path.write_text(f"{key} = {value}\n")
    assert main(args + ["--config", str(path)]) == 2
    assert capsys.readouterr().err == f"ConfigError: {command} takes no config key '{key}'\n"
    assert not (tmp_path / "out").exists()


def _non_utf8_csv(tmp_path):
    path = make_csv(tmp_path, name="latin1.csv")
    path.write_bytes(path.read_bytes().replace(b"x_1", b"x_\xe91", 1))
    return path


@pytest.mark.parametrize(
    "case, code, error",
    [
        ("csv not utf-8", 3, "ParseError"),
        ("csv is a directory", 3, "IsADirectoryError"),
        ("config not utf-8", 2, "ConfigError"),
        ("out is a file", 2, "ConfigError"),
    ],
)
def test_unreadable_input_exits_with_its_code(tmp_path, capsys, case, code, error):
    csv_path, out, config = make_csv(tmp_path), tmp_path / "out", []
    if case == "csv not utf-8":
        csv_path = _non_utf8_csv(tmp_path)
    elif case == "csv is a directory":
        csv_path = tmp_path / "dir.csv"
        csv_path.mkdir()
    elif case == "config not utf-8":
        (tmp_path / "run.cfg").write_bytes(b"level = 0.9 # \xff\n")
        config = ["--config", str(tmp_path / "run.cfg")]
    else:
        out.write_text("not a directory\n")
    assert main(["estimate", str(csv_path), "--out", str(out), *config]) == code
    err = capsys.readouterr().err
    assert err.startswith(f"{error}:")
    if case == "csv not utf-8":
        assert str(csv_path) in err


@pytest.mark.parametrize("command", ["estimate", "compare", "simulate"])
def test_out_under_a_regular_file_exits_two(tmp_path, capsys, command):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory\n")
    args = [command, str(make_csv(tmp_path))]
    if command == "simulate":
        args = ["simulate", "--reps", "2", "--gamma-grid", "0.5"]
    assert main([*args, "--out", str(blocker / "sub")]) == 2
    assert capsys.readouterr().err.startswith("ConfigError:")


@pytest.mark.parametrize("source", ["--workers 0", "--workers -3", "config workers = 0"])
def test_simulate_workers_below_one_exits_two(tmp_path, capsys, source):
    args = ["simulate", "--reps", "2", "--gamma-grid", "0.5", "--out", str(tmp_path / "out")]
    if source.startswith("config"):
        config = tmp_path / "run.cfg"
        config.write_text(source.removeprefix("config ") + "\n")
        args += ["--config", str(config)]
    else:
        args += source.split()
    assert main(args) == 2
    assert "workers must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_config_file_with_byte_order_mark(tmp_path):
    path = tmp_path / "bom.cfg"
    path.write_text("level = 0.9\n", encoding="utf-8-sig")
    assert read_config_file(path) == {"level": "0.9"}


def test_simulate_non_finite_theta_star_exits_two(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["simulate", "--reps", "3", "--gamma-grid", "0.5", "--theta-star", "nan", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("ConfigError: theta_star must be finite")
    assert not out.exists()


# one non-default value for every option of each command
NON_DEFAULTS = {
    "estimate": [("model", "ols"), ("level", "0.9"), ("methods", "naive,ppi:1,ppi_pp:2,sada"),
                 ("out", "elsewhere")],
    "compare": [("model", "ols"), ("level", "0.8"), ("out", "elsewhere")],
    "simulate": [("level", "0.9"), ("out", "elsewhere"),
                 ("methods", "naive,ppi:1,sada"), ("seed", "4"), ("reps", "4"), ("gamma_grid", "0,1"),
                 ("workers", "2"), ("strict", "on"), ("theta_star", "1.5"), ("total_rows", "50"),
                 ("labeled_rows", "12")],
}


@pytest.mark.parametrize(
    "command, key, value", [(c, k, v) for c, options in NON_DEFAULTS.items() for k, v in options]
)
def test_config_value_writes_what_the_flag_writes(tmp_path, capsys, command, key, value):
    if key == "out":
        value = str(tmp_path / value)
    out = value if key == "out" else str(tmp_path / "out")
    small = {"reps": "3", "gamma_grid": "0.5", "total_rows": "40", "labeled_rows": "10", "out": out}
    base = [command] if command == "simulate" else [command, str(make_csv(tmp_path))]
    for k, v in small.items():
        if k != key and (command == "simulate" or k == "out"):
            base += ["--" + k.replace("_", "-"), v]
    config = tmp_path / "run.cfg"
    config.write_text(f"{key} = {value}\n")
    flag = ["--strict"] if key == "strict" else ["--" + key.replace("_", "-"), value]
    written = []
    for argv in (base + ["--config", str(config)], base + flag):
        assert main(argv) == 0
        files = {p.name: p.read_bytes() for p in sorted(Path(out).iterdir())}
        written.append((files, capsys.readouterr().out))
        shutil.rmtree(out)
    assert written[0] == written[1]


@pytest.mark.parametrize(
    "key, value", [("level", "abc"), ("workers", "two"), ("strict", "maybe")]
)
def test_config_value_that_fails_to_convert_exits_two(tmp_path, capsys, key, value):
    config = tmp_path / "run.cfg"
    config.write_text(f"{key} = {value}\n")
    out = tmp_path / "out"
    args = ["simulate", "--reps", "2", "--gamma-grid", "0.5", "--out", str(out), "--config", str(config)]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("ConfigError:") and key in err and value in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["estimate", "compare", "simulate"])
def test_help_shows_every_default(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    options = re.findall(r"^  (--[a-z-]+)", text, flags=re.M)
    assert len(options) == (5 if command == "estimate" else 4 if command == "compare" else 12)
    assert " ".join(text.split()).count("(default: ") == len(options)
    assert "(default: 0.95)" in text


def test_estimate_names_rows_by_method_token(tmp_path):
    csv_path = make_csv(tmp_path, K=2)
    out = tmp_path / "out"
    assert main(["estimate", str(csv_path), "--methods", "ppi:1,ppi:2", "--out", str(out)]) == 0
    lines = (out / "estimates.csv").read_text().splitlines()[1:]
    assert [line.split(",")[0] for line in lines] == ["ppi:1", "ppi:2"]
    report = json.loads((out / "report.json").read_text())
    assert [r["method"] for r in report["records"]] == ["ppi", "ppi"]


def test_estimate_drops_repeated_method_tokens(tmp_path, capsys):
    csv_path = make_csv(tmp_path)
    # a repeat is dropped by the method it names, not by its text
    for i, (spec, expected) in enumerate([
        ("naive,naive,ppi,ppi:1", ["naive", "ppi"]),
        ("naive,ppi_pp,ppi_pp:1", ["naive", "ppi_pp"]),
    ]):
        out = tmp_path / f"out{i}"
        assert main(["estimate", str(csv_path), "--methods", spec, "--out", str(out)]) == 0
        table = capsys.readouterr().out.splitlines()[2:-1]  # between the rule and the "wrote" line
        assert [line.split()[0] for line in table] == expected
        lines = (out / "estimates.csv").read_text().splitlines()[1:]
        assert [line.split(",")[0] for line in lines] == expected
        assert json.loads((out / "report.json").read_text())["methods"] == expected


def test_cli_imports_only_numpy_beyond_the_standard_library():
    src = str(Path(sada.__file__).resolve().parents[1])
    probe = (
        "import sys; before = set(sys.modules); import sada.cli; "
        "print('\\n'.join(sorted({m.split('.')[0] for m in set(sys.modules) - before})))"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True)
    added = {name for name in result.stdout.split() if not (name.startswith("__") and name.endswith("__"))}
    assert "sada" in added and "numpy" in added
    assert added - set(sys.stdlib_module_names) - {"numpy", "sada"} == set()
