"""Command-line surface: ``sada estimate | simulate | compare``.

Configuration comes from an optional key=value file (``--config``) whose
keys are the command's own option names; command-line flags take
precedence.  Exit codes: 0 success, 2 config error, 3 data error,
4 numerical failure.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .errors import (
    ConfigError,
    DimensionMismatch,
    NoLabeledRows,
    NonFiniteValue,
    NoUnlabeledRows,
    ParseError,
    SadaError,
    SchemaError,
)
from .estimators import parse_method
from .inference import run_method
from .io import (
    format_human_table,
    load_dataset_csv,
    write_compare_table,
    write_efficiency_svg,
    write_estimate_reports,
    write_sim_table,
)
from .models import mean_model, ols_model
from .simulate import DEFAULT_METHODS, SyntheticConfig, efficiency_curve
from .weighting import DEFAULT_RIDGE_SCALE

# Exit code by error class; the first match wins, so SadaError takes the rest.
_EXIT_CODES = (
    (ConfigError, 2),
    ((SchemaError, ParseError, DimensionMismatch, NonFiniteValue, NoLabeledRows,
      NoUnlabeledRows, FileNotFoundError, IsADirectoryError), 3),
    (SadaError, 4),
)

_DEFAULTS = {
    "model": "mean",
    "level": 0.95,
    "seed": 0,
    "reps": 1000,
    "gamma_grid": "0:1:11",
    "methods": None,  # per-command default
    "centering": "on",
    "ridge_scale": DEFAULT_RIDGE_SCALE,
    "strict": False,
    "workers": 1,
    "out": "sada_out",
    "theta_star": 0.5,
    "total_rows": 200,
    "labeled_rows": 60,
}


def read_config_file(path: str | Path) -> dict:
    """Parse a plain-text ``key = value`` configuration file."""
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from None
    out: dict = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}: line {line_no}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _DEFAULTS:
            raise ConfigError(f"{path}: line {line_no}: unknown key {key!r}")
        out[key] = value
    return out


def _resolve(key: str, flag_value, config: dict):
    if flag_value is not None:
        return flag_value
    if key in config:
        return config[key]
    return _DEFAULTS[key]


def _as_bool(value, key: str) -> bool:
    if isinstance(value, bool):
        return value
    text = str(value).strip().lower()
    if text in ("on", "true", "1", "yes"):
        return True
    if text in ("off", "false", "0", "no"):
        return False
    raise ConfigError(f"{key} must be on/off, got {value!r}")


def _as_float(value, key: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{key} must be a number, got {value!r}") from None


def _as_int(value, key: str) -> int:
    try:
        return int(str(value))
    except (TypeError, ValueError):
        raise ConfigError(f"{key} must be an integer, got {value!r}") from None


def parse_gamma_grid(spec: str) -> list[float]:
    """Grid spec: comma list ``0,0.5,1`` or linspace form ``start:stop:count``."""
    spec = spec.strip()
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ConfigError(f"bad gamma grid {spec!r}; use start:stop:count")
        start, stop = _as_float(parts[0], "gamma_grid"), _as_float(parts[1], "gamma_grid")
        count = _as_int(parts[2], "gamma_grid")
        if count < 1:
            raise ConfigError("gamma grid count must be >= 1")
        return [float(g) for g in np.linspace(start, stop, count)]
    try:
        grid = [float(tok) for tok in spec.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f"bad gamma grid {spec!r}") from None
    if not grid:
        raise ConfigError("gamma grid is empty")
    return grid


def _parse_methods(spec, default: tuple[str, ...]) -> list[str]:
    if spec is None:
        return list(default)
    if isinstance(spec, str):
        tokens = [tok.strip() for tok in spec.split(",") if tok.strip()]
    else:
        tokens = list(spec)
    if not tokens:
        raise ConfigError("methods list is empty")
    for token in tokens:
        parse_method(token)
    return tokens


def _build_model(name: str, d: int):
    if name == "mean":
        return mean_model()
    if name == "ols":
        if d < 1:
            raise ConfigError("ols model requires at least one x_ feature column")
        return ols_model(d)
    raise ConfigError(f"unknown model {name!r}")


def _common_meta(args, config, command: str) -> dict:
    foreign = sorted(set(config) - set(vars(args)))
    if foreign:
        raise ConfigError(f"{command} takes no config key {', '.join(map(repr, foreign))}")
    level = _as_float(_resolve("level", args.level, config), "level")
    if not 0.0 < level < 1.0:
        raise ConfigError(f"level must be in (0, 1), got {level!r}")
    ridge_scale = _as_float(_resolve("ridge_scale", args.ridge_scale, config), "ridge_scale")
    if not (np.isfinite(ridge_scale) and ridge_scale >= 0.0):
        raise ConfigError(f"ridge_scale must be a finite number >= 0, got {ridge_scale!r}")
    out = str(_resolve("out", args.out, config))
    if Path(out).exists() and not Path(out).is_dir():
        raise ConfigError(f"out {out!r} exists and is not a directory")
    return {
        "command": command,
        "level": level,
        "centering": _as_bool(_resolve("centering", args.centering, config), "centering"),
        "ridge_scale": ridge_scale,
        "out": out,
    }


def cmd_estimate(args) -> int:
    config = read_config_file(args.config) if args.config else {}
    meta = _common_meta(args, config, "estimate")
    loaded = load_dataset_csv(args.csv)
    ds = loaded.dataset
    model = _build_model(str(_resolve("model", args.model, config)), ds.d)
    tokens = _parse_methods(_resolve("methods", args.methods, config), ("naive", "sada"))

    reports = [
        run_method(ds, model, token, meta["level"], meta["centering"], meta["ridge_scale"])
        for token in tokens
    ]
    meta.update(
        {
            "csv": str(args.csv),
            "model": model.name,
            "n_labeled": ds.n,
            "n_total": ds.N,
            "n_predictions": ds.K,
            "methods": tokens,
        }
    )
    json_path, csv_path = write_estimate_reports(reports, meta["out"], meta)

    rows = []
    for token, report in zip(tokens, reports):
        for j in range(len(report.theta_hat)):
            rows.append(
                [
                    token,
                    j + 1,
                    float(report.theta_hat[j]),
                    float(report.intervals.lower[j]),
                    float(report.intervals.upper[j]),
                ]
            )
    print(format_human_table(["method", "comp", "estimate", "ci_lower", "ci_upper"], rows))
    print(f"wrote {json_path} and {csv_path}")
    return 0


def cmd_compare(args) -> int:
    config = read_config_file(args.config) if args.config else {}
    meta = _common_meta(args, config, "compare")
    loaded = load_dataset_csv(args.csv)
    ds = loaded.dataset
    model = _build_model(str(_resolve("model", args.model, config)), ds.d)

    tokens = ["naive"]
    tokens += [f"ppi:{k}" for k in range(1, ds.K + 1)]
    tokens += [f"ppi_pp:{k}" for k in range(1, ds.K + 1)]
    tokens.append("sada")

    entries = []
    for token in tokens:
        report = run_method(ds, model, token, meta["level"], meta["centering"], meta["ridge_scale"])
        variance = float(np.trace(np.atleast_2d(report.covariance))) / ds.n
        entries.append((token, report, variance))
    entries.sort(key=lambda e: e[2])

    path = write_compare_table(entries, meta["out"])
    rows = []
    for token, report, variance in entries:
        weights = ""
        if report.weights is not None:
            weights = " ".join(f"{v:.4g}" for v in np.asarray(report.weights).ravel())
        rows.append([token, variance, float(report.theta_hat[0]), weights])
    print(format_human_table(["method", "est_variance", "estimate_1", "weights"], rows))
    print(f"wrote {path}")
    return 0


def cmd_simulate(args) -> int:
    config = read_config_file(args.config) if args.config else {}
    meta = _common_meta(args, config, "simulate")
    cfg = SyntheticConfig(
        theta_star=_as_float(_resolve("theta_star", args.theta_star, config), "theta_star"),
        N=_as_int(_resolve("total_rows", args.total_rows, config), "total_rows"),
        n=_as_int(_resolve("labeled_rows", args.labeled_rows, config), "labeled_rows"),
        gamma=0.0,
        reps=_as_int(_resolve("reps", args.reps, config), "reps"),
        seed=_as_int(_resolve("seed", args.seed, config), "seed"),
    )
    gammas = parse_gamma_grid(str(_resolve("gamma_grid", args.gamma_grid, config)))
    tokens = _parse_methods(_resolve("methods", args.methods, config), DEFAULT_METHODS)
    workers = _as_int(_resolve("workers", args.workers, config), "workers")
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    strict = args.strict or _as_bool(config.get("strict", False), "strict")

    rows = efficiency_curve(
        cfg,
        gammas,
        tokens,
        level=meta["level"],
        centering=meta["centering"],
        ridge_scale=meta["ridge_scale"],
        workers=workers,
        strict=strict,
    )
    out_dir = Path(meta["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    table_path = out_dir / "results.csv"
    svg_path = out_dir / "efficiency.svg"
    write_sim_table(rows, table_path)
    write_efficiency_svg(rows, svg_path)

    print(
        format_human_table(
            ["gamma", "method", "rel_eff", "coverage"],
            [[r.gamma, r.method, r.rel_efficiency, r.coverage] for r in rows],
        )
    )
    print(f"wrote {table_path} and {svg_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sada",
        description="Safe and adaptive aggregation of multiple prediction columns.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--config", help="key = value configuration file")
        sp.add_argument("--level", type=float, help="confidence level (default 0.95)")
        sp.add_argument("--centering", choices=["on", "off"], help="moment centering")
        sp.add_argument("--ridge-scale", dest="ridge_scale", type=float, help="gram ridge multiplier")
        sp.add_argument("--out", help="output directory")

    sp_est = sub.add_parser("estimate", help="estimate from a CSV file")
    sp_est.add_argument("csv", help="input CSV (x_*, y, yhat_* columns)")
    sp_est.add_argument("--model", choices=["mean", "ols"])
    add_common(sp_est)
    sp_est.add_argument("--methods", help="comma-separated method tokens")
    sp_est.set_defaults(func=cmd_estimate)

    sp_cmp = sub.add_parser("compare", help="side-by-side method comparison on a CSV file")
    sp_cmp.add_argument("csv")
    sp_cmp.add_argument("--model", choices=["mean", "ols"])
    add_common(sp_cmp)
    sp_cmp.set_defaults(func=cmd_compare)

    sp_sim = sub.add_parser("simulate", help="synthetic efficiency study")
    add_common(sp_sim)
    sp_sim.add_argument("--methods", help="comma-separated method tokens")
    sp_sim.add_argument("--seed", type=int, help="RNG seed")
    sp_sim.add_argument("--reps", type=int, help="Monte Carlo replications per gamma")
    sp_sim.add_argument("--gamma-grid", dest="gamma_grid", help="comma list or start:stop:count")
    sp_sim.add_argument("--workers", type=int, help="worker processes")
    sp_sim.add_argument("--strict", action="store_true", help="abort on any replicate failure")
    sp_sim.add_argument("--theta-star", dest="theta_star", type=float, help="true mean")
    sp_sim.add_argument("--total-rows", dest="total_rows", type=int, help="N")
    sp_sim.add_argument("--labeled-rows", dest="labeled_rows", type=int, help="n")
    sp_sim.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SadaError, FileNotFoundError, IsADirectoryError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return next(code for classes, code in _EXIT_CODES if isinstance(exc, classes))


if __name__ == "__main__":
    sys.exit(main())
