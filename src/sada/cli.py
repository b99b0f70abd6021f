"""Command-line surface: ``sada estimate | simulate | compare``.

Each option is declared once, to argparse, with its type and default.  An
optional key=value file (``--config``) whose keys are the command's own
option names sets new defaults, each value converted as its flag would be;
command-line flags take precedence.  Exit codes: 0 success, 2 config error,
3 data error, 4 numerical failure.
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
from .estimators import unique_methods
from .inference import check_level, fit_method
from .io import (
    format_human_table,
    load_dataset_csv,
    write_compare_table,
    write_efficiency_svg,
    write_estimate_reports,
    write_sim_table,
)
from .models import mean_model, ols_model
from .problem import Problem
from .simulate import DEFAULT_METHODS, SyntheticConfig, efficiency_curve

# Exit code by error class; the first match wins, so SadaError takes the rest.
_EXIT_CODES = (
    (ConfigError, 2),
    ((SchemaError, ParseError, DimensionMismatch, NonFiniteValue, NoLabeledRows,
      NoUnlabeledRows, FileNotFoundError, IsADirectoryError), 3),
    (SadaError, 4),
)


def read_config_file(path: str | Path) -> dict:
    """Parse a plain-text ``key = value`` file into strings; ``main`` checks and converts them."""
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
        out[key] = value
    return out


def _on_off(text: str) -> bool:
    text = text.strip().lower()
    if text in ("on", "true", "1", "yes"):
        return True
    if text in ("off", "false", "0", "no"):
        return False
    raise argparse.ArgumentTypeError(f"expected on/off, got {text!r}")


def parse_gamma_grid(spec: str) -> list[float]:
    """Grid spec: comma list ``0,0.5,1`` or linspace form ``start:stop:count``."""
    try:
        if ":" in spec:
            start, stop, count = spec.split(":")
            return np.linspace(float(start), float(stop), int(count)).tolist()
        return [float(tok) for tok in spec.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f"bad gamma grid {spec!r}; use a comma list or start:stop:count") from None


def _parse_methods(spec: str) -> list[str]:
    """Comma-separated method tokens, each checked, repeats of a method dropped in first-seen order."""
    tokens = unique_methods(tok.strip() for tok in spec.split(",") if tok.strip())
    if not tokens:
        raise ConfigError("methods list is empty")
    return tokens


def _build_model(name: str, d: int):
    if name == "mean":
        return mean_model()
    if d < 1:
        raise ConfigError("ols model requires at least one x_ feature column")
    return ols_model(d)


def _config_values(command_parser: argparse.ArgumentParser, command: str, config: dict) -> dict:
    """Convert each config value as its option of the same name converts a flag."""
    actions = {
        a.dest: a for a in command_parser._actions
        if a.option_strings and a.dest not in ("help", "config")
    }
    foreign = sorted(set(config) - set(actions))
    if foreign:
        raise ConfigError(f"{command} takes no config key {', '.join(map(repr, foreign))}")
    values = {}
    for key, text in config.items():
        action = actions[key]
        convert = _on_off if action.nargs == 0 else action.type or str  # a bare flag reads on/off
        try:
            values[key] = convert(text)
        except (ValueError, argparse.ArgumentTypeError, ConfigError) as exc:
            raise ConfigError(f"config {key} = {text!r}: {exc}") from None
        if action.choices is not None and values[key] not in action.choices:
            raise ConfigError(f"config {key} = {text!r}: choose from {', '.join(action.choices)}")
    return values


def _check_common(args) -> None:
    """Reject a bad level or output directory before any file is read."""
    check_level(args.level)
    nearest = next((p for p in (Path(args.out), *Path(args.out).parents) if p.exists()), None)
    if nearest is not None and not nearest.is_dir():
        raise ConfigError(f"out {args.out!r}: {str(nearest)!r} exists and is not a directory")


def _fit_csv(args, tokens) -> tuple:
    """Load the command's CSV and fit each method token of ``tokens(ds)`` on
    one problem, so every method shares one pilot and one set of design
    products: (ds, model, [(token, report), ...])."""
    _check_common(args)
    ds = load_dataset_csv(args.csv).dataset
    model = _build_model(args.model, ds.d)
    problem = Problem.of(ds, model)
    return ds, model, [(token, fit_method(problem, token, level=args.level).report()) for token in tokens(ds)]


def cmd_estimate(args) -> int:
    ds, model, entries = _fit_csv(args, lambda ds: args.methods)
    meta = {
        "command": "estimate",
        "level": args.level,
        "out": args.out,
        "csv": str(args.csv),
        "model": model.name,
        "n_labeled": ds.n,
        "n_total": ds.N,
        "n_predictions": ds.K,
        "methods": args.methods,
    }
    json_path, csv_path = write_estimate_reports(entries, args.out, meta)

    rows = []
    for token, report in entries:
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


def _compare_tokens(ds) -> list[str]:
    """naive, ppi:k and ppi_pp:k for every prediction column k, and sada."""
    columns = range(1, ds.K + 1)
    return ["naive", *(f"ppi:{k}" for k in columns), *(f"ppi_pp:{k}" for k in columns), "sada"]


def cmd_compare(args) -> int:
    ds, _, fitted = _fit_csv(args, _compare_tokens)
    entries = sorted(
        ((token, report, float(np.trace(np.atleast_2d(report.covariance))) / ds.n) for token, report in fitted),
        key=lambda e: e[2],
    )
    path = write_compare_table(entries, args.out)
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
    _check_common(args)
    cfg = SyntheticConfig(
        theta_star=args.theta_star,
        N=args.total_rows,
        n=args.labeled_rows,
        reps=args.reps,
        seed=args.seed,
    )
    rows = efficiency_curve(
        cfg,
        args.gamma_grid,
        args.methods,
        level=args.level,
        workers=args.workers,
        strict=args.strict,
    )
    out_dir = Path(args.out)
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

    def add_command(name, func, summary):
        sp = sub.add_parser(name, help=summary, formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        sp.set_defaults(func=func)
        return sp

    def add_common(sp):
        sp.add_argument("--config", help="key = value file of option defaults")
        sp.add_argument("--level", type=float, default=0.95, help="confidence level")
        sp.add_argument("--out", default="sada_out", help="output directory")

    sp_est = add_command("estimate", cmd_estimate, "estimate from a CSV file")
    sp_est.add_argument("csv", help="input CSV (x_*, y, yhat_* columns)")
    sp_est.add_argument("--model", choices=["mean", "ols"], default="mean", help="score model")
    add_common(sp_est)
    sp_est.add_argument("--methods", type=_parse_methods, default="naive,sada",
                        help="comma-separated method tokens")

    sp_cmp = add_command("compare", cmd_compare, "side-by-side method comparison on a CSV file")
    sp_cmp.add_argument("csv")
    sp_cmp.add_argument("--model", choices=["mean", "ols"], default="mean", help="score model")
    add_common(sp_cmp)

    study = SyntheticConfig()
    sp_sim = add_command("simulate", cmd_simulate, "synthetic efficiency study")
    add_common(sp_sim)
    sp_sim.add_argument("--methods", type=_parse_methods, default=",".join(DEFAULT_METHODS),
                        help="comma-separated method tokens")
    sp_sim.add_argument("--seed", type=int, default=study.seed, help="RNG seed")
    sp_sim.add_argument("--reps", type=int, default=study.reps, help="Monte Carlo replications per gamma")
    sp_sim.add_argument("--gamma-grid", dest="gamma_grid", type=parse_gamma_grid, default="0:1:11",
                        help="comma list or start:stop:count")
    sp_sim.add_argument("--workers", type=int, default=1,
                        help="at most this many worker processes; a sweep too small to repay a "
                        "process pool runs in this process")
    sp_sim.add_argument("--strict", action="store_true", help="abort on any replicate failure")
    sp_sim.add_argument("--theta-star", dest="theta_star", type=float, default=study.theta_star,
                        help="true mean")
    sp_sim.add_argument("--total-rows", dest="total_rows", type=int, default=study.N, help="N")
    sp_sim.add_argument("--labeled-rows", dest="labeled_rows", type=int, default=study.n, help="n")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            # config values become the command's defaults, so flags still win
            commands = next(a for a in parser._actions if a.dest == "command")
            command_parser = commands.choices[args.command]
            config = read_config_file(args.config)
            command_parser.set_defaults(**_config_values(command_parser, args.command, config))
            args = parser.parse_args(argv)
        return args.func(args)
    except (SadaError, FileNotFoundError, IsADirectoryError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return next(code for classes, code in _EXIT_CODES if isinstance(exc, classes))


if __name__ == "__main__":
    sys.exit(main())
