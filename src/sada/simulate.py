"""Monte Carlo replication harness for comparing the estimators.

Every replicate draws its own RNG substream from ``SeedSequence(seed,
spawn_key=(rep_index,))``, so results are bit-identical no matter how the
replicates are distributed over worker processes.  Aggregation is a single
deterministic reduction over rep-indexed arrays.  Methods are named by the
tokens of ``estimators.parse_method``.
"""
from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import islice
from typing import Iterable, Sequence

import numpy as np

from .data import Dataset
from .errors import ConfigError, SadaError
from .estimators import parse_method
from .inference import check_level, run_method
from .models import ScoreModel, mean_model, ols_model
from .weighting import DEFAULT_RIDGE_SCALE, check_ridge_scale

DEFAULT_METHODS = ("naive", "ppi:1", "ppi:2", "ppi_pp:1", "ppi_pp:2", "sada")


def _check_design(cfg) -> None:
    """Reject a study config whose replicates cannot be drawn; each field only where it has one."""
    if not 0.0 <= getattr(cfg, "gamma", 0.0) <= 1.0:
        raise ConfigError(f"gamma must be in [0, 1], got {cfg.gamma}")
    if not 1 <= cfg.n < cfg.N:
        raise ConfigError(f"need 1 <= n < N, got n={cfg.n}, N={cfg.N}")
    if cfg.reps < 1:
        raise ConfigError(f"reps must be >= 1, got {cfg.reps}")
    for name in ("theta_star", "noise_sd"):
        if not np.all(np.isfinite(getattr(cfg, name, 0.0))):
            raise ConfigError(f"{name} must be finite, got {getattr(cfg, name)}")


@dataclass(frozen=True)
class SyntheticConfig:
    """Design of the synthetic two-prediction study.

    Y ~ Normal(theta_star, 1); predictions Yhat1 = gamma*Y + (1-gamma)*eps1
    and Yhat2 = (1-gamma)*Y + gamma*eps2 with independent standard normal
    noise.  The first n of N rows are labeled and the single feature column
    is the constant 1.
    """

    theta_star: float = 0.5
    N: int = 200
    n: int = 60
    gamma: float = 0.5
    reps: int = 1000
    seed: int = 0

    def __post_init__(self):
        _check_design(self)


@dataclass(frozen=True)
class ConditionalMeanConfig:
    """Design for the efficiency-bound check: X ~ N(0,1), Y = X + noise,
    Yhat1 = X (the conditional mean), Yhat2 = independent noise; estimand E[Y]."""

    N: int = 200
    n: int = 60
    reps: int = 2000
    seed: int = 0
    noise_sd: float = 1.0

    def __post_init__(self):
        _check_design(self)


@dataclass(frozen=True)
class OlsCoverageConfig:
    """Two-feature linear model: x = (1, z), y = x'theta_star + noise, with the
    synthetic-style prediction pair at mixing parameter gamma.

    Defaults use a larger design than the mean study: the matrix-weight
    plug-in has K*p*p = 8 free entries, so the asymptotic intervals need a
    few hundred labeled rows to be in regime.
    """

    theta_star: tuple[float, float] = (1.0, 0.5)
    N: int = 1000
    n: int = 300
    gamma: float = 0.5
    reps: int = 2000
    seed: int = 0

    def __post_init__(self):
        _check_design(self)


def _rng_for(seed: int, rep_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(rep_index,)))


def generate_synthetic(cfg: SyntheticConfig, rep_index: int) -> tuple[Dataset, np.ndarray]:
    """One synthetic replicate; deterministic given (cfg.seed, rep_index)."""
    rng = _rng_for(cfg.seed, rep_index)
    y = cfg.theta_star + rng.standard_normal(cfg.N)
    eps1 = rng.standard_normal(cfg.N)
    eps2 = rng.standard_normal(cfg.N)
    yhat1 = cfg.gamma * y + (1.0 - cfg.gamma) * eps1
    yhat2 = (1.0 - cfg.gamma) * y + cfg.gamma * eps2
    ds = Dataset.from_arrays(
        features=np.ones((cfg.N, 1)),
        labels=y[: cfg.n],
        predictions=np.column_stack([yhat1, yhat2]),
    )
    return ds, y


def generate_conditional_mean(cfg: ConditionalMeanConfig, rep_index: int) -> tuple[Dataset, np.ndarray]:
    rng = _rng_for(cfg.seed, rep_index)
    x = rng.standard_normal(cfg.N)
    y = x + cfg.noise_sd * rng.standard_normal(cfg.N)
    noise = rng.standard_normal(cfg.N)
    ds = Dataset.from_arrays(
        features=x[:, None],
        labels=y[: cfg.n],
        predictions=np.column_stack([x, noise]),
    )
    return ds, y


def generate_ols(cfg: OlsCoverageConfig, rep_index: int) -> tuple[Dataset, np.ndarray]:
    rng = _rng_for(cfg.seed, rep_index)
    z = rng.standard_normal(cfg.N)
    X = np.column_stack([np.ones(cfg.N), z])
    y = X @ np.asarray(cfg.theta_star) + rng.standard_normal(cfg.N)
    eps1 = rng.standard_normal(cfg.N)
    eps2 = rng.standard_normal(cfg.N)
    yhat1 = cfg.gamma * y + (1.0 - cfg.gamma) * eps1
    yhat2 = (1.0 - cfg.gamma) * y + cfg.gamma * eps2
    ds = Dataset.from_arrays(
        features=X, labels=y[: cfg.n], predictions=np.column_stack([yhat1, yhat2])
    )
    return ds, y


_STUDIES = {
    "synthetic": generate_synthetic,
    "conditional_mean": generate_conditional_mean,
    "ols": generate_ols,
}


def _model_for(kind: str) -> ScoreModel:
    return ols_model(2) if kind == "ols" else mean_model()


def _theta_star_for(kind: str, cfg) -> np.ndarray:
    if kind == "synthetic":
        return np.array([cfg.theta_star])
    if kind == "conditional_mean":
        return np.array([0.0])
    return np.asarray(cfg.theta_star, dtype=float)


@dataclass(frozen=True)
class SimStudyResult:
    """Aggregated Monte Carlo results for one study configuration.

    Per-method arrays are indexed by parameter component; ``estimates``
    carries the raw per-replication estimates for replay and plotting.
    """

    kind: str
    methods: tuple[str, ...]
    theta_star: np.ndarray
    reps: int
    seed: int
    estimates: dict = field(repr=False, default_factory=dict)
    sd: dict = field(default_factory=dict)
    mean: dict = field(default_factory=dict)
    bias: dict = field(default_factory=dict)
    rel_efficiency: dict = field(default_factory=dict)
    coverage: dict = field(default_factory=dict)
    failures: dict = field(default_factory=dict)


def _run_one_rep(kind: str, methods: Sequence[str], level: float, ridge_scale: float,
                 strict: bool, cfg, rep: int):
    """Run every method on one replicate; returns {token: (theta, lo, hi) | None}.

    A configuration error is the same for every replicate, so it is raised,
    never counted as a failed fit.
    """
    ds, truth = _STUDIES[kind](cfg, rep)
    model = _model_for(kind)
    out = {}
    for token in methods:
        try:
            report = run_method(ds, model, token, level=level, ridge_scale=ridge_scale, truth=truth)
        except ConfigError:
            raise
        except SadaError:
            if strict:
                raise
            out[token] = None
            continue
        iv = report.intervals
        out[token] = (report.theta_hat, None, None) if iv is None else (report.theta_hat, iv.lower, iv.upper)
    return out


def _aggregate(kind: str, cfg, tokens: list[str], rep_rows: Iterable[dict]) -> SimStudyResult:
    """Reduce one config's replicate rows, in rep order, to its summary."""
    theta_star = _theta_star_for(kind, cfg)
    p = theta_star.shape[0]
    reps = cfg.reps
    estimates = {t: np.full((reps, p), np.nan) for t in tokens}
    covered = {t: np.full((reps, p), np.nan) for t in tokens}
    failures = {t: 0 for t in tokens}
    for rep, row in enumerate(rep_rows):
        for token in tokens:
            got = row[token]
            if got is None:
                failures[token] += 1
                continue
            theta, lo, hi = got
            estimates[token][rep] = theta
            if lo is not None:
                covered[token][rep] = (lo <= theta_star) & (theta_star <= hi)

    sd, mean, bias, rel_eff, coverage = {}, {}, {}, {}, {}
    with np.errstate(invalid="ignore", divide="ignore"):
        for token in tokens:
            est = estimates[token]
            ok = ~np.isnan(est[:, 0])
            mean[token] = est[ok].mean(axis=0) if ok.any() else np.full(p, np.nan)
            sd[token] = est[ok].std(axis=0, ddof=0) if ok.any() else np.full(p, np.nan)
            bias[token] = mean[token] - theta_star
            cov_ok = ~np.isnan(covered[token][:, 0])
            coverage[token] = (
                covered[token][cov_ok].mean(axis=0) if cov_ok.any() else np.full(p, np.nan)
            )
        for token in tokens:
            rel_eff[token] = sd[token] / sd["naive"]

    return SimStudyResult(
        kind=kind,
        methods=tuple(tokens),
        theta_star=theta_star,
        reps=reps,
        seed=cfg.seed,
        estimates=estimates,
        sd=sd,
        mean=mean,
        bias=bias,
        rel_efficiency=rel_eff,
        coverage=coverage,
        failures=failures,
    )


def _run_studies(
    kind: str,
    cfgs: Sequence,
    methods: Sequence[str],
    level: float,
    ridge_scale: float,
    workers: int,
    strict: bool,
) -> list[SimStudyResult]:
    """Run every replicate of every config through one ordered map, then
    reduce each config from its slice of the results.

    More than one worker uses one process pool for the whole call, with about
    four chunks of replicates per worker and no more processes than CPUs or
    chunks.
    """
    if not methods:
        raise ConfigError("methods must be nonempty")
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    check_level(level)
    check_ridge_scale(ridge_scale)
    tokens = list(dict.fromkeys(methods))
    if "naive" not in tokens:
        tokens = ["naive"] + tokens  # baseline for relative efficiencies
    for token in tokens:
        parse_method(token)
    run = partial(_run_one_rep, kind, tokens, level, ridge_scale, strict)
    jobs = [(cfg, rep) for cfg in cfgs for rep in range(cfg.reps)]
    workers = min(workers, os.cpu_count() or 1)
    chunksize = -(-len(jobs) // (workers * 4))
    workers = min(workers, -(-len(jobs) // chunksize))  # no more processes than chunks
    with ExitStack() as stack:
        if workers <= 1:
            rows = map(run, *zip(*jobs))
        else:
            pool = stack.enter_context(ProcessPoolExecutor(max_workers=workers))
            rows = pool.map(run, *zip(*jobs), chunksize=chunksize)
        return [_aggregate(kind, cfg, tokens, islice(rows, cfg.reps)) for cfg in cfgs]


def run_replications(
    cfg: SyntheticConfig,
    methods: Sequence[str] = DEFAULT_METHODS,
    level: float = 0.95,
    ridge_scale: float = DEFAULT_RIDGE_SCALE,
    workers: int = 1,
    strict: bool = False,
) -> SimStudyResult:
    """Run the synthetic study at one gamma and aggregate across replicates.

    The naive method is always included as the relative-efficiency baseline.
    Per-replicate estimator failures are excluded and counted unless
    ``strict`` is set, in which case they raise.
    """
    return _run_studies("synthetic", [cfg], methods, level, ridge_scale, workers, strict)[0]


@dataclass(frozen=True)
class CurveRow:
    """One (gamma, method) cell of the efficiency table."""

    gamma: float
    method: str
    rel_efficiency: float
    coverage: float
    sd: float
    mean: float
    bias: float
    failures: int


def efficiency_curve(
    cfg_base: SyntheticConfig,
    gammas: Iterable[float],
    methods: Sequence[str] = DEFAULT_METHODS,
    level: float = 0.95,
    ridge_scale: float = DEFAULT_RIDGE_SCALE,
    workers: int = 1,
    strict: bool = False,
) -> list[CurveRow]:
    """The synthetic study at each gamma, emitted as a long-format table.

    Every config is built before any replicate runs, so a bad gamma anywhere
    in the grid fails first; all replicates then share one run.
    """
    cfgs = [replace(cfg_base, gamma=float(gamma)) for gamma in gammas]
    if not cfgs:
        raise ConfigError("gamma grid must be nonempty")
    results = _run_studies("synthetic", cfgs, methods, level, ridge_scale, workers, strict)
    return [
        CurveRow(
            gamma=cfg.gamma,
            method=token,
            rel_efficiency=float(res.rel_efficiency[token][0]),
            coverage=float(res.coverage[token][0]),
            sd=float(res.sd[token][0]),
            mean=float(res.mean[token][0]),
            bias=float(res.bias[token][0]),
            failures=res.failures[token],
        )
        for cfg, res in zip(cfgs, results)
        for token in res.methods
    ]


def conditional_mean_study(
    cfg: ConditionalMeanConfig,
    methods: Sequence[str] = ("naive", "sada"),
    level: float = 0.95,
    workers: int = 1,
    strict: bool = False,
) -> SimStudyResult:
    """Monte Carlo check of the efficiency bound under a conditional-mean prediction."""
    return _run_studies("conditional_mean", [cfg], methods, level, DEFAULT_RIDGE_SCALE, workers, strict)[0]


def ols_coverage_study(
    cfg: OlsCoverageConfig,
    methods: Sequence[str] = ("naive", "sada"),
    level: float = 0.95,
    workers: int = 1,
    strict: bool = False,
) -> SimStudyResult:
    """Coverage study for the linear-regression coefficients."""
    return _run_studies("ols", [cfg], methods, level, DEFAULT_RIDGE_SCALE, workers, strict)[0]
