"""Monte Carlo replication harness for comparing the estimators.

A study is its config: ``SyntheticConfig``, ``ConditionalMeanConfig`` and
``OlsCoverageConfig`` each map the standard normals of their replicates to
the replicates' arrays (``batch``), name their score model (``model``) and
their estimand (``target``).  Every replicate draws its own RNG substream
from ``SeedSequence(seed, spawn_key=(rep_index,))``, and uses only its first
m x N standard normals, m = ``normals_per_row``.  The replicates of every
config of one call are cut, in config and replicate order, into batches of
at most ``weighting.CHUNK_ROWS`` rows, so a batch may span the gammas of a
sweep.  A batch draws the substream of each distinct replicate in it once,
as one (m, N) block shared by every config (gamma) that holds the
replicate; each config's ``batch`` turns the normals of its replicates into
rows-last arrays with whole-batch arithmetic, and these become one
``problem.Problem``, not validated as datasets.  ``draw(rep_index)`` is the
batch of one, rows first.  Every method is fitted on all of a batch's
replicates in one batched pass.  Each replicate's fit does not depend on
which others share its batch, so results are bit-identical no matter how
the replicates are batched, or whether the batches run in this process or
in a process pool.  Aggregation is a single deterministic reduction over
rep-indexed arrays.  Methods are named by the tokens of
``estimators.parse_method``.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import groupby
from operator import itemgetter
from typing import Iterable, Sequence

import numpy as np

from . import weighting
from .data import Dataset
from .errors import ConfigError
from .estimators import unique_methods
from .inference import check_level, fit_method
from .models import ScoreModel, mean_model, ols_model
from .problem import Problem, transposed_design

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


def _rng_for(seed: int, rep_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(rep_index,)))


def _substreams(cfg, reps: Iterable[int]) -> dict[int, np.ndarray]:
    """{rep: (cfg.normals_per_row, cfg.N) standard normals}, the start of the
    substream of each distinct replicate in ``reps``, drawn once each.

    One (m, N) draw gives the same numbers as m successive draws of N.
    """
    shape = (cfg.normals_per_row, cfg.N)
    return {rep: _rng_for(cfg.seed, rep).standard_normal(shape) for rep in set(reps)}


def _gather(reps: Sequence[int], normals: dict) -> np.ndarray:
    """The normals of ``reps``, in order, as (m, len(reps), N): one (B, N) array per draw."""
    return np.stack([normals[rep] for rep in reps], axis=1)


def _prediction_pair(y: np.ndarray, eps1: np.ndarray, eps2: np.ndarray, gamma: float) -> np.ndarray:
    """(Yhat1, Yhat2) = (gamma*Y + (1-gamma)*eps1, (1-gamma)*Y + gamma*eps2) as (B, 2, N)."""
    return np.stack([gamma * y + (1.0 - gamma) * eps1, (1.0 - gamma) * y + gamma * eps2], axis=1)


class _Study:
    """What the three study configs share: a replicate is a batch of one."""

    def draw(self, rep_index: int) -> tuple[np.ndarray, ...]:
        """Replicate ``rep_index`` as (features, labels, predictions, truth), rows first."""
        features, labels, predictions, truth = self.batch([rep_index], _substreams(self, [rep_index]))
        return features[0].T, labels[0], predictions[0].T, truth[0]


@dataclass(frozen=True)
class SyntheticConfig(_Study):
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

    normals_per_row = 3  # the noise of Y, eps1, eps2

    def __post_init__(self):
        _check_design(self)

    def batch(self, reps: Sequence[int], normals: dict) -> tuple[np.ndarray, ...]:
        """Replicates ``reps`` as (features, labels, predictions, truth), rows
        last, from their normals ({rep: (3, N)}, see ``_substreams``)."""
        noise, eps1, eps2 = _gather(reps, normals)
        y = self.theta_star + noise
        return np.ones((len(reps), 1, self.N)), y[:, : self.n], _prediction_pair(y, eps1, eps2, self.gamma), y

    def model(self) -> ScoreModel:
        return mean_model()

    def target(self) -> np.ndarray:
        return np.array([self.theta_star])


@dataclass(frozen=True)
class ConditionalMeanConfig(_Study):
    """Design for the efficiency-bound check: X ~ N(0,1), Y = X + noise,
    Yhat1 = X (the conditional mean), Yhat2 = independent noise; estimand E[Y]."""

    N: int = 200
    n: int = 60
    reps: int = 2000
    seed: int = 0
    noise_sd: float = 1.0

    normals_per_row = 3  # X, the noise of Y, Yhat2

    def __post_init__(self):
        _check_design(self)

    def batch(self, reps: Sequence[int], normals: dict) -> tuple[np.ndarray, ...]:
        """Replicates ``reps`` as (features, labels, predictions, truth), rows
        last, from their normals ({rep: (3, N)}, see ``_substreams``)."""
        x, noise, yhat2 = _gather(reps, normals)
        y = x + self.noise_sd * noise
        return x[:, None], y[:, : self.n], np.stack([x, yhat2], axis=1), y

    def model(self) -> ScoreModel:
        return mean_model()

    def target(self) -> np.ndarray:
        return np.array([0.0])


@dataclass(frozen=True)
class OlsCoverageConfig(_Study):
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

    normals_per_row = 4  # z, the noise of Y, eps1, eps2

    def __post_init__(self):
        _check_design(self)

    def batch(self, reps: Sequence[int], normals: dict) -> tuple[np.ndarray, ...]:
        """Replicates ``reps`` as (features, labels, predictions, truth), rows
        last, from their normals ({rep: (4, N)}, see ``_substreams``)."""
        z, noise, eps1, eps2 = _gather(reps, normals)
        intercept, slope = self.target()
        y = intercept + slope * z + noise
        X = np.stack([np.ones_like(z), z], axis=1)
        return X, y[:, : self.n], _prediction_pair(y, eps1, eps2, self.gamma), y

    def model(self) -> ScoreModel:
        return ols_model(2)

    def target(self) -> np.ndarray:
        return np.asarray(self.theta_star, dtype=float)


def generate_synthetic(cfg: SyntheticConfig, rep_index: int) -> tuple[Dataset, np.ndarray]:
    """Replicate ``rep_index`` of ``cfg`` as a validated dataset and its true labels."""
    features, labels, predictions, truth = cfg.draw(rep_index)
    return Dataset.from_arrays(features, labels, predictions), truth


@dataclass(frozen=True)
class SimStudyResult:
    """Aggregated Monte Carlo results for one study config; ``theta_star`` is its ``target()``.

    Per-method arrays are indexed by parameter component; ``estimates``
    carries the raw per-replication estimates for replay and plotting.
    """

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


def _draw_batch(replicates) -> list[np.ndarray]:
    """The (config, replicate index) pairs of one batch as (features, labels,
    predictions, truth), rows last and C-contiguous, in pair order.

    The configs share their class, N and seed, so a replicate index names the
    same substream in every config (gamma) that holds it: each distinct one
    is drawn once, and each run of pairs of one config is built from those
    normals by one ``batch`` call.
    """
    normals = _substreams(replicates[0][0], [rep for _, rep in replicates])
    parts = [cfg.batch([rep for _, rep in run], normals) for cfg, run in groupby(replicates, key=itemgetter(0))]
    return [np.concatenate(arrays) for arrays in zip(*parts)]


def _run_chunk(methods: Sequence[str], level: float, strict: bool, replicates) -> dict:
    """Fit every method on the (config, replicate index) pairs of one batch,
    with the model of its first config.

    Returns {token: (theta, lower, upper, failed)}: arrays with one row per
    pair, lower and upper None for the oracle, and ``failed`` marking the
    replicates whose fit raised a SadaError.  Under ``strict`` the error of
    the first failing replicate, in pair and then token order, is raised
    instead.  A configuration error is the same for every replicate, so it
    is raised, never counted as a failed fit.
    """
    features, labels, predictions, truth = _draw_batch(replicates)
    model = replicates[0][0].model()
    # Z' by one ``design`` call per replicate on its rows-first features, as in Problem.stack
    design = np.array([transposed_design(model, X.T) for X in features])
    problem = Problem(model, design, labels, predictions, truth)
    fits = [fit_method(problem, token, level=level) for token in methods]
    failed = np.stack([~np.equal(f.errors, None) for f in fits], axis=1)  # (reps, tokens)
    if strict and failed.any():
        rep, j = np.argwhere(failed)[0]
        raise fits[j].errors[rep]
    for f, bad in zip(fits, failed.T):
        if not np.all(np.isfinite(f.theta[~bad])):
            raise ValueError("estimate is not finite")
    return {token: (f.theta, f.lower, f.upper, bad) for token, f, bad in zip(methods, fits, failed.T)}


def _aggregate(cfg, tokens: list[str], results: dict) -> SimStudyResult:
    """Reduce one config's {token: (theta, lower, upper, failed)}, in rep order, to its summary."""
    theta_star = cfg.target()
    p = theta_star.shape[0]
    reps = cfg.reps
    estimates, covered, failures = {}, {}, {}
    for token in tokens:
        theta, lower, upper, failed = results[token]
        failures[token] = int(failed.sum())
        estimates[token] = np.where(failed[:, None], np.nan, theta)
        covered[token] = np.full((reps, p), np.nan)
        if lower is not None:
            hit = (lower <= theta_star) & (theta_star <= upper)
            covered[token][~failed] = hit[~failed]

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


#: Fewest full batches each worker must get before ``_run_studies`` starts a
#: process pool; a smaller sweep is fitted in this process, since starting a
#: pool costs more than the fits it takes over.  ``run_replications`` of
#: batches of 81 replicates (N = 200) in a fresh interpreter, one BLAS
#: thread, 2-vCPU VM, fastest of 5 runs (7 for 12 to 24 batches), with the
#: six default methods and with ``["sada"]`` alone (naive and sada, a third
#: of the work):
#:
#:     full batches     4      8      12     16     20     24     48     64
#:     six methods
#:     one process (s)  0.033  0.058  0.081  0.101  0.123  0.151  0.266  0.382
#:     pool of 2 (s)    0.061  0.074  0.098  0.091  0.110  0.123  0.205  0.323
#:     sada alone
#:     one process (s)  0.028  0.045  0.059  0.079  0.095  0.107  0.218  0.333
#:     pool of 2 (s)    0.056  0.077  0.074  0.090  0.096  0.112  0.190  0.265
#:
#: With either method set the pool, its import included, pays from about 16
#: to 24 batches, 10 per worker, so the rule counts batches, not batches x
#: methods.  The vectorised batch draw made each batch cheaper without moving
#: that crossover: it saves as much per batch in a worker as in one process.
MIN_BATCHES_PER_WORKER = 10


def _run_studies(
    cfgs: Sequence,
    methods: Sequence[str],
    level: float,
    workers: int,
    strict: bool,
) -> list[SimStudyResult]:
    """Run every replicate of every config as one list of batches, then
    reduce each config from its replicates' results.

    The configs must share their class, N, n and seed, as the gammas of
    ``efficiency_curve`` do: a batch may span configs, draws each distinct
    replicate's substream once for all of them, and is fitted with the
    ``model()`` of its first.  The (config, replicate) pairs, in config
    and then replicate order, are cut into batches of
    ``weighting.CHUNK_ROWS // N`` replicates (at least one), so a batch
    stays within that row budget.  The batches are fitted in this process
    unless each worker would get at least ``MIN_BATCHES_PER_WORKER`` full
    batches; then one process pool fits them all, with at most ``workers``
    processes, one per CPU and one per ``MIN_BATCHES_PER_WORKER`` full
    batches.
    """
    if not methods:
        raise ConfigError("methods must be nonempty")
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    check_level(level)
    tokens = unique_methods(methods)
    if "naive" not in tokens:
        tokens = ["naive"] + tokens  # baseline for relative efficiencies
    run = partial(_run_chunk, tokens, level, strict)
    replicates = [(cfg, rep) for cfg in cfgs for rep in range(cfg.reps)]
    size = max(1, weighting.CHUNK_ROWS // cfgs[0].N)
    batches = [replicates[lo:lo + size] for lo in range(0, len(replicates), size)]
    workers = min(workers, os.cpu_count() or 1, len(replicates) // size // MIN_BATCHES_PER_WORKER)
    if workers < 2:
        results = list(map(run, batches))
    else:
        # imported here, where it is used: the import alone costs every CLI
        # command about 15 ms and 1.9 MB
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run, batches))
    # every batch's (theta, lower, upper, failed) joined in pair order; the
    # oracle's lower and upper are None
    joined = {
        token: [None if parts[0] is None else np.concatenate(parts) for parts in zip(*(r[token] for r in results))]
        for token in tokens
    }
    studies, lo = [], 0
    for cfg in cfgs:
        own = {token: [None if a is None else a[lo:lo + cfg.reps] for a in arrays] for token, arrays in joined.items()}
        studies.append(_aggregate(cfg, tokens, own))
        lo += cfg.reps
    return studies


def run_replications(
    cfg: SyntheticConfig | ConditionalMeanConfig | OlsCoverageConfig,
    methods: Sequence[str] = DEFAULT_METHODS,
    level: float = 0.95,
    workers: int = 1,
    strict: bool = False,
) -> SimStudyResult:
    """Run every replicate of one study config, any of the three, and aggregate them.

    All three configs have K = 2 prediction columns, so the default methods
    apply to each.  The naive method is always included as the
    relative-efficiency baseline.  Per-replicate estimator failures are
    excluded and counted unless ``strict`` is set, in which case they raise.
    """
    return _run_studies([cfg], methods, level, workers, strict)[0]


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
    results = _run_studies(cfgs, methods, level, workers, strict)
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

