"""Monte Carlo replication harness for comparing the estimators.

A study is its config: ``SyntheticConfig``, ``ConditionalMeanConfig`` and
``OlsCoverageConfig`` each map the standard normals of their replicates to
the replicates' arrays (``batch``), name their score model (``model``) and
their estimand (``target``).  Every replicate draws its own RNG substream
from ``SeedSequence(seed, spawn_key=(rep_index,))``, and uses only its first
m x N standard normals, m = ``normals_per_row``.  A call's (config,
replicate) pairs, in replicate and then config order, are cut into the
fewest batches of even size within ``BATCH_ROWS`` rows (``_plan``), so the
gammas of a sweep that share a replicate sit side by side.  A batch draws
the substream of each distinct replicate in it once, as one (m, N) block
shared by every config (gamma) that holds it, so a call draws each
replicate once, or twice where a batch boundary falls among its gammas.
One classmethod call, ``batch(cfgs, reps, normals)``, builds the whole
batch's rows-last arrays with whole-batch arithmetic, the fields that differ
between configs (gamma, ``noise_sd``) taken as per-pair columns, and these
become one ``problem.Problem``, not validated as datasets.  ``draw(rep_index)`` is the
batch of one, rows first.
Every method is fitted on all of a batch's pairs in one batched pass.  Each
replicate's fit does not depend on which others share its batch, so results
are bit-identical no matter how the replicates are batched, or whether the
batches run in this process or in a process pool.  The batches' results are
scattered into (config, method, replicate, p) arrays, their ``Fits.errors``
into one (config, method, replicate) array, and reduced once per call;
failed fits are counted from those errors per method and per exception
class.  Methods are named by the tokens of ``estimators.parse_method``.
"""
from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Iterable, Sequence

import numpy as np

from .data import Dataset
from .errors import ConfigError
from .estimators import unique_methods
from .inference import check_level, fit_method
from .models import ScoreModel, mean_model, ols_model
from .problem import Problem

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


def _column(cfgs: Sequence, name: str) -> np.ndarray:
    """Field ``name`` of each config of ``cfgs`` as a (B, 1) column, which
    broadcasts along a batch's rows."""
    return np.array([[getattr(cfg, name)] for cfg in cfgs], dtype=float)


def _prediction_pair(y: np.ndarray, eps1: np.ndarray, eps2: np.ndarray, gamma) -> np.ndarray:
    """(Yhat1, Yhat2) = (gamma*Y + (1-gamma)*eps1, (1-gamma)*Y + gamma*eps2) as (B, 2, N).

    Each column is summed in place in the result: a batch's draw is the
    peak of its memory, which a stack of the two columns would raise.
    """
    pair = np.empty((y.shape[0], 2, y.shape[1]))
    np.multiply(gamma, y, out=pair[:, 0])
    pair[:, 0] += (1.0 - gamma) * eps1
    np.multiply(1.0 - gamma, y, out=pair[:, 1])
    pair[:, 1] += gamma * eps2
    return pair


class _Study:
    """What the three study configs share: a replicate is a batch of one."""

    def draw(self, rep_index: int) -> tuple[np.ndarray, ...]:
        """Replicate ``rep_index`` as (features, labels, predictions, truth), rows first."""
        features, labels, predictions, truth = self.batch([self], [rep_index], _substreams(self, [rep_index]))
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

    @classmethod
    def batch(cls, cfgs: Sequence, reps: Sequence[int], normals: dict) -> tuple[np.ndarray, ...]:
        """Pairs (cfgs[i], reps[i]) as (features, labels, predictions, truth),
        rows last, from their normals ({rep: (3, N)}, see ``_substreams``)."""
        noise, eps1, eps2 = _gather(reps, normals)
        y = _column(cfgs, "theta_star") + noise
        gamma = _column(cfgs, "gamma")
        return np.ones((len(reps), 1, cfgs[0].N)), y[:, : cfgs[0].n], _prediction_pair(y, eps1, eps2, gamma), y

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

    @classmethod
    def batch(cls, cfgs: Sequence, reps: Sequence[int], normals: dict) -> tuple[np.ndarray, ...]:
        """Pairs (cfgs[i], reps[i]) as (features, labels, predictions, truth),
        rows last, from their normals ({rep: (3, N)}, see ``_substreams``)."""
        x, noise, yhat2 = _gather(reps, normals)
        y = x + _column(cfgs, "noise_sd") * noise
        return x[:, None], y[:, : cfgs[0].n], np.stack([x, yhat2], axis=1), y

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

    @classmethod
    def batch(cls, cfgs: Sequence, reps: Sequence[int], normals: dict) -> tuple[np.ndarray, ...]:
        """Pairs (cfgs[i], reps[i]) as (features, labels, predictions, truth),
        rows last, from their normals ({rep: (4, N)}, see ``_substreams``)."""
        z, noise, eps1, eps2 = _gather(reps, normals)
        intercept, slope = np.array([cfg.target() for cfg in cfgs]).T[:, :, None]
        y = intercept + slope * z + noise
        X = np.stack([np.ones_like(z), z], axis=1)
        return X, y[:, : cfgs[0].n], _prediction_pair(y, eps1, eps2, _column(cfgs, "gamma")), y

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
    ``failures`` counts each method's failed replicates, and
    ``failure_classes`` the same by exception class name.
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
    failure_classes: dict = field(default_factory=dict)


def _draw_batch(pairs) -> list[np.ndarray]:
    """The (config, replicate index) pairs of one batch as (features, labels,
    predictions, truth), rows last and C-contiguous, in pair order.

    The configs share their class, N and seed, so a replicate index names the
    same substream in every config (gamma) that holds it: each distinct one
    is drawn once, and one ``batch`` call builds every pair from those
    normals, whatever configs the pairs belong to.
    """
    cfgs, reps = zip(*pairs)
    return [np.ascontiguousarray(a) for a in cfgs[0].batch(cfgs, reps, _substreams(cfgs[0], reps))]


def _run_chunk(methods: Sequence[str], level: float, pairs) -> tuple:
    """Fit every method on the (config, replicate index) pairs of one batch,
    with the model of its first config.

    Returns (theta, lower, upper, errors): theta, lower and upper (methods,
    pairs, p), with NaN bounds for the oracle, which has no interval, and
    ``errors`` (methods, pairs) the ``Fits.errors`` of each method: None, or
    the SadaError that the fit raises.  A configuration error is the same
    for every pair, so it is raised, never counted as a failed fit.
    """
    problem = Problem(pairs[0][0].model(), *_draw_batch(pairs))
    fits = [fit_method(problem, token, level=level) for token in methods]
    none = np.full_like(fits[0].theta, np.nan)
    lower, upper = np.array([(none, none) if f.lower is None else (f.lower, f.upper) for f in fits]).swapaxes(0, 1)
    return np.array([f.theta for f in fits]), lower, upper, np.stack([f.errors for f in fits])


def _aggregate(cfgs: Sequence, tokens: list[str], theta, lower, upper, errors) -> list[SimStudyResult]:
    """Reduce every config's results in one step to their summaries.

    theta, lower and upper are (config, token, replicate, p), and ``errors``
    (config, token, replicate) holds None, or the SadaError of each failed
    fit, whose class is counted.  A method's mean and SD are over its
    replicates that did not fail, and its coverage over those that have an
    interval (not the oracle's, whose bounds are NaN), so a config whose
    replicates all failed, or the oracle, reads NaN there.
    """
    target = np.array([cfg.target() for cfg in cfgs])[:, None, None, :]  # (config, 1, 1, p)
    failed = np.not_equal(errors, None)
    ok = ~failed[..., None]
    covered = ok & ~np.isnan(lower)
    with np.errstate(invalid="ignore", divide="ignore"):
        count = ok.sum(axis=2)
        estimates = np.where(ok, theta, np.nan)
        mean = np.where(ok, theta, 0.0).sum(axis=2) / count
        deviation = np.where(ok, theta - mean[:, :, None], 0.0)
        sd = np.sqrt((deviation * deviation).sum(axis=2) / count)
        hit = (lower <= target) & (target <= upper)
        coverage = (covered & hit).sum(axis=2) / covered.sum(axis=2)
        rel_efficiency = sd / sd[:, tokens.index("naive"), None]
    bias = mean - target[:, :, 0]
    classes = [{token: Counter() for token in tokens} for _ in cfgs]
    for c, j, r in np.argwhere(failed):
        classes[c][tokens[j]][type(errors[c, j, r]).__name__] += 1

    def per_token(array, c):
        return dict(zip(tokens, array[c]))

    return [
        SimStudyResult(
            methods=tuple(tokens),
            theta_star=target[c, 0, 0],
            reps=cfg.reps,
            seed=cfg.seed,
            estimates=per_token(estimates, c),
            sd=per_token(sd, c),
            mean=per_token(mean, c),
            bias=per_token(bias, c),
            rel_efficiency=per_token(rel_efficiency, c),
            coverage=per_token(coverage, c),
            failures={token: int(n) for token, n in zip(tokens, failed[c].sum(axis=1))},
            failure_classes={token: dict(sorted(counts.items())) for token, counts in classes[c].items()},
        )
        for c, cfg in enumerate(cfgs)
    ]


#: Fewest batches each worker must get before ``_run_studies`` starts a
#: process pool; a smaller sweep is fitted in this process, since starting a
#: pool costs more than the fits it takes over.  ``run_replications`` of k
#: batches of 327 replicates (N = 200, the most ``BATCH_ROWS`` holds) in a
#: fresh interpreter, one BLAS thread, 2-vCPU VM, fastest of 10 runs, with
#: the six default methods and with ``["sada"]`` alone (naive and sada, a
#: third of the work):
#:
#:     batches          2      4      6      8      10     12     16     24
#:     six methods
#:     one process (s)  0.056  0.117  0.160  0.208  0.241  0.358  0.379  0.672
#:     pool of 2 (s)    0.081  0.119  0.143  0.185  0.222  0.254  0.287  0.373
#:     sada alone
#:     one process (s)  0.057  0.080  0.136  0.152  0.209  0.255  0.280  0.407
#:     pool of 2 (s)    0.083  0.098  0.133  0.151  0.168  0.205  0.252  0.277
#:
#: With either method set the pool, its import included, pays from about 6
#: to 8 batches, 3 to 4 per worker, so the rule counts batches, not batches
#: x methods.  The acceptance sweep, 11 gammas x 1000 replicates, makes 34
#: batches, enough for 8 workers.
MIN_BATCHES_PER_WORKER = 4


def _cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


#: Row budget of one batch of ``_run_studies``, whose pairs are cut into the
#: fewest batches of whole replicates within it, of even size (``_plan``).
#: A batch pays a fixed cost per method and step whatever its size: with the
#: six default methods at N = 200 (one BLAS thread, fastest of 30), batches
#: of 81, 165 and 327 replicates took 4.5, 7.2 and 13.4 ms, so the 330 pairs
#: of 11 gammas x 30 replicates fit faster in 2 batches than in 5 of at most
#: 81.  The budget bounds a batch's memory: in a ``sada simulate`` of those
#: 330 pairs, peak RSS rose 0.9 MB over the process's with batches of at most
#: 81 pairs, 2.7 MB with 2 of 165 and 4.7 MB with one of 330.  ``CHUNK_ROWS``
#: is another budget, the chunk of a pass over one replicate's rows.
BATCH_ROWS = 2**16


def _plan(pairs: int, N: int) -> list[slice]:
    """The batches of a call's ``pairs`` (config, replicate) pairs of N rows
    each, as slices of the pair list, in order: the fewest batches of whole
    pairs that stay within ``BATCH_ROWS`` rows (one pair where N alone
    exceeds it), with sizes that differ by at most one."""
    count = -(-pairs // max(1, BATCH_ROWS // N))
    bounds = [pairs * b // count for b in range(count + 1)]
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def _run_studies(
    cfgs: Sequence,
    methods: Sequence[str],
    level: float,
    workers: int,
    strict: bool,
) -> list[SimStudyResult]:
    """Run every replicate of every config as one list of batches, then
    reduce all the configs in one step.

    The configs must share their class, N, n, seed and reps, as the gammas
    of ``efficiency_curve`` do.  The (config, replicate) pairs, in replicate
    and then config order, are cut by ``_plan`` into the fewest even batches
    within ``BATCH_ROWS`` rows.  A batch draws each distinct replicate's
    substream once for every config that holds it, so a call draws a
    replicate once, or twice where a batch boundary splits its configs.
    Each batch is built by one ``batch`` call, its Z' by one ``design``
    call, and fitted with the ``model()`` of its first config.  The batches
    are fitted in this process unless each worker would get at least
    ``MIN_BATCHES_PER_WORKER`` batches; then one process pool fits them all,
    with at most ``workers`` processes, one per usable CPU and one per
    ``MIN_BATCHES_PER_WORKER`` batches.  Under ``strict`` the error of the
    first failed fit, in config, replicate and then method order, is raised:
    as soon as its batch is fitted where it belongs to the first config,
    since no later batch can precede it, and otherwise once every batch has
    run; a pool then drops the batches it has not started.
    """
    if not methods:
        raise ConfigError("methods must be nonempty")
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    check_level(level)
    tokens = unique_methods(methods)
    if "naive" not in tokens:
        tokens = ["naive"] + tokens  # baseline for relative efficiencies
    run = partial(_run_chunk, tokens, level)
    C, R = len(cfgs), cfgs[0].reps
    pairs = [(cfg, rep) for rep in range(R) for cfg in cfgs]
    plan = _plan(len(pairs), cfgs[0].N)
    workers = min(workers, _cpus(), len(plan) // MIN_BATCHES_PER_WORKER)

    def checked(results):
        """``results``, one per batch of the plan, in order; under ``strict``,
        a batch's first failure of the first config is raised when it comes."""
        for batch, result in zip(plan, results):
            if strict:
                first = result[3][:, -batch.start % C::C]  # the first config's pairs
                for error in first.T.flat:  # replicate, then method order
                    if error is not None:
                        raise error
            yield result

    batches = (pairs[batch] for batch in plan)
    if workers < 2:
        results = list(checked(map(run, batches)))
    else:
        # imported here, where it is used: the import alone costs every CLI
        # command about 15 ms and 1.9 MB
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=workers)
        try:
            results = list(checked(pool.map(run, batches)))
        finally:
            pool.shutdown(cancel_futures=True)  # after a raise, start no further batch

    def by_config(parts):
        """The batches' (token, pair, ...) arrays joined in pair order, as (C, token, R, ...)."""
        joined = np.concatenate(parts, axis=1)
        return np.ascontiguousarray(np.moveaxis(joined.reshape(len(tokens), R, C, *joined.shape[2:]), 2, 0))

    theta, lower, upper, errors = (by_config(parts) for parts in zip(*results))
    if strict:
        for error in errors.transpose(0, 2, 1).flat:  # config, replicate, then method order
            if error is not None:
                raise error
    return _aggregate(cfgs, tokens, theta, lower, upper, errors)


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

