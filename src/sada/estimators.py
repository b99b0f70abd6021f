"""The four estimators (naive, PPI, PPI++, SADA) plus the oracle benchmark.

All of them are roots of a weighted estimating equation

    mean_L s(x_i, y_i; theta)
        + W' [ mean_U S(x_i, yhat_i; theta) - mean_L S(x_i, yhat_i; theta) ] = 0

where S stacks the score evaluated at each prediction column, L/U are the
labeled/unlabeled rows and W is a (K*p, p) weight matrix:

* naive:  W = 0
* PPI:    W = identity in block k, zero elsewhere
* PPI++:  W = omega * identity in block k, omega tuned to minimize the trace
          of the estimated asymptotic covariance
* SADA:   W = (N-n)/N times the general stacked-score plug-in

Each estimator is written once, over the B replicates of a
``problem.Problem`` (``fit_naive`` ... ``fit_sada``), and returns a ``Fits``
of arrays with a leading replicate axis.  PPI, PPI++ and SADA choose W, and
then ``_weighted_fit`` solves the one weighted equation.  A replicate that
fails carries the SadaError it raises instead of stopping the batch.  The per-dataset functions
(``naive_estimate`` ... ``sada_estimate``) fit a batch of one and raise that
error.  Every function is pure and safe to call from concurrent replication
workers.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

import numpy as np

from .data import Dataset
from .errors import ConfigError
from .models import ScoreModel, check_theta, no_errors, solve_errors
from .problem import Problem
from .weighting import ridged, solve_grams, stacked_moments

METHOD_TAGS = ("naive", "ppi", "ppi_pp", "sada", "oracle")


def parse_method(token: str) -> tuple[str, int | None]:
    """Split a method token into (tag, prediction column or None).

    Tokens: ``naive``, ``sada``, ``oracle``, ``ppi:<k>``, ``ppi_pp:<k>`` with
    1-based prediction column k (bare ``ppi`` / ``ppi_pp`` mean column 1; a
    colon with no column after it is rejected).
    """
    name, colon, col = token.partition(":")
    name = name.strip()
    if name not in METHOD_TAGS:
        raise ConfigError(f"unknown method {token!r}")
    if name not in ("ppi", "ppi_pp"):
        if colon:
            raise ConfigError(f"method {name!r} takes no column index: {token!r}")
        return name, None
    if not colon:
        return name, 1
    try:
        k = int(col)
    except ValueError:
        raise ConfigError(f"bad column index in method token {token!r}") from None
    if k < 1:
        raise ConfigError(f"column index must be >= 1 in {token!r}")
    return name, k


def unique_methods(tokens: Iterable[str]) -> list[str]:
    """The tokens, each checked, less any naming an already-seen (tag, column); first-seen order."""
    seen: dict[tuple[str, int | None], str] = {}
    for token in tokens:
        seen.setdefault(parse_method(token), token)
    return list(seen.values())


@dataclass(frozen=True)
class Intervals:
    """Per-component confidence intervals at a common level."""

    lower: np.ndarray
    upper: np.ndarray
    level: float


@dataclass(frozen=True)
class EstimateReport:
    """Point estimate plus optional weights, covariance and intervals.

    ``diagnostics`` records the weight scaling, solver iteration counts, and
    any fallback events.
    """

    theta_hat: np.ndarray
    method: str
    weights: Optional[np.ndarray] = None
    covariance: Optional[np.ndarray] = None
    intervals: Optional[Intervals] = None
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if not np.all(np.isfinite(self.theta_hat)):
            raise ValueError("estimate is not finite")


@dataclass(frozen=True, eq=False)
class Fits:
    """One method fitted on every replicate of a problem.

    Attributes:
        method: estimator tag.
        theta: (B, p) estimates.
        errors: (B,) objects: None, or the SadaError that the replicate raises.
        notes: replicate index -> that replicate's diagnostics.
        weights: (B, K*p, p) weight matrices; None for naive and oracle.
        covariance, lower, upper, level: the sandwich inference at each
            replicate's own theta and weights, once ``inference.infer`` has
            filled it in.
    """

    method: str
    theta: np.ndarray
    errors: np.ndarray
    notes: Callable[[int], dict]
    weights: Optional[np.ndarray] = None
    covariance: Optional[np.ndarray] = None
    lower: Optional[np.ndarray] = None
    upper: Optional[np.ndarray] = None
    level: Optional[float] = None

    def report(self, i: int = 0) -> EstimateReport:
        """Replicate i as an EstimateReport; raises its error if it failed."""
        if self.errors[i] is not None:
            raise self.errors[i]
        intervals = covariance = None
        if self.covariance is not None:
            covariance = self.covariance[i]
            intervals = Intervals(lower=self.lower[i], upper=self.upper[i], level=self.level)
        return EstimateReport(
            theta_hat=self.theta[i].copy(),  # naive's theta is the problem's cached pilot
            method=self.method,
            weights=None if self.weights is None else self.weights[i],
            covariance=covariance,
            intervals=intervals,
            diagnostics=self.notes(i),
        )


def weight_blocks(W: np.ndarray, K: int, p: int) -> np.ndarray:
    """W as (K*p, p); W is (K*p, p) or, when p = 1, a length-K vector."""
    W = np.asarray(W, dtype=float)
    if W.ndim == 1:
        W = W[:, None]
    if W.shape != (K * p, p):
        raise ValueError(f"weight matrix shape {W.shape} != {(K * p, p)}")
    return W


def _column_weights(problem: Problem, k: int, blocks: np.ndarray) -> np.ndarray:
    """(B, K*p, p) weight matrices with ``blocks`` ((B, p, p) or (p, p)) in block k (1-based), zero elsewhere."""
    p = problem.p
    W = np.zeros((problem.B, problem.K * p, p))
    W[:, (k - 1) * p: k * p] = blocks
    return W


def _check_column(problem: Problem, k: int) -> None:
    if not 1 <= k <= problem.K:
        raise ValueError(f"prediction index k={k} outside 1..{problem.K}")


def _weighted_fit(problem: Problem, method: str, W: np.ndarray, notes: Callable[[int], dict],
                  pilot: tuple | None = None, fallback: np.ndarray | None = None) -> Fits:
    """The fits of the weighted equation with weights W (B, K*p, p), ``notes``
    giving each replicate's diagnostics less ``solver_iterations``.

    A method that chose W at ``pilot``, the problem's (theta, ok, iterations),
    starts Newton there and keeps the pilot's errors.  Where ``fallback`` is
    set, W fell back to zero: the replicate keeps the pilot, with 0
    iterations and no error from this solve but the pilot's.
    """
    theta0 = None if pilot is None else pilot[0]
    errors = no_errors(problem.B) if pilot is None else solve_errors(*pilot[:2])
    theta, solved, iters = problem.solve_weighted(W, theta0)
    if fallback is not None:
        solved = solved | fallback
        theta = np.where(fallback[:, None], theta0, theta)
        iters = np.where(fallback, 0, iters)
    solve_errors(theta, solved, errors)
    return Fits(method, theta, errors, lambda i: {**notes(i), "solver_iterations": int(iters[i])}, weights=W)


def fit_naive(problem: Problem) -> Fits:
    """Labeled-data-only estimator: root of the plain sample score equation."""
    theta, ok, iters = problem.pilot
    return Fits("naive", theta, solve_errors(theta, ok), lambda i: {"solver_iterations": int(iters[i])})


def fit_oracle(problem: Problem) -> Fits:
    """Infeasible benchmark using the true labels of all N rows (simulation use)."""
    theta, ok, iters = problem.score_root(problem.truth)
    return Fits("oracle", theta, solve_errors(theta, ok), lambda i: {"solver_iterations": int(iters[i])})


def fit_ppi(problem: Problem, k: int) -> Fits:
    """Prediction-powered estimator with identity weight on prediction column k (1-based)."""
    _check_column(problem, k)
    W = _column_weights(problem, k, np.eye(problem.p))
    return _weighted_fit(problem, "ppi", W, lambda i: {"prediction_column": k})


def fit_ppi_pp(problem: Problem, k: int) -> Fits:
    """PPI with a scalar tuning weight on prediction column k (see ``ppi_pp_estimate``)."""
    _check_column(problem, k)
    N, n = problem.N, problem.n
    pilot, ok, _ = problem.pilot
    _, Hinv, hessian_ok = problem.hessian(pilot)
    HinvT = Hinv.transpose(0, 2, 1)
    gram, cross = stacked_moments(problem, pilot, (k - 1,))
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite trace is not ``usable``
        gram_reg, zero = ridged(gram)
        denom = np.trace(Hinv @ gram_reg @ HinvT, axis1=1, axis2=2)
        numer = np.trace(Hinv @ cross @ HinvT, axis1=1, axis2=2)
    usable = (denom > 0.0) & np.isfinite(denom) & np.isfinite(numer)
    live = ok & hessian_ok
    degenerate = np.where(hessian_ok, None, "singular_hessian")
    degenerate[live & zero] = "singular_gram"
    degenerate[live & ~zero & ~usable] = "nonpositive_variance"
    omega = np.zeros(problem.B)
    np.divide((N - n) / N * numer, denom, out=omega, where=live & ~zero & usable)

    def notes(i):
        out = {"prediction_column": k, "omega": float(omega[i])}
        if degenerate[i] is not None:
            out["degenerate"] = degenerate[i]
        return out

    W = _column_weights(problem, k, omega[:, None, None] * np.eye(problem.p))
    return _weighted_fit(problem, "ppi_pp", W, notes, problem.pilot)


def fit_sada(problem: Problem) -> Fits:
    """Safe-and-adaptive aggregation across all prediction columns (see ``sada_estimate``)."""
    pilot, _, pilot_iters = problem.pilot
    scale = (problem.N - problem.n) / problem.N
    gram, cross = stacked_moments(problem, pilot, range(problem.K))
    solution, errors = solve_grams(gram, cross)

    def notes(i):
        out = {"pilot_iterations": int(pilot_iters[i]), "weight_scale": scale}
        if errors[i] is not None:
            out["weight_fallback"] = f"{type(errors[i]).__name__}: {errors[i]}"
        return out

    return _weighted_fit(problem, "sada", scale * solution, notes, problem.pilot, np.not_equal(errors, None))


def solve_weighted(
    ds: Dataset,
    model: ScoreModel,
    W: np.ndarray,
    theta0: np.ndarray | None = None,
) -> tuple[np.ndarray, int]:
    """Solve the weighted estimating equation for a fixed weight matrix W.

    W may be given as a (K*p, p) matrix or, when p = 1, a length-K vector.
    A prediction column whose block of W is zero is never scored.  With W = 0
    this reproduces the naive estimator; with K = 1 and W = I it reproduces
    PPI.  theta0 seeds Newton for a model without a design; the built-in
    models are solved in closed form, where no start enters.  See
    ``Problem.solve_weighted``.

    Returns:
        (theta_hat, iterations).

    Raises:
        ValueError: W is not (K*p, p), or theta0 not a finite (p,) array.
        SingularJacobian: the weighted equation's Jacobian is singular.
        SingularGram: the closed-form root is not finite, because a design
            product overflowed.
    """
    W = weight_blocks(W, ds.K, model.p)
    theta0 = None if theta0 is None else check_theta(theta0, model.p, "theta0")[None]
    theta, ok, iters = Problem.of(ds, model).solve_weighted(W[None], theta0)
    error = solve_errors(theta, ok)[0]
    if error is not None:
        raise error
    return theta[0], int(iters[0])


def naive_estimate(ds: Dataset, model: ScoreModel) -> EstimateReport:
    """Labeled-data-only estimator: root of the plain sample score equation."""
    return fit_naive(Problem.of(ds, model)).report()


def check_truth(ds: Dataset, truth) -> np.ndarray:
    truth = np.asarray(truth, dtype=float)
    if truth.shape != (ds.N,):
        raise ValueError(f"truth must have length N={ds.N}")
    if not np.all(np.isfinite(truth)):
        raise ValueError("truth contains non-finite values")
    return truth


def oracle_estimate(ds: Dataset, truth: np.ndarray, model: ScoreModel) -> EstimateReport:
    """Infeasible benchmark using the true labels of all N rows (simulation use)."""
    return fit_oracle(Problem.of(ds, model, check_truth(ds, truth))).report()


def ppi_estimate(ds: Dataset, model: ScoreModel, k: int = 1) -> EstimateReport:
    """Prediction-powered estimator with identity weight on prediction column k.

    For the mean model this is
    ``mean(y_L) + mean(yhat_k on U) - mean(yhat_k on L)``.  Columns beyond the
    first are handled per-column by analogy (recorded in diagnostics).
    """
    return fit_ppi(Problem.of(ds, model), k).report()


def ppi_pp_estimate(ds: Dataset, model: ScoreModel, k: int = 1) -> EstimateReport:
    """PPI with a scalar tuning weight on prediction column k.

    The scalar minimizes the trace of the estimated asymptotic covariance,

        omega = (N-n)/N * tr(Hinv C Hinv') / tr(Hinv V Hinv'),

    with C and V the cross- and auto-moment plug-ins of column k's score and
    Hinv the inverse estimated Hessian, all at the naive pilot: the trace of
    the sandwich Hinv Sigma Hinv' of ``inference``, whose Sigma is quadratic
    in omega.  A degenerate variance or Hessian yields omega = 0, i.e. the
    naive estimator.  For p = 1 this coincides with SADA restricted to
    column k.
    """
    return fit_ppi_pp(Problem.of(ds, model), k).report()


def sada_estimate(ds: Dataset, model: ScoreModel) -> EstimateReport:
    """Safe-and-adaptive aggregation across all prediction columns.

    Pipeline: (1) naive pilot estimate, (2) stacked-score weight plug-in at
    the pilot, scaled by (N-n)/N to the population convention, (3) root of
    the weighted estimating equation.  Weight-estimation failure degrades to
    the naive estimate with a diagnostic instead of raising.
    """
    return fit_sada(Problem.of(ds, model)).report()
