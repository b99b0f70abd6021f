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

Every estimator is a pure function of (dataset, config) and safe to call
from concurrent replication workers.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .data import Dataset
from .errors import ConfigError, SingularGram
from .models import (
    RCOND_THRESHOLD,
    ScoreModel,
    _solve_affine,
    rcond,
    solve_estimating_equation,
    solve_score_root,
)
from .weighting import (
    DEFAULT_RIDGE_SCALE,
    estimate_general_weights,
    moment_estimates,
    regularize_gram,
)

METHOD_TAGS = ("naive", "ppi", "ppi_pp", "sada", "oracle")


def parse_method(token: str) -> tuple[str, int | None]:
    """Split a method token into (tag, prediction column or None).

    Tokens: ``naive``, ``sada``, ``oracle``, ``ppi:<k>``, ``ppi_pp:<k>`` with
    1-based prediction column k (bare ``ppi`` / ``ppi_pp`` mean column 1).
    """
    name, _, col = token.partition(":")
    name = name.strip()
    if name not in METHOD_TAGS:
        raise ConfigError(f"unknown method {token!r}")
    if name not in ("ppi", "ppi_pp"):
        if col:
            raise ConfigError(f"method {name!r} takes no column index: {token!r}")
        return name, None
    if not col:
        return name, 1
    try:
        k = int(col)
    except ValueError:
        raise ConfigError(f"bad column index in method token {token!r}") from None
    if k < 1:
        raise ConfigError(f"column index must be >= 1 in {token!r}")
    return name, k


@dataclass(frozen=True)
class Intervals:
    """Per-component confidence intervals at a common level."""

    lower: np.ndarray
    upper: np.ndarray
    level: float


@dataclass(frozen=True)
class EstimateReport:
    """Point estimate plus optional weights, covariance and intervals.

    ``diagnostics`` records the conventions used (ridge scale, weight
    scaling), solver iteration counts, and any fallback events.
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


def _column_weight(ds: Dataset, p: int, k: int, omega: float) -> np.ndarray:
    """(K*p, p) weight matrix with omega * I in block k (1-based), zero elsewhere."""
    if not 1 <= k <= ds.K:
        raise ValueError(f"prediction index k={k} outside 1..{ds.K}")
    W = np.zeros((ds.K * p, p))
    W[(k - 1) * p: k * p] = omega * np.eye(p)
    return W


def _used_columns(ds: Dataset, W: np.ndarray, p: int) -> tuple[Dataset, np.ndarray]:
    """Restrict ``ds`` to the prediction columns whose (p, p) block of W is non-zero.

    A column with a zero block adds nothing to the weighted equation or to its
    covariance.  W is (K*p, p) or, when p = 1, a length-K vector.  Returns the
    restricted dataset and the used blocks stacked; ``ds`` itself when W uses
    every column.
    """
    W = np.asarray(W, dtype=float)
    if W.ndim == 1:
        W = W[:, None]
    if W.shape != (ds.K * p, p):
        raise ValueError(f"weight matrix shape {W.shape} != {(ds.K * p, p)}")
    blocks = W.reshape(ds.K, p, p)
    used = blocks.any(axis=(1, 2))
    if used.all():
        return ds, W
    sub = Dataset(features=ds.features, labels=ds.labels, predictions=ds.predictions[:, used])
    return sub, blocks[used].reshape(-1, p)


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
    PPI.

    For a model with a design the equation is b - G theta = 0 with

        G = G_L + (sum_k W_k)' (G_U - G_L),
        b = Z_L'y / n + sum_k W_k' (P_U - P_L)[:, k],

    G_R = Z_R'Z_R / m_R and P_R = Z_R'Yhat_R / m_R on the labeled (L) and
    unlabeled (U) rows, and is solved in closed form; any other model goes
    through Newton from theta0, scoring one prediction column at a time so
    that no (N, K*p) stacked matrix is built.

    Returns:
        (theta_hat, iterations).
    """
    p = model.p
    ds, W = _used_columns(ds, W, p)
    n = ds.n
    X_lab, y_lab = ds.features[:n], ds.labels

    if not W.any():
        return solve_score_root(model, X_lab, y_lab, theta0)
    if theta0 is None:
        theta0 = np.zeros(p)

    if model.design is not None:
        Z = model.design(ds.features)
        Z_L, Z_U = Z[:n], Z[n:]
        G_L = Z_L.T @ Z_L / n
        G_U = Z_U.T @ Z_U / (ds.N - n)
        P_diff = Z_U.T @ ds.predictions[n:] / (ds.N - n) - Z_L.T @ ds.predictions[:n] / n
        G = G_L + W.reshape(ds.K, p, p).sum(axis=0).T @ (G_U - G_L)
        b = Z_L.T @ y_lab / n + W.T @ P_diff.T.reshape(-1)
        return _solve_affine(G, b, theta0)

    X_U, blocks = ds.features[n:], W.reshape(ds.K, p, p)

    def weighted(f, theta):
        """f(L, y) + sum_k W_k' [f(U, yhat_k) - f(L, yhat_k)], one prediction column at a time."""
        out = f(X_lab, y_lab, theta)
        for W_k, yhat in zip(blocks, ds.predictions.T):
            out = out + W_k.T @ (f(X_U, yhat[n:], theta) - f(X_lab, yhat[:n], theta))
        return out

    def mean_score(x, y, theta):
        return np.mean(model.score(x, y, theta), axis=0)

    return solve_estimating_equation(
        lambda theta: weighted(mean_score, theta),
        lambda theta: weighted(model.jacobian, theta),
        theta0,
    )


def naive_estimate(ds: Dataset, model: ScoreModel) -> EstimateReport:
    """Labeled-data-only estimator: root of the plain sample score equation."""
    theta, iters = solve_score_root(model, ds.features[: ds.n], ds.labels)
    return EstimateReport(
        theta_hat=theta, method="naive", diagnostics={"solver_iterations": iters}
    )


def oracle_estimate(ds: Dataset, truth: np.ndarray, model: ScoreModel) -> EstimateReport:
    """Infeasible benchmark using the true labels of all N rows (simulation use)."""
    truth = np.asarray(truth, dtype=float)
    if truth.shape != (ds.N,):
        raise ValueError(f"truth must have length N={ds.N}")
    if not np.all(np.isfinite(truth)):
        raise ValueError("truth contains non-finite values")
    theta, iters = solve_score_root(model, ds.features, truth)
    return EstimateReport(
        theta_hat=theta, method="oracle", diagnostics={"solver_iterations": iters}
    )


def ppi_estimate(ds: Dataset, model: ScoreModel, k: int = 1) -> EstimateReport:
    """Prediction-powered estimator with identity weight on prediction column k.

    For the mean model this is
    ``mean(y_L) + mean(yhat_k on U) - mean(yhat_k on L)``.  Columns beyond the
    first are handled per-column by analogy (recorded in diagnostics).
    """
    W = _column_weight(ds, model.p, k, 1.0)
    theta, iters = solve_weighted(ds, model, W)
    return EstimateReport(
        theta_hat=theta,
        method="ppi",
        weights=W,
        diagnostics={"solver_iterations": iters, "prediction_column": k},
    )


def ppi_pp_estimate(
    ds: Dataset,
    model: ScoreModel,
    k: int = 1,
    ridge_scale: float = DEFAULT_RIDGE_SCALE,
) -> EstimateReport:
    """PPI with a scalar tuning weight on prediction column k.

    The scalar minimizes the trace of the estimated asymptotic covariance,

        omega = (N-n)/N * tr(Hinv C Hinv) / tr(Hinv V Hinv),

    with C and V the cross- and auto-moment plug-ins of column k's score and
    Hinv the inverse estimated Hessian, all at the naive pilot.  A degenerate
    variance or Hessian yields omega = 0, i.e. the naive estimator.  For
    p = 1 this coincides with SADA restricted to column k.
    """
    sub, _ = _used_columns(ds, _column_weight(ds, model.p, k, 1.0), model.p)
    pilot, _ = solve_score_root(model, ds.features[: ds.n], ds.labels)
    diagnostics: dict = {
        "prediction_column": k,
        "ridge_scale": ridge_scale,
    }

    omega = 0.0
    H = model.jacobian(ds.features[: ds.n], ds.labels, pilot)
    if rcond(H) < RCOND_THRESHOLD:
        diagnostics["degenerate"] = "singular_hessian"
    else:
        Hinv = np.linalg.inv(H)
        try:
            moments = moment_estimates(sub, model, pilot)
            gram_reg = regularize_gram(moments.gram, ridge_scale)
            denom = float(np.trace(Hinv @ gram_reg @ Hinv))
            numer = float(np.trace(Hinv @ moments.cross @ Hinv))
            if denom <= 0.0 or not np.isfinite(denom) or not np.isfinite(numer):
                diagnostics["degenerate"] = "nonpositive_variance"
            else:
                omega = (ds.N - ds.n) / ds.N * numer / denom
        except SingularGram:
            diagnostics["degenerate"] = "singular_gram"

    W = _column_weight(ds, model.p, k, omega)
    theta, iters = solve_weighted(ds, model, W, theta0=pilot)
    diagnostics["solver_iterations"] = iters
    diagnostics["omega"] = omega
    return EstimateReport(theta_hat=theta, method="ppi_pp", weights=W, diagnostics=diagnostics)


def sada_estimate(
    ds: Dataset,
    model: ScoreModel,
    ridge_scale: float = DEFAULT_RIDGE_SCALE,
) -> EstimateReport:
    """Safe-and-adaptive aggregation across all prediction columns.

    Pipeline: (1) naive pilot estimate, (2) stacked-score weight plug-in at
    the pilot, scaled by (N-n)/N to the population convention, (3) root of
    the weighted estimating equation.  Weight-estimation failure degrades to
    the naive estimate with a diagnostic instead of raising.
    """
    pilot, pilot_iters = solve_score_root(model, ds.features[: ds.n], ds.labels)
    p = model.p
    scale = (ds.N - ds.n) / ds.N
    diagnostics: dict = {
        "ridge_scale": ridge_scale,
        "pilot_iterations": pilot_iters,
        "weight_scale": scale,
    }

    try:
        W = scale * estimate_general_weights(ds, model, pilot, ridge_scale=ridge_scale)
    except SingularGram as exc:
        diagnostics["weight_fallback"] = f"{type(exc).__name__}: {exc}"
        diagnostics["solver_iterations"] = 0
        return EstimateReport(
            theta_hat=pilot,
            method="sada",
            weights=np.zeros((ds.K * p, p)),
            diagnostics=diagnostics,
        )

    theta, iters = solve_weighted(ds, model, W, theta0=pilot)
    diagnostics["solver_iterations"] = iters
    return EstimateReport(theta_hat=theta, method="sada", weights=W, diagnostics=diagnostics)
