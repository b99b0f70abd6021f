"""Sandwich covariance and confidence intervals for the estimators.

The covariance of the weighted estimator is Omega = Hinv Sigma Hinv with

    Sigma_opt = Sigma_nv - (N-n)/N * Sigma_g

for the optimally weighted (SADA) estimator, where Sigma_nv is the
labeled-sample second moment of the scores and Sigma_g is the triple product
``[mean_n s S'] [mean_N S S']^{-1} [mean_n S s']``.  For a fixed, not
necessarily optimal weight matrix W (naive, PPI, PPI++), the variance is the
quadratic form evaluated at W instead.  Per-component intervals are

    theta_j +/- sqrt(Omega_jj) * z_{1-alpha/2} / sqrt(n),

with n the labeled count and z the standard normal quantile from
``statistics.NormalDist``.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from statistics import NormalDist

import numpy as np

from .data import Dataset
from .errors import ConfigError, SingularHessian, ZeroGram
from .estimators import (
    EstimateReport,
    Intervals,
    _used_columns,
    naive_estimate,
    oracle_estimate,
    parse_method,
    ppi_estimate,
    ppi_pp_estimate,
    sada_estimate,
)
from .models import RCOND_THRESHOLD, ScoreModel, rcond
from .weighting import DEFAULT_RIDGE_SCALE, moment_estimates, solve_gram


@dataclass(frozen=True)
class SandwichParts:
    """Ingredients of the sandwich covariance at a given parameter value."""

    H_hat: np.ndarray
    sigma_nv: np.ndarray
    sigma_g: np.ndarray
    n: int
    N: int

    @property
    def sigma_opt(self) -> np.ndarray:
        return self.sigma_nv - (self.N - self.n) / self.N * self.sigma_g


def estimate_hessian(ds: Dataset, model: ScoreModel, theta_hat: np.ndarray) -> np.ndarray:
    """Labeled-sample average of the score Jacobian at theta_hat."""
    return model.jacobian(ds.features[: ds.n], ds.labels, theta_hat)


def estimate_sigma_nv(ds: Dataset, model: ScoreModel, theta_hat: np.ndarray) -> np.ndarray:
    """Labeled-sample second moment of the scores at theta_hat (uncentered)."""
    s = np.asarray(model.score(ds.features[: ds.n], ds.labels, theta_hat), dtype=float)
    return s.T @ s / ds.n


def estimate_sigma_g(
    ds: Dataset,
    model: ScoreModel,
    theta_hat: np.ndarray,
    ridge_scale: float = DEFAULT_RIDGE_SCALE,
) -> np.ndarray:
    """Efficiency-gain matrix: cross' x gram^{-1} x cross, PSD by construction.

    An identically-zero gram (all prediction columns constant) means the
    stacked scores carry no signal at all, so the gain is the zero matrix.
    """
    moments = moment_estimates(ds, model, theta_hat)
    try:
        solved = solve_gram(moments.gram, moments.cross, ridge_scale)
    except ZeroGram:
        return np.zeros((model.p, model.p))
    sigma_g = moments.cross.T @ solved
    return 0.5 * (sigma_g + sigma_g.T)


def sandwich_parts(
    ds: Dataset,
    model: ScoreModel,
    theta_hat: np.ndarray,
    ridge_scale: float = DEFAULT_RIDGE_SCALE,
) -> SandwichParts:
    """Assemble H, Sigma_nv and Sigma_g at theta_hat."""
    return SandwichParts(
        H_hat=estimate_hessian(ds, model, theta_hat),
        sigma_nv=estimate_sigma_nv(ds, model, theta_hat),
        sigma_g=estimate_sigma_g(ds, model, theta_hat, ridge_scale),
        n=ds.n,
        N=ds.N,
    )


def weighted_sigma(
    ds: Dataset,
    model: ScoreModel,
    theta_hat: np.ndarray,
    W: np.ndarray,
) -> np.ndarray:
    """Middle matrix of the sandwich for a FIXED weight matrix W.

    Sigma(W) = Sigma_nv + N/(N-n) W'VW - C'W - W'C, with V and C the stacked
    auto- and cross-moment plug-ins, built only over the prediction columns
    whose block of W is non-zero.  At W = 0 this is exactly Sigma_nv.
    """
    ds, W = _used_columns(ds, W, model.p)
    sigma_nv = estimate_sigma_nv(ds, model, theta_hat)
    if not W.any():
        return sigma_nv
    moments = moment_estimates(ds, model, theta_hat)
    quad = ds.N / (ds.N - ds.n) * W.T @ moments.gram @ W
    cross_term = moments.cross.T @ W
    sigma = sigma_nv + quad - cross_term - cross_term.T
    return 0.5 * (sigma + sigma.T)


def covariance_and_intervals(
    parts: SandwichParts,
    theta_hat: np.ndarray,
    n: int,
    level: float = 0.95,
) -> tuple[np.ndarray, Intervals, dict]:
    """Sandwich covariance Omega and per-component confidence intervals.

    Negative diagonal entries of Sigma_opt (possible in finite samples) are
    floored at zero and reported in the returned diagnostics.

    Returns:
        (Omega, Intervals, diagnostics).

    Raises:
        SingularHessian: H is not invertible at the working tolerance.
        ConfigError: level outside (0, 1).
    """
    return _sandwich_intervals(parts.H_hat, parts.sigma_opt, theta_hat, n, level)


def check_level(level: float) -> None:
    """Raise ConfigError unless the confidence level lies in (0, 1)."""
    if not 0.0 < level < 1.0:
        raise ConfigError(f"level must be in (0, 1), got {level!r}")


def _sandwich_intervals(
    H: np.ndarray, sigma: np.ndarray, theta_hat: np.ndarray, n: int, level: float
) -> tuple[np.ndarray, Intervals, dict]:
    """Floor the diagonal of sigma, form Omega = Hinv sigma Hinv', then the intervals."""
    check_level(level)
    floored = [int(j) for j in np.flatnonzero(np.diag(sigma) < 0.0)]
    sigma = sigma.copy()
    sigma[floored, floored] = 0.0
    if rcond(H) < RCOND_THRESHOLD:
        raise SingularHessian("estimated Hessian is singular")
    Hinv = np.linalg.inv(H)
    omega = Hinv @ sigma @ Hinv.T
    omega = 0.5 * (omega + omega.T)
    z = NormalDist().inv_cdf(0.5 + level / 2.0)
    half = z * np.sqrt(np.maximum(np.diag(omega), 0.0) / n)
    intervals = Intervals(lower=theta_hat - half, upper=theta_hat + half, level=level)
    diagnostics = {"floored_components": floored} if floored else {}
    return omega, intervals, diagnostics


def attach_inference(
    report: EstimateReport,
    ds: Dataset,
    model: ScoreModel,
    level: float = 0.95,
    ridge_scale: float = DEFAULT_RIDGE_SCALE,
) -> EstimateReport:
    """Return a copy of the report with covariance and intervals filled in.

    SADA reports use the optimal-weight covariance Sigma_opt evaluated at the
    SADA estimate; all other methods use the fixed-weight quadratic form at
    their own weight matrix (zero for naive/oracle).
    """
    theta = report.theta_hat
    if report.method == "sada" and "weight_fallback" not in report.diagnostics:
        parts = sandwich_parts(ds, model, theta, ridge_scale)
        H, sigma = parts.H_hat, parts.sigma_opt
    else:
        H = estimate_hessian(ds, model, theta)
        W = report.weights if report.weights is not None else np.zeros((ds.K * model.p, model.p))
        sigma = weighted_sigma(ds, model, theta, W)
    omega, intervals, extra = _sandwich_intervals(H, sigma, theta, ds.n, level)
    diagnostics = dict(report.diagnostics)
    diagnostics.update(extra)
    return replace(report, covariance=omega, intervals=intervals, diagnostics=diagnostics)


def run_method(
    ds: Dataset,
    model: ScoreModel,
    token: str,
    *,
    level: float,
    ridge_scale: float,
    truth: np.ndarray | None = None,
) -> EstimateReport:
    """Fit the method a token names (see ``parse_method``) and attach its inference.

    The oracle needs ``truth``, the true labels of all N rows, and its report
    carries no covariance or intervals.

    Raises:
        ConfigError: unknown token, a column beyond ``ds.K``, ``oracle``
            without ``truth``, or a level outside (0, 1).
    """
    check_level(level)
    tag, k = parse_method(token)
    if tag == "oracle":
        if truth is None:
            raise ConfigError("oracle method needs ground-truth labels; simulation only")
        return oracle_estimate(ds, truth, model)
    if k is not None and k > ds.K:
        raise ConfigError(f"method {token!r} refers to column {k} but the data has K={ds.K}")
    if tag == "naive":
        report = naive_estimate(ds, model)
    elif tag == "ppi":
        report = ppi_estimate(ds, model, k)
    elif tag == "ppi_pp":
        report = ppi_pp_estimate(ds, model, k, ridge_scale=ridge_scale)
    else:
        report = sada_estimate(ds, model, ridge_scale=ridge_scale)
    return attach_inference(report, ds, model, level, ridge_scale)
