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
``statistics.NormalDist``.  ``infer`` computes them for every replicate of a
``problem.Problem`` at once, and is the only place they are assembled: a
single report gets its covariance from ``attach_inference``, which calls
``infer`` on a batch of one with the report's own weight matrix.
"""
from __future__ import annotations

from dataclasses import replace
from statistics import NormalDist

import numpy as np

from .data import Dataset
from .errors import ConfigError, SingularGram, SingularHessian
from .estimators import (
    EstimateReport,
    Fits,
    check_truth,
    fail,
    fit_naive,
    fit_oracle,
    fit_ppi,
    fit_ppi_pp,
    fit_sada,
    no_errors,
    parse_method,
    weight_blocks,
)
from .models import ScoreModel, check_theta
from .problem import Problem
from .weighting import DEFAULT_RIDGE_SCALE, NONFINITE_WEIGHTS, solve_grams, stacked_moments

HESSIAN_SINGULAR = "estimated Hessian is singular"


def _sigma_g(problem: Problem, theta: np.ndarray, ridge_scale: float) -> tuple[np.ndarray, np.ndarray]:
    """Efficiency-gain matrices cross' x gram^{-1} x cross, PSD by construction,
    and where their weight solve is not finite (SingularGram).

    An identically-zero gram (all prediction columns constant) means the
    stacked scores carry no signal at all, so the gain is the zero matrix.
    """
    gram, cross = stacked_moments(problem, theta, range(problem.K))
    solved, _, bad = solve_grams(gram, cross, ridge_scale)
    sigma_g = cross.transpose(0, 2, 1) @ solved
    return 0.5 * (sigma_g + sigma_g.transpose(0, 2, 1)), bad


def _weighted_sigma(problem: Problem, theta, sigma_nv, W, columns) -> np.ndarray:
    """Sigma(W) = Sigma_nv + N/(N-n) W'VW - C'W - W'C, W (B, len(columns)*p, p),
    with V and C the stacked auto- and cross-moments of ``columns`` only."""
    gram, cross = stacked_moments(problem, theta, columns)
    Wt = W.transpose(0, 2, 1)
    quad = problem.N / (problem.N - problem.n) * Wt @ gram @ W
    cross_term = cross.transpose(0, 2, 1) @ W
    sigma = sigma_nv + quad - cross_term - cross_term.transpose(0, 2, 1)
    return 0.5 * (sigma + sigma.transpose(0, 2, 1))


def check_level(level: float) -> None:
    """Raise ConfigError unless the confidence level lies in (0, 1)."""
    if not 0.0 < level < 1.0:
        raise ConfigError(f"level must be in (0, 1), got {level!r}")


def _sandwich_intervals(Hinv, sigma, theta, n: int, level: float):
    """Floor the diagonal of each sigma, form Omega = Hinv sigma Hinv', then the intervals.

    Returns (Omega, lower, upper, floored), with ``floored`` (B, p) marking
    the diagonal entries of sigma that were negative.
    """
    diag = np.diagonal(sigma, axis1=1, axis2=2)
    floored = diag < 0.0
    sigma = sigma.copy()
    j = np.arange(sigma.shape[-1])
    sigma[:, j, j] = np.where(floored, 0.0, diag)
    omega = Hinv @ sigma @ Hinv.transpose(0, 2, 1)
    omega = 0.5 * (omega + omega.transpose(0, 2, 1))
    z = NormalDist().inv_cdf(0.5 + level / 2.0)
    half = z * np.sqrt(np.maximum(np.diagonal(omega, axis1=1, axis2=2), 0.0) / n)
    return omega, theta - half, theta + half, floored


def infer(
    problem: Problem,
    fits: Fits,
    level: float = 0.95,
    ridge_scale: float = DEFAULT_RIDGE_SCALE,
) -> Fits:
    """``fits`` with the covariance and intervals of every replicate filled in.

    Replicates fitted with the optimal weights (SADA without a weight
    fallback) use Sigma_opt at their estimate; all others use the
    fixed-weight quadratic form at their own weight matrix (zero for naive),
    over the prediction columns where some replicate's weights are non-zero.
    A replicate whose Sigma_g solve is not finite gets SingularGram, and one
    whose Hessian fails its check SingularHessian, unless it failed earlier.
    """
    check_level(level)
    B, K, p, theta = problem.B, problem.K, problem.p, fits.theta
    errors = fits.errors.copy()
    sigma_nv = problem.sigma_nv(theta)
    sigma = sigma_nv
    optimal = np.zeros(B, dtype=bool) if fits.optimal is None else fits.optimal
    if optimal.any():
        sigma_g, bad = _sigma_g(problem, theta, ridge_scale)
        fail(errors, optimal & bad, SingularGram, NONFINITE_WEIGHTS)
        sigma_opt = sigma_nv - (problem.N - problem.n) / problem.N * sigma_g
        sigma = np.where(optimal[:, None, None], sigma_opt, sigma)
    if fits.weights is not None:
        blocks = fits.weights.reshape(B, K, p, p)
        used = blocks.any(axis=(2, 3)) & ~optimal[:, None]
        columns = np.flatnonzero(used.any(axis=0)).tolist()
        if columns:
            W = blocks[:, columns].reshape(B, -1, p)
            sigma_w = _weighted_sigma(problem, theta, sigma_nv, W, columns)
            sigma = np.where(used.any(axis=1)[:, None, None], sigma_w, sigma)
    _, Hinv, hessian_ok = problem.hessian(theta)
    fail(errors, ~hessian_ok, SingularHessian, HESSIAN_SINGULAR)
    omega, lower, upper, floored = _sandwich_intervals(Hinv, sigma, theta, problem.n, level)
    return replace(fits, errors=errors, covariance=omega, lower=lower, upper=upper,
                   level=level, floored=floored)


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

    Raises:
        ValueError: theta_hat is not a finite array of shape (p,), or the weights not (K*p, p).
    """
    theta = check_theta(report.theta_hat, model.p, "theta_hat")
    optimal = report.method == "sada" and "weight_fallback" not in report.diagnostics
    weights = None
    if report.weights is not None and not optimal:
        weights = weight_blocks(report.weights, ds.K, model.p)[0][None]
    fits = Fits(report.method, theta[None], no_errors(1),
                lambda i: dict(report.diagnostics), weights=weights, optimal=np.array([optimal]))
    full = infer(Problem.of(ds, model), fits, level, ridge_scale).report()
    return replace(report, covariance=full.covariance, intervals=full.intervals,
                   diagnostics=full.diagnostics)


def fit_method(problem: Problem, token: str, *, level: float, ridge_scale: float) -> Fits:
    """Fit the method a token names (see ``parse_method``) on every replicate
    of ``problem``, with its inference.

    The oracle needs the problem's true labels, and its fits carry no
    covariance or intervals.

    Raises:
        ConfigError: unknown token, a column beyond the problem's K,
            ``oracle`` without true labels, or a level outside (0, 1).
    """
    check_level(level)
    tag, k = parse_method(token)
    if tag == "oracle":
        if problem.truth is None:
            raise ConfigError("oracle method needs ground-truth labels; simulation only")
        return fit_oracle(problem)
    if k is not None and k > problem.K:
        raise ConfigError(f"method {token!r} refers to column {k} but the data has K={problem.K}")
    if tag == "naive":
        fits = fit_naive(problem)
    elif tag == "ppi":
        fits = fit_ppi(problem, k)
    elif tag == "ppi_pp":
        fits = fit_ppi_pp(problem, k, ridge_scale)
    else:
        fits = fit_sada(problem, ridge_scale)
    return infer(problem, fits, level, ridge_scale)


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
    if truth is not None and parse_method(token)[0] == "oracle":
        truth = check_truth(ds, truth)
    return fit_method(Problem.of(ds, model, truth), token, level=level, ridge_scale=ridge_scale).report()
