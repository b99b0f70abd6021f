"""Sandwich covariance and confidence intervals for the estimators.

Every method is a root of the weighted equation of ``estimators`` with its
own weight matrix W (zero for naive), and its covariance is the one sandwich

    n Cov(theta) = Omega = Hinv Sigma Hinv',
    Sigma = Cov_L(s - W'S) + n/(N-n) Cov_U(W'S),

at its own estimate, with s the labeled score, S the stacked scores of the
prediction columns, H the labeled mean Jacobian and Cov_L, Cov_U the sample
covariances over the labeled and unlabeled rows.  This is the variance
estimate of PPI++ (Angelopoulos, Duchi and Zrnic, 2023), extended to matrix
weights.  A sum of two sample covariances, Sigma is positive semi-definite by
construction, so no diagonal needs a floor; at W = 0 it is Cov_L(s).
Per-component intervals are

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
from typing import Sequence

import numpy as np

from . import weighting
from .data import Dataset
from .errors import ConfigError, SingularGram, SingularHessian
from .estimators import (
    EstimateReport,
    Fits,
    check_truth,
    fit_naive,
    fit_oracle,
    fit_ppi,
    fit_ppi_pp,
    fit_sada,
    parse_method,
    weight_blocks,
)
from .models import ScoreModel, check_theta, fail, no_errors
from .problem import Problem

HESSIAN_SINGULAR = "estimated Hessian is singular"
COVARIANCE_NONFINITE = "covariance is not finite"


# an overflowing gram gives an inf or NaN Sigma, which ``infer`` marks as
# SingularGram, so numpy's floating-point warnings say nothing more
@np.errstate(over="ignore", invalid="ignore")
def _sigma(problem: Problem, theta: np.ndarray, W: np.ndarray, columns: Sequence[int]) -> np.ndarray:
    """Sigma = Cov_L(s - W'S) + n/(N-n) Cov_U(W'S) at theta (B, p): (B, p, p).

    S holds the stacked scores of the 0-based prediction ``columns``, W is
    (B, len(columns)*p, p) and read only when there is a column, and Cov_L,
    Cov_U divide by n and N-n.  W'S is built ``weighting.CHUNK_ROWS`` rows
    of each replicate at a time, and only its p x p products are summed, so
    neither the stacked matrix nor its gram is formed.  With no column,
    Sigma is Cov_L(s) and only the labeled rows are read.  The labeled side
    is held whole, like the labeled scores, and centred at its mean.  Each
    unlabeled chunk is centred at one shift, the first unlabeled chunk's
    mean, and the sum is corrected by the mean's remaining offset, as in
    ``weighting.stacked_moments``.
    """
    n, N = problem.n, problem.N
    resid = problem.labeled_scores(theta)
    total = gram = 0.0
    if columns:
        Wt = W.transpose(0, 2, 1)
        resid = resid.copy()
        shift = None
        chunk = weighting.CHUNK_ROWS
        for lo in range(0, N, chunk):
            hi = min(lo + chunk, N)
            WS = Wt @ problem.stacked_scores(lo, hi, columns, theta)
            if lo < n:
                resid[:, :, lo:hi] -= WS[:, :, : n - lo]
                if hi <= n:
                    continue
                WS = WS[:, :, n - lo:]
            if shift is None:
                shift = WS.mean(axis=2, keepdims=True)
            WS -= shift  # WS is freshly built, so centre it in place
            total = total + WS.sum(axis=2)
            gram = gram + weighting.row_gram(WS)
        offset = total / (N - n)
        gram = gram / (N - n) - offset[:, :, None] * offset[:, None, :]
    resid = resid - resid.mean(axis=2, keepdims=True)
    sigma = weighting.row_gram(resid) / n + n / (N - n) * gram
    return 0.5 * (sigma + sigma.transpose(0, 2, 1))


def check_level(level: float) -> None:
    """Raise ConfigError unless the confidence level lies in (0, 1)."""
    if not 0.0 < level < 1.0:
        raise ConfigError(f"level must be in (0, 1), got {level!r}")


@np.errstate(over="ignore", invalid="ignore")  # as in ``_sigma``
def _sandwich_intervals(Hinv, sigma, theta, n: int, level: float):
    """Omega = Hinv sigma Hinv' per replicate, and its intervals: (Omega, lower, upper)."""
    omega = Hinv @ sigma @ Hinv.transpose(0, 2, 1)
    omega = 0.5 * (omega + omega.transpose(0, 2, 1))
    z = NormalDist().inv_cdf(0.5 + level / 2.0)
    # a PSD diagonal can still round to a hair below zero
    half = z * np.sqrt(np.maximum(np.diagonal(omega, axis1=1, axis2=2), 0.0) / n)
    return omega, theta - half, theta + half


def infer(problem: Problem, fits: Fits, level: float = 0.95) -> Fits:
    """``fits`` with the covariance and intervals of every replicate filled in.

    Every replicate gets the sandwich at its own estimate and its own weight
    matrix (zero for naive), over the prediction columns where some
    replicate's weights are non-zero.  A replicate whose Hessian fails its
    check gets SingularHessian, and one whose covariance is not finite (a
    score column so large that its square, or its product with a large
    inverse Hessian, overflows) SingularGram, unless it failed earlier.
    """
    check_level(level)
    B, K, p, theta = problem.B, problem.K, problem.p, fits.theta
    columns, W = [], None
    if fits.weights is not None:
        blocks = fits.weights.reshape(B, K, p, p)
        columns = np.flatnonzero(blocks.any(axis=(0, 2, 3))).tolist()
        # a C-ordered copy: the fancy index leaves the replicate axis innermost,
        # and a product over that layout rounds differently with the batch size
        W = np.ascontiguousarray(blocks[:, columns].reshape(B, -1, p))
    sigma = _sigma(problem, theta, W, columns)
    _, Hinv, hessian_ok = problem.hessian(theta)
    errors = fits.errors.copy()
    fail(errors, ~hessian_ok, SingularHessian, HESSIAN_SINGULAR)
    omega, lower, upper = _sandwich_intervals(Hinv, sigma, theta, problem.n, level)
    fail(errors, ~np.isfinite(omega).all(axis=(1, 2)), SingularGram, COVARIANCE_NONFINITE)
    return replace(fits, errors=errors, covariance=omega, lower=lower, upper=upper, level=level)


def attach_inference(report: EstimateReport, ds: Dataset, model: ScoreModel, level: float = 0.95) -> EstimateReport:
    """Return a copy of the report with covariance and intervals filled in.

    Every method gets the one sandwich of ``infer``, at the report's own
    estimate and weight matrix (zero where it carries none, as for naive
    and the oracle).

    Raises:
        ValueError: theta_hat is not a finite array of shape (p,), or the weights not (K*p, p).
    """
    theta = check_theta(report.theta_hat, model.p, "theta_hat")
    weights = None if report.weights is None else weight_blocks(report.weights, ds.K, model.p)[None]
    fits = Fits(report.method, theta[None], no_errors(1), lambda i: dict(report.diagnostics), weights=weights)
    full = infer(Problem.of(ds, model), fits, level).report()
    return replace(report, covariance=full.covariance, intervals=full.intervals)


def fit_method(problem: Problem, token: str, *, level: float) -> Fits:
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
        fits = fit_ppi_pp(problem, k)
    else:
        fits = fit_sada(problem)
    return infer(problem, fits, level)


def run_method(
    ds: Dataset,
    model: ScoreModel,
    token: str,
    *,
    level: float,
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
    return fit_method(Problem.of(ds, model, truth), token, level=level).report()
