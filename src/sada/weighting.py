"""Estimation of the optimal aggregation weights.

``estimate_general_weights`` is the stacked-score plug-in
``[mean_N S S']^{-1} [mean_n S s']`` for any score model, built from the
moments of ``moment_estimates``.  It does NOT include the (N-n)/N factor; the
estimator pipeline applies that factor explicitly.

Moments are centered by default (stacked scores by their all-N mean, plain
scores by their labeled-sample mean); ``centering=False`` keeps the raw
uncentered moments for comparison.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset, stacked_score_matrix
from .errors import ConfigError, SingularGram, ZeroGram
from .models import RCOND_THRESHOLD, ScoreModel, solve_score_root

#: Default ridge multiplier: lambda = ridge_scale * trace(gram) / dim.
DEFAULT_RIDGE_SCALE = 1e-8

#: Rows of stacked scores that ``moment_estimates`` builds at a time, so that
#: apart from the dataset its memory is O(CHUNK_ROWS * K * p) for any N.
CHUNK_ROWS = 16384


@dataclass(frozen=True)
class MomentEstimates:
    """Plug-in moments of the stacked scores.

    Attributes:
        gram: (K*p, K*p) second-moment (or covariance) of the stacked score
            over all N rows.
        cross: (K*p, p) moment of stacked score times plain score over the
            labeled rows.
        centering: whether centered moments were used.
    """

    gram: np.ndarray
    cross: np.ndarray
    centering: bool


def moment_estimates(
    ds: Dataset,
    model: ScoreModel,
    theta: np.ndarray,
    centering: bool = True,
) -> MomentEstimates:
    """Compute the gram and cross moments entering the weight plug-in.

    The stacked scores are built and accumulated ``CHUNK_ROWS`` rows at a
    time, so the (N, K*p) stacked matrix is never formed.  Every chunk is
    centred at one shift, the first chunk's column mean, before its products
    are taken, so columns far from zero or of very different scales do not
    cancel; the gram is then corrected by the outer product of the mean's
    remaining offset from the shift.  The cross moment needs no correction,
    because the labeled scores it multiplies are centred and sum to zero.
    """
    n, N = ds.n, ds.N
    s_lab = np.asarray(model.score(ds.features[:n], ds.labels, theta), dtype=float)
    if centering:
        s_lab = s_lab - s_lab.mean(axis=0)
    ones = np.ones(min(N, CHUNK_ROWS))
    gram = total = cross = 0.0
    for lo in range(0, N, CHUNK_ROWS):
        hi = min(lo + CHUNK_ROWS, N)
        S = stacked_score_matrix(model, ds.features[lo:hi], ds.predictions[lo:hi], theta)
        if centering:
            if lo == 0:
                shift = ones @ S / (hi - lo)  # column means, by BLAS
            S -= shift  # S is freshly built, so centre it in place
            total = total + ones[: hi - lo] @ S
        gram = gram + S.T @ S
        if lo < n:
            cross = cross + S[: n - lo].T @ s_lab[lo:hi]
    gram = gram / N
    if centering:
        offset = total / N
        gram -= offset[:, None] * offset
    cross = cross / n
    gram = 0.5 * (gram + gram.T)
    return MomentEstimates(gram=gram, cross=cross, centering=centering)


def check_ridge_scale(ridge_scale: float) -> None:
    """Raise ConfigError unless ridge_scale is a finite number >= 0, so the ridged gram stays PSD."""
    if not (math.isfinite(ridge_scale) and ridge_scale >= 0.0):
        raise ConfigError(f"ridge_scale must be a finite number >= 0, got {ridge_scale!r}")


def regularize_gram(gram: np.ndarray, ridge_scale: float = DEFAULT_RIDGE_SCALE) -> np.ndarray:
    """Add a trace-scaled ridge: gram + lambda*I with lambda = ridge_scale*trace/dim.

    Raises:
        ConfigError: ridge_scale is negative, NaN or infinite.
        ZeroGram: the gram matrix is identically zero, so no ridge can make
            it carry information (surfaces as SingularGram upstream).
    """
    check_ridge_scale(ridge_scale)
    gram = np.asarray(gram, dtype=float)
    if np.all(gram == 0.0):
        raise ZeroGram("gram matrix is identically zero")
    dim = gram.shape[0]
    lam = ridge_scale * float(np.trace(gram)) / dim
    return gram + lam * np.eye(dim)


def solve_gram(gram: np.ndarray, rhs: np.ndarray, ridge_scale: float) -> np.ndarray:
    """Solve (gram + ridge) @ x = rhs via a symmetric pseudo-inverse.

    The pseudo-inverse keeps exactly collinear prediction columns usable
    (minimum-norm solution) when the ridge is disabled.
    """
    reg = regularize_gram(gram, ridge_scale)
    solution = np.linalg.pinv(reg, rcond=RCOND_THRESHOLD, hermitian=True) @ rhs
    if not np.all(np.isfinite(solution)):
        raise SingularGram("weight solve produced non-finite values")
    return solution


def estimate_general_weights(
    ds: Dataset,
    model: ScoreModel,
    theta_pilot: np.ndarray | None = None,
    centering: bool = True,
    ridge_scale: float = DEFAULT_RIDGE_SCALE,
) -> np.ndarray:
    """General stacked-score weight plug-in (no (N-n)/N factor).

    Args:
        ds: validated dataset.
        model: score model defining s and its Jacobian.
        theta_pilot: parameter at which scores are evaluated; defaults to the
            naive labeled-data root.
        centering: center the moments (default) or keep the raw uncentered
            form.
        ridge_scale: ridge multiplier for the gram matrix.

    Returns:
        (K*p, p) weight matrix; callers wanting the population convention
        multiply by (N-n)/N.

    Raises:
        SingularGram: stacked scores carry no usable variation.
    """
    if theta_pilot is None:
        theta_pilot, _ = solve_score_root(model, ds.features[: ds.n], ds.labels)
    theta_pilot = np.asarray(theta_pilot, dtype=float)
    if not np.all(np.isfinite(theta_pilot)):
        raise ValueError("theta_pilot must be finite")
    moments = moment_estimates(ds, model, theta_pilot, centering=centering)
    return solve_gram(moments.gram, moments.cross, ridge_scale)
