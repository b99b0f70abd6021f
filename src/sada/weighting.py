"""Estimation of the optimal aggregation weights.

Two plug-in routes are provided:

* ``estimate_mean_weights`` -- the mean-estimation closed form operating
  directly on the prediction columns.  It includes the (N-n)/N factor, so it
  returns the weight vector that is applied as-is.
* ``estimate_general_weights`` -- the general stacked-score plug-in
  ``[mean_N S S']^{-1} [mean_n S s']`` for an arbitrary score model.  It does
  NOT include the (N-n)/N factor; the estimator pipeline applies that factor
  explicitly so both routes agree with the population optimum.

Moments are centered by default (stacked scores by their all-N mean, plain
scores by their labeled-sample mean); ``centering=False`` keeps the raw
uncentered moments for comparison.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, stacked_score_matrix
from .errors import SingularGram, ZeroGram
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
    With one chunk (N <= CHUNK_ROWS) the shift is the exact mean and nothing
    is corrected.
    """
    n, N = ds.n, ds.N
    s_lab = np.asarray(model.score(ds.features[:n], ds.labels, theta), dtype=float)
    if centering:
        s_lab = s_lab - s_lab.mean(axis=0)
    corrected = centering and N > CHUNK_ROWS
    ones = np.ones(CHUNK_ROWS) if corrected else None
    for lo in range(0, N, CHUNK_ROWS):
        hi = min(lo + CHUNK_ROWS, N)
        S = stacked_score_matrix(model, ds.features[lo:hi], ds.predictions[lo:hi], theta)
        if centering:
            if lo == 0:
                shift = S.mean(axis=0)
            S -= shift  # S is freshly built, so centre it in place
        chunk_gram = S.T @ S
        chunk_total = ones[: hi - lo] @ S if corrected else 0.0  # column sums, by BLAS
        chunk_cross = S[: n - lo].T @ s_lab[lo:hi] if lo < n else 0.0
        if lo == 0:  # not 0 + terms, which turns -0.0 into 0.0: one chunk stays bit-identical
            gram, total, cross = chunk_gram, chunk_total, chunk_cross
        else:
            gram, total, cross = gram + chunk_gram, total + chunk_total, cross + chunk_cross
    gram = gram / N
    if corrected:
        offset = total / N
        gram -= np.outer(offset, offset)
    cross = cross / n
    gram = 0.5 * (gram + gram.T)
    return MomentEstimates(gram=gram, cross=cross, centering=centering)


def regularize_gram(gram: np.ndarray, ridge_scale: float = DEFAULT_RIDGE_SCALE) -> np.ndarray:
    """Add a trace-scaled ridge: gram + lambda*I with lambda = ridge_scale*trace/dim.

    Raises:
        ZeroGram: the gram matrix is identically zero, so no ridge can make
            it carry information (surfaces as SingularGram upstream).
    """
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


def estimate_mean_weights(
    ds: Dataset,
    ridge_scale: float = DEFAULT_RIDGE_SCALE,
) -> np.ndarray:
    """Mean-estimation optimal weights (closed form, factor included).

    Computes
    ``(N-n)/N * [mean_N (yhat - ybar_hat)(yhat - ybar_hat)']^{-1}
    [mean_n (yhat_i - ybar_hat)(y_i - ybar)]``
    with the prediction mean over all N rows and the label mean over the
    labeled rows, after ridge regularization of the gram matrix.

    Returns:
        Length-K weight vector.

    Raises:
        SingularGram: prediction columns carry no usable variation.
    """
    preds_centered = ds.predictions - ds.predictions.mean(axis=0)
    labels_centered = ds.labels - ds.labels.mean()
    gram = preds_centered.T @ preds_centered / ds.N
    cross = preds_centered[: ds.n].T @ labels_centered / ds.n
    factor = (ds.N - ds.n) / ds.N
    return factor * solve_gram(gram, cross, ridge_scale)


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
