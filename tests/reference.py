"""Test-only reference forms of quantities the package computes another way.

``stacked_score`` is one row of ``sada.data.stacked_score_matrix``, built
block by block; ``estimate_mean_weights`` is the mean-model weight closed form
on the prediction columns, which ``estimate_general_weights`` must reproduce;
``sigma_g`` is the efficiency gain that SADA's weights are built to capture;
``stacked_problem`` batches datasets of one shape as one ``Problem``.
"""
import numpy as np

from sada import Dataset, DimensionMismatch, SingularGram
from sada.problem import Problem
from sada.weighting import solve_grams, stacked_moments


def stacked_score(model, x: np.ndarray, preds: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Stack the score evaluated at each prediction for one observation.

    Block k (length p) of the returned length-K*p vector is the score at
    prediction column k, i.e. ``model.score(x, preds[k], theta)``.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.shape[0] != model.p:
        raise DimensionMismatch(f"theta has length {theta.shape[0]}, expected {model.p}")
    preds = np.asarray(preds, dtype=float)
    blocks = [np.asarray(model.score(x, yk, theta), dtype=float).reshape(-1) for yk in preds]
    return np.concatenate(blocks)


def estimate_mean_weights(ds: Dataset) -> np.ndarray:
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
    solution, errors = solve_grams(gram[None], cross[None, :, None])
    if errors[0] is not None:
        raise errors[0]
    return factor * solution[0, :, 0]


def sigma_g(problem, theta: np.ndarray):
    """Efficiency-gain matrices ``cross' gram^{-1} cross`` of every replicate of a
    ``sada.problem.Problem`` at theta (B, p), symmetrised, and where their
    weight solve is not finite (a SingularGram other than a ZeroGram, whose
    gain is zero).

    The triple product of the centred moments of all K prediction columns
    (``stacked_moments``), solved as SADA's weights are (``solve_grams``), so
    PSD by construction; (N-n)/N times it is the variance that the optimal
    weights remove from the naive estimator's.
    """
    gram, cross = stacked_moments(problem, theta, range(problem.K))
    solved, errors = solve_grams(gram, cross)
    out = cross.transpose(0, 2, 1) @ solved
    return 0.5 * (out + out.transpose(0, 2, 1)), np.array([type(e) is SingularGram for e in errors])


def stacked_problem(model, datasets, truths=None):
    """The ``Problem`` of same-shaped datasets, in order, stacked rows last."""
    return Problem(model, np.array([ds.features.T for ds in datasets]), np.array([ds.labels for ds in datasets]),
                   np.array([ds.predictions.T for ds in datasets]), None if truths is None else np.array(truths))
