"""Estimation of the optimal aggregation weights.

``estimate_general_weights`` is the stacked-score plug-in
``[mean_N S S']^{-1} [mean_n S s']`` for any score model, built from the
moments of ``stacked_moments``, which serves every replicate of a batch at
once; ``moment_estimates`` returns the same (gram, cross) pair for one
dataset.  It does NOT include the (N-n)/N factor; the estimator pipeline
applies that factor explicitly.

Every moment is centred: stacked scores by their all-N mean, plain scores by
their labeled-sample mean.  Raw second moments would add the squared
prediction bias to the variance, the very bias that the weighting absorbs.
Every pass of the package over the rows takes them ``row_chunks`` at a
time, and every centred gram among them is a ``CentredGram``.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from .data import Dataset
from .errors import SingularGram, ZeroGram
from .models import RCOND_THRESHOLD, ScoreModel, check_theta, fail, no_errors

#: Ridge multiplier of every weight solve: lambda = RIDGE_SCALE * trace(gram) / dim.
RIDGE_SCALE = 1e-8

#: Rows per chunk of every pass over the rows: the moments, the design
#: products and the sandwich take the rows of each replicate this many at a
#: time, so that apart from the datasets their memory is O(CHUNK_ROWS * K * p)
#: per replicate for any N.  A ``simulate`` batch is sized by its own budget,
#: ``simulate.BATCH_ROWS``.
CHUNK_ROWS = 16384

#: Widest rows-last matrix whose gram ``row_gram`` takes by BLAS gemm.  numpy
#: sends a product of one buffer with its own transpose to syrk, which for
#: narrow, long matrices is slower than gemm against a copy: per 16384-row
#: chunk on one thread, 0.10 ms against 0.04 ms at width 3 and 0.18 against
#: 0.06 ms at width 5, while syrk wins from width 8 on (0.45 against 0.74 ms
#: at width 15, SADA's five columns of OLS scores).  An OLS SADA fit with its
#: inference at N = 1e6, K = 5 took 0.106 s with this rule, 0.125 s with gemm
#: at every width and 0.115 s with syrk at every width.
GEMM_MAX_WIDTH = 7

ZERO_GRAM = "gram matrix is identically zero"
NONFINITE_WEIGHTS = "weight solve produced non-finite values"


def row_gram(A: np.ndarray) -> np.ndarray:
    """A A' of each (w, rows) matrix of a rows-last stack (B, w, rows): (B, w, w).

    Taken by gemm against a copy of A when 1 < w <= ``GEMM_MAX_WIDTH``, and
    by syrk otherwise: at w = 1 the copy costs more than it saves.
    """
    if not 1 < A.shape[1] <= GEMM_MAX_WIDTH:
        return A @ A.transpose(0, 2, 1)
    return A @ A.copy().transpose(0, 2, 1)


def row_chunks(lo: int, hi: int):
    """(start, stop) of each ``CHUNK_ROWS``-row chunk of rows lo..hi, in order."""
    for start in range(lo, hi, CHUNK_ROWS):
        yield start, min(start + CHUNK_ROWS, hi)


class CentredGram:
    """Centred gram of rows-last chunks A (B, w, rows) over all their rows,
    divided by the row count.

    Every chunk is centred at one shift, the first chunk's row mean, before
    its products are taken, so entries far from zero or of very different
    scales do not cancel; ``value`` then corrects the gram by the outer
    product of the mean's remaining offset from the shift.  The row sums are
    BLAS products A @ ones, so the first chunk must be the longest.
    """

    def __init__(self):
        self.rows, self.total, self.gram, self.shift = 0, 0.0, 0.0, None

    def add(self, A: np.ndarray) -> np.ndarray:
        """Centre the freshly built chunk A in place, accumulate it, and return it."""
        rows = A.shape[2]
        if self.shift is None:
            self.ones = np.ones(rows)
            self.shift = (A @ self.ones / rows)[:, :, None]
        A -= self.shift
        self.total = self.total + A @ self.ones[:rows]
        self.gram = self.gram + row_gram(A)
        self.rows += rows
        return A

    def value(self) -> np.ndarray:
        """The corrected, symmetrised gram (B, w, w)."""
        offset = self.total / self.rows
        gram = self.gram / self.rows - offset[:, :, None] * offset[:, None, :]
        return 0.5 * (gram + gram.transpose(0, 2, 1))


# a score column so large that its square overflows gives an inf or NaN
# moment, which ``solve_grams`` marks and the caller turns into a fallback or
# a SadaError, so numpy's floating-point warnings say nothing more
@np.errstate(over="ignore", invalid="ignore")
def stacked_moments(problem, theta: np.ndarray, columns: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Centred gram (B, c, c) and cross (B, c, p) moments of the stacked scores
    of ``columns`` at theta (B, p), c = len(columns) * p, for every replicate
    of a ``problem.Problem``.

    The stacked scores are built ``row_chunks`` of each replicate at a time,
    so the (N, K*p) stacked matrix is never formed, and each chunk S (B, c,
    rows) is centred and accumulated by a ``CentredGram``.  The labeled
    scores are (B, p, n), rows last, so the cross is S @ s_lab' and needs no
    correction: the labeled scores it multiplies are centred and sum to zero.
    """
    n, N = problem.n, problem.N
    s_lab = problem.labeled_scores(theta)
    s_lab = s_lab - s_lab.mean(axis=2, keepdims=True)
    gram, cross = CentredGram(), 0.0
    for lo, hi in row_chunks(0, N):
        S = gram.add(problem.stacked_scores(lo, hi, columns, theta))
        if lo < n:
            cross = cross + S[:, :, : n - lo] @ s_lab[:, :, lo:hi].transpose(0, 2, 1)
    return gram.value(), cross / n


def moment_estimates(
    ds: Dataset,
    model: ScoreModel,
    theta: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The centred gram (K*p, K*p) and cross (K*p, p) moments entering the
    weight plug-in, over all K prediction columns of one dataset at theta (p,).

    Raises:
        ValueError: theta is not a finite array of shape (p,).
    """
    from .problem import Problem  # problem imports this module

    theta = check_theta(theta, model.p)
    gram, cross = stacked_moments(Problem.of(ds, model), theta[None], range(ds.K))
    return gram[0], cross[0]


def ridged(gram: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """gram + lambda*I per matrix of a stack, lambda = RIDGE_SCALE*trace/dim,
    and which grams are identically zero."""
    zero = np.all(gram == 0.0, axis=(-2, -1))
    dim = gram.shape[-1]
    lam = RIDGE_SCALE * np.trace(gram, axis1=-2, axis2=-1) / dim
    return gram + lam[..., None, None] * np.eye(dim), zero


@np.errstate(over="ignore", invalid="ignore")  # a non-finite solve gets its SingularGram
def solve_grams(gram: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve (gram + ridge) @ x = rhs per replicate via a symmetric pseudo-inverse.

    The ridge lifts the gram of exactly collinear prediction columns off
    singular, and the pseudo-inverse drops any direction still below its
    condition threshold.  Returns (x, errors): ``errors`` (B,) holds
    ZeroGram where the gram is identically zero, SingularGram where its
    solve is not finite, and None elsewhere; x is zero where an error is
    set.  Those grams are replaced by the identity before the batched solve.
    """
    reg, zero = ridged(gram)
    finite = np.all(np.isfinite(reg), axis=(-2, -1))
    reg = np.where((finite & ~zero)[:, None, None], reg, np.eye(reg.shape[-1]))
    solution = np.linalg.pinv(reg, rcond=RCOND_THRESHOLD, hermitian=True) @ rhs
    errors = no_errors(gram.shape[0])
    fail(errors, zero, ZeroGram, ZERO_GRAM)
    fail(errors, ~(finite & np.all(np.isfinite(solution), axis=(-2, -1))), SingularGram, NONFINITE_WEIGHTS)
    solution[np.not_equal(errors, None)] = 0.0
    return solution, errors


def estimate_general_weights(
    ds: Dataset,
    model: ScoreModel,
    theta_pilot: np.ndarray | None = None,
) -> np.ndarray:
    """General stacked-score weight plug-in (no (N-n)/N factor), from centred moments.

    Args:
        ds: validated dataset.
        model: score model defining s and its Jacobian.
        theta_pilot: parameter at which scores are evaluated; defaults to the
            naive labeled-data root.

    Returns:
        (K*p, p) weight matrix; callers wanting the population convention
        multiply by (N-n)/N.

    Raises:
        ValueError: theta_pilot is not a finite array of shape (p,).
        SingularJacobian, SingularGram: the default pilot fails, as
            ``estimators.naive_estimate`` does.
        ZeroGram: the stacked scores are identically zero.
        SingularGram: stacked scores carry no usable variation.
    """
    if theta_pilot is None:
        from .estimators import naive_estimate  # estimators imports this module

        theta_pilot = naive_estimate(ds, model).theta_hat
    gram, cross = moment_estimates(ds, model, check_theta(theta_pilot, model.p, "theta_pilot"))
    solution, errors = solve_grams(gram[None], cross[None])
    if errors[0] is not None:
        raise errors[0]
    return solution[0]
