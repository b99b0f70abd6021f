"""One score model on a batch of same-shaped datasets, and the four primitives
in which models with and without a design differ.

A ``Problem`` stacks B datasets with the same N, n, K and p on a leading
replicate axis, each with its rows last: the transposed design Z' (B, p, N),
labels (B, n), predictions (B, K, N) and, for the oracle, true labels (B, N),
all C-contiguous.  Z' is data: ``rows_last_design`` calls the model's
``design`` once per problem, on the batch's stacked (B*N, d) rows, which its
contract lets it map one row at a time, and no primitive calls it again.  A
model without a design holds the features X' (B, d, N) in its place.  Every
pass over the rows then reads only the columns it uses, at unit stride, and
numpy's innermost loops and BLAS's long dimension run over the many rows
rather than over the few columns.  ``Problem.of`` hands the constructor the
transposes of a validated dataset's column-major arrays, which are views,
so the predictions, and OLS's Z', are not copied; any other design costs
one (p, N) array.  Every replicate gets the same layout, so its BLAS calls,
and its results, do not depend on its batch.  The estimators, the weight
plug-ins and the sandwich inference are written once, over that axis,
against four primitives:

* ``score_root`` (and the cached ``pilot``): root of the plain score equation;
* ``solve_weighted``: root of the weighted equation for weights W (B, K*p, p);
* ``stacked_scores``/``labeled_scores``: the per-row scores at theta behind
  the weight moments (``weighting.stacked_moments``) and the variance
  (``inference.infer``), also with the rows on the last axis, from one body
  in which the labels are one more target;
* ``hessian``: the labeled mean Jacobian, with its inverse and check.

A model with a design (the mean and OLS) evaluates each for all B replicates
at once.  Its scores are affine in theta, so the solves need only the design
products Z'Z, Z'y and Z'Yhat on the labeled and unlabeled rows, taken once per
problem by ``design_sums``.  A check that fails marks the replicate in a
boolean mask, and its matrix is replaced by the identity before any batched
solve: one singular or non-finite matrix would make numpy's batched
``solve``/``inv``/``svd`` raise for the whole stack.  Any other model is
solved by Newton one dataset at a time (B = 1), on rows-first views of its
features, and its failures raise.

Derived values are cached on the problem, which lives only as long as the
call, or the CLI command, that built it.
"""
from __future__ import annotations

from functools import cached_property
from typing import Sequence

import numpy as np

from . import weighting
from .data import Dataset, stacked_score_matrix
from .errors import DimensionMismatch
from .models import (
    ScoreModel,
    checked_inverse,
    newton_in_score_units,
    solve_affine,
    solve_score_root,
)


def rows_last_design(model: ScoreModel, features: np.ndarray) -> np.ndarray:
    """Z' (B, p, N), C-contiguous, of rows-last features (B, d, N), by one call
    of ``model.design`` on the batch's stacked (B*N, d) rows; the features for
    a model without a design.  OLS's batch of one is not copied.  The one
    place that raises DimensionMismatch for a design that is not p wide."""
    if model.design is None:
        return np.ascontiguousarray(features)
    B, d, N = features.shape
    Z = np.asarray(model.design(features.transpose(0, 2, 1).reshape(B * N, d)), dtype=float)
    if Z.shape[1] != model.p:
        raise DimensionMismatch(f"the design has {Z.shape[1]} columns but the model has p={model.p}")
    return np.ascontiguousarray(Z.reshape(B, N, -1).transpose(0, 2, 1))


# an overflowing product gives an inf or NaN theta, which the estimators turn
# into a SadaError, so numpy's floating-point warnings say nothing more
@np.errstate(over="ignore", invalid="ignore")
def design_sums(Zt: np.ndarray, *targets: np.ndarray):
    """Z'Z and each Z't over the rows of the transposed design Zt (B, p, rows),
    divided by the row count.

    The products are taken ``weighting.row_chunks`` at a time, so no copy
    of Zt of more than a chunk of rows is made.  Every design product of
    the package is taken here, so a change of basis of Z (such as a QR basis
    of the labeled design) would be applied in one place.  Each target is
    rows-last, (B, q, rows); returns (Z'Z/m, [Z't/m, ...]), the gram taken by
    ``weighting.row_gram``.
    """
    m = Zt.shape[2]
    zz, sums = 0.0, [0.0] * len(targets)
    for lo, hi in weighting.row_chunks(0, m):
        Z = Zt[:, :, lo:hi]
        zz = zz + weighting.row_gram(Z)
        sums = [s + Z @ t[:, :, lo:hi].transpose(0, 2, 1) for s, t in zip(sums, targets)]
    return zz / m, [s / m for s in sums]


def design_root(Zt: np.ndarray, y: np.ndarray):
    """Closed-form root of mean_i z_i (y_i - z_i'theta) = 0 per replicate: (theta, ok).

    Zt is the transposed design (B, p, m) and y (B, m); see ``solve_affine``.
    """
    G, (b,) = design_sums(Zt, y[:, None, :])
    return solve_affine(G, b[..., 0])


class Problem:
    """A score model on B datasets stacked on a leading replicate axis."""

    def __init__(self, model: ScoreModel, features, labels, predictions, truth=None):
        """The arrays are rows last: features (B, d, N), labels (B, n),
        predictions (B, K, N) and truth (B, N) or None; the design is taken
        from the features by ``rows_last_design``, and the arrays are not
        validated."""
        self.model = model
        self.design = rows_last_design(model, features)
        self.labels = np.ascontiguousarray(labels)
        self.predictions = np.ascontiguousarray(predictions)
        self.truth = None if truth is None else np.ascontiguousarray(truth)
        self.B, self.K, self.N = predictions.shape
        self.n = labels.shape[1]
        self.p = model.p
        if model.design is None and self.B != 1:
            raise ValueError("a model without a design is fitted one dataset at a time")

    @classmethod
    def of(cls, ds: Dataset, model: ScoreModel, truth: np.ndarray | None = None) -> "Problem":
        """The batch of one that every per-dataset call fits.

        The features and predictions of a validated dataset are column-major,
        so their transposes are views; OLS's Z' is one, and any other design,
        or a row-major dataset, is copied in the constructor.
        """
        return cls(model, ds.features.T[None], ds.labels[None], ds.predictions.T[None],
                   None if truth is None else np.asarray(truth, dtype=float)[None])

    @cached_property
    def _labeled(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """G_L = Z_L'Z_L/n, b_L = Z_L'y/n and P_L = Z_L'Yhat_L/n."""
        n = self.n
        G, (b, P) = design_sums(self.design[:, :, :n], self.labels[:, None, :], self.predictions[:, :, :n])
        return G, b[..., 0], P

    @cached_property
    @np.errstate(over="ignore", invalid="ignore")  # as in ``design_sums``
    def _weighted(self) -> tuple[np.ndarray, np.ndarray]:
        """What a weight matrix multiplies: G_U - G_L and P_U - P_L, P_R = Z_R'Yhat_R/m_R."""
        G_L, _, P_L = self._labeled
        G_U, (P_U,) = design_sums(self.design[:, :, self.n:], self.predictions[:, :, self.n:])
        return G_U - G_L, P_U - P_L

    # --- primitive 1: the plain score root ---

    def score_root(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Root of mean_i s(x_i, y_i; theta) = 0 per replicate over the first m
        rows, y (B, m): (theta, ok, iterations)."""
        m = y.shape[1]
        if self.model.design is None:
            theta, iters = solve_score_root(self.model, self.design[0, :, :m].T, y[0])
            return theta[None], np.ones(1, dtype=bool), np.array([iters])
        theta, ok = design_root(self.design[:, :, :m], y)
        return theta, ok, np.ones(self.B, dtype=int)

    @cached_property
    def pilot(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The naive labeled-data root, solved once per problem: (theta, ok, iterations)."""
        if self.model.design is None:
            return self.score_root(self.labels)
        theta, ok = solve_affine(*self._labeled[:2])
        return theta, ok, np.ones(self.B, dtype=int)

    # --- primitive 2: the weighted solve ---

    def solve_weighted(self, W: np.ndarray, theta0: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Roots of the weighted estimating equation: (theta, ok, iterations).

        W is (B, K*p, p), one (p, p) block per prediction column.  For a model
        with a design the equation is b - G theta = 0 with

            G = G_L + (sum_k W_k)' (G_U - G_L),
            b = Z_L'y / n + sum_k W_k' (P_U - P_L)[:, k],

        solved in closed form, and theta0 is not used; a zero block adds
        exact zeros to b, and a zero W to G, even where the products they
        multiply are not finite.  Any other model goes through Newton from
        theta0 (zeros by default), in score units
        (``models.newton_in_score_units``), scoring only the columns whose
        block of W is non-zero, one at a time.
        """
        B, K, p = self.B, self.K, self.p
        if self.model.design is None:
            theta0 = np.zeros(p) if theta0 is None else theta0[0]
            theta, iters = self._newton_weighted(W[0], theta0)
            return theta[None], np.ones(1, dtype=bool), np.array([iters])
        G_L, b_L, _ = self._labeled
        dG, dP = self._weighted
        blocks = W.reshape(B, K, p, p)
        used = blocks.any(axis=(2, 3))
        dP = np.where(used[:, None, :], dP, 0.0)
        with np.errstate(over="ignore", invalid="ignore"):  # as in ``design_sums``
            dG = blocks.sum(axis=1).transpose(0, 2, 1) @ dG
            G = G_L + np.where(used.any(axis=1)[:, None, None], dG, 0.0)
            b = b_L + (W.transpose(0, 2, 1) @ dP.transpose(0, 2, 1).reshape(B, -1, 1))[..., 0]
        theta, ok = solve_affine(G, b)
        return theta, ok, np.ones(B, dtype=int)

    def _newton_weighted(self, W: np.ndarray, theta0: np.ndarray):
        model, n = self.model, self.n
        X = self.design[0].T  # rows first, as the model's score and Jacobian take them
        X_lab, y_lab, X_U = X[:n], self.labels[0], X[n:]
        blocks = W.reshape(self.K, self.p, self.p)
        used = [(W_k, yhat) for W_k, yhat in zip(blocks, self.predictions[0]) if W_k.any()]

        def weighted(f, theta):
            """f(L, y) + sum_k W_k' [f(U, yhat_k) - f(L, yhat_k)], one used prediction column at a time."""
            out = f(X_lab, y_lab, theta)
            for W_k, yhat in used:
                out = out + W_k.T @ (f(X_U, yhat[n:], theta) - f(X_lab, yhat[:n], theta))
            return out

        def mean_score(x, y, theta):
            return np.mean(model.score(x, y, theta), axis=0)

        return newton_in_score_units(
            model, X_lab, y_lab, theta0,
            lambda theta: weighted(mean_score, theta),
            lambda theta: weighted(model.jacobian, theta),
        )

    # --- primitive 3: the scores behind the moments at theta ---

    def labeled_scores(self, theta: np.ndarray) -> np.ndarray:
        """Scores of the labeled rows at theta (B, p), rows last: (B, p, n)."""
        return self._scores(0, self.n, [self.labels], theta)

    def stacked_scores(self, lo: int, hi: int, columns: Sequence[int], theta: np.ndarray) -> np.ndarray:
        """Rows lo..hi of the stacked scores of ``columns`` at theta, rows last:
        (B, len(columns)*p, hi-lo); block j of the middle axis holds the score
        at prediction column ``columns[j]``."""
        return self._scores(lo, hi, [self.predictions[:, k, lo:hi] for k in columns], theta)

    def _scores(self, lo: int, hi: int, targets: Sequence[np.ndarray], theta: np.ndarray) -> np.ndarray:
        """Scores at theta of rows lo..hi with each target (B, hi-lo) as y, rows
        last: (B, len(targets)*p, hi-lo), block j for ``targets[j]``.

        For a model with a design, the residuals of every target, (B,
        len(targets), rows), are multiplied by the transposed design in one
        product into a C-ordered buffer, so later passes over the rows do not
        stride.  The fitted values theta'Z' are one exact product over the
        batch for p = 1; for p > 1 they stay the BLAS product of each
        replicate, since the order of the sum over p moves them by an ulp,
        and an ill-conditioned gram turns that into visible changes of the
        SADA weights.  Any other model's ``stacked_score_matrix`` is computed
        on rows-first views and returned transposed.
        """
        if self.model.design is None:
            Y = np.stack([t[0] for t in targets], axis=1)
            return stacked_score_matrix(self.model, self.design[0, :, lo:hi].T, Y, theta[0]).T[None]
        B, c, p = self.B, len(targets), self.p
        Zt = self.design[:, :, lo:hi]
        fitted = Zt[:, 0] * theta if p == 1 else (theta[:, None, :] @ Zt)[:, 0]
        R = np.empty((B, c, hi - lo))
        for j, t in enumerate(targets):  # several times faster than a fancy-indexed gather
            np.subtract(t, fitted, out=R[:, j])
        out = np.empty((B, c, p, hi - lo))
        np.multiply(R[:, :, None, :], Zt[:, None], out=out)
        return out.reshape(B, c * p, hi - lo)

    # --- primitive 4: the Hessian ---

    def hessian(self, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Labeled mean Jacobian at theta, its inverse and its check: (H, Hinv, ok).

        For a model with a design, H = -G_L does not depend on theta and is
        inverted once per problem.  Where H fails the check, Hinv is the
        identity.
        """
        if self.model.design is None:
            with np.errstate(over="ignore", invalid="ignore"):  # a non-finite H fails its check
                H = np.asarray(self.model.jacobian(self.design[0, :, : self.n].T, self.labels[0], theta[0]), dtype=float)
            return (H[None], *checked_inverse(H[None]))
        return self._design_hessian

    @cached_property
    def _design_hessian(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        H = -self._labeled[0]
        return (H, *checked_inverse(H))
