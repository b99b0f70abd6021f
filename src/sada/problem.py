"""One score model on a batch of same-shaped datasets, and the four primitives
in which models with and without a design differ.

A ``Problem`` stacks B datasets with the same N, n, K and d on a leading
replicate axis, each with its rows last: features (B, d, N), labels (B, n),
predictions (B, K, N) and, for the oracle, true labels (B, N), all
C-contiguous.  Every pass over the rows then reads only the columns it uses,
at unit stride, and numpy's innermost loops and BLAS's long dimension run
over the many rows rather than over the few columns.  ``Problem.of`` takes
these as views of a validated dataset, whose columns are contiguous;
``Problem.stack`` transposes each batch once as it copies it.  Both give
each replicate the same layout, so its BLAS calls, and its results, do not
depend on its batch.  The estimators, the weight plug-ins and the sandwich
inference are written once, over that axis, against four primitives:

* ``score_root`` (and the cached ``pilot``): root of the plain score equation;
* ``solve_weighted``: root of the weighted equation for given weights;
* ``stacked_scores``/``labeled_scores``: the per-row scores at theta behind
  the weight moments (``weighting.stacked_moments``) and the variance
  (``inference.infer``), also with the rows on the last axis;
* ``hessian``: the labeled mean Jacobian, with its inverse and check.

A model with a design (the mean and OLS) evaluates each for all B replicates
at once.  Its scores are affine in theta, so the solves need only the design
products Z'Z, Z'y and Z'Yhat on the labeled and unlabeled rows, taken once per
problem by ``design_sums`` from the transposed design Z' (``design_rows``).  A
check that fails marks the replicate in a boolean mask, and its matrix is
replaced by the identity before any batched solve: one singular or
non-finite matrix would make numpy's batched ``solve``/``inv``/``svd`` raise
for the whole stack.  Any other model is solved by Newton one dataset at a
time (B = 1), on rows-first views of its data, and its failures raise.

Derived values are cached on the problem, which lives only as long as the
call, or the CLI command, that built it.
"""
from __future__ import annotations

from functools import cached_property
from typing import Sequence

import numpy as np

from . import weighting
from .data import Dataset, stacked_score_matrix
from .models import (
    ScoreModel,
    checked_inverse,
    solve_affine,
    solve_estimating_equation,
    solve_score_root,
)


def design_rows(model: ScoreModel, X: np.ndarray) -> np.ndarray:
    """The transposed design Z' of a rows-last (B, d, m) stack of features, as
    (B, p, m) with unit stride along the rows.

    ``design`` is called on the (B*m, d) rows, its documented (m, d) -> (m, p)
    contract, so a custom design need not know of the replicate axis.  For
    OLS on a batch of one, whose design returns its rows, Z' is a view of X;
    any design whose output is not rows-last is copied into a C-ordered
    array.
    """
    B, d, m = X.shape
    Z = np.asarray(model.design(X.transpose(0, 2, 1).reshape(B * m, d)), dtype=float)
    Zt = Z.reshape(B, m, model.p).transpose(0, 2, 1)
    return Zt if Zt.strides[-1] == Zt.itemsize else np.ascontiguousarray(Zt)


def design_sums(model: ScoreModel, X: np.ndarray, *targets: np.ndarray, gram: bool = True):
    """Z'Z and each Z't over the rows of X (B, d, rows), divided by the row count.

    Z' = design_rows(X) is built ``weighting.CHUNK_ROWS`` rows at a time, so
    its memory is O(CHUNK_ROWS * p) per replicate for any N.  Every design
    product of the package is taken here, so a change of basis of Z (such
    as a QR basis of the labeled design) would be applied in one place.
    Each target is rows-last, (B, q, rows); returns (Z'Z/m or None,
    [Z't/m, ...]), the gram taken by ``weighting.row_gram``.
    """
    m = X.shape[2]
    chunk = weighting.CHUNK_ROWS
    zz, sums = 0.0, [0.0] * len(targets)
    for lo in range(0, m, chunk):
        Zt = design_rows(model, X[:, :, lo:lo + chunk])
        if gram:
            zz = zz + weighting.row_gram(Zt)
        sums = [s + Zt @ t[:, :, lo:lo + chunk].transpose(0, 2, 1) for s, t in zip(sums, targets)]
    return (zz / m if gram else None), [s / m for s in sums]


def design_root(model: ScoreModel, X: np.ndarray, y: np.ndarray):
    """Closed-form root of mean_i z_i (y_i - z_i'theta) = 0 per replicate: (theta, ok).

    X is rows-last (B, d, m) and y (B, m); see ``solve_affine``.
    """
    G, (b,) = design_sums(model, X, y[:, None, :])
    return solve_affine(G, b[..., 0])


class Problem:
    """A score model on B datasets stacked on a leading replicate axis."""

    def __init__(self, model: ScoreModel, features, labels, predictions, truth=None):
        """The arrays are rows last: features (B, d, N), labels (B, n),
        predictions (B, K, N) and truth (B, N) or None."""
        self.model = model
        self.features, self.labels, self.predictions, self.truth = features, labels, predictions, truth
        self.B, self.K, self.N = predictions.shape
        self.n = labels.shape[1]
        self.p = model.p
        if model.design is None and self.B != 1:
            raise ValueError("a model without a design is fitted one dataset at a time")

    @classmethod
    def of(cls, ds: Dataset, model: ScoreModel, truth: np.ndarray | None = None) -> "Problem":
        """The batch of one that every per-dataset call fits.

        The features and predictions of a validated dataset are column-major,
        so their transposes are views; a row-major dataset is copied here.
        """
        return cls(model, np.ascontiguousarray(ds.features.T)[None], ds.labels[None],
                   np.ascontiguousarray(ds.predictions.T)[None],
                   None if truth is None else np.asarray(truth, dtype=float)[None])

    @classmethod
    def stack(cls, model: ScoreModel, draws: Sequence[tuple]) -> "Problem":
        """Replicates of one shape, in order, as one batch: each draw is the (features,
        labels, predictions[, truth]) arrays of one, rows first as in a ``Dataset``,
        copied once here, rows last, and not validated."""
        features, labels, predictions, *truth = zip(*draws)
        # np.array, not np.stack: stacking transposed views would keep their order
        return cls(model, np.array([X.T for X in features]), np.stack(labels),
                   np.array([Yhat.T for Yhat in predictions]), *map(np.stack, truth))

    @cached_property
    def _labeled(self) -> tuple[np.ndarray, np.ndarray]:
        """G_L = Z_L'Z_L/n and b_L = Z_L'y/n."""
        G, (b,) = design_sums(self.model, self.features[:, :, : self.n], self.labels[:, None, :])
        return G, b[..., 0]

    @cached_property
    def _weighted(self) -> tuple[np.ndarray, np.ndarray]:
        """What a weight matrix multiplies: G_U - G_L and P_U - P_L, P_R = Z_R'Yhat_R/m_R."""
        n = self.n
        G_L, _ = self._labeled
        _, (P_L,) = design_sums(self.model, self.features[:, :, :n], self.predictions[:, :, :n], gram=False)
        G_U, (P_U,) = design_sums(self.model, self.features[:, :, n:], self.predictions[:, :, n:])
        return G_U - G_L, P_U - P_L

    # --- primitive 1: the plain score root ---

    def score_root(self, X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Root of mean_i s(x_i, y_i; theta) = 0 per replicate, X rows last (B, d, m):
        (theta, ok, iterations)."""
        if self.model.design is None:
            theta, iters = solve_score_root(self.model, X[0].T, y[0])
            return theta[None], np.ones(1, dtype=bool), np.array([iters])
        theta, ok = design_root(self.model, X, y)
        return theta, ok, np.ones(self.B, dtype=int)

    @cached_property
    def pilot(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The naive labeled-data root, solved once per problem: (theta, ok, iterations)."""
        if self.model.design is None:
            return self.score_root(self.features[:, :, : self.n], self.labels)
        theta, ok = solve_affine(*self._labeled)
        return theta, ok, np.ones(self.B, dtype=int)

    # --- primitive 2: the weighted solve ---

    def solve_weighted(
        self, W: np.ndarray, columns: Sequence[int], theta0: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Roots of the weighted estimating equation: (theta, ok, iterations).

        W is (B, len(columns)*p, p), one (p, p) block per 0-based prediction
        column in ``columns``.  For a model with a design the equation is
        b - G theta = 0 with

            G = G_L + (sum_k W_k)' (G_U - G_L),
            b = Z_L'y / n + sum_k W_k' (P_U - P_L)[:, k],

        solved in closed form, and theta0 is not used; any other model goes
        through Newton from theta0 (zeros by default), scoring only the
        columns whose block of W is non-zero, one at a time.
        """
        B, p = self.B, self.p
        if self.model.design is None:
            theta0 = np.zeros(p) if theta0 is None else theta0[0]
            theta, iters = self._newton_weighted(W[0], columns, theta0)
            return theta[None], np.ones(1, dtype=bool), np.array([iters])
        G_L, b_L = self._labeled
        dG, dP = self._weighted
        G = G_L + W.reshape(B, -1, p, p).sum(axis=1).transpose(0, 2, 1) @ dG
        shift = dP[:, :, list(columns)].transpose(0, 2, 1).reshape(B, -1, 1)
        b = b_L + (W.transpose(0, 2, 1) @ shift)[..., 0]
        theta, ok = solve_affine(G, b)
        return theta, ok, np.ones(B, dtype=int)

    def _newton_weighted(self, W: np.ndarray, columns: Sequence[int], theta0: np.ndarray):
        model, n = self.model, self.n
        X = self.features[0].T  # rows first, as the model's score and Jacobian take them
        X_lab, y_lab = X[:n], self.labels[0]
        blocks = W.reshape(len(columns), self.p, self.p)
        used = [(W_k, self.predictions[0, k]) for W_k, k in zip(blocks, columns) if W_k.any()]
        if not used:
            return solve_score_root(model, X_lab, y_lab, theta0)
        X_U = X[n:]

        def weighted(f, theta):
            """f(L, y) + sum_k W_k' [f(U, yhat_k) - f(L, yhat_k)], one prediction column at a time."""
            out = f(X_lab, y_lab, theta)
            for W_k, yhat in used:
                out = out + W_k.T @ (f(X_U, yhat[n:], theta) - f(X_lab, yhat[:n], theta))
            return out

        def mean_score(x, y, theta):
            return np.mean(model.score(x, y, theta), axis=0)

        return solve_estimating_equation(
            lambda theta: weighted(mean_score, theta),
            lambda theta: weighted(model.jacobian, theta),
            theta0,
        )

    # --- primitive 3: the scores behind the moments at theta ---

    @staticmethod
    def _fitted(Zt: np.ndarray, theta: np.ndarray) -> np.ndarray:
        """theta'Z' per row, (B, m), from the transposed design Zt (B, p, m).

        For p = 1 this is one exact product over the whole batch.  For p > 1
        it stays the BLAS product of each replicate: the order of the sum
        over p moves the fitted values by an ulp, and an ill-conditioned gram
        turns that into visible changes of the SADA weights.
        """
        if Zt.shape[1] == 1:
            return Zt[:, 0] * theta
        return (theta[:, None, :] @ Zt)[:, 0]

    def labeled_scores(self, theta: np.ndarray) -> np.ndarray:
        """Scores of the labeled rows at theta (B, p), rows last: (B, p, n).

        For a model with a design they are written into a C-ordered buffer,
        as in ``stacked_scores``, so later passes over the rows do not stride.
        """
        X, y = self.features[:, :, : self.n], self.labels
        if self.model.design is None:
            return np.asarray(self.model.score(X[0].T, y[0], theta[0]), dtype=float).T[None]
        Zt = design_rows(self.model, X)
        out = np.empty((self.B, self.p, self.n))
        np.multiply((y - self._fitted(Zt, theta))[:, None, :], Zt, out=out)
        return out

    def stacked_scores(self, lo: int, hi: int, columns: Sequence[int], theta: np.ndarray) -> np.ndarray:
        """Rows lo..hi of the stacked scores of ``columns`` at theta, rows last:
        (B, len(columns)*p, hi-lo).

        Block j of the middle axis holds the score at prediction column
        ``columns[j]``.  For a model with a design, the residuals of every
        column, (B, len(columns), rows), are multiplied by the transposed
        design in one product, and each reads only its own prediction column.
        Any other model's ``stacked_score_matrix`` is computed on rows-first
        views and returned transposed.
        """
        X, Yhat = self.features[:, :, lo:hi], self.predictions[:, :, lo:hi]
        if self.model.design is None:
            return stacked_score_matrix(self.model, X[0].T, Yhat[0, list(columns)].T, theta[0]).T[None]
        B, c, p = self.B, len(columns), self.p
        Zt = design_rows(self.model, X)
        fitted = self._fitted(Zt, theta)
        R = np.empty((B, c, hi - lo))
        for j, k in enumerate(columns):  # several times faster than a fancy-indexed gather
            np.subtract(Yhat[:, k], fitted, out=R[:, j])
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
            n = self.n
            H = np.asarray(self.model.jacobian(self.features[0, :, :n].T, self.labels[0], theta[0]), dtype=float)
            return (H[None], *checked_inverse(H[None]))
        return self._design_hessian

    @cached_property
    def _design_hessian(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        H = -self._labeled[0]
        return (H, *checked_inverse(H))
