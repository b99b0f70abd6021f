"""Dataset container and the stacked-score construction shared by all estimators.

Row convention: the first ``n`` rows are labeled, rows ``n+1 .. N`` are
unlabeled.  Loaders reorder on ingestion so the math never carries a mask.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    NoLabeledRows,
    NonFiniteValue,
    NoUnlabeledRows,
)


@dataclass(frozen=True, eq=False)
class Dataset:
    """Semi-supervised dataset with multiple prediction columns.

    Attributes:
        features: (N, d) feature matrix (d may be 0 for models that ignore x).
        labels: (n,) outcomes for the first n rows.
        predictions: (N, K) matrix; column k holds the k-th predicted label.
    """

    features: np.ndarray
    labels: np.ndarray
    predictions: np.ndarray

    @property
    def n(self) -> int:
        return self.labels.shape[0]

    @property
    def N(self) -> int:
        return self.predictions.shape[0]

    @property
    def K(self) -> int:
        return self.predictions.shape[1]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    @classmethod
    def from_arrays(cls, features, labels, predictions) -> "Dataset":
        """Build and validate a dataset from array-likes."""
        raw = cls(
            features=np.asarray(features, dtype=float),
            labels=np.asarray(labels, dtype=float),
            predictions=np.asarray(predictions, dtype=float),
        )
        return validate_dataset(raw)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            np.array_equal(self.features, other.features)
            and np.array_equal(self.labels, other.labels)
            and np.array_equal(self.predictions, other.predictions)
        )


def validate_dataset(raw: Dataset) -> Dataset:
    """Check shapes, finiteness and the 1 <= n < N counting invariant.

    Returns an immutable (read-only buffers) dataset.  Validating an already
    validated dataset returns an equal dataset.

    Raises:
        DimensionMismatch: arrays have inconsistent shapes.
        NonFiniteValue: any entry is NaN or infinite.
        NoLabeledRows: n = 0.
        NoUnlabeledRows: n = N (the unlabeled fraction appears in
            denominators of the optimal weights, so the method degenerates).
    """
    features = np.asarray(raw.features, dtype=float)
    labels = np.asarray(raw.labels, dtype=float)
    predictions = np.asarray(raw.predictions, dtype=float)

    if features.ndim != 2:
        raise DimensionMismatch(f"features must be 2-D, got ndim={features.ndim}")
    if predictions.ndim != 2:
        raise DimensionMismatch(f"predictions must be 2-D, got ndim={predictions.ndim}")
    if labels.ndim != 1:
        raise DimensionMismatch(f"labels must be 1-D, got ndim={labels.ndim}")

    N = predictions.shape[0]
    if features.shape[0] != N:
        raise DimensionMismatch(
            f"features has {features.shape[0]} rows but predictions has {N}"
        )
    if predictions.shape[1] < 1:
        raise DimensionMismatch("at least one prediction column is required")

    n = labels.shape[0]
    if n == 0:
        raise NoLabeledRows("dataset has no labeled rows")
    if n > N:
        raise DimensionMismatch(f"more labels ({n}) than rows ({N})")
    if n == N:
        raise NoUnlabeledRows(f"all {N} rows are labeled; no unlabeled rows remain")

    for name, arr in (("features", features), ("labels", labels), ("predictions", predictions)):
        if arr.size and not np.all(np.isfinite(arr)):
            raise NonFiniteValue(f"{name} contains non-finite entries")

    features = features.copy()
    labels = labels.copy()
    predictions = predictions.copy()
    for arr in (features, labels, predictions):
        arr.setflags(write=False)
    return Dataset(features=features, labels=labels, predictions=predictions)


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


def stacked_score_matrix(model, X: np.ndarray, predictions: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Per-row stacked scores for a block of observations.

    Returns an (m, K*p) matrix whose row i is ``stacked_score`` at row i.
    Column block k spans columns ``k*p .. (k+1)*p``.
    """
    m, K = predictions.shape
    p = model.p
    out = np.empty((m, K * p))
    for k in range(K):
        out[:, k * p:(k + 1) * p] = model.score(X, predictions[:, k], theta)
    return out
