"""Dataset container and the stacked-score matrix behind the plug-in moments.

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

    A validated dataset (``from_arrays``, ``validate_dataset``) stores
    ``features`` and ``predictions`` column-major, so each column is
    contiguous: every pass of the estimators runs along the rows of the few
    columns it reads (see ``problem.Problem``).  A dataset built directly
    from row-major arrays gives the same results, at the cost of one
    transposing copy per ``Problem`` built on it.
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

    Returns an immutable (read-only buffers) dataset, with ``features`` and
    ``predictions`` copied column-major.  Validating an already validated
    dataset returns an equal dataset.

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
        if arr.size and not np.isfinite(arr).all():
            raise NonFiniteValue(f"{name} contains non-finite entries")

    features = features.copy(order="F")
    labels = labels.copy()
    predictions = predictions.copy(order="F")
    for arr in (features, labels, predictions):
        arr.setflags(write=False)
    return Dataset(features=features, labels=labels, predictions=predictions)


def stacked_score_matrix(model, X: np.ndarray, predictions: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Per-row stacked scores for a block of observations.

    Returns an (m, K*p) matrix whose column block k (columns
    ``k*p .. (k+1)*p``) is ``model.score`` at prediction column k.
    """
    m, K = predictions.shape
    p = model.p
    out = np.empty((m, K * p))
    for k in range(K):
        out[:, k * p:(k + 1) * p] = model.score(X, predictions[:, k], theta)
    return out
