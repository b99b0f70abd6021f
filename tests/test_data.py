import numpy as np
import pytest

from sada import (
    Dataset,
    DimensionMismatch,
    NoLabeledRows,
    NonFiniteValue,
    NoUnlabeledRows,
    mean_model,
    ols_model,
    stacked_score_matrix,
    validate_dataset,
)

from reference import stacked_score


def small_dataset(N=5, n=2, K=2, seed=0):
    rng = np.random.default_rng(seed)
    return Dataset.from_arrays(
        features=rng.standard_normal((N, 3)),
        labels=rng.standard_normal(n),
        predictions=rng.standard_normal((N, K)),
    )


def test_well_formed_input_accepted():
    ds = small_dataset()
    assert (ds.n, ds.N, ds.K, ds.d) == (2, 5, 2, 3)


def test_all_rows_labeled_rejected():
    rng = np.random.default_rng(1)
    with pytest.raises(NoUnlabeledRows):
        Dataset.from_arrays(
            features=rng.standard_normal((4, 1)),
            labels=rng.standard_normal(4),
            predictions=rng.standard_normal((4, 1)),
        )


def test_no_labels_rejected():
    rng = np.random.default_rng(2)
    with pytest.raises(NoLabeledRows):
        Dataset.from_arrays(
            features=rng.standard_normal((4, 1)),
            labels=np.array([]),
            predictions=rng.standard_normal((4, 1)),
        )


def test_nan_prediction_rejected():
    rng = np.random.default_rng(3)
    preds = rng.standard_normal((5, 2))
    preds[3, 1] = np.nan
    with pytest.raises(NonFiniteValue):
        Dataset.from_arrays(
            features=rng.standard_normal((5, 1)),
            labels=rng.standard_normal(2),
            predictions=preds,
        )


def test_shape_mismatch_rejected():
    rng = np.random.default_rng(4)
    with pytest.raises(DimensionMismatch):
        Dataset.from_arrays(
            features=rng.standard_normal((5, 1)),
            labels=rng.standard_normal(2),
            predictions=rng.standard_normal((6, 1)),
        )


@pytest.mark.parametrize(
    "shapes, message",
    [
        (((5,), (2,), (5, 2)), "features must be 2-D, got ndim=1"),
        (((5, 3), (2,), (5,)), "predictions must be 2-D, got ndim=1"),
        (((5, 3), (2, 1), (5, 2)), "labels must be 1-D, got ndim=2"),
        (((5, 3), (2,), (5, 0)), "at least one prediction column is required"),
        (((5, 3), (6,), (5, 2)), r"more labels \(6\) than rows \(5\)"),
    ],
    ids=["features_1d", "predictions_1d", "labels_2d", "no_prediction_column", "more_labels_than_rows"],
)
def test_each_shape_error_names_itself(shapes, message):
    rng = np.random.default_rng(5)
    features, labels, predictions = (rng.standard_normal(shape) for shape in shapes)
    with pytest.raises(DimensionMismatch, match=f"^{message}$"):
        Dataset.from_arrays(features=features, labels=labels, predictions=predictions)


def test_validation_is_idempotent():
    ds = small_dataset()
    again = validate_dataset(ds)
    assert again == ds


def test_validated_arrays_are_read_only():
    ds = small_dataset()
    with pytest.raises(ValueError):
        ds.predictions[0, 0] = 99.0


def test_stacked_score_mean_model():
    # s = y - theta blockwise: preds (2, 3) at theta 0.5 -> (1.5, 2.5)
    m = mean_model()
    out = stacked_score(m, np.array([1.0]), np.array([2.0, 3.0]), np.array([0.5]))
    assert np.allclose(out, [1.5, 2.5])


def test_stacked_score_single_column_equals_plain_score():
    m = mean_model()
    out = stacked_score(m, np.array([0.0]), np.array([1.7]), np.array([0.2]))
    assert np.allclose(out, m.score(np.array([0.0]), 1.7, np.array([0.2])))


def test_stacked_score_ols_matches_per_column_evaluation():
    # independent oracle: the score formula (y - x'theta) x written out directly
    x = np.array([1.0, 2.0])
    theta = np.array([0.3, -0.2])
    preds = np.array([1.5, -0.7])
    expected = np.concatenate([(yk - x @ theta) * x for yk in preds])
    m = ols_model(2)
    out = stacked_score(m, x, preds, theta)
    assert out.shape == (4,)
    assert np.allclose(out, expected, atol=1e-14)


def test_stacked_score_matrix_rows_match_single_calls():
    ds = small_dataset(N=7, n=3, K=2, seed=5)
    m = ols_model(3)
    theta = np.array([0.1, -0.4, 0.8])
    mat = stacked_score_matrix(m, ds.features, ds.predictions, theta)
    for i in range(ds.N):
        row = stacked_score(m, ds.features[i], ds.predictions[i], theta)
        assert np.allclose(mat[i], row)


def test_permuting_prediction_columns_permutes_blocks():
    rng = np.random.default_rng(6)
    m = ols_model(2)
    x = rng.standard_normal(2)
    theta = rng.standard_normal(2)
    preds = rng.standard_normal(4)
    perm = rng.permutation(4)
    base = stacked_score(m, x, preds, theta).reshape(4, 2)
    permuted = stacked_score(m, x, preds[perm], theta).reshape(4, 2)
    assert np.allclose(permuted, base[perm])
