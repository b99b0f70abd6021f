"""The data a ``problem.Problem`` holds and its per-row score primitives, rows last.

``stacked_scores`` and ``labeled_scores`` lay their rows on the last axis, so
that numpy's innermost loop runs over rows.  Whatever the model, they must
hold the same numbers as ``stacked_score_matrix`` and ``model.score``, which
lay rows first, and a replicate's block must not depend on its batch.  The
transposed design is taken once per problem, when it is built, on the stacked
rows of its whole batch.
"""
import dataclasses

import numpy as np
import pytest

from sada import DimensionMismatch, Dataset, mean_model, naive_estimate, ols_model, ppi_estimate, sada_estimate
from sada.data import stacked_score_matrix
from sada.estimators import fit_ppi
from sada.inference import fit_method
from sada.problem import Problem
from reference import stacked_problem
from test_estimators import least_squares, logistic_dataset, logistic_model

N, n, K = 40, 13, 4

# each model with the features it is fitted on: the built-ins and the custom
# design see (1, x1, x2), the custom design adds the intercept to (x1, x2)
MODELS = {
    "mean": (mean_model(), lambda X: X),
    "ols": (ols_model(3), lambda X: X),
    "custom_design": (least_squares(lambda x: np.column_stack([np.ones(len(x)), x]), 3), lambda X: X[:, 1:]),
    "no_design": (dataclasses.replace(ols_model(3), design=None), lambda X: X),
}

# row ranges: all rows, one inside the labeled rows, two that cut through the
# last labeled row, and the unlabeled rows alone
BOUNDS = [(0, N), (2, 9), (5, 21), (n - 1, n + 1), (n, N)]
COLUMNS = [(3, 0), (1,), (0, 1, 2, 3)]


def dataset(seed, features):
    rng = np.random.default_rng(seed)
    X = np.column_stack([np.ones(N), rng.standard_normal((N, 2))])
    y = X @ np.array([0.5, -1.0, 2.0]) + rng.standard_normal(N)
    preds = y[:, None] + rng.standard_normal((N, K)) * np.array([0.5, 1.0, 2.0, 1e3])
    return Dataset.from_arrays(features(X), y[:n], preds)


def close(got, want):
    return np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


@pytest.mark.parametrize("name", MODELS)
def test_scores_are_the_row_first_scores_transposed(name):
    model, features = MODELS[name]
    ds = dataset(60, features)
    problem = Problem.of(ds, model)
    theta = np.array([0.3, -0.7, 1.9])[: model.p]
    labeled = problem.labeled_scores(theta[None])
    assert labeled.shape == (1, model.p, n)
    assert close(labeled[0], model.score(ds.features[:n], ds.labels, theta).T)
    for lo, hi in BOUNDS:
        for columns in COLUMNS:
            got = problem.stacked_scores(lo, hi, columns, theta[None])
            want = stacked_score_matrix(model, ds.features[lo:hi], ds.predictions[lo:hi, list(columns)], theta)
            assert got.shape == (1, len(columns) * model.p, hi - lo)
            assert close(got[0], want.T), (lo, hi, columns)


@pytest.mark.parametrize("name", [name for name in MODELS if name != "no_design"])
def test_a_replicates_scores_do_not_depend_on_its_batch(name):
    model, features = MODELS[name]
    datasets = [dataset(seed, features) for seed in (61, 62, 63)]
    thetas = np.array([[0.3, -0.7, 1.9], [-2.0, 0.1, 0.4], [5.0, 3.0, -1.0]])[:, : model.p]
    batch = stacked_problem(model, datasets)
    labeled = batch.labeled_scores(thetas)
    for i, ds in enumerate(datasets):
        one = Problem.of(ds, model)
        assert close(labeled[i], one.labeled_scores(thetas[i][None])[0])
        for lo, hi in BOUNDS:
            for columns in COLUMNS:
                got = batch.stacked_scores(lo, hi, columns, thetas)[i]
                assert close(got, one.stacked_scores(lo, hi, columns, thetas[i][None])[0]), (i, lo, hi, columns)


def test_a_problem_holds_its_data_rows_last_and_a_dataset_is_not_copied():
    ds = dataset(64, lambda X: X)
    for arr in (ds.features, ds.predictions):
        assert arr.flags.f_contiguous and not arr.flags.writeable
    for name in ("mean", "ols", "custom_design"):
        model, features = MODELS[name]
        own = Dataset.from_arrays(features(ds.features), ds.labels, ds.predictions)
        one = Problem.of(own, model)
        batch = stacked_problem(model, [own] * 2)
        # a problem holds the transposed design Z', which only OLS takes as a
        # view of the features, and takes the predictions as a view
        assert np.shares_memory(one.design, own.features) == (name == "ols")
        assert np.shares_memory(one.predictions, own.predictions)
        Z = np.asarray(model.design(own.features), dtype=float)
        for source, got, stacked in ((Z, one.design, batch.design),
                                     (own.predictions, one.predictions, batch.predictions)):
            assert got.shape == (1,) + source.T.shape and got.flags.c_contiguous
            assert np.array_equal(got[0], source.T)
            assert stacked.shape == (2,) + source.T.shape and stacked.flags.c_contiguous
            for replicate in stacked:
                assert np.array_equal(replicate, got[0]) and replicate.flags.c_contiguous


def test_a_design_is_evaluated_once_per_problem():
    base, features = MODELS["custom_design"]
    calls = []

    def design(x):
        calls.append(len(x))
        return base.design(x)

    model = dataclasses.replace(base, design=design)
    ds = dataset(65, features)
    problem = Problem.of(ds, model)
    tokens = ["naive", "sada"] + [f"{m}:{k}" for m in ("ppi", "ppi_pp") for k in range(1, K + 1)]
    for token in tokens:
        fits = fit_method(problem, token, level=0.9)
        assert fits.errors[0] is None and fits.covariance is not None
    assert calls == [N]
    calls.clear()
    datasets = [dataset(seed, features) for seed in (66, 67, 68)]
    batch = stacked_problem(model, datasets)
    # one call on the batch's stacked rows: the contract maps each row on its own
    assert calls == [3 * N]
    for token in tokens:
        fit_method(batch, token, level=0.9)
    assert calls == [3 * N]


# models whose design is not p wide on the d = 3 features of ``dataset``
WRONG_WIDTH = {
    "ols_narrower": (ols_model(2), 3),
    "ols_wider": (ols_model(4), 3),
    "custom_design": (least_squares(lambda x: np.column_stack([np.ones(len(x)), x]), 3), 4),
}
FITS = {
    "naive": naive_estimate,
    "ppi": ppi_estimate,
    "sada": sada_estimate,
    "constructor": lambda ds, model: Problem(model, ds.features.T[None], ds.labels[None], ds.predictions.T[None]),
}


@pytest.mark.parametrize("fit", FITS)
@pytest.mark.parametrize("name", WRONG_WIDTH)
def test_a_design_whose_width_is_not_p_is_rejected(name, fit):
    model, width = WRONG_WIDTH[name]
    ds = dataset(69, lambda X: X)
    with pytest.raises(DimensionMismatch, match=rf"design has {width} columns but the model has p={model.p}"):
        FITS[fit](ds, model)


def test_a_model_without_a_design_has_a_p_unrelated_to_d():
    ds = dataset(70, lambda X: X)
    model = dataclasses.replace(mean_model(), design=None)
    assert model.p == 1 != ds.d
    assert np.isclose(naive_estimate(ds, model).theta_hat[0], ds.labels.mean(), rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("name", ["mean", "logistic"])
def test_ppi_neither_reads_nor_solves_the_pilot(name):
    if name == "mean":
        ds, model = dataset(71, lambda X: X), mean_model()
    else:
        ds, model = logistic_dataset(np.random.default_rng(72)), logistic_model(2)
    problem = Problem.of(ds, model)
    fits = fit_ppi(problem, 1)
    assert fits.errors[0] is None
    assert "pilot" not in vars(problem)
