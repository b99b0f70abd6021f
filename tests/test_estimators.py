import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sada import (
    DEFAULT_RIDGE_SCALE,
    Dataset,
    EstimateReport,
    ScoreModel,
    SingularJacobian,
    attach_inference,
    mean_model,
    naive_estimate,
    ols_model,
    oracle_estimate,
    ppi_estimate,
    ppi_pp_estimate,
    sada_estimate,
    solve_weighted,
)
import sada.estimators
import sada.models
from sada.inference import run_method


def mean_dataset(rng, N=200, n=60, theta=0.5, perfect_first=False):
    y = theta + rng.standard_normal(N)
    yhat1 = y.copy() if perfect_first else 0.6 * y + 0.5 * rng.standard_normal(N)
    yhat2 = rng.standard_normal(N)
    return (
        Dataset.from_arrays(np.ones((N, 1)), y[:n], np.column_stack([yhat1, yhat2])),
        y,
    )


# --- naive ---

def test_naive_mean_is_label_average():
    ds = Dataset.from_arrays(np.ones((5, 1)), [1.0, 2.0, 3.0], np.zeros((5, 1)) + 0.3)
    assert abs(naive_estimate(ds, mean_model()).theta_hat[0] - 2.0) < 1e-12


def test_naive_single_label():
    ds = Dataset.from_arrays(np.ones((3, 1)), [7.0], np.ones((3, 1)))
    assert abs(naive_estimate(ds, mean_model()).theta_hat[0] - 7.0) < 1e-12


def test_naive_ols_matches_least_squares():
    rng = np.random.default_rng(0)
    X = np.column_stack([np.ones(30), rng.standard_normal(30)])
    y = X @ np.array([1.0, -0.5]) + rng.standard_normal(30)
    ds = Dataset.from_arrays(X, y[:20], rng.standard_normal((30, 1)))
    expected = np.linalg.lstsq(X[:20], y[:20], rcond=None)[0]
    assert np.allclose(naive_estimate(ds, ols_model(2)).theta_hat, expected, atol=1e-11)


# --- PPI ---

def test_ppi_mean_display():
    # y_L=(1,3), yhat_L=(2,2), yhat_U=(4,6) -> 2 + 5 - 2 = 5
    ds = Dataset.from_arrays(
        np.ones((4, 1)), [1.0, 3.0], np.array([2.0, 2.0, 4.0, 6.0])[:, None]
    )
    assert abs(ppi_estimate(ds, mean_model(), 1).theta_hat[0] - 5.0) < 1e-12


def test_ppi_perfect_prediction_telescopes_to_unlabeled_mean():
    # ybar_L + mean_U(yhat) - mean_L(yhat) collapses to mean_U(y) when yhat == y
    rng = np.random.default_rng(1)
    ds, y = mean_dataset(rng, perfect_first=True)
    assert abs(ppi_estimate(ds, mean_model(), 1).theta_hat[0] - y[ds.n:].mean()) < 1e-12


def test_ppi_constant_prediction_equals_naive():
    ds = Dataset.from_arrays(np.ones((6, 1)), [1.0, 2.0], np.full((6, 1), 4.0))
    naive = naive_estimate(ds, mean_model()).theta_hat[0]
    assert abs(ppi_estimate(ds, mean_model(), 1).theta_hat[0] - naive) < 1e-12


def test_ppi_column_index_checked():
    rng = np.random.default_rng(2)
    ds, _ = mean_dataset(rng)
    with pytest.raises(ValueError):
        ppi_estimate(ds, mean_model(), 3)


# --- PPI++ ---

def test_ppi_pp_equals_sada_for_single_prediction():
    rng = np.random.default_rng(3)
    for _ in range(10):
        y = 0.5 + rng.standard_normal(100)
        yhat = 0.7 * y + 0.7 * rng.standard_normal(100)
        ds = Dataset.from_arrays(np.ones((100, 1)), y[:30], yhat[:, None])
        a = sada_estimate(ds, mean_model()).theta_hat[0]
        b = ppi_pp_estimate(ds, mean_model(), 1).theta_hat[0]
        assert abs(a - b) <= 1e-10


def test_ppi_pp_uncorrelated_prediction_shrinks_to_naive():
    rng = np.random.default_rng(4)
    omegas, gaps = [], []
    for _ in range(200):
        ds, _ = mean_dataset(rng)  # column 2 is pure noise
        rep = ppi_pp_estimate(ds, mean_model(), 2)
        omegas.append(rep.diagnostics["omega"])
        gaps.append(rep.theta_hat[0] - naive_estimate(ds, mean_model()).theta_hat[0])
    assert abs(np.mean(omegas)) < 0.05
    assert abs(np.mean(gaps)) < 0.01


def test_ppi_pp_matches_grid_search_on_trace_objective():
    # 1-D grid oracle over omega in [-2, 2], step 1e-4, on the estimated
    # asymptotic-variance trace; moments recomputed here from the raw formulas
    rng = np.random.default_rng(5)
    N, n = 40, 15
    X = np.column_stack([np.ones(N), rng.standard_normal(N)])
    theta_true = np.array([1.0, 0.5])
    y = X @ theta_true + rng.standard_normal(N)
    yhat = 0.8 * y + 0.3 * rng.standard_normal(N)
    ds = Dataset.from_arrays(X, y[:n], yhat[:, None])
    model = ols_model(2)

    rep = ppi_pp_estimate(ds, model, 1)
    omega_hat = rep.diagnostics["omega"]

    pilot = np.linalg.lstsq(X[:n], y[:n], rcond=None)[0]
    S_all = (yhat - X @ pilot)[:, None] * X
    s_lab = (y[:n] - X[:n] @ pilot)[:, None] * X[:n]
    S_c = S_all - S_all.mean(axis=0)
    s_c = s_lab - s_lab.mean(axis=0)
    V = S_c.T @ S_c / N
    V_reg = V + 1e-8 * np.trace(V) / 2 * np.eye(2)
    C = S_c[:n].T @ s_c / n
    H = -(X[:n].T @ X[:n]) / n
    Hinv = np.linalg.inv(H)
    a = N / (n * (N - n)) * np.trace(Hinv @ V_reg @ Hinv)
    b = 2.0 / n * np.trace(Hinv @ C @ Hinv)

    grid = np.arange(-2.0, 2.0 + 1e-9, 1e-4)
    objective = a * grid**2 - b * grid
    best = grid[np.argmin(objective)]
    assert abs(omega_hat - best) <= 1e-4
    assert a * omega_hat**2 - b * omega_hat <= objective.min() + 1e-8


# --- SADA ---

def test_sada_all_constant_predictions_falls_back_to_naive():
    ds = Dataset.from_arrays(
        np.ones((8, 1)), [1.0, 2.0, 3.0], np.column_stack([np.full(8, 2.0), np.full(8, -1.0)])
    )
    rep = sada_estimate(ds, mean_model())
    assert "weight_fallback" in rep.diagnostics
    assert abs(rep.theta_hat[0] - naive_estimate(ds, mean_model()).theta_hat[0]) < 1e-12
    assert not rep.weights.any()


def test_sada_population_weights_perfect_prediction_gives_full_mean():
    # with the exact optimal weights (N-n)/N * (1, 0), the estimator is the
    # all-N average of the first prediction column
    rng = np.random.default_rng(6)
    ds, y = mean_dataset(rng, perfect_first=True)
    W = np.array([[(ds.N - ds.n) / ds.N], [0.0]])
    theta, _ = solve_weighted(ds, mean_model(), W)
    assert abs(theta[0] - ds.predictions[:, 0].mean()) < 1e-12


def test_sada_matches_two_dimensional_grid_search():
    # fixed 10-row dataset; 2-D grid oracle on the plug-in variance quadratic
    yhat1 = [1.0, 1.5, 2.5, 1.0, 2.0, 0.5, 1.5, 2.2, 0.9, 1.7]
    yhat2 = [0.2, -0.3, 0.4, 0.1, -0.2, 0.3, -0.4, 0.2, -0.1, 0.0]
    y_lab = [0.8, 1.6, 2.4, 1.2]
    ds = Dataset.from_arrays(
        np.ones((10, 1)), np.array(y_lab), np.column_stack([yhat1, yhat2])
    )
    rep = sada_estimate(ds, mean_model())
    w_hat = rep.weights.ravel()

    preds_c = ds.predictions - ds.predictions.mean(axis=0)
    y_c = ds.labels - ds.labels.mean()
    V = preds_c.T @ preds_c / ds.N
    c = preds_c[: ds.n].T @ y_c / ds.n
    A = ds.N / (ds.n * (ds.N - ds.n)) * V
    axis = np.arange(-2.0, 2.0 + 1e-9, 2e-3)
    W1, W2 = np.meshgrid(axis, axis, indexing="ij")
    obj = (
        A[0, 0] * W1**2 + A[1, 1] * W2**2 + 2 * A[0, 1] * W1 * W2
        - 2.0 / ds.n * (c[0] * W1 + c[1] * W2)
    )
    flat = np.argmin(obj)
    w_grid = np.array([W1.ravel()[flat], W2.ravel()[flat]])

    def objective(w):
        return float(w @ A @ w - 2.0 / ds.n * w @ c)

    assert objective(w_hat) <= obj.ravel()[flat] + 1e-8
    assert np.max(np.abs(w_hat - w_grid)) <= 2e-3
    theta_grid, _ = solve_weighted(ds, mean_model(), w_grid)
    assert abs(theta_grid[0] - rep.theta_hat[0]) < 5e-3


def test_sada_projection_form():
    # theta_sada = theta_nv + mean_N(yhat'beta) - mean_L(yhat'beta) with the
    # unscaled projection coefficient beta = weights / ((N-n)/N)
    rng = np.random.default_rng(7)
    ds, _ = mean_dataset(rng)
    rep = sada_estimate(ds, mean_model())
    beta = rep.weights.ravel() / rep.diagnostics["weight_scale"]
    nv = naive_estimate(ds, mean_model()).theta_hat[0]
    proj = nv + (ds.predictions @ beta).mean() - (ds.predictions[: ds.n] @ beta).mean()
    assert abs(rep.theta_hat[0] - proj) <= 1e-12


# --- oracle ---

def test_oracle_mean_is_full_average():
    rng = np.random.default_rng(9)
    ds, y = mean_dataset(rng)
    assert abs(oracle_estimate(ds, y, mean_model()).theta_hat[0] - y.mean()) < 1e-12


def test_oracle_ols_full_sample_fit():
    rng = np.random.default_rng(10)
    X = np.column_stack([np.ones(40), rng.standard_normal(40)])
    y = X @ np.array([0.5, 1.0]) + rng.standard_normal(40)
    ds = Dataset.from_arrays(X, y[:10], rng.standard_normal((40, 1)))
    expected = np.linalg.lstsq(X, y, rcond=None)[0]
    assert np.allclose(oracle_estimate(ds, y, ols_model(2)).theta_hat, expected, atol=1e-11)


def test_oracle_on_duplicated_labeled_rows_equals_naive():
    rng = np.random.default_rng(11)
    n = 5
    X_lab = rng.standard_normal((n, 1))
    y_lab = rng.standard_normal(n)
    ds = Dataset.from_arrays(
        np.vstack([X_lab, X_lab]), y_lab, rng.standard_normal((2 * n, 1))
    )
    truth = np.concatenate([y_lab, y_lab])
    a = oracle_estimate(ds, truth, mean_model()).theta_hat[0]
    b = naive_estimate(ds, mean_model()).theta_hat[0]
    assert abs(a - b) < 1e-12


# --- family consistency and symmetries ---

def test_weighted_solver_reduces_to_naive_and_ppi():
    rng = np.random.default_rng(12)
    y = 0.5 + rng.standard_normal(50)
    yhat = 0.5 * y + rng.standard_normal(50)
    ds = Dataset.from_arrays(np.ones((50, 1)), y[:15], yhat[:, None])
    m = mean_model()
    theta0, _ = solve_weighted(ds, m, np.zeros((1, 1)))
    assert abs(theta0[0] - naive_estimate(ds, m).theta_hat[0]) <= 1e-10
    theta1, _ = solve_weighted(ds, m, np.eye(1))
    assert abs(theta1[0] - ppi_estimate(ds, m, 1).theta_hat[0]) <= 1e-10


def test_translation_equivariance_of_all_estimators():
    rng = np.random.default_rng(13)
    ds, y = mean_dataset(rng)
    c = 11.25
    shifted = Dataset.from_arrays(ds.features, ds.labels + c, ds.predictions + c)
    m = mean_model()
    pairs = [
        (naive_estimate(ds, m), naive_estimate(shifted, m)),
        (ppi_estimate(ds, m, 1), ppi_estimate(shifted, m, 1)),
        (ppi_pp_estimate(ds, m, 1), ppi_pp_estimate(shifted, m, 1)),
        (sada_estimate(ds, m), sada_estimate(shifted, m)),
        (oracle_estimate(ds, y, m), oracle_estimate(shifted, y + c, m)),
    ]
    for base, moved in pairs:
        assert abs(moved.theta_hat[0] - base.theta_hat[0] - c) < 1e-9, base.method


def test_sada_invariant_to_prediction_column_order():
    rng = np.random.default_rng(14)
    ds, _ = mean_dataset(rng)
    swapped = Dataset.from_arrays(ds.features, ds.labels, ds.predictions[:, ::-1])
    a = sada_estimate(ds, mean_model()).theta_hat[0]
    b = sada_estimate(swapped, mean_model()).theta_hat[0]
    assert abs(a - b) <= 1e-10


def test_report_rejects_non_finite_estimate():
    with pytest.raises(ValueError):
        EstimateReport(theta_hat=np.array([np.nan]), method="naive")


# --- which prediction columns a per-column method touches ---

def ols_dataset(rng, N=240, n=80, K=3):
    X = np.column_stack([np.ones(N), rng.standard_normal(N)])
    y = X @ np.array([0.5, -1.0]) + rng.standard_normal(N)
    preds = np.column_stack([(1.0 - 0.3 * k) * y + (0.3 + 0.4 * k) * rng.standard_normal(N)
                             for k in range(K)])
    return Dataset.from_arrays(X, y[:n], preds)


def column_recording(model, ds):
    """Wrap ``model`` so every call records which prediction column its y came from."""
    touched = set()

    def record(y):
        for k in range(ds.K):
            col = ds.predictions[:, k]
            if any(np.array_equal(y, part) for part in (col, col[: ds.n], col[ds.n:])):
                touched.add(k + 1)

    def score(x, y, theta):
        record(y)
        return model.score(x, y, theta)

    def jacobian(x, y, theta):
        record(y)
        return model.jacobian(x, y, theta)

    return ScoreModel(p=model.p, score=score, jacobian=jacobian, name=model.name), touched


@pytest.mark.parametrize("make_model", [mean_model, lambda: ols_model(2)])
@pytest.mark.parametrize("estimator", [ppi_estimate, ppi_pp_estimate])
def test_per_column_method_never_scores_another_column(make_model, estimator):
    ds = ols_dataset(np.random.default_rng(15))
    for k in range(1, ds.K + 1):
        model, touched = column_recording(make_model(), ds)
        attach_inference(estimator(ds, model, k), ds, model)
        assert touched == {k}


@pytest.mark.parametrize("make_model", [mean_model, lambda: ols_model(2)])
def test_permuting_prediction_columns_permutes_per_column_methods(make_model):
    ds = ols_dataset(np.random.default_rng(16))
    perm = [2, 0, 1]  # column j + 1 of the permuted data is column perm[j] + 1 of ds
    permuted = Dataset.from_arrays(ds.features, ds.labels, ds.predictions[:, perm])
    model = make_model()
    pairs = [("sada", "sada")]
    for j, src in enumerate(perm):
        pairs += [(f"ppi:{j + 1}", f"ppi:{src + 1}"), (f"ppi_pp:{j + 1}", f"ppi_pp:{src + 1}")]
    for token_permuted, token in pairs:
        a = run_method(permuted, model, token_permuted, level=0.95, ridge_scale=DEFAULT_RIDGE_SCALE)
        b = run_method(ds, model, token, level=0.95, ridge_scale=DEFAULT_RIDGE_SCALE)
        for got, want in ((a.theta_hat, b.theta_hat), (a.intervals.lower, b.intervals.lower),
                          (a.intervals.upper, b.intervals.upper)):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), token


# --- properties over many inputs ---

@settings(derandomize=True, deadline=None, max_examples=25, database=None)
@given(seed=st.integers(0, 2**32 - 1), c=st.floats(-1e3, 1e3))
def test_ols_intercept_is_shift_equivariant(seed, c):
    ds = ols_dataset(np.random.default_rng(seed))
    shifted = Dataset.from_arrays(ds.features, ds.labels + c, ds.predictions + c)
    model = ols_model(2)
    tokens = ["naive", "sada"] + [f"{m}:{k}" for m in ("ppi", "ppi_pp") for k in range(1, ds.K + 1)]
    for token in tokens:
        base = run_method(ds, model, token, level=0.95, ridge_scale=DEFAULT_RIDGE_SCALE)
        moved = run_method(shifted, model, token, level=0.95, ridge_scale=DEFAULT_RIDGE_SCALE)
        want = base.theta_hat + np.array([c, 0.0])
        assert np.max(np.abs(moved.theta_hat - want)) <= 1e-9 * (1.0 + abs(c)), token
        gap = np.max(np.abs(moved.covariance - base.covariance))
        assert gap <= 1e-9 * np.max(np.abs(base.covariance)), token


def compare_tokens(K):
    return ["naive", "sada"] + [f"{m}:{k}" for m in ("ppi", "ppi_pp") for k in range(1, K + 1)]


@pytest.mark.parametrize("c", [1e-8, 1e8])
@pytest.mark.parametrize("make_model", [mean_model, lambda: ols_model(2)])
def test_every_method_is_equivariant_to_the_units_of_y(make_model, c):
    # scaling y and every yhat by c scales theta_hat by c and the covariance by c^2
    model = make_model()
    for seed in range(4):
        ds = ols_dataset(np.random.default_rng(100 + seed))
        scaled = Dataset.from_arrays(ds.features, c * ds.labels, c * ds.predictions)
        for token in compare_tokens(ds.K):
            base = run_method(ds, model, token, level=0.95, ridge_scale=DEFAULT_RIDGE_SCALE)
            moved = run_method(scaled, model, token, level=0.95, ridge_scale=DEFAULT_RIDGE_SCALE)
            for got, want in ((moved.theta_hat / c, base.theta_hat),
                              (moved.covariance / c**2, base.covariance)):
                assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want)), (seed, token)


# --- the closed-form path of the built-in models ---

@pytest.mark.parametrize("make_model", [mean_model, lambda: ols_model(2)])
def test_closed_form_matches_newton(make_model):
    model = make_model()
    newton = dataclasses.replace(model, design=None)
    ds = ols_dataset(np.random.default_rng(17))
    for token in compare_tokens(ds.K):
        a = run_method(ds, model, token, level=0.95, ridge_scale=DEFAULT_RIDGE_SCALE)
        b = run_method(ds, newton, token, level=0.95, ridge_scale=DEFAULT_RIDGE_SCALE)
        for got, want in ((a.theta_hat, b.theta_hat), (a.covariance, b.covariance),
                          (a.intervals.lower, b.intervals.lower),
                          (a.intervals.upper, b.intervals.upper)):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), token


@pytest.mark.parametrize("make_model", [mean_model, lambda: ols_model(2)])
def test_newton_does_not_depend_on_the_units_of_y(make_model):
    # at y ~ 2.5e8 the residual never gets below an absolute tolerance
    rng = np.random.default_rng(20)
    N, n = 400, 120
    X = np.column_stack([np.ones(N), rng.standard_normal(N)])
    y = 2.5e8 + 1e6 * (X[:, 1] + rng.standard_normal(N))
    preds = np.column_stack([y + 1e6 * rng.standard_normal(N), y + 3e6 * rng.standard_normal(N)])
    ds = Dataset.from_arrays(X, y[:n], preds)
    model = make_model()
    newton = dataclasses.replace(model, design=None)
    for token in ("naive", "ppi:1", "ppi_pp:1", "sada"):
        a = run_method(ds, model, token, level=0.95, ridge_scale=DEFAULT_RIDGE_SCALE)
        b = run_method(ds, newton, token, level=0.95, ridge_scale=DEFAULT_RIDGE_SCALE)
        for got, want in ((b.theta_hat, a.theta_hat), (b.covariance, a.covariance)):
            assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want)), token


def test_newton_never_builds_the_stacked_matrix():
    rng = np.random.default_rng(23)
    N, n, K, d = 200_000, 20_000, 5, 3
    X = np.column_stack([np.ones(N), rng.standard_normal((N, d - 1))])
    y = X @ np.array([0.5, -1.0, 2.0]) + rng.standard_normal(N)
    ds = Dataset.from_arrays(X, y[:n], y[:, None] + rng.standard_normal((N, K)))
    model = ols_model(d)
    report = sada_estimate(ds, model)
    newton = dataclasses.replace(model, design=None)
    tracemalloc.start()
    try:
        theta, _ = solve_weighted(ds, newton, report.weights)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * N * K * d * 8  # half of one (N, K*p) float64 array
    assert np.max(np.abs(theta - report.theta_hat)) <= 1e-12 * np.max(np.abs(report.theta_hat))

def test_built_in_models_never_reach_newton(monkeypatch):
    def newton(*args, **kwargs):
        raise AssertionError("a built-in model reached solve_estimating_equation")

    monkeypatch.setattr(sada.models, "solve_estimating_equation", newton)
    monkeypatch.setattr(sada.estimators, "solve_estimating_equation", newton)
    rng = np.random.default_rng(18)
    ds = ols_dataset(rng)
    truth = np.concatenate([ds.labels, rng.standard_normal(ds.N - ds.n)])
    for model in (mean_model(), ols_model(2)):
        for token in compare_tokens(ds.K) + ["oracle"]:
            report = run_method(ds, model, token, level=0.95, ridge_scale=DEFAULT_RIDGE_SCALE, truth=truth)
            assert report.diagnostics["solver_iterations"] == 1, token


# --- a nonlinear custom model keeps the Newton path ---

def logistic_model(d):
    """Logistic regression: s = x (y - sigmoid(x'theta)); no design, so Newton solves it."""

    def score(x, y, theta):
        x = np.asarray(x, dtype=float)
        return (np.asarray(y, dtype=float) - 1.0 / (1.0 + np.exp(-(x @ theta))))[..., None] * x

    def jacobian(x, y, theta):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        mu = 1.0 / (1.0 + np.exp(-(x @ theta)))
        return -(x.T * (mu * (1.0 - mu))) @ x / x.shape[0]

    return ScoreModel(p=d, score=score, jacobian=jacobian, name="logistic")


def logistic_dataset(rng, N=600, n=200):
    X = np.column_stack([np.ones(N), rng.standard_normal(N)])
    prob = 1.0 / (1.0 + np.exp(-(X @ np.array([-0.3, 1.2]))))
    y = (rng.random(N) < prob).astype(float)
    preds = np.column_stack([np.clip(prob + 0.1 * rng.standard_normal(N), 0.0, 1.0),
                             rng.random(N)])
    return Dataset.from_arrays(X, y[:n], preds)


def test_logistic_model_is_solved_by_newton():
    ds = logistic_dataset(np.random.default_rng(19))
    model = logistic_model(2)
    X, y = ds.features[: ds.n], ds.labels
    beta = np.zeros(2)
    for _ in range(30):  # iteratively reweighted least squares
        mu = 1.0 / (1.0 + np.exp(-(X @ beta)))
        beta = beta + np.linalg.solve((X.T * (mu * (1.0 - mu))) @ X, X.T @ (y - mu))
    naive = naive_estimate(ds, model)
    assert np.max(np.abs(naive.theta_hat - beta)) <= 1e-10 * np.max(np.abs(beta))
    for token in ("ppi:1", "ppi_pp:1", "sada"):
        report = run_method(ds, model, token, level=0.95, ridge_scale=DEFAULT_RIDGE_SCALE)
        assert np.all(np.isfinite(report.theta_hat)), token
        lower, upper = report.intervals.lower, report.intervals.upper
        assert np.all(np.isfinite(lower)) and np.all(np.isfinite(upper)), token
        assert np.all(lower <= report.theta_hat) and np.all(report.theta_hat <= upper), token


# --- degenerate inputs: a finite answer, or the documented error ---

DEGENERATE_CASES = [
    "constant_column", "all_constant", "duplicated_columns", "scaled_by_1e12", "scaled_by_1e-12",
    "exact_column", "n_is_3", "n_is_4", "n_is_5", "n_is_6", "one_unlabeled_row",
    "p_is_40_n_is_41", "p_is_40_n_is_80", "collinear_features", "nearly_collinear_features",
]


def degenerate_dataset(case, rng, N=200, n=60):
    """x = (1, N(0, 1), ...) and two prediction columns, shaped as ``case`` names.

    x has 40 columns for the p_is_40 cases, and a third column, twice the
    second (plus 1e-9 noise when nearly collinear), for the collinear ones.
    """
    n = {"n_is_3": 3, "n_is_4": 4, "n_is_5": 5, "n_is_6": 6, "one_unlabeled_row": N - 1,
         "p_is_40_n_is_41": 41, "p_is_40_n_is_80": 80}.get(case, n)
    d = 40 if case.startswith("p_is_40") else 2
    X = np.column_stack([np.ones(N), rng.standard_normal((N, d - 1))])
    y = X @ np.linspace(0.5, -1.0, d) + rng.standard_normal(N)
    good, noise = y + 0.5 * rng.standard_normal(N), rng.standard_normal(N)
    if case.endswith("collinear_features"):
        jitter = 1e-9 * rng.standard_normal(N) if case.startswith("nearly") else 0.0
        X = np.column_stack([X, 2.0 * X[:, 1] + jitter])
    preds = {
        "constant_column": [good, np.full(N, 2.0)],
        "all_constant": [np.full(N, 2.0), np.full(N, -1.0)],
        "duplicated_columns": [good, good],
        "scaled_by_1e12": [1e12 * good, 1e12 * noise],
        "scaled_by_1e-12": [1e-12 * good, 1e-12 * noise],
        "exact_column": [y, noise],
    }.get(case, [good, noise])
    return Dataset.from_arrays(X, y[:n], np.column_stack(preds))


@pytest.mark.parametrize("token", ["naive", "ppi:1", "ppi:2", "ppi_pp:1", "ppi_pp:2", "sada"])
@pytest.mark.parametrize("case", DEGENERATE_CASES)
@pytest.mark.parametrize("make_model", [lambda d: mean_model(), ols_model], ids=["mean", "ols"])
def test_degenerate_inputs_give_finite_estimates_and_intervals(make_model, case, token):
    ds = degenerate_dataset(case, np.random.default_rng(31))
    model = make_model(ds.d)
    if (
        # collinear x makes every Jacobian singular
        case.endswith("collinear_features") and model.p > 1
        # PPI's Jacobian is the gram of the unlabeled rows, of rank 1 here
        or case == "one_unlabeled_row" and model.p == 2 and token.startswith("ppi:")
    ):
        with pytest.raises(SingularJacobian):
            run_method(ds, model, token, level=0.95, ridge_scale=DEFAULT_RIDGE_SCALE)
        return
    report = run_method(ds, model, token, level=0.95, ridge_scale=DEFAULT_RIDGE_SCALE)
    assert np.all(np.isfinite(report.theta_hat))
    assert np.all(np.isfinite(report.intervals.lower)) and np.all(np.isfinite(report.intervals.upper))
