import numpy as np
import pytest

from sada import (
    DEFAULT_RIDGE_SCALE,
    Dataset,
    EstimateReport,
    ScoreModel,
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
        a = run_method(permuted, model, token_permuted, 0.95, True, DEFAULT_RIDGE_SCALE)
        b = run_method(ds, model, token, 0.95, True, DEFAULT_RIDGE_SCALE)
        for got, want in ((a.theta_hat, b.theta_hat), (a.intervals.lower, b.intervals.lower),
                          (a.intervals.upper, b.intervals.upper)):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), token
