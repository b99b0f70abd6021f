import dataclasses
import operator
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import sada.weighting
from sada import (
    DEFAULT_RIDGE_SCALE,
    Dataset,
    SingularGram,
    ZeroGram,
    estimate_general_weights,
    mean_model,
    moment_estimates,
    naive_estimate,
    ols_model,
    regularize_gram,
)
from sada.data import stacked_score_matrix
from sada.inference import run_method

from reference import estimate_mean_weights

# Frozen from the independent oracle (explicit loops + Cramer's rule) on the
# fixed 6-row dataset below: omega = (N-n)/N * Vhat^{-1} chat with
# Vhat = mean_N centered outer products, chat = mean_n centered cross products.
FIXED_YHAT1 = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
FIXED_YHAT2 = [2.0, 1.0, 3.0, 1.0, 2.0, 3.0]
FIXED_YLAB = [1.0, 2.0, 4.0]
FIXED_OMEGA = (0.09836065573770496, 0.4262295081967213)


def fixed_dataset():
    return Dataset.from_arrays(
        features=np.ones((6, 1)),
        labels=np.array(FIXED_YLAB),
        predictions=np.column_stack([FIXED_YHAT1, FIXED_YHAT2]),
    )


def mean_dataset(rng, N=200, n=60, yhat1=None, yhat2=None, theta=0.5):
    y = theta + rng.standard_normal(N)
    cols = [
        y if yhat1 == "truth" else rng.standard_normal(N),
        rng.standard_normal(N) if yhat2 is None else yhat2,
    ]
    return Dataset.from_arrays(np.ones((N, 1)), y[:n], np.column_stack(cols)), y


def test_fixed_dataset_matches_hand_solved_system():
    ds = fixed_dataset()
    w = estimate_mean_weights(ds, ridge_scale=0.0)
    assert np.allclose(w, FIXED_OMEGA, atol=1e-12)
    # in-test re-derivation of the oracle, kept alongside the frozen constants
    m1, m2 = np.mean(FIXED_YHAT1), np.mean(FIXED_YHAT2)
    ybar = np.mean(FIXED_YLAB)
    v11 = np.mean([(a - m1) ** 2 for a in FIXED_YHAT1])
    v22 = np.mean([(a - m2) ** 2 for a in FIXED_YHAT2])
    v12 = np.mean([(a - m1) * (b - m2) for a, b in zip(FIXED_YHAT1, FIXED_YHAT2)])
    c1 = np.mean([(FIXED_YHAT1[i] - m1) * (FIXED_YLAB[i] - ybar) for i in range(3)])
    c2 = np.mean([(FIXED_YHAT2[i] - m2) * (FIXED_YLAB[i] - ybar) for i in range(3)])
    det = v11 * v22 - v12 * v12
    oracle = 0.5 * np.array([(v22 * c1 - v12 * c2) / det, (v11 * c2 - v12 * c1) / det])
    assert np.allclose(oracle, FIXED_OMEGA, atol=1e-14)


def test_default_ridge_barely_moves_well_conditioned_weights():
    ds = fixed_dataset()
    assert np.allclose(estimate_mean_weights(ds), FIXED_OMEGA, atol=1e-6)


def test_perfect_first_prediction_gets_selected():
    # yhat1 == y exactly: population weight is (N-n)/N * (1, 0); check the
    # Monte Carlo mean of the plug-in
    rng = np.random.default_rng(10)
    total = np.zeros(2)
    reps = 400
    for _ in range(reps):
        ds, _ = mean_dataset(rng, yhat1="truth")
        total += estimate_mean_weights(ds)
    avg = total / reps
    assert abs(avg[0] - 0.7) < 0.03
    assert abs(avg[1]) < 0.03


def test_uncorrelated_predictions_get_zero_weight():
    rng = np.random.default_rng(11)
    total = np.zeros(2)
    reps = 400
    for _ in range(reps):
        ds, _ = mean_dataset(rng)  # both columns pure noise
        total += estimate_mean_weights(ds)
    assert np.all(np.abs(total / reps) < 0.03)


def test_general_weights_agree_with_mean_closed_form():
    rng = np.random.default_rng(12)
    ds, _ = mean_dataset(rng, yhat1="truth")
    m = mean_model()
    pilot = naive_estimate(ds, m).theta_hat
    w_general = estimate_general_weights(ds, m, pilot)
    factor = (ds.N - ds.n) / ds.N
    assert np.allclose(factor * w_general.ravel(), estimate_mean_weights(ds), atol=1e-12)


def test_general_weights_default_pilot_is_naive():
    rng = np.random.default_rng(13)
    ds, _ = mean_dataset(rng)
    m = mean_model()
    pilot = naive_estimate(ds, m).theta_hat
    assert np.allclose(
        estimate_general_weights(ds, m),
        estimate_general_weights(ds, m, pilot),
        atol=1e-14,
    )


def test_constant_column_gets_zero_block():
    rng = np.random.default_rng(14)
    ds, _ = mean_dataset(rng, yhat1="truth", yhat2=np.full(200, 3.25))
    w = estimate_general_weights(ds, mean_model())
    assert abs(w[1, 0]) < 1e-12
    assert abs(w[0, 0]) > 0.1


def test_perfect_single_prediction_weight_near_factor():
    # K=1, yhat == y: the factor-applied plug-in converges to (N-n)/N
    rng = np.random.default_rng(15)
    m = mean_model()
    reps, total = 500, 0.0
    for _ in range(reps):
        y = 0.5 + rng.standard_normal(200)
        ds = Dataset.from_arrays(np.ones((200, 1)), y[:60], y[:, None])
        total += 0.7 * float(estimate_general_weights(ds, m)[0, 0])
    assert abs(total / reps - 0.7) < 0.02


def test_regularize_identity():
    out = regularize_gram(np.eye(3), ridge_scale=1e-8)
    assert np.allclose(out, (1 + 1e-8) * np.eye(3), atol=1e-18)


def test_regularize_rank_deficient_spectrum():
    gram = np.array([[1.0, 1.0], [1.0, 1.0]])
    out = regularize_gram(gram, ridge_scale=1e-8)
    lam = 1e-8 * 2.0 / 2.0
    eigs = np.sort(np.linalg.eigvalsh(out))
    assert np.allclose(eigs, [lam, 2.0 + lam], atol=1e-15)


def test_regularize_zero_gram_raises():
    with pytest.raises(ZeroGram):
        regularize_gram(np.zeros((2, 2)))
    # and ZeroGram surfaces as SingularGram upstream
    with pytest.raises(SingularGram):
        regularize_gram(np.zeros((2, 2)))


def test_all_constant_predictions_raise_singular_gram():
    rng = np.random.default_rng(17)
    y = rng.standard_normal(50)
    ds = Dataset.from_arrays(
        np.ones((50, 1)), y[:20], np.column_stack([np.full(50, 1.0), np.full(50, -2.0)])
    )
    with pytest.raises(SingularGram):
        estimate_mean_weights(ds)


def test_scaling_a_column_rescales_its_weight():
    # multiplying column k by c multiplies omega_k by 1/c and leaves the
    # fitted combination invariant (ridge off, nondegenerate gram)
    rng = np.random.default_rng(18)
    ds, _ = mean_dataset(rng, yhat1="truth")
    w = estimate_mean_weights(ds, ridge_scale=0.0)
    c = 7.5
    scaled_preds = ds.predictions.copy()
    scaled_preds[:, 1] *= c
    ds2 = Dataset.from_arrays(ds.features, ds.labels, scaled_preds)
    w2 = estimate_mean_weights(ds2, ridge_scale=0.0)
    assert abs(w2[0] - w[0]) < 1e-10
    assert abs(w2[1] - w[1] / c) < 1e-10
    assert np.allclose(ds.predictions @ w, ds2.predictions @ w2, atol=1e-10)


def variance_quadratic(ds, w):
    """Plug-in variance of the weighted mean estimator at weights w."""
    preds_c = ds.predictions - ds.predictions.mean(axis=0)
    y_c = ds.labels - ds.labels.mean()
    V = preds_c.T @ preds_c / ds.N
    c = preds_c[: ds.n].T @ y_c / ds.n
    var_y = float(y_c @ y_c) / ds.n
    w = np.asarray(w, dtype=float)
    return (
        var_y / ds.n
        + ds.N / (ds.n * (ds.N - ds.n)) * float(w @ V @ w)
        - 2.0 / ds.n * float(w @ c)
    )


def test_duplicate_column_never_hurts_the_objective():
    rng = np.random.default_rng(19)
    ds, _ = mean_dataset(rng, yhat1="truth")
    w = estimate_mean_weights(ds, ridge_scale=0.0)
    base = variance_quadratic(ds, w)
    dup = Dataset.from_arrays(
        ds.features, ds.labels, np.column_stack([ds.predictions, ds.predictions[:, 0]])
    )
    w_dup = estimate_mean_weights(dup, ridge_scale=0.0)  # pseudo-solve path
    assert variance_quadratic(dup, w_dup) <= base + 1e-10


def test_single_column_weight_equals_ratio_form():
    rng = np.random.default_rng(20)
    y = 0.5 + rng.standard_normal(120)
    yhat = 0.8 * y + 0.4 * rng.standard_normal(120)
    ds = Dataset.from_arrays(np.ones((120, 1)), y[:40], yhat[:, None])
    w = estimate_mean_weights(ds, ridge_scale=0.0)
    cov = float(
        (ds.predictions[: ds.n, 0] - ds.predictions[:, 0].mean())
        @ (ds.labels - ds.labels.mean())
    ) / ds.n
    var = float(np.mean((ds.predictions[:, 0] - ds.predictions[:, 0].mean()) ** 2))
    assert abs(w[0] - (ds.N - ds.n) / ds.N * cov / var) < 1e-12


# --- moments accumulated in row chunks ---

def scaled_dataset(rng, N, n, scaled):
    """OLS-style data with K = 3 columns; ``scaled`` puts column 1 at 1e12 (offset 3e13) and column 2 at 1e-12."""
    X = np.column_stack([np.ones(N), rng.standard_normal((N, 2))])
    y = X @ np.array([0.5, -1.0, 2.0]) + rng.standard_normal(N)
    preds = np.column_stack([y + s * rng.standard_normal(N) for s in (0.5, 1.0, 2.0)])
    if scaled:
        preds[:, 1] = 1e12 * preds[:, 1] + 3e13
        preds[:, 2] *= 1e-12
    return Dataset.from_arrays(X, y[:n], preds)


def exact_moments(ds, model, theta):
    """Gram and cross of the stacked scores in exact arithmetic, centred at the exact means.

    Every float is an integer multiple of 2**-1074, so the sums and products
    are done on those integers and rounded once at the end.
    """
    def integers(rows, m):
        cols = [[num * (2**1074 // den) for num, den in map(float.as_integer_ratio, col)]
                for col in np.asarray(rows, dtype=float).T.tolist()]
        # m * (value - mean)
        return [[m * v - sum(col) for v in col] for col in cols]

    def moment(a, b, scale):
        return float(Fraction(sum(map(operator.mul, a, b)), scale * 4**1074))

    S = integers(stacked_score_matrix(model, ds.features, ds.predictions, theta), ds.N)
    s = integers(model.score(ds.features[: ds.n], ds.labels, theta), ds.n)
    gram = [[moment(a, b, ds.N**3) for b in S] for a in S]
    cross = [[moment(a[: ds.n], b, ds.N * ds.n**2) for b in s] for a in S]
    return np.array(gram), np.array(cross)


def scale_free(gram, cross, root):
    """Gram entries over sqrt(G_ii G_jj); cross rows over sqrt(G_ii), then over the largest entry."""
    cross = cross / root[:, None]
    return gram / np.outer(root, root), cross / np.max(np.abs(cross))


CHUNK_MODELS = {
    "mean": mean_model,
    "ols": lambda: ols_model(3),
    "ols_newton": lambda: dataclasses.replace(ols_model(3), design=None),
}


@pytest.mark.parametrize("scaled", [False, True])
@pytest.mark.parametrize("model_name", sorted(CHUNK_MODELS))
@pytest.mark.parametrize("shape", ["straddle", "last_row_unlabeled", "n_just_above_Kp"])
def test_moments_do_not_depend_on_the_chunk_size(monkeypatch, shape, model_name, scaled):
    model = CHUNK_MODELS[model_name]()
    # with chunks of 7 and 64 rows, n = 100 lies inside a chunk and past the first one
    N, n = {"straddle": (150, 100), "last_row_unlabeled": (150, 149),
            "n_just_above_Kp": (150, 3 * model.p + 1)}[shape]
    ds = scaled_dataset(np.random.default_rng(21), N, n, scaled)
    pilot = naive_estimate(ds, model).theta_hat
    gram, cross = exact_moments(ds, model, pilot)
    root = np.sqrt(np.diag(gram))
    gram, cross = scale_free(gram, cross, root)
    report = run_method(ds, model, "sada", level=0.95, ridge_scale=DEFAULT_RIDGE_SCALE)
    for chunk in (1, 7, 64, sada.weighting.CHUNK_ROWS):
        monkeypatch.setattr(sada.weighting, "CHUNK_ROWS", chunk)
        moments = moment_estimates(ds, model, pilot)
        gram_c, cross_c = scale_free(moments.gram, moments.cross, root)
        assert np.max(np.abs(gram_c - gram)) <= 1e-12, chunk
        assert np.max(np.abs(cross_c - cross)) <= 1e-12, chunk
        report_c = run_method(ds, model, "sada", level=0.95, ridge_scale=DEFAULT_RIDGE_SCALE)
        for got, want in ((report_c.theta_hat, report.theta_hat),
                          (report_c.covariance, report.covariance)):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), chunk


def test_moments_never_build_the_stacked_matrix():
    rng = np.random.default_rng(22)
    N, n, K, d = 200_000, 20_000, 5, 3
    X = np.column_stack([np.ones(N), rng.standard_normal((N, d - 1))])
    y = X @ np.array([0.5, -1.0, 2.0]) + rng.standard_normal(N)
    ds = Dataset.from_arrays(X, y[:n], y[:, None] + rng.standard_normal((N, K)))
    model = ols_model(d)
    theta = naive_estimate(ds, model).theta_hat
    tracemalloc.start()
    try:
        moment_estimates(ds, model, theta)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * N * K * d * 8  # half of one (N, K*p) float64 array
