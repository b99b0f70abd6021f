import numpy as np
import pytest
from scipy import stats

import sada.simulate
from sada import (
    DEFAULT_RIDGE_SCALE,
    ConfigError,
    Dataset,
    SandwichParts,
    SyntheticConfig,
    SingularHessian,
    attach_inference,
    covariance_and_intervals,
    efficiency_curve,
    estimate_hessian,
    estimate_sigma_g,
    estimate_sigma_nv,
    generate_synthetic,
    mean_model,
    naive_estimate,
    ols_model,
    ppi_pp_estimate,
    sada_estimate,
    sandwich_parts,
    weighted_sigma,
)
from sada.inference import run_method

# Frozen from the independent direct-summation oracle on the 3-point OLS
# fixture X = [(1,0),(1,1),(1,2)], y = (1,2,2), theta = lstsq fit.
OLS3_X = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]])
OLS3_Y = np.array([1.0, 2.0, 2.0])
OLS3_H = np.array([[-1.0, -1.0], [-1.0, -5.0 / 3.0]])
OLS3_SIGMA_NV = np.array(
    [[0.05555555555555553, 0.05555555555555555], [0.05555555555555555, 0.07407407407407395]]
)

# Frozen from the loop + 2x2-inverse oracle on the 8-row mean-model fixture.
SG_YHAT = np.array([[0.5, 2.0], [1.5, 1.0], [2.5, 4.0], [3.5, 1.0],
                    [4.5, 3.0], [5.5, 2.0], [6.5, 5.0], [7.5, 0.0]])
SG_YLAB = np.array([1.0, 1.5, 3.5, 3.0])
SG_SIGMA_G = 0.3389364303178484


def ols3_dataset():
    return Dataset.from_arrays(OLS3_X, OLS3_Y[:2], np.zeros((3, 1)))


def test_hessian_mean_model_is_minus_one():
    ds = Dataset.from_arrays(np.ones((4, 1)), [1.0, 2.0], np.ones((4, 1)))
    H = estimate_hessian(ds, mean_model(), np.array([0.3]))
    assert np.allclose(H, [[-1.0]], atol=0)


def test_hessian_ols_is_minus_mean_outer():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((10, 2))
    ds = Dataset.from_arrays(X, rng.standard_normal(6), rng.standard_normal((10, 1)))
    expected = -(X[:6].T @ X[:6]) / 6
    assert np.allclose(estimate_hessian(ds, ols_model(2), np.zeros(2)), expected, atol=1e-14)


def test_hessian_three_point_fixture():
    ds = Dataset.from_arrays(OLS3_X, OLS3_Y[:2], np.zeros((3, 1)))
    H = estimate_hessian(ds, ols_model(2), np.zeros(2))
    expected = -(OLS3_X[:2].T @ OLS3_X[:2]) / 2
    assert np.allclose(H, expected, atol=1e-14)


def test_sigma_nv_mean_model_is_biased_variance():
    y = np.array([1.0, 2.0, 4.0, 5.0])
    ds = Dataset.from_arrays(np.ones((6, 1)), y, np.ones((6, 1)))
    theta = np.array([y.mean()])
    out = estimate_sigma_nv(ds, mean_model(), theta)
    assert abs(out[0, 0] - np.var(y)) < 1e-14


def test_sigma_nv_zero_residuals():
    ds = Dataset.from_arrays(np.ones((4, 1)), [2.0, 2.0], np.ones((4, 1)))
    out = estimate_sigma_nv(ds, mean_model(), np.array([2.0]))
    assert np.allclose(out, [[0.0]], atol=0)


def test_sigma_nv_three_point_fixture():
    # all 3 rows labeled is invalid, so extend with an unlabeled row
    X = np.vstack([OLS3_X, [1.0, 3.0]])
    ds = Dataset.from_arrays(X, OLS3_Y, np.zeros((4, 1)))
    theta = np.linalg.lstsq(OLS3_X, OLS3_Y, rcond=None)[0]
    out = estimate_sigma_nv(ds, ols_model(2), theta)
    assert np.allclose(out, OLS3_SIGMA_NV, atol=1e-12)
    H = estimate_hessian(ds, ols_model(2), theta)
    expected_H = -(X[:3].T @ X[:3]) / 3
    assert np.allclose(H, OLS3_H, atol=1e-12)
    assert np.allclose(H, expected_H, atol=1e-14)


def test_sigma_g_constant_predictions_is_zero():
    ds = Dataset.from_arrays(np.ones((6, 1)), [1.0, 2.0], np.full((6, 2), 3.0))
    out = estimate_sigma_g(ds, mean_model(), np.array([1.5]))
    assert np.allclose(out, 0.0, atol=1e-12)


def test_sigma_g_triple_product_fixture():
    ds = Dataset.from_arrays(np.ones((8, 1)), SG_YLAB, SG_YHAT)
    out = estimate_sigma_g(ds, mean_model(), np.array([2.25]), ridge_scale=0.0)
    assert abs(out[0, 0] - SG_SIGMA_G) < 1e-12


def test_sigma_g_approaches_sigma_nv_for_perfect_prediction():
    # population identity Sigma_g = Sigma_nv when some yhat == y; check a
    # single large sample
    rng = np.random.default_rng(1)
    N, n = 30000, 9000
    y = 0.5 + rng.standard_normal(N)
    ds = Dataset.from_arrays(
        np.ones((N, 1)), y[:n], np.column_stack([y, rng.standard_normal(N)])
    )
    theta = np.array([y[:n].mean()])
    sg = estimate_sigma_g(ds, mean_model(), theta)[0, 0]
    snv = estimate_sigma_nv(ds, mean_model(), theta)[0, 0]
    assert abs(sg / snv - 1.0) < 0.05


def test_interval_halfwidth_against_quantile_oracle():
    # p=1, H=-1, Sigma_opt=1, n=100, level 0.95 -> z_{0.975}/10
    parts = SandwichParts(
        H_hat=np.array([[-1.0]]),
        sigma_nv=np.array([[1.0]]),
        sigma_g=np.array([[0.0]]),
        n=100,
        N=200,
    )
    theta = np.array([0.0])
    omega, intervals, diag = covariance_and_intervals(parts, theta, n=100, level=0.95)
    assert np.allclose(omega, [[1.0]])
    half = (intervals.upper[0] - intervals.lower[0]) / 2
    assert abs(half - stats.norm.ppf(0.975) / 10.0) < 1e-7
    assert diag == {}


@pytest.mark.parametrize("level", [0.5, 0.8, 0.9, 0.95, 0.99, 0.999, 1 - 1e-6, 1 - 1e-9])
def test_halfwidth_is_the_normal_quantile_across_levels(level):
    # p=1, H=-1, Sigma_opt=1, n=1 -> the half-width is z_{1/2 + level/2} itself
    parts = SandwichParts(np.array([[-1.0]]), np.array([[1.0]]), np.array([[0.0]]), n=1, N=2)
    _, intervals, _ = covariance_and_intervals(parts, np.array([0.0]), n=1, level=level)
    expected = stats.norm.ppf(0.5 + level / 2.0)
    assert abs(intervals.upper[0] - expected) <= 1e-13 * expected
    assert intervals.lower[0] == -intervals.upper[0]


def test_perfect_gain_shrinks_halfwidth_by_root_n_over_N():
    # Sigma_g = Sigma_nv turns Sigma_opt into (n/N) Sigma_nv
    base = SandwichParts(np.array([[-1.0]]), np.array([[2.0]]), np.array([[0.0]]), n=60, N=200)
    gained = SandwichParts(np.array([[-1.0]]), np.array([[2.0]]), np.array([[2.0]]), n=60, N=200)
    theta = np.array([0.0])
    _, iv_base, _ = covariance_and_intervals(base, theta, 60)
    _, iv_gain, _ = covariance_and_intervals(gained, theta, 60)
    ratio = (iv_gain.upper[0] - iv_gain.lower[0]) / (iv_base.upper[0] - iv_base.lower[0])
    assert abs(ratio - np.sqrt(60 / 200)) < 1e-12


def test_estimate_always_inside_its_own_interval():
    rng = np.random.default_rng(2)
    for _ in range(5):
        y = rng.standard_normal(80)
        ds = Dataset.from_arrays(
            np.ones((80, 1)), y[:30], np.column_stack([0.5 * y + rng.standard_normal(80), rng.standard_normal(80)])
        )
        rep = attach_inference(sada_estimate(ds, mean_model()), ds, mean_model())
        assert rep.intervals.lower[0] <= rep.theta_hat[0] <= rep.intervals.upper[0]


def test_halfwidth_monotone_in_level_and_n():
    parts = SandwichParts(np.array([[-1.0]]), np.array([[1.0]]), np.array([[0.0]]), n=100, N=200)
    theta = np.array([0.0])
    widths = []
    for level in (0.8, 0.9, 0.95, 0.99):
        _, iv, _ = covariance_and_intervals(parts, theta, 100, level)
        widths.append(iv.upper[0] - iv.lower[0])
    assert all(a < b for a, b in zip(widths, widths[1:]))
    _, iv_n, _ = covariance_and_intervals(parts, theta, 400, 0.95)
    _, iv_base, _ = covariance_and_intervals(parts, theta, 100, 0.95)
    assert abs((iv_n.upper[0] - iv_n.lower[0]) / (iv_base.upper[0] - iv_base.lower[0]) - 0.5) < 1e-12


def test_negative_sigma_opt_diagonal_is_floored():
    parts = SandwichParts(np.array([[-1.0]]), np.array([[0.1]]), np.array([[1.0]]), n=10, N=20)
    omega, intervals, diag = covariance_and_intervals(parts, np.array([0.5]), 10)
    assert omega[0, 0] == 0.0
    assert diag["floored_components"] == [0]
    assert intervals.lower[0] == intervals.upper[0] == 0.5


def test_singular_hessian_raises():
    parts = SandwichParts(np.array([[0.0]]), np.array([[1.0]]), np.array([[0.0]]), n=10, N=20)
    with pytest.raises(SingularHessian):
        covariance_and_intervals(parts, np.array([0.0]), 10)


def test_sigma_opt_dominated_by_sigma_nv():
    # Thm-style PSD ordering on random datasets: min eig of (N-n)/N Sigma_g >= -1e-8
    rng = np.random.default_rng(3)
    for _ in range(25):
        N = int(rng.integers(20, 80))
        n = int(rng.integers(4, N - 4))
        K = int(rng.integers(1, 4))
        y = rng.standard_normal(N)
        preds = 0.5 * y[:, None] + rng.standard_normal((N, K))
        ds = Dataset.from_arrays(rng.standard_normal((N, 2)), y[:n], preds)
        theta = np.array([y[:n].mean()])
        parts = sandwich_parts(ds, mean_model(), theta)
        gap = parts.sigma_nv - parts.sigma_opt
        assert np.linalg.eigvalsh(parts.sigma_g).min() >= -1e-8
        assert np.linalg.eigvalsh(gap).min() >= -1e-8


def test_mean_model_omega_matches_variance_expression():
    # Omega == mean_L (y - theta)^2 - (N-n)/N * chat' Vhat^{-1} chat, the
    # mean-estimation variance expression with plug-in moments
    rng = np.random.default_rng(4)
    y = 0.5 + rng.standard_normal(100)
    preds = np.column_stack([0.7 * y + 0.5 * rng.standard_normal(100), rng.standard_normal(100)])
    ds = Dataset.from_arrays(np.ones((100, 1)), y[:40], preds)
    m = mean_model()
    rep = sada_estimate(ds, m, ridge_scale=0.0)
    theta = rep.theta_hat
    parts = sandwich_parts(ds, m, theta, ridge_scale=0.0)
    omega, _, _ = covariance_and_intervals(parts, theta, ds.n)

    preds_c = ds.predictions - ds.predictions.mean(axis=0)
    y_c = ds.labels - ds.labels.mean()
    V = preds_c.T @ preds_c / ds.N
    c = preds_c[: ds.n].T @ y_c / ds.n
    expected = float(np.mean((ds.labels - theta[0]) ** 2)) - 0.6 * float(c @ np.linalg.solve(V, c))
    assert abs(omega[0, 0] - expected) < 1e-10


def test_weighted_sigma_at_zero_weight_is_sigma_nv():
    rng = np.random.default_rng(5)
    y = rng.standard_normal(50)
    ds = Dataset.from_arrays(np.ones((50, 1)), y[:20], rng.standard_normal((50, 2)))
    theta = np.array([y[:20].mean()])
    out = weighted_sigma(ds, mean_model(), theta, np.zeros((2, 1)))
    assert np.array_equal(out, estimate_sigma_nv(ds, mean_model(), theta))


def test_attach_inference_every_method():
    rng = np.random.default_rng(6)
    y = 0.5 + rng.standard_normal(120)
    preds = np.column_stack([0.8 * y + 0.3 * rng.standard_normal(120), rng.standard_normal(120)])
    ds = Dataset.from_arrays(np.ones((120, 1)), y[:40], preds)
    m = mean_model()
    from sada import ppi_estimate, ppi_pp_estimate

    reports = [
        naive_estimate(ds, m),
        ppi_estimate(ds, m, 1),
        ppi_pp_estimate(ds, m, 1),
        sada_estimate(ds, m),
    ]
    widths = {}
    for rep in reports:
        full = attach_inference(rep, ds, m)
        assert full.covariance is not None and full.intervals is not None
        assert full.intervals.lower[0] <= full.theta_hat[0] <= full.intervals.upper[0]
        widths[rep.method] = full.intervals.upper[0] - full.intervals.lower[0]
    # the good first prediction makes SADA's interval no wider than naive's
    assert widths["sada"] <= widths["naive"] + 1e-12


def test_attach_inference_on_weight_fallback_gives_naive_width():
    # all-constant predictions: sada degrades to naive and its intervals
    # come from the zero-weight covariance
    ds = Dataset.from_arrays(
        np.ones((12, 1)), [1.0, 2.0, 3.0, 2.5],
        np.column_stack([np.full(12, 2.0), np.full(12, -1.0)]),
    )
    m = mean_model()
    fallback = attach_inference(sada_estimate(ds, m), ds, m)
    naive = attach_inference(naive_estimate(ds, m), ds, m)
    assert "weight_fallback" in fallback.diagnostics
    assert np.allclose(fallback.covariance, naive.covariance)
    assert np.allclose(fallback.intervals.lower, naive.intervals.lower)
    assert np.allclose(fallback.intervals.upper, naive.intervals.upper)


@pytest.mark.parametrize("shape", [(3, 2), (4, 1), (2,), (4,)])
def test_weighted_sigma_rejects_a_misshaped_weight_matrix(shape):
    rng = np.random.default_rng(17)
    X = np.column_stack([np.ones(40), rng.standard_normal(40)])
    ds = Dataset.from_arrays(X, rng.standard_normal(15), rng.standard_normal((40, 2)))
    with pytest.raises(ValueError, match="weight matrix shape"):
        weighted_sigma(ds, ols_model(2), np.zeros(2), np.ones(shape))


@pytest.mark.parametrize("ridge_scale", [-1.0, float("nan"), float("inf")])
def test_library_rejects_a_bad_ridge_scale(ridge_scale):
    # a negative ridge can make the regularised gram indefinite and the
    # interval zero-width; NaN and infinity used to fall back to naive
    ds, _ = generate_synthetic(SyntheticConfig(N=400, n=80), 0)
    model = mean_model()
    match = "ridge_scale must be a finite number >= 0"
    with pytest.raises(ConfigError, match=match):
        sada_estimate(ds, model, ridge_scale=ridge_scale)
    with pytest.raises(ConfigError, match=match):
        ppi_pp_estimate(ds, model, 1, ridge_scale=ridge_scale)
    with pytest.raises(ConfigError, match=match):
        attach_inference(sada_estimate(ds, model), ds, model, ridge_scale=ridge_scale)


@pytest.mark.parametrize("level", [0.0, 1.0, 1.5, float("nan")])
def test_library_rejects_a_level_outside_zero_one(monkeypatch, level):
    ds, _ = generate_synthetic(SyntheticConfig(N=400, n=80), 0)
    model = mean_model()
    match = r"level must be in \(0, 1\)"
    with pytest.raises(ConfigError, match=match):
        run_method(ds, model, "sada", level=level, ridge_scale=DEFAULT_RIDGE_SCALE)
    with pytest.raises(ConfigError, match=match):
        attach_inference(naive_estimate(ds, model), ds, model, level)

    monkeypatch.setattr(sada.simulate, "_run_one_rep", no_replicate)
    with pytest.raises(ConfigError, match=match):
        efficiency_curve(SyntheticConfig(reps=5, seed=1), [0.5], ["naive", "sada"], level=level)


def no_replicate(*args):
    raise AssertionError("a replicate ran")


@pytest.mark.parametrize("ridge_scale", [-1.0, float("nan")])
def test_studies_reject_a_bad_ridge_scale_before_any_replicate(monkeypatch, ridge_scale):
    monkeypatch.setattr(sada.simulate, "_run_one_rep", no_replicate)
    with pytest.raises(ConfigError, match="ridge_scale must be a finite number >= 0"):
        efficiency_curve(SyntheticConfig(reps=5, seed=1), [0.5], ["naive", "sada"], ridge_scale=ridge_scale)


def test_run_method_takes_level_and_ridge_scale_only_by_keyword():
    # a positional call past the token would bind values to the wrong options
    ds, _ = generate_synthetic(SyntheticConfig(N=400, n=80), 0)
    with pytest.raises(TypeError):
        run_method(ds, mean_model(), "sada", 0.95, DEFAULT_RIDGE_SCALE)
