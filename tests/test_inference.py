import numpy as np
import pytest
from scipy import stats

import sada.simulate
from sada import (
    ConfigError,
    Dataset,
    EstimateReport,
    SyntheticConfig,
    SingularGram,
    SingularHessian,
    attach_inference,
    efficiency_curve,
    estimate_general_weights,
    generate_synthetic,
    mean_model,
    moment_estimates,
    naive_estimate,
    ols_model,
    sada_estimate,
    solve_weighted,
)
from sada.inference import _sandwich_intervals, _sigma, run_method
from sada.problem import Problem

import reference

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


def hessian(ds, model, theta):
    return Problem.of(ds, model).hessian(np.asarray(theta, dtype=float)[None])[0][0]


def sigma_nv(ds, model, theta):
    """The variance at W = 0, Cov_L(s): at the naive root, or wherever the
    labeled scores have mean zero, their second moment."""
    return _sigma(Problem.of(ds, model), np.asarray(theta, dtype=float)[None], None, ())[0]


def sigma_g(ds, model, theta):
    out, bad = reference.sigma_g(Problem.of(ds, model), np.asarray(theta, dtype=float)[None])
    assert not bad[0]
    return out[0]


def sandwich(H, sigma, n, theta, level=0.95):
    """Omega, lower and upper of one p = 1 replicate with scalar H and Sigma,
    through the batched assembly."""
    omega, lower, upper = _sandwich_intervals(
        np.array([[[1.0 / H]]]), np.array([[[sigma]]]), np.array([[theta]]), n, level
    )
    return omega[0, 0, 0], lower[0, 0], upper[0, 0]


def test_hessian_mean_model_is_minus_one():
    ds = Dataset.from_arrays(np.ones((4, 1)), [1.0, 2.0], np.ones((4, 1)))
    H = hessian(ds, mean_model(), np.array([0.3]))
    assert np.allclose(H, [[-1.0]], atol=0)


def test_hessian_ols_is_minus_mean_outer():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((10, 2))
    ds = Dataset.from_arrays(X, rng.standard_normal(6), rng.standard_normal((10, 1)))
    expected = -(X[:6].T @ X[:6]) / 6
    assert np.allclose(hessian(ds, ols_model(2), np.zeros(2)), expected, atol=1e-14)


def test_hessian_three_point_fixture():
    ds = Dataset.from_arrays(OLS3_X, OLS3_Y[:2], np.zeros((3, 1)))
    H = hessian(ds, ols_model(2), np.zeros(2))
    expected = -(OLS3_X[:2].T @ OLS3_X[:2]) / 2
    assert np.allclose(H, expected, atol=1e-14)


def test_sigma_nv_mean_model_is_biased_variance():
    y = np.array([1.0, 2.0, 4.0, 5.0])
    ds = Dataset.from_arrays(np.ones((6, 1)), y, np.ones((6, 1)))
    theta = np.array([y.mean()])
    out = sigma_nv(ds, mean_model(), theta)
    assert abs(out[0, 0] - np.var(y)) < 1e-14


def test_sigma_nv_zero_residuals():
    ds = Dataset.from_arrays(np.ones((4, 1)), [2.0, 2.0], np.ones((4, 1)))
    out = sigma_nv(ds, mean_model(), np.array([2.0]))
    assert np.allclose(out, [[0.0]], atol=0)


def test_sigma_nv_three_point_fixture():
    # all 3 rows labeled is invalid, so extend with an unlabeled row
    X = np.vstack([OLS3_X, [1.0, 3.0]])
    ds = Dataset.from_arrays(X, OLS3_Y, np.zeros((4, 1)))
    theta = np.linalg.lstsq(OLS3_X, OLS3_Y, rcond=None)[0]
    out = sigma_nv(ds, ols_model(2), theta)
    assert np.allclose(out, OLS3_SIGMA_NV, atol=1e-12)
    H = hessian(ds, ols_model(2), theta)
    expected_H = -(X[:3].T @ X[:3]) / 3
    assert np.allclose(H, OLS3_H, atol=1e-12)
    assert np.allclose(H, expected_H, atol=1e-14)


def test_sigma_g_constant_predictions_is_zero():
    ds = Dataset.from_arrays(np.ones((6, 1)), [1.0, 2.0], np.full((6, 2), 3.0))
    out = sigma_g(ds, mean_model(), np.array([1.5]))
    assert np.allclose(out, 0.0, atol=1e-12)


def test_sigma_g_triple_product_fixture(no_ridge):
    ds = Dataset.from_arrays(np.ones((8, 1)), SG_YLAB, SG_YHAT)
    out = sigma_g(ds, mean_model(), np.array([2.25]))
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
    sg = sigma_g(ds, mean_model(), theta)[0, 0]
    snv = sigma_nv(ds, mean_model(), theta)[0, 0]
    assert abs(sg / snv - 1.0) < 0.05


def test_interval_halfwidth_against_quantile_oracle():
    # p=1, H=-1, Sigma=1, n=100, level 0.95 -> z_{0.975}/10
    omega, lower, upper = sandwich(H=-1.0, sigma=1.0, n=100, theta=0.0)
    assert np.allclose(omega, 1.0)
    half = (upper - lower) / 2
    assert abs(half - stats.norm.ppf(0.975) / 10.0) < 1e-7


@pytest.mark.parametrize("level", [0.5, 0.8, 0.9, 0.95, 0.99, 0.999, 1 - 1e-6, 1 - 1e-9])
def test_halfwidth_is_the_normal_quantile_across_levels(level):
    # p=1, H=-1, Sigma=1, n=1 -> the half-width is z_{1/2 + level/2} itself
    _, lower, upper = sandwich(-1.0, 1.0, n=1, theta=0.0, level=level)
    expected = stats.norm.ppf(0.5 + level / 2.0)
    assert abs(upper - expected) <= 1e-13 * expected
    assert lower == -upper


def test_perfect_gain_shrinks_halfwidth_by_root_n_over_N():
    # an exact column weighted by (N-n)/N leaves Cov_L = (n/N)^2 Sigma_nv and
    # n/(N-n) Cov_U = n(N-n)/N^2 Sigma_nv, which sum to (n/N) Sigma_nv
    n, N = 60, 200
    _, lo_base, up_base = sandwich(-1.0, 2.0, n=n, theta=0.0)
    _, lo_gain, up_gain = sandwich(-1.0, ((n / N) ** 2 + n * (N - n) / N**2) * 2.0, n=n, theta=0.0)
    ratio = (up_gain - lo_gain) / (up_base - lo_base)
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
    widths = []
    for level in (0.8, 0.9, 0.95, 0.99):
        _, lower, upper = sandwich(-1.0, 1.0, n=100, theta=0.0, level=level)
        widths.append(upper - lower)
    assert all(a < b for a, b in zip(widths, widths[1:]))
    # the same Sigma with 4x the labeled rows
    _, lo_n, up_n = sandwich(-1.0, 1.0, n=400, theta=0.0)
    _, lo_base, up_base = sandwich(-1.0, 1.0, n=100, theta=0.0)
    assert abs((up_n - lo_n) / (up_base - lo_base) - 0.5) < 1e-12


def test_singular_hessian_raises():
    # the labeled rows have a zero second feature, so H = -Z_L'Z_L/n is singular
    X = np.column_stack([np.ones(20), np.r_[np.zeros(10), np.arange(10.0)]])
    ds = Dataset.from_arrays(X, np.ones(10), np.zeros((20, 1)))
    assert not Problem.of(ds, ols_model(2)).hessian(np.zeros((1, 2)))[2][0]
    with pytest.raises(SingularHessian):
        attach_inference(EstimateReport(np.zeros(2), "naive"), ds, ols_model(2))


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
        gain = sigma_g(ds, mean_model(), theta)
        snv = sigma_nv(ds, mean_model(), theta)
        sigma_opt = snv - (N - n) / N * gain
        gap = snv - sigma_opt
        assert np.linalg.eigvalsh(gain).min() >= -1e-8
        assert np.linalg.eigvalsh(gap).min() >= -1e-8


def test_mean_model_omega_matches_variance_expression(no_ridge):
    # for the mean, H = -1 and s - w'S = (y - theta) - w'(yhat - theta), so
    # Omega == var_L(y - w'yhat) + n/(N-n) var_U(w'yhat), the shift by theta
    # dropping out of both variances
    rng = np.random.default_rng(4)
    y = 0.5 + rng.standard_normal(100)
    preds = np.column_stack([0.7 * y + 0.5 * rng.standard_normal(100), rng.standard_normal(100)])
    ds = Dataset.from_arrays(np.ones((100, 1)), y[:40], preds)
    m = mean_model()
    rep = sada_estimate(ds, m)
    omega = attach_inference(rep, ds, m).covariance

    w = np.asarray(rep.weights).ravel()
    combined = ds.predictions @ w
    n, N = ds.n, ds.N
    expected = float(np.var(ds.labels - combined[:n]) + n / (N - n) * np.var(combined[n:]))
    assert abs(omega[0, 0] - expected) < 1e-10


def test_ols_covariance_matches_a_per_row_oracle():
    # at a fixed W, Omega = Hinv [Cov_L(s - W'S) + n/(N-n) Cov_U(W'S)] Hinv',
    # with every score built one row and one column at a time
    rng = np.random.default_rng(22)
    N, n, K, p = 150, 40, 2, 2
    X = np.column_stack([np.ones(N), rng.standard_normal(N)])
    y = X @ np.array([0.5, -1.0]) + rng.standard_normal(N)
    preds = np.column_stack([y + 0.5 * rng.standard_normal(N), rng.standard_normal(N)])
    ds = Dataset.from_arrays(X, y[:n], preds)
    model = ols_model(p)
    W = rng.standard_normal((K * p, p))
    theta, _ = solve_weighted(ds, model, W)
    cov = attach_inference(EstimateReport(theta, "ppi", weights=W), ds, model).covariance

    combined = np.array([
        sum(W[k * p:(k + 1) * p].T @ (X[i] * (preds[i, k] - X[i] @ theta)) for k in range(K))
        for i in range(N)
    ])
    s = np.array([X[i] * (y[i] - X[i] @ theta) for i in range(n)])
    cov_L = np.cov((s - combined[:n]).T, bias=True)
    cov_U = np.cov(combined[n:].T, bias=True)
    Hinv = np.linalg.inv(-(X[:n].T @ X[:n]) / n)
    expected = Hinv @ (cov_L + n / (N - n) * cov_U) @ Hinv.T
    assert np.max(np.abs(cov - expected)) <= 1e-12 * np.max(np.abs(expected))


@pytest.mark.parametrize("model_name", ["mean", "ols"])
def test_every_variance_is_psd_and_no_interval_has_zero_width(model_name):
    # Sigma is a sum of two sample covariances, so PSD whatever W is; a form
    # that subtracts O(sigma^2) terms went indefinite next to an exact column,
    # and its floored diagonal gave zero-width intervals
    rng = np.random.default_rng(21)
    for trial in range(40):
        N = int(rng.integers(20, 400))
        n = int(rng.integers(5, min(N - 5, 60)))
        K = int(rng.integers(1, 4))
        if model_name == "mean":
            X, model = np.ones((N, 1)), mean_model()
            y = rng.uniform(-1, 1) + rng.standard_normal(N)
        else:
            X, model = np.column_stack([np.ones(N), rng.standard_normal(N)]), ols_model(2)
            y = X @ rng.uniform(-1, 1, size=2) + rng.standard_normal(N)
        preds = y[:, None] + rng.uniform(0.0, 2.0, size=K) * rng.standard_normal((N, K))
        if trial % 2:
            preds[:, 0] = y  # an exact column
        ds = Dataset.from_arrays(X, y[:n], preds)
        p = model.p
        problem = Problem.of(ds, model)
        W = rng.standard_normal((1, K * p, p))
        theta = problem.solve_weighted(W)[0]
        sigma = _sigma(problem, theta, W, range(K))[0]
        eig = np.linalg.eigvalsh(sigma)
        assert eig.min() >= -1e-12 * np.abs(eig).max()
        reports = [attach_inference(EstimateReport(theta[0], "ppi", weights=W[0]), ds, model)]
        reports += [run_method(ds, model, token, level=0.95)
                    for token in ("ppi:1", "ppi_pp:1", "sada")]
        for report in reports:
            eig = np.linalg.eigvalsh(report.covariance)
            assert eig.min() >= -1e-12 * np.abs(eig).max(), report.method
            assert np.all(report.intervals.upper > report.intervals.lower), report.method


def test_weighted_sigma_at_zero_weight_is_sigma_nv():
    rng = np.random.default_rng(5)
    y = rng.standard_normal(50)
    ds = Dataset.from_arrays(np.ones((50, 1)), y[:20], rng.standard_normal((50, 2)))
    theta = np.array([[y[:20].mean()]])
    problem = Problem.of(ds, mean_model())
    snv = _sigma(problem, theta, None, ())
    out = _sigma(problem, theta, np.zeros((1, 2, 1)), (0, 1))
    assert np.array_equal(out, snv)
    # and a report whose weights are all zero gets the naive covariance
    zero = attach_inference(EstimateReport(theta[0], "ppi", weights=np.zeros((2, 1))), ds, mean_model())
    naive = attach_inference(EstimateReport(theta[0], "naive"), ds, mean_model())
    assert np.array_equal(zero.covariance, naive.covariance)


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


def huge_column_dataset(X, seed=0):
    """y linear in X, a good first prediction column and a second of y plus
    noise times 1e200, whose squared scores overflow."""
    rng = np.random.default_rng(seed)
    N, n = X.shape[0], 120
    y = X @ np.linspace(1.0, 0.5, X.shape[1]) + rng.standard_normal(N)
    preds = np.column_stack([y + 0.3 * rng.standard_normal(N), y + 1e200 * rng.standard_normal(N)])
    return Dataset.from_arrays(X, y[:n], preds)


@pytest.mark.parametrize("make_model", [mean_model, lambda: ols_model(2)], ids=["mean", "ols"])
def test_a_variance_that_overflows_raises_instead_of_returning_nan(make_model):
    rng = np.random.default_rng(60)
    m = make_model()
    X = np.column_stack([np.ones(400), rng.standard_normal(400)])[:, : m.p]
    ds = huge_column_dataset(X)
    # the moments of the 1e200 column overflow, as they are meant to here
    with np.errstate(over="ignore", invalid="ignore"):
        # ppi:2's estimate is finite, but its variance squares scores of 1e200
        with pytest.raises(SingularGram, match="covariance is not finite"):
            run_method(ds, m, "ppi:2", level=0.95)
        naive = run_method(ds, m, "naive", level=0.95)
        # the tuned methods give column 2 no weight, and stay finite
        for token in ("ppi_pp:2", "sada"):
            rep = run_method(ds, m, token, level=0.95)
            assert not rep.weights.any(), token
            assert np.array_equal(rep.theta_hat, naive.theta_hat), token
            assert np.all(np.isfinite(rep.covariance)), token
            assert np.all(np.isfinite(rep.intervals.lower)) and np.all(np.isfinite(rep.intervals.upper)), token


def test_a_covariance_that_overflows_through_a_near_singular_jacobian_raises():
    # the feature is 1 + 1e-5 noise, so the Jacobian passes its rcond check
    # with an inverse of about 1e10; the weighted scores' variance (about
    # 1e294) is finite, but the sandwich around it is not
    rng = np.random.default_rng(0)
    N, n = 400, 120
    x = rng.standard_normal(N)
    X = np.column_stack([np.ones(N), 1.0 + 1e-5 * x])
    y = X @ np.array([1.0, 0.5]) + rng.standard_normal(N)
    preds = np.column_stack([y + 0.3 * rng.standard_normal(N), y + 1e147 * rng.standard_normal(N) * x])
    ds = Dataset.from_arrays(X, y[:n], preds)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(SingularGram, match="covariance is not finite"):
            run_method(ds, ols_model(2), "ppi:2", level=0.95)


def test_a_simulate_replicate_whose_variance_overflows_is_counted_as_failed(monkeypatch):
    cfg = SyntheticConfig(reps=4, seed=3)
    batch = SyntheticConfig.batch

    def huge_at_rep_2(cls, cfgs, reps, normals):
        X, labels, predictions, y = batch(cfgs, reps, normals)  # rows last
        for i, rep in enumerate(reps):
            if rep == 2:
                predictions[i, 1] = y[i] + 1e200 * np.random.default_rng(rep).standard_normal(cfg.N)
        return X, labels, predictions, y

    monkeypatch.setattr(SyntheticConfig, "batch", classmethod(huge_at_rep_2))
    with np.errstate(over="ignore", invalid="ignore"):
        res = sada.simulate.run_replications(cfg, ["ppi:2", "sada"])
    assert res.failures == {"naive": 0, "ppi:2": 1, "sada": 0}
    assert np.flatnonzero(np.isnan(res.estimates["ppi:2"][:, 0])).tolist() == [2]


@pytest.mark.parametrize("shape", [(3, 2), (4, 1), (2,), (4,)])
def test_a_misshaped_weight_matrix_is_rejected(shape):
    rng = np.random.default_rng(17)
    X = np.column_stack([np.ones(40), rng.standard_normal(40)])
    ds = Dataset.from_arrays(X, rng.standard_normal(15), rng.standard_normal((40, 2)))
    report = EstimateReport(np.zeros(2), "ppi", weights=np.ones(shape))
    with pytest.raises(ValueError, match="weight matrix shape"):
        attach_inference(report, ds, ols_model(2))
    with pytest.raises(ValueError, match="weight matrix shape"):
        solve_weighted(ds, ols_model(2), np.ones(shape))


THETA_ENTRY_POINTS = {
    "attach_inference": lambda ds, m, theta: attach_inference(EstimateReport(theta, "naive"), ds, m),
    "moment_estimates": moment_estimates,
    "estimate_general_weights": estimate_general_weights,
    "solve_weighted": lambda ds, m, theta: solve_weighted(ds, m, np.ones((ds.K * m.p, m.p)), theta),
}


@pytest.mark.parametrize("entry", sorted(THETA_ENTRY_POINTS))
@pytest.mark.parametrize("model, theta", [
    (mean_model(), [1.0, 2.0]),
    (ols_model(2), [1.0]),
    (ols_model(2), [1.0, 2.0, 3.0]),
], ids=["mean-2", "ols-1", "ols-3"])
@pytest.mark.parametrize("n", [2, 4])
def test_a_theta_of_the_wrong_shape_is_rejected(entry, model, theta, n):
    # with n = 2 a length-2 theta under the mean model used to broadcast into
    # a silent wrong answer, and with n = 4 into a raw numpy error
    rng = np.random.default_rng(18)
    X = np.column_stack([np.ones(10), rng.standard_normal(10)])
    ds = Dataset.from_arrays(X, rng.standard_normal(n), rng.standard_normal((10, 2)))
    with pytest.raises(ValueError, match=rf"must have shape \({model.p},\), got \({len(theta)},\)"):
        THETA_ENTRY_POINTS[entry](ds, model, np.array(theta))


THETA_NAMES = {"attach_inference": "theta_hat", "moment_estimates": "theta",
               "estimate_general_weights": "theta_pilot", "solve_weighted": "theta0"}


@pytest.mark.parametrize("entry", sorted(THETA_ENTRY_POINTS))
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("model", [mean_model(), ols_model(2)], ids=["mean", "ols"])
def test_a_non_finite_theta_is_rejected(entry, bad, model):
    # a NaN theta0 used to come back from solve_weighted as a NaN root, and a
    # NaN theta to give NaN moments, with no error
    rng = np.random.default_rng(19)
    X = np.column_stack([np.ones(10), rng.standard_normal(10)])
    ds = Dataset.from_arrays(X, rng.standard_normal(4), rng.standard_normal((10, 2)))
    theta = np.ones(model.p)
    # a report refuses a non-finite estimate when built, so it is written in after
    report = EstimateReport(theta, "naive")
    theta[0] = bad
    with pytest.raises(ValueError, match=rf"^{THETA_NAMES[entry]} must be finite$"):
        if entry == "attach_inference":
            attach_inference(report, ds, model)
        else:
            THETA_ENTRY_POINTS[entry](ds, model, theta)


@pytest.mark.parametrize("level", [0.0, 1.0, 1.5, float("nan")])
def test_library_rejects_a_level_outside_zero_one(monkeypatch, level):
    ds, _ = generate_synthetic(SyntheticConfig(N=400, n=80), 0)
    model = mean_model()
    match = r"level must be in \(0, 1\)"
    with pytest.raises(ConfigError, match=match):
        run_method(ds, model, "sada", level=level)
    with pytest.raises(ConfigError, match=match):
        attach_inference(naive_estimate(ds, model), ds, model, level)

    monkeypatch.setattr(sada.simulate, "_run_chunk", no_replicate)
    with pytest.raises(ConfigError, match=match):
        efficiency_curve(SyntheticConfig(reps=5, seed=1), [0.5], ["naive", "sada"], level=level)


def no_replicate(*args):
    raise AssertionError("a replicate ran")


def test_run_method_takes_level_only_by_keyword():
    # a positional call past the token would bind values to the wrong options
    ds, _ = generate_synthetic(SyntheticConfig(N=400, n=80), 0)
    with pytest.raises(TypeError):
        run_method(ds, mean_model(), "sada", 0.95)
