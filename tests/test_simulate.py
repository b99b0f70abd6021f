import numpy as np
import pytest

from sada import (
    ConditionalMeanConfig,
    ConfigError,
    OlsCoverageConfig,
    SyntheticConfig,
    conditional_mean_study,
    efficiency_curve,
    generate_synthetic,
    ols_coverage_study,
    run_replications,
)
from sada.estimators import parse_method


def test_gamma_one_makes_first_prediction_exact():
    ds, y = generate_synthetic(SyntheticConfig(gamma=1.0, seed=4), 0)
    assert np.array_equal(ds.predictions[:, 0], y)
    assert not np.array_equal(ds.predictions[:, 1], y)


def test_gamma_zero_makes_second_prediction_exact():
    ds, y = generate_synthetic(SyntheticConfig(gamma=0.0, seed=4), 0)
    assert np.array_equal(ds.predictions[:, 1], y)


def test_generator_is_deterministic_and_rep_indexed():
    cfg = SyntheticConfig(gamma=0.3, seed=99)
    a1, t1 = generate_synthetic(cfg, 7)
    a2, t2 = generate_synthetic(cfg, 7)
    b, _ = generate_synthetic(cfg, 8)
    assert a1 == a2 and np.array_equal(t1, t2)
    assert not np.array_equal(a1.labels, b.labels)


def test_generator_layout():
    cfg = SyntheticConfig(N=50, n=10, gamma=0.5, seed=1)
    ds, y = generate_synthetic(cfg, 0)
    assert (ds.N, ds.n, ds.K, ds.d) == (50, 10, 2, 1)
    assert np.array_equal(ds.features, np.ones((50, 1)))
    assert np.array_equal(ds.labels, y[:10])


def test_config_validation():
    with pytest.raises(ConfigError):
        SyntheticConfig(gamma=1.5)
    with pytest.raises(ConfigError):
        SyntheticConfig(n=200, N=200)
    with pytest.raises(ConfigError):
        SyntheticConfig(reps=0)


def test_parse_method_tokens():
    assert parse_method("naive") == ("naive", None)
    assert parse_method("ppi") == ("ppi", 1)
    assert parse_method("ppi_pp:2") == ("ppi_pp", 2)
    for bad in ("mystery", "ppi:x", "ppi:0", "sada:1"):
        with pytest.raises(ConfigError):
            parse_method(bad)


def test_naive_relative_efficiency_is_one():
    res = run_replications(SyntheticConfig(reps=20, seed=3), ["naive"])
    assert res.rel_efficiency["naive"][0] == 1.0
    assert res.failures == {"naive": 0}


def test_naive_baseline_added_when_absent():
    res = run_replications(SyntheticConfig(reps=10, seed=3), ["sada"])
    assert res.methods[0] == "naive"
    assert np.isfinite(res.rel_efficiency["sada"][0])


def test_oracle_has_no_coverage():
    res = run_replications(SyntheticConfig(reps=10, seed=5), ["oracle"])
    assert np.isnan(res.coverage["oracle"][0])
    assert np.isfinite(res.sd["oracle"][0])


def test_single_rep_flags_degenerate_sd():
    res = run_replications(SyntheticConfig(reps=1, seed=6), ["sada"])
    assert res.sd["naive"][0] == 0.0
    assert np.isnan(res.rel_efficiency["sada"][0])


def test_results_identical_across_worker_counts():
    cfg = SyntheticConfig(reps=24, seed=12, gamma=0.6)
    serial = run_replications(cfg, ["naive", "sada", "ppi_pp:1"], workers=1)
    parallel = run_replications(cfg, ["naive", "sada", "ppi_pp:1"], workers=2)
    for token in serial.methods:
        assert np.array_equal(serial.estimates[token], parallel.estimates[token])
        assert serial.sd[token][0] == parallel.sd[token][0]


def test_safety_sweep_small():
    # relative efficiency never exceeds 1 + 3/sqrt(reps) across the gamma grid
    reps = 120
    bound = 1.0 + 3.0 / np.sqrt(reps)
    rows = efficiency_curve(
        SyntheticConfig(reps=reps, seed=21),
        [0.1 * i for i in range(11)],
        ["sada"],
    )
    sada_rows = [r for r in rows if r.method == "sada"]
    assert len(sada_rows) == 11
    assert max(r.rel_efficiency for r in sada_rows) <= bound


def test_better_prediction_gives_better_efficiency():
    cfg = SyntheticConfig(reps=400, seed=22)
    rows = efficiency_curve(cfg, [0.5, 1.0], ["sada"])
    at = {r.gamma: r.rel_efficiency for r in rows if r.method == "sada"}
    assert at[1.0] <= at[0.5] + 0.03


def test_efficiency_curve_requires_grid_and_methods():
    cfg = SyntheticConfig(reps=5, seed=1)
    with pytest.raises(ConfigError):
        efficiency_curve(cfg, [], ["sada"])
    with pytest.raises(ConfigError):
        run_replications(cfg, [])


def test_conditional_mean_study_naive_sd():
    # Var(Y) = 2 and n = 60 labeled rows: naive SD ~ sqrt(2/60) = 0.1826
    res = conditional_mean_study(ConditionalMeanConfig(reps=600, seed=30))
    assert abs(res.sd["naive"][0] - np.sqrt(2.0 / 60.0)) < 0.02
    assert res.sd["sada"][0] < res.sd["naive"][0]
    assert abs(res.mean["sada"][0]) < 0.02


def test_ols_coverage_study_smoke():
    res = ols_coverage_study(OlsCoverageConfig(N=200, n=60, reps=150, seed=31))
    assert res.theta_star.shape == (2,)
    assert 0.75 <= res.coverage["naive"][1] <= 1.0
    assert abs(res.bias["sada"][1]) < 0.05
    assert res.failures["sada"] == 0
