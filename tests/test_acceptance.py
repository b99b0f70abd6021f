"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria 1-4 share a single 11-point gamma sweep (1000 replications per
point, strict mode).  All Monte Carlo checks run at the pinned seed below;
tolerances are fixed here and nowhere else.
"""
import time

import numpy as np
import pytest

from sada import (
    ConditionalMeanConfig,
    Dataset,
    OlsCoverageConfig,
    SyntheticConfig,
    efficiency_curve,
    mean_model,
    ols_model,
    ppi_pp_estimate,
    run_replications,
    sada_estimate,
)
from sada.cli import main
from sada.inference import _sigma
from sada.io import load_dataset_csv, write_dataset_csv
from sada.problem import Problem

from reference import estimate_mean_weights, sigma_g as reference_sigma_g

ACC_SEED = 20250808
GAMMAS = [i / 10 for i in range(11)]
SWEEP_METHODS = ("naive", "ppi:1", "ppi_pp:1", "ppi_pp:2", "sada")
ROOT_N_RATIO = np.sqrt(60.0 / 200.0)  # 0.5477


def check(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def sweep():
    start = time.time()
    rows = efficiency_curve(
        SyntheticConfig(theta_star=0.5, N=200, n=60, reps=1000, seed=ACC_SEED),
        GAMMAS,
        SWEEP_METHODS,
        workers=2,
        strict=True,
    )
    elapsed = time.time() - start
    table = {(round(r.gamma, 1), r.method): r for r in rows}
    table["elapsed"] = elapsed
    return table


def test_criterion_01_safety_sweep(sweep):
    rel = {g: sweep[(g, "sada")].rel_efficiency for g in GAMMAS}
    worst = max(rel, key=rel.get)
    ok = all(v <= 1.02 for v in rel.values()) and sweep["elapsed"] < 120.0
    check(
        1,
        "safety sweep",
        ok,
        f"max SADA rel. eff. {rel[worst]:.4f} at gamma={worst} (<= 1.02), "
        f"sweep took {sweep['elapsed']:.1f}s (< 120s)",
    )


def test_criterion_02_adaptivity_at_endpoints(sweep):
    r0 = sweep[(0.0, "sada")].rel_efficiency
    r1 = sweep[(1.0, "sada")].rel_efficiency
    ok = abs(r0 - ROOT_N_RATIO) <= 0.05 and abs(r1 - ROOT_N_RATIO) <= 0.05
    check(
        2,
        "adaptivity at endpoints",
        ok,
        f"rel. eff. {r0:.4f} / {r1:.4f} at gamma=0/1 vs sqrt(n/N)={ROOT_N_RATIO:.4f} +/- 0.05",
    )


def test_criterion_03_ppi_failure_mode(sweep):
    r = sweep[(0.0, "ppi:1")].rel_efficiency
    check(3, "PPI failure mode", r > 1.2, f"PPI on column 1 at gamma=0: rel. eff. {r:.4f} (> 1.2)")


def test_criterion_04_ppi_pp_protection_and_combination(sweep):
    pp1 = {g: sweep[(g, "ppi_pp:1")].rel_efficiency for g in GAMMAS}
    pp2 = {g: sweep[(g, "ppi_pp:2")].rel_efficiency for g in GAMMAS}
    sada = {g: sweep[(g, "sada")].rel_efficiency for g in GAMMAS}
    pp_ok = all(v <= 1.02 for v in pp1.values()) and all(v <= 1.02 for v in pp2.values())
    combo_gap = max(sada[g] - min(pp1[g], pp2[g]) for g in GAMMAS)
    ok = pp_ok and combo_gap <= 0.03
    check(
        4,
        "PPI++ protection / SADA combines strengths",
        ok,
        f"max PPI++ rel. eff. {max(max(pp1.values()), max(pp2.values())):.4f} (<= 1.02), "
        f"max SADA excess over best PPI++ {combo_gap:+.4f} (<= 0.03)",
    )


def test_criterion_05_scalar_equivalence():
    rng = np.random.default_rng(ACC_SEED)
    worst = 0.0
    for _ in range(100):
        N = int(rng.integers(40, 200))
        n = int(rng.integers(10, N // 2))
        y = rng.normal(rng.uniform(-2, 2), rng.uniform(0.5, 2.0), size=N)
        slope = rng.uniform(-1.0, 1.0)
        yhat = slope * y + rng.uniform(0.2, 1.5) * rng.standard_normal(N)
        ds = Dataset.from_arrays(np.ones((N, 1)), y[:n], yhat[:, None])
        a = sada_estimate(ds, mean_model()).theta_hat[0]
        b = ppi_pp_estimate(ds, mean_model(), 1).theta_hat[0]
        worst = max(worst, abs(a - b))
    check(5, "scalar equivalence (K=1)", worst <= 1e-10, f"max |sada - ppi++| = {worst:.2e} (<= 1e-10)")


def test_criterion_06_weight_formula_against_grid_search():
    rng = np.random.default_rng(ACC_SEED + 1)
    axis = np.arange(-2.0, 2.0 + 1e-9, 2e-3)
    worst_gap = -np.inf
    for _ in range(20):
        N = int(rng.integers(12, 31))
        n = int(rng.integers(4, max(5, N - 4)))
        y = 0.5 + rng.standard_normal(N)
        yhat1 = 0.7 * y + 0.5 * rng.standard_normal(N)
        yhat2 = 0.3 * y + 0.8 * rng.standard_normal(N)
        ds = Dataset.from_arrays(np.ones((N, 1)), y[:n], np.column_stack([yhat1, yhat2]))
        w_hat = estimate_mean_weights(ds)

        preds_c = ds.predictions - ds.predictions.mean(axis=0)
        y_c = ds.labels - ds.labels.mean()
        V = preds_c.T @ preds_c / N
        c = preds_c[:n].T @ y_c / n
        A = N / (n * (N - n)) * V
        W1, W2 = np.meshgrid(axis, axis, indexing="ij")
        obj = (
            A[0, 0] * W1**2 + A[1, 1] * W2**2 + 2 * A[0, 1] * W1 * W2
            - 2.0 / n * (c[0] * W1 + c[1] * W2)
        )
        grid_min = float(obj.min())
        f_hat = float(w_hat @ A @ w_hat - 2.0 / n * w_hat @ c)
        worst_gap = max(worst_gap, f_hat - grid_min)
    check(
        6,
        "weight formula vs 2-D grid search",
        worst_gap <= 1e-8,
        f"max objective excess of closed form over grid minimum {worst_gap:.2e} (<= 1e-8)",
    )


def test_criterion_07_confidence_interval_coverage():
    start = time.time()
    res_mean = run_replications(
        SyntheticConfig(theta_star=0.5, N=200, n=60, gamma=0.5, reps=2000, seed=ACC_SEED),
        ["naive", "sada"],
        workers=2,
        strict=True,
    )
    cov_mean = float(res_mean.coverage["sada"][0])
    res_ols = run_replications(
        OlsCoverageConfig(reps=2000, seed=ACC_SEED), ["naive", "sada"], workers=2, strict=True
    )
    cov_slope = float(res_ols.coverage["sada"][1])
    elapsed = time.time() - start
    ok = 0.93 <= cov_mean <= 0.97 and 0.93 <= cov_slope <= 0.97 and elapsed < 300.0
    check(
        7,
        "95% CI coverage",
        ok,
        f"mean-model coverage {cov_mean:.4f}, OLS-slope coverage {cov_slope:.4f} "
        f"(both in [0.93, 0.97]), took {elapsed:.1f}s (< 300s)",
    )


def test_criterion_08_semiparametric_bound():
    cfg = ConditionalMeanConfig(N=200, n=60, reps=2000, seed=ACC_SEED)
    # efficient-influence-function variance: (sigma^2/pi + Var[E(Y|X)]) / N
    pi = cfg.n / cfg.N
    bound_sd = np.sqrt((cfg.noise_sd**2 / pi + 1.0) / cfg.N)
    res = run_replications(cfg, ["naive", "sada"], workers=2, strict=True)
    sd = float(res.sd["sada"][0])
    ok = abs(sd - bound_sd) <= 0.07 * bound_sd
    check(
        8,
        "semiparametric bound",
        ok,
        f"SADA SD {sd:.5f} vs bound {bound_sd:.5f} (+/- 7%); naive SD {float(res.sd['naive'][0]):.5f}",
    )


def test_criterion_09_matrix_property_suite():
    rng = np.random.default_rng(ACC_SEED + 2)
    min_g, min_gap = np.inf, np.inf
    for trial in range(200):
        N = int(rng.integers(24, 120))
        n = int(rng.integers(6, N - 6))
        K = int(rng.integers(1, 4))
        use_ols = trial % 4 == 0
        if use_ols:
            X = np.column_stack([np.ones(N), rng.standard_normal(N)])
            y = X @ rng.uniform(-1, 1, size=2) + rng.standard_normal(N)
            model = ols_model(2)
        else:
            X = np.ones((N, 1))
            y = rng.uniform(-1, 1) + rng.standard_normal(N)
            model = mean_model()
        preds = rng.uniform(-1, 1, size=K) * y[:, None] + rng.standard_normal((N, K))
        ds = Dataset.from_arrays(X, y[:n], preds)
        theta = np.linalg.lstsq(X[:n], y[:n], rcond=None)[0] if use_ols else np.array([y[:n].mean()])
        problem, at = Problem.of(ds, model), theta[None]
        sigma_nv = _sigma(problem, at, None, ())[0]  # Cov_L(s), the variance at W = 0
        sigma_g, bad = reference_sigma_g(problem, at)
        assert not bad[0]
        sigma_opt = sigma_nv - (N - n) / N * sigma_g[0]
        min_g = min(min_g, float(np.linalg.eigvalsh(sigma_g[0]).min()))
        min_gap = min(min_gap, float(np.linalg.eigvalsh(sigma_nv - sigma_opt).min()))
    ok = min_g >= -1e-8 and min_gap >= -1e-8
    check(
        9,
        "matrix property suite",
        ok,
        f"min eig Sigma_g {min_g:.2e}, min eig (Sigma_nv - Sigma_opt) {min_gap:.2e} (both >= -1e-8)",
    )


def test_criterion_10_simulate_determinism_across_workers(tmp_path):
    outputs = []
    for workers in (1, 2, 8):
        out = tmp_path / f"w{workers}"
        code = main([
            "simulate",
            "--reps", "40",
            "--gamma-grid", "0:1:3",
            "--seed", str(ACC_SEED),
            "--workers", str(workers),
            "--strict",
            "--out", str(out),
        ])
        assert code == 0
        outputs.append(((out / "results.csv").read_bytes(), (out / "efficiency.svg").read_bytes()))
    ok = outputs[0] == outputs[1] == outputs[2]
    check(10, "simulate determinism", ok, "results.csv and efficiency.svg byte-identical for 1/2/8 workers")


def test_criterion_11_coverage_where_adaptivity_pays():
    # With N >> n and one exact column, the variance to estimate is O(n/N) of
    # the naive one.  The Monte Carlo SE of a 95% coverage over 2000 reps is
    # sqrt(0.95 * 0.05 / 2000) = 0.0049.  The band is 0.95 +/- 5 SE: at
    # n = 60 even the naive interval covers about 0.94 here, a shortfall of
    # some 2 SE that comes with the normal approximation, not with the
    # weights, and the rest is room for noise.  A variance that subtracts
    # O(sigma^2) terms covers about 0.6 on this design.
    reps = 2000
    se = np.sqrt(0.95 * 0.05 / reps)
    lo, hi = 0.95 - 5 * se, 0.95 + 5 * se
    rows = efficiency_curve(
        SyntheticConfig(theta_star=0.5, N=2000, n=60, reps=reps, seed=ACC_SEED),
        [0.0, 1.0],
        ("sada", "ppi_pp:1", "ppi_pp:2"),
        workers=2,
        strict=True,
    )
    table = {(r.gamma, r.method): r.coverage for r in rows}
    # column 2 is exact at gamma = 0, column 1 at gamma = 1
    cells = {"sada g=0": table[(0.0, "sada")], "ppi_pp:2 g=0": table[(0.0, "ppi_pp:2")],
             "sada g=1": table[(1.0, "sada")], "ppi_pp:1 g=1": table[(1.0, "ppi_pp:1")]}
    ok = all(lo <= c <= hi for c in cells.values())
    check(
        11,
        "coverage where adaptivity pays",
        ok,
        ", ".join(f"{k} {v:.4f}" for k, v in cells.items()) + f" (all in [{lo:.4f}, {hi:.4f}])",
    )


def test_csv_pipeline_round_trip(tmp_path):
    rng = np.random.default_rng(ACC_SEED + 3)
    y = 0.5 + rng.standard_normal(40)
    ds = Dataset.from_arrays(
        rng.standard_normal((40, 2)), y[:12],
        np.column_stack([0.6 * y + rng.standard_normal(40), rng.standard_normal(40)]),
    )
    path = tmp_path / "round.csv"
    write_dataset_csv(ds, path)
    ok = load_dataset_csv(path).dataset == ds
    check(0, "CSV round trip", ok, "write -> load reproduces the dataset exactly")
