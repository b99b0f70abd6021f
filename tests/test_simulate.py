import concurrent.futures
import hashlib
import multiprocessing
import os
from collections import Counter
from concurrent.futures import Future
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from sada import simulate
from sada import (
    ConditionalMeanConfig,
    ConfigError,
    Dataset,
    SadaError,
    SingularHessian,
    SingularJacobian,
    OlsCoverageConfig,
    SyntheticConfig,
    efficiency_curve,
    generate_synthetic,
    run_replications,
)
from sada.estimators import parse_method
from sada.inference import run_method


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


@pytest.mark.parametrize("cfg, digest", [
    (SyntheticConfig(N=50, n=10, gamma=0.3, seed=11), "840ad3909c6ab93e"),
    (ConditionalMeanConfig(N=50, n=10, seed=11, noise_sd=0.7), "eb9dde3967bc6a0c"),
    (OlsCoverageConfig(N=50, n=10, gamma=0.3, seed=11), "f16f380f63f7ffd5"),
], ids=["synthetic", "conditional_mean", "ols"])
def test_drawn_replicates_are_pinned_bit_for_bit(cfg, digest):
    # sha256 over the float64 bytes of features, labels, predictions, truth:
    # a reordered or changed RNG call changes it
    draw = cfg.draw(4)
    h = hashlib.sha256()
    for array in draw:
        assert array.dtype == np.float64
        h.update(np.ascontiguousarray(array).tobytes())
    assert h.hexdigest()[:16] == digest
    if isinstance(cfg, SyntheticConfig):
        ds, truth = generate_synthetic(cfg, 4)
        for got, want in zip((ds.features, ds.labels, ds.predictions, truth), draw):
            assert np.array_equal(got, want)


def test_config_validation():
    with pytest.raises(ConfigError):
        SyntheticConfig(gamma=1.5)
    with pytest.raises(ConfigError):
        SyntheticConfig(n=200, N=200)
    with pytest.raises(ConfigError):
        SyntheticConfig(reps=0)
    for config in (ConditionalMeanConfig, OlsCoverageConfig):
        for reps in (0, -3):
            with pytest.raises(ConfigError):
                config(reps=reps)
    for gamma in (2.5, -0.1, float("nan")):
        with pytest.raises(ConfigError):
            OlsCoverageConfig(N=200, n=60, reps=20, gamma=gamma, seed=1)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ConfigError, match="theta_star must be finite"):
            SyntheticConfig(theta_star=bad)
        with pytest.raises(ConfigError, match="theta_star must be finite"):
            OlsCoverageConfig(theta_star=(bad, 1.0))
        with pytest.raises(ConfigError, match="noise_sd must be finite"):
            ConditionalMeanConfig(noise_sd=bad)


def test_parse_method_tokens():
    assert parse_method("naive") == ("naive", None)
    assert parse_method("ppi") == ("ppi", 1)
    assert parse_method("ppi_pp:2") == ("ppi_pp", 2)
    for bad in ("mystery", "ppi:x", "ppi:0", "sada:1", "ppi:", "ppi_pp:", "naive:"):
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


def test_a_method_named_twice_is_fitted_once():
    res = run_replications(SyntheticConfig(reps=4, seed=3), ["ppi", "ppi:1"])
    assert res.methods == ("naive", "ppi")


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
    res = run_replications(ConditionalMeanConfig(reps=600, seed=30), ["naive", "sada"])
    assert abs(res.sd["naive"][0] - np.sqrt(2.0 / 60.0)) < 0.02
    assert res.sd["sada"][0] < res.sd["naive"][0]
    assert abs(res.mean["sada"][0]) < 0.02


def test_ols_coverage_study_smoke():
    res = run_replications(OlsCoverageConfig(N=200, n=60, reps=150, seed=31), ["naive", "sada"])
    assert res.theta_star.shape == (2,)
    assert 0.75 <= res.coverage["naive"][1] <= 1.0
    assert abs(res.bias["sada"][1]) < 0.05
    assert res.failures["sada"] == 0


@pytest.fixture
def pool_sizes(monkeypatch):
    """Replace the process pool by one that runs its jobs in this process and
    records the ``max_workers`` of every pool built.  ``simulate`` imports the
    pool class from ``concurrent.futures`` only where it starts one, so the
    class is replaced there."""
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def shutdown(self, wait=True, *, cancel_futures=False):
            pass

        def map(self, fn, *iterables, chunksize=1):
            assert chunksize >= 1
            return map(fn, *iterables)

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    return sizes


@pytest.mark.skipif(simulate._cpus() < 2, reason="one CPU never starts a pool")
def test_efficiency_curve_builds_one_pool(pool_sizes, monkeypatch):
    cfg = SyntheticConfig(reps=simulate.MIN_BATCHES_PER_WORKER, seed=2)
    # one replicate per batch: 3 gammas give each of 2 workers enough batches
    monkeypatch.setattr(simulate, "BATCH_ROWS", cfg.N)
    pooled = efficiency_curve(cfg, [0.0, 0.5, 1.0], ["sada"], workers=2)
    assert pool_sizes == [2]
    assert pooled == efficiency_curve(cfg, [0.0, 0.5, 1.0], ["sada"], workers=1)
    assert pool_sizes == [2]


def test_a_small_sweep_starts_no_pool(pool_sizes):
    cfg = SyntheticConfig(reps=4, seed=2)
    efficiency_curve(cfg, [0.0, 0.5, 1.0], ["sada"], workers=2)
    assert pool_sizes == []


def test_pool_is_capped_at_cpus_and_chunks(pool_sizes):
    cfg = SyntheticConfig(reps=3, seed=4)
    capped = run_replications(cfg, ["sada"], workers=64)
    assert len(pool_sizes) <= 1
    assert all(size <= min(os.cpu_count() or 1, 3) for size in pool_sizes)
    serial = run_replications(cfg, ["sada"], workers=1)
    for token in serial.methods:
        assert np.array_equal(capped.estimates[token], serial.estimates[token])
        assert capped.sd[token][0] == serial.sd[token][0]


@pytest.mark.parametrize("cpus, expected", [(4, 3), (2, 2)], ids=["batch-cap", "cpu-cap"])
def test_a_large_sweep_caps_its_pool_at_the_cpus_and_the_batches(pool_sizes, monkeypatch, cpus, expected):
    # one replicate per batch: 3 * MIN_BATCHES_PER_WORKER full batches allow
    # 3 workers, fewer than 4 CPUs but more than 2
    cfg = SyntheticConfig(reps=3 * simulate.MIN_BATCHES_PER_WORKER, seed=4)
    monkeypatch.setattr(simulate, "BATCH_ROWS", cfg.N)
    monkeypatch.setattr(simulate.os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    capped = run_replications(cfg, ["sada"], workers=64)
    assert pool_sizes == [expected]
    serial = run_replications(cfg, ["sada"], workers=1)
    assert pool_sizes == [expected]
    for token in serial.methods:
        assert np.array_equal(capped.estimates[token], serial.estimates[token])


def test_bad_gamma_anywhere_in_grid_fails_before_any_replicate(monkeypatch):
    drawn = []

    batch = SyntheticConfig.batch

    def recording(cls, cfgs, reps, normals):
        drawn.extend((cfg.gamma, rep) for cfg, rep in zip(cfgs, reps))
        return batch(cfgs, reps, normals)

    monkeypatch.setattr(SyntheticConfig, "batch", classmethod(recording))
    with pytest.raises(ConfigError, match="gamma"):
        efficiency_curve(SyntheticConfig(reps=2), [0.5, 1.5], ["sada"])
    assert drawn == []


@pytest.mark.parametrize("workers", [0, -3])
def test_workers_below_one_raise(workers):
    cfg = SyntheticConfig(reps=3)
    with pytest.raises(ConfigError, match=f"workers must be >= 1, got {workers}"):
        run_replications(cfg, ["sada"], workers=workers)
    with pytest.raises(ConfigError, match=f"workers must be >= 1, got {workers}"):
        efficiency_curve(cfg, [0.5], ["sada"], workers=workers)


# --- failure accounting when only some replicates of a batch fail ---

#: The unpatched OLS batch draw; captured once, so that patching it again
#: replaces the wrapper instead of wrapping it.
OLS_BATCH = OlsCoverageConfig.batch


def rank_deficient_at(labeled, unlabeled, everywhere=()):
    """The OLS study with the feature made constant on the labeled rows of the
    replicates in ``labeled``, on the unlabeled rows of those in ``unlabeled``
    and on all rows, so that even the oracle fails, of those in ``everywhere``.
    The features of a batch are rows last, (B, 2, N)."""
    def batch(cls, cfgs, reps, normals):
        X, labels, predictions, y = OLS_BATCH(cfgs, reps, normals)
        for i, (cfg, rep) in enumerate(zip(cfgs, reps)):
            if rep in labeled:
                X[i, 1, : cfg.n] = 1.0
            if rep in unlabeled:
                X[i, 1, cfg.n:] = 0.5
            if rep in everywhere:
                X[i, 1] = 2.0
        return X, labels, predictions, y
    return classmethod(batch)


FAILING_METHODS = ("naive", "ppi:1", "ppi:2", "ppi_pp:1", "sada", "oracle")


@pytest.mark.parametrize("batch_rows", [16384, 600])
def test_failures_are_counted_per_replicate_and_token(monkeypatch, batch_rows):
    cfg = OlsCoverageConfig(N=200, n=60, reps=12, seed=5)
    clean = simulate._run_studies([cfg], FAILING_METHODS, 0.95, 1, False)[0]
    monkeypatch.setattr(simulate, "BATCH_ROWS", batch_rows)  # 600 rows: batches of 3 replicates
    monkeypatch.setattr(OlsCoverageConfig, "batch", rank_deficient_at({3, 8}, {5}))
    res = simulate._run_studies([cfg], FAILING_METHODS, 0.95, 1, False)
    res = res[0]
    # the counts the per-replicate harness gave before fits were batched
    assert res.failures == {"naive": 2, "ppi:1": 3, "ppi:2": 3, "ppi_pp:1": 2, "sada": 2, "oracle": 0}
    for token in FAILING_METHODS:
        failed = np.isnan(res.estimates[token][:, 0])
        assert failed.sum() == res.failures[token]
        expect = {3, 8} | ({5} if token.startswith("ppi:") else set())
        if token == "oracle":
            expect = set()
        assert set(np.flatnonzero(failed)) == expect, token
        # a failing replicate leaves the others in its batch untouched
        kept = [rep for rep in range(cfg.reps) if rep not in {3, 5, 8}]
        assert np.array_equal(res.estimates[token][kept], clean.estimates[token][kept]), token


def test_failures_are_counted_by_exception_class(monkeypatch):
    cfg = OlsCoverageConfig(N=200, n=60, reps=12, seed=5)
    monkeypatch.setattr(OlsCoverageConfig, "batch", rank_deficient_at({3, 8}, {5}))
    res = run_replications(cfg, FAILING_METHODS)
    assert res.failure_classes["naive"] == {"SingularJacobian": 2}
    assert res.failure_classes["ppi:1"] == {"SingularHessian": 2, "SingularJacobian": 1}
    assert res.failure_classes["oracle"] == {}
    for token in FAILING_METHODS:
        assert sum(res.failure_classes[token].values()) == res.failures[token], token


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the patched batch draw reaches pool workers only by fork")
def test_failure_classes_add_up_to_the_failures_in_one_process_and_in_a_pool(monkeypatch):
    # two gammas, one replicate per batch: 24 batches give a pool of 2 workers
    cfgs = [OlsCoverageConfig(N=200, n=60, reps=12, seed=5, gamma=g) for g in (0.2, 0.8)]
    monkeypatch.setattr(simulate, "BATCH_ROWS", cfgs[0].N)
    monkeypatch.setattr(simulate.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(OlsCoverageConfig, "batch", rank_deficient_at({3, 8}, {5}))
    pools = []

    class RecordedPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordedPool)
    serial = simulate._run_studies(cfgs, FAILING_METHODS, 0.95, 1, False)
    pooled = simulate._run_studies(cfgs, FAILING_METHODS, 0.95, 2, False)
    assert pools == [2]
    for one, other in zip(serial, pooled):
        # ppi:1 fails in two classes: SingularHessian and SingularJacobian
        assert one.failure_classes["ppi:1"] == {"SingularHessian": 2, "SingularJacobian": 1}
        for res in (one, other):
            assert res.failure_classes == one.failure_classes and res.failures == one.failures
            for token in FAILING_METHODS:
                assert sum(res.failure_classes[token].values()) == res.failures[token], token


def test_the_one_step_reduction_matches_a_per_cell_reference(monkeypatch):
    # two gammas in batches of 3 pairs, which span them; replicates fail per
    # method (3, 5, 8) and for every method, the oracle too (10)
    cfgs = [OlsCoverageConfig(N=200, n=60, reps=12, seed=5, gamma=gamma) for gamma in (0.2, 0.8)]
    monkeypatch.setattr(simulate, "BATCH_ROWS", 600)
    monkeypatch.setattr(OlsCoverageConfig, "batch", rank_deficient_at({3, 8}, {5}, everywhere={10}))
    results = simulate._run_studies(cfgs, FAILING_METHODS, 0.9, 1, False)
    for cfg, res in zip(cfgs, results):
        target = cfg.target()
        assert np.array_equal(res.theta_star, target)
        for token in FAILING_METHODS:
            theta, covered, classes = [], [], Counter()
            for rep in range(cfg.reps):
                features, labels, predictions, truth = cfg.draw(rep)
                ds = Dataset.from_arrays(features, labels, predictions)
                try:
                    report = run_method(ds, cfg.model(), token, level=0.9, truth=truth)
                except SadaError as exc:
                    classes[type(exc).__name__] += 1
                    theta.append(np.full(2, np.nan))
                    continue
                theta.append(report.theta_hat)
                if report.intervals is not None:
                    lower, upper = report.intervals.lower, report.intervals.upper
                    covered.append((lower <= target) & (target <= upper))
            theta = np.array(theta)
            kept = theta[~np.isnan(theta[:, 0])]
            assert np.array_equal(res.estimates[token], theta, equal_nan=True), token
            assert res.failures[token] == cfg.reps - len(kept), token
            assert res.failure_classes[token] == dict(classes), token
            for got, want in [(res.mean, kept.mean(axis=0)), (res.sd, kept.std(axis=0)),
                              (res.bias, kept.mean(axis=0) - target)]:
                np.testing.assert_allclose(got[token], want, rtol=1e-14, atol=0, err_msg=token)
            if token == "oracle":
                assert covered == [] and np.all(np.isnan(res.coverage[token]))
            else:
                np.testing.assert_allclose(res.coverage[token], np.mean(covered, axis=0), rtol=1e-14, err_msg=token)
            assert np.array_equal(res.rel_efficiency[token], res.sd[token] / res.sd["naive"]), token


@pytest.mark.parametrize("batch_rows", [16384, 600])
def test_strict_raises_the_error_of_the_first_failing_replicate(monkeypatch, batch_rows):
    cfg = OlsCoverageConfig(N=200, n=60, reps=12, seed=5)
    monkeypatch.setattr(simulate, "BATCH_ROWS", batch_rows)  # 600 rows: batches of 3 replicates

    def strict(methods, labeled=(), unlabeled=(), everywhere=()):
        monkeypatch.setattr(OlsCoverageConfig, "batch", rank_deficient_at(labeled, unlabeled, everywhere))
        simulate._run_studies([cfg], methods, 0.95, 1, True)

    # ppi:1 raises SingularHessian where only the labeled design is singular
    # and SingularJacobian where the unlabeled one is; naive, always fitted,
    # raises SingularJacobian where the labeled one is, so it comes last here.
    # Replicate 5 is raised, not the later replicate 8
    with pytest.raises(SingularHessian):
        strict(("ppi:1", "naive"), labeled={5}, unlabeled={8})
    # within one replicate, the first failing token
    with pytest.raises(SingularJacobian):
        strict(("naive", "ppi:1"), labeled={5})
    # replicate order before token order: replicate 5 fails only its second
    # token, replicate 8 its first (the oracle, whose whole design is singular)
    with pytest.raises(SingularHessian):
        strict(("oracle", "ppi:1", "naive"), labeled={5}, everywhere={8})
    # with every design of full rank, strict runs through
    strict(("oracle", "sada"))


# --- replicates of several gammas share a batch ---


def test_packing_replicates_into_batches_is_invisible(monkeypatch):
    cfg = SyntheticConfig(reps=5, seed=8)
    gammas = [0.1, 0.5, 0.9]
    studies = [cfg, ConditionalMeanConfig(reps=5, seed=9), OlsCoverageConfig(N=300, n=90, reps=5, seed=10)]
    packed = efficiency_curve(cfg, gammas)  # all 15 replicates in one batch
    shared = [run_replications(study) for study in studies]
    for study, together in zip(studies, shared):
        monkeypatch.setattr(simulate, "BATCH_ROWS", study.N)  # one replicate per batch
        alone = run_replications(study)
        for token in together.methods:
            assert together.estimates[token].tobytes() == alone.estimates[token].tobytes(), (study, token)
    monkeypatch.setattr(simulate, "BATCH_ROWS", cfg.N)
    assert efficiency_curve(cfg, gammas) == packed


@pytest.mark.parametrize("pairs, N", [(330, 200), (11000, 200), (20, 200), (10, 300), (3, 10**6)])
@pytest.mark.parametrize("budget", ["N", "3N", "2**16", "unbounded"])
def test_a_plan_is_the_fewest_even_batches_within_the_budget(monkeypatch, pairs, N, budget):
    rows = {"N": N, "3N": 3 * N, "2**16": 2**16, "unbounded": 2**62}[budget]
    monkeypatch.setattr(simulate, "BATCH_ROWS", rows)
    plan = simulate._plan(pairs, N)
    sizes = [batch.stop - batch.start for batch in plan]
    assert plan[0].start == 0 and plan[-1].stop == pairs
    assert all(a.stop == b.start for a, b in zip(plan, plan[1:]))
    per_batch = max(1, rows // N)  # whole pairs: one where N alone exceeds the budget
    assert max(sizes) <= per_batch and max(sizes) - min(sizes) <= 1
    assert len(plan) == -(-pairs // per_batch)


def test_a_call_is_fitted_replicate_by_replicate_and_alike_under_any_budget(monkeypatch):
    cfg, gammas = SyntheticConfig(reps=7, seed=3), [0.1, 0.5, 0.9]
    batches = []
    batch = SyntheticConfig.batch

    def recording(cls, cfgs, reps, normals):
        batches.append([(cfg.gamma, rep) for cfg, rep in zip(cfgs, reps)])
        return batch(cfgs, reps, normals)

    monkeypatch.setattr(SyntheticConfig, "batch", classmethod(recording))
    curves = {}
    for budget in (cfg.N, 3 * cfg.N, 2**16, 2**62):
        monkeypatch.setattr(simulate, "BATCH_ROWS", budget)
        batches.clear()
        curves[budget] = efficiency_curve(cfg, gammas)
        # replicate-major order: the gammas of a replicate side by side
        assert sum(batches, []) == [(gamma, rep) for rep in range(cfg.reps) for gamma in gammas]
        sizes = [len(b) for b in batches]
        assert max(sizes) * cfg.N <= budget and max(sizes) - min(sizes) <= 1
    assert [len(curves[b]) for b in curves] == [len(gammas) * len(simulate.DEFAULT_METHODS)] * 4
    # repr round-trips every float exactly: the curves are bit-identical
    assert len({repr(curve) for curve in curves.values()}) == 1


@pytest.mark.parametrize("cfg, field, values", [
    (SyntheticConfig(N=50, n=10, seed=11), "gamma", (0.3, 0.0, 1.0)),
    (ConditionalMeanConfig(N=50, n=10, seed=11), "noise_sd", (0.7, 2.0)),
    (OlsCoverageConfig(N=50, n=10, seed=11, theta_star=(1.37, -0.773)), "gamma", (0.3, 0.9)),
], ids=["synthetic", "conditional_mean", "ols"])
def test_a_batch_draw_equals_its_replicates_drawn_one_at_a_time(cfg, field, values):
    # a batch spanning several configs, with replicates repeated across them
    # and out of order: its rows-last arrays hold each pair's own draw
    pairs = [(replace(cfg, **{field: value}), rep) for value in values for rep in (4, 0, 9)]
    batch = simulate._draw_batch(pairs)
    for array in batch:
        assert array.dtype == np.float64 and array.flags.c_contiguous
    features, labels, predictions, truth = batch
    for i, (study, rep) in enumerate(pairs):
        one = study.draw(rep)
        for got, want in zip((features[i].T, labels[i], predictions[i].T, truth[i]), one):
            assert got.tobytes() == np.ascontiguousarray(want).tobytes(), (study, rep)


@pytest.mark.parametrize("batch_rows, draws", [(16384, 5), (1600, 7), (800, 5), (1400, 7)])
def test_a_sweep_draws_each_replicate_once_per_call(monkeypatch, batch_rows, draws):
    reps, gammas = 5, [0.1, 0.4, 0.6, 0.9]
    cfg = SyntheticConfig(reps=reps, seed=2)
    drawn = []
    rng_for = simulate._rng_for

    def counting(seed, rep):
        drawn.append(rep)
        return rng_for(seed, rep)

    # the 20 pairs, replicate by replicate: 16384 rows hold them in one batch;
    # 800 rows make 5 batches of 4 pairs, which split no replicate's gammas;
    # 1600 and 1400 rows (8 and 7 pairs at most) make 3 even batches of 6, 7
    # and 7, whose two inner boundaries split one replicate each
    monkeypatch.setattr(simulate, "BATCH_ROWS", batch_rows)
    monkeypatch.setattr(simulate, "_rng_for", counting)
    efficiency_curve(cfg, gammas, ["sada"])
    batches = -(-reps * len(gammas) // (batch_rows // cfg.N))
    assert sorted(set(drawn)) == list(range(reps))
    assert len(drawn) == draws <= reps + batches - 1
    if batches == 1:
        assert len(drawn) == reps  # R draws, not R * G


def test_strict_raises_the_first_failing_gamma_of_a_batch(monkeypatch):
    cfgs = [OlsCoverageConfig(N=200, n=60, reps=3, gamma=gamma, seed=5) for gamma in (0.2, 0.5, 0.8)]

    def strict(labeled, unlabeled):
        """Make the labeled design of replicate ``labeled`` = (gamma, rep)
        singular, and the unlabeled design of ``unlabeled``; all nine
        replicates share one batch."""
        def batch(cls, cfgs, reps, normals):
            X, labels, predictions, y = OLS_BATCH(cfgs, reps, normals)
            for i, (cfg, rep) in enumerate(zip(cfgs, reps)):
                if (cfg.gamma, rep) == labeled:
                    X[i, 1, : cfg.n] = 1.0
                if (cfg.gamma, rep) == unlabeled:
                    X[i, 1, cfg.n:] = 0.5
            return X, labels, predictions, y
        monkeypatch.setattr(OlsCoverageConfig, "batch", classmethod(batch))
        simulate._run_studies(cfgs, ("ppi:1", "naive"), 0.95, 1, True)

    # ppi:1, fitted before naive here, raises SingularHessian on gamma #2's replicate 2 and
    # SingularJacobian on gamma #3's replicate 0: config order comes before
    # replicate order
    with pytest.raises(SingularHessian):
        strict(labeled=(0.5, 2), unlabeled=(0.8, 0))
    with pytest.raises(SingularJacobian):
        strict(labeled=None, unlabeled=(0.8, 0))


def drawing_logged_to(log, batch):
    """``batch``, a patched batch draw, appending one line to the file ``log``
    for each batch it draws, also in a forked pool worker."""
    def draw(cls, cfgs, reps, normals):
        with open(log, "a") as out:
            out.write(f"{len(reps)}\n")
        return batch.__func__(cls, cfgs, reps, normals)
    return classmethod(draw)


def batches_drawn(log):
    return len(log.read_text().splitlines()) if log.exists() else 0


@pytest.mark.parametrize("workers", [1, 2], ids=["one-process", "pool"])
def test_strict_stops_at_the_first_batch_that_fails_the_first_config(pool_sizes, monkeypatch, tmp_path, workers):
    # one replicate per batch, 2 * MIN_BATCHES_PER_WORKER batches per config:
    # enough for a pool of 2, which runs in this process here
    reps = 2 * simulate.MIN_BATCHES_PER_WORKER
    cfgs = [OlsCoverageConfig(N=200, n=60, reps=reps, seed=5, gamma=gamma) for gamma in (0.2, 0.8)]
    monkeypatch.setattr(simulate, "BATCH_ROWS", cfgs[0].N)
    monkeypatch.setattr(simulate.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)

    def strict(cfgs, labeled=(), unlabeled=()):
        """Batches drawn by a strict run of ``cfgs`` with ppi:1 and naive,
        and the class of the error it raises: the labeled design of each
        (config, replicate) in ``labeled`` is made singular (ppi:1 raises
        SingularHessian) and the unlabeled one of those in ``unlabeled``
        (SingularJacobian)."""
        log = tmp_path / "drawn"
        log.unlink(missing_ok=True)

        def batch(cls, batch_cfgs, batch_reps, normals):
            X, labels, predictions, y = OLS_BATCH(batch_cfgs, batch_reps, normals)
            for i, (cfg, rep) in enumerate(zip(batch_cfgs, batch_reps)):
                if (cfgs.index(cfg), rep) in labeled:
                    X[i, 1, : cfg.n] = 1.0
                if (cfgs.index(cfg), rep) in unlabeled:
                    X[i, 1, cfg.n:] = 0.5
            return X, labels, predictions, y

        monkeypatch.setattr(OlsCoverageConfig, "batch", drawing_logged_to(log, classmethod(batch)))
        with pytest.raises(SadaError) as raised:
            simulate._run_studies(cfgs, ("ppi:1", "naive"), 0.95, workers, True)
        return batches_drawn(log), type(raised.value)

    # one config: its replicate 1 fails, so the second batch is the last fitted
    assert strict(cfgs[:1], labeled={(0, 1)}) == (2, SingularHessian)
    # two configs: the first config's replicate 3 is pair 7 of the
    # replicate-major order, so batch 7 is the last fitted
    assert strict(cfgs, unlabeled={(0, 3)}) == (7, SingularJacobian)
    # a failure of the second config may be preceded by one of the first in
    # any later batch: the run goes on, to its end or to the first config's
    # failure (its last replicate, in the last batch but one), which is raised
    assert strict(cfgs, labeled={(1, 0)}) == (2 * reps, SingularHessian)
    assert strict(cfgs, labeled={(1, 0)}, unlabeled={(0, reps - 1)}) == (2 * reps - 1, SingularJacobian)
    assert pool_sizes == ([2] * 4 if workers == 2 else [])


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the patched batch draw reaches pool workers only by fork")
def test_a_strict_pool_drops_its_pending_batches_at_the_first_failure(monkeypatch, tmp_path):
    # 200 batches of one replicate for a real pool of 2; replicate 0 fails
    cfg = OlsCoverageConfig(N=200, n=60, reps=200, seed=5)
    log = tmp_path / "drawn"
    monkeypatch.setattr(simulate, "BATCH_ROWS", cfg.N)
    monkeypatch.setattr(simulate.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(OlsCoverageConfig, "batch", drawing_logged_to(log, rank_deficient_at({0}, ())))
    with pytest.raises(SingularJacobian):
        simulate._run_studies([cfg], ("naive",), 0.95, 2, True)
    # the workers fit what they had started or queued, not the other batches
    assert 1 <= batches_drawn(log) < cfg.reps // 2


def test_the_readme_states_the_batch_plan_of_the_benchmark_sweep(monkeypatch):
    # 11 gammas x 30 replicates at N = 200, the sweep of the simulate_sweep
    # benchmark: the README's numbers come from the plan and the draws
    gammas, cfg = list(np.linspace(0.0, 1.0, 11)), SyntheticConfig(N=200, reps=30, seed=0)
    plan = simulate._plan(len(gammas) * cfg.reps, cfg.N)
    (size,) = {batch.stop - batch.start for batch in plan}
    drawn = []
    rng_for = simulate._rng_for

    def counting(seed, rep):
        drawn.append(rep)
        return rng_for(seed, rep)

    monkeypatch.setattr(simulate, "_rng_for", counting)
    efficiency_curve(cfg, gammas, ["naive"])
    readme = " ".join((Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8").split())
    assert f"`simulate.BATCH_ROWS` ({simulate.BATCH_ROWS:,}) rows" in readme
    assert f"at most `BATCH_ROWS // N` pairs ({simulate.BATCH_ROWS // cfg.N} at the default N = {cfg.N})" in readme
    assert (f"{len(gammas)} gammas × {cfg.reps} replicates at N = {cfg.N} make {len(plan)} batches "
            f"of {size} pairs, with {len(drawn)} draws") in readme
    assert f"`MIN_BATCHES_PER_WORKER` ({simulate.MIN_BATCHES_PER_WORKER}) batches" in readme
