"""The batched engine: a replicate's fit does not depend on its batch, and no
input makes a batch raise a raw numpy error.

``simulate`` fits a batch of replicates, which may span gammas, as one
``Problem``, and runs the batches in this process or in a process pool, so
its outputs are identical across ``--workers`` only because every
replicate's fit is the same whatever else shares its batch (acceptance
criterion 10 relies on that).
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sada import (Dataset, SadaError, SingularGram, mean_model, naive_estimate, ols_model, ppi_estimate,
                  solve_score_root, solve_weighted)
from sada.cli import _EXIT_CODES
from sada.inference import fit_method, run_method
from reference import stacked_problem

TOKENS = ["naive", "ppi:1", "ppi:2", "ppi_pp:1", "ppi_pp:2", "sada", "oracle"]


def replicate(rng, case, N=60, n=20):
    """x = (1, N(0, 1)), y linear in x, two prediction columns, shaped as ``case`` names."""
    X = np.column_stack([np.ones(N), rng.standard_normal(N)])
    y = X @ np.array([0.5, -1.0]) + rng.standard_normal(N)
    good, noise = 0.7 * y + 0.5 * rng.standard_normal(N), rng.standard_normal(N)
    preds = {"constant_column": [good, np.full(N, 2.0)], "exact_column": [noise, y]}.get(case, [good, noise])
    if case == "rank_deficient_labeled":
        X[:n, 1] = 3.0  # collinear with the intercept on the labeled rows only
    return Dataset.from_arrays(X, y[:n], np.column_stack(preds)), y


CASES = ["plain", "constant_column", "plain", "exact_column", "rank_deficient_labeled", "plain",
         "constant_column", "plain", "exact_column", "plain"]


def outcome(problem, token, i):
    """Replicate i of the token's fits: its error class, or the bytes of its outputs."""
    fits = fit_method(problem, token, level=0.9)
    if fits.errors[i] is not None:
        return type(fits.errors[i]).__name__
    arrays = [fits.theta[i]] if fits.covariance is None else [
        fits.theta[i], fits.covariance[i], fits.lower[i], fits.upper[i]]
    return b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)


def reported(ds, model, token, truth):
    """``run_method``'s outcome on one dataset, in the form ``outcome`` gives it."""
    try:
        report = run_method(ds, model, token, level=0.9, truth=truth)
    except SadaError as exc:
        return type(exc).__name__
    arrays = [report.theta_hat] if report.covariance is None else [
        report.theta_hat, report.covariance, report.intervals.lower, report.intervals.upper]
    return b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)


@pytest.mark.parametrize("make_model", [mean_model, lambda: ols_model(2)], ids=["mean", "ols"])
def test_a_fit_does_not_depend_on_its_batch(make_model):
    rng = np.random.default_rng(40)
    draws = [replicate(rng, case) for case in CASES]
    datasets, truths = [ds for ds, _ in draws], [y for _, y in draws]
    model = make_model()
    splits = {
        "one batch": [(0, len(draws))],
        "batches of one": [(i, i + 1) for i in range(len(draws))],
        "uneven": [(0, 3), (3, 4), (4, 9), (9, 10)],
    }
    results = {}
    for name, ranges in splits.items():
        results[name] = {
            (token, lo + i): outcome(stacked_problem(model, datasets[lo:hi], truths[lo:hi]), token, i)
            for lo, hi in ranges for token in TOKENS for i in range(hi - lo)
        }
    assert results["one batch"] == results["batches of one"] == results["uneven"]
    classes = {v for v in results["one batch"].values() if isinstance(v, str)}
    # the degenerate replicates reach the masks, not only the happy path
    assert classes == ({"SingularJacobian", "SingularHessian"} if model.p == 2 else set())
    # the per-dataset API is the batch of one
    for (token, i), got in results["one batch"].items():
        try:
            report = run_method(datasets[i], model, token, level=0.9, truth=truths[i])
        except SadaError as exc:
            assert got == type(exc).__name__
            continue
        arrays = [report.theta_hat] if report.covariance is None else [
            report.theta_hat, report.covariance, report.intervals.lower, report.intervals.upper]
        assert got == b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)


@pytest.mark.parametrize("make_model", [mean_model, lambda: ols_model(2)], ids=["mean", "ols"])
def test_a_fit_does_not_depend_on_the_memory_order_of_its_dataset(make_model):
    # a Dataset built directly from row-major arrays skips validation's
    # column-major copy, so ``Problem.of`` transposes it instead of taking views
    rng = np.random.default_rng(40)
    model = make_model()
    for ds, y in (replicate(rng, case) for case in CASES):
        row_major = Dataset(np.ascontiguousarray(ds.features), ds.labels, np.ascontiguousarray(ds.predictions))
        assert not row_major.predictions.flags.f_contiguous
        for token in TOKENS:
            assert reported(row_major, model, token, y) == reported(ds, model, token, y), token


# --- ROADMAP item 6: any finite input gives a finite answer or a SadaError ---

NUMERICAL_EXIT = 4


def drawn_dataset(seed, N, n, K, d, scales, degenerate):
    rng = np.random.default_rng(seed)
    X = np.column_stack([np.ones(N), rng.standard_normal((N, d - 1)) * 10.0 ** scales[0]])
    y = X @ rng.standard_normal(d) + rng.standard_normal(N)
    preds = rng.uniform(-1, 1, K) * y[:, None] + rng.standard_normal((N, K))
    preds *= 10.0 ** np.array(scales[1:1 + K])
    if degenerate == "constant_column":
        preds[:, 0] = 2.0
    elif degenerate == "exact_column":
        preds[:, -1] = y
    elif degenerate == "collinear_features" and d > 2:
        X[:, 2] = 2.0 * X[:, 1]
    elif degenerate == "constant_labeled_feature" and d > 1:
        X[:n, 1] = 1.5
    return Dataset.from_arrays(X, y[:n], preds)


@settings(derandomize=True, deadline=None, max_examples=40, database=None)
@given(
    seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4),
    shape=st.tuples(st.integers(3, 40), st.floats(0.0, 1.0), st.integers(1, 3), st.integers(1, 3)),
    scales=st.lists(st.integers(-6, 6), min_size=4, max_size=4),
    degenerate=st.sampled_from(["none", "constant_column", "exact_column", "collinear_features",
                                "constant_labeled_feature"]),
)
def test_any_finite_input_gives_a_finite_fit_or_a_sada_error(seeds, shape, scales, degenerate):
    # The risk the batched engine adds: one singular or non-finite matrix in a
    # stack makes numpy's batched solve/inv/svd/pinv raise LinAlgError for the
    # whole stack, so each is replaced before solving and its replicate marked.
    # The stacks here mix degenerate replicates with ordinary ones.
    N, frac, K, d = shape
    n = min(N - 1, max(1, round(frac * N)))
    datasets = [drawn_dataset(seed, N, n, K, d, scales, degenerate if j % 2 == 0 else "none")
                for j, seed in enumerate(seeds)]
    tokens = ["naive", "sada"] + [f"{m}:{k}" for m in ("ppi", "ppi_pp") for k in range(1, K + 1)]
    for model in (mean_model(), ols_model(d)):
        problem = stacked_problem(model, datasets)
        for token in tokens:
            fits = fit_method(problem, token, level=0.95)
            for i, ds in enumerate(datasets):
                error = fits.errors[i]
                try:
                    report = run_method(ds, model, token, level=0.95)
                except SadaError as exc:
                    code = next(code for classes, code in _EXIT_CODES if isinstance(exc, classes))
                    assert code == NUMERICAL_EXIT, (token, exc)
                    assert type(error) is type(exc), (token, i)
                    continue
                assert error is None, (token, i)
                values = np.concatenate([report.theta_hat, report.intervals.lower, report.intervals.upper])
                assert np.all(np.isfinite(values)), (token, i)
                assert np.array_equal(fits.theta[i], report.theta_hat)


def overflowing(where, seed=7, N=200, n=60):
    """An OLS dataset with an intercept whose prediction column 2 (``where`` =
    "prediction") or labels ("labels") sit near 1.5e307, so that their design
    products overflow; with its true labels."""
    rng = np.random.default_rng(seed)
    X = np.column_stack([np.ones(N), rng.standard_normal(N)])
    y = X @ np.array([0.5, -1.0]) + rng.standard_normal(N)
    huge = 1.5e307 * (1.0 + 0.1 * rng.standard_normal(N))
    preds = np.column_stack([0.7 * y + 0.5 * rng.standard_normal(N), huge if where == "prediction" else y])
    return Dataset.from_arrays(X, (huge if where == "labels" else y)[:n], preds), y


def test_a_closed_form_solve_that_overflows_raises_singular_gram():
    # under the suite's error::RuntimeWarning filter, with no np.errstate
    # here: an overflowing design product is a SadaError, never NaN or a warning
    ds, _ = overflowing("prediction")
    ols = ols_model(2)
    on_column_2 = np.vstack([np.zeros((2, 2)), np.eye(2)])
    for call in (lambda: ppi_estimate(ds, ols, 2), lambda: solve_weighted(ds, ols, on_column_2)):
        with pytest.raises(SingularGram, match=r"^estimate is not finite \(a design product overflowed\)$"):
            call()
    ds, _ = overflowing("labels")
    for model in (ols, mean_model()):
        for call in (lambda: solve_score_root(model, ds.features[: ds.n], ds.labels),
                     lambda: naive_estimate(ds, model)):
            with pytest.raises(SingularGram, match=r"^estimate is not finite"):
                call()


@pytest.mark.parametrize("where", ["prediction", "labels"])
@pytest.mark.parametrize("make_model", [mean_model, lambda: ols_model(2)], ids=["mean", "ols"])
def test_an_overflowing_replicate_fails_alone_in_its_batch(make_model, where):
    model = make_model()
    rng = np.random.default_rng(41)
    draws = [replicate(rng, "plain"), overflowing(where, N=60, n=20), replicate(rng, "plain")]
    datasets, truths = [ds for ds, _ in draws], [y for _, y in draws]
    batch = stacked_problem(model, datasets, truths)
    for token in TOKENS:
        for i, ds in enumerate(datasets):
            assert outcome(batch, token, i) == reported(ds, model, token, truths[i]), (token, i)
        for i in (0, 2):  # the ordinary replicates do not fail
            assert not isinstance(outcome(batch, token, i), str), (token, i)
    # the fits that use the overflowing values fail as a SadaError that exits 4
    failing = ["naive", "ppi:1", "ppi:2", "ppi_pp:1", "ppi_pp:2", "sada"] if where == "labels" else ["ppi:2"]
    for token in failing:
        assert outcome(batch, token, 1) == "SingularGram", token
