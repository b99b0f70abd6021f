"""Pinned outputs of every compare method on one fixed-seed dataset.

``tests/data/golden_compare.json`` holds theta_hat, covariance, CI bounds
and weights of the 2K+2 compare methods (naive, ppi:1..K, ppi_pp:1..K,
sada), run through ``run_method`` at level 0.95 with the fixed weight-solve
ridge ``weighting.RIDGE_SCALE``, for the mean and the OLS model on the
dataset that ``golden_dataset`` builds (N = 400, n = 80, K = 3, d = 2, seed
20251018).
The file was written by ``python tests/test_golden.py`` before the per-column
estimators were moved onto ``solve_weighted``'s column selection; a change
that keeps the outputs must leave every array within 1e-12 of it, relative
to the array's largest entry.  Rerun that command only for a change that is
meant to move the numbers.
"""
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from sada import Dataset, mean_model, ols_model
from sada.inference import run_method

FIXTURE = Path(__file__).resolve().parent / "data" / "golden_compare.json"
SEED, N, n, K = 20251018, 400, 80, 3
RTOL = 1e-12


def golden_dataset() -> Dataset:
    rng = np.random.default_rng(SEED)
    X = np.column_stack([np.ones(N), rng.standard_normal(N)])
    y = X @ np.array([0.5, -1.0]) + rng.standard_normal(N)
    preds = np.column_stack([
        y + 0.5 * rng.standard_normal(N),
        0.6 * y + rng.standard_normal(N),
        rng.standard_normal(N),
    ])
    return Dataset.from_arrays(X, y[:n], preds)


def _tokens() -> list[str]:
    return (["naive"] + [f"ppi:{k}" for k in range(1, K + 1)]
            + [f"ppi_pp:{k}" for k in range(1, K + 1)] + ["sada"])


def _outputs(model) -> dict:
    ds = golden_dataset()
    out = {}
    for token in _tokens():
        report = run_method(ds, model, token, level=0.95)
        out[token] = {
            "theta_hat": report.theta_hat.tolist(),
            "covariance": report.covariance.tolist(),
            "lower": report.intervals.lower.tolist(),
            "upper": report.intervals.upper.tolist(),
            "weights": None if report.weights is None else np.asarray(report.weights).tolist(),
        }
    return out


MODELS = {"mean": mean_model, "ols": lambda: ols_model(2)}


@pytest.mark.parametrize("model_name", sorted(MODELS))
def test_compare_outputs_match_the_pinned_fixture(model_name):
    expected = json.loads(FIXTURE.read_text())[model_name]
    actual = _outputs(MODELS[model_name]())
    assert sorted(actual) == sorted(expected)
    for token, fields in expected.items():
        for key, want in fields.items():
            got = actual[token][key]
            if want is None:
                assert got is None, (token, key)
                continue
            want, got = np.asarray(want), np.asarray(got)
            assert got.shape == want.shape, (token, key)
            scale = max(float(np.max(np.abs(want))), np.finfo(float).tiny)
            assert np.max(np.abs(got - want)) <= RTOL * scale, (token, key)


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    payload = {name: _outputs(make()) for name, make in MODELS.items()}
    FIXTURE.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    sys.exit(0)
