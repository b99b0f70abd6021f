"""The names bound in ``sada``, pinned so that adding or removing one is a
deliberate one-line edit here."""
import importlib
import inspect

import pytest

import sada

PUBLIC_NAMES = [
    "ConditionalMeanConfig",
    "ConfigError",
    "CurveRow",
    "Dataset",
    "DimensionMismatch",
    "EstimateReport",
    "Intervals",
    "NoLabeledRows",
    "NoUnlabeledRows",
    "NonConvergence",
    "NonFiniteValue",
    "OlsCoverageConfig",
    "ParseError",
    "SadaError",
    "SchemaError",
    "ScoreModel",
    "SimStudyResult",
    "SingularGram",
    "SingularHessian",
    "SingularJacobian",
    "SyntheticConfig",
    "ZeroGram",
    "attach_inference",
    "efficiency_curve",
    "estimate_general_weights",
    "generate_synthetic",
    "mean_model",
    "moment_estimates",
    "naive_estimate",
    "ols_model",
    "oracle_estimate",
    "ppi_estimate",
    "ppi_pp_estimate",
    "run_replications",
    "sada_estimate",
    "solve_estimating_equation",
    "solve_score_root",
    "solve_weighted",
    "stacked_score_matrix",
    "validate_dataset",
]


def test_the_public_surface_is_the_pinned_list():
    bound = sorted(
        name for name, value in vars(sada).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    )
    assert bound == PUBLIC_NAMES


#: Every function that took the weight-solve ridge as an option before it
#: became the constant ``sada.weighting.RIDGE_SCALE``.
FORMER_RIDGE_TAKERS = [
    "estimators.fit_ppi_pp",
    "estimators.fit_sada",
    "estimators.ppi_pp_estimate",
    "estimators.sada_estimate",
    "inference.fit_method",
    "inference.run_method",
    "weighting.estimate_general_weights",
    "weighting.solve_grams",
    "weighting.solve_gram",
    "weighting.ridged",
    "simulate._run_chunk",
    "simulate._run_studies",
    "simulate.run_replications",
    "simulate.efficiency_curve",
]


@pytest.mark.parametrize("path", FORMER_RIDGE_TAKERS)
def test_no_function_takes_a_ridge_option(path):
    module, name = path.split(".")
    params = inspect.signature(getattr(importlib.import_module(f"sada.{module}"), name)).parameters
    assert "ridge_scale" not in params
    assert not any(p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values())
