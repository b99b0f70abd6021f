"""The names bound in ``sada``, pinned so that adding or removing one is a
deliberate one-line edit here."""
import inspect

import sada

PUBLIC_NAMES = [
    "ConditionalMeanConfig",
    "ConfigError",
    "CurveRow",
    "DEFAULT_RIDGE_SCALE",
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
    "conditional_mean_study",
    "efficiency_curve",
    "estimate_general_weights",
    "generate_synthetic",
    "mean_model",
    "moment_estimates",
    "naive_estimate",
    "ols_coverage_study",
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
