"""Safe and adaptive aggregation of multiple black-box prediction columns
for semi-supervised M-estimation."""

from .data import Dataset, stacked_score, stacked_score_matrix, validate_dataset
from .errors import (
    ConfigError,
    DimensionMismatch,
    NoLabeledRows,
    NonConvergence,
    NonFiniteValue,
    NoUnlabeledRows,
    ParseError,
    SadaError,
    SchemaError,
    SingularGram,
    SingularHessian,
    SingularJacobian,
    ZeroGram,
)
from .estimators import (
    EstimateReport,
    Intervals,
    naive_estimate,
    oracle_estimate,
    ppi_estimate,
    ppi_pp_estimate,
    sada_estimate,
    solve_weighted,
)
from .inference import (
    SandwichParts,
    attach_inference,
    confidence_region,
    covariance_and_intervals,
    estimate_hessian,
    estimate_sigma_g,
    estimate_sigma_nv,
    sandwich_parts,
    weighted_sigma,
)
from .models import (
    ScoreModel,
    SolverConfig,
    mean_model,
    ols_model,
    solve_estimating_equation,
    solve_score_root,
)
from .simulate import (
    ConditionalMeanConfig,
    CurveRow,
    OlsCoverageConfig,
    SimStudyResult,
    SyntheticConfig,
    conditional_mean_study,
    efficiency_curve,
    generate_synthetic,
    ols_coverage_study,
    run_replications,
)
from .weighting import (
    DEFAULT_RIDGE_SCALE,
    MomentEstimates,
    estimate_general_weights,
    estimate_mean_weights,
    moment_estimates,
    regularize_gram,
)

__version__ = "0.1.0"
