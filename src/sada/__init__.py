"""Safe and adaptive aggregation of multiple black-box prediction columns
for semi-supervised M-estimation."""

from .data import Dataset, stacked_score_matrix, validate_dataset
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
from .inference import attach_inference
from .models import (
    ScoreModel,
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
    efficiency_curve,
    generate_synthetic,
    run_replications,
)
from .weighting import estimate_general_weights, moment_estimates

__version__ = "0.1.0"
