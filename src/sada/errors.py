"""Exception hierarchy shared across the package."""


class SadaError(Exception):
    """Base class for all errors raised by this package."""


# --- dataset validation ---

class DimensionMismatch(SadaError):
    """Array shapes are inconsistent with each other."""


class NonFiniteValue(SadaError):
    """An input array contains NaN or infinity."""


class NoLabeledRows(SadaError):
    """The dataset has no labeled rows (n = 0)."""


class NoUnlabeledRows(SadaError):
    """The dataset has no unlabeled rows (n = N); the aggregation weights are undefined."""


# --- estimating-equation solver ---

class SingularJacobian(SadaError):
    """Newton step failed: Jacobian reciprocal condition number below threshold."""


class NonConvergence(SadaError):
    """Solver did not reach the residual tolerance within its iteration budget."""


# --- weight estimation ---

class SingularGram(SadaError):
    """Second-moment matrix of the stacked scores is unusable even after regularization."""


class ZeroGram(SingularGram):
    """Gram matrix is identically zero (all prediction columns carry no variation)."""


# --- inference ---

class SingularHessian(SadaError):
    """Estimated Hessian is not invertible at the working tolerance."""


# --- CSV / config ingestion ---

class SchemaError(SadaError):
    """CSV header does not match the expected column schema."""


class ParseError(SadaError):
    """A CSV cell could not be parsed; message carries the row/column location."""


class ConfigError(SadaError):
    """Invalid run configuration (bad flag value, unknown model or method)."""
