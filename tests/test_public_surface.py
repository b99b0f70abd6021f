"""The names bound in ``sada``, pinned so that adding or removing one is a
deliberate one-line edit here, and the names the docs give to its code."""
import dataclasses
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

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


ROOT = Path(__file__).resolve().parents[1]
DOCUMENTED = [ROOT / "README.md", *sorted((ROOT / "src" / "sada").glob("*.py"))]
#: A dotted name in one or two backticks, as Markdown and docstrings quote code.
QUOTED = re.compile(r"`{1,2}([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`{1,2}")
MODULES = {info.name: importlib.import_module(f"sada.{info.name}") for info in pkgutil.iter_modules(sada.__path__)}
CLASSES = {name: value for module in MODULES.values() for name, value in vars(module).items()
           if inspect.isclass(value) and value.__module__.startswith("sada.")}


def names_code(path: str) -> bool | None:
    """Whether a quoted ``module.name``, ``sada.module.name`` or ``Class.attr``
    names code that exists; None when its head is no module or class of sada
    (``report.json``, ``np.errstate``)."""
    head, *attrs = path.split(".")
    owner = sada if head == "sada" else MODULES.get(head, CLASSES.get(head))
    if owner is None:
        return None
    for attr in attrs:
        if inspect.isclass(owner) and not hasattr(owner, attr):
            if dataclasses.is_dataclass(owner):
                return attr in {field.name for field in dataclasses.fields(owner)}
            # an attribute that the constructor sets, such as ``Problem.design``
            return re.search(rf"self\.{attr}\b", inspect.getsource(owner.__init__)) is not None
        if not hasattr(owner, attr):
            return False
        owner = getattr(owner, attr)
    return True


def test_the_docs_check_resolves_names_of_this_package_only():
    assert names_code("Problem.of") and names_code("problem.Problem.design") and names_code("sada.models.ABS_TOL")
    assert names_code("SimStudyResult.failure_classes")
    assert names_code("Problem.stack") is False and names_code("weighting.solve_gram") is False
    assert names_code("report.json") is None and names_code("np.errstate") is None


@pytest.mark.parametrize("path", DOCUMENTED, ids=lambda path: path.name)
def test_the_docs_name_only_code_that_exists(path):
    quoted = QUOTED.findall(path.read_text(encoding="utf-8"))
    checked = [name for name in quoted if names_code(name) is not None]
    assert [name for name in checked if not names_code(name)] == []
    if path.name in ("README.md", "problem.py"):
        assert checked  # the check is not vacuous where the docs name code most
