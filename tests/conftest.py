import sys
from pathlib import Path

import pytest

try:
    import sada  # noqa: F401
except ImportError:  # run from a source checkout without installing
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))


@pytest.fixture
def no_ridge(monkeypatch):
    """Switch the weight-solve ridge off, so a weight is the exact plug-in."""
    import sada.weighting

    monkeypatch.setattr(sada.weighting, "RIDGE_SCALE", 0.0)
