"""Built-in score models and the Newton-type estimating-equation solver.

A score model bundles the score function s(x, y; theta) and its Jacobian
with respect to theta.  Evaluations broadcast over observations: passing a
single row (x of shape (d,), scalar y) returns a (p,) score and (p, p)
Jacobian; passing a batch (x of shape (m, d), y of shape (m,)) returns
(m, p) and (m, p, p).

Sign convention: ``jacobian`` is the derivative of the score itself, so for
the mean model it is the constant -1.  Downstream sandwich formulas use the
inverse of its expectation directly, with no sign flip.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NonConvergence, SingularJacobian

#: Reciprocal condition number below which a Jacobian, Hessian or covariance
#: is treated as singular; also the relative cutoff of the gram pseudo-inverse.
RCOND_THRESHOLD = 1e-12


@dataclass(frozen=True)
class ScoreModel:
    """Pure-function bundle defining an M-estimation problem.

    Attributes:
        p: parameter dimension.
        score: (x, y, theta) -> per-row score(s), see module docstring.
        jacobian: (x, y, theta) -> per-row score Jacobian(s) d s / d theta'.
        name: short identifier used in reports.
    """

    p: int
    score: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    name: str = "custom"


@dataclass(frozen=True)
class SolverConfig:
    """Newton solver controls: iteration budget, residual tolerance, step halvings."""

    max_iters: int = 50
    abs_tol: float = 1e-10
    damping: int = 20

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.abs_tol <= 0:
            raise ValueError("abs_tol must be positive")


def mean_model() -> ScoreModel:
    """Score model for the outcome mean: s(x, y; theta) = y - theta, p = 1."""

    def score(x, y, theta):
        y = np.asarray(y, dtype=float)
        if y.ndim == 0:
            return np.array([float(y) - theta[0]])
        return (y - theta[0])[:, None]

    def jacobian(x, y, theta):
        y = np.asarray(y, dtype=float)
        if y.ndim == 0:
            return np.array([[-1.0]])
        return np.full((y.shape[0], 1, 1), -1.0)

    return ScoreModel(p=1, score=score, jacobian=jacobian, name="mean")


def ols_model(d: int) -> ScoreModel:
    """Score model for linear regression: s(x, y; theta) = (y - x'theta) x, p = d."""
    if d < 1:
        raise ValueError("ols_model requires d >= 1")

    def score(x, y, theta):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.ndim == 1:
            return (float(y) - x @ theta) * x
        return (y - x @ theta)[:, None] * x

    def jacobian(x, y, theta):
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            return -np.outer(x, x)
        return -x[:, :, None] * x[:, None, :]

    return ScoreModel(p=d, score=score, jacobian=jacobian, name="ols")


def solve_estimating_equation(
    residual: Callable[[np.ndarray], np.ndarray],
    jac: Callable[[np.ndarray], np.ndarray],
    theta0: np.ndarray,
    cfg: SolverConfig | None = None,
) -> tuple[np.ndarray, int]:
    """Find theta with ||residual(theta)|| <= abs_tol by damped Newton steps.

    The step direction solves ``jac(theta) @ step = -residual(theta)``; when a
    full step does not decrease the residual norm the step is halved, up to
    ``cfg.damping`` times.  Affine residuals (both built-in models) converge in
    one step.

    Args:
        residual: theta -> length-p residual vector.
        jac: theta -> (p, p) residual Jacobian.
        theta0: starting point.
        cfg: solver controls; defaults to SolverConfig().

    Returns:
        (theta_hat, iterations).

    Raises:
        SingularJacobian: Jacobian reciprocal condition number below
            RCOND_THRESHOLD.
        NonConvergence: tolerance not met within max_iters, or step halving
            stalled without reducing the residual.
    """
    cfg = cfg or SolverConfig()
    theta = np.asarray(theta0, dtype=float).copy()
    r = np.asarray(residual(theta), dtype=float)
    norm = float(np.linalg.norm(r))
    for iteration in range(cfg.max_iters):
        if norm <= cfg.abs_tol:
            return theta, iteration
        J = np.asarray(jac(theta), dtype=float)
        if not np.all(np.isfinite(J)) or rcond(J) < RCOND_THRESHOLD:
            raise SingularJacobian(
                f"Jacobian is singular at iteration {iteration} (rcond < {RCOND_THRESHOLD:g})"
            )
        step = np.linalg.solve(J, -r)
        scale = 1.0
        for _ in range(cfg.damping + 1):
            candidate = theta + scale * step
            r_new = np.asarray(residual(candidate), dtype=float)
            norm_new = float(np.linalg.norm(r_new))
            if norm_new < norm or norm_new <= cfg.abs_tol:
                theta, r, norm = candidate, r_new, norm_new
                break
            scale *= 0.5
        else:
            raise NonConvergence(
                f"step halving stalled at iteration {iteration} (residual norm {norm:.3e})"
            )
    if norm <= cfg.abs_tol:
        return theta, cfg.max_iters
    raise NonConvergence(
        f"no convergence after {cfg.max_iters} iterations (residual norm {norm:.3e})"
    )


def solve_score_root(
    model: ScoreModel,
    X: np.ndarray,
    y: np.ndarray,
    cfg: SolverConfig | None = None,
    theta0: np.ndarray | None = None,
) -> tuple[np.ndarray, int]:
    """Solve the plain sample score equation mean_i s(x_i, y_i; theta) = 0."""
    if theta0 is None:
        theta0 = np.zeros(model.p)

    def residual(theta):
        return np.mean(model.score(X, y, theta), axis=0)

    def jac(theta):
        return np.mean(model.jacobian(X, y, theta), axis=0)

    return solve_estimating_equation(residual, jac, theta0, cfg)


def rcond(M: np.ndarray) -> float:
    """Reciprocal 2-norm condition number (0 for exactly singular)."""
    svals = np.linalg.svd(M, compute_uv=False)
    top = float(svals[0])
    if top == 0.0:
        return 0.0
    return float(svals[-1]) / top
