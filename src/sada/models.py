"""Built-in score models and the solvers of their estimating equations.

A score model bundles the score function s(x, y; theta) and its Jacobian
with respect to theta.  ``score`` is evaluated per row: a single row (x of
shape (d,), scalar y) gives a (p,) score, a batch (x of shape (m, d), y of
shape (m,)) gives (m, p).  ``jacobian`` returns the mean Jacobian over the
rows it is given, always (p, p); a single row is a batch of one.  Every
consumer (the Newton step, the Hessian of the sandwich) needs only that
mean, so no per-row (m, p, p) tensor is ever built.

Sign convention: ``jacobian`` is the derivative of the score itself, so for
the mean model it is the constant -1.  Downstream sandwich formulas use the
inverse of its expectation directly, with no sign flip.

A model with a ``design`` (both built-ins) has a score affine in theta, so its
equations are solved exactly by one p x p linear solve; any other model is
solved by damped Newton (``solve_estimating_equation``).

A failure is the SadaError that the check finding it creates.  A batched
solve records one per replicate in a (B,) object array, None where the
replicate is fine (``no_errors``, ``fail``, ``solve_errors``), and the
per-dataset calls, the fallbacks and ``simulate`` read that record.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NonConvergence, SadaError, SingularGram, SingularJacobian

#: Reciprocal condition number below which a Jacobian, Hessian or covariance
#: is treated as singular; also the relative cutoff of the gram pseudo-inverse.
RCOND_THRESHOLD = 1e-12

#: Newton stops once a full step is at most this fraction of ||theta||.  With
#: the exact Jacobian Newton converges quadratically, so the error left after
#: such a step is at round-off, in whatever units theta has.
STEP_RTOL = float(np.sqrt(np.finfo(float).eps))

#: Newton controls: iteration budget, residual-norm tolerance, and the number
#: of times a step that does not decrease the residual norm is halved.  The
#: package's own Newton solves (``newton_in_score_units``) pass the residual
#: in units of the scores' RMS at the start, so ABS_TOL is relative to the
#: size of the scores, not to the units of the data.
MAX_ITERS = 50
ABS_TOL = 1e-10
MAX_HALVINGS = 20


@dataclass(frozen=True)
class ScoreModel:
    """Pure-function bundle defining an M-estimation problem.

    Attributes:
        p: parameter dimension.
        score: (x, y, theta) -> per-row score(s), see module docstring.
        jacobian: (x, y, theta) -> (p, p) mean over the given rows of the
            score Jacobian d s / d theta'.
        name: short identifier used in reports.
        design: x -> z, per row like ``score``, declaring the least-squares
            score s = z (y - z'theta) that ``score`` and ``jacobian`` compute
            (z = 1 for the mean, z = x for OLS); None for Newton.  A
            ``problem.Problem`` calls it once, on all its rows stacked.
    """

    p: int
    score: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    name: str = "custom"
    design: Callable[[np.ndarray], np.ndarray] | None = None


def check_theta(theta, p: int, name: str = "theta") -> np.ndarray:
    """theta as a float array, raising ValueError unless it is finite and of shape (p,)."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (p,):
        raise ValueError(f"{name} must have shape ({p},), got {theta.shape}")
    if not np.all(np.isfinite(theta)):
        raise ValueError(f"{name} must be finite")
    return theta


def _least_squares_model(p: int, design: Callable[[np.ndarray], np.ndarray], name: str) -> ScoreModel:
    """Score model s = z (y - z'theta), z = design(x), with its score and Jacobian."""

    def score(x, y, theta):
        z = design(x)
        y = np.asarray(y, dtype=float)
        if z.ndim == 1:
            return (float(y) - z @ theta) * z
        return (y - z @ theta)[:, None] * z

    def jacobian(x, y, theta):
        z = np.atleast_2d(design(x))
        return -(z.T @ z) / z.shape[0]

    return ScoreModel(p=p, score=score, jacobian=jacobian, name=name, design=design)


def _intercept(x) -> np.ndarray:
    return np.ones(np.shape(x)[:-1] + (1,))


def _features(x) -> np.ndarray:
    return np.asarray(x, dtype=float)


def mean_model() -> ScoreModel:
    """Score model for the outcome mean: s(x, y; theta) = y - theta, p = 1."""
    return _least_squares_model(1, _intercept, "mean")


def ols_model(d: int) -> ScoreModel:
    """Score model for linear regression: s(x, y; theta) = (y - x'theta) x, p = d."""
    if d < 1:
        raise ValueError("ols_model requires d >= 1")
    return _least_squares_model(d, _features, "ols")


# a residual that overflows has an inf or NaN norm and raises NonConvergence,
# and a Jacobian that does is not ``nonsingular``, so numpy's floating-point
# warnings say nothing more
@np.errstate(over="ignore", invalid="ignore")
def solve_estimating_equation(
    residual: Callable[[np.ndarray], np.ndarray],
    jac: Callable[[np.ndarray], np.ndarray],
    theta0: np.ndarray,
) -> tuple[np.ndarray, int]:
    """Find a root of ``residual`` by damped Newton steps.

    The step direction solves ``jac(theta) @ step = -residual(theta)``; when a
    full step does not decrease the residual norm the step is halved, up to
    ``MAX_HALVINGS`` times.  The solve stops when ||residual(theta)|| <=
    ``ABS_TOL``, or, whatever the units of theta, when the full step is
    at most ``STEP_RTOL * ||theta||``; that step is then taken.  Used for
    models without a design; the built-in models are solved in closed form
    instead.

    Args:
        residual: theta -> length-p residual vector.
        jac: theta -> (p, p) residual Jacobian, p = len(theta0).
        theta0: starting point.

    Returns:
        (theta_hat, iterations).

    Raises:
        ValueError: ``jac`` returned a shape other than (p, p), e.g. one
            Jacobian per row instead of their mean.
        SingularJacobian: Jacobian reciprocal condition number below
            RCOND_THRESHOLD.
        NonConvergence: tolerance not met within MAX_ITERS, or step halving
            stalled without reducing the residual.
    """
    theta = np.asarray(theta0, dtype=float).copy()
    r = np.asarray(residual(theta), dtype=float)
    norm = float(np.linalg.norm(r))
    for iteration in range(MAX_ITERS):
        if norm <= ABS_TOL:
            return theta, iteration
        J = np.asarray(jac(theta), dtype=float)
        if J.shape != (theta.size, theta.size):
            raise ValueError(
                f"Jacobian shape {J.shape} != {(theta.size, theta.size)}: the Jacobian "
                "must be the mean over the rows it is given, not one matrix per row"
            )
        _check_jacobian(J, iteration)
        step = np.linalg.solve(J, -r)
        if np.linalg.norm(step) <= STEP_RTOL * np.linalg.norm(theta):
            return theta + step, iteration + 1
        scale = 1.0
        for _ in range(MAX_HALVINGS + 1):
            candidate = theta + scale * step
            r_new = np.asarray(residual(candidate), dtype=float)
            norm_new = float(np.linalg.norm(r_new))
            if norm_new < norm or norm_new <= ABS_TOL:
                theta, r, norm = candidate, r_new, norm_new
                break
            scale *= 0.5
        else:
            raise NonConvergence(
                f"step halving stalled at iteration {iteration} (residual norm {norm:.3e})"
            )
    if norm <= ABS_TOL:
        return theta, MAX_ITERS
    raise NonConvergence(
        f"no convergence after {MAX_ITERS} iterations (residual norm {norm:.3e})"
    )


@np.errstate(over="ignore", invalid="ignore")  # as in ``solve_estimating_equation``
def newton_in_score_units(model: ScoreModel, X: np.ndarray, y: np.ndarray, theta0: np.ndarray,
                          residual: Callable, jac: Callable) -> tuple[np.ndarray, int]:
    """``solve_estimating_equation`` with ``residual`` and ``jac`` divided by u,
    the RMS of the per-row scores of (X, y) at theta0, or 1 where that is 0 or
    not finite.  The root and the steps are those of the undivided equation,
    and ABS_TOL compares the residual with the size of the scores, so a root
    in data of any units is found rather than taken to be the start."""
    scores = np.asarray(model.score(X, y, theta0), dtype=float)
    u = float(np.sqrt(np.mean(scores * scores)))
    u = u if 0.0 < u < np.inf else 1.0
    return solve_estimating_equation(lambda theta: np.asarray(residual(theta), dtype=float) / u,
                                     lambda theta: np.asarray(jac(theta), dtype=float) / u, theta0)


JACOBIAN_SINGULAR = f"Jacobian is singular (rcond < {RCOND_THRESHOLD:g})"
ESTIMATE_NONFINITE = "estimate is not finite (a design product overflowed)"


def no_errors(B: int) -> np.ndarray:
    """The failure record of B replicates none of which has failed: (B,) objects, all None."""
    return np.full(B, None, dtype=object)


def fail(errors: np.ndarray, bad: np.ndarray, error: type[SadaError], message: str) -> None:
    """Give each replicate in ``bad`` that has not failed yet the error it raises."""
    for i in np.flatnonzero(bad):
        if errors[i] is None:
            errors[i] = error(message)


def solve_errors(theta: np.ndarray, ok: np.ndarray, errors: np.ndarray | None = None) -> np.ndarray:
    """``errors`` (none by default) with those of a solve added: SingularJacobian
    where ``ok`` is False, and SingularGram where theta (B, p) is not finite,
    as when a design product overflows."""
    errors = no_errors(ok.shape[0]) if errors is None else errors
    fail(errors, ~ok, SingularJacobian, JACOBIAN_SINGULAR)
    fail(errors, ~np.isfinite(theta).all(axis=1), SingularGram, ESTIMATE_NONFINITE)
    return errors


def _check_jacobian(J: np.ndarray, iteration: int) -> None:
    if not nonsingular(J):
        raise SingularJacobian(
            f"Jacobian is singular at iteration {iteration} (rcond < {RCOND_THRESHOLD:g})"
        )


def nonsingular(J: np.ndarray) -> np.ndarray:
    """Per matrix of a stack (..., p, p): finite, with rcond at least
    RCOND_THRESHOLD once Jacobi-scaled (``jacobi_scaled``), so that the
    verdict does not depend on the units of the parameters.

    A non-finite matrix is replaced by the identity before the SVD, since one
    such matrix would make numpy's batched SVD raise for the whole stack.
    """
    J = np.asarray(J, dtype=float)
    finite = np.all(np.isfinite(J), axis=(-2, -1))
    safe = np.where(finite[..., None, None], J, np.eye(J.shape[-1]))
    return finite & (rcond(jacobi_scaled(safe)) >= RCOND_THRESHOLD)


def jacobi_scaled(M: np.ndarray) -> np.ndarray:
    """D^-1/2 M D^-1/2 for each finite matrix of a stack (..., p, p), with
    D = |diag M| and its zero entries taken as 1.

    Rescaling a parameter scales a row and a column of a Jacobian; this
    undoes it.  M itself where p = 1, whose rcond is 1 or 0 either way, and
    for a matrix whose scaled entries overflow.
    """
    if M.shape[-1] == 1:
        return M
    d = np.abs(np.diagonal(M, axis1=-2, axis2=-1))
    s = 1.0 / np.sqrt(np.where(d > 0.0, d, 1.0))
    with np.errstate(over="ignore"):
        scaled = M * s[..., :, None] * s[..., None, :]
    return np.where(np.all(np.isfinite(scaled), axis=(-2, -1))[..., None, None], scaled, M)


def checked_inverse(H: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Hinv, ok) for a stack of (p, p) matrices: ok marks those that pass
    ``nonsingular``; where one fails, Hinv is the identity."""
    ok = nonsingular(H)
    return np.linalg.inv(np.where(ok[:, None, None], H, np.eye(H.shape[-1]))), ok


def solve_affine(G: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Roots of the affine residuals b - G theta of a stack: solve(G, b).

    G is (B, p, p) and b (B, p).  An affine equation has one root, so no
    starting point enters.  Returns (theta, ok): ok marks the G that pass the
    Newton Jacobian test; where one fails, G is replaced by the identity
    before the batched solve and theta is zero.
    """
    ok = nonsingular(G)
    G = np.where(ok[:, None, None], G, np.eye(G.shape[-1]))
    theta = np.linalg.solve(G, b[..., None])[..., 0]
    theta[~ok] = 0.0
    return theta, ok


def solve_score_root(
    model: ScoreModel,
    X: np.ndarray,
    y: np.ndarray,
    theta0: np.ndarray | None = None,
) -> tuple[np.ndarray, int]:
    """Solve the plain sample score equation mean_i s(x_i, y_i; theta) = 0.

    A model with a design is solved in closed form from G = Z'Z/m and
    b = Z'y/m (``problem.design_root``, batch of one), Z' taken by
    ``problem.rows_last_design``, and ignores theta0; any other by Newton
    from theta0 (zeros by default), in score units
    (``newton_in_score_units``).  A design of other than p columns raises
    DimensionMismatch.
    """
    if model.design is not None:
        from .problem import design_root, rows_last_design  # problem imports this module

        X, y = np.asarray(X, dtype=float), np.asarray(y, dtype=float)
        theta, ok = design_root(rows_last_design(model, X.reshape(X.shape[0], -1).T[None]), y[None])
        error = solve_errors(theta, ok)[0]
        if error is not None:
            raise error
        return theta[0], 1
    theta0 = np.zeros(model.p) if theta0 is None else np.asarray(theta0, dtype=float)

    def residual(theta):
        return np.mean(model.score(X, y, theta), axis=0)

    return newton_in_score_units(model, X, y, theta0, residual, lambda theta: model.jacobian(X, y, theta))


def rcond(M: np.ndarray) -> np.ndarray:
    """Reciprocal 2-norm condition number of each matrix of a stack (0 for exactly singular)."""
    # the singular value of a 1 x 1 matrix is its absolute value; the batched
    # SVD would make one LAPACK call per matrix to say so
    svals = np.abs(M[..., 0]) if M.shape[-1] == 1 else np.linalg.svd(M, compute_uv=False)
    top, bottom = svals[..., 0], svals[..., -1]
    return np.divide(bottom, top, out=np.zeros_like(top), where=top != 0.0)
